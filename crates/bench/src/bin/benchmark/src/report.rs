//! What a run prints: a context line, one JSON line per metric, and a
//! closing summary line that carries exactly the metrics
//! `BENCHMARK.json` declares for the run's mode (`end_to_end` untraced,
//! `per_layer` traced).

use crate::json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Seen by a user of the system; measured with tracing off.
    E2e,
    /// One layer, from the traced phase (or a validity check of the
    /// load generator).
    Layer,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::E2e => "e2e",
            Kind::Layer => "layer",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        kind: Kind,
        n: usize,
    ) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            kind,
            n,
        }
    }

    pub fn line(&self, workload: &str) -> String {
        format!(
            "{{\"workload\":{},\"metric\":{},\"value\":{},\"unit\":{},\"kind\":\"{}\",\"n\":{}}}",
            json::quote(workload),
            json::quote(&self.name),
            json::number(self.value),
            json::quote(self.unit),
            self.kind.label(),
            self.n
        )
    }
}

/// The closing line: `correct`, `attempted`, `failed` and the metrics
/// declared as `(name, unit)`, in that order. A declared metric the run
/// did not measure, or measured in another unit, is an error, never a
/// made-up value.
pub fn summary(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    declared: &[(&str, &str)],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let m = metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        if m.unit != unit {
            return Err(format!(
                "metric {name} is in {}, declared in {unit}",
                m.unit
            ));
        }
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::quote(name),
            json::number(m.value),
            json::quote(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_carries_exactly_the_declared_metrics() {
        let metrics = vec![
            Metric::new("a_ms", 1.25, "ms", Kind::E2e, 10),
            Metric::new("extra", 3.0, "count", Kind::E2e, 1),
            Metric::new("b_s", 0.5, "s", Kind::E2e, 3),
        ];
        let line = summary(true, 13, 0, &metrics, &[("b_s", "s"), ("a_ms", "ms")]).unwrap();
        let doc = json::parse(&line).unwrap();
        assert_eq!(
            doc.keys(),
            vec!["correct", "attempted", "failed", "metrics"]
        );
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.keys(), vec!["b_s", "a_ms"]);
        assert_eq!(
            m.get("a_ms")
                .and_then(|v| v.get("value"))
                .and_then(json::Json::as_f64),
            Some(1.25)
        );
        assert!(summary(true, 1, 0, &metrics, &[("missing", "ms")]).is_err());
        assert!(summary(true, 1, 0, &metrics, &[("a_ms", "s")]).is_err());
        let nan = vec![Metric::new("x", f64::NAN, "ms", Kind::E2e, 1)];
        assert!(summary(true, 1, 0, &nan, &[("x", "ms")]).is_err());
    }

    #[test]
    fn metric_lines_parse_back() {
        let line = Metric::new("rank_p50_ms", 0.5123, "ms", Kind::E2e, 7000).line("chat");
        let doc = json::parse(&line).unwrap();
        assert_eq!(
            doc.keys(),
            vec!["workload", "metric", "value", "unit", "kind", "n"]
        );
        assert_eq!(doc.get("value").and_then(json::Json::as_f64), Some(0.5123));
    }
}
