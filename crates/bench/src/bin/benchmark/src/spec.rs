//! The declared metrics, read from `BENCHMARK.json` at the repository
//! root: the one place that names what a run must report, in which
//! unit, and by how much each end-to-end metric may worsen.

use crate::json::{self, Json};
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl Declared {
    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// better).
    pub fn worsening(&self, a: f64, b: f64) -> f64 {
        let delta = if self.lower_is_better { b - a } else { a - b };
        delta / a.abs()
    }

    pub fn is_better(&self, a: f64, b: f64) -> bool {
        if self.lower_is_better {
            b < a
        } else {
            b > a
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("missing `workloads`")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "workload without a name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: declared(&doc, "end_to_end", true)?,
            per_layer: declared(&doc, "per_layer", false)?,
        })
    }

    /// The metrics a run in this mode must report.
    pub fn for_mode(&self, traced: bool) -> &[Declared] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn declared(doc: &Json, key: &str, bounded: bool) -> Result<Vec<Declared>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing `{key}`"))?;
    items
        .iter()
        .map(|item| {
            let field = |f: &str| {
                item.get(f)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("`{key}` entry without `{f}`"))
            };
            let name = field("name")?.to_string();
            let lower_is_better = match field("better")? {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("{name}: `better` is `{other}`")),
            };
            let bound = if bounded {
                let b = item
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: missing `bound`"))?;
                Some(b)
            } else {
                None
            };
            Ok(Declared {
                unit: field("unit")?.to_string(),
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "command": ["x"], "paths": ["p"], "run_seconds": 10,
        "workloads": [{"name": "hit", "why": "w"}, {"name": "miss", "why": "w"}],
        "end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                       {"name": "rps", "unit": "1/s", "better": "higher", "bound": 0.05}],
        "per_layer": [{"name": "cache_hits", "unit": "count", "better": "higher"}]
    }"#;

    #[test]
    fn reads_declared_metrics_and_directions() {
        let spec = Spec::parse(DOC).unwrap();
        assert_eq!(spec.workloads, vec!["hit", "miss"]);
        assert_eq!(spec.end_to_end.len(), 2);
        assert_eq!(spec.per_layer[0].bound, None);
        let lat = &spec.end_to_end[0];
        assert!((lat.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(lat.is_better(10.0, 9.0));
        let rps = &spec.end_to_end[1];
        assert!((rps.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(rps.is_better(100.0, 101.0));
        assert_eq!(spec.for_mode(true)[0].name, "cache_hits");
    }

    #[test]
    fn rejects_incomplete_declarations() {
        assert!(Spec::parse(&DOC.replace("\"bound\": 0.1", "\"x\": 0")).is_err());
        assert!(Spec::parse(&DOC.replace("\"lower\"", "\"down\"")).is_err());
        assert!(Spec::parse("{}").is_err());
    }
}
