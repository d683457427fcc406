//! `--check FILE` and `--compare A B` over saved benchmark output (the
//! standard output of one or more runs, concatenated).

use crate::json::{self, Json};
use crate::spec::{Declared, Spec};
use crate::stats;
use std::collections::BTreeMap;

/// One run's output, as read back from a results file.
#[derive(Debug, Default)]
pub struct Run {
    pub workload: String,
    pub traced: bool,
    /// Metric lines: name → (value, unit).
    pub lines: BTreeMap<String, (Option<f64>, String)>,
    pub summary: Option<Json>,
}

/// Split a results file into runs. A run starts at its context line and
/// ends at its summary line; anything that is not a JSON object (the
/// breakdown table, notes) is skipped.
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let mut current: Option<Run> = None;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if let Some(ctx) = doc.get("context") {
            let workload = doc
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or_default();
            current = Some(Run {
                workload: workload.to_string(),
                traced: ctx.get("trace").and_then(Json::as_f64) == Some(1.0),
                ..Run::default()
            });
        } else if let Some(name) = doc.get("metric").and_then(Json::as_str) {
            let run = current
                .as_mut()
                .ok_or_else(|| format!("line {}: metric before any context line", i + 1))?;
            let unit = doc.get("unit").and_then(Json::as_str).unwrap_or_default();
            let value = doc.get("value").and_then(Json::as_f64);
            run.lines
                .insert(name.to_string(), (value, unit.to_string()));
        } else if doc.get("correct").is_some() {
            let mut run = current
                .take()
                .ok_or_else(|| format!("line {}: summary before any context line", i + 1))?;
            run.summary = Some(doc);
            runs.push(run);
        }
    }
    if current.is_some() {
        return Err("output ends inside a run (no summary line)".into());
    }
    Ok(runs)
}

/// Problems with one run against the declared metrics: every declared
/// metric present in both the metric lines and the summary, finite, in
/// its declared unit, and a summary with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn check_run(run: &Run, spec: &Spec) -> Vec<String> {
    let mut problems = Vec::new();
    let tag = format!("{} (trace {})", run.workload, u8::from(run.traced));
    if !spec.workloads.contains(&run.workload) {
        problems.push(format!("{tag}: workload not declared"));
    }
    let declared = spec.for_mode(run.traced);
    for d in declared {
        match run.lines.get(&d.name) {
            None => problems.push(format!("{tag}: no line for {}", d.name)),
            Some((value, unit)) => {
                if !value.is_some_and(f64::is_finite) {
                    problems.push(format!("{tag}: {} is not a finite number", d.name));
                }
                if *unit != d.unit {
                    problems.push(format!("{tag}: {} in {unit}, declared {}", d.name, d.unit));
                }
            }
        }
    }
    let Some(summary) = &run.summary else {
        problems.push(format!("{tag}: no summary line"));
        return problems;
    };
    if summary.keys() != ["correct", "attempted", "failed", "metrics"] {
        problems.push(format!("{tag}: summary keys are {:?}", summary.keys()));
    }
    if summary.get("correct") != Some(&Json::Bool(true)) {
        problems.push(format!("{tag}: not correct"));
    }
    let whole = |key: &str| {
        summary
            .get(key)
            .and_then(Json::as_f64)
            .filter(|x| x.fract() == 0.0 && *x >= 0.0)
    };
    if !whole("attempted").is_some_and(|a| a >= 1.0) {
        problems.push(format!("{tag}: `attempted` is not a whole number ≥ 1"));
    }
    if whole("failed").is_none() {
        problems.push(format!("{tag}: `failed` is not a whole number"));
    }
    let metrics = summary.get("metrics");
    let names: Vec<&str> = metrics.map(Json::keys).unwrap_or_default();
    let expected: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
    if names != expected {
        problems.push(format!(
            "{tag}: summary metrics {names:?}, declared {expected:?}"
        ));
    }
    for d in declared {
        let entry = metrics.and_then(|m| m.get(&d.name));
        let value = entry.and_then(|e| e.get("value")).and_then(Json::as_f64);
        let unit = entry.and_then(|e| e.get("unit")).and_then(Json::as_str);
        if !value.is_some_and(f64::is_finite) || unit != Some(d.unit.as_str()) {
            problems.push(format!("{tag}: summary entry for {} is malformed", d.name));
        }
    }
    problems
}

pub fn check(text: &str, spec: &Spec) -> Result<usize, Vec<String>> {
    let runs = parse_runs(text).map_err(|e| vec![e])?;
    if runs.is_empty() {
        return Err(vec!["no runs in the file".into()]);
    }
    let problems: Vec<String> = runs.iter().flat_map(|r| check_run(r, spec)).collect();
    if problems.is_empty() {
        Ok(runs.len())
    } else {
        Err(problems)
    }
}

/// Values of one end-to-end metric, one per untraced run, in run order.
fn series(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| {
            r.summary
                .as_ref()?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub workload: String,
    pub metric: String,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub bound: f64,
    pub b_wins: usize,
    pub pairs: usize,
    pub verdict: &'static str,
}

/// Verdict for B against baseline A:
/// - `unresolved`: either side's quartile spread exceeds the bound,
///   unless every B run beats (or loses to) every A run;
/// - `regressed`: B's median is worse than A's by more than the bound;
/// - `improved`: B wins at least nine pairs in ten and the medians
///   differ by more than A's interquartile range;
/// - `unchanged` otherwise.
pub fn judge(d: &Declared, a: &[f64], b: &[f64]) -> (&'static str, usize, usize) {
    let bound = d.bound.unwrap_or(0.0);
    let pairs = a.len().min(b.len());
    let b_wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| d.is_better(**x, **y))
        .count();
    let (Some(ma), Some(mb), Some((q1a, q3a))) =
        (stats::median(a), stats::median(b), stats::quartiles(a))
    else {
        return ("unresolved", b_wins, pairs);
    };
    let beats_all =
        |xs: &[f64], ys: &[f64]| ys.iter().all(|y| xs.iter().all(|x| d.is_better(*x, *y)));
    let noisy = [a, b]
        .iter()
        .any(|s| stats::spread(s).is_none_or(|sp| sp > bound));
    let verdict = if noisy {
        if beats_all(a, b) {
            "improved"
        } else if beats_all(b, a) {
            "regressed"
        } else {
            "unresolved"
        }
    } else if d.worsening(ma, mb) > bound {
        "regressed"
    } else if d.is_better(ma, mb) && b_wins * 10 >= pairs * 9 && (mb - ma).abs() > q3a - q1a {
        "improved"
    } else {
        "unchanged"
    };
    (verdict, b_wins, pairs)
}

pub fn compare(a_text: &str, b_text: &str, spec: &Spec) -> Result<Vec<Comparison>, String> {
    let a_runs = parse_runs(a_text)?;
    let b_runs = parse_runs(b_text)?;
    let mut out = Vec::new();
    for workload in &spec.workloads {
        for d in &spec.end_to_end {
            let a = series(&a_runs, workload, &d.name);
            let b = series(&b_runs, workload, &d.name);
            if a.is_empty() && b.is_empty() {
                continue;
            }
            let (verdict, b_wins, pairs) = judge(d, &a, &b);
            out.push(Comparison {
                workload: workload.clone(),
                metric: d.name.clone(),
                a,
                b,
                bound: d.bound.unwrap_or(0.0),
                b_wins,
                pairs,
                verdict,
            });
        }
    }
    if out.is_empty() {
        return Err("no untraced runs of a declared workload in either file".into());
    }
    Ok(out)
}

impl Comparison {
    pub fn line(&self) -> String {
        let num = |x: Option<f64>| x.map_or("null".to_string(), json::number);
        let (q1a, q3a) = stats::quartiles(&self.a).unzip();
        let (q1b, q3b) = stats::quartiles(&self.b).unzip();
        format!(
            "{{\"workload\":{},\"metric\":{},\"runs_a\":{},\"runs_b\":{},\"median_a\":{},\"q1_a\":{},\"q3_a\":{},\"spread_a\":{},\"median_b\":{},\"q1_b\":{},\"q3_b\":{},\"spread_b\":{},\"bound\":{},\"pairs\":{},\"b_wins\":{},\"verdict\":\"{}\"}}",
            json::quote(&self.workload),
            json::quote(&self.metric),
            self.a.len(),
            self.b.len(),
            num(stats::median(&self.a)),
            num(q1a),
            num(q3a),
            num(stats::spread(&self.a)),
            num(stats::median(&self.b)),
            num(q1b),
            num(q3b),
            num(stats::spread(&self.b)),
            json::number(self.bound),
            self.pairs,
            self.b_wins,
            self.verdict
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "workloads": [{"name": "w", "why": "."}],
        "end_to_end": [{"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "hits", "unit": "count", "better": "higher"}]
    }"#;

    fn run(trace: u8, metric: &str, unit: &str, value: f64) -> String {
        format!(
            "{{\"workload\":\"w\",\"context\":{{\"trace\":{trace}}}}}\n\
             breakdown table lines are skipped\n\
             {{\"workload\":\"w\",\"metric\":\"{metric}\",\"value\":{value},\"unit\":\"{unit}\",\"kind\":\"e2e\",\"n\":5}}\n\
             {{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{{\"{metric}\":{{\"value\":{value},\"unit\":\"{unit}\"}}}}}}\n"
        )
    }

    #[test]
    fn check_accepts_declared_metrics_in_either_mode() {
        let spec = Spec::parse(SPEC).unwrap();
        let text = run(0, "lat_ms", "ms", 1.5) + &run(1, "hits", "count", 3.0);
        assert_eq!(check(&text, &spec), Ok(2));
    }

    #[test]
    fn check_reports_missing_metrics_wrong_units_and_truncated_output() {
        let spec = Spec::parse(SPEC).unwrap();
        assert!(check(&run(0, "other_ms", "ms", 1.0), &spec).is_err());
        assert!(check(&run(0, "lat_ms", "s", 1.0), &spec).is_err());
        assert!(
            check(&run(1, "lat_ms", "ms", 1.0), &spec).is_err(),
            "traced runs need per-layer"
        );
        let truncated: String = run(0, "lat_ms", "ms", 1.0)
            .lines()
            .take(3)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(check(&truncated, &spec).is_err());
        assert!(check("", &spec).is_err());
    }

    #[test]
    fn judge_separates_noise_from_change() {
        let spec = Spec::parse(SPEC).unwrap();
        let d = &spec.end_to_end[0];
        let a = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02];
        // Same distribution: unchanged.
        let (v, _, pairs) = judge(d, &a, &[10.02, 9.97, 10.0, 10.06, 9.94, 10.01, 10.0]);
        assert_eq!((v, pairs), ("unchanged", 7));
        // 20% slower: regressed.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(d, &a, &slow).0, "regressed");
        // 5% faster in every pair: improved (within the bound, but
        // beyond A's interquartile range and winning every pair).
        let fast: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        let (v, wins, _) = judge(d, &a, &fast);
        assert_eq!((v, wins), ("improved", 7));
        // Spread wider than the bound: unresolved.
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0];
        assert_eq!(judge(d, &a, &noisy).0, "unresolved");
    }

    #[test]
    fn compare_pairs_runs_per_workload_and_metric() {
        let spec = Spec::parse(SPEC).unwrap();
        let a: String = [1.0, 1.01, 0.99, 1.0, 1.02]
            .iter()
            .map(|v| run(0, "lat_ms", "ms", *v))
            .collect();
        let b: String = [1.0, 0.99, 1.01, 1.0, 1.0]
            .iter()
            .map(|v| run(0, "lat_ms", "ms", *v))
            .collect();
        let out = compare(&a, &b, &spec).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].verdict, "unchanged");
        assert_eq!(out[0].pairs, 5);
        assert!(json::parse(&out[0].line()).is_ok());
    }
}
