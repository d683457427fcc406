//! Validator for flight-recorder reports (`xtask check-report`).
//!
//! The serve bench dumps the recorder's `ObsReport` rendered through
//! `ObsReport::render`; CI byte-diffs two normalized dumps from
//! identical runs and feeds one through this validator to catch emitter
//! regressions (truncated writes, broken escaping, dropped sections)
//! without a serde dependency. Reuses the recursive-descent JSON parser
//! from `benchjson`.

use crate::benchjson::{Parser, Value};

/// Top-level keys every report must carry, normalized or not.
const REQUIRED_KEYS: [&str; 7] = [
    "schema",
    "kind",
    "normalized",
    "requests",
    "shed",
    "stages",
    "events",
];

/// Validate one report document; returns the list of problems (empty =
/// valid). Checks syntax, the envelope (`schema` 1, `kind`
/// "obs-report"), section shapes, and each trace record's shape.
pub(crate) fn validate(text: &str) -> Vec<String> {
    let root = match Parser::new(text).document() {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    if !matches!(root, Value::Object(_)) {
        return vec!["top level is not a JSON object".into()];
    }
    let mut problems = Vec::new();
    for key in REQUIRED_KEYS {
        match (key, root.get(key)) {
            (_, None) => problems.push(format!("missing required key `{key}`")),
            ("schema", Some(Value::Number(n))) if *n == 1.0 => {}
            ("schema", Some(v)) => problems.push(format!("`schema` is not 1: {v:?}")),
            ("kind", Some(Value::String(k))) if k == "obs-report" => {}
            ("kind", Some(v)) => problems.push(format!("`kind` is not \"obs-report\": {v:?}")),
            ("normalized", Some(Value::Bool(_))) => {}
            ("requests" | "shed", Some(Value::Number(_))) => {}
            ("stages" | "events", Some(Value::Object(_))) => {}
            (_, Some(v)) => problems.push(format!("`{key}` has wrong type: {v:?}")),
        }
    }
    if let Some(Value::Object(stages)) = root.get("stages") {
        for (name, body) in stages {
            if !matches!(body.get("count"), Some(Value::Number(_))) {
                problems.push(format!("stage `{name}` missing numeric `count`"));
            }
        }
    }
    if let Some(Value::Object(events)) = root.get("events") {
        for (label, count) in events {
            if !matches!(count, Value::Number(_)) {
                problems.push(format!("event `{label}` count is not a number"));
            }
        }
    }
    match root.get("traces") {
        Some(Value::Array(traces)) => {
            for (i, t) in traces.iter().enumerate() {
                check_trace(i, t, &mut problems);
            }
        }
        Some(v) => problems.push(format!("`traces` is not an array: {v:?}")),
        None => problems.push("missing required key `traces`".into()),
    }
    // Normalized reports collapse exemplars to their count; full reports
    // carry the records.
    match root.get("exemplars") {
        Some(Value::Number(_)) => {}
        Some(Value::Array(exemplars)) => {
            for (i, t) in exemplars.iter().enumerate() {
                check_trace(i, t, &mut problems);
            }
        }
        Some(v) => problems.push(format!("`exemplars` is neither count nor array: {v:?}")),
        None => problems.push("missing required key `exemplars`".into()),
    }
    problems
}

/// One trace record: numeric `id`, and `events` as an array of strings.
fn check_trace(i: usize, t: &Value, problems: &mut Vec<String>) {
    if !matches!(t, Value::Object(_)) {
        problems.push(format!("trace #{i} is not an object"));
        return;
    }
    if !matches!(t.get("id"), Some(Value::Number(_))) {
        problems.push(format!("trace #{i} missing numeric `id`"));
    }
    match t.get("events") {
        Some(Value::Array(events)) => {
            if events.iter().any(|e| !matches!(e, Value::String(_))) {
                problems.push(format!("trace #{i} has a non-string event"));
            }
        }
        _ => problems.push(format!("trace #{i} missing `events` array")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
  "schema": 1,
  "kind": "obs-report",
  "normalized": true,
  "requests": 2,
  "shed": 1,
  "stages": {
    "algo1.probe": {"count": 2},
    "serve.queue_wait": {"count": 2}
  },
  "events": {
    "admitted": 2,
    "stage_exit:algo1.probe": 2
  },
  "traces": [
    {"id": 0, "degraded": false, "dropped": 0, "events": ["admitted", "queue_wait"]},
    {"id": 1, "degraded": true, "dropped": 0, "events": ["admitted"]}
  ],
  "exemplars": 2
}"#;

    #[test]
    fn accepts_a_well_formed_normalized_report() {
        assert_eq!(validate(GOOD), Vec::<String>::new());
    }

    #[test]
    fn accepts_full_reports_with_exemplar_records() {
        let full = GOOD
            .replace("\"normalized\": true", "\"normalized\": false")
            .replace(
                "\"exemplars\": 2",
                "\"exemplars\": [{\"id\": 0, \"events\": []}]",
            );
        assert_eq!(validate(&full), Vec::<String>::new());
    }

    #[test]
    fn rejects_syntax_errors_and_wrong_envelope() {
        assert!(validate("{")[0].contains("not valid JSON"));
        let wrong = GOOD.replace("\"obs-report\"", "\"bench\"");
        assert!(validate(&wrong).iter().any(|p| p.contains("`kind`")));
        let wrong = GOOD.replace("\"schema\": 1", "\"schema\": 2");
        assert!(validate(&wrong).iter().any(|p| p.contains("`schema`")));
    }

    #[test]
    fn rejects_malformed_sections_and_traces() {
        let bad = GOOD
            .replace("{\"count\": 2},", "{},")
            .replace("\"admitted\": 2", "\"admitted\": \"two\"")
            .replace("{\"id\": 1, \"degraded\": true, \"dropped\": 0, ", "{");
        let problems = validate(&bad);
        assert!(problems
            .iter()
            .any(|p| p.contains("missing numeric `count`")));
        assert!(problems.iter().any(|p| p.contains("count is not a number")));
        assert!(problems.iter().any(|p| p.contains("missing numeric `id`")));
    }

    #[test]
    fn reports_each_missing_required_key() {
        let problems = validate(r#"{ "schema": 1 }"#);
        for key in [
            "kind",
            "requests",
            "stages",
            "events",
            "traces",
            "exemplars",
        ] {
            assert!(
                problems.iter().any(|p| p.contains(key)),
                "no report for {key}: {problems:?}"
            );
        }
    }
}
