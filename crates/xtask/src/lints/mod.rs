//! Pass registry, violations and inline waivers.
//!
//! A violation survives to the report unless it is waived inline
//! (`// lint:allow(<id>): reason` on the offending line or on the comment
//! line directly above), the only way to accept a finding.

pub(crate) mod blocking_worker;
pub(crate) mod doc_coverage;
pub(crate) mod env_read;
pub(crate) mod float_accum;
pub(crate) mod hot_assert;
pub(crate) mod lock_hazard;
pub(crate) mod metric_name;
pub(crate) mod no_panic;
pub(crate) mod no_print;
pub(crate) mod no_spawn;
pub(crate) mod no_unwrap;
pub(crate) mod nondet_iter;
pub(crate) mod unordered_reduction;
pub(crate) mod wallclock;

use crate::scan::SourceFile;

/// One finding from one pass.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Violation {
    pub(crate) lint: &'static str,
    pub(crate) path: String,
    /// 1-based line number.
    pub(crate) line: usize,
    pub(crate) message: String,
}

impl Violation {
    pub(crate) fn new(
        lint: &'static str,
        file: &SourceFile,
        idx: usize,
        message: String,
    ) -> Violation {
        Violation {
            lint,
            path: file.path.clone(),
            line: idx + 1,
            message,
        }
    }
}

/// A lint pass over one file.
pub(crate) trait Lint {
    fn id(&self) -> &'static str;
    /// Whether this pass cares about `path` (workspace-relative).
    fn applies(&self, path: &str) -> bool;
    fn run(&self, file: &SourceFile) -> Vec<Violation>;
}

/// Every `xtask check` pass, in report order: the eight hygiene rules,
/// then the six determinism/concurrency analyses. `check` enforces zero
/// unwaived violations for all of them.
pub(crate) fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(no_unwrap::NoUnwrapInLib),
        Box::new(no_print::NoPrintInLib),
        Box::new(no_panic::NoPanicInService),
        Box::new(lock_hazard::LockHazard),
        Box::new(float_accum::FloatAccum),
        Box::new(hot_assert::AssertInHotPath),
        Box::new(no_spawn::NoSpawnOutsideRt),
        Box::new(doc_coverage::DocCoverage),
        Box::new(nondet_iter::NondetIteration),
        Box::new(unordered_reduction::UnorderedReduction),
        Box::new(wallclock::WallclockInCore),
        Box::new(env_read::EnvReadInLib),
        Box::new(blocking_worker::BlockingInWorker),
        Box::new(metric_name::MetricNameLiteral),
    ]
}

/// Lint ids waived for line `idx` (0-based) by `lint:allow` comments on
/// the line itself or on a comment line directly above it.
pub(crate) fn waivers_for(file: &SourceFile, idx: usize) -> Vec<String> {
    let mut ids = parse_waiver(&file.lines[idx].raw);
    if idx > 0 {
        let above = &file.lines[idx - 1].raw;
        if above.trim_start().starts_with("//") {
            ids.extend(parse_waiver(above));
        }
    }
    ids
}

/// Extract ids from `// lint:allow(id[, id...])[: reason]`.
fn parse_waiver(raw: &str) -> Vec<String> {
    let Some(pos) = raw.find("lint:allow(") else {
        return Vec::new();
    };
    let rest = &raw[pos + "lint:allow(".len()..];
    let Some(close) = rest.find(')') else {
        return Vec::new();
    };
    rest[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    #[test]
    fn inline_and_preceding_waivers_parse() {
        let f = SourceFile::parse(
            "t.rs",
            "a.unwrap(); // lint:allow(no-unwrap-in-lib): startup invariant\n\
             // lint:allow(lock-hazard, float-accum): ordered\n\
             b.lock();\n\
             c.unwrap();\n",
        );
        assert_eq!(waivers_for(&f, 0), vec!["no-unwrap-in-lib"]);
        assert_eq!(waivers_for(&f, 2), vec!["lock-hazard", "float-accum"]);
        assert!(waivers_for(&f, 3).is_empty());
    }

    #[test]
    fn check_runs_every_hygiene_and_determinism_pass() {
        let ids: Vec<&str> = all_lints().iter().map(|l| l.id()).collect();
        assert_eq!(
            ids,
            [
                "no-unwrap-in-lib",
                "no-print-in-lib",
                "no-panic-in-service",
                "lock-hazard",
                "float-accum",
                "assert-in-hot-path",
                "no-spawn-outside-rt",
                "doc-coverage",
                "nondet-iteration",
                "unordered-reduction",
                "wallclock-in-core",
                "env-read-in-lib",
                "blocking-in-worker",
                "metric-name-literal",
            ]
        );
    }
}
