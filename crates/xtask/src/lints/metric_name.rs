//! `metric-name-literal`: dynamically-built metric and span names.
//!
//! Every counter/gauge/histogram name and span label in this workspace
//! is a static string literal: the registry is append-only, the
//! flight-recorder report folds stages by name, and the determinism
//! suites byte-diff rendered snapshots — a `format!`ed or computed name
//! makes metric cardinality unbounded and report output run-dependent.
//! This pass fires when `counter!`/`gauge!`/`histogram!`/`span!` (or the
//! equivalent `registry().counter(..)`-style calls) receive anything
//! other than a string literal as the name. Name plumbing inside
//! `saccs-obs` itself and the bench harness (which legitimately derives
//! per-configuration series like `probe.scan.t{θ}`) is exempt.

use super::{Lint, Violation};
use crate::scan::{is_ident, is_punct, SourceFile, TokenKind};

pub(crate) struct MetricNameLiteral;

/// Paths allowed to handle metric names as data: the obs crate's own
/// plumbing and the bench harness's derived series.
const EXEMPT: [&str; 2] = ["crates/obs/src/", "crates/bench/"];

/// The name-taking constructors, macro and method form alike.
const NAMED: [&str; 4] = ["counter", "gauge", "histogram", "span"];

impl Lint for MetricNameLiteral {
    fn id(&self) -> &'static str {
        "metric-name-literal"
    }

    fn applies(&self, path: &str) -> bool {
        if EXEMPT.iter().any(|e| path.starts_with(e)) || path.starts_with("crates/xtask/") {
            return false;
        }
        path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"))
    }

    fn run(&self, file: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        let t = &file.tokens;
        for i in 0..t.len() {
            if t[i].in_test || t[i].kind != TokenKind::Ident {
                continue;
            }
            let Some(name) = NAMED.iter().find(|n| t[i].text == **n) else {
                continue;
            };
            // `fn histogram(` / `fn span(` declare, not invoke.
            if i > 0 && is_ident(&t[i - 1], "fn") {
                continue;
            }
            let (form, arg) = if matches!((t.get(i + 1), t.get(i + 2)),
                (Some(bang), Some(open)) if is_punct(bang, '!') && is_punct(open, '('))
            {
                (format!("{name}!("), t.get(i + 3))
            } else if i > 0
                && is_punct(&t[i - 1], '.')
                && t.get(i + 1).is_some_and(|p| is_punct(p, '('))
            {
                (format!(".{name}("), t.get(i + 2))
            } else {
                continue;
            };
            let literal = arg.is_some_and(|a| {
                matches!(a.kind, TokenKind::Str | TokenKind::RawStr) || is_punct(a, ')')
            });
            if !literal {
                out.push(Violation::new(
                    self.id(),
                    file,
                    t[i].line,
                    format!(
                        "`{form}` with a non-literal name: metric and span names must be \
                         static string literals (bounded cardinality, deterministic reports); \
                         derived series belong in the bench harness"
                    ),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(src: &str) -> Vec<Violation> {
        MetricNameLiteral.run(&SourceFile::parse("crates/core/src/service.rs", src))
    }

    #[test]
    fn fires_on_computed_names_in_macro_and_method_form() {
        let v = run_on(
            "fn f(name: &str) {\n\
             \x20   saccs_obs::counter!(name).inc();\n\
             \x20   saccs_obs::gauge!(format!(\"g.{}\", name)).add(1.0);\n\
             \x20   let _h = saccs_obs::registry().histogram(name);\n\
             \x20   let _s = saccs_obs::span!(name);\n\
             }\n",
        );
        assert_eq!(v.len(), 4, "unexpected: {v:?}");
        assert!(v[0].message.contains("counter!("));
        assert!(v[1].message.contains("gauge!("));
        assert!(v[2].message.contains(".histogram("));
        assert!(v[3].message.contains("span!("));
    }

    #[test]
    fn quiet_on_literal_names_tests_and_declarations() {
        let v = run_on(
            "fn serve() {\n\
             \x20   saccs_obs::counter!(\"serve.shed\").inc();\n\
             \x20   saccs_obs::gauge!(\"serve.inflight\").sub(1.0);\n\
             \x20   let _h = saccs_obs::registry().histogram(r\"serve.queue_wait\");\n\
             \x20   let _s = saccs_obs::span!(\"algo1.probe\");\n\
             }\n\
             fn histogram(name: &str) -> u64 { name.len() as u64 }\n\
             fn all() -> Vec<u64> { vec![histogram(\"x\")] }\n\
             impl R { fn snapshot(&self) { self.gauge() } }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t(n: &str) { saccs_obs::counter!(n).inc(); }\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn obs_and_bench_plumbing_are_exempt() {
        assert!(!MetricNameLiteral.applies("crates/obs/src/metrics.rs"));
        assert!(!MetricNameLiteral.applies("crates/bench/src/bin/probe.rs"));
        assert!(!MetricNameLiteral.applies("crates/xtask/src/main.rs"));
        assert!(MetricNameLiteral.applies("crates/core/src/service.rs"));
        assert!(MetricNameLiteral.applies("crates/serve/src/recorder.rs"));
    }
}
