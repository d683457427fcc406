//! `assert-in-hot-path`: release-mode asserts inside per-token/per-cell
//! loops.
//!
//! The forward/backward passes (`nn`), the Viterbi/feature loops
//! (`tagger`) and the work-stealing loops (`rt`) execute their innermost
//! bodies millions of times per run. A release-mode `assert!` there pays
//! a branch plus format-machinery codegen on every iteration for an
//! invariant already guaranteed by construction. Such checks belong in
//! `debug_assert!` (kept in the test profile, free in release) or
//! hoisted out of the loop. Asserts outside loops and in test code are
//! fine. `debug_assert*` is a different identifier at token level, so it
//! can never be confused with the release-mode form.

use super::{Lint, Violation};
use crate::scan::{seq, SourceFile};

const MACROS: [&str; 3] = ["assert", "assert_eq", "assert_ne"];

pub(crate) struct AssertInHotPath;

impl Lint for AssertInHotPath {
    fn id(&self) -> &'static str {
        "assert-in-hot-path"
    }

    fn applies(&self, path: &str) -> bool {
        path.starts_with("crates/nn/src/")
            || path.starts_with("crates/tagger/src/")
            || path.starts_with("crates/rt/src/")
            // The ANN candidate search runs per-cell/per-candidate inner
            // loops on the probe path.
            || path == "crates/index/src/ann.rs"
            // The live-ingestion fold, the posting-list codec and the
            // segment merge run per-record/per-posting inner loops on
            // the ingest and recovery paths.
            || path == "crates/index/src/live.rs"
            || path == "crates/index/src/codec.rs"
            || path == "crates/index/src/segment.rs"
            // The bitmap word loops and the planner's posting streams
            // run per-word/per-posting on the filter stage.
            || path == "crates/query/src/bitmap.rs"
            || path == "crates/query/src/plan.rs"
    }

    fn run(&self, file: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        let t = &file.tokens;
        for i in 0..t.len() {
            if t[i].in_test || t[i].loop_depth == 0 {
                continue;
            }
            let Some(name) = MACROS.iter().find(|m| seq(t, i, &[m, "!", "("]).is_some()) else {
                continue;
            };
            out.push(Violation::new(
                self.id(),
                file,
                t[i].line,
                format!(
                    "release-mode `{name}!(` inside a loop body: use debug_assert! \
                     or hoist the check out of the loop"
                ),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(src: &str) -> Vec<Violation> {
        AssertInHotPath.run(&SourceFile::parse("crates/nn/src/matrix.rs", src))
    }

    #[test]
    fn fires_only_inside_loops() {
        let v = run_on(
            "pub fn matmul(a: &M, b: &M) -> M {\n\
             \x20   assert_eq!(a.cols, b.rows);\n\
             \x20   for i in 0..a.rows {\n\
             \x20       for j in 0..b.cols {\n\
             \x20           assert!(i * j < a.len);\n\
             \x20       }\n\
             \x20   }\n\
             \x20   out()\n\
             }\n",
        );
        assert_eq!(v.len(), 1, "unexpected: {v:?}");
        assert_eq!(v[0].line, 5, "only the in-loop assert fires");
    }

    #[test]
    fn quiet_on_debug_asserts_and_test_loops() {
        let v = run_on(
            "pub fn get(&self, i: usize) -> f32 {\n\
             \x20   while i > 0 {\n\
             \x20       debug_assert!(i < self.len);\n\
             \x20   }\n\
             \x20   0.0\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() {\n\
             \x20       for i in 0..3 {\n\
             \x20           assert_eq!(i, i);\n\
             \x20       }\n\
             \x20   }\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn quiet_on_assert_in_a_loop_string_literal() {
        let v = run_on(
            "pub fn f(xs: &[u8]) {\n\
             \x20   for x in xs {\n\
             \x20       log(\"assert!(impossible)\", x);\n\
             \x20   }\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn scope_is_the_hot_kernel_crates_only() {
        assert!(AssertInHotPath.applies("crates/tagger/src/crf.rs"));
        assert!(AssertInHotPath.applies("crates/rt/src/lib.rs"));
        assert!(AssertInHotPath.applies("crates/index/src/ann.rs"));
        assert!(AssertInHotPath.applies("crates/index/src/live.rs"));
        assert!(AssertInHotPath.applies("crates/index/src/codec.rs"));
        assert!(AssertInHotPath.applies("crates/index/src/segment.rs"));
        assert!(AssertInHotPath.applies("crates/query/src/bitmap.rs"));
        assert!(AssertInHotPath.applies("crates/query/src/plan.rs"));
        assert!(!AssertInHotPath.applies("crates/query/src/ast.rs"));
        assert!(!AssertInHotPath.applies("crates/index/src/index.rs"));
    }
}
