//! `no-spawn-outside-rt`: ad-hoc threading in library code.
//!
//! All fan-out in the workspace goes through the `saccs-rt` pool: it
//! owns the worker threads (bounded, reused, named), propagates panics
//! to the spawning scope, honors `SACCS_THREADS`, and reports its size
//! through `saccs-obs`. A stray `std::thread::spawn` or crossbeam scope
//! in a library crate escapes all of that — unbounded thread creation,
//! orphaned panics, and work invisible to the runtime gauge. `saccs-rt`
//! itself is exempt (it is the one place allowed to create threads), as
//! are tests and the `xtask` driver.

use super::{Lint, Violation};
use crate::scan::{seq, SourceFile};

const PATTERNS: [(&[&str], &str); 3] = [
    (&["thread", "::", "spawn", "("], "thread::spawn("),
    (
        &["thread", "::", "Builder", "::", "new", "("],
        "thread::Builder::new(",
    ),
    (
        &["crossbeam", "::", "thread", "::", "scope", "("],
        "crossbeam::thread::scope(",
    ),
];

pub(crate) struct NoSpawnOutsideRt;

impl Lint for NoSpawnOutsideRt {
    fn id(&self) -> &'static str {
        "no-spawn-outside-rt"
    }

    fn applies(&self, path: &str) -> bool {
        if path.starts_with("crates/rt/") || path.starts_with("crates/xtask/") {
            return false;
        }
        path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"))
    }

    fn run(&self, file: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        let t = &file.tokens;
        let mut last_line = usize::MAX;
        for i in 0..t.len() {
            if t[i].in_test || t[i].line == last_line {
                continue;
            }
            let Some((_, name)) = PATTERNS.iter().find(|(p, _)| seq(t, i, p).is_some()) else {
                continue;
            };
            last_line = t[i].line;
            out.push(Violation::new(
                self.id(),
                file,
                t[i].line,
                format!(
                    "`{}` in library code: fan out through the saccs-rt \
                     pool (scope/join/parallel_for_chunks/parallel_map)",
                    &name[..name.len() - 1]
                ),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(path: &str, src: &str) -> Vec<Violation> {
        NoSpawnOutsideRt.run(&SourceFile::parse(path, src))
    }

    #[test]
    fn fires_on_spawn_and_crossbeam_in_lib_code() {
        let v = run_on(
            "crates/index/src/index.rs",
            "fn build(&self) {\n\
             \x20   std::thread::spawn(|| work());\n\
             \x20   crossbeam::thread::scope(|s| {}).unwrap();\n\
             }\n",
        );
        assert_eq!(v.len(), 2, "unexpected: {v:?}");
    }

    #[test]
    fn quiet_in_tests_and_on_pool_usage() {
        let v = run_on(
            "crates/index/src/live.rs",
            "fn build(&self) {\n\
             \x20   saccs_rt::scope(|s| s.spawn(|| work()));\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() {\n\
             \x20       std::thread::spawn(|| {});\n\
             \x20   }\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn quiet_on_spawn_mentioned_in_docs_or_strings() {
        let v = run_on(
            "crates/index/src/index.rs",
            "/// Never call thread::spawn( here.\n\
             fn build(&self) { log(\"thread::spawn(bad)\"); }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn rt_and_xtask_are_exempt() {
        assert!(!NoSpawnOutsideRt.applies("crates/rt/src/lib.rs"));
        assert!(!NoSpawnOutsideRt.applies("crates/xtask/src/main.rs"));
        assert!(NoSpawnOutsideRt.applies("crates/embed/src/model.rs"));
        assert!(!NoSpawnOutsideRt.applies("crates/index/tests/parallel_build.rs"));
    }
}
