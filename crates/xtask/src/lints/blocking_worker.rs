//! `blocking-in-worker`: sleeps and file IO on worker/runtime threads.
//!
//! The `saccs-serve` front end and the `saccs-rt` pool share a fixed
//! set of worker threads; one worker that sleeps or does synchronous
//! file IO stalls every request queued behind it, which is exactly the
//! tail-latency failure mode Table 4 measures. Latency injection
//! belongs in `saccs-fault` (budget-aware, deadline-visible), and any
//! data a worker needs from disk must be loaded before the pool starts.
//! The pass flags `thread::sleep(`, `std::fs::…(` and `File::open/
//! create(` in non-test code of the two worker crates.

use super::{Lint, Violation};
use crate::scan::{seq, SourceFile};

pub(crate) struct BlockingInWorker;

const PATTERNS: [(&[&str], &str); 4] = [
    (&["thread", "::", "sleep", "("], "thread::sleep("),
    (&["fs", "::", "*", "("], "std::fs IO"),
    (&["File", "::", "open", "("], "File::open("),
    (&["File", "::", "create", "("], "File::create("),
];

impl Lint for BlockingInWorker {
    fn id(&self) -> &'static str {
        "blocking-in-worker"
    }

    fn applies(&self, path: &str) -> bool {
        path.starts_with("crates/serve/src/")
            || path.starts_with("crates/rt/src/")
            // The live index ingests, seals and compacts on serve
            // workers: all of its IO must flow through the SegmentStore
            // seams (failpoint-guarded, manifest-committed), never
            // inline fs calls or sleeps.
            || path == "crates/index/src/live.rs"
    }

    fn run(&self, file: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        let t = &file.tokens;
        let mut last_line = usize::MAX;
        for i in 0..t.len() {
            if t[i].in_test || t[i].line == last_line {
                continue;
            }
            let Some((_, what)) = PATTERNS.iter().find(|(p, _)| seq(t, i, p).is_some()) else {
                continue;
            };
            last_line = t[i].line;
            out.push(Violation::new(
                self.id(),
                file,
                t[i].line,
                format!(
                    "{what} on a worker/runtime path: workers must not block — \
                     inject latency via saccs-fault and load data before the \
                     pool starts"
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
        BlockingInWorker.run(&SourceFile::parse("crates/serve/src/lib.rs", src))
    }

    #[test]
    fn fires_on_sleep_and_file_io_in_worker_code() {
        let v = run_on(
            "fn worker_loop(&self) {\n\
             \x20   std::thread::sleep(Duration::from_millis(5));\n\
             \x20   let cfg = std::fs::read_to_string(\"cfg.json\");\n\
             \x20   let f = File::open(\"index.bin\");\n\
             \x20   use_all(cfg, f);\n\
             }\n",
        );
        assert_eq!(v.len(), 3, "unexpected: {v:?}");
        assert!(v[0].message.contains("thread::sleep("));
        assert!(v[1].message.contains("std::fs IO"));
        assert!(v[2].message.contains("File::open("));
    }

    #[test]
    fn quiet_in_tests_strings_and_on_parking() {
        let v = run_on(
            "/// Never thread::sleep( in a worker.\n\
             fn worker_loop(&self) {\n\
             \x20   std::thread::park(); // waiting is fine; sleeping is not\n\
             \x20   log(\"fs::read( is banned here\");\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() {\n\
             \x20       std::thread::sleep(Duration::from_millis(1));\n\
             \x20       let _ = std::fs::read_to_string(\"fixture.json\");\n\
             \x20   }\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn scope_is_serve_rt_and_the_live_index() {
        assert!(BlockingInWorker.applies("crates/serve/src/lib.rs"));
        assert!(BlockingInWorker.applies("crates/rt/src/lib.rs"));
        assert!(BlockingInWorker.applies("crates/index/src/live.rs"));
        assert!(!BlockingInWorker.applies("crates/index/src/segment.rs"));
        assert!(!BlockingInWorker.applies("crates/core/src/persist.rs"));
        assert!(!BlockingInWorker.applies("crates/bench/src/bin/table2.rs"));
    }
}
