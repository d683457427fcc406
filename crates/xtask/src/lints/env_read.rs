//! `env-read-in-lib`: process-environment reads scattered through
//! library code.
//!
//! Configuration enters this workspace at two blessed points: the
//! `saccs-rt` pool sizes itself from `SACCS_THREADS`, and the bench
//! harness reads its knobs at startup. An `env::var` anywhere else is
//! hidden global input — it changes behaviour between runs without
//! appearing in any API, defeats the determinism suites (which pin the
//! environment they know about) and makes library functions impossible
//! to call with explicit configuration. Thread settings through
//! builders/parameters instead; a genuinely new `SACCS_*` knob belongs
//! next to the existing read sites, waived with a reason.

use super::{Lint, Violation};
use crate::scan::{seq, SourceFile};

pub(crate) struct EnvReadInLib;

/// The blessed read sites.
const EXEMPT: [&str; 2] = ["crates/rt/src/", "crates/bench/"];

const READS: [&str; 2] = ["var", "var_os"];

impl Lint for EnvReadInLib {
    fn id(&self) -> &'static str {
        "env-read-in-lib"
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
            if t[i].in_test {
                continue;
            }
            let Some(read) = READS
                .iter()
                .find(|r| seq(t, i, &["env", "::", r, "("]).is_some())
            else {
                continue;
            };
            out.push(Violation::new(
                self.id(),
                file,
                t[i].line,
                format!(
                    "`env::{read}(` in library code: thread configuration through \
                     builders/parameters; env knobs live in saccs-rt and bench only"
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
        EnvReadInLib.run(&SourceFile::parse("crates/core/src/builder.rs", src))
    }

    #[test]
    fn fires_on_env_var_in_lib_code() {
        let v = run_on(
            "fn width() -> usize {\n\
             \x20   std::env::var(\"SACCS_WIDTH\").ok().and_then(|s| s.parse().ok()).unwrap_or(1)\n\
             }\n\
             fn raw() -> Option<std::ffi::OsString> {\n\
             \x20   std::env::var_os(\"SACCS_RAW\")\n\
             }\n",
        );
        assert_eq!(v.len(), 2, "unexpected: {v:?}");
        assert!(v[0].message.contains("env::var("));
        assert!(v[1].message.contains("env::var_os("));
    }

    #[test]
    fn quiet_in_tests_strings_and_other_env_idents() {
        let v = run_on(
            "/// Reads env::var( — no, it does not.\n\
             fn f(env: &Env) -> u32 { env.lookup(\"x\") } // env::var(\n\
             fn doc() -> &'static str { \"set via env::var(SACCS_THREADS)\" }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() { let _ = std::env::var(\"HOME\"); }\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn blessed_read_sites_are_exempt() {
        assert!(!EnvReadInLib.applies("crates/rt/src/lib.rs"));
        assert!(!EnvReadInLib.applies("crates/bench/src/bin/table2.rs"));
        assert!(!EnvReadInLib.applies("crates/xtask/src/main.rs"));
        assert!(EnvReadInLib.applies("crates/core/src/builder.rs"));
        assert!(EnvReadInLib.applies("crates/obs/src/gate.rs"));
    }
}
