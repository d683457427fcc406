//! `no-print-in-lib`: stray stdout/stderr writes in library code.
//!
//! `println!` / `eprintln!` (and their non-newline forms) in library
//! crates bypass the observability layer: they cannot be disabled,
//! captured by a trace, or attributed to a span, and they corrupt
//! the stdout of any binary that treats its output as data (the bench
//! bins emit parseable tables; `SACCS_OBS=json` emits JSON). Library
//! code should record through `saccs-obs` (spans, counters, gauges) or
//! write through an injected `std::io::Write` handle. The `bench` crate
//! is exempt — printed tables *are* its product.

use super::{Lint, Violation};
use crate::scan::{seq, SourceFile};

const MACROS: [&str; 4] = ["println", "eprintln", "print", "eprint"];

pub(crate) struct NoPrintInLib;

impl Lint for NoPrintInLib {
    fn id(&self) -> &'static str {
        "no-print-in-lib"
    }

    fn applies(&self, path: &str) -> bool {
        if path.starts_with("crates/bench/") {
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
            let Some(name) = MACROS.iter().find(|m| seq(t, i, &[m, "!"]).is_some()) else {
                continue;
            };
            last_line = t[i].line;
            out.push(Violation::new(
                self.id(),
                file,
                t[i].line,
                format!(
                    "`{name}!` in library code: record through saccs-obs or \
                     write through an injected io::Write handle"
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
        NoPrintInLib.run(&SourceFile::parse("crates/obs/src/gate.rs", src))
    }

    #[test]
    fn fires_on_every_print_macro_in_lib_code() {
        let v = run_on(
            "pub fn f() {\n\
             \x20   println!(\"a\");\n\
             \x20   eprintln!(\"b\");\n\
             \x20   print!(\"c\");\n\
             \x20   eprint!(\"d\");\n\
             }\n",
        );
        assert_eq!(v.len(), 4, "unexpected: {v:?}");
        assert!(v[0].message.contains("println!"));
        assert!(v[1].message.contains("eprintln!"));
        assert!(v[2].message.contains("print!"));
        assert!(v[3].message.contains("eprint!"));
    }

    #[test]
    fn reports_a_line_once_under_the_specific_macro() {
        let v = run_on("pub fn f() { println!(\"x\"); }\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("`println!`"));
    }

    #[test]
    fn quiet_on_test_code_comments_and_strings() {
        let v = run_on(
            "//! Docs may say println! freely.\n\
             pub fn f() -> &'static str { \"println!\" } // eprintln! in comment\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   #[test]\n\
             \x20   fn t() { println!(\"test output is fine\"); }\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn quiet_on_idents_that_merely_contain_a_macro_name() {
        // `reprint!` / `println_to!` are different identifiers at token
        // level — the old substring scan would have fired on both.
        let v = run_on("pub fn f() { reprint!(\"x\"); println_to!(sink, \"y\"); }\n");
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn bench_crate_is_exempt_and_scope_is_lib_sources() {
        assert!(!NoPrintInLib.applies("crates/bench/src/lib.rs"));
        assert!(!NoPrintInLib.applies("crates/bench/src/bin/table2.rs"));
        assert!(NoPrintInLib.applies("crates/obs/src/gate.rs"));
        assert!(NoPrintInLib.applies("crates/core/src/service.rs"));
        assert!(NoPrintInLib.applies("src/lib.rs"));
        assert!(!NoPrintInLib.applies("vendor/rand/src/lib.rs"));
    }
}
