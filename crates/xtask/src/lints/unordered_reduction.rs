//! `unordered-reduction`: accumulating into captured state from a
//! parallel closure.
//!
//! `saccs-rt`'s `parallel_for_chunks` / `parallel_map` run their
//! closures on work-stealing workers in nondeterministic order. The
//! sanctioned reduction shape is: accumulate into a *closure-local*
//! partial, return it (or write it into a fixed shard,
//! `shards[j % K]`), and reduce the partials in index order afterwards
//! — bit-stable at every width. Accumulating straight
//! into captured state (`*total += x`, `self.sum += x`) from inside the
//! closure is either a data race or, for floats, an
//! order-of-arrival-dependent result. The pass scans the argument
//! tokens of each parallel call and flags `+=` onto names that are
//! neither declared inside the closure nor written through a fixed
//! shard index (`…] += `).

use super::{Lint, Violation};
use crate::scan::{is_punct, matching_close, seq, SourceFile, TokenKind};

pub(crate) struct UnorderedReduction;

const PARALLEL: [&str; 2] = ["parallel_for_chunks", "parallel_map"];

impl Lint for UnorderedReduction {
    fn id(&self) -> &'static str {
        "unordered-reduction"
    }

    fn applies(&self, path: &str) -> bool {
        if path.starts_with("crates/xtask/") {
            return false;
        }
        path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"))
    }

    fn run(&self, file: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        let t = &file.tokens;
        for i in 0..t.len() {
            if t[i].in_test || !PARALLEL.iter().any(|p| seq(t, i, &[p, "("]).is_some()) {
                continue;
            }
            let Some(close) = matching_close(t, i + 1) else {
                continue;
            };
            // Names `let`-bound inside the call's argument list are
            // closure-locals — accumulating into those is the sanctioned
            // per-chunk partial.
            let mut locals: Vec<String> = Vec::new();
            for j in i + 2..close {
                if seq(t, j, &["let", "*"]).is_some() {
                    locals.push(t[j + 1].text.clone());
                }
                if seq(t, j, &["let", "mut", "*"]).is_some() {
                    locals.push(t[j + 2].text.clone());
                }
            }
            for j in i + 2..close {
                if t[j].kind != TokenKind::Ident
                    || !is_punct(&t[j + 1], '+')
                    || !t.get(j + 2).is_some_and(|n| is_punct(n, '='))
                {
                    continue;
                }
                if locals.iter().any(|n| n == &t[j].text) {
                    continue;
                }
                // `shards[j % K] += v` — fixed-shard write, sanctioned.
                if j > 0 && is_punct(&t[j - 1], ']') {
                    continue;
                }
                // Name the enclosing fn so the report reads without
                // opening the file.
                let ctx = match (file.fn_name_at(j), t[j].fn_idx) {
                    (Some(name), Some(f)) => {
                        format!(" (in `fn {name}`, line {})", file.fns[f as usize].line + 1)
                    }
                    _ => String::new(),
                };
                out.push(Violation::new(
                    self.id(),
                    file,
                    t[j].line,
                    format!(
                        "`{} +=` inside a {} closure accumulates in worker-arrival \
                         order: keep a closure-local partial and tree-reduce fixed \
                         shards (see tagger::train){ctx}",
                        t[j].text, t[i].text
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
        UnorderedReduction.run(&SourceFile::parse("crates/nn/src/train.rs", src))
    }

    #[test]
    fn fires_on_captured_accumulation_in_a_parallel_closure() {
        let v = run_on(
            "fn f(pool: &Pool, xs: &[f32]) -> f32 {\n\
             \x20   let mut total = 0.0f32;\n\
             \x20   pool.parallel_for_chunks(xs, 64, |chunk| {\n\
             \x20       for x in chunk {\n\
             \x20           total += *x;\n\
             \x20       }\n\
             \x20   });\n\
             \x20   total\n\
             }\n",
        );
        assert_eq!(v.len(), 1, "unexpected: {v:?}");
        assert_eq!(v[0].line, 5);
        assert!(v[0].message.contains("`total +=`"));
    }

    #[test]
    fn quiet_on_local_partials_and_fixed_shard_writes() {
        let v = run_on(
            "fn f(pool: &Pool, xs: &[f32], shards: &ShardVec) {\n\
             \x20   pool.parallel_for_chunks(xs, 64, |(j, chunk)| {\n\
             \x20       let mut local = 0.0f32;\n\
             \x20       for x in chunk {\n\
             \x20           local += *x;\n\
             \x20       }\n\
             \x20       shards[j % GRAD_SHARDS] += local;\n\
             \x20   });\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn quiet_on_sequential_accumulation_outside_parallel_calls() {
        let v = run_on(
            "fn f(xs: &[f32]) -> f32 {\n\
             \x20   let mut total = 0.0f32;\n\
             \x20   for x in xs {\n\
             \x20       total += *x;\n\
             \x20   }\n\
             \x20   total\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn xtask_is_out_of_scope_and_lib_code_is_in() {
        assert!(!UnorderedReduction.applies("crates/xtask/src/main.rs"));
        assert!(UnorderedReduction.applies("crates/tagger/src/train.rs"));
        assert!(UnorderedReduction.applies("crates/rt/src/lib.rs"));
    }
}
