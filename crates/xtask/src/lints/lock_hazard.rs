//! `lock-hazard`: a held guard crossing another lock acquisition.
//!
//! Acquiring a second `Mutex`/`RwLock` while a let-bound guard is live is
//! the deadlock shape `index::shared` is built to avoid: two threads
//! taking the same pair of locks in opposite orders stall forever, and
//! even a consistent order deserves an explicit comment. The pass walks
//! statements on the token stream (so rustfmt-split chains need no
//! joining), tracks `let g = <expr>.lock()/.read()/.write();` bindings
//! per scope, honours explicit `drop(g)`, and flags any later
//! acquisition (bound or temporary) while a guard is still live.

use super::{Lint, Violation};
use crate::scan::{is_ident, is_punct, SourceFile, Token, TokenKind};

const ACQUIRE: [&str; 3] = ["lock", "read", "write"];

pub(crate) struct LockHazard;

struct Guard {
    name: String,
    depth: usize,
    line: usize,
}

impl Lint for LockHazard {
    fn id(&self) -> &'static str {
        "lock-hazard"
    }

    fn applies(&self, path: &str) -> bool {
        path.starts_with("crates/") && path.contains("/src/")
    }

    fn run(&self, file: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut guards: Vec<Guard> = Vec::new();
        let t = &file.tokens;
        // Statements are token runs separated by `;` / `{` / `}`.
        let mut s = 0usize;

        for i in 0..=t.len() {
            let sep = i == t.len()
                || (t[i].kind == TokenKind::Punct && matches!(t[i].text.as_str(), ";" | "{" | "}"));
            if !sep {
                continue;
            }
            if s < i {
                // Scope exit drops guards bound deeper than this statement.
                guards.retain(|g| g.depth <= t[s].depth);

                for j in s..i.saturating_sub(3) {
                    if is_ident(&t[j], "drop")
                        && is_punct(&t[j + 1], '(')
                        && t[j + 2].kind == TokenKind::Ident
                        && is_punct(&t[j + 3], ')')
                    {
                        guards.retain(|g| g.name != t[j + 2].text);
                    }
                }

                if (s..i).any(|j| acquire_at(t, j)) {
                    if let Some(held) = guards.last() {
                        out.push(Violation::new(
                            self.id(),
                            file,
                            t[s].line,
                            format!(
                                "lock acquired while guard `{}` (line {}) is still held: \
                                 drop it first or document the lock order with a waiver",
                                held.name,
                                held.line + 1
                            ),
                        ));
                    }
                    // A statement *ending* in an acquisition binds a guard;
                    // mid-statement acquisitions are temporaries that die
                    // at the `;` (e.g. `take(&mut *m.lock());`).
                    if let Some(name) = bound_guard(t, s, i) {
                        guards.push(Guard {
                            name,
                            depth: t[s].depth,
                            line: t[s].line,
                        });
                    }
                }
            }
            s = i + 1;
        }
        out
    }
}

/// `.lock()` / `.read()` / `.write()` starting at token `j`.
fn acquire_at(t: &[Token], j: usize) -> bool {
    j + 3 < t.len()
        && is_punct(&t[j], '.')
        && ACQUIRE.iter().any(|a| is_ident(&t[j + 1], a))
        && is_punct(&t[j + 2], '(')
        && is_punct(&t[j + 3], ')')
}

/// `let [mut] NAME = ...<acquire>[?]` over tokens `t[s..e]` — the guard
/// name, if this statement let-binds an acquisition as its final call.
fn bound_guard(t: &[Token], s: usize, e: usize) -> Option<String> {
    if !is_ident(&t[s], "let") {
        return None;
    }
    let mut j = s + 1;
    if j < e && is_ident(&t[j], "mut") {
        j += 1;
    }
    if j >= e || t[j].kind != TokenKind::Ident {
        return None;
    }
    let name = t[j].text.clone();
    let mut end = e;
    if end > s && is_punct(&t[end - 1], '?') {
        end -= 1;
    }
    (end >= s + 4 && acquire_at(t, end - 4)).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(src: &str) -> Vec<Violation> {
        LockHazard.run(&SourceFile::parse("crates/index/src/live.rs", src))
    }

    #[test]
    fn fires_on_nested_acquisition_under_a_held_guard() {
        let v = run_on(
            "fn f(&self) {\n\
             \x20   let guard = self.inner.read();\n\
             \x20   self.pending.lock().push(1);\n\
             }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("`guard`"));
        assert!(v[0].message.contains("(line 2)"));
    }

    #[test]
    fn quiet_after_explicit_drop_or_scope_exit() {
        let v = run_on(
            "fn f(&self) {\n\
             \x20   let guard = self.inner.read();\n\
             \x20   let n = guard.len();\n\
             \x20   drop(guard);\n\
             \x20   self.pending.lock().push(n);\n\
             }\n\
             fn g(&self) {\n\
             \x20   {\n\
             \x20       let w = self.inner.write();\n\
             \x20       w.touch();\n\
             \x20   }\n\
             \x20   self.pending.lock().clear();\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn temporary_guards_do_not_count_as_held() {
        // The statement-final-call rule: `take(&mut *m.lock());` drops its
        // guard at the `;`, so the later `.write()` is safe.
        let v = run_on(
            "fn f(&self) {\n\
             \x20   let queued = std::mem::take(&mut *self.pending.lock());\n\
             \x20   let mut guard = self.inner.write();\n\
             \x20   guard.extend(queued);\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn multi_line_acquisition_chains_are_joined() {
        let v = run_on(
            "fn f(&self) {\n\
             \x20   let guard = self\n\
             \x20       .inner\n\
             \x20       .read();\n\
             \x20   self.pending.lock().push(1);\n\
             }\n",
        );
        assert_eq!(v.len(), 1, "unexpected: {v:?}");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn quiet_on_lock_calls_in_strings_and_comments() {
        let v = run_on(
            "fn f(&self) {\n\
             \x20   let guard = self.inner.read();\n\
             \x20   // then self.pending.lock().push(1);\n\
             \x20   log(\"would .lock() here\");\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }
}
