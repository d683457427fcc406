//! `nondet-iteration`: hash-ordered iteration on determinism-critical
//! paths.
//!
//! The workspace's headline contract is bitwise-identical rankings at
//! every thread width. `HashMap`/`HashSet` iteration order depends on
//! the hasher's per-process seed, so any loop over one that feeds an
//! index build, a vocabulary, a score or a pairing can reorder
//! floating-point reductions or id assignment between runs — the bug is
//! invisible until two runs disagree. The pass tracks hash-container
//! `let` bindings per scope, hash-container fn parameters
//! (`NAME: [&][mut] [path::]HashMap<…>` or `HashSet<…>`) for the body of
//! their fn, and hash-container struct fields (`NAME: [path::]HashMap<…>`
//! or `HashSet<…>`, bare or inside one `Arc`, `Rc` or `Box`) declared in
//! the same file, and flags iteration over them (`for … in`,
//! `.iter()`/`.keys()`/`.values()`/`.drain()`/`.into_iter()`, and the
//! `HashSet` set-algebra iterators; a field as `<expr>.NAME`). Keyed
//! lookups (`get`/`insert`/`entry`/`contains_key`) are order-free and
//! never fire. A field behind a `Mutex` or `RefCell` is reached only
//! through a lock or borrow call, which the pass does not follow, so it
//! stays untracked. Use `BTreeMap`/`BTreeSet`, or sort before consuming.

use super::{Lint, Violation};
use crate::scan::{is_ident, is_punct, matching_close, seq, SourceFile, Token, TokenKind};

pub(crate) struct NondetIteration;

/// Crates whose outputs must be bit-stable across runs and widths.
const SCOPED: [&str; 9] = [
    "crates/core/src/",
    "crates/embed/src/",
    "crates/index/src/",
    "crates/ir/src/",
    "crates/nn/src/",
    "crates/pairing/src/",
    "crates/query/src/",
    "crates/tagger/src/",
    "crates/text/src/",
];

const CONTAINERS: [&str; 2] = ["HashMap", "HashSet"];

/// Owning pointers a tracked struct field may wrap its container in.
const WRAPPERS: [&str; 3] = ["Arc", "Rc", "Box"];

/// Methods that yield elements in hash order.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "intersection",
    "union",
    "difference",
];

impl Lint for NondetIteration {
    fn id(&self) -> &'static str {
        "nondet-iteration"
    }

    fn applies(&self, path: &str) -> bool {
        SCOPED.iter().any(|s| path.starts_with(s))
    }

    fn run(&self, file: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        // Hash-container bindings and the brace depth they live at.
        let mut tracked: Vec<(String, usize)> = Vec::new();
        // Hash-container parameters waiting for their fn body's `{`.
        let mut params: Vec<(usize, String)> = Vec::new();
        let t = &file.tokens;
        let fields = hash_fields(t);

        for i in 0..t.len() {
            if t[i].in_test {
                continue;
            }
            tracked.retain(|(_, d)| *d <= t[i].depth);

            if let Some((body, names)) = hash_params(t, i) {
                params.extend(names.into_iter().map(|name| (body, name)));
            }
            while let Some(k) = params.iter().position(|(body, _)| *body == i) {
                tracked.push((params.swap_remove(k).1, t[i].depth + 1));
            }

            if let Some(name) = hash_binding(t, i) {
                tracked.push((name, t[i].depth));
                continue;
            }

            // `NAME.method(` where the method iterates in hash order.
            if t[i].kind == TokenKind::Ident
                && tracked.iter().any(|(n, _)| is_ident(&t[i], n))
                && (i == 0 || !is_punct(&t[i - 1], '.'))
                && t.get(i + 1).is_some_and(|n| is_punct(n, '.'))
                && t.get(i + 2)
                    .is_some_and(|m| ITER_METHODS.iter().any(|im| is_ident(m, im)))
                && t.get(i + 3).is_some_and(|n| is_punct(n, '('))
            {
                out.push(self.violation(file, i, &t[i].text, &t[i + 2].text));
                continue;
            }

            // `<expr>.FIELD.method(` on a hash-container field.
            if is_punct(&t[i], '.')
                && t.get(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Ident && fields.contains(&n.text))
                && t.get(i + 2).is_some_and(|n| is_punct(n, '.'))
                && t.get(i + 3)
                    .is_some_and(|m| ITER_METHODS.iter().any(|im| is_ident(m, im)))
                && t.get(i + 4).is_some_and(|n| is_punct(n, '('))
            {
                out.push(self.violation(file, i + 1, &t[i + 1].text, &t[i + 3].text));
                continue;
            }

            // `for … in [&[mut]] NAME {` or `… in [&[mut]] <expr>.FIELD {`
            // — consuming the container directly.
            if is_ident(&t[i], "in") {
                let mut j = i + 1;
                while t
                    .get(j)
                    .is_some_and(|n| is_punct(n, '&') || is_ident(n, "mut"))
                {
                    j += 1;
                }
                let start = j;
                while t.get(j).is_some_and(|n| n.kind == TokenKind::Ident)
                    && t.get(j + 1).is_some_and(|n| is_punct(n, '.'))
                    && t.get(j + 2).is_some_and(|n| n.kind == TokenKind::Ident)
                {
                    j += 2;
                }
                let consumed = t.get(j).is_some_and(|n| {
                    n.kind == TokenKind::Ident
                        && if j == start {
                            tracked.iter().any(|(nm, _)| nm == &n.text)
                        } else {
                            fields.contains(&n.text)
                        }
                });
                if consumed && t.get(j + 1).is_some_and(|n| is_punct(n, '{')) {
                    out.push(self.violation(file, j, &t[j].text, "for-in"));
                }
            }
        }
        out
    }
}

impl NondetIteration {
    fn violation(&self, file: &SourceFile, i: usize, name: &str, how: &str) -> Violation {
        Violation::new(
            self.id(),
            file,
            file.tokens[i].line,
            format!(
                "iteration over hash-ordered `{name}` ({how}) on a determinism-critical \
                 path: use BTreeMap/BTreeSet or sort before consuming"
            ),
        )
    }
}

/// `let [mut] NAME: …Hash…<` or `let [mut] NAME = …Hash…::` — the bound
/// name, if this token starts a hash-container binding.
fn hash_binding(t: &[Token], i: usize) -> Option<String> {
    let name_idx = if seq(t, i, &["let", "mut", "*"]).is_some() {
        i + 2
    } else if seq(t, i, &["let", "*"]).is_some() {
        i + 1
    } else {
        return None;
    };
    if t[name_idx].kind != TokenKind::Ident {
        return None;
    }
    let sep = t.get(name_idx + 1)?;
    if !(is_punct(sep, ':') || is_punct(sep, '=')) {
        return None;
    }
    // `let x ::` is not a binding separator.
    if is_punct(sep, ':') && t.get(name_idx + 2).is_some_and(|n| is_punct(n, ':')) {
        return None;
    }
    hash_path(t, name_idx + 2).then(|| t[name_idx].text.clone())
}

/// `fn NAME[<…>](…) … {` — the fn's hash-container parameters
/// (`NAME: [&][mut] [path::]HashMap<…>` or `HashSet<…>`) and the index of
/// its body's `{`, if this token starts a fn with a body.
fn hash_params(t: &[Token], i: usize) -> Option<(usize, Vec<String>)> {
    if !is_ident(&t[i], "fn") || t.get(i + 1)?.kind != TokenKind::Ident {
        return None;
    }
    // The parameter list opens at the first `(` outside the generics
    // (`->` inside them, as in `F: Fn() -> u32`, closes nothing).
    let mut open = i + 2;
    let mut angle = 0usize;
    loop {
        let tok = t.get(open)?;
        if angle == 0 && is_punct(tok, '(') {
            break;
        }
        if is_punct(tok, '<') {
            angle += 1;
        } else if is_punct(tok, '>') && !is_punct(&t[open - 1], '-') {
            angle = angle.saturating_sub(1);
        }
        open += 1;
    }
    let close = matching_close(t, open)?;
    let mut names = Vec::new();
    let mut nesting = 0usize;
    for j in open + 1..close {
        let (prev, tok) = (&t[j - 1], &t[j]);
        if is_punct(tok, '(') || is_punct(tok, '[') || is_punct(tok, '<') {
            nesting += 1;
        } else if is_punct(tok, ')')
            || is_punct(tok, ']')
            || (is_punct(tok, '>') && !is_punct(prev, '-'))
        {
            nesting = nesting.saturating_sub(1);
        }
        // `NAME:` at the top of the list, after `(`, `,` or `mut`.
        let named = nesting == 0
            && tok.kind == TokenKind::Ident
            && (is_punct(prev, '(') || is_punct(prev, ',') || is_ident(prev, "mut"))
            && is_punct(&t[j + 1], ':')
            && !t.get(j + 2).is_some_and(|n| is_punct(n, ':'));
        if named {
            let mut k = j + 2;
            while t.get(k).is_some_and(|n| {
                is_punct(n, '&') || n.kind == TokenKind::Lifetime || is_ident(n, "mut")
            }) {
                k += 1;
            }
            if hash_path(t, k) {
                names.push(tok.text.clone());
            }
        }
    }
    if names.is_empty() {
        return None;
    }
    // The body is the first `{` after the list; a `;` first means none.
    let body = (close + 1..t.len()).find(|&k| is_punct(&t[k], '{') || is_punct(&t[k], ';'))?;
    is_punct(&t[body], '{').then_some((body, names))
}

/// The names of the hash-container fields declared in the file's
/// non-test struct bodies: `NAME: [path::]HashMap<…>` or `HashSet<…>`,
/// bare or inside one [`WRAPPERS`] pointer.
fn hash_fields(t: &[Token]) -> Vec<String> {
    let mut fields = Vec::new();
    for i in 0..t.len() {
        if t[i].in_test || !is_ident(&t[i], "struct") {
            continue;
        }
        // The body is the first `{` after the name and generics; a `;`
        // or `(` first means a unit or tuple struct.
        let Some(open) = (i + 1..t.len())
            .find(|&k| is_punct(&t[k], '{') || is_punct(&t[k], ';') || is_punct(&t[k], '('))
        else {
            continue;
        };
        if !is_punct(&t[open], '{') {
            continue;
        }
        let Some(close) = matching_close(t, open) else {
            continue;
        };
        // Field names are the `NAME:` at the top of the body: attributes,
        // visibility scopes and generic arguments all nest deeper.
        let mut nesting = 0usize;
        for j in open + 1..close {
            let tok = &t[j];
            if is_punct(tok, '(') || is_punct(tok, '[') || is_punct(tok, '<') {
                nesting += 1;
            } else if is_punct(tok, ')')
                || is_punct(tok, ']')
                || (is_punct(tok, '>') && !is_punct(&t[j - 1], '-'))
            {
                nesting = nesting.saturating_sub(1);
            }
            let named = nesting == 0
                && tok.kind == TokenKind::Ident
                && t.get(j + 1).is_some_and(|n| is_punct(n, ':'))
                && !t.get(j + 2).is_some_and(|n| is_punct(n, ':'));
            if named && hash_field_type(t, j + 2) {
                fields.push(tok.text.clone());
            }
        }
    }
    fields
}

/// Whether the type at `t[k]` is a hash container, bare or as the one
/// argument of an `Arc`, `Rc` or `Box` (each possibly path-qualified).
fn hash_field_type(t: &[Token], k: usize) -> bool {
    if hash_path(t, k) {
        return true;
    }
    let mut last = k;
    while t.get(last + 1).is_some_and(|n| is_punct(n, ':'))
        && t.get(last + 2).is_some_and(|n| is_punct(n, ':'))
        && t.get(last + 3).is_some_and(|n| n.kind == TokenKind::Ident)
    {
        last += 3;
    }
    t.get(last)
        .is_some_and(|seg| WRAPPERS.iter().any(|w| is_ident(seg, w)))
        && t.get(last + 1).is_some_and(|n| is_punct(n, '<'))
        && hash_path(t, last + 2)
}

/// Whether the path starting at `t[k]` names a hash container followed
/// by `<` or `::`. The container may sit anywhere along a qualified path
/// (`std::collections::HashMap::from`), so this walks `Ident(::Ident)*`
/// instead of requiring the container to be the first segment.
fn hash_path(t: &[Token], mut k: usize) -> bool {
    while let Some(seg) = t.get(k).filter(|s| s.kind == TokenKind::Ident) {
        let next_generic = t.get(k + 1).is_some_and(|n| is_punct(n, '<'));
        let next_path = t.get(k + 1).is_some_and(|n| is_punct(n, ':'))
            && t.get(k + 2).is_some_and(|n| is_punct(n, ':'));
        if CONTAINERS.iter().any(|c| is_ident(seg, c)) && (next_generic || next_path) {
            return true;
        }
        if !next_path {
            return false;
        }
        k += 3;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(src: &str) -> Vec<Violation> {
        NondetIteration.run(&SourceFile::parse("crates/ir/src/bm25.rs", src))
    }

    #[test]
    fn fires_on_for_in_and_iter_over_hash_containers() {
        let v = run_on(
            "fn tf(terms: &[String]) -> Vec<(String, u32)> {\n\
             \x20   let mut tf: HashMap<String, u32> = HashMap::new();\n\
             \x20   for t in terms { *tf.entry(t.clone()).or_insert(0) += 1; }\n\
             \x20   let mut out = Vec::new();\n\
             \x20   for (term, f) in tf {\n\
             \x20       out.push((term, f));\n\
             \x20   }\n\
             \x20   out\n\
             }\n\
             fn freq(seen: HashSet<u32>) -> Vec<u32> {\n\
             \x20   let seen2 = HashSet::from([1u32]);\n\
             \x20   let _ = seen2;\n\
             \x20   let other = HashSet::from([2u32]);\n\
             \x20   let both = other.intersection(&seen2);\n\
             \x20   both.copied().collect()\n\
             }\n",
        );
        assert_eq!(v.len(), 2, "unexpected: {v:?}");
        assert_eq!(v[0].line, 5, "for-in over the map");
        assert!(v[0].message.contains("`tf`"));
        assert_eq!(v[1].line, 14, "set intersection iterates in hash order");
        assert!(v[1].message.contains("`other`"));
    }

    #[test]
    fn quiet_on_keyed_access_btree_containers_and_tests() {
        let v = run_on(
            "fn f(xs: &[u32]) -> u32 {\n\
             \x20   let mut m: HashMap<u32, u32> = HashMap::new();\n\
             \x20   m.insert(1, 2);\n\
             \x20   let hit = m.get(&1).copied().unwrap_or(0);\n\
             \x20   let mut b: BTreeMap<u32, u32> = BTreeMap::new();\n\
             \x20   for (k, v) in b.iter() { black_box(k, v); }\n\
             \x20   hit\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() {\n\
             \x20       let h: HashMap<u8, u8> = HashMap::new();\n\
             \x20       for (k, v) in h.iter() { check(k, v); }\n\
             \x20   }\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn fires_on_fully_qualified_container_paths() {
        let v = run_on(
            "fn f() -> Vec<(u32, u32)> {\n\
             \x20   let m = std::collections::HashMap::from([(1u32, 2u32)]);\n\
             \x20   let mut q: std::collections::HashMap<u32, u32> = Default::default();\n\
             \x20   q.insert(3, 4);\n\
             \x20   let mut out: Vec<(u32, u32)> = m.into_iter().collect();\n\
             \x20   out.extend(q.drain());\n\
             \x20   out\n\
             }\n",
        );
        assert_eq!(v.len(), 2, "unexpected: {v:?}");
        assert!(v[0].message.contains("`m`"));
        assert!(v[1].message.contains("`q`"));
    }

    #[test]
    fn fires_on_hash_parameters_iterated_either_way() {
        let v = run_on(
            "fn total(weights: &HashMap<String, f32>, mut seen: std::collections::HashSet<u32>) -> f32 {\n\
             \x20   let mut sum = 0.0;\n\
             \x20   for (_, w) in weights.iter() { sum += w; }\n\
             \x20   for id in seen { sum += id as f32; }\n\
             \x20   sum\n\
             }\n\
             fn after(weights: Vec<f32>) -> f32 {\n\
             \x20   weights.iter().sum()\n\
             }\n\
             fn apply<F: Fn(u32) -> u32>(f: F, m: &'a mut HashMap<u32, u32>) -> u32 {\n\
             \x20   m.values().map(|v| f(*v)).sum()\n\
             }\n",
        );
        assert_eq!(v.len(), 3, "unexpected: {v:?}");
        assert_eq!(v[0].line, 3, ".iter() over the map parameter");
        assert!(v[0].message.contains("`weights`"));
        assert_eq!(v[1].line, 4, "for-in over the set parameter");
        assert!(v[1].message.contains("`seen`"));
        assert_eq!(v[2].line, 11, "a parameter after generics with `->`");
        assert!(v[2].message.contains("`m`"));
    }

    #[test]
    fn quiet_on_keyed_access_to_hash_parameters_and_btree_parameters() {
        let v = run_on(
            "fn weight(weights: &HashMap<String, f32>, tag: &str) -> f32 {\n\
             \x20   weights.get(tag).copied().unwrap_or(0.0)\n\
             }\n\
             fn ordered(m: &BTreeMap<u32, u32>) -> u32 {\n\
             \x20   m.iter().map(|(k, v)| k + v).sum()\n\
             }\n\
             trait Lookup {\n\
             \x20   fn probe(&self, m: &HashMap<u32, u32>);\n\
             }\n\
             fn unrelated(m: Vec<u32>) -> u32 {\n\
             \x20   m.iter().sum()\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn bindings_are_forgotten_at_scope_exit() {
        let v = run_on(
            "fn f() {\n\
             \x20   let m = HashMap::new();\n\
             \x20   m.insert(1, 1);\n\
             }\n\
             fn g(m: &BTreeMap<u32, u32>) {\n\
             \x20   for (k, v) in m.iter() { black_box(k, v); }\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn fires_on_hash_fields_iterated_either_way() {
        let v = run_on(
            "pub struct Store {\n\
             \x20   pub(crate) weights: HashMap<String, f32>,\n\
             \x20   seen: std::sync::Arc<std::collections::HashSet<u32>>,\n\
             }\n\
             impl Store {\n\
             \x20   fn total(&self) -> f32 {\n\
             \x20       let mut sum = 0.0;\n\
             \x20       for (_, w) in self.weights.iter() { sum += w; }\n\
             \x20       for (_, w) in &self.weights { sum += w; }\n\
             \x20       sum + self.seen.iter().count() as f32\n\
             \x20   }\n\
             }\n",
        );
        assert_eq!(v.len(), 3, "unexpected: {v:?}");
        assert_eq!(v[0].line, 8, ".iter() over the map field");
        assert!(v[0].message.contains("`weights`") && v[0].message.contains("iter"));
        assert_eq!(v[1].line, 9, "for-in over the map field");
        assert!(v[1].message.contains("`weights`") && v[1].message.contains("for-in"));
        assert_eq!(v[2].line, 10, ".iter() over the Arc-wrapped set field");
        assert!(v[2].message.contains("`seen`"));
    }

    #[test]
    fn quiet_on_keyed_access_to_hash_fields_and_ordered_or_locked_fields() {
        let v = run_on(
            "struct Store {\n\
             \x20   weights: HashMap<String, f32>,\n\
             \x20   ordered: BTreeMap<u32, u32>,\n\
             \x20   guarded: Mutex<HashMap<u32, u32>>,\n\
             }\n\
             impl Store {\n\
             \x20   fn f(&mut self, k: &str) -> f32 {\n\
             \x20       self.weights.insert(k.to_string(), 1.0);\n\
             \x20       let hit = self.weights.get(k).copied().unwrap_or(0.0);\n\
             \x20       let known = self.weights.contains_key(k);\n\
             \x20       let n = self.weights.len();\n\
             \x20       for (a, b) in self.ordered.iter() { black_box(a, b); }\n\
             \x20       for (a, b) in &self.ordered { black_box(a, b); }\n\
             \x20       black_box(self.guarded.lock().iter().count(), known, n);\n\
             \x20       hit\n\
             \x20   }\n\
             }\n",
        );
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn scope_is_the_determinism_critical_crates() {
        assert!(NondetIteration.applies("crates/ir/src/bm25.rs"));
        assert!(NondetIteration.applies("crates/text/src/vocab.rs"));
        assert!(NondetIteration.applies("crates/index/src/index.rs"));
        assert!(NondetIteration.applies("crates/query/src/plan.rs"));
        assert!(!NondetIteration.applies("crates/obs/src/gate.rs"));
        assert!(!NondetIteration.applies("crates/serve/src/lib.rs"));
    }
}
