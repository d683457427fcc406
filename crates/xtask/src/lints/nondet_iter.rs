//! `nondet-iteration`: hash-ordered iteration on determinism-critical
//! paths.
//!
//! The workspace's headline contract is bitwise-identical rankings at
//! every thread width. `HashMap`/`HashSet` iteration order depends on
//! the hasher's per-process seed, so any loop over one that feeds an
//! index build, a vocabulary, a score or a pairing can reorder
//! floating-point reductions or id assignment between runs — the bug is
//! invisible until two runs disagree. The pass tracks hash-container
//! `let` bindings per scope and flags iteration over them (`for … in`,
//! `.iter()`/`.keys()`/`.values()`/`.drain()`/`.into_iter()`, and the
//! `HashSet` set-algebra iterators). Keyed lookups (`get`/`insert`/
//! `entry`/`contains_key`) are order-free and never fire. Use
//! `BTreeMap`/`BTreeSet`, or sort before consuming.

use super::{Lint, Violation};
use crate::scan::{is_ident, is_punct, seq, SourceFile, TokenKind};

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
        let t = &file.tokens;

        for i in 0..t.len() {
            if t[i].in_test {
                continue;
            }
            tracked.retain(|(_, d)| *d <= t[i].depth);

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

            // `for … in [&]NAME {` — consuming the container directly.
            if is_ident(&t[i], "in") {
                let mut j = i + 1;
                while t
                    .get(j)
                    .is_some_and(|n| is_punct(n, '&') || is_ident(n, "mut"))
                {
                    j += 1;
                }
                if t.get(j).is_some_and(|n| {
                    n.kind == TokenKind::Ident && tracked.iter().any(|(nm, _)| nm == &n.text)
                }) && t.get(j + 1).is_some_and(|n| is_punct(n, '{'))
                {
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
/// name, if this token starts a hash-container binding. The container may
/// sit anywhere along a qualified path (`std::collections::HashMap::from`),
/// so the detector walks `Ident(::Ident)*` after the separator instead of
/// requiring the container to be the first segment.
fn hash_binding(t: &[crate::scan::Token], i: usize) -> Option<String> {
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
    let mut k = name_idx + 2;
    // `let x ::` is not a binding separator.
    if is_punct(sep, ':') && t.get(k).is_some_and(|n| is_punct(n, ':')) {
        return None;
    }
    loop {
        let seg = t.get(k)?;
        if seg.kind != TokenKind::Ident {
            return None;
        }
        let next_generic = t.get(k + 1).is_some_and(|n| is_punct(n, '<'));
        let next_path = t.get(k + 1).is_some_and(|n| is_punct(n, ':'))
            && t.get(k + 2).is_some_and(|n| is_punct(n, ':'));
        if CONTAINERS.iter().any(|c| is_ident(seg, c)) && (next_generic || next_path) {
            return Some(t[name_idx].text.clone());
        }
        if next_path {
            k += 3;
        } else {
            return None;
        }
    }
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
    fn scope_is_the_determinism_critical_crates() {
        assert!(NondetIteration.applies("crates/ir/src/bm25.rs"));
        assert!(NondetIteration.applies("crates/text/src/vocab.rs"));
        assert!(NondetIteration.applies("crates/index/src/index.rs"));
        assert!(NondetIteration.applies("crates/query/src/plan.rs"));
        assert!(!NondetIteration.applies("crates/obs/src/gate.rs"));
        assert!(!NondetIteration.applies("crates/serve/src/lib.rs"));
    }
}
