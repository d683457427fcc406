//! Plain string metrics used by the similarity checker and the IR baseline.

/// Levenshtein edit distance between two strings, computed over chars.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Normalized edit similarity in `[0, 1]`: `1 - lev / max_len`.
pub fn edit_similarity(a: &str, b: &str) -> f32 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f32 / max as f32
}

/// Jaccard similarity of two token multisets treated as sets.
pub fn jaccard<'a>(
    a: impl IntoIterator<Item = &'a str>,
    b: impl IntoIterator<Item = &'a str>,
) -> f32 {
    // BTreeSet so the set algebra below iterates in token order — the
    // counts are order-free, but keeping the walk ordered means a future
    // change that *consumes* the elements stays deterministic (lint:
    // nondet-iteration).
    use std::collections::BTreeSet;
    let sa: BTreeSet<&str> = a.into_iter().collect();
    let sb: BTreeSet<&str> = b.into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count() as f32;
    let union = sa.union(&sb).count() as f32;
    inter / union
}

/// Cosine similarity of two dense vectors; 0 when either has zero norm.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine: dimension mismatch");
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("food", "good"), 1);
    }

    #[test]
    fn edit_similarity_bounds() {
        assert_eq!(edit_similarity("", ""), 1.0);
        assert_eq!(edit_similarity("abc", "abc"), 1.0);
        assert_eq!(edit_similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(["a", "b"], ["a", "b"]), 1.0);
        assert_eq!(jaccard(["a"], ["b"]), 0.0);
        assert!((jaccard(["a", "b"], ["b", "c"]) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    proptest! {
        #[test]
        fn prop_levenshtein_symmetric(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn prop_levenshtein_triangle(a in "[a-z]{0,8}", b in "[a-z]{0,8}", c in "[a-z]{0,8}") {
            prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        }

        #[test]
        fn prop_levenshtein_identity(a in "[a-z]{0,16}") {
            prop_assert_eq!(levenshtein(&a, &a), 0);
        }

        #[test]
        fn prop_edit_similarity_in_unit_interval(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
            let s = edit_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn prop_cosine_bounded(v in proptest::collection::vec(-10.0f32..10.0, 1..8),
                               w in proptest::collection::vec(-10.0f32..10.0, 1..8)) {
            let n = v.len().min(w.len());
            let s = cosine(&v[..n], &w[..n]);
            prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&s));
        }
    }
}
