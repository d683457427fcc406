//! Integer vocabularies for the neural stack.
//!
//! MiniBert (the paper's BERT stand-in) and the tagger consume token ids.
//! A [`Vocab`] maps token strings to dense ids, reserving the conventional
//! special tokens at fixed positions so model code can rely on them.

use std::collections::{BTreeMap, HashMap};

/// Id of the padding token. Always 0.
pub const PAD: usize = 0;
/// Id of the unknown-word token. Always 1.
pub const UNK: usize = 1;
/// Id of the mask token used by masked-LM pretraining. Always 2.
pub const MASK: usize = 2;
/// Id of the sequence-start token. Always 3.
pub const CLS: usize = 3;

const SPECIALS: [&str; 4] = ["[PAD]", "[UNK]", "[MASK]", "[CLS]"];

/// A frozen token ↔ id mapping.
#[derive(Debug, Clone)]
pub struct Vocab {
    id_of: HashMap<String, usize>,
    token_of: Vec<String>,
}

impl Vocab {
    /// Build a vocabulary from an iterator of (lowercased) tokens, keeping
    /// every token that occurs at least `min_freq` times. Iteration order of
    /// the result is deterministic: specials first, then tokens sorted by
    /// (descending frequency, lexicographic).
    pub fn build<'a, I: IntoIterator<Item = &'a str>>(tokens: I, min_freq: usize) -> Self {
        // BTreeMap so the pre-sort walk below is already ordered — ties
        // in the (freq, lexicographic) sort never depend on hash order
        // (lint: nondet-iteration).
        let mut freq: BTreeMap<&str, usize> = BTreeMap::new();
        for t in tokens {
            *freq.entry(t).or_insert(0) += 1;
        }
        let mut kept: Vec<(&str, usize)> =
            freq.into_iter().filter(|&(_, n)| n >= min_freq).collect();
        kept.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));

        let mut token_of: Vec<String> = SPECIALS.iter().map(|s| s.to_string()).collect();
        token_of.extend(kept.into_iter().map(|(t, _)| t.to_string()));
        let id_of = token_of
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i))
            .collect();
        Vocab { id_of, token_of }
    }

    /// Build directly from an explicit token list (specials are prepended;
    /// duplicates of specials in the list are ignored).
    pub fn from_tokens<I: IntoIterator<Item = String>>(tokens: I) -> Self {
        let mut token_of: Vec<String> = SPECIALS.iter().map(|s| s.to_string()).collect();
        let mut id_of: HashMap<String, usize> = token_of
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i))
            .collect();
        for t in tokens {
            if !id_of.contains_key(&t) {
                id_of.insert(t.clone(), token_of.len());
                token_of.push(t);
            }
        }
        Vocab { id_of, token_of }
    }

    /// Number of entries, including the four specials.
    pub fn len(&self) -> usize {
        self.token_of.len()
    }

    /// True if only the specials are present.
    pub fn is_empty(&self) -> bool {
        self.token_of.len() == SPECIALS.len()
    }

    /// Id for `token`, falling back to [`UNK`].
    pub fn id(&self, token: &str) -> usize {
        self.id_of.get(token).copied().unwrap_or(UNK)
    }

    /// True when `token` is in-vocabulary.
    pub fn contains(&self, token: &str) -> bool {
        self.id_of.contains_key(token)
    }

    /// Token string for `id`; panics on out-of-range ids.
    pub fn token(&self, id: usize) -> &str {
        &self.token_of[id]
    }

    /// Encode a token sequence to ids (no implicit CLS; callers that want a
    /// sequence-start marker push [`CLS`] themselves).
    pub fn encode<'a, I: IntoIterator<Item = &'a str>>(&self, tokens: I) -> Vec<usize> {
        tokens.into_iter().map(|t| self.id(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specials_have_fixed_ids() {
        let v = Vocab::build(["a", "b", "a"], 1);
        assert_eq!(v.id("[PAD]"), PAD);
        assert_eq!(v.id("[UNK]"), UNK);
        assert_eq!(v.id("[MASK]"), MASK);
        assert_eq!(v.id("[CLS]"), CLS);
    }

    #[test]
    fn frequency_ordering_is_deterministic() {
        let v = Vocab::build(["b", "a", "b", "c", "a", "b"], 1);
        // b (3) before a (2) before c (1).
        assert_eq!(v.token(4), "b");
        assert_eq!(v.token(5), "a");
        assert_eq!(v.token(6), "c");
    }

    #[test]
    fn min_freq_filters() {
        let v = Vocab::build(["a", "a", "b"], 2);
        assert!(v.contains("a"));
        assert!(!v.contains("b"));
        assert_eq!(v.id("b"), UNK);
    }

    #[test]
    fn encode_maps_oov_to_unk() {
        let v = Vocab::build(["food", "good"], 1);
        assert_eq!(v.encode(["food", "zzz"]), vec![v.id("food"), UNK]);
    }

    #[test]
    fn from_tokens_dedups() {
        let v = Vocab::from_tokens(vec!["x".into(), "y".into(), "x".into()]);
        assert_eq!(v.len(), 6);
        assert_eq!(v.id("x"), 4);
        assert_eq!(v.id("y"), 5);
    }

    #[test]
    fn roundtrip_token_id() {
        let v = Vocab::build(["food", "staff", "good"], 1);
        for id in 0..v.len() {
            assert_eq!(v.id(v.token(id)), id);
        }
    }
}
