//! Embedding-cosine tag similarity — the alternative the paper's
//! footnote 2 argues *against*: "Conceptual similarity has been shown to
//! work better on short phrases such as subjective tags than cosine
//! similarity." This implementation lets the `similarity_ablation` bench
//! test that claim: tags are embedded with MiniBert (mean-pooled phrase
//! embeddings), compared by cosine, and rescaled to `[0, 1]`.
//!
//! Embeddings are precomputed into a shared lookup table at
//! construction, so the measure knows exactly the phrases of its
//! universe, and clones of it can drive the index's parallel builder.

use saccs_embed::FrozenMiniBert;
use saccs_text::metrics::cosine;
use saccs_text::{ResolvedTag, SubjectiveTag, TagSimilarity};
use std::collections::HashMap;
use std::sync::Arc;

/// Precomputed phrase-embedding similarity. Cloning is cheap (the
/// embedding table is shared).
#[derive(Clone)]
pub struct EmbeddingSimilarity {
    table: Arc<HashMap<String, Vec<f32>>>,
}

impl EmbeddingSimilarity {
    /// Embed every tag in `universe` (index tags, review tags, and any
    /// query tags the caller will probe with).
    pub fn precompute<'a>(
        bert: &FrozenMiniBert,
        universe: impl IntoIterator<Item = &'a SubjectiveTag>,
    ) -> Self {
        let mut table = HashMap::new();
        for tag in universe {
            let phrase = tag.phrase();
            table.entry(phrase.clone()).or_insert_with(|| {
                let tokens: Vec<String> =
                    phrase.split_whitespace().map(|w| w.to_string()).collect();
                bert.phrase_embedding(&tokens)
            });
        }
        EmbeddingSimilarity {
            table: Arc::new(table),
        }
    }

    /// Number of cached phrases.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

impl TagSimilarity for EmbeddingSimilarity {
    fn similarity(&self, a: &ResolvedTag<'_>, b: &ResolvedTag<'_>) -> f32 {
        match (
            self.table.get(&a.tag.phrase()),
            self.table.get(&b.tag.phrase()),
        ) {
            (Some(ea), Some(eb)) => ((cosine(ea, eb) + 1.0) / 2.0).clamp(0.0, 1.0),
            // Out-of-universe phrases are unknowable to a pure-embedding
            // measure with a frozen cache.
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saccs_embed::{
        build_vocab, general_corpus, train_mlm, MiniBert, MiniBertConfig, MlmConfig,
    };
    use saccs_text::{ConceptualSimilarity, Domain, Lexicon};

    /// `s` on two tags, resolved as an index resolves them.
    fn score(s: &EmbeddingSimilarity, a: &SubjectiveTag, b: &SubjectiveTag) -> f32 {
        let resolver = ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants));
        s.similarity(&resolver.resolve(a), &resolver.resolve(b))
    }

    fn sim() -> EmbeddingSimilarity {
        let vocab = build_vocab(&[Domain::Restaurants]);
        let bert = MiniBert::new(
            vocab,
            MiniBertConfig {
                dim: 16,
                heads: 2,
                layers: 2,
                max_len: 16,
                seed: 4,
            },
        );
        train_mlm(
            &bert,
            &general_corpus(120, 5),
            &MlmConfig {
                epochs: 1,
                ..Default::default()
            },
        );
        let bert = bert.freeze();
        let universe = vec![
            SubjectiveTag::new("delicious", "food"),
            SubjectiveTag::new("tasty", "food"),
            SubjectiveTag::new("nice", "staff"),
        ];
        EmbeddingSimilarity::precompute(&bert, &universe)
    }

    #[test]
    fn identity_is_maximal() {
        let s = sim();
        let t = SubjectiveTag::new("delicious", "food");
        let self_sim = score(&s, &t, &t);
        let cross = score(&s, &t, &SubjectiveTag::new("nice", "staff"));
        assert!((self_sim - 1.0).abs() < 1e-5);
        assert!(cross < self_sim);
    }

    #[test]
    fn symmetric_and_bounded() {
        let s = sim();
        let a = SubjectiveTag::new("delicious", "food");
        let b = SubjectiveTag::new("tasty", "food");
        let ab = score(&s, &a, &b);
        assert_eq!(ab, score(&s, &b, &a));
        assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn unknown_phrase_scores_zero() {
        let s = sim();
        let known = SubjectiveTag::new("delicious", "food");
        let unknown = SubjectiveTag::new("zorgle", "blarf");
        assert_eq!(score(&s, &known, &unknown), 0.0);
    }

    #[test]
    fn cache_deduplicates() {
        let vocab = build_vocab(&[Domain::Restaurants]);
        let bert = MiniBert::new(
            vocab,
            MiniBertConfig {
                dim: 16,
                heads: 2,
                layers: 2,
                max_len: 16,
                seed: 4,
            },
        )
        .freeze();
        let t = SubjectiveTag::new("delicious", "food");
        let s = EmbeddingSimilarity::precompute(&bert, vec![&t, &t, &t]);
        assert_eq!(s.len(), 1);
    }
}
