//! Labeling functions (§5.2).
//!
//! "A labeling function in SACCS's pairing module has the same interface
//! as the classifier, i.e. expects a sentence and a phrase as input, and
//! outputs a binary label telling whether the phrase is a legit extraction
//! from the sentence": each LF wraps one heuristic and votes 1 exactly
//! when the candidate pair belongs to the heuristic's proposed set. The
//! five attention LFs use heads "chosen after a qualitative analysis" —
//! reproduced here by [`select_attention_heads`], which ranks every
//! layer:head of MiniBert by pairing accuracy on a small development set.

use crate::heuristics::{
    AttentionHeuristic, PairingHeuristic, SentenceContext, TreeDirection, TreeHeuristic,
};
use saccs_data::LabeledSentence;
use saccs_embed::FrozenMiniBert;
use saccs_text::Span;
use std::sync::Arc;

/// A labeling function: a named binary voter over candidate pairs.
pub struct LabelingFunction {
    heuristic: Box<dyn PairingHeuristic>,
}

impl LabelingFunction {
    pub fn from_heuristic(heuristic: Box<dyn PairingHeuristic>) -> Self {
        LabelingFunction { heuristic }
    }

    pub fn name(&self) -> String {
        self.heuristic.name()
    }

    /// Vote on a candidate `(aspect, opinion)` pair within a sentence.
    pub fn label(&self, ctx: &SentenceContext<'_>, candidate: (Span, Span)) -> bool {
        self.heuristic.pairs(ctx).contains(&candidate)
    }

    /// Vote on every candidate at once (one heuristic evaluation).
    pub fn label_all(&self, ctx: &SentenceContext<'_>, candidates: &[(Span, Span)]) -> Vec<bool> {
        let pairs = self.heuristic.pairs(ctx);
        candidates.iter().map(|c| pairs.contains(c)).collect()
    }
}

/// Accuracy of one heuristic against gold pairs over labeled sentences,
/// evaluated on the full candidate grid (the Table 5 protocol).
pub fn heuristic_accuracy(h: &dyn PairingHeuristic, sentences: &[LabeledSentence]) -> f32 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for s in sentences {
        let aspects = s.aspect_spans();
        let opinions = s.opinion_spans();
        if aspects.is_empty() || opinions.is_empty() {
            continue;
        }
        let ctx = SentenceContext {
            tokens: &s.tokens,
            aspects: &aspects,
            opinions: &opinions,
        };
        let proposed = h.pairs(&ctx);
        let gold: std::collections::BTreeSet<(Span, Span)> = s.pairs.iter().copied().collect();
        for &a in &aspects {
            for &o in &opinions {
                let predicted = proposed.contains(&(a, o));
                let truth = gold.contains(&(a, o));
                if predicted == truth {
                    correct += 1;
                }
                total += 1;
            }
        }
    }
    if total == 0 {
        return 0.0;
    }
    correct as f32 / total as f32
}

/// Rank every attention head of `bert` by pairing accuracy on `dev` and
/// return the best `k` as `(layer, head, accuracy)`, best first. This is
/// the "qualitative analysis" that picked the paper's five `lf_bert_l:h`.
pub fn select_attention_heads(
    bert: &FrozenMiniBert,
    dev: &[LabeledSentence],
    k: usize,
) -> Vec<(usize, usize, f32)> {
    use crate::heuristics::pairs_from_attention;
    let (layers, heads) = bert.attention_grid();
    // One attention pass per sentence and layer serves all its heads.
    let mut correct = vec![0usize; layers * heads];
    let mut total = vec![0usize; layers * heads];
    for s in dev {
        let aspects = s.aspect_spans();
        let opinions = s.opinion_spans();
        if aspects.is_empty() || opinions.is_empty() {
            continue;
        }
        let ctx = SentenceContext {
            tokens: &s.tokens,
            aspects: &aspects,
            opinions: &opinions,
        };
        let gold: std::collections::BTreeSet<(Span, Span)> = s.pairs.iter().copied().collect();
        for l in 1..=layers {
            for (h, att) in bert.attention(&s.tokens, l).iter().enumerate() {
                let proposed = pairs_from_attention(att, &ctx);
                let idx = (l - 1) * heads + h;
                for &a in &aspects {
                    for &o in &opinions {
                        if proposed.contains(&(a, o)) == gold.contains(&(a, o)) {
                            correct[idx] += 1;
                        }
                        total[idx] += 1;
                    }
                }
            }
        }
    }
    let mut scored: Vec<(usize, usize, f32)> = (1..=layers)
        .flat_map(|l| (0..heads).map(move |h| (l, h)))
        .map(|(l, h)| {
            let idx = (l - 1) * heads + h;
            let acc = if total[idx] == 0 {
                0.0
            } else {
                correct[idx] as f32 / total[idx] as f32
            };
            (l, h, acc)
        })
        .collect();
    scored.sort_by(|a, b| b.2.total_cmp(&a.2));
    scored.truncate(k);
    scored
}

/// Build the paper's seven labeling functions: the best five attention
/// heads (per `dev`) plus the two tree directions.
pub fn build_labeling_functions(
    bert: &Arc<FrozenMiniBert>,
    dev: &[LabeledSentence],
) -> Vec<LabelingFunction> {
    let mut lfs: Vec<LabelingFunction> = select_attention_heads(bert, dev, 5)
        .into_iter()
        .map(|(l, h, _)| {
            LabelingFunction::from_heuristic(Box::new(AttentionHeuristic::new(bert.clone(), l, h)))
        })
        .collect();
    lfs.push(LabelingFunction::from_heuristic(Box::new(
        TreeHeuristic::new(TreeDirection::OpinionToAspect),
    )));
    lfs.push(LabelingFunction::from_heuristic(Box::new(
        TreeHeuristic::new(TreeDirection::AspectToOpinion),
    )));
    lfs
}

#[cfg(test)]
mod tests {
    use super::*;
    use saccs_data::{Dataset, DatasetId};
    use saccs_embed::{build_vocab, MiniBert, MiniBertConfig};
    use saccs_text::Domain;

    fn bert() -> Arc<FrozenMiniBert> {
        let vocab = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
        let bert = MiniBert::new(
            vocab,
            MiniBertConfig {
                dim: 16,
                heads: 2,
                layers: 2,
                max_len: 48,
                seed: 4,
            },
        );
        Arc::new(bert.freeze())
    }

    #[test]
    fn tree_lf_votes_consistently_with_heuristic() {
        let data = Dataset::generate_scaled(DatasetId::S4, 0.05);
        let lf = LabelingFunction::from_heuristic(Box::new(TreeHeuristic::new(
            TreeDirection::OpinionToAspect,
        )));
        assert_eq!(lf.name(), "lf_tree_op");
        for s in &data.train {
            let aspects = s.aspect_spans();
            let opinions = s.opinion_spans();
            if aspects.is_empty() || opinions.is_empty() {
                continue;
            }
            let ctx = SentenceContext {
                tokens: &s.tokens,
                aspects: &aspects,
                opinions: &opinions,
            };
            let mut candidates = Vec::new();
            for &a in &aspects {
                for &o in &opinions {
                    candidates.push((a, o));
                }
            }
            let batch = lf.label_all(&ctx, &candidates);
            for (c, &b) in candidates.iter().zip(&batch) {
                assert_eq!(lf.label(&ctx, *c), b);
            }
            // Every opinion is claimed by exactly one aspect in this
            // direction, so positives == number of opinions.
            assert_eq!(batch.iter().filter(|&&v| v).count(), opinions.len());
        }
    }

    #[test]
    fn tree_heuristic_accuracy_is_strong_on_gold_spans() {
        let data = Dataset::generate_scaled(DatasetId::S1, 0.03);
        let h = TreeHeuristic::new(TreeDirection::OpinionToAspect);
        let acc = heuristic_accuracy(&h, &data.train);
        assert!(acc > 0.75, "tree heuristic accuracy {acc}");
    }

    #[test]
    fn head_selection_ranks_and_truncates() {
        let b = bert();
        let data = Dataset::generate_scaled(DatasetId::S1, 0.02);
        let heads = select_attention_heads(&b, &data.train, 3);
        assert_eq!(heads.len(), 3);
        // Sorted descending by accuracy.
        for w in heads.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
    }

    #[test]
    fn seven_labeling_functions_are_built() {
        let b = bert();
        let data = Dataset::generate_scaled(DatasetId::S4, 0.02);
        let lfs = build_labeling_functions(&b, &data.train);
        // 2 layers × 2 heads = only 4 attention heads available at test
        // scale, so 4 + 2 = 6 here; the bench uses a 3×4 grid for 5 + 2 = 7.
        assert_eq!(lfs.len(), 4 + 2);
        let names: Vec<String> = lfs.iter().map(|l| l.name()).collect();
        assert!(names.contains(&"lf_tree_as".to_string()));
        assert!(names.contains(&"lf_tree_op".to_string()));
        assert!(names.iter().any(|n| n.starts_with("lf_bert_")));
    }
}
