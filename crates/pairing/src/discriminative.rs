//! The supervised discriminative pairer (§5.2).
//!
//! "We train a simple two-layer neural network with a sigmoid activation
//! function. We encode s_i and p_i using BERT embeddings." Features for a
//! candidate `(aspect, opinion)` in sentence `s` are built from MiniBert's
//! *contextual* token embeddings: the mean vector of the aspect span, the
//! mean vector of the opinion span, and their elementwise product (the
//! phrase-in-context encoding of `p_i`). Contextual vectors carry the
//! syntactic neighborhood, which is what lets the classifier "generalize
//! beyond the scope of examples fed to the labeling functions" and recover
//! the recall the heuristics lack (Table 5).

use crate::pipeline::pair_grid;
use crate::testset::PairingExample;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use saccs_embed::FrozenMiniBert;
use saccs_nn::layers::{FrozenLinear, Layer, Linear};
use saccs_nn::optim::{zero_grads, Adam};
use saccs_nn::{Matrix, Var};
use saccs_parse::ParseTree;
use saccs_text::Span;
use std::sync::Arc;

/// Number of hand-rolled structural features appended to the embedding
/// features (see [`DiscriminativePairer`] docs).
const STRUCT_FEATURES: usize = 6;

/// Width of the classifier's hidden layer.
const HIDDEN: usize = 64;

/// Training knobs for the discriminative model.
#[derive(Debug, Clone)]
pub struct DiscriminativeConfig {
    pub epochs: usize,
    pub lr: f32,
    pub seed: u64,
}

impl Default for DiscriminativeConfig {
    fn default() -> Self {
        DiscriminativeConfig {
            epochs: 25,
            lr: 5e-4,
            seed: 0xD15C,
        }
    }
}

/// The two-layer sigmoid classifier on the tape, over the frozen encoder
/// whose features it reads: it only trains. Inference runs on its
/// [`DiscriminativePairer::freeze`]d form, [`FrozenPairer`].
pub struct DiscriminativePairer {
    bert: Arc<FrozenMiniBert>,
    l1: Linear,
    l2: Linear,
}

impl DiscriminativePairer {
    /// Feature vector for a candidate pair: `[mean(aspect); mean(opinion);
    /// mean(aspect) ⊙ mean(opinion); structure]` over contextual
    /// embeddings. The six structural features (normalized word distance,
    /// parse-tree distance, same-clause and same-chunk flags, span order,
    /// grid size) stand in for the positional information a full-size
    /// BERT encodes in its embeddings and our MiniBert is too small to —
    /// a documented scale substitution (DESIGN.md §1), not an oracle: all
    /// six are computed from the raw sentence alone. `ctx` and `tree` are
    /// the sentence's encoder output and parse tree.
    fn features_with(
        ctx: &Matrix,
        tree: &ParseTree,
        tokens: &[String],
        aspect: &Span,
        opinion: &Span,
    ) -> Matrix {
        // Spans beyond the encoder's max_len truncation clamp onto the
        // last contextual row — a graceful degradation for the rare >47
        // token sentence rather than a panic.
        let span_mean = |s: &Span| -> Vec<f32> {
            let lo = s.start.min(ctx.rows().saturating_sub(1));
            let hi = s.end.min(ctx.rows()).max(lo + 1);
            let rows = ctx.slice_rows(lo, hi);
            rows.sum_rows()
                .scale(1.0 / (hi - lo) as f32)
                .data()
                .to_vec()
        };
        let a = span_mean(aspect);
        let o = span_mean(opinion);
        let mut feat = Vec::with_capacity(3 * a.len() + STRUCT_FEATURES);
        feat.extend_from_slice(&a);
        feat.extend_from_slice(&o);
        feat.extend(a.iter().zip(&o).map(|(x, y)| x * y));
        let (ah, oh) = (aspect.end - 1, opinion.end - 1);
        let word_dist = (ah.abs_diff(oh) as f32 / tokens.len().max(1) as f32).min(1.0);
        let tree_dist = tree.tree_distance(ah.min(tokens.len() - 1), oh.min(tokens.len() - 1));
        feat.push(word_dist);
        feat.push(tree_dist as f32 / 6.0);
        feat.push(f32::from(u8::from(tree_dist <= 4))); // same clause
        feat.push(f32::from(u8::from(tree_dist <= 2))); // same chunk
        feat.push(f32::from(u8::from(aspect.start < opinion.start)));
        feat.push((tokens.len() as f32 / 32.0).min(1.0));
        Matrix::row_vector(feat)
    }

    fn forward(&self, feat: &Matrix) -> Var {
        let x = Var::leaf(feat.clone());
        self.l2.forward(&self.l1.forward(&x).relu()).sigmoid()
    }

    /// Train on weakly-labeled examples `(example, label)` — labels come
    /// from the generative stage, not ground truth (Figure 6).
    pub fn train(
        bert: Arc<FrozenMiniBert>,
        examples: &[(PairingExample, bool)],
        config: &DiscriminativeConfig,
    ) -> Self {
        assert!(!examples.is_empty(), "no training examples");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let dim = 3 * bert.dim() + STRUCT_FEATURES;
        let model = DiscriminativePairer {
            bert,
            l1: Linear::new(dim, HIDDEN, &mut rng),
            l2: Linear::new(HIDDEN, 1, &mut rng),
        };
        // Precompute features once; the encoder is frozen. Candidates of
        // one sentence share its (expensive) contextual encoding and parse
        // tree, so cache those per distinct token sequence — training sets
        // carry a full candidate grid per sentence.
        let mut ctx_cache: std::collections::HashMap<String, (Matrix, saccs_parse::ParseTree)> =
            std::collections::HashMap::new();
        let feats: Vec<Matrix> = examples
            .iter()
            .map(|(ex, _)| {
                let key = ex.tokens.join("\u{1}");
                let (ctx, tree) = ctx_cache.entry(key).or_insert_with(|| {
                    (
                        model.bert.features(&ex.tokens),
                        ParseTree::from_tokens(&ex.tokens),
                    )
                });
                Self::features_with(ctx, tree, &ex.tokens, &ex.candidate.0, &ex.candidate.1)
            })
            .collect();
        let mut params = model.l1.params();
        params.extend(model.l2.params());
        let mut opt = Adam::new(config.lr).with_clip(1.0);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                zero_grads(&params);
                let p = model.forward(&feats[i]);
                let label = if examples[i].1 { 1.0 } else { 0.0 };
                p.binary_cross_entropy(label).backward();
                opt.step(&params);
            }
        }
        model
    }

    /// The trained classifier frozen for inference, over the same shared
    /// encoder.
    pub fn freeze(&self) -> FrozenPairer {
        FrozenPairer {
            bert: Arc::clone(&self.bert),
            l1: self.l1.freeze(),
            l2: self.l2.freeze(),
        }
    }
}

/// A [`DiscriminativePairer`] frozen for inference over a shared frozen
/// encoder: its probabilities equal the taped ones bit for bit.
pub struct FrozenPairer {
    bert: Arc<FrozenMiniBert>,
    l1: FrozenLinear,
    l2: FrozenLinear,
}

impl FrozenPairer {
    /// The frozen encoder this classifier reads.
    pub fn bert(&self) -> &Arc<FrozenMiniBert> {
        &self.bert
    }

    /// P(correct extraction) for a candidate pair.
    pub fn probability(&self, tokens: &[String], aspect: &Span, opinion: &Span) -> f32 {
        let ctx = self.bert.features(tokens);
        let tree = ParseTree::from_tokens(tokens);
        self.probability_with(&ctx, &tree, tokens, aspect, opinion)
    }

    /// Hard decision at the 0.5 threshold (the classifier interface of
    /// §5.2: "consider it as a correct extraction if the classifier
    /// returns a positive label").
    pub fn classify(&self, tokens: &[String], aspect: &Span, opinion: &Span) -> bool {
        self.probability(tokens, aspect, opinion) > 0.5
    }

    /// P(correct extraction) for a candidate pair, from the sentence's
    /// encoder features and parse tree.
    pub fn probability_with(
        &self,
        ctx: &Matrix,
        tree: &ParseTree,
        tokens: &[String],
        aspect: &Span,
        opinion: &Span,
    ) -> f32 {
        let feat = DiscriminativePairer::features_with(ctx, tree, tokens, aspect, opinion);
        let hidden = self.l1.forward(&feat).relu();
        self.l2.forward(&hidden).sigmoid().get(0, 0)
    }

    /// Pair an extracted span set, encoding the sentence once: run the
    /// classifier over the full candidate grid and keep the positives
    /// (the SACCS usage of §5.2). Falls back to the best-probability
    /// opinion per aspect when the classifier rejects everything, so
    /// tagged aspects are never dropped.
    pub fn pair_spans(
        &self,
        tokens: &[String],
        aspects: &[Span],
        opinions: &[Span],
    ) -> Vec<(Span, Span)> {
        self.pair_spans_with(&self.bert.features(tokens), tokens, aspects, opinions)
    }

    /// [`FrozenPairer::pair_spans`] over the sentence's encoder features
    /// (the tagger's), parsing the sentence once.
    pub fn pair_spans_with(
        &self,
        ctx: &Matrix,
        tokens: &[String],
        aspects: &[Span],
        opinions: &[Span],
    ) -> Vec<(Span, Span)> {
        let _span = saccs_obs::span!("extract.pair");
        let tree = ParseTree::from_tokens(tokens);
        pair_grid(aspects, opinions, |a, o| {
            self.probability_with(ctx, &tree, tokens, a, o)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testset::build_test_set;
    use saccs_embed::{build_vocab, MiniBert, MiniBertConfig};
    use saccs_text::Domain;

    /// An untrained encoder of the given shape.
    fn taped_bert(dim: usize, heads: usize, layers: usize, seed: u64) -> MiniBert {
        let vocab = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
        let config = MiniBertConfig {
            dim,
            heads,
            layers,
            max_len: 48,
            seed,
        };
        MiniBert::new(vocab, config)
    }

    fn bert() -> Arc<FrozenMiniBert> {
        Arc::new(taped_bert(16, 2, 2, 6).freeze())
    }

    #[test]
    fn learns_gold_pairing_from_true_labels() {
        // Upper-bound sanity: with *gold* labels (instead of weak ones) the
        // classifier must beat chance comfortably on held-out data.
        let b = bert();
        let train = build_test_set(240, Domain::Restaurants, 21);
        let test = build_test_set(120, Domain::Restaurants, 22);
        let labeled: Vec<(PairingExample, bool)> =
            train.iter().map(|e| (e.clone(), e.label)).collect();
        let model = DiscriminativePairer::train(
            b,
            &labeled,
            &DiscriminativeConfig {
                epochs: 10,
                ..Default::default()
            },
        )
        .freeze();
        let correct = test
            .iter()
            .filter(|e| model.classify(&e.tokens, &e.candidate.0, &e.candidate.1) == e.label)
            .count();
        let acc = correct as f32 / test.len() as f32;
        assert!(acc > 0.65, "discriminative accuracy {acc}");
    }

    #[test]
    fn probability_is_bounded() {
        let b = bert();
        let set = build_test_set(40, Domain::Restaurants, 23);
        let labeled: Vec<(PairingExample, bool)> =
            set.iter().map(|e| (e.clone(), e.label)).collect();
        let model = DiscriminativePairer::train(
            b,
            &labeled,
            &DiscriminativeConfig {
                epochs: 1,
                ..Default::default()
            },
        )
        .freeze();
        for e in set.iter().take(10) {
            let p = model.probability(&e.tokens, &e.candidate.0, &e.candidate.1);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn frozen_probabilities_match_taped_bitwise() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut set = build_test_set(24, Domain::Restaurants, 25);
        // A sentence past max_len = 48: its opinion span lies beyond the
        // encoder's truncation and clamps onto the last row.
        let mut long = set[0].clone();
        long.tokens.extend((0..60).map(|_| "and".to_string()));
        let last = long.tokens.len() - 1;
        long.tokens[last] = "delicious".to_string();
        long.candidate.1 = Span::opinion(last, last + 1);
        long.opinions.push(long.candidate.1);
        set.push(long);
        let labeled: Vec<(PairingExample, bool)> =
            set.iter().map(|e| (e.clone(), e.label)).collect();
        // The quick() and paper() encoder shapes.
        for (dim, heads, layers) in [(24, 4, 2), (48, 6, 4)] {
            let b = taped_bert(dim, heads, layers, 7);
            for p in b.params() {
                let (r, c) = p.shape();
                p.set_value(Matrix::uniform(r, c, 0.5, &mut rng));
            }
            let model = DiscriminativePairer::train(
                Arc::new(b.freeze()),
                &labeled,
                &DiscriminativeConfig {
                    epochs: 0,
                    ..Default::default()
                },
            );
            for p in model.l1.params().into_iter().chain(model.l2.params()) {
                let (r, c) = p.shape();
                p.set_value(Matrix::uniform(r, c, 0.5, &mut rng));
            }
            let frozen = model.freeze();
            for e in &set {
                let ctx = frozen.bert().features(&e.tokens);
                let tree = ParseTree::from_tokens(&e.tokens);
                // The taped classifier's training forward.
                let taped = |a: &Span, o: &Span| {
                    let feat = DiscriminativePairer::features_with(&ctx, &tree, &e.tokens, a, o);
                    model.forward(&feat).scalar()
                };
                let (a, o) = e.candidate;
                assert_eq!(
                    frozen
                        .probability_with(&ctx, &tree, &e.tokens, &a, &o)
                        .to_bits(),
                    taped(&a, &o).to_bits(),
                    "dim {dim}: {:?}",
                    e.tokens
                );
                assert_eq!(
                    frozen.probability(&e.tokens, &a, &o).to_bits(),
                    taped(&a, &o).to_bits()
                );
                assert_eq!(
                    frozen.pair_spans(&e.tokens, &e.aspects, &e.opinions),
                    pair_grid(&e.aspects, &e.opinions, taped)
                );
            }
        }
    }

    #[test]
    fn training_is_deterministic() {
        let b = bert();
        let set = build_test_set(40, Domain::Restaurants, 24);
        let labeled: Vec<(PairingExample, bool)> =
            set.iter().map(|e| (e.clone(), e.label)).collect();
        let cfg = DiscriminativeConfig {
            epochs: 2,
            ..Default::default()
        };
        let m1 = DiscriminativePairer::train(b.clone(), &labeled, &cfg).freeze();
        let m2 = DiscriminativePairer::train(b, &labeled, &cfg).freeze();
        let e = &set[0];
        assert_eq!(
            m1.probability(&e.tokens, &e.candidate.0, &e.candidate.1),
            m2.probability(&e.tokens, &e.candidate.0, &e.candidate.1)
        );
    }
}
