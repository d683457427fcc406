//! Training, including FGSM adversarial training (§4.3, Equations 6–9).
//!
//! The adversarial objective is
//!
//! ```text
//! min_θ [ α·ℓ(h_θ(x), y) + (1−α)·max_{‖δ‖∞<ε} ℓ(h_θ(x+δ), y) ]     (Eq. 6)
//! ```
//!
//! with the inner maximum approximated by the Fast Gradient Sign Method:
//! `δ* = ε·sign(∇_x ℓ(h_θ(x), y))` (Eq. 9), applied *to the embeddings*
//! (Miyato et al. \[38\]) — here, the frozen MiniBert feature matrix each
//! sentence presents to the tagger head. Each adversarial step therefore
//! runs three forwards: one to obtain `∇_x`, then the clean and perturbed
//! losses of Equation 8 combined with weight `α` and backpropagated
//! together.

use crate::model::{Architecture, FrozenTaggerModel, TaggerModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use saccs_data::LabeledSentence;
use saccs_embed::FrozenMiniBert;
use saccs_eval::SpanF1;
use saccs_nn::optim::{zero_grads, Adam};
use saccs_nn::{Matrix, Var};
use saccs_text::iob::spans_from_tags;
use saccs_text::{IobTag, Span};
use std::sync::Arc;

/// Hidden width of the head: each BiLSTM direction's, half the MLP's.
const HIDDEN: usize = 24;
/// Dropout on the encoder features while training.
const DROPOUT: f32 = 0.1;

/// FGSM settings; the paper fixes `α = 0.5` and sweeps
/// `ε ∈ {0.1, 0.2, 0.5, 1.0, 2.0}` (§6.1).
#[derive(Debug, Clone, Copy)]
pub struct Adversarial {
    pub epsilon: f32,
    pub alpha: f32,
}

/// Training configuration. Defaults follow §6.3: 15 epochs, α = 0.5.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub architecture: Architecture,
    pub adversarial: Option<Adversarial>,
    pub epochs: usize,
    pub lr: f32,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            architecture: Architecture::BiLstmCrf,
            adversarial: None,
            epochs: 15,
            lr: 4e-3,
            seed: 0x7A66,
        }
    }
}

/// A trained tagger: the frozen encoder it trained over and its taped
/// head. Inference runs on [`Tagger::freeze`]'s [`FrozenTagger`]; the
/// taped head serves training and [`Tagger::mean_loss`], whose FGSM
/// perturbation needs input gradients.
pub struct Tagger {
    bert: Arc<FrozenMiniBert>,
    model: TaggerModel,
}

impl Tagger {
    /// Train on labeled sentences. MiniBert features are computed once
    /// per sentence (the encoder is frozen), then the head trains for
    /// `config.epochs` passes in shuffled order, one optimizer step per
    /// example (the paper's per-example SGD).
    pub fn train(
        bert: Arc<FrozenMiniBert>,
        train_set: &[LabeledSentence],
        config: &TrainConfig,
    ) -> Self {
        assert!(!train_set.is_empty(), "empty training set");
        let _train = saccs_obs::span!("tagger.train");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let model = TaggerModel::new(config.architecture, bert.dim(), HIDDEN, DROPOUT, &mut rng);
        // The feature extraction fans out across the saccs-rt pool.
        let token_seqs: Vec<Vec<String>> = train_set.iter().map(|s| s.tokens.clone()).collect();
        let features: Vec<Matrix> = bert.features_batch(&token_seqs);
        let params = model.params();
        let mut opt = Adam::new(config.lr).with_clip(1.0);
        let mut order: Vec<usize> = (0..train_set.len()).collect();
        for _ in 0..config.epochs {
            let _epoch = saccs_obs::span!("tagger.epoch");
            // Loss/norm bookkeeping reads values out of the graph, which
            // costs extra traversals — only do it when someone is looking.
            let observing = saccs_obs::enabled();
            let mut epoch_loss = 0.0f64;
            let mut seen = 0usize;
            order.shuffle(&mut rng);
            for &i in &order {
                if saccs_fault::failpoint!("tagger.train_step").is_err() {
                    // An injected step failure skips this example (the
                    // weak-supervision stance: training tolerates lost
                    // steps, it does not abort the run).
                    saccs_obs::counter!("fault.train.skipped_steps").inc();
                    continue;
                }
                let f = &features[i];
                let y = &train_set[i].tags;
                if f.rows() != y.len() {
                    // Truncated by max_len; skip rather than mislabel.
                    continue;
                }
                zero_grads(&params);
                let step_loss = match config.adversarial {
                    None => {
                        let loss = model.loss(&Var::leaf(f.clone()), y, true, &mut rng);
                        loss.backward();
                        loss
                    }
                    Some(adv) => {
                        // Pass 1: input gradient for δ* (Eq. 9).
                        let probe = Var::leaf(f.clone());
                        model.loss(&probe, y, true, &mut rng).backward();
                        // sign(0) = 0: untouched coordinates get no
                        // perturbation (f32::signum maps ±0 to ±1).
                        let delta = probe.grad().map(|g| {
                            if g == 0.0 {
                                0.0
                            } else {
                                adv.epsilon * g.signum()
                            }
                        });
                        if observing {
                            saccs_obs::registry()
                                .gauge("tagger.fgsm.delta_norm")
                                .set(f64::from(delta.norm()));
                        }
                        // Discard the parameter gradients of the probe pass.
                        zero_grads(&params);
                        // Pass 2+3: combined objective (Eq. 8).
                        let clean = model.loss(&Var::leaf(f.clone()), y, true, &mut rng);
                        let perturbed = model.loss(&Var::leaf(f.add(&delta)), y, true, &mut rng);
                        let combined = clean
                            .scale(adv.alpha)
                            .add(&perturbed.scale(1.0 - adv.alpha));
                        combined.backward();
                        combined
                    }
                };
                if observing {
                    epoch_loss += f64::from(step_loss.scalar());
                    seen += 1;
                    let grad_sq: f32 = params
                        .iter()
                        .map(|p| {
                            let n = p.grad().norm();
                            n * n
                        })
                        .sum();
                    saccs_obs::registry()
                        .gauge("tagger.grad_norm")
                        .set(f64::from(grad_sq.sqrt()));
                }
                opt.step(&params);
            }
            saccs_obs::counter!("tagger.epochs").inc();
            if observing && seen > 0 {
                saccs_obs::registry()
                    .gauge("tagger.epoch_loss")
                    .set(epoch_loss / seen as f64);
            }
        }
        Tagger { bert, model }
    }

    /// The frozen encoder this tagger reads.
    pub fn bert(&self) -> &Arc<FrozenMiniBert> {
        &self.bert
    }

    pub fn model(&self) -> &TaggerModel {
        &self.model
    }

    /// The trained tagger frozen for inference, over the same shared
    /// encoder.
    pub fn freeze(&self) -> FrozenTagger {
        FrozenTagger {
            bert: Arc::clone(&self.bert),
            model: self.model.freeze(),
        }
    }

    /// Mean loss on a set without updating weights; used by the
    /// Figure-4 ablation to compare clean vs. perturbed-loss curves.
    pub fn mean_loss(&self, set: &[LabeledSentence], perturb_epsilon: Option<f32>) -> f32 {
        let mut rng = StdRng::seed_from_u64(0);
        let mut total = 0.0;
        let mut n = 0usize;
        for s in set {
            let f = self.bert.features(&s.tokens);
            if f.rows() != s.tags.len() {
                continue;
            }
            let loss = match perturb_epsilon {
                None => self.model.loss(&Var::leaf(f), &s.tags, false, &mut rng),
                Some(eps) => {
                    let probe = Var::leaf(f.clone());
                    self.model.loss(&probe, &s.tags, false, &mut rng).backward();
                    let delta = probe.grad().map(|g| eps * g.signum());
                    self.model
                        .loss(&Var::leaf(f.add(&delta)), &s.tags, false, &mut rng)
                }
            };
            total += loss.scalar();
            n += 1;
        }
        total / n.max(1) as f32
    }
}

/// A trained tagger frozen for inference ([`Tagger::freeze`]): the
/// encoder (shared by `Arc` with other models that read its features)
/// and the head. Its tags equal the taped head's, decoded the same way,
/// bit for bit.
pub struct FrozenTagger {
    bert: Arc<FrozenMiniBert>,
    model: FrozenTaggerModel,
}

impl FrozenTagger {
    pub fn bert(&self) -> &FrozenMiniBert {
        &self.bert
    }

    pub fn model(&self) -> &FrozenTaggerModel {
        &self.model
    }

    /// Tag a token sequence.
    pub fn tag(&self, tokens: &[String]) -> Vec<IobTag> {
        if tokens.is_empty() {
            return Vec::new();
        }
        self.model.predict(&self.bert.features(tokens))
    }

    /// Extract aspect/opinion spans from a token sequence.
    pub fn extract_spans(&self, tokens: &[String]) -> Vec<Span> {
        spans_from_tags(&self.tag(tokens))
    }

    /// Exact-match span F1 on a labeled test set (Table 4's metric).
    pub fn evaluate(&self, test_set: &[LabeledSentence]) -> SpanF1 {
        let mut f1 = SpanF1::new();
        for s in test_set {
            let predicted = self.extract_spans(&s.tokens);
            let gold = spans_from_tags(&s.tags);
            f1.observe(&predicted, &gold);
        }
        f1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saccs_data::{Dataset, DatasetId};
    use saccs_embed::{
        build_vocab, general_corpus, train_mlm, MiniBert, MiniBertConfig, MlmConfig,
    };
    use saccs_text::Domain;

    fn small_bert() -> Arc<FrozenMiniBert> {
        let vocab = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
        let bert = MiniBert::new(
            vocab,
            MiniBertConfig {
                dim: 16,
                heads: 2,
                layers: 2,
                max_len: 48,
                seed: 2,
            },
        );
        train_mlm(
            &bert,
            &general_corpus(150, 4),
            &MlmConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        Arc::new(bert.freeze())
    }

    fn tiny_dataset() -> Dataset {
        Dataset::generate_scaled(DatasetId::S4, 0.12) // 96 train / 13 test
    }

    #[test]
    fn training_learns_to_tag() {
        let bert = small_bert();
        let data = tiny_dataset();
        let cfg = TrainConfig {
            epochs: 6,
            ..Default::default()
        };
        let tagger = Tagger::train(bert, &data.train, &cfg).freeze();
        let train_f1 = tagger.evaluate(&data.train);
        assert!(
            train_f1.f1() > 0.6,
            "tagger failed to fit training data: F1={}",
            train_f1.f1()
        );
        let test_f1 = tagger.evaluate(&data.test);
        assert!(
            test_f1.f1() > 0.3,
            "no generalization at all: F1={}",
            test_f1.f1()
        );
    }

    #[test]
    fn adversarial_training_runs_and_tags_validly() {
        let bert = small_bert();
        let data = tiny_dataset();
        let cfg = TrainConfig {
            epochs: 3,
            adversarial: Some(Adversarial {
                epsilon: 0.2,
                alpha: 0.5,
            }),
            ..Default::default()
        };
        let tagger = Tagger::train(bert, &data.train, &cfg).freeze();
        for s in data.test.iter().take(5) {
            let tags = tagger.tag(&s.tokens);
            // One tag per token the encoder kept ([CLS] takes an id).
            assert_eq!(tags.len(), tagger.bert().ids(&s.tokens).len() - 1);
            assert!(saccs_text::iob::is_valid_sequence(&tags));
        }
    }

    #[test]
    fn adversarial_training_improves_perturbed_loss() {
        // The §4.3 claim in miniature: under FGSM perturbation at eval
        // time, the adversarially-trained model suffers less than the
        // clean-trained one.
        let bert = small_bert();
        let data = tiny_dataset();
        let eps = 0.5;
        let clean = Tagger::train(
            bert.clone(),
            &data.train,
            &TrainConfig {
                epochs: 4,
                seed: 11,
                ..Default::default()
            },
        );
        let robust = Tagger::train(
            bert,
            &data.train,
            &TrainConfig {
                epochs: 4,
                seed: 11,
                adversarial: Some(Adversarial {
                    epsilon: eps,
                    alpha: 0.5,
                }),
                ..Default::default()
            },
        );
        let clean_gap = clean.mean_loss(&data.test, Some(eps)) - clean.mean_loss(&data.test, None);
        let robust_gap =
            robust.mean_loss(&data.test, Some(eps)) - robust.mean_loss(&data.test, None);
        assert!(
            robust_gap < clean_gap,
            "adversarial training did not shrink the robustness gap: clean={clean_gap} robust={robust_gap}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let bert = small_bert();
        let data = tiny_dataset();
        let cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        let a = Tagger::train(bert.clone(), &data.train, &cfg).freeze();
        let b = Tagger::train(bert, &data.train, &cfg).freeze();
        let s = &data.test[0];
        assert_eq!(a.tag(&s.tokens), b.tag(&s.tokens));
    }

    #[test]
    fn token_softmax_baseline_trains() {
        let bert = small_bert();
        let data = tiny_dataset();
        let cfg = TrainConfig {
            architecture: Architecture::TokenSoftmax,
            epochs: 15,
            lr: 2e-3,
            ..Default::default()
        };
        let tagger = Tagger::train(bert, &data.train, &cfg).freeze();
        let f1 = tagger.evaluate(&data.train).f1();
        // The per-token baseline is architecture-limited (no sequence
        // structure) and this test's MiniBert is deliberately tiny; the
        // full-size comparison lives in the table4 bench.
        assert!(f1 > 0.2, "softmax baseline train F1 = {f1}");
    }
}
