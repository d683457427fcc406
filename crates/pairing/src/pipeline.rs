//! The end-to-end data-programming pipeline (Figure 6).
//!
//! ```text
//! unlabeled sentences ──tagger──▶ candidate pairs P_all
//!        │                              │
//!        └──── 7 labeling functions ────┤ votes
//!                                       ▼
//!                        generative model (majority vote
//!                        or probabilistic) → weak labels
//!                                       ▼
//!                        discriminative classifier (§5.2)
//! ```
//!
//! Every stage is a working pairer on its own (the paper evaluates each in
//! Table 5); the pipeline trains them in sequence and exposes the final
//! discriminative model plus the intermediate stages for ablation.

use crate::discriminative::{DiscriminativeConfig, DiscriminativePairer, FrozenPairer};
use crate::generative::{majority_vote, ProbabilisticModel};
use crate::heuristics::SentenceContext;
use crate::labeling::{build_labeling_functions, LabelingFunction};
use crate::testset::PairingExample;
use saccs_data::LabeledSentence;
use saccs_embed::FrozenMiniBert;
use saccs_text::Span;
use std::sync::Arc;

/// Which generative stage produces the weak labels for the discriminative
/// model. The paper: "although the authors of Snorkel state that the
/// probabilistic generative model works better in practice than the
/// majority vote, we found the latter to be more accurate" — so majority
/// vote is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelModel {
    MajorityVote,
    Probabilistic,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    pub label_model: LabelModel,
    pub discriminative: DiscriminativeConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            label_model: LabelModel::MajorityVote,
            discriminative: DiscriminativeConfig::default(),
        }
    }
}

/// The fitted pipeline: its labeling functions, the probabilistic label
/// model, and the trained discriminative classifier, frozen.
pub struct PairingPipeline {
    lfs: Vec<LabelingFunction>,
    probabilistic: ProbabilisticModel,
    pairer: FrozenPairer,
}

/// The full aspect × opinion candidate grid.
fn candidate_grid(aspects: &[Span], opinions: &[Span]) -> Vec<(Span, Span)> {
    let mut out = Vec::with_capacity(aspects.len() * opinions.len());
    for &a in aspects {
        for &o in opinions {
            out.push((a, o));
        }
    }
    out
}

impl PairingPipeline {
    /// Fit the full pipeline: select heads on `dev`, vote over `train`,
    /// aggregate, and train the discriminative model on the weak labels.
    pub fn fit(
        bert: Arc<FrozenMiniBert>,
        train: &[LabeledSentence],
        dev: &[LabeledSentence],
        config: PipelineConfig,
    ) -> Self {
        let _fit = saccs_obs::span!("pairing.fit");
        let lfs = build_labeling_functions(&bert, dev);

        // Vote matrix over every candidate of every training sentence.
        let mut vote_rows: Vec<Vec<bool>> = Vec::new();
        let mut examples: Vec<PairingExample> = Vec::new();
        for s in train {
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
            let candidates = candidate_grid(&aspects, &opinions);
            let per_lf: Vec<Vec<bool>> = lfs
                .iter()
                .map(|lf| lf.label_all(&ctx, &candidates))
                .collect();
            for (ci, &cand) in candidates.iter().enumerate() {
                vote_rows.push(per_lf.iter().map(|v| v[ci]).collect());
                examples.push(PairingExample {
                    tokens: s.tokens.clone(),
                    aspects: aspects.clone(),
                    opinions: opinions.clone(),
                    candidate: cand,
                    label: false, // filled below from the label model
                });
            }
        }
        assert!(
            !vote_rows.is_empty(),
            "no pairing candidates in training data"
        );
        saccs_obs::counter!("pairing.candidates").add(vote_rows.len() as u64);
        if saccs_obs::enabled() {
            // Per-LF diagnostics: how often each labeling function fires,
            // and how often it agrees with the majority vote it feeds.
            for (li, lf) in lfs.iter().enumerate() {
                let fired = vote_rows.iter().filter(|row| row[li]).count();
                let agree = vote_rows
                    .iter()
                    .filter(|row| row[li] == majority_vote(row))
                    .count();
                let n = vote_rows.len() as f64;
                let reg = saccs_obs::registry();
                // lint:allow(metric-name-literal): one series per labeling function — the LF set is static
                reg.gauge(&format!("pairing.lf.{}.fire_rate", lf.name()))
                    .set(fired as f64 / n);
                // lint:allow(metric-name-literal): one series per labeling function — the LF set is static
                reg.gauge(&format!("pairing.lf.{}.agreement", lf.name()))
                    .set(agree as f64 / n);
            }
        }

        let probabilistic = ProbabilisticModel::fit(&vote_rows);
        let weak: Vec<bool> = vote_rows
            .iter()
            .map(|v| match config.label_model {
                LabelModel::MajorityVote => majority_vote(v),
                LabelModel::Probabilistic => probabilistic.predict(v),
            })
            .collect();
        let labeled: Vec<(PairingExample, bool)> = examples.into_iter().zip(weak).collect();
        let pairer = DiscriminativePairer::train(bert, &labeled, &config.discriminative).freeze();

        PairingPipeline {
            lfs,
            probabilistic,
            pairer,
        }
    }

    pub fn labeling_functions(&self) -> &[LabelingFunction] {
        &self.lfs
    }

    pub fn probabilistic_model(&self) -> &ProbabilisticModel {
        &self.probabilistic
    }

    /// The discriminative classifier, frozen: the pipeline's final
    /// decision for a candidate pair.
    pub fn pairer(&self) -> &FrozenPairer {
        &self.pairer
    }

    /// [`PairingPipeline::pairer`], by value.
    pub fn into_pairer(self) -> FrozenPairer {
        self.pairer
    }

    /// Votes of all LFs on one candidate.
    pub fn votes(&self, ctx: &SentenceContext<'_>, candidate: (Span, Span)) -> Vec<bool> {
        self.lfs.iter().map(|lf| lf.label(ctx, candidate)).collect()
    }
}

/// Keep every `(aspect, opinion)` whose probability exceeds 0.5, and
/// pair an aspect no candidate accepted with its best-probability
/// opinion.
pub(crate) fn pair_grid(
    aspects: &[Span],
    opinions: &[Span],
    mut probability: impl FnMut(&Span, &Span) -> f32,
) -> Vec<(Span, Span)> {
    let mut out = Vec::new();
    for &a in aspects {
        let mut best: Option<(f32, Span)> = None;
        for &o in opinions {
            let p = probability(&a, &o);
            if p > 0.5 {
                out.push((a, o));
            }
            if best.is_none_or(|(bp, _)| p > bp) {
                best = Some((p, o));
            }
        }
        if !out.iter().any(|(pa, _)| *pa == a) {
            if let Some((_, o)) = best {
                out.push((a, o));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testset::{build_test_set, evaluate_voter};
    use saccs_data::{Dataset, DatasetId};
    use saccs_embed::{
        build_vocab, general_corpus, train_mlm, MiniBert, MiniBertConfig, MlmConfig,
    };
    use saccs_text::Domain;

    fn bert() -> Arc<FrozenMiniBert> {
        let vocab = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
        let b = MiniBert::new(
            vocab,
            MiniBertConfig {
                dim: 16,
                heads: 2,
                layers: 2,
                max_len: 48,
                seed: 8,
            },
        );
        train_mlm(
            &b,
            &general_corpus(100, 9),
            &MlmConfig {
                epochs: 1,
                ..Default::default()
            },
        );
        Arc::new(b.freeze())
    }

    fn fitted() -> PairingPipeline {
        let b = bert();
        // §6.4: "We train the model with Booking.com dataset for hotels."
        let hotels = Dataset::generate_scaled(DatasetId::S4, 0.15);
        let dev = Dataset::generate_scaled(DatasetId::S1, 0.01);
        PairingPipeline::fit(
            b,
            &hotels.train,
            &dev.train,
            PipelineConfig {
                discriminative: DiscriminativeConfig {
                    epochs: 4,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn pipeline_fits_and_classifies() {
        let p = fitted();
        assert_eq!(p.labeling_functions().len(), 6); // 4 heads + 2 tree at test scale
        let test = build_test_set(80, Domain::Restaurants, 31);
        let conf = evaluate_voter(
            |e| {
                p.pairer()
                    .classify(&e.tokens, &e.candidate.0, &e.candidate.1)
            },
            &test,
        );
        assert!(
            conf.accuracy() > 0.55,
            "weakly-supervised discriminative accuracy {}",
            conf.accuracy()
        );
    }

    #[test]
    fn discriminative_predictions_are_non_degenerate() {
        // At this test's miniature scale the discriminative model cannot
        // be expected to beat the tree LFs (the full-scale comparison is
        // the table5 bench); what must hold even here is that it learned a
        // real decision boundary: both classes predicted, and materially
        // better than chance on at least one of precision/recall.
        let p = fitted();
        let test = build_test_set(120, Domain::Restaurants, 32);
        let disc = evaluate_voter(
            |e| {
                p.pairer()
                    .classify(&e.tokens, &e.candidate.0, &e.candidate.1)
            },
            &test,
        );
        assert!(disc.tp + disc.fp > 0, "never predicts positive");
        assert!(disc.tn + disc.fn_ > 0, "never predicts negative");
        assert!(
            disc.precision() > 0.55 || disc.recall() > 0.55,
            "no better than chance: P={} R={}",
            disc.precision(),
            disc.recall()
        );
    }

    #[test]
    fn pair_spans_covers_every_aspect() {
        let p = fitted();
        let test = build_test_set(30, Domain::Restaurants, 33);
        for e in test.iter().take(10) {
            let pairs = p.pairer().pair_spans(&e.tokens, &e.aspects, &e.opinions);
            for a in &e.aspects {
                assert!(pairs.iter().any(|(pa, _)| pa == a), "aspect left unpaired");
            }
        }
    }

    #[test]
    fn votes_have_one_entry_per_lf() {
        let p = fitted();
        let test = build_test_set(10, Domain::Restaurants, 34);
        let e = &test[0];
        let ctx = SentenceContext {
            tokens: &e.tokens,
            aspects: &e.aspects,
            opinions: &e.opinions,
        };
        assert_eq!(
            p.votes(&ctx, e.candidate).len(),
            p.labeling_functions().len()
        );
    }
}
