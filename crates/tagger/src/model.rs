//! Tagger architectures.
//!
//! Two heads over frozen MiniBert features:
//!
//! * [`Architecture::TokenSoftmax`] — the OpineDB baseline \[31\]: "BERT
//!   sentence embeddings with a standard classifier that classifies each
//!   word … into either Aspect, Opinion or Other" (per-token softmax, no
//!   sequence structure);
//! * [`Architecture::BiLstmCrf`] — SACCS's tagger (Figure 3): BERT →
//!   BiLSTM → linear-chain CRF.

use crate::crf::{Crf, FrozenCrf};
use rand::rngs::StdRng;
use saccs_nn::layers::{BiLstm, Dropout, FrozenBiLstm, FrozenLinear, Layer, Linear};
use saccs_nn::{Matrix, Var};
use saccs_text::IobTag;

/// Which head sits on the embeddings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// OpineDB-style independent per-token classification.
    TokenSoftmax,
    /// The paper's BiLSTM + CRF stack.
    BiLstmCrf,
}

/// The layers between the features and the projection, with the
/// decoder that reads the emissions.
enum Head<L, B, C> {
    /// Hidden layer of the OpineDB-style per-token MLP ("a standard
    /// classifier"; the encoder is frozen here, so the classifier gets
    /// one nonlinearity of its own), decoded by per-token argmax.
    TokenSoftmax(L),
    BiLstmCrf(B, C),
}

/// A tagger head; input is a `T×input_dim` feature matrix (MiniBert
/// output), output a `T`-length IOB tag sequence.
pub struct TaggerModel {
    head: Head<Linear, BiLstm, Crf>,
    proj: Linear,
    dropout: Dropout,
}

impl TaggerModel {
    pub fn new(
        arch: Architecture,
        input_dim: usize,
        hidden: usize,
        dropout_p: f32,
        rng: &mut StdRng,
    ) -> Self {
        let (head, proj) = match arch {
            Architecture::TokenSoftmax => {
                let mlp = Linear::new(input_dim, 2 * hidden, rng);
                let proj = Linear::new(2 * hidden, IobTag::COUNT, rng);
                (Head::TokenSoftmax(mlp), proj)
            }
            Architecture::BiLstmCrf => {
                let bilstm = BiLstm::new(input_dim, hidden, rng);
                let proj = Linear::new(2 * hidden, IobTag::COUNT, rng);
                (Head::BiLstmCrf(bilstm, Crf::new(rng)), proj)
            }
        };
        TaggerModel {
            head,
            proj,
            dropout: Dropout::new(dropout_p),
        }
    }

    /// Per-token emission scores (`T×5`).
    pub fn emissions(&self, features: &Var, train: bool, rng: &mut StdRng) -> Var {
        let x = self.dropout.forward(features, train, rng);
        let x = match &self.head {
            Head::BiLstmCrf(bi, _) => bi.forward(&x),
            Head::TokenSoftmax(h) => h.forward(&x).relu(),
        };
        self.proj.forward(&x)
    }

    /// Training loss for one sentence: CRF NLL for the full model,
    /// cross-entropy for the OpineDB baseline.
    pub fn loss(&self, features: &Var, targets: &[IobTag], train: bool, rng: &mut StdRng) -> Var {
        let em = self.emissions(features, train, rng);
        match &self.head {
            Head::BiLstmCrf(_, crf) => crf.nll(&em, targets),
            Head::TokenSoftmax(_) => {
                let idx: Vec<usize> = targets.iter().map(|t| t.index()).collect();
                em.cross_entropy(&idx)
            }
        }
    }

    /// The trained head frozen for inference (see [`FrozenTaggerModel`]).
    pub fn freeze(&self) -> FrozenTaggerModel {
        let head = match &self.head {
            Head::BiLstmCrf(bi, crf) => Head::BiLstmCrf(bi.freeze(), crf.freeze()),
            Head::TokenSoftmax(h) => Head::TokenSoftmax(h.freeze()),
        };
        FrozenTaggerModel {
            head,
            proj: self.proj.freeze(),
        }
    }

    pub fn params(&self) -> Vec<Var> {
        match &self.head {
            Head::BiLstmCrf(bi, crf) => [bi.params(), self.proj.params(), crf.params()].concat(),
            Head::TokenSoftmax(h) => [h.params(), self.proj.params()].concat(),
        }
    }
}

/// Independent per-token argmax (the OpineDB head); downstream span
/// decoding applies the lenient IOB repair, matching how \[31\]
/// consumes it.
fn argmax_tags(em: &Matrix) -> Vec<IobTag> {
    (0..em.rows())
        .map(|t| {
            let row = em.row(t);
            let best = (0..IobTag::COUNT)
                .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                // lint:allow(no-unwrap-in-lib): IobTag::COUNT >= 1
                .expect("at least one IOB label");
            IobTag::from_index(best)
        })
        .collect()
}

/// A [`TaggerModel`] frozen for inference: its emissions equal the
/// eval-mode taped ones bit for bit.
pub struct FrozenTaggerModel {
    head: Head<FrozenLinear, FrozenBiLstm, FrozenCrf>,
    proj: FrozenLinear,
}

impl FrozenTaggerModel {
    /// Per-token emission scores (`T×5`).
    pub fn emissions(&self, features: &Matrix) -> Matrix {
        let _span = saccs_obs::span!("extract.emit");
        let x = match &self.head {
            Head::BiLstmCrf(bi, _) => bi.forward(features),
            Head::TokenSoftmax(h) => h.forward(features).relu(),
        };
        self.proj.forward(&x)
    }

    /// Decode a tag sequence for a feature matrix.
    pub fn predict(&self, features: &Matrix) -> Vec<IobTag> {
        if features.rows() == 0 {
            return Vec::new();
        }
        self.decode(&self.emissions(features))
    }

    /// Decode a tag sequence from emission scores: CRF Viterbi for the
    /// full model, per-token argmax for the OpineDB baseline.
    pub fn decode(&self, emissions: &Matrix) -> Vec<IobTag> {
        match &self.head {
            Head::BiLstmCrf(_, crf) => {
                let _span = saccs_obs::span!("extract.viterbi");
                crf.viterbi(emissions)
            }
            Head::TokenSoftmax(_) => argmax_tags(emissions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use saccs_text::iob::is_valid_sequence;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn both_architectures_predict_full_length() {
        let mut r = rng();
        for arch in [Architecture::TokenSoftmax, Architecture::BiLstmCrf] {
            let m = TaggerModel::new(arch, 8, 6, 0.1, &mut r);
            let f = Matrix::uniform(7, 8, 1.0, &mut r);
            let tags = m.freeze().predict(&f);
            assert_eq!(tags.len(), 7);
            if arch == Architecture::BiLstmCrf {
                assert!(is_valid_sequence(&tags), "CRF must emit valid IOB");
            }
        }
    }

    #[test]
    fn loss_is_scalar_and_differentiable_to_input() {
        let mut r = rng();
        for arch in [Architecture::TokenSoftmax, Architecture::BiLstmCrf] {
            let m = TaggerModel::new(arch, 8, 6, 0.0, &mut r);
            let leaf = Var::leaf(Matrix::uniform(4, 8, 1.0, &mut r));
            let targets = vec![IobTag::O, IobTag::BAs, IobTag::O, IobTag::BOp];
            let loss = m.loss(&leaf, &targets, true, &mut r);
            assert_eq!(loss.shape(), (1, 1));
            loss.backward();
            assert!(
                leaf.grad().max_abs() > 0.0,
                "{arch:?}: no input gradient — FGSM would be impossible"
            );
            for p in m.params() {
                assert!(p.grad().max_abs() >= 0.0);
            }
        }
    }

    #[test]
    fn overfits_one_sentence() {
        let mut r = rng();
        let m = TaggerModel::new(Architecture::BiLstmCrf, 6, 5, 0.0, &mut r);
        let f = Matrix::uniform(5, 6, 1.0, &mut r);
        let targets = vec![IobTag::O, IobTag::BAs, IobTag::IAs, IobTag::O, IobTag::BOp];
        let params = m.params();
        let mut opt = saccs_nn::Adam::new(0.02);
        for _ in 0..250 {
            saccs_nn::zero_grads(&params);
            m.loss(&Var::leaf(f.clone()), &targets, true, &mut r)
                .backward();
            opt.step(&params);
        }
        assert_eq!(m.freeze().predict(&f), targets);
    }

    fn bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
        let (r, c) = m.shape();
        (r, c, m.data().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn frozen_heads_match_taped_bitwise() {
        let mut r = rng();
        // The quick() and paper() encoder widths under the trainer's
        // hidden width of 24; 1 token, a typical sentence, and the
        // max_len − 1 = 47 rows of a truncated one.
        for input_dim in [24, 48] {
            for arch in [Architecture::BiLstmCrf, Architecture::TokenSoftmax] {
                let m = TaggerModel::new(arch, input_dim, 24, 0.1, &mut r);
                for p in m.params() {
                    let (rows, cols) = p.shape();
                    p.set_value(Matrix::uniform(rows, cols, 1.0, &mut r));
                }
                let frozen = m.freeze();
                for t_len in [1, 12, 47] {
                    let f = Matrix::uniform(t_len, input_dim, 1.0, &mut r);
                    let taped = m.emissions(&Var::leaf(f.clone()), false, &mut r);
                    assert_eq!(
                        bits(&frozen.emissions(&f)),
                        bits(&taped.value()),
                        "{arch:?}, dim {input_dim}, {t_len} tokens"
                    );
                    assert_eq!(frozen.predict(&f), frozen.decode(&taped.value()));
                }
            }
        }
    }

    #[test]
    fn empty_input_predicts_empty() {
        let mut r = rng();
        let m = TaggerModel::new(Architecture::BiLstmCrf, 4, 3, 0.0, &mut r);
        assert!(m.freeze().predict(&Matrix::zeros(0, 4)).is_empty());
    }
}
