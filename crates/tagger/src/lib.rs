//! # saccs-tagger
//!
//! The aspect/opinion sequence tagger of SACCS Section 4: MiniBert
//! contextual embeddings → BiLSTM → linear-chain CRF (Figure 3), trained
//! optionally with FGSM adversarial examples at the embedding layer
//! (Figure 4, Equations 6–9). The OpineDB baseline head (per-token softmax
//! over BERT embeddings, \[31\]) is included for Table 4's comparison.
//!
//! * [`crf`] — exact linear-chain CRF with IOB structural constraints,
//!   forward–backward gradients, Viterbi and beam decoding;
//! * [`model`] — the two head architectures, and their frozen
//!   (tape-free, `Send + Sync`) inference form;
//! * [`train`] — training loops (clean and adversarial), span extraction
//!   and span-F1 evaluation.

/// Linear-chain CRF with Viterbi and beam decoding.
pub mod crf;
/// Tagger architectures (BiLSTM / MiniBert encoders).
pub mod model;
/// Training loops, clean and adversarial.
pub mod train;

/// The structured decoding layer.
pub use crf::{Crf, FrozenCrf};
/// Model assembly.
pub use model::{Architecture, FrozenTaggerModel, TaggerModel};
/// The trainable tagger and its frozen inference form.
pub use train::{Adversarial, FrozenTagger, Tagger, TrainConfig};
