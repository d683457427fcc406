//! # saccs-embed
//!
//! **MiniBert** — the from-scratch stand-in for BERT \[7\] and for the
//! domain-post-trained BERT of Xu et al. \[58\] that the paper builds on.
//!
//! The paper uses BERT for three things, all of which MiniBert provides:
//!
//! 1. **Contextual embeddings** feeding the BiLSTM-CRF tagger (§4.1,
//!    Figure 3) — [`FrozenMiniBert::features`] (from [`MiniBert::freeze`],
//!    once training ends), which every tagger, pairer and evaluation
//!    reads; [`MiniBert::encode`] is the training forward;
//! 2. **Domain adaptation** (§4.2): BERT post-trained on restaurant
//!    reviews understands "la carte" and "a killer" — reproduced by
//!    [`pretrain::train_mlm`] on a general mixed-domain corpus followed by
//!    a second `train_mlm` pass on in-domain text (masked-LM objective in
//!    both phases);
//! 3. **Attention heads as pairing classifiers** (§5.1, Figure 5) —
//!    [`FrozenMiniBert::attention`] computes every head's attention
//!    matrix at one layer, with the code its forward attends with.
//!
//! Scale substitution (documented in `DESIGN.md`): BERT-base is 12 layers
//! × 12 heads × 768 dims trained on Wikipedia; MiniBert defaults to
//! 3 layers × 4 heads × 32 dims trained on the synthetic corpora. The
//! mechanisms the paper measures — domain-vocabulary coverage, attention
//! structure, embedding-space adversarial perturbations — are preserved;
//! absolute quality is not (and Table 4/5 shapes, not absolute numbers,
//! are the reproduction target).

/// The MiniBert transformer encoder.
pub mod model;
/// Masked-LM pretraining, domain post-training and fine-tuning.
pub mod pretrain;

/// The encoder and its hyperparameters.
pub use model::{FrozenMiniBert, MiniBert, MiniBertConfig};
/// Pretraining entry points.
pub use pretrain::{build_vocab, eval_mlm, finetune_tagging, general_corpus, train_mlm, MlmConfig};
