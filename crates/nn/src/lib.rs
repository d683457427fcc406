//! # saccs-nn
//!
//! The neural-network substrate for the SACCS reproduction: dense `f32`
//! matrices, reverse-mode autograd, the layers used by MiniBert and the
//! BiLSTM-CRF tagger, and SGD/Adam optimizers. This is the stand-in for
//! PyTorch \[42\], which the paper's implementation uses and which has no
//! offline Rust equivalent here (see `DESIGN.md` §1).
//!
//! Highlights:
//! * gradients flow into *input leaves*, not just parameters — the FGSM
//!   adversarial training of §4.3 perturbs the embedding input by
//!   `ε · sign(∇_x ℓ)`, read directly off [`Var::grad`];
//! * [`layers::MultiHeadSelfAttention`] records per-head attention
//!   matrices each forward pass, which the pairing heuristics of §5.1
//!   consume;
//! * everything is seeded and deterministic.

/// Blocked/SIMD matmul kernels and their runtime dispatch.
pub mod kernel;
/// Neural layers: embeddings, LSTMs, attention, norms.
pub mod layers;
/// Dense row-major f32 matrices.
pub mod matrix;
/// SGD and Adam optimizers.
pub mod optim;
/// The SNN1 weight codec.
pub mod serialize;
/// Reverse-mode autograd variables.
pub mod var;

/// Name of the micro-kernel selected for this host.
pub use kernel::kernel_name;
/// Layer building blocks.
pub use layers::{
    BiLstm, Dropout, Embedding, Layer, LayerNorm, Linear, Lstm, MultiHeadSelfAttention,
};
/// The matrix type and numerically stable reductions.
pub use matrix::{log_sum_exp, Matrix};
/// Parameter update rules.
pub use optim::{zero_grads, Adam, Sgd};
/// Weight (de)serialization.
pub use serialize::{decode_state, encode_state, CodecError};
/// A node in the autograd graph.
pub use var::Var;
