//! # saccs-pairing
//!
//! Aspect ↔ opinion pairing (SACCS Section 5). After the tagger has marked
//! aspect and opinion spans, every aspect must be paired with the opinion
//! that describes it to form subjective tags. This crate implements the
//! paper's full pairing stack:
//!
//! * [`heuristics`] — the two novel unsupervised heuristics of §5.1:
//!   parse-tree distance (run both directions, aspects→opinions and
//!   opinions→aspects) and BERT attention heads (each aspect attends to
//!   its rightful opinion, Figure 5);
//! * [`labeling`] — the seven labeling functions of §5.2 (five attention
//!   heads chosen by a dev-set analysis + the two tree directions), each
//!   mapping a `(sentence, candidate tag)` pair to a binary vote;
//! * [`generative`] — Snorkel's \[48\] two label models: majority vote and
//!   the probabilistic (Dawid-Skene-style EM) model that learns per-LF
//!   accuracies without ground truth;
//! * [`discriminative`] — the supervised two-layer sigmoid classifier
//!   trained on the weakly-labeled data (Figure 6), which "generalizes
//!   beyond the scope of examples fed to the labeling functions";
//! * [`testset`] — the 397-example balanced pairing benchmark mirroring
//!   the one \[31\] built (and §6.4 evaluates on).

/// Supervised pairing classifier over pair features.
pub mod discriminative;
/// Generative label model over noisy labeling functions.
pub mod generative;
/// Tree- and attention-based pairing heuristics.
pub mod heuristics;
/// Labeling functions and attention-head selection.
pub mod labeling;
/// The end-to-end pairing pipeline.
pub mod pipeline;
/// The balanced pairing benchmark set.
pub mod testset;

/// The trained pairing classifier and its frozen inference form.
pub use discriminative::{DiscriminativeConfig, DiscriminativePairer, FrozenPairer};
/// Label aggregation models.
pub use generative::{majority_vote, ProbabilisticModel};
/// Heuristic pairers and their shared sentence context.
pub use heuristics::{
    AttentionHeuristic, PairingHeuristic, SentenceContext, TreeDirection, TreeHeuristic,
};
/// Weak supervision sources.
pub use labeling::{select_attention_heads, LabelingFunction};
/// Pipeline assembly and configuration.
pub use pipeline::{PairingPipeline, PipelineConfig};
/// Benchmark construction.
pub use testset::{build_test_set, PairingExample};
