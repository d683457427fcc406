//! # saccs-core
//!
//! SACCS — the Subjectivity Aware Conversational Search Service of the
//! EDBT 2021 paper, assembled from the substrate crates:
//!
//! * [`extractor`] — the subjective-tag extraction pipeline (tagger §4 +
//!   pairing §5) turning raw utterances and reviews into
//!   [`saccs_text::SubjectiveTag`]s;
//! * [`dialog`] — the rule-based intent recognition and slot filling the
//!   paper assumes the underlying dialog system provides (§3);
//! * [`search_api`] — the objective search API stand-in (the
//!   TripAdvisor/Yelp call of §3.2) over the synthetic entity database;
//! * [`service`] — Algorithm 1: subjective filtering and ranking of the
//!   API results against the tag index, with the §3.3 aggregation
//!   operators (mean / product / min) as an explicit ablation axis;
//! * [`builder`] — one-call construction of a fully trained service from a
//!   corpus (pretrain MiniBert → train tagger → fit pairing → extract tags
//!   from every review → build the index).

/// One-call construction of a trained service from a corpus.
pub mod builder;
/// Multi-turn conversation state over the service.
pub mod conversation;
/// Rule-based NLU: intents and slots for the dialog loop.
pub mod dialog;
/// Tag similarity backed by MiniBert embeddings.
pub mod embedding_similarity;
/// Typed failure taxonomy for the service stages.
pub mod error;
/// The neural tag extractor (tagger + pairing pipeline).
pub mod extractor;
/// Per-user interest profiles accumulated across turns.
pub mod profile;
/// The typed rank request/response surface.
pub mod request;
/// Retry/breaker/deadline primitives and the degradation report.
pub mod resilient;
/// Objective search API stand-in over the entity database.
pub mod search_api;
/// Algorithm 1: subjective filtering and ranking.
pub mod service;

/// Build a fully trained SACCS stack from a corpus.
pub use builder::{SaccsBuilder, TrainedSaccs};
/// Conversation state machine and per-turn outcomes.
pub use conversation::{Conversation, TurnEffect};
/// Rule-based intent/slot analysis of user turns.
pub use dialog::{Intent, RuleNlu, Slots};
/// Embedding-space tag similarity for the index.
pub use embedding_similarity::EmbeddingSimilarity;
/// The typed service failure taxonomy and its stages.
pub use error::{SaccsError, Stage};
/// Utterance to subjective tags, end to end.
pub use extractor::TagExtractor;
/// A user's accumulated subjective interests.
pub use profile::UserProfile;
/// The typed rank request/response surface.
pub use request::{RankInput, RankRequest, RankResponse};
/// Resilient-serving primitives and the degraded-response report.
pub use resilient::{Degradation, DegradationEvent, DegradeAction, ResilienceConfig};
/// The subjective query language, re-exported so request builders can
/// construct filters without a direct `saccs-query` dependency.
pub use saccs_query::{Filter, FilterExpr};
/// The objective (non-subjective) search backend.
pub use search_api::SearchApi;
/// The ranking service and its configuration.
pub use service::{Aggregation, SaccsConfig, SaccsService};
