//! # saccs-index
//!
//! The subjective-tag inverted index of SACCS Section 3: each subjective
//! tag maps to the entities whose reviews mention it, each with a *degree
//! of truth* (Equation 1). The index supports
//!
//! * exact probes (§3.2 "Probing the index"),
//! * similarity fallback for unknown tags — the union of mappings of
//!   similar index tags, scores scaled by similarity (the `delicious food`
//!   example of §3.2),
//! * a user tag history feeding dynamic re-indexing rounds (§3.1,
//!   Figure 1), which is how SACCS "adapts to new user needs",
//! * one writer, [`LiveIndex`]: reviews in through `add_review`, index
//!   tags through `add_tags` (parallel over tags on the `saccs-rt`
//!   pool), read-only [`SubjectiveIndex`] snapshots out, optionally over
//!   checksummed, manifest-committed segments.
//!
//! The index is deliberately decoupled from the neural extractor: callers
//! feed it each review's already-extracted [`SubjectiveTag`]s (the
//! extractor lives in `saccs-core`), so this crate stays a pure data
//! structure with no model dependencies.

/// The resolved tag set and its candidate cells for the fallback probe.
pub mod ann;
/// Varint byte codec for the store's file images.
pub mod codec;
/// Posting columns by entity slot, and the fallback probe's dense fold.
mod column;
/// The user tag history feeding re-indexing rounds.
pub mod history;
/// The subjective index: Equation 1 degrees of truth.
pub mod index;
/// Live ingestion: snapshot-isolated readers over a segmented index.
pub mod live;
/// Fraud-aware review filtering.
pub mod robust;
/// Segments, merge, and the on-disk segment store.
pub mod segment;

/// The resolution-cell candidate index and its probe results.
pub use ann::{ScoredCandidates, SemanticCandidateIndex};
/// One index tag's postings, read in place.
pub use column::Postings;
/// Unknown tags users asked about.
pub use history::UserTagHistory;
/// The index and its tuning knobs.
pub use index::{DegreeFormula, IndexConfig, SubjectiveIndex};
/// Live-ingestion handle, its tuning knobs, pinned snapshots, receipts.
pub use live::{IngestReceipt, LiveConfig, LiveIndex, LiveSnapshot};
/// Fraud filtering of per-review tag profiles.
pub use robust::{FraudFilter, ReviewProfile};
/// Re-exported tag type used throughout the index API.
pub use saccs_text::SubjectiveTag;
/// Review records, sealed segments, the seq-ordered merge, and store
/// errors.
pub use segment::{merge_segments, ReviewRecord, SealedSegment, StoreError};
