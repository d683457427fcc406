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
//! * parallel construction over index tags (the `saccs-rt` pool),
//! * serde snapshots.
//!
//! The index is deliberately decoupled from the neural extractor: callers
//! feed it per-entity bags of already-extracted [`SubjectiveTag`]s (the
//! extractor lives in `saccs-core`), so this crate stays a pure data
//! structure with no model dependencies.

/// Deterministic candidate index for the fallback probe.
pub mod ann;
/// Aho-Corasick-style tag automaton for fast mention scans.
pub mod automaton;
/// Zigzag/varint byte codec for segment persistence.
pub mod codec;
/// The user tag history feeding re-indexing rounds.
pub mod history;
/// The subjective index: Equation 1 degrees of truth.
pub mod index;
/// Live ingestion: snapshot-isolated readers over a segmented index.
pub mod live;
/// Fraud-aware evidence filtering.
pub mod robust;
/// Mem/sealed segments, merge, and the on-disk segment store.
pub mod segment;

/// The resolution-cell candidate index and its probe results.
pub use ann::{CandidateSet, ScoredCandidates, SemanticCandidateIndex};
/// Multi-tag mention scanning.
pub use automaton::TagAutomaton;
/// Unknown tags users asked about.
pub use history::UserTagHistory;
/// The index and its tuning knobs.
pub use index::{DegreeFormula, IndexConfig, IndexEntry, SubjectiveIndex};
/// Live-ingestion handle, its tuning knobs, pinned snapshots, receipts.
pub use live::{IngestReceipt, LiveConfig, LiveIndex, LiveSnapshot};
/// Evidence construction with fraud filtering.
pub use robust::{naive_evidence, FraudFilter, ReviewProfile};
/// Re-exported tag type used throughout the index API.
pub use saccs_text::SubjectiveTag;
/// Segment types, the seq-ordered merge, and the on-disk store.
pub use segment::{
    merge_segments, LoadedStore, Manifest, MemSegment, ReviewRecord, SealedSegment, SegmentStore,
    StoreError,
};
