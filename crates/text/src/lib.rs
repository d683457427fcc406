//! # saccs-text
//!
//! Text-processing substrate for SACCS (Subjectivity Aware Conversational
//! Search Services, EDBT 2021). The paper relies on NLTK and ad-hoc Python
//! utilities for tokenization and on an unpublished "conceptual similarity"
//! measure (its footnote 2 declares it out of scope). This crate provides
//! concrete, deterministic Rust implementations of everything textual the
//! rest of the system needs:
//!
//! * [`token`] — whitespace/punctuation tokenizer with source offsets,
//! * [`vocab`] — integer vocabularies with the special tokens the neural
//!   stack expects (`[PAD]`, `[UNK]`, `[MASK]`, `[CLS]`),
//! * [`iob`] — the IOB tagging scheme of Section 4 (`B-AS`, `I-AS`, `B-OP`,
//!   `I-OP`, `O`) with span encoding/decoding and validity checks,
//! * [`lexicon`] — the aspect/opinion/synonym/concept lexicons that back
//!   both the synthetic data generator and the similarity checker,
//! * [`similarity`] — the *conceptual similarity* used by the indexer and
//!   the filtering algorithm (Section 3), blending identity, synonymy,
//!   concept subsumption and an optional embedding cosine,
//! * [`metrics`] — plain string metrics (Levenshtein, Jaccard),
//! * [`sentence`] — a rule-based sentence splitter.

/// IOB tags and labeled spans.
pub mod iob;
/// Domain lexicons of aspects and opinions.
pub mod lexicon;
/// Plain string metrics (Levenshtein, Jaccard).
pub mod metrics;
/// Rule-based sentence splitting.
pub mod sentence;
/// Conceptual similarity between subjective tags.
pub mod similarity;
/// Tokenization.
pub mod token;
/// Token vocabularies with special symbols.
pub mod vocab;

/// Sequence-labeling primitives.
pub use iob::{IobTag, Span, SpanKind};
/// Domain vocabulary access.
pub use lexicon::{Domain, Lexicon};
/// Tags and their similarity measures.
pub use similarity::{ConceptualSimilarity, Resolution, ResolvedTag, SubjectiveTag, TagSimilarity};
/// Text to tokens.
pub use token::{tokenize, tokenize_lower, Token};
/// Token-to-id mapping.
pub use vocab::Vocab;
