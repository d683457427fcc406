//! # saccs
//!
//! Facade crate for the Rust reproduction of **"Subjectivity Aware
//! Conversational Search Services"** (Gaci, Ramírez, Benatallah, Casati,
//! Benabdslem — EDBT 2021). Re-exports every subsystem crate; see
//! `README.md` for the architecture and `DESIGN.md` for the full system
//! inventory and paper ↔ module mapping.
//!
//! Quick start:
//!
//! ```no_run
//! use saccs::core::{RankRequest, SaccsBuilder, SearchApi};
//! use saccs::data::yelp::{YelpConfig, YelpCorpus};
//! use saccs::text::{Domain, Lexicon};
//!
//! let corpus = YelpCorpus::generate(
//!     Lexicon::new(Domain::Restaurants),
//!     &YelpConfig { n_entities: 20, n_reviews: 200, ..Default::default() },
//! );
//! let saccs = SaccsBuilder::quick().build(&corpus);
//! let api = SearchApi::new(&corpus.entities);
//! let request =
//!     RankRequest::utterance("I want a restaurant with delicious food and a nice staff");
//! let response = saccs.service.rank_request(&request, &api);
//! for (entity, score) in response.results.iter().take(5) {
//!     println!("{} ({score:.2})", corpus.entities[*entity].name);
//! }
//! ```

/// Service assembly: Algorithm 1, the builder and dialog glue.
pub use saccs_core as core;
/// Synthetic corpora with known ground truth (S1-S4, Yelp-style entities, crowd sim).
pub use saccs_data as data;
/// MiniBert encoder, masked-LM pretraining and domain post-training.
pub use saccs_embed as embed;
/// Evaluation metrics: NDCG, bootstrap CIs, rank correlation, span/pair F1.
pub use saccs_eval as eval;
/// Deterministic fault injection: failpoints, schedules, backoff, breakers.
pub use saccs_fault as fault;
/// The subjective tag index (Equation 1) with dynamic re-indexing.
pub use saccs_index as index;
/// Classical IR baselines: BM25, similarity ranking, attribute-filter oracle.
pub use saccs_ir as ir;
/// Reverse-mode autograd, matrices, layers and optimizers.
pub use saccs_nn as nn;
/// Zero-dependency tracing spans, metrics registry and request traces.
pub use saccs_obs as obs;
/// Aspect-opinion pairing: heuristics, labeling functions and classifiers.
pub use saccs_pairing as pairing;
/// Heuristic dependency-ish parsing for the tree pairing heuristic.
pub use saccs_parse as parse;
/// Subjective query language: typed AST, DSL, bitmap planner.
pub use saccs_query as query;
/// Work-stealing pool and the sanctioned dedicated-thread escape hatch.
pub use saccs_rt as rt;
/// Multi-worker serving front end: bounded admission, shedding, one job per worker tick.
pub use saccs_serve as serve;
/// Sequence tagger (BiLSTM/MiniBert + CRF) for subjective-tag extraction.
pub use saccs_tagger as tagger;
/// Tags, lexicons, tokenization and conceptual similarity.
pub use saccs_text as text;
