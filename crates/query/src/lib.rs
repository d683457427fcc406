//! # saccs-query
//!
//! The subjective query language: compose degree-of-truth predicates
//! over index tags with objective catalog constraints, under
//! `AND`/`OR`/`NOT`, and compile the result against a pinned index
//! snapshot into an entity bitmap a ranking pass can intersect with.
//!
//! The paper ranks the tags of a single utterance; Subjective Databases
//! (Li et al., Megagon Labs; PAPERS.md) motivates the compositional form
//! this crate adds — "clean rooms AND quiet, NOT expensive, rating > 4".
//! Three layers:
//!
//! * [`ast`] — the typed [`Filter`] / [`FilterExpr`] tree and its
//!   validation seam (depth/leaf bounds, θ and literal ranges),
//! * [`parse`] — the tiny text DSL
//!   (`"delicious AND (quiet OR romantic) AND NOT expensive, price<=2"`),
//!   with byte-offset error spans,
//! * [`plan`] + [`bitmap`] — compilation to entity bitmaps: posting
//!   streams with θ folded into iteration, word-wise boolean
//!   combinators, and a cost-based planner that intersects rarest-first
//!   on per-tag posting-length statistics, with objective predicates
//!   folded into the same plan (never post-filtered).
//!
//! `saccs-core` surfaces all of this as `RankRequest::with_filter`, the
//! one front door: the serve path, resilience ladder, tracing and live
//! pinned snapshots get it without any new entry point. The planner is
//! deterministic — identical plans and bitwise-identical results at any
//! serve width, across interleaved ingestion states —
//! and [`plan::naive_matches`] is the reference evaluator the property
//! tests hold it to.

/// The typed filter AST and validation.
pub mod ast;
/// Entity-id bitmaps and their boolean combinators.
pub mod bitmap;
/// The text DSL parser.
pub mod parse;
/// Compilation, cost-based planning, and the naive reference evaluator.
pub mod plan;

/// The filter value a `RankRequest` carries.
pub use ast::{CmpOp, Filter, FilterExpr, ObjectivePred, QueryError};
/// Bitmap type for compiled predicate streams.
pub use bitmap::EntityBitmap;
/// Compilation entry points and the catalog trait the core implements.
pub use plan::{compile, naive_matches, CompiledFilter, JoinOrder, ObjectiveCatalog, PlanSummary};
