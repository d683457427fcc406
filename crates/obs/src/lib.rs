//! `saccs-obs` — zero-dependency tracing + metrics for the SACCS
//! pipeline (stdlib + vendored `parking_lot` only).
//!
//! Three pieces:
//!
//! 1. **Spans** ([`span!`], [`SpanGuard`]): RAII-timed regions. While
//!    span timing is on ([`set_enabled`]), each exit records its wall
//!    duration (nanoseconds) into a global histogram named after the
//!    span. The serving path is instrumented per Algorithm-1 stage
//!    (`algo1.search_api`, `algo1.extract`, `algo1.probe`,
//!    `algo1.aggregate`, `algo1.pad`), the training path per epoch.
//! 2. **Metrics** ([`registry`], [`counter!`]): process-global counters,
//!    gauges and log-bucketed histograms with p50/p95/p99 readout.
//!    Counters are always on (one relaxed atomic add); expensive
//!    measurements (grad norms, per-LF stats) gate on [`enabled`].
//!    Bench bins switch timing on under `SACCS_OBS=json` and dump the
//!    registry as `BENCH_<bin>.json` through [`json::bench_snapshot`].
//! 3. **Request traces** ([`trace`]): a per-request
//!    [`TraceContext`] with a deterministic u64 id
//!    and a bounded buffer of typed [`TraceEvent`]s
//!    (stage enter/exit, probe hit-vs-fallback, retry/breaker/deadline/
//!    degradation, admission/shed, queue wait). Stage spans feed it
//!    whether or not timing is on. Contexts are installed
//!    per thread, propagated across `saccs-rt` spawn seams, and folded
//!    into a deterministic [`ObsReport`] by the
//!    `saccs-serve` flight recorder.
//!
//! **Zero-cost guarantee**: with span timing off *and no live trace
//! context*, a `span!` or trace-event record is one relaxed
//! atomic load (a single packed gate word) returning inert — no clock
//! read, no allocation, no lock — and [`enabled`]-gated measurement is
//! skipped entirely, so default builds pay only stray counter
//! increments.

/// The packed observability gate: the span-timing switch and the live
/// trace-context count.
mod gate;
/// Minimal JSON serialization for `BENCH_<bin>.json` snapshots.
pub mod json;
/// Counters, gauges, log-bucketed histograms and the global registry.
pub mod metrics;
/// Flight-recorder report schema and deterministic JSON rendering.
pub mod report;
/// Span guards and the `span!` macro.
pub mod span;
/// Request-scoped trace contexts and typed trace events.
pub mod trace;

/// Whether span timing is on (the gate for expensive metrics).
pub use gate::enabled;
/// Turn span timing (and the span-duration histograms) on or off.
pub use gate::set_enabled;
/// The global name → instrument registry.
pub use metrics::registry;
/// Monotonic event counter.
pub use metrics::Counter;
/// Last-write-wins `f64` measurement.
pub use metrics::Gauge;
/// Log-bucketed `u64` histogram with quantile readout.
pub use metrics::Histogram;
/// Point-in-time histogram readout (count/sum/min/max/p50/p95/p99).
pub use metrics::HistogramSnapshot;
/// Deterministic flight-recorder report.
pub use report::ObsReport;
/// One completed request trace inside an [`ObsReport`].
pub use report::TraceRecord;
/// RAII span guard returned by [`span!`].
pub use span::SpanGuard;
/// Per-request trace context (deterministic id + bounded event buffer).
pub use trace::TraceContext;
/// Typed per-request trace event.
pub use trace::TraceEvent;
