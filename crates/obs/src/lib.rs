//! `saccs-obs` — zero-dependency tracing + metrics for the SACCS
//! pipeline (stdlib + vendored `parking_lot` only).
//!
//! Three pieces:
//!
//! 1. **Spans** ([`span!`], [`SpanGuard`]): hierarchical RAII-timed
//!    regions. Each exit records its wall duration (nanoseconds) into a
//!    global histogram named after the span, and notifies the installed
//!    exporter. The serving path is instrumented per Algorithm-1 stage
//!    (`algo1.search_api`, `algo1.extract`, `algo1.probe`,
//!    `algo1.aggregate`, `algo1.pad`), the training path per epoch.
//! 2. **Metrics** ([`registry`], [`counter!`]): process-global counters,
//!    gauges and log-bucketed histograms with p50/p95/p99 readout.
//!    Counters are always on (one relaxed atomic add); expensive
//!    measurements (grad norms, per-LF stats) gate on [`enabled`].
//! 3. **Exporters** ([`install`]): a human-readable stderr tree
//!    ([`StderrTree`]) and an in-memory collector for tests
//!    ([`InMemoryCollector`]). Bench bins select their exporter via the
//!    `SACCS_OBS` env var and dump the registry as `BENCH_<bin>.json`
//!    through [`json::bench_snapshot`].
//! 4. **Request traces** ([`trace`]): a per-request
//!    [`TraceContext`] with a deterministic u64 id
//!    and a bounded buffer of typed [`TraceEvent`]s
//!    (stage enter/exit, probe hit-vs-fallback, retry/breaker/deadline/
//!    degradation, admission/shed, queue wait). Contexts are installed
//!    per thread, propagated across `saccs-rt` spawn seams, and folded
//!    into a deterministic [`ObsReport`] by the
//!    `saccs-serve` flight recorder.
//!
//! **Zero-cost guarantee**: with no exporter installed *and no live
//! trace context*, a `span!` or trace-event record is one relaxed
//! atomic load (a single packed gate word) returning inert — no clock
//! read, no allocation, no lock — and [`enabled`]-gated measurement is
//! skipped entirely, so default builds pay only stray counter
//! increments.

/// Exporter trait, the packed observability gate, and the two
/// built-in exporters.
pub mod export;
/// Minimal JSON serialization for `BENCH_<bin>.json` snapshots.
pub mod json;
/// Counters, gauges, log-bucketed histograms and the global registry.
pub mod metrics;
/// Flight-recorder report schema and deterministic JSON rendering.
pub mod report;
/// Span guards, thread-local depth and the `span!` macro.
pub mod span;
/// Request-scoped trace contexts and typed trace events.
pub mod trace;

/// Whether an exporter is installed (the gate for expensive metrics).
pub use export::enabled;
/// Flush the installed exporter's buffered output.
pub use export::flush;
/// Install a process-wide exporter and enable span timing.
pub use export::install;
/// Remove the installed exporter and return spans to the inert path.
pub use export::uninstall;
/// The exporter callback trait.
pub use export::Exporter;
/// Test exporter recording every span event in order.
pub use export::InMemoryCollector;
/// A recorded span enter/exit event.
pub use export::SpanEvent;
/// Human-readable indented span tree on stderr.
pub use export::StderrTree;
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
