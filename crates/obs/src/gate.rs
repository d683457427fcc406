//! The global observability gate: one process-wide span-timing switch
//! and the live trace-context count, packed into one word.
//!
//! The gate is a single relaxed [`AtomicU64`](std::sync::atomic::AtomicU64)
//! packing two facts: bit 0 says span timing is on, and every
//! `TRACE_UNIT` above it counts one live
//! [`TraceContext`](crate::trace::TraceContext). Span enters and call
//! sites that want to skip expensive measurement (gradient norms,
//! per-candidate stats) consult the word with one relaxed load: zero
//! means nothing in the process can observe the event, so everything
//! downstream is skipped. Timing is switched on at process start (bench
//! bins read `SACCS_OBS`) or inside a single test.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bit 0 of [`GATE`]: span timing is on.
pub(crate) const TIMING_BIT: u64 = 1;
/// One live `TraceContext` in [`GATE`] (the count lives above bit 0).
pub(crate) const TRACE_UNIT: u64 = 2;

static GATE: AtomicU64 = AtomicU64::new(0);

/// The raw gate word: zero exactly when span timing is off and no
/// trace context is alive anywhere in the process.
#[inline]
pub(crate) fn gate_load() -> u64 {
    GATE.load(Ordering::Relaxed)
}

/// Whether span timing is on. The disabled-path cost of every span and
/// gated measurement in the workspace is exactly this relaxed load.
#[inline]
pub fn enabled() -> bool {
    gate_load() & TIMING_BIT != 0
}

/// Turn span timing on or off process-wide. While it is on, every span
/// exit records its duration into the registry histogram named after
/// the span, and [`enabled`]-gated measurements run. Live trace
/// contexts keep their own gate units either way.
pub fn set_enabled(on: bool) {
    if on {
        GATE.fetch_or(TIMING_BIT, Ordering::Release);
    } else {
        GATE.fetch_and(!TIMING_BIT, Ordering::Release);
    }
}

/// Whether any `TraceContext` is alive in the process. One relaxed load;
/// typed trace events short-circuit on this before touching the
/// thread-local current-context slot.
#[inline]
pub(crate) fn tracing_possible() -> bool {
    gate_load() >= TRACE_UNIT
}

/// A `TraceContext` came alive (called from its constructor).
pub(crate) fn gate_trace_inc() {
    GATE.fetch_add(TRACE_UNIT, Ordering::AcqRel);
}

/// A `TraceContext` was dropped.
pub(crate) fn gate_trace_dec() {
    GATE.fetch_sub(TRACE_UNIT, Ordering::AcqRel);
}
