//! Spans: monotonic timing and RAII exit guards.
//!
//! A span is entered with [`SpanGuard::enter`] (or the
//! [`span!`](crate::span!) macro) and exits when the guard drops. While
//! span timing is on ([`crate::set_enabled`]), the exit records the
//! span's wall duration into the global histogram registered under the
//! span's name. Stage spans (names under
//! [`crate::trace::STAGE_PREFIXES`]) additionally forward enter/exit
//! events — with elapsed nanoseconds — into the thread's current
//! [`TraceContext`](crate::trace::TraceContext), so a traced request
//! keeps timing even with span timing off; trace-only spans skip the
//! registry entirely (the duration rides in the `StageExit` event).
//! With **timing off and no live trace the whole path is one relaxed
//! atomic load and a `None` guard** — no clock read, no allocation, no
//! registry lookup — so instrumented hot paths cost nothing in default
//! builds.

use crate::gate::{gate_load, TIMING_BIT, TRACE_UNIT};
use crate::trace::{self, TraceContext, TraceEvent};
use std::sync::Arc;
use std::time::Instant;

struct ActiveSpan {
    name: &'static str,
    start: Instant,
    /// Span timing was on at enter time.
    timed: bool,
    /// Stage span: the trace context captured at enter time. Exit
    /// records into this same context even if the thread's slot changes
    /// mid-span.
    trace: Option<Arc<TraceContext>>,
}

/// RAII guard for one span; the span exits when this drops.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Enter a span named `name`. Near-free when span timing is off and
    /// no trace is live (returns an inert guard).
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        let gate = gate_load();
        if gate == 0 {
            return SpanGuard { active: None };
        }
        SpanGuard::enter_observed(name, gate)
    }

    fn enter_observed(name: &'static str, gate: u64) -> SpanGuard {
        let timed = gate & TIMING_BIT != 0;
        let trace = if gate >= TRACE_UNIT && trace::is_stage(name) {
            trace::current()
        } else {
            None
        };
        if !timed && trace.is_none() {
            return SpanGuard { active: None };
        }
        if let Some(ctx) = trace.as_deref() {
            ctx.record(TraceEvent::StageEnter { name });
        }
        SpanGuard {
            active: Some(ActiveSpan {
                name,
                start: Instant::now(),
                timed,
                trace,
            }),
        }
    }

    /// Whether this guard is actually timing (span timing was on, or a
    /// trace was live for this stage span, at enter time).
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        let nanos = u64::try_from(span.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if span.timed {
            // The registry lookup waits on the timing switch: a
            // trace-only span already carries its duration in the
            // StageExit event, and skipping the global map keeps
            // recorder overhead low.
            crate::metrics::registry()
                .histogram(span.name)
                .record(nanos);
        }
        if let Some(ctx) = span.trace {
            ctx.record(TraceEvent::StageExit {
                name: span.name,
                nanos,
            });
        }
    }
}

/// Enter a span for the rest of the enclosing scope:
///
/// ```
/// let _span = saccs_obs::span!("algo1.probe");
/// ```
///
/// Bind the guard to a named `_`-prefixed local — a bare `let _ =` would
/// drop (and exit) the span immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::set_enabled;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Span timing is process-global: one test switches it on, which the
    /// others must not see (and whose histograms must not see their
    /// spans), so these tests run one at a time.
    fn timing_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn samples(name: &str) -> u64 {
        crate::metrics::registry().histogram(name).count()
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _serial = timing_lock();
        // Timing off, no trace: inactive guard, no registry sample.
        let g = SpanGuard::enter("noop");
        assert!(!g.is_active());
        drop(g);
        assert_eq!(samples("noop"), 0);
    }

    #[test]
    fn stage_spans_forward_into_the_active_trace_without_an_exporter() {
        let _serial = timing_lock();
        let probe_samples = samples("algo1.probe");
        let ctx = crate::trace::TraceContext::new(11);
        let _scope = crate::trace::install(Arc::clone(&ctx));
        {
            let _stage = span!("algo1.probe");
            // Not a stage prefix: never enters the per-request buffer.
            let _kernel = span!("nn.matmul");
        }
        let normals: Vec<String> = ctx.events().iter().map(TraceEvent::normal).collect();
        assert_eq!(
            normals,
            vec!["stage_enter:algo1.probe", "stage_exit:algo1.probe"]
        );
        // The exit carried a real duration payload.
        assert!(matches!(
            ctx.events()[1],
            TraceEvent::StageExit {
                name: "algo1.probe",
                ..
            }
        ));
        // Trace-only: the duration rode in the event, not the registry.
        assert_eq!(samples("algo1.probe"), probe_samples);
    }

    #[test]
    fn timed_spans_record_histograms_until_timing_is_switched_off() {
        let _serial = timing_lock();
        let before = (samples("outer"), samples("inner"));
        set_enabled(true);
        {
            let outer = span!("outer");
            let inner = span!("inner");
            assert!(outer.is_active() && inner.is_active());
        }
        set_enabled(false);
        let after = (samples("outer"), samples("inner"));
        assert_eq!(after, (before.0 + 1, before.1 + 1));
        // Switched off again: inert guards, no further samples.
        let g = span!("outer");
        assert!(!g.is_active());
        drop(g);
        assert_eq!(samples("outer"), after.0);
    }
}
