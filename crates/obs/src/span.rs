//! Hierarchical spans: thread-local depth tracking, monotonic timing and
//! RAII exit guards.
//!
//! A span is entered with [`SpanGuard::enter`] (or the
//! [`span!`](crate::span!) macro) and exits when the guard drops. While an
//! exporter is installed ([`crate::install`]), entering pushes the
//! thread-local depth, notifies the exporter, and the exit records the
//! span's wall duration both to the exporter and to the global histogram
//! registered under the span's name. Stage spans (names under
//! [`crate::trace::STAGE_PREFIXES`]) additionally forward enter/exit
//! events — with elapsed nanoseconds — into the thread's current
//! [`TraceContext`](crate::trace::TraceContext), so a traced request
//! keeps timing even when no exporter is installed; trace-only spans
//! skip the registry entirely (the duration rides in the `StageExit`
//! event). With **no exporter installed and no live trace the whole
//! path is one relaxed atomic load and a `None` guard** — no clock
//! read, no allocation, no registry lookup — so instrumented hot paths
//! cost nothing in default builds.

use crate::export::{gate_load, with_exporter, EXPORTER_BIT, TRACE_UNIT};
use crate::trace::{self, TraceContext, TraceEvent};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Depth of the innermost active span on this thread (0 = top level).
pub fn current_depth() -> usize {
    DEPTH.with(Cell::get)
}

struct ActiveSpan {
    name: &'static str,
    start: Instant,
    depth: usize,
    /// An exporter was installed at enter time.
    exported: bool,
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
    /// Enter a span named `name`. Near-free when no exporter is
    /// installed and no trace is live (returns an inert guard).
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        let gate = gate_load();
        if gate == 0 {
            return SpanGuard { active: None };
        }
        SpanGuard::enter_observed(name, gate)
    }

    fn enter_observed(name: &'static str, gate: u64) -> SpanGuard {
        let exported = gate & EXPORTER_BIT != 0;
        let trace = if gate >= TRACE_UNIT && trace::is_stage(name) {
            trace::current()
        } else {
            None
        };
        if !exported && trace.is_none() {
            return SpanGuard { active: None };
        }
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        if exported {
            with_exporter(|e| e.span_enter(name, depth));
        }
        if let Some(ctx) = trace.as_deref() {
            ctx.record(TraceEvent::StageEnter { name });
        }
        SpanGuard {
            active: Some(ActiveSpan {
                name,
                start: Instant::now(),
                depth,
                exported,
                trace,
            }),
        }
    }

    /// Whether this guard is actually timing (an exporter was installed
    /// at enter time).
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
        DEPTH.with(|d| d.set(span.depth));
        if span.exported {
            // The registry lookup is exporter-only: a trace-only span
            // already carries its duration in the StageExit event, and
            // skipping the global map keeps recorder overhead low.
            crate::metrics::registry()
                .histogram(span.name)
                .record(nanos);
            with_exporter(|e| e.span_exit(span.name, span.depth, nanos));
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
    use crate::export::{install, uninstall, InMemoryCollector, SpanEvent};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

    /// The exporter slot is process-global: one test installs an
    /// exporter that the others must not see (and whose collector must
    /// not see their spans), so these tests run one at a time.
    fn exporter_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _serial = exporter_lock();
        // No exporter installed: no depth tracking, inactive guard.
        let g = SpanGuard::enter("noop");
        assert!(!g.is_active());
        assert_eq!(current_depth(), 0);
    }

    #[test]
    fn stage_spans_forward_into_the_active_trace_without_an_exporter() {
        let _serial = exporter_lock();
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
    }

    #[test]
    fn nesting_tracks_depth_and_restores_it() {
        let _serial = exporter_lock();
        let collector = Arc::new(InMemoryCollector::new());
        install(collector.clone());
        {
            let _outer = span!("outer");
            assert_eq!(current_depth(), 1);
            {
                let _inner = span!("inner");
                assert_eq!(current_depth(), 2);
            }
            assert_eq!(current_depth(), 1);
        }
        assert_eq!(current_depth(), 0);
        uninstall();
        let enters: Vec<(&str, usize)> = collector
            .events()
            .iter()
            .filter_map(|e| match e {
                SpanEvent::Enter { name, depth } => Some((*name, *depth)),
                SpanEvent::Exit { .. } => None,
            })
            .collect();
        assert_eq!(enters, vec![("outer", 0), ("inner", 1)]);
        // Inner exits before outer, and durations land in the registry.
        let exits: Vec<&str> = collector
            .events()
            .iter()
            .filter_map(|e| match e {
                SpanEvent::Exit { name, .. } => Some(*name),
                SpanEvent::Enter { .. } => None,
            })
            .collect();
        assert_eq!(exits, vec!["inner", "outer"]);
        assert!(crate::metrics::registry().histogram("outer").count() >= 1);
    }
}
