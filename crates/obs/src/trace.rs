//! Request-scoped tracing: a per-request [`TraceContext`] carrying a
//! bounded buffer of typed [`TraceEvent`]s, installed on whichever
//! thread currently works on the request.
//!
//! A context is created per request with a **deterministic** u64 id
//! (derived from request content or assigned by the caller — never from
//! wallclock), handed across concurrency seams as an `Arc`, and
//! installed into a thread-local slot with [`install`](crate::trace::install) for the duration
//! of a scope. Instrumented code records events through [`record`](crate::trace::record),
//! which is one relaxed atomic load when no context is alive anywhere
//! in the process (the same packed gate word spans consult, see
//! `gate.rs`). Stage spans whose name carries a [`STAGE_PREFIXES`](crate::trace::STAGE_PREFIXES)
//! prefix are forwarded into the active context by `span.rs`; everything
//! else (pool-worker kernels, per-sentence encoders) stays out of the
//! buffer so the event sequence of a request is a deterministic function
//! of the request alone, not of thread interleaving.
//!
//! Timestamps live only in the `nanos` payloads; the *normal form* of an
//! event ([`TraceEvent::normal`]) excludes them, so normalized event
//! sequences are byte-identical across repeated seeded runs.

use crate::gate::{gate_trace_dec, gate_trace_inc, tracing_possible};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Span-name prefixes forwarded into the active trace as stage events.
///
/// These spans run strictly sequentially on the thread serving the
/// request, so forwarding them preserves determinism; un-prefixed spans
/// (kernels, encoders) may run on many pool workers at once and are
/// deliberately excluded from the per-request buffer.
pub const STAGE_PREFIXES: [&str; 2] = ["algo1.", "serve."];

/// Default cap on buffered events per request.
pub const DEFAULT_EVENT_CAP: usize = 256;

/// One typed event in a request's trace. All string payloads are
/// `&'static str` (enforced workspace-wide by the `metric-name-literal`
/// lint pass), keeping cardinality bounded and recording allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The request passed admission into the serve queue.
    Admitted,
    /// The request was shed at admission (queue over depth).
    Shed,
    /// Time spent queued before a worker adopted the request.
    QueueWait {
        /// Queue wait in nanoseconds.
        nanos: u64,
    },
    /// A whitelisted stage span opened on the serving thread.
    StageEnter {
        /// Span name (e.g. `algo1.probe`).
        name: &'static str,
    },
    /// The stage span closed.
    StageExit {
        /// Span name (e.g. `algo1.probe`).
        name: &'static str,
        /// Wall duration of the stage.
        nanos: u64,
    },
    /// An index probe resolved exactly (`true`) or via fallback.
    Probe {
        /// Whether the probe tag's own non-empty posting list answered it.
        exact: bool,
    },
    /// A fallback probe was answered through the resolution-cell
    /// candidate index, as every fallback that scores with the
    /// conceptual similarity is; a custom-similarity index scans and
    /// records none. All payloads are deterministic functions of
    /// `(index contents, probe tag)`, never of timing.
    ProbeAnn {
        /// Candidate tags in the cells that survived pruning.
        candidates: u32,
        /// Candidates whose exact rescore cleared θ_filter.
        rescored: u32,
        /// Resolution cells examined during candidate search.
        visited: u32,
    },
    /// A retry attempt is about to back off and re-run the stage op.
    Retry {
        /// Stage label (`Stage::label()`).
        stage: &'static str,
        /// 1-based attempt number that just failed.
        attempt: u32,
    },
    /// A circuit breaker changed state.
    Breaker {
        /// Stage label owning the breaker.
        stage: &'static str,
        /// New state label (`closed` / `open` / `half-open`).
        to: &'static str,
    },
    /// The per-request deadline was exhausted at this stage.
    DeadlineExhausted {
        /// Stage label where the budget ran out.
        stage: &'static str,
    },
    /// The degradation ladder recorded a step for this request.
    Degraded {
        /// Stage label that failed.
        stage: &'static str,
        /// Ladder action taken (`DegradeAction::label()`).
        action: &'static str,
    },
    /// A review was ingested into the live index.
    Ingest {
        /// Whether the write sealed the mem-segment (`sealed`) or
        /// stayed buffered in it (`buffered`).
        sealed: bool,
    },
    /// A subjective filter compiled and applied to the candidate set
    /// (the `algo1.filter` stage). All payloads are deterministic
    /// functions of `(pinned index, catalog, filter)`, never of timing.
    FilterPlan {
        /// Predicate leaves in the compiled filter.
        leaves: u32,
        /// Candidate entities entering the filter (objective API hits).
        candidates: u32,
        /// Candidates surviving the filter.
        passed: u32,
    },
}

impl TraceEvent {
    /// Normal form: a stable label with every timestamp payload
    /// excluded. Two identical seeded runs produce byte-identical
    /// normal-form sequences even though wall timings differ.
    pub fn normal(&self) -> String {
        let mut s = String::new();
        match self {
            TraceEvent::Admitted => s.push_str("admitted"),
            TraceEvent::Shed => s.push_str("shed"),
            TraceEvent::QueueWait { .. } => s.push_str("queue_wait"),
            TraceEvent::StageEnter { name } => {
                let _ = write!(s, "stage_enter:{name}");
            }
            TraceEvent::StageExit { name, .. } => {
                let _ = write!(s, "stage_exit:{name}");
            }
            TraceEvent::Probe { exact } => {
                let _ = write!(s, "probe:{}", if *exact { "exact" } else { "fallback" });
            }
            TraceEvent::ProbeAnn {
                candidates,
                rescored,
                visited,
            } => {
                let _ = write!(s, "probe_ann:{candidates}:{rescored}:{visited}");
            }
            TraceEvent::Retry { stage, attempt } => {
                let _ = write!(s, "retry:{stage}:{attempt}");
            }
            TraceEvent::Breaker { stage, to } => {
                let _ = write!(s, "breaker:{stage}:{to}");
            }
            TraceEvent::DeadlineExhausted { stage } => {
                let _ = write!(s, "deadline:{stage}");
            }
            TraceEvent::Degraded { stage, action } => {
                let _ = write!(s, "degrade:{stage}:{action}");
            }
            TraceEvent::Ingest { sealed } => {
                let _ = write!(s, "ingest:{}", if *sealed { "sealed" } else { "buffered" });
            }
            TraceEvent::FilterPlan {
                leaves,
                candidates,
                passed,
            } => {
                let _ = write!(s, "filter:{leaves}:{candidates}:{passed}");
            }
        }
        s
    }

    /// Full form: the normal form plus the nanosecond payload where the
    /// event carries one.
    pub fn full(&self) -> String {
        let mut s = self.normal();
        match self {
            TraceEvent::QueueWait { nanos } | TraceEvent::StageExit { nanos, .. } => {
                let _ = write!(s, ":{nanos}ns");
            }
            _ => {}
        }
        s
    }
}

/// A request's trace: deterministic id plus a bounded event buffer.
///
/// Creating a context bumps the process-wide gate so instrumented code
/// starts looking at the thread-local slot; dropping the last `Arc`
/// releases the gate unit. Events past the cap are counted in
/// [`dropped`](Self::dropped) rather than buffered.
pub struct TraceContext {
    id: u64,
    cap: usize,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceContext")
            .field("id", &self.id)
            .field("events", &self.events.lock().len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TraceContext {
    /// A fresh context for trace id `id` with the default event cap.
    pub fn new(id: u64) -> Arc<TraceContext> {
        TraceContext::with_cap(id, DEFAULT_EVENT_CAP)
    }

    /// A fresh context capping the buffer at `cap` events (min 1).
    pub fn with_cap(id: u64, cap: usize) -> Arc<TraceContext> {
        gate_trace_inc();
        Arc::new(TraceContext {
            id,
            cap: cap.max(1),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    /// The deterministic trace id this context was created with.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Append `event`, or count it as dropped once the buffer is full.
    pub fn record(&self, event: TraceEvent) {
        let mut events = self.events.lock();
        if events.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(event);
    }

    /// Snapshot of the buffered events, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// How many events were discarded after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for TraceContext {
    fn drop(&mut self) {
        gate_trace_dec();
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<TraceContext>>> = const { RefCell::new(None) };
}

/// RAII guard restoring the thread's previous context on drop (see
/// [`install`]).
pub struct TraceScope {
    prev: Option<Arc<TraceContext>>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Make `ctx` the current trace context on this thread until the
/// returned guard drops (the previous context, if any, is restored).
pub fn install(ctx: Arc<TraceContext>) -> TraceScope {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx));
    TraceScope { prev }
}

/// The context currently installed on this thread, if tracing is live.
/// One relaxed load when no context exists anywhere in the process.
#[inline]
pub fn current() -> Option<Arc<TraceContext>> {
    if !tracing_possible() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// The caller's context, for handing to a pool worker across a spawn
/// seam (`saccs-rt` captures this and [`install`]s it in the worker for
/// the task's duration). Same fast path as [`current`].
#[inline]
pub fn propagated() -> Option<Arc<TraceContext>> {
    current()
}

/// Record `event` into the thread's current context, if any. One relaxed
/// atomic load when no context is alive anywhere in the process.
#[inline]
pub fn record(event: TraceEvent) {
    if !tracing_possible() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            ctx.record(event);
        }
    });
}

/// Whether `name` is a stage span that should be forwarded into the
/// active trace (see [`STAGE_PREFIXES`]).
#[inline]
pub(crate) fn is_stage(name: &str) -> bool {
    STAGE_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// FNV-1a over `bytes`, chained from `seed` (pass 0 to start). Used to
/// derive deterministic trace ids from request content — never from
/// wallclock.
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = if seed == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        seed
    };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_inert_without_context_and_buffers_with_one() {
        // No context anywhere: record() must not blow up (gate fast path).
        record(TraceEvent::Admitted);
        let ctx = TraceContext::new(7);
        {
            let _scope = install(Arc::clone(&ctx));
            record(TraceEvent::Admitted);
            record(TraceEvent::Probe { exact: true });
            assert_eq!(current().map(|c| c.id()), Some(7));
        }
        // Scope dropped: the thread slot is restored.
        record(TraceEvent::Shed);
        assert_eq!(
            ctx.events(),
            vec![TraceEvent::Admitted, TraceEvent::Probe { exact: true }]
        );
        assert_eq!(ctx.dropped(), 0);
    }

    #[test]
    fn install_nests_and_restores_the_previous_context() {
        let outer = TraceContext::new(1);
        let inner = TraceContext::new(2);
        let _outer_scope = install(Arc::clone(&outer));
        {
            let _inner_scope = install(Arc::clone(&inner));
            record(TraceEvent::Probe { exact: false });
        }
        record(TraceEvent::Probe { exact: true });
        assert_eq!(inner.events(), vec![TraceEvent::Probe { exact: false }]);
        assert_eq!(outer.events(), vec![TraceEvent::Probe { exact: true }]);
    }

    #[test]
    fn buffer_cap_counts_overflow_instead_of_growing() {
        let ctx = TraceContext::with_cap(3, 2);
        ctx.record(TraceEvent::Admitted);
        ctx.record(TraceEvent::Shed);
        ctx.record(TraceEvent::Admitted);
        ctx.record(TraceEvent::Admitted);
        assert_eq!(ctx.events().len(), 2);
        assert_eq!(ctx.dropped(), 2);
    }

    #[test]
    fn normal_form_strips_timestamps_full_form_keeps_them() {
        let exit = TraceEvent::StageExit {
            name: "algo1.extract",
            nanos: 1234,
        };
        assert_eq!(exit.normal(), "stage_exit:algo1.extract");
        assert_eq!(exit.full(), "stage_exit:algo1.extract:1234ns");
        let wait = TraceEvent::QueueWait { nanos: 55 };
        assert_eq!(wait.normal(), "queue_wait");
        assert_eq!(wait.full(), "queue_wait:55ns");
        assert_eq!(
            TraceEvent::Retry {
                stage: "probe",
                attempt: 2
            }
            .full(),
            "retry:probe:2"
        );
        assert_eq!(
            TraceEvent::Degraded {
                stage: "search_api",
                action: "objective-only"
            }
            .normal(),
            "degrade:search_api:objective-only"
        );
        // Ingest events carry no timestamps: normal == full.
        let ingest = TraceEvent::Ingest { sealed: true };
        assert_eq!(ingest.normal(), "ingest:sealed");
        assert_eq!(ingest.full(), "ingest:sealed");
        assert_eq!(
            TraceEvent::Ingest { sealed: false }.normal(),
            "ingest:buffered"
        );
        // ANN payloads are deterministic counts, not timings, so they
        // survive into the normal form.
        let ann = TraceEvent::ProbeAnn {
            candidates: 12,
            rescored: 3,
            visited: 40,
        };
        assert_eq!(ann.normal(), "probe_ann:12:3:40");
        assert_eq!(ann.full(), "probe_ann:12:3:40");
        // Filter-plan payloads are likewise deterministic counts.
        let plan = TraceEvent::FilterPlan {
            leaves: 4,
            candidates: 20,
            passed: 7,
        };
        assert_eq!(plan.normal(), "filter:4:20:7");
        assert_eq!(plan.full(), "filter:4:20:7");
    }

    #[test]
    fn hash_bytes_is_deterministic_and_chains() {
        let a = hash_bytes(0, b"cheap tasty ramen");
        let b = hash_bytes(0, b"cheap tasty ramen");
        assert_eq!(a, b);
        assert_ne!(a, hash_bytes(0, b"cheap tasty sushi"));
        assert_ne!(hash_bytes(a, b"x"), hash_bytes(b, b"y"));
    }
}
