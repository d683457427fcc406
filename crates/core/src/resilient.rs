//! Resilience primitives for the serving path: retry policy, per-stage
//! circuit breakers, deadline budget, and the degradation report.
//!
//! The degradation ladder, top to bottom (each rung gives up less than
//! the one below it):
//!
//! 1. **Retry** — transient stage failures are retried under
//!    deterministic exponential backoff with bounded jitter.
//! 2. **Unfiltered** — the request's subjective filter could not be
//!    compiled or evaluated; the full ranking comes back with the
//!    filter dropped.
//! 3. **Drop the tag** — a single failing probe drops that tag's
//!    subjective filter; the remaining tags still rank.
//! 4. **Objective-only** — extraction (or every probe) down: return the
//!    `search_api` order verbatim, exactly like a tag-less query.
//! 5. **Partial results** — the deadline budget lapsed mid-request:
//!    return what is ranked so far instead of blocking.
//! 6. **Empty** — the objective API itself is unreachable; there is
//!    nothing left to serve, but the response still explains why.
//!
//! Every rung is recorded as a [`DegradationEvent`] in the returned
//! [`crate::request::RankResponse`], so callers (and the chaos suite)
//! can tell a clean answer from a degraded one without log archaeology.

use crate::error::{SaccsError, Stage};
use saccs_fault::{
    Backoff, BreakerConfig, BreakerState, BreakerTransition, FaultError, SharedBreaker,
};
use std::time::{Duration, Instant};

/// Per-stage retry policy: how many attempts, spaced how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per logical call (1 = no retries).
    pub max_attempts: u32,
    /// Delay schedule between attempts.
    pub backoff: Backoff,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Backoff::new(Duration::from_millis(1), Duration::from_millis(50)).jitter(0.5),
        }
    }
}

/// Tuning for [`crate::service::SaccsService::rank_request`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceConfig {
    /// Retry policy shared by all stages.
    pub retry: RetryPolicy,
    /// Breaker configuration (each stage gets its own breaker instance).
    pub breaker: BreakerConfig,
    /// Per-request wall-clock budget; `None` disables deadline checks.
    pub deadline: Option<Duration>,
}

/// What the service gave up when a stage failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeAction {
    /// The request's subjective filter could not be compiled or
    /// evaluated; results came back unfiltered. The mildest rung: the
    /// full ranking is intact, only the filter was sacrificed.
    Unfiltered,
    /// One tag's subjective filter was dropped; the rest still rank.
    DroppedTag,
    /// Subjective ranking was skipped; the objective order came back.
    ObjectiveOnly,
    /// The deadline lapsed mid-request; partially-ranked results.
    Partial,
    /// Nothing could be served at all.
    Empty,
}

impl DegradeAction {
    /// Stable lowercase name (for logs and metrics).
    pub fn label(self) -> &'static str {
        match self {
            DegradeAction::Unfiltered => "unfiltered",
            DegradeAction::DroppedTag => "dropped_tag",
            DegradeAction::ObjectiveOnly => "objective_only",
            DegradeAction::Partial => "partial",
            DegradeAction::Empty => "empty",
        }
    }
}

/// One rung taken on the degradation ladder: which stage failed, how,
/// and what the service did about it.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationEvent {
    pub stage: Stage,
    pub error: SaccsError,
    pub action: DegradeAction,
}

/// The degradation report attached to every resilient response.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Degradation {
    /// Events in the order they occurred; empty for a clean request.
    pub events: Vec<DegradationEvent>,
}

impl Degradation {
    /// `true` iff anything was given up.
    pub fn is_degraded(&self) -> bool {
        !self.events.is_empty()
    }

    /// The lowest rung reached (worst action), if any.
    pub fn worst(&self) -> Option<DegradeAction> {
        self.events
            .iter()
            .map(|e| e.action)
            .max_by_key(|a| match a {
                DegradeAction::Unfiltered => 0,
                DegradeAction::DroppedTag => 1,
                DegradeAction::ObjectiveOnly => 2,
                DegradeAction::Partial => 3,
                DegradeAction::Empty => 4,
            })
    }

    pub(crate) fn record(&mut self, stage: Stage, error: SaccsError, action: DegradeAction) {
        saccs_obs::trace::record(saccs_obs::trace::TraceEvent::Degraded {
            stage: stage.label(),
            action: action.label(),
        });
        self.events.push(DegradationEvent {
            stage,
            error,
            action,
        });
    }
}

/// One circuit breaker per failable stage, so a dead extractor does not
/// open the gate in front of a healthy index. The breakers are
/// [`SharedBreaker`]s — atomic, `&self`-driven — so many serving threads
/// can share one service instance and one consistent breaker state.
#[derive(Debug)]
pub struct StageBreakers {
    pub search_api: SharedBreaker,
    pub extract: SharedBreaker,
    pub probe: SharedBreaker,
}

impl StageBreakers {
    /// Fresh (closed) breakers with the given shared config.
    pub fn new(config: BreakerConfig) -> StageBreakers {
        StageBreakers {
            search_api: SharedBreaker::new(config),
            extract: SharedBreaker::new(config),
            probe: SharedBreaker::new(config),
        }
    }

    /// The breaker guarding `stage`; `None` for [`Stage::Admission`]
    /// and [`Stage::Ingest`], which are gated by the serving queue
    /// depth, not a breaker (a failed ingest persist stays buffered and
    /// is retried at the next seal, so tripping a breaker would only
    /// block the in-memory path that still works).
    pub fn for_stage(&self, stage: Stage) -> Option<&SharedBreaker> {
        match stage {
            // Filter compilation is pure in-memory compute over the
            // pinned snapshot — its only failure mode is a bad request,
            // which no breaker can shield the next request from.
            Stage::Admission | Stage::Ingest | Stage::Filter => None,
            Stage::SearchApi => Some(&self.search_api),
            Stage::Extract => Some(&self.extract),
            Stage::Probe => Some(&self.probe),
        }
    }
}

/// The per-request deadline budget clock.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineClock {
    start: Instant,
    budget: Option<Duration>,
}

impl DeadlineClock {
    /// Start the clock now; `None` never expires.
    pub fn start(budget: Option<Duration>) -> DeadlineClock {
        DeadlineClock {
            start: Instant::now(),
            budget,
        }
    }

    /// Wall-clock time since the request started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Whether the budget has lapsed.
    pub fn expired(&self) -> bool {
        self.budget.is_some_and(|b| self.start.elapsed() >= b)
    }

    /// The deadline error for `stage`, stamped with the elapsed time.
    pub fn exceeded_at(&self, stage: Stage) -> SaccsError {
        SaccsError::DeadlineExceeded {
            stage,
            elapsed: self.elapsed(),
        }
    }
}

/// Count a breaker state transition on the `fault.breaker.*` metrics
/// and emit it into the owning request's trace, tagged with the stage
/// whose breaker moved. The transition comes from the breaker
/// operation's own CAS, so under concurrency each transition is counted
/// exactly once (by the thread whose operation performed it) —
/// re-reading `breaker.state()` here would race.
fn note_transition(stage: Stage, transition: BreakerTransition) {
    if !transition.changed() {
        return;
    }
    let to = match transition.after {
        BreakerState::Open => {
            saccs_obs::counter!("fault.breaker.opened").inc();
            "open"
        }
        BreakerState::HalfOpen => {
            saccs_obs::counter!("fault.breaker.half_open").inc();
            "half_open"
        }
        BreakerState::Closed => {
            saccs_obs::counter!("fault.breaker.closed").inc();
            "closed"
        }
    };
    saccs_obs::trace::record(saccs_obs::trace::TraceEvent::Breaker {
        stage: stage.label(),
        to,
    });
}

/// Run `op` for `stage` under the full protection stack: breaker gate,
/// bounded retries with deterministic backoff, deadline checks. One
/// breaker permit spans the whole logical call (retries included) and
/// is settled by exactly one `on_success`/`on_failure`.
///
/// Takes `&SharedBreaker`: concurrent callers share one breaker state.
/// On the fault-free path this is one closed-breaker CAS and one `op`
/// call — no sleeps, no counters.
pub fn call_with_retry<T>(
    stage: Stage,
    policy: &RetryPolicy,
    breaker: &SharedBreaker,
    deadline: &DeadlineClock,
    mut op: impl FnMut() -> Result<T, FaultError>,
) -> Result<T, SaccsError> {
    if deadline.expired() {
        saccs_obs::counter!("fault.deadline.exceeded").inc();
        saccs_obs::trace::record(saccs_obs::trace::TraceEvent::DeadlineExhausted {
            stage: stage.label(),
        });
        return Err(deadline.exceeded_at(stage));
    }
    // `allow` can lapse an open window into half-open.
    let (allowed, transition) = breaker.allow();
    note_transition(stage, transition);
    if !allowed {
        saccs_obs::counter!("fault.breaker.rejected").inc();
        return Err(SaccsError::CircuitOpen { stage });
    }
    let mut attempt: u32 = 0;
    loop {
        match op() {
            Ok(v) => {
                note_transition(stage, breaker.on_success());
                return Ok(v);
            }
            Err(fault) => {
                if attempt + 1 >= policy.max_attempts || deadline.expired() {
                    note_transition(stage, breaker.on_failure());
                    return Err(SaccsError::RetriesExhausted {
                        stage,
                        attempts: attempt + 1,
                        last: fault,
                    });
                }
                saccs_obs::counter!("fault.retry.attempts").inc();
                saccs_obs::trace::record(saccs_obs::trace::TraceEvent::Retry {
                    stage: stage.label(),
                    attempt: attempt + 1,
                });
                std::thread::sleep(policy.backoff.delay(attempt));
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saccs_fault::FaultKind;

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff: Backoff::new(Duration::ZERO, Duration::ZERO),
        }
    }

    fn fault(n: u64) -> FaultError {
        FaultError::new("algo1.probe", FaultKind::Unavailable, n)
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let breaker = SharedBreaker::new(BreakerConfig::default());
        let clock = DeadlineClock::start(None);
        let mut calls = 0u64;
        let out = call_with_retry(Stage::Probe, &fast_policy(), &breaker, &clock, || {
            calls += 1;
            if calls < 3 {
                Err(fault(calls))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(3));
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn exhausted_retries_report_attempts_and_feed_the_breaker() {
        let breaker = SharedBreaker::new(BreakerConfig {
            failure_threshold: 2,
            ..BreakerConfig::default()
        });
        let clock = DeadlineClock::start(None);
        let run = |breaker: &SharedBreaker| {
            call_with_retry(Stage::Probe, &fast_policy(), breaker, &clock, || {
                Err::<(), _>(fault(1))
            })
        };
        match run(&breaker) {
            Err(SaccsError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(breaker.state(), BreakerState::Closed, "one logical failure");
        let _ = run(&breaker);
        assert_eq!(breaker.state(), BreakerState::Open, "second trips it");
        match run(&breaker) {
            Err(SaccsError::CircuitOpen { stage }) => assert_eq!(stage, Stage::Probe),
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_short_circuits_without_calling_op() {
        let breaker = SharedBreaker::new(BreakerConfig::default());
        let clock = DeadlineClock::start(Some(Duration::ZERO));
        let mut called = false;
        let out = call_with_retry(Stage::Extract, &fast_policy(), &breaker, &clock, || {
            called = true;
            Ok(())
        });
        assert!(matches!(out, Err(SaccsError::DeadlineExceeded { .. })));
        assert!(!called, "op must not run past the deadline");
    }

    #[test]
    fn degradation_report_tracks_worst_rung() {
        let mut d = Degradation::default();
        assert!(!d.is_degraded());
        assert_eq!(d.worst(), None);
        d.record(
            Stage::Probe,
            SaccsError::Fault(fault(1)),
            DegradeAction::DroppedTag,
        );
        d.record(
            Stage::Extract,
            SaccsError::Unavailable {
                stage: Stage::Extract,
            },
            DegradeAction::ObjectiveOnly,
        );
        assert!(d.is_degraded());
        assert_eq!(d.worst(), Some(DegradeAction::ObjectiveOnly));
    }

    #[test]
    fn stage_breakers_are_independent() {
        let b = StageBreakers::new(BreakerConfig {
            failure_threshold: 1,
            ..BreakerConfig::default()
        });
        b.for_stage(Stage::Extract)
            .expect("extract has a breaker")
            .on_failure();
        assert_eq!(b.extract.state(), BreakerState::Open);
        assert_eq!(b.search_api.state(), BreakerState::Closed);
        assert_eq!(b.probe.state(), BreakerState::Closed);
        assert!(
            b.for_stage(Stage::Admission).is_none(),
            "admission is queue-gated, not breaker-gated"
        );
    }
}
