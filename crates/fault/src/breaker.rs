//! Call-count-driven circuit breaker.
//!
//! Textbook breakers open on failures and transition to half-open after
//! a wall-clock cooldown — which makes chaos tests time-dependent and
//! unreplayable. This breaker is driven entirely by call counts:
//!
//! ```text
//! Closed ──(failure_threshold consecutive failures)──▶ Open
//! Open   ──(rejects open_calls calls)───────────────▶ HalfOpen
//! HalfOpen ──(success_to_close successes)───────────▶ Closed
//! HalfOpen ──(any failure)──────────────────────────▶ Open
//! ```
//!
//! In `HalfOpen` at most `half_open_permits` probe calls may be in
//! flight; [`SharedBreaker::allow`] hands out permits and every permit
//! is returned by exactly one later `on_success`/`on_failure` (the
//! permit-conservation invariant, proptested in
//! `tests/state_machines.rs`).
//!
//! [`SharedBreaker`] packs the counters into one `AtomicU64` so many
//! serving threads can drive one breaker through `&self` — every
//! transition is a single CAS, and the permit invariant holds under
//! arbitrary interleavings because the permit count changes in the same
//! CAS that consults it. Its serial transcript is checked against a
//! plain `&mut self` model of the state machine kept in the tests.

use std::sync::atomic::{AtomicU64, Ordering};

/// Which of the three states a breaker is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are counted.
    Closed,
    /// Calls are rejected outright until the open window lapses.
    Open,
    /// A bounded number of probe calls may test the dependency.
    HalfOpen,
}

/// Breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures in `Closed` that trip the breaker.
    pub failure_threshold: u32,
    /// Calls rejected in `Open` before probing resumes (the
    /// call-count analogue of a cooldown timer).
    pub open_calls: u32,
    /// Maximum concurrent probe calls allowed in `HalfOpen`.
    pub half_open_permits: u32,
    /// Probe successes required to close from `HalfOpen`.
    pub success_to_close: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_calls: 5,
            half_open_permits: 1,
            success_to_close: 2,
        }
    }
}

impl BreakerConfig {
    /// Normalize zero thresholds up to 1 so every state is reachable
    /// and no transition divides by a zero budget.
    fn sanitized(self) -> BreakerConfig {
        BreakerConfig {
            failure_threshold: self.failure_threshold.max(1),
            open_calls: self.open_calls.max(1),
            half_open_permits: self.half_open_permits.max(1),
            success_to_close: self.success_to_close.max(1),
        }
    }
}

/// A state change observed by one breaker operation. `before == after`
/// means the operation left the state untouched (counters may still have
/// moved). Callers use this to count transitions on metrics without
/// racing a second state read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    pub before: BreakerState,
    pub after: BreakerState,
}

impl BreakerTransition {
    /// Whether the operation changed the state.
    pub fn changed(self) -> bool {
        self.before != self.after
    }
}

// Bit layout of the packed breaker word (see `SharedBreaker`):
// counters saturate at 16 bits, which is far above any sane threshold
// (configs are normalized below `COUNTER_MAX` at construction).
const FAILURES_SHIFT: u32 = 0;
const REJECTED_SHIFT: u32 = 16;
const PERMITS_SHIFT: u32 = 32;
const SUCCESSES_SHIFT: u32 = 48;
const STATE_SHIFT: u32 = 62;
/// The successes field stops at bit 61 — bits 62–63 hold the state tag.
const FIELD_MASKS: [u64; 4] = [0xFFFF, 0xFFFF, 0xFFFF, 0x3FFF];
/// Counters saturate at the narrowest field's capacity; configs are
/// clamped one below so thresholds stay reachable.
const COUNTER_MAX: u64 = 0x3FFF;

#[inline]
fn mask_for(shift: u32) -> u64 {
    FIELD_MASKS[(shift / 16) as usize]
}

#[inline]
fn field(bits: u64, shift: u32) -> u64 {
    (bits >> shift) & mask_for(shift)
}

#[inline]
fn set_field(bits: u64, shift: u32, value: u64) -> u64 {
    let mask = mask_for(shift);
    (bits & !(mask << shift)) | ((value.min(mask)) << shift)
}

#[inline]
fn state_of(bits: u64) -> BreakerState {
    match bits >> STATE_SHIFT {
        0 => BreakerState::Closed,
        1 => BreakerState::Open,
        _ => BreakerState::HalfOpen,
    }
}

#[inline]
fn with_state(bits: u64, state: BreakerState) -> u64 {
    let tag: u64 = match state {
        BreakerState::Closed => 0,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    };
    (bits & !(0b11 << STATE_SHIFT)) | (tag << STATE_SHIFT)
}

/// The closed/open/half-open state machine of the module docs,
/// internally synchronized for concurrent callers. One instance per
/// protected stage.
///
/// All mutable state (state tag + the four counters) lives in one packed
/// `AtomicU64`; every operation is a compare-and-swap loop over that
/// word, so concurrent `allow`/`on_success`/`on_failure` calls serialize
/// per-operation and can never hand out more than `half_open_permits`
/// probe permits or double-count a transition. Counters saturate at
/// the narrowest field's 14 bits; thresholds are clamped below that at
/// construction so the saturation is unreachable in practice.
#[derive(Debug)]
pub struct SharedBreaker {
    config: BreakerConfig,
    bits: AtomicU64,
    /// Lifetime `* → Open` trips (monotonic; incremented once by the CAS
    /// winner of each trip).
    times_opened: AtomicU64,
}

impl SharedBreaker {
    /// A closed breaker with the given config (zeros normalized to 1,
    /// thresholds clamped below the 16-bit counter saturation point).
    pub fn new(config: BreakerConfig) -> SharedBreaker {
        let s = config.sanitized();
        let cap = (COUNTER_MAX - 1) as u32;
        SharedBreaker {
            config: BreakerConfig {
                failure_threshold: s.failure_threshold.min(cap),
                open_calls: s.open_calls.min(cap),
                half_open_permits: s.half_open_permits.min(cap),
                success_to_close: s.success_to_close.min(cap),
            },
            bits: AtomicU64::new(with_state(0, BreakerState::Closed)),
            times_opened: AtomicU64::new(0),
        }
    }

    /// Current state (a racy snapshot under concurrency).
    pub fn state(&self) -> BreakerState {
        state_of(self.bits.load(Ordering::Acquire))
    }

    /// Lifetime number of transitions into `Open`.
    pub fn times_opened(&self) -> u64 {
        self.times_opened.load(Ordering::Acquire)
    }

    /// Ask to make a call. `true` hands out a permit that MUST be
    /// settled by exactly one later [`on_success`](Self::on_success) or
    /// [`on_failure`](Self::on_failure); `false` means the call is
    /// rejected (fail fast) and nothing may be reported back.
    pub fn allow(&self) -> (bool, BreakerTransition) {
        self.update(|bits| match state_of(bits) {
            BreakerState::Closed => (bits, true),
            BreakerState::Open => {
                let rejected = field(bits, REJECTED_SHIFT) + 1;
                let next = if rejected >= u64::from(self.config.open_calls) {
                    let half = with_state(bits, BreakerState::HalfOpen);
                    let half = set_field(half, PERMITS_SHIFT, 0);
                    set_field(half, SUCCESSES_SHIFT, 0)
                } else {
                    set_field(bits, REJECTED_SHIFT, rejected)
                };
                (next, false)
            }
            BreakerState::HalfOpen => {
                let permits = field(bits, PERMITS_SHIFT);
                if permits < u64::from(self.config.half_open_permits) {
                    (set_field(bits, PERMITS_SHIFT, permits + 1), true)
                } else {
                    (bits, false)
                }
            }
        })
    }

    /// Report that a permitted call succeeded.
    pub fn on_success(&self) -> BreakerTransition {
        self.update(|bits| match state_of(bits) {
            BreakerState::Closed => (set_field(bits, FAILURES_SHIFT, 0), ()),
            BreakerState::HalfOpen => {
                let permits = field(bits, PERMITS_SHIFT).saturating_sub(1);
                let successes = field(bits, SUCCESSES_SHIFT) + 1;
                let next = if successes >= u64::from(self.config.success_to_close) {
                    let closed = with_state(bits, BreakerState::Closed);
                    let closed = set_field(closed, FAILURES_SHIFT, 0);
                    set_field(closed, PERMITS_SHIFT, 0)
                } else {
                    let b = set_field(bits, PERMITS_SHIFT, permits);
                    set_field(b, SUCCESSES_SHIFT, successes)
                };
                (next, ())
            }
            // A success racing a trip is stale news: ignore it.
            BreakerState::Open => (bits, ()),
        })
        .1
    }

    /// Report that a permitted call failed.
    pub fn on_failure(&self) -> BreakerTransition {
        self.update(|bits| match state_of(bits) {
            BreakerState::Closed => {
                let failures = field(bits, FAILURES_SHIFT) + 1;
                let next = if failures >= u64::from(self.config.failure_threshold) {
                    Self::tripped(bits)
                } else {
                    set_field(bits, FAILURES_SHIFT, failures)
                };
                (next, ())
            }
            BreakerState::HalfOpen => (Self::tripped(bits), ()),
            BreakerState::Open => (bits, ()),
        })
        .1
    }

    /// The fully-reset `Open` word: no rejections, permits or successes
    /// carried over.
    fn tripped(bits: u64) -> u64 {
        let open = with_state(bits, BreakerState::Open);
        let open = set_field(open, REJECTED_SHIFT, 0);
        let open = set_field(open, PERMITS_SHIFT, 0);
        let open = set_field(open, SUCCESSES_SHIFT, 0);
        set_field(open, FAILURES_SHIFT, 0)
    }

    /// CAS loop: apply `f` to the current word until the swap sticks.
    /// The winner (and only the winner) counts a trip into `Open`.
    fn update<R: Copy>(&self, f: impl Fn(u64) -> (u64, R)) -> (R, BreakerTransition) {
        let mut current = self.bits.load(Ordering::Acquire);
        loop {
            let (next, out) = f(current);
            match self
                .bits
                .compare_exchange(current, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    let transition = BreakerTransition {
                        before: state_of(current),
                        after: state_of(next),
                    };
                    if transition.changed() && transition.after == BreakerState::Open {
                        self.times_opened.fetch_add(1, Ordering::AcqRel);
                    }
                    return (out, transition);
                }
                Err(actual) => current = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 2,
            open_calls: 3,
            half_open_permits: 1,
            success_to_close: 2,
        }
    }

    /// The reference model: the state machine of the module docs as plain
    /// `&mut self` code, whose transcript [`SharedBreaker`]'s must replay.
    #[derive(Debug, Clone)]
    struct CircuitBreaker {
        config: BreakerConfig,
        state: BreakerState,
        /// Consecutive failures observed in `Closed`.
        consecutive_failures: u32,
        /// Calls rejected so far in the current `Open` window.
        rejected: u32,
        /// Probe permits currently handed out in `HalfOpen`.
        permits_out: u32,
        /// Probe successes accumulated in the current `HalfOpen` episode.
        half_open_successes: u32,
        /// Lifetime count of `Closed → Open` and `HalfOpen → Open` trips.
        times_opened: u64,
    }

    impl CircuitBreaker {
        /// A closed breaker with the given config (zeros normalized to 1).
        fn new(config: BreakerConfig) -> CircuitBreaker {
            CircuitBreaker {
                config: config.sanitized(),
                state: BreakerState::Closed,
                consecutive_failures: 0,
                rejected: 0,
                permits_out: 0,
                half_open_successes: 0,
                times_opened: 0,
            }
        }

        /// Current state.
        fn state(&self) -> BreakerState {
            self.state
        }

        /// Lifetime number of transitions into `Open`.
        fn times_opened(&self) -> u64 {
            self.times_opened
        }

        /// Ask to make a call. `true` hands out a permit that MUST be
        /// returned by exactly one later [`on_success`](Self::on_success)
        /// or [`on_failure`](Self::on_failure); `false` means the call is
        /// rejected (fail fast) and nothing may be reported back.
        fn allow(&mut self) -> bool {
            match self.state {
                BreakerState::Closed => true,
                BreakerState::Open => {
                    self.rejected += 1;
                    if self.rejected >= self.config.open_calls {
                        self.state = BreakerState::HalfOpen;
                        self.permits_out = 0;
                        self.half_open_successes = 0;
                    }
                    false
                }
                BreakerState::HalfOpen => {
                    if self.permits_out < self.config.half_open_permits {
                        self.permits_out += 1;
                        true
                    } else {
                        false
                    }
                }
            }
        }

        /// Report that a permitted call succeeded.
        fn on_success(&mut self) {
            match self.state {
                BreakerState::Closed => {
                    self.consecutive_failures = 0;
                }
                BreakerState::HalfOpen => {
                    self.permits_out = self.permits_out.saturating_sub(1);
                    self.half_open_successes += 1;
                    if self.half_open_successes >= self.config.success_to_close {
                        self.state = BreakerState::Closed;
                        self.consecutive_failures = 0;
                        self.permits_out = 0;
                    }
                }
                // A success racing a trip (permit issued in Closed, breaker
                // opened meanwhile) is stale news: ignore it.
                BreakerState::Open => {}
            }
        }

        /// Report that a permitted call failed.
        fn on_failure(&mut self) {
            match self.state {
                BreakerState::Closed => {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= self.config.failure_threshold {
                        self.trip();
                    }
                }
                BreakerState::HalfOpen => {
                    self.permits_out = self.permits_out.saturating_sub(1);
                    self.trip();
                }
                BreakerState::Open => {}
            }
        }

        fn trip(&mut self) {
            self.state = BreakerState::Open;
            self.rejected = 0;
            self.permits_out = 0;
            self.half_open_successes = 0;
            self.consecutive_failures = 0;
            self.times_opened += 1;
        }
    }

    #[test]
    fn shared_trips_after_consecutive_failures_only() {
        let b = SharedBreaker::new(config());
        assert!(b.allow().0);
        b.on_failure();
        assert!(b.allow().0);
        b.on_success(); // success resets the streak
        assert!(b.allow().0);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow().0);
        let t = b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.times_opened(), 1);
        assert_eq!(
            t,
            BreakerTransition {
                before: BreakerState::Closed,
                after: BreakerState::Open,
            }
        );
    }

    #[test]
    fn shared_open_rejects_then_half_opens_after_open_calls() {
        let b = SharedBreaker::new(config());
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow().0);
        assert!(!b.allow().0);
        let (ok, t) = b.allow(); // third rejection lapses the window
        assert!(!ok);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(t.after, BreakerState::HalfOpen);
    }

    #[test]
    fn shared_half_open_bounds_permits_and_closes_on_successes() {
        let b = SharedBreaker::new(config());
        b.on_failure();
        b.on_failure();
        for _ in 0..3 {
            b.allow();
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow().0, "first probe permitted");
        assert!(!b.allow().0, "second concurrent probe rejected");
        b.on_success();
        assert_eq!(b.state(), BreakerState::HalfOpen, "needs 2 successes");
        assert!(b.allow().0);
        let t = b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(t.after, BreakerState::Closed);
    }

    #[test]
    fn shared_half_open_failure_reopens() {
        let b = SharedBreaker::new(config());
        b.on_failure();
        b.on_failure();
        for _ in 0..3 {
            b.allow();
        }
        assert!(b.allow().0);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.times_opened(), 2);
    }

    #[test]
    fn shared_zero_config_is_normalized_not_divergent() {
        let b = SharedBreaker::new(BreakerConfig {
            failure_threshold: 0,
            open_calls: 0,
            half_open_permits: 0,
            success_to_close: 0,
        });
        assert!(b.allow().0);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open, "threshold 0 acts as 1");
        assert!(!b.allow().0);
        assert_eq!(b.state(), BreakerState::HalfOpen, "open_calls 0 acts as 1");
        assert!(b.allow().0, "permit budget 0 acts as 1");
        b.on_success();
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "success_to_close 0 acts as 1"
        );
    }

    /// Drive one shared breaker from many threads with an
    /// always-failing workload: permits must be conserved (never more
    /// than `half_open_permits` concurrent probes) and the trip counter
    /// must equal the number of Closed/HalfOpen → Open transitions the
    /// CAS winners observed.
    #[test]
    fn shared_breaker_conserves_permits_under_contention() {
        use std::sync::atomic::{AtomicI64, AtomicU64 as Au64};

        // Each worker's own call sequence fails twice in a row, so the
        // breaker trips under any schedule. With a threshold of 3, a pool
        // busy with a concurrent test runs the tasks on the calling thread
        // in LIFO order, where every worker boundary joins at most two
        // failures and the breaker never trips.
        let b = SharedBreaker::new(BreakerConfig {
            failure_threshold: 2,
            open_calls: 2,
            half_open_permits: 2,
            success_to_close: 2,
        });
        let outstanding = AtomicI64::new(0);
        let max_outstanding = AtomicI64::new(0);
        let trips_seen = Au64::new(0);

        saccs_rt::scope(|s| {
            for worker in 0..8 {
                let (b, outstanding, max_outstanding, trips_seen) =
                    (&b, &outstanding, &max_outstanding, &trips_seen);
                s.spawn(move || {
                    for call in 0..500u32 {
                        let (ok, t) = b.allow();
                        if t.changed() && t.after == BreakerState::Open {
                            trips_seen.fetch_add(1, Ordering::AcqRel);
                        }
                        if !ok {
                            continue;
                        }
                        let now = outstanding.fetch_add(1, Ordering::AcqRel) + 1;
                        max_outstanding.fetch_max(now, Ordering::AcqRel);
                        let t = if (worker + call) % 3 == 0 {
                            outstanding.fetch_sub(1, Ordering::AcqRel);
                            b.on_success()
                        } else {
                            outstanding.fetch_sub(1, Ordering::AcqRel);
                            b.on_failure()
                        };
                        if t.changed() && t.after == BreakerState::Open {
                            trips_seen.fetch_add(1, Ordering::AcqRel);
                        }
                    }
                });
            }
        });

        assert_eq!(outstanding.load(Ordering::Acquire), 0, "permit leak");
        assert!(
            b.times_opened() >= 1,
            "a 2/3-failure workload never tripped the breaker"
        );
        assert_eq!(
            trips_seen.load(Ordering::Acquire),
            b.times_opened(),
            "every trip must be observed by exactly one transition"
        );
    }

    /// The shared breaker replays the exact `CircuitBreaker` transcript
    /// under a serial call sequence: same allows, same states.
    #[test]
    fn shared_breaker_matches_serial_breaker_transcript() {
        let mut serial = CircuitBreaker::new(config());
        let shared = SharedBreaker::new(config());
        // A deterministic mixed workload long enough to cycle
        // closed → open → half-open → closed → open again.
        for step in 0..200u32 {
            let a = serial.allow();
            let b = shared.allow().0;
            assert_eq!(a, b, "allow diverged at step {step}");
            if a {
                if step % 5 == 0 {
                    serial.on_success();
                    shared.on_success();
                } else {
                    serial.on_failure();
                    shared.on_failure();
                }
            }
            assert_eq!(serial.state(), shared.state(), "state at step {step}");
        }
        assert_eq!(serial.times_opened(), shared.times_opened());
    }
}
