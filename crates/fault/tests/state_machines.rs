//! Property tests for the deterministic resilience state machines.
//!
//! These run with the `fault` feature on or off: backoff and breaker
//! are plain library types, independent of the failpoint registry.

use proptest::prelude::*;
use saccs_fault::backoff::delay;
use saccs_fault::{BreakerConfig, BreakerState, SharedBreaker};
use std::time::Duration;

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(64))]

    /// Backoff delays never shrink as the attempt number grows, jitter
    /// included.
    #[test]
    fn prop_backoff_monotone_nondecreasing(attempt in 0u32..200) {
        prop_assert!(
            delay(attempt) <= delay(attempt + 1),
            "delay({}) = {:?} > delay({}) = {:?}",
            attempt, delay(attempt), attempt + 1, delay(attempt + 1)
        );
    }

    /// Backoff delays never exceed the 50 ms cap, however late the
    /// attempt.
    #[test]
    fn prop_backoff_capped(attempt in 0u32..u32::MAX) {
        prop_assert!(delay(attempt) <= Duration::from_millis(50), "delay({attempt}) over the cap");
    }

    /// Backoff is a pure function of the attempt number.
    #[test]
    fn prop_backoff_is_pure(attempt in 0u32..64) {
        prop_assert_eq!(delay(attempt), delay(attempt));
    }

    /// Driving the breaker through a full open → half-open → closed
    /// cycle never loses a permit: once half-open, exactly
    /// `success_to_close` granted probes (each settled successfully)
    /// close it, with no spurious rejections along the way.
    #[test]
    fn prop_breaker_cycle_conserves_permits(
        failure_threshold in 1u32..6,
        open_calls in 1u32..8,
        half_open_permits in 1u32..4,
        success_to_close in 1u32..5,
    ) {
        let config = BreakerConfig {
            failure_threshold,
            open_calls,
            half_open_permits,
            success_to_close,
        };
        let b = SharedBreaker::new(config);

        // Trip it with consecutive failures (each behind a permit).
        for _ in 0..failure_threshold {
            prop_assert!(b.allow().0, "closed breaker must grant");
            b.on_failure();
        }
        prop_assert_eq!(b.state(), BreakerState::Open);

        // Open rejects exactly `open_calls` calls, then probing resumes.
        for i in 0..open_calls {
            prop_assert!(!b.allow().0, "open breaker granted at rejection {i}");
        }
        prop_assert_eq!(b.state(), BreakerState::HalfOpen);

        // Settling each granted probe immediately: every grant must be
        // honored until the breaker closes, and exactly
        // `success_to_close` successful probes close it.
        let mut successes = 0u32;
        while b.state() == BreakerState::HalfOpen {
            prop_assert!(
                b.allow().0,
                "half-open breaker lost a permit after {successes} successes"
            );
            b.on_success();
            successes += 1;
            prop_assert!(successes <= success_to_close, "breaker failed to close");
        }
        prop_assert_eq!(b.state(), BreakerState::Closed);
        prop_assert_eq!(successes, success_to_close);

        // And a closed breaker is fully reset: it takes the full
        // failure budget to trip again.
        for i in 0..failure_threshold {
            prop_assert_eq!(
                b.state(),
                BreakerState::Closed,
                "tripped early at failure {}", i
            );
            prop_assert!(b.allow().0);
            b.on_failure();
        }
        prop_assert_eq!(b.state(), BreakerState::Open);
    }

    /// Half-open concurrency: with permits outstanding (not yet
    /// settled), grants are capped at `half_open_permits`, and settling
    /// frees exactly one slot each.
    #[test]
    fn prop_half_open_bounds_outstanding_permits(
        half_open_permits in 1u32..5,
        extra_attempts in 1u32..8,
    ) {
        let config = BreakerConfig {
            failure_threshold: 1,
            open_calls: 1,
            half_open_permits,
            success_to_close: u32::MAX, // stay half-open while we count
        };
        let b = SharedBreaker::new(config);
        b.on_failure();
        prop_assert!(!b.allow().0); // lapse the open window
        prop_assert_eq!(b.state(), BreakerState::HalfOpen);

        let mut granted = 0u32;
        for _ in 0..half_open_permits + extra_attempts {
            if b.allow().0 {
                granted += 1;
            }
        }
        prop_assert_eq!(granted, half_open_permits, "outstanding grants exceeded cap");
        // Settle one: exactly one more grant becomes available.
        b.on_success();
        prop_assert!(b.allow().0);
        prop_assert!(!b.allow().0);
    }

    /// A half-open failure reopens immediately and the cycle restarts
    /// with a fresh rejection window (no permits carried over).
    #[test]
    fn prop_half_open_failure_restarts_cycle(
        open_calls in 1u32..6,
    ) {
        let config = BreakerConfig {
            failure_threshold: 1,
            open_calls,
            half_open_permits: 1,
            success_to_close: 2,
        };
        let b = SharedBreaker::new(config);
        b.on_failure();
        for _ in 0..open_calls {
            prop_assert!(!b.allow().0);
        }
        prop_assert!(b.allow().0);
        b.on_failure(); // probe failed → reopen
        prop_assert_eq!(b.state(), BreakerState::Open);
        // The fresh window rejects the full `open_calls` again.
        for i in 0..open_calls {
            prop_assert!(!b.allow().0, "window not reset at {i}");
        }
        prop_assert_eq!(b.state(), BreakerState::HalfOpen);
        prop_assert_eq!(b.times_opened(), 2);
    }
}
