//! Deterministic exponential backoff with bounded jitter.
//!
//! The usual backoff-with-jitter draws a fresh random factor per retry,
//! which makes failure traces unreplayable. Here the jitter for attempt
//! `n` is a pure function of `n`, so a logged attempt number reproduces
//! the exact delay.
//!
//! Two properties hold by construction (and are proptested in
//! `tests/state_machines.rs`):
//!
//! - **Monotone:** `delay(n) <= delay(n + 1)`. The jitter fraction is at
//!   most `FACTOR - 1`, so even a maximally jittered attempt `n` stays
//!   below the un-jittered attempt `n + 1`:
//!   `BASE·FACTORⁿ·(1 + JITTER·u) <= BASE·FACTORⁿ·FACTOR`.
//! - **Capped:** `delay(n) <= CAP`, always.

use std::time::Duration;

use crate::rng::{splitmix, Xoshiro};

/// The wait after the first failure, before jitter.
const BASE: Duration = Duration::from_millis(1);
/// Per-attempt growth.
const FACTOR: f64 = 2.0;
/// No delay exceeds this.
const CAP: Duration = Duration::from_millis(50);
/// Each delay is stretched by up to this fraction; at most `FACTOR - 1`,
/// the widest band that keeps delays monotone.
const JITTER: f64 = 0.5;
/// The seed the deterministic jitter stream derives from.
const SEED: u64 = 0;

/// Delay before retry number `attempt` (0-based: `delay(0)` is the wait
/// after the first failure): 1 ms doubling up to a 50 ms cap, each
/// stretched by up to 50% of deterministic jitter. Pure.
pub fn delay(attempt: u32) -> Duration {
    let cap = CAP.as_secs_f64();
    // Exponent capped so FACTOR^attempt cannot overflow to inf before
    // the min() with the cap takes effect.
    let exponent = attempt.min(64);
    let raw = (BASE.as_secs_f64() * FACTOR.powi(exponent as i32)).min(cap);
    let mut rng = Xoshiro::seed_from_u64(splitmix(
        SEED ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ));
    let jittered = raw * (1.0 + JITTER * rng.next_f64());
    Duration::from_secs_f64(jittered.min(cap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_within_the_jitter_band() {
        for attempt in 0..5 {
            let raw = BASE * 2u32.pow(attempt);
            let d = delay(attempt);
            assert!(
                d >= raw && d.as_secs_f64() <= raw.as_secs_f64() * 1.5,
                "{d:?}"
            );
        }
        assert_eq!(delay(10), CAP, "capped");
    }

    #[test]
    fn huge_attempt_numbers_do_not_overflow() {
        assert_eq!(delay(u32::MAX), CAP);
    }
}
