//! The armed-schedule registry behind [`failpoint!`](crate::failpoint).
//!
//! Exactly one [`Scenario`] can be armed at a time, process-wide (like
//! the `saccs-obs` span-timing switch). Arming replaces any previous scenario and
//! resets all call counters, so tests that arm must serialize on a
//! mutex within a binary — the same discipline the obs tests follow.
//!
//! Without the `fault` cargo feature every function here is an inert
//! inline stub (`check` is literally `Ok(())`), so production builds
//! pay nothing for the seams threaded through the pipeline. With the
//! feature but no armed scenario, `check` is a single relaxed atomic
//! load.

#[cfg(not(feature = "fault"))]
use crate::error::FaultError;
use crate::scenario::Scenario;

/// Read-out of one site's activity since the scenario was armed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStats {
    /// The failpoint site name.
    pub site: String,
    /// Total calls that reached the site (fired or not).
    pub calls: u64,
    /// Calls that returned an injected error.
    pub errors: u64,
    /// Calls that slept under a delay effect.
    pub delays: u64,
}

/// RAII guard returned by [`arm_guard`]; disarms the scenario on drop
/// so a panicking test cannot leak an armed schedule into the next one.
#[derive(Debug)]
pub struct ArmedGuard(());

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arm `scenario` under `seed` and return a guard that disarms on drop.
pub fn arm_guard(scenario: &Scenario, seed: u64) -> ArmedGuard {
    arm(scenario, seed);
    ArmedGuard(())
}

#[cfg(feature = "fault")]
pub use imp::{arm, check, disarm, is_armed, stats};

#[cfg(feature = "fault")]
mod imp {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, OnceLock, PoisonError, RwLock};

    use super::SiteStats;
    use crate::error::FaultError;
    use crate::rng::splitmix;
    use crate::scenario::{Effect, FaultRule, Scenario};

    /// Fast-path gate: `true` iff a scenario is armed. Checked before
    /// taking any lock so un-armed `check` costs one relaxed load.
    static ACTIVE: AtomicBool = AtomicBool::new(false);

    struct ArmedRule {
        rule: FaultRule,
        /// Per-rule stream seed: `splitmix(seed ^ (index + 1) * GOLDEN)`,
        /// so rules draw from independent deterministic streams.
        rule_seed: u64,
    }

    #[derive(Default)]
    struct SiteState {
        rules: Vec<ArmedRule>,
        calls: AtomicU64,
        errors: AtomicU64,
        delays: AtomicU64,
    }

    struct Armed {
        sites: HashMap<String, SiteState>,
    }

    fn slot() -> &'static RwLock<Option<Arc<Armed>>> {
        static SLOT: OnceLock<RwLock<Option<Arc<Armed>>>> = OnceLock::new();
        SLOT.get_or_init(|| RwLock::new(None))
    }

    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Arm `scenario` under `seed`, replacing any previous scenario and
    /// resetting all per-site counters.
    pub fn arm(scenario: &Scenario, seed: u64) {
        let mut sites: HashMap<String, SiteState> = HashMap::new();
        for (index, rule) in scenario.rules.iter().enumerate() {
            let rule_seed = splitmix(seed ^ ((index as u64 + 1).wrapping_mul(GOLDEN)));
            sites
                .entry(rule.site.clone())
                .or_default()
                .rules
                .push(ArmedRule {
                    rule: rule.clone(),
                    rule_seed,
                });
        }
        let armed = Arc::new(Armed { sites });
        *slot().write().unwrap_or_else(PoisonError::into_inner) = Some(armed);
        ACTIVE.store(true, Ordering::Release);
    }

    /// Disarm the active scenario, if any.
    pub fn disarm() {
        ACTIVE.store(false, Ordering::Release);
        *slot().write().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Whether a scenario is currently armed.
    pub fn is_armed() -> bool {
        ACTIVE.load(Ordering::Acquire)
    }

    /// Evaluate the failpoint named `site`.
    ///
    /// Increments the site's 1-based call counter, sleeps under every
    /// firing delay rule, and returns the first firing error rule as an
    /// `Err`. Sites without rules are still counted (so [`stats`] can
    /// assert a seam was exercised).
    pub fn check(site: &str) -> Result<(), FaultError> {
        if !ACTIVE.load(Ordering::Relaxed) {
            return Ok(());
        }
        // Clone the Arc and drop the read guard before sleeping or
        // returning: delay effects must not hold the registry lock.
        let armed = match slot()
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            Some(armed) => Arc::clone(armed),
            None => return Ok(()),
        };
        let Some(state) = armed.sites.get(site) else {
            return Ok(());
        };
        let call = state.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let mut fault = None;
        for armed_rule in &state.rules {
            if !armed_rule.rule.trigger.fires(call, armed_rule.rule_seed) {
                continue;
            }
            match armed_rule.rule.effect {
                Effect::Delay(duration) => {
                    state.delays.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(duration);
                }
                Effect::Error(kind) => {
                    if fault.is_none() {
                        state.errors.fetch_add(1, Ordering::Relaxed);
                        fault = Some(FaultError::new(site, kind, call));
                    }
                }
            }
        }
        match fault {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Per-site activity for the armed scenario, sorted by site name.
    /// Empty when nothing is armed.
    pub fn stats() -> Vec<SiteStats> {
        let armed = match slot()
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            Some(armed) => Arc::clone(armed),
            None => return Vec::new(),
        };
        let mut out: Vec<SiteStats> = armed
            .sites
            .iter()
            .map(|(site, state)| SiteStats {
                site: site.clone(),
                calls: state.calls.load(Ordering::Relaxed),
                errors: state.errors.load(Ordering::Relaxed),
                delays: state.delays.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by(|a, b| a.site.cmp(&b.site));
        out
    }
}

/// Arm a scenario (inert: the `fault` feature is off).
#[cfg(not(feature = "fault"))]
pub fn arm(_scenario: &Scenario, _seed: u64) {}

/// Disarm (inert: the `fault` feature is off).
#[cfg(not(feature = "fault"))]
pub fn disarm() {}

/// Always `false` without the `fault` feature.
#[cfg(not(feature = "fault"))]
pub fn is_armed() -> bool {
    false
}

/// Evaluate a failpoint site (inert: always `Ok(())` without the
/// `fault` feature; the optimizer deletes the call entirely).
#[cfg(not(feature = "fault"))]
#[inline(always)]
pub fn check(_site: &str) -> Result<(), FaultError> {
    Ok(())
}

/// Always empty without the `fault` feature.
#[cfg(not(feature = "fault"))]
pub fn stats() -> Vec<SiteStats> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    #[cfg(not(feature = "fault"))]
    use super::*;

    #[cfg(not(feature = "fault"))]
    #[test]
    fn inert_stubs_do_nothing() {
        let scenario = Scenario::new().fail("x");
        let _guard = arm_guard(&scenario, 1);
        assert!(!is_armed());
        assert!(check("x").is_ok());
        assert!(stats().is_empty());
    }

    // Armed-registry tests live here rather than an integration test so
    // they share the crate-internal lock discipline; they serialize on
    // a mutex because the registry is process-global.
    #[cfg(feature = "fault")]
    mod armed {
        use super::super::*;
        use crate::error::FaultKind;
        use crate::scenario::{Effect, Trigger};
        use std::sync::{Mutex, OnceLock, PoisonError};

        fn lock() -> std::sync::MutexGuard<'static, ()> {
            static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
            LOCK.get_or_init(|| Mutex::new(()))
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        }

        #[test]
        fn unarmed_check_passes_and_armed_rules_fire() {
            let _serial = lock();
            disarm();
            assert!(check("algo1.probe").is_ok());

            let scenario = Scenario::parse("algo1.probe=err@2..4").expect("parses");
            let _guard = arm_guard(&scenario, 42);
            assert!(is_armed());
            assert!(check("algo1.probe").is_ok(), "call 1 passes");
            let err = check("algo1.probe").expect_err("call 2 fails");
            assert_eq!((err.kind, err.call), (FaultKind::Unavailable, 2));
            let err = check("algo1.probe").expect_err("call 3 fails");
            assert_eq!(err.call, 3);
            assert!(check("algo1.probe").is_ok(), "call 4 passes");
            assert!(check("other.site").is_ok(), "unlisted sites pass");
        }

        #[test]
        fn guard_drop_disarms_and_rearm_resets_counters() {
            let _serial = lock();
            let scenario =
                Scenario::new().rule("s", Effect::Error(FaultKind::Timeout), Trigger::Call(1));
            {
                let _guard = arm_guard(&scenario, 7);
                assert!(check("s").is_err());
                assert!(check("s").is_ok());
            }
            assert!(!is_armed());
            let _guard = arm_guard(&scenario, 7);
            assert!(check("s").is_err(), "re-arming resets the call counter");
        }

        #[test]
        fn stats_count_calls_errors_and_delays() {
            let _serial = lock();
            let scenario = Scenario::parse("a=err@1;a=delay(0ms)@2;b=delay(0ms)").expect("parses");
            let _guard = arm_guard(&scenario, 9);
            assert!(check("a").is_err());
            assert!(check("a").is_ok());
            assert!(check("b").is_ok());
            let stats = stats();
            assert_eq!(stats.len(), 2);
            assert_eq!(
                (
                    stats[0].site.as_str(),
                    stats[0].calls,
                    stats[0].errors,
                    stats[0].delays
                ),
                ("a", 2, 1, 1)
            );
            assert_eq!(
                (
                    stats[1].site.as_str(),
                    stats[1].calls,
                    stats[1].errors,
                    stats[1].delays
                ),
                ("b", 1, 0, 1)
            );
        }

        #[test]
        fn probability_rules_replay_identically_for_a_seed() {
            let _serial = lock();
            let scenario = Scenario::parse("p.site=err@p=0.5").expect("parses");
            let run = |seed: u64| -> Vec<bool> {
                let _guard = arm_guard(&scenario, seed);
                (0..64).map(|_| check("p.site").is_err()).collect()
            };
            let a = run(1234);
            let b = run(1234);
            let c = run(4321);
            assert_eq!(a, b, "same seed, same schedule");
            assert_ne!(a, c, "different seed, different schedule");
        }
    }
}
