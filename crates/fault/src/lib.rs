//! `saccs-fault` — deterministic fault injection for the SACCS serving
//! and training pipeline (stdlib only, zero dependencies).
//!
//! Four pieces:
//!
//! 1. **Failpoints** ([`failpoint!`], [`check`]): named sites threaded
//!    through the pipeline's hot seams (`algo1.search_api`,
//!    `algo1.extract`, `algo1.probe`, `embed.features_batch`,
//!    `tagger.train_step`) and the live-ingestion seams of the segmented
//!    index (`index.seal` defers sealing the mem-segment, `index.persist`
//!    tears a segment write mid-file, `index.merge` aborts compaction
//!    between the merged write and the manifest commit). Without the
//!    `fault` cargo feature, `check` is an
//!    inlined constant `Ok(())` and the whole subsystem compiles out;
//!    with it, an armed [`Scenario`] decides per call whether to inject
//!    a delay or an error.
//! 2. **Scenarios** ([`Scenario`], [`FaultRule`]): a declarative,
//!    seed-reproducible fault schedule with a compact text DSL —
//!    `"algo1.probe=err@2..4;algo1.search_api=delay(30ms)"` fails the
//!    2nd and 3rd probe calls and delays every objective search by
//!    30 ms. Probability triggers draw from a per-rule xoshiro256++
//!    stream that is a pure function of `(seed, rule, call index)`, so
//!    identical seeds fire on identical call indices no matter how many
//!    threads race through the site.
//! 3. **Backoff** ([`backoff::delay`]): deterministic exponential retry
//!    delays with bounded jitter — monotone non-decreasing in the
//!    attempt number and capped (both properties are proptested).
//! 4. **Circuit breaker** ([`SharedBreaker`]): a call-count-driven
//!    closed → open → half-open state machine (no wall clocks, so state
//!    transitions replay identically under a fixed request sequence).
//!
//! The registry itself records nothing to `saccs-obs` — it is below the
//! observability layer in the dependency graph. Consumers (the service
//! layer, the index, the encoder) count retries, breaker transitions
//! and degradations; the registry exposes raw per-site [`stats`] for
//! tests that want to assert on the injection itself.

/// Deterministic exponential backoff with bounded jitter.
pub mod backoff;
/// Call-count-driven circuit breaker state machine.
pub mod breaker;
/// Fault kinds and the injected error type.
pub mod error;
/// The armed-schedule registry behind `failpoint!`.
pub mod registry;
/// Tiny deterministic RNG (splitmix64 + xoshiro256++), self-contained.
pub(crate) mod rng;
/// The scenario DSL: rules, triggers, effects, parser and printer.
pub mod scenario;

/// Breaker tuning knobs (thresholds and permit counts).
pub use breaker::BreakerConfig;
/// Which of the three breaker states a breaker is in.
pub use breaker::BreakerState;
/// The before/after state pair one breaker operation observed.
pub use breaker::BreakerTransition;
/// The closed/open/half-open breaker, driven through `&self`.
pub use breaker::SharedBreaker;
/// One injected fault: site, kind and the call index that fired.
pub use error::FaultError;
/// The flavor of infrastructure failure a failpoint injects.
pub use error::FaultKind;
/// Arm a scenario under a seed (no-op without the `fault` feature).
pub use registry::arm;
/// Arm a scenario and get an RAII guard that disarms on drop.
pub use registry::arm_guard;
/// Evaluate a failpoint site (the function behind [`failpoint!`]).
pub use registry::check;
/// Disarm the active scenario, if any.
pub use registry::disarm;
/// Whether a scenario is currently armed.
pub use registry::is_armed;
/// Per-site injection statistics for the armed scenario.
pub use registry::stats;
/// RAII guard returned by [`arm_guard`].
pub use registry::ArmedGuard;
/// Read-out of one site's calls/errors/delays since arming.
pub use registry::SiteStats;
/// What a firing rule does: inject an error or sleep.
pub use scenario::Effect;
/// One site's `(trigger, effect)` rule.
pub use scenario::FaultRule;
/// A parseable, printable, seed-reproducible fault schedule.
pub use scenario::Scenario;
/// Error from [`Scenario::parse`] with the offending rule text.
pub use scenario::ScenarioParseError;
/// When a rule fires, as a function of the site's 1-based call index.
pub use scenario::Trigger;

/// Evaluate the failpoint named `$site`.
///
/// Expands to [`check`]`($site)`, which returns
/// `Result<(), `[`FaultError`]`>`: `Ok(())` to proceed (possibly after
/// an injected delay), `Err` when the armed scenario fails this call.
/// Without the `fault` cargo feature the call is an inlined constant
/// `Ok(())` and optimizes away entirely; with the feature but no armed
/// scenario it is a single relaxed atomic load.
///
/// ```
/// fn fetch() -> Result<Vec<u8>, saccs_fault::FaultError> {
///     saccs_fault::failpoint!("demo.fetch")?;
///     Ok(vec![42])
/// }
/// assert!(fetch().is_ok());
/// ```
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        $crate::check($site)
    };
}
