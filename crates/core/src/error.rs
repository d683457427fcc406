//! The typed service-failure taxonomy.
//!
//! Algorithm 1's stages historically had no failure model at all — any
//! infrastructure error was a panic. `SaccsError` names the ways a
//! stage can fail so the serving path
//! ([`crate::service::SaccsService::rank_request`]) can decide, per
//! error, where on the degradation ladder to land (retry → drop the
//! tag → objective-only → partial results).

use saccs_fault::FaultError;
use std::fmt;
use std::time::Duration;

/// The failable stages of Algorithm 1 (the aggregate/pad stages are
/// pure in-memory compute and cannot fail), plus the serving front
/// end's admission gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The serving front end's bounded admission queue (`saccs-serve`);
    /// requests shed here never reach Algorithm 1 at all.
    Admission,
    /// The objective `search_api` call.
    SearchApi,
    /// Neural subjective-tag extraction.
    Extract,
    /// Subjective filter compilation against the pinned snapshot.
    Filter,
    /// Per-tag index probes.
    Probe,
}

impl Stage {
    /// Stable lowercase name, matching the failpoint site suffix.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::SearchApi => "search_api",
            Stage::Extract => "extract",
            Stage::Filter => "filter",
            Stage::Probe => "probe",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a stage of a resilient request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SaccsError {
    /// A single injected (or, one day, real) infrastructure fault.
    Fault(FaultError),
    /// The stage's circuit breaker is open; the call was not attempted.
    CircuitOpen { stage: Stage },
    /// The stage failed on every allowed attempt.
    RetriesExhausted {
        stage: Stage,
        attempts: u32,
        last: FaultError,
    },
    /// The per-request deadline budget lapsed at this stage.
    DeadlineExceeded { stage: Stage, elapsed: Duration },
    /// The stage's component is absent (e.g. a service built
    /// [`crate::service::SaccsService::with_live_index`] has no
    /// extractor).
    Unavailable { stage: Stage },
    /// The request needs the neural extractor but the service was built
    /// [`crate::service::SaccsService::with_live_index`]. Unlike
    /// [`SaccsError::Unavailable`] this is a *caller* error — the request
    /// shape cannot be served by this service configuration, ever — so it
    /// gets its own variant instead of masquerading as an outage.
    NoExtractor,
    /// The request failed structural validation at the `sanitized()`
    /// seam (mirroring `ServeConfig::sanitized`): a malformed filter
    /// DSL, out-of-range θ, empty input, … Also a *caller* error —
    /// reported before any stage runs, never silently clamped.
    InvalidRequest {
        /// Which request field was rejected (`"filter"`, `"input"`, …).
        field: &'static str,
        /// Why; filter DSL errors include byte-offset spans.
        reason: String,
    },
}

impl SaccsError {
    /// The stage the error is attributed to.
    pub fn stage(&self) -> Stage {
        match self {
            SaccsError::Fault(e) => {
                if e.site.ends_with("search_api") {
                    Stage::SearchApi
                } else if e.site.ends_with("extract") {
                    Stage::Extract
                } else if e.site.ends_with("filter") {
                    Stage::Filter
                } else {
                    Stage::Probe
                }
            }
            SaccsError::CircuitOpen { stage }
            | SaccsError::RetriesExhausted { stage, .. }
            | SaccsError::DeadlineExceeded { stage, .. }
            | SaccsError::Unavailable { stage } => *stage,
            SaccsError::NoExtractor => Stage::Extract,
            // Rejected before any Algorithm-1 stage runs, like a shed.
            SaccsError::InvalidRequest { .. } => Stage::Admission,
        }
    }
}

impl fmt::Display for SaccsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaccsError::Fault(e) => write!(f, "{e}"),
            SaccsError::CircuitOpen { stage } => {
                write!(f, "circuit breaker open for stage `{stage}`")
            }
            SaccsError::RetriesExhausted {
                stage,
                attempts,
                last,
            } => write!(
                f,
                "stage `{stage}` failed after {attempts} attempts: {last}"
            ),
            SaccsError::DeadlineExceeded { stage, elapsed } => write!(
                f,
                "deadline exceeded at stage `{stage}` after {:.1}ms",
                elapsed.as_secs_f64() * 1e3
            ),
            SaccsError::Unavailable { stage } => {
                write!(f, "stage `{stage}` has no backing component")
            }
            SaccsError::NoExtractor => {
                write!(f, "service was built index-only and has no extractor")
            }
            SaccsError::InvalidRequest { field, reason } => {
                write!(f, "invalid request field `{field}`: {reason}")
            }
        }
    }
}

impl std::error::Error for SaccsError {}

impl From<FaultError> for SaccsError {
    fn from(e: FaultError) -> Self {
        SaccsError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saccs_fault::FaultKind;

    #[test]
    fn stage_attribution_covers_every_variant() {
        let fault = FaultError::new("algo1.search_api", FaultKind::Timeout, 1);
        assert_eq!(SaccsError::Fault(fault.clone()).stage(), Stage::SearchApi);
        assert_eq!(
            SaccsError::Fault(FaultError::new("algo1.extract", FaultKind::Timeout, 1)).stage(),
            Stage::Extract
        );
        assert_eq!(
            SaccsError::Fault(FaultError::new("algo1.probe", FaultKind::Timeout, 1)).stage(),
            Stage::Probe
        );
        assert_eq!(
            SaccsError::CircuitOpen {
                stage: Stage::Extract
            }
            .stage(),
            Stage::Extract
        );
        assert_eq!(
            SaccsError::RetriesExhausted {
                stage: Stage::Probe,
                attempts: 3,
                last: fault,
            }
            .stage(),
            Stage::Probe
        );
    }

    #[test]
    fn displays_are_informative() {
        let e = SaccsError::RetriesExhausted {
            stage: Stage::Probe,
            attempts: 3,
            last: FaultError::new("algo1.probe", FaultKind::Unavailable, 7),
        };
        let s = e.to_string();
        assert!(
            s.contains("probe") && s.contains('3') && s.contains("unavailable"),
            "{s}"
        );
    }
}
