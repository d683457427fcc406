//! The typed request/response surface for ranking.
//!
//! Historically the service grew five overlapping entry points
//! (`rank`, `rank_utterance`, `rank_with_tags`,
//! `rank_with_tags_profiled`, `rank_resilient`), each a different
//! slice of (utterance-or-tags) × (slots) × (profile) × (resilience).
//! [`RankRequest`] collapses that grid into one value the canonical
//! [`crate::service::SaccsService::rank_request`] consumes, which is
//! also the unit the `saccs-serve` front end queues, sheds, and
//! micro-batches. The legacy entry points are gone; every caller goes
//! through this front door.

use crate::dialog::Slots;
use crate::error::SaccsError;
use crate::profile::UserProfile;
use crate::resilient::Degradation;
use crate::service::SaccsConfig;
use saccs_query::{Filter, QueryError};
use saccs_text::SubjectiveTag;
use std::time::Duration;

/// What the caller gives Algorithm 1 to work from: a raw utterance
/// (tags are extracted by the neural pipeline) or pre-extracted tags
/// (the extraction stage is skipped entirely — no extractor required,
/// no extract breaker touched).
#[derive(Debug, Clone, PartialEq)]
pub enum RankInput {
    /// A free-text utterance; subjective tags come from the extractor.
    Utterance(String),
    /// Pre-extracted subjective tags; the extract stage is skipped.
    Tags(Vec<SubjectiveTag>),
}

/// One ranking request: the input, the objective slot values for the
/// search API, and the optional per-request knobs.
#[derive(Debug, Clone)]
pub struct RankRequest {
    pub input: RankInput,
    /// Objective slots forwarded verbatim to the search API.
    pub slots: Slots,
    /// Personalization: reweight probe scores by this user's tag
    /// history, blended with the given boost factor.
    pub profile: Option<(UserProfile, f32)>,
    /// Per-request override of the service-level [`SaccsConfig`]
    /// (`top_k`, aggregation, padding). `None` uses the service's.
    pub config: Option<SaccsConfig>,
    /// Subjective query filter: a typed AST (or parsed DSL) compiled
    /// against the same pinned index snapshot the probes read, applied
    /// as a pure selection on the objective candidates before ranking.
    /// A filter that cannot be compiled degrades the request to
    /// unfiltered (with a `Degradation` record) rather than erroring.
    /// `None` after a [`with_filter_dsl`](Self::with_filter_dsl) whose
    /// source did not parse.
    pub filter: Option<Filter>,
    /// Caller-assigned trace id for request-scoped tracing. `None` lets
    /// the serving layer derive one deterministically from the request
    /// content ([`trace_key`](Self::trace_key)) — never from wallclock.
    pub trace_id: Option<u64>,
    /// A filter DSL source that failed to parse, and its parse error:
    /// [`validate`](Self::validate) reports the error, the rank path
    /// degrades on it, and the source feeds the trace key (builders stay
    /// infallible; validation has one seam).
    bad_dsl: Option<(String, QueryError)>,
}

impl RankRequest {
    /// A request carrying a free-text utterance.
    pub fn utterance(text: impl Into<String>) -> Self {
        RankRequest {
            input: RankInput::Utterance(text.into()),
            slots: Slots::default(),
            profile: None,
            config: None,
            filter: None,
            trace_id: None,
            bad_dsl: None,
        }
    }

    /// A request carrying pre-extracted subjective tags.
    pub fn tags(tags: Vec<SubjectiveTag>) -> Self {
        RankRequest {
            input: RankInput::Tags(tags),
            slots: Slots::default(),
            profile: None,
            config: None,
            filter: None,
            trace_id: None,
            bad_dsl: None,
        }
    }

    /// Attach objective slots for the search API.
    pub fn with_slots(mut self, slots: Slots) -> Self {
        self.slots = slots;
        self
    }

    /// Attach a user profile and its boost factor.
    pub fn with_profile(mut self, profile: UserProfile, boost: f32) -> Self {
        self.profile = Some((profile, boost));
        self
    }

    /// Override the service-level config for this request only.
    pub fn with_config(mut self, config: SaccsConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Attach a subjective filter — the one front door for the query
    /// language: the filter flows unchanged through
    /// [`crate::service::SaccsService::rank_request`], the resilient
    /// ladder, the `saccs-serve` workers, and the trace pipeline.
    pub fn with_filter(mut self, filter: Filter) -> Self {
        self.filter = Some(filter);
        self.bad_dsl = None;
        self
    }

    /// Parse `dsl` and attach the resulting filter. Parse errors are
    /// *not* surfaced here (builders stay infallible); they are
    /// reported — with byte-offset spans — by [`sanitized`](Self::sanitized)
    /// as [`SaccsError::InvalidRequest`], and a request ranked without
    /// that check degrades to unfiltered with the same error.
    pub fn with_filter_dsl(mut self, dsl: &str) -> Self {
        match Filter::parse(dsl) {
            Ok(filter) => self.with_filter(filter),
            Err(e) => {
                self.filter = None;
                self.bad_dsl = Some((dsl.to_string(), e));
                self
            }
        }
    }

    /// What the filter stage works from: `None` without a filter, the
    /// filter, or the parse error of a DSL that did not parse.
    pub(crate) fn filter_stage(&self) -> Option<Result<&Filter, SaccsError>> {
        match &self.bad_dsl {
            Some((_, e)) => Some(Err(invalid_filter(e))),
            None => self.filter.as_ref().map(Ok),
        }
    }

    /// Validate the request without consuming it. Everything funnels
    /// through here (and through [`sanitized`](Self::sanitized), the
    /// owned form) so nothing is ever silently clamped: a malformed
    /// filter, a non-finite profile boost or a zero `top_k` override
    /// all come back as typed [`SaccsError::InvalidRequest`].
    pub fn validate(&self) -> Result<(), SaccsError> {
        if let Some(filter) = self.filter_stage() {
            filter?.validate().map_err(|e| invalid_filter(&e))?;
        }
        if let Some((_, boost)) = &self.profile {
            if !boost.is_finite() || *boost < 0.0 {
                return Err(SaccsError::InvalidRequest {
                    field: "profile",
                    reason: format!("boost {boost} must be finite and non-negative"),
                });
            }
        }
        if let Some(config) = &self.config {
            if config.top_k == 0 {
                return Err(SaccsError::InvalidRequest {
                    field: "config",
                    reason: "top_k override must be at least 1".to_string(),
                });
            }
        }
        Ok(())
    }

    /// The single validation seam, mirroring `ServeConfig::sanitized`:
    /// the serving front end calls this before admission, so a bad
    /// request is a typed error to the caller, never a queued job.
    pub fn sanitized(self) -> Result<Self, SaccsError> {
        self.validate()?;
        Ok(self)
    }

    /// Assign an explicit trace id (tests and benches use the request
    /// index so flight-recorder reports are byte-deterministic).
    pub fn with_trace_id(mut self, id: u64) -> Self {
        self.trace_id = Some(id);
        self
    }

    /// Deterministic trace id for this request: the assigned
    /// [`trace_id`](Self::trace_id) if any, otherwise an FNV-1a hash of
    /// the input content and slots. Identical requests get identical
    /// ids; wallclock is never involved.
    pub fn trace_key(&self) -> u64 {
        if let Some(id) = self.trace_id {
            return id;
        }
        let mut h = 0u64;
        match &self.input {
            RankInput::Utterance(text) => {
                h = saccs_obs::trace::hash_bytes(h, b"u:");
                h = saccs_obs::trace::hash_bytes(h, text.as_bytes());
            }
            RankInput::Tags(tags) => {
                h = saccs_obs::trace::hash_bytes(h, b"t:");
                for tag in tags {
                    h = saccs_obs::trace::hash_bytes(h, tag.opinion.as_bytes());
                    h = saccs_obs::trace::hash_bytes(h, b"/");
                    h = saccs_obs::trace::hash_bytes(h, tag.aspect.as_bytes());
                    h = saccs_obs::trace::hash_bytes(h, b";");
                }
            }
        }
        for slot in [&self.slots.cuisine, &self.slots.location] {
            h = saccs_obs::trace::hash_bytes(h, b"|");
            if let Some(v) = slot {
                h = saccs_obs::trace::hash_bytes(h, v.as_bytes());
            }
        }
        if let Some((dsl, _)) = &self.bad_dsl {
            // A DSL that did not parse has no normal form: its source.
            h = saccs_obs::trace::hash_bytes(h, b"d:");
            h = saccs_obs::trace::hash_bytes(h, dsl.as_bytes());
        } else if let Some(filter) = &self.filter {
            // The canonical normal form, not the surface DSL: two
            // spellings of the same filter share a trace key.
            h = saccs_obs::trace::hash_bytes(h, b"f:");
            h = saccs_obs::trace::hash_bytes(h, filter.normal().as_bytes());
        }
        h
    }
}

/// A filter that did not parse, validate or compile, as the request
/// error every filter check reports.
pub(crate) fn invalid_filter(e: &QueryError) -> SaccsError {
    SaccsError::InvalidRequest {
        field: "filter",
        reason: e.to_string(),
    }
}

/// The outcome of a ranking request: ranked `(item, score)` pairs, the
/// degradation record of the resilient ladder (empty when everything
/// ran at full fidelity), and the server-side latency.
#[derive(Debug, Clone)]
pub struct RankResponse {
    /// Ranked `(item_id, score)` pairs, best first.
    pub results: Vec<(usize, f32)>,
    /// What the resilient ladder had to give up, if anything.
    pub degradation: Degradation,
    /// Wall-clock time from admission (or call) to completion.
    pub elapsed: Duration,
}

impl RankResponse {
    /// True when the request ran at full fidelity.
    pub fn is_full_fidelity(&self) -> bool {
        !self.degradation.is_degraded()
    }

    /// Convenience projection to just the item ids, best first.
    pub fn item_ids(&self) -> Vec<usize> {
        self.results.iter().map(|&(id, _)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_constructors_compose() {
        let req = RankRequest::utterance("cheap and cheerful")
            .with_slots(Slots {
                cuisine: Some("italian".into()),
                location: None,
            })
            .with_profile(UserProfile::new(), 0.3);
        assert_eq!(req.input, RankInput::Utterance("cheap and cheerful".into()));
        assert_eq!(req.slots.cuisine.as_deref(), Some("italian"));
        let (profile, boost) = req.profile.expect("profile attached");
        assert!(profile.is_empty());
        assert!((boost - 0.3).abs() < f32::EPSILON);
        assert!(req.config.is_none());

        let tagged = RankRequest::tags(vec![SubjectiveTag::new("quiet", "room")]);
        assert!(matches!(tagged.input, RankInput::Tags(ref t) if t.len() == 1));
    }

    #[test]
    fn trace_keys_are_deterministic_and_content_sensitive() {
        let a = RankRequest::utterance("cheap tasty ramen");
        let b = RankRequest::utterance("cheap tasty ramen");
        assert_eq!(a.trace_key(), b.trace_key(), "same content, same key");
        assert_ne!(
            a.trace_key(),
            RankRequest::utterance("cheap tasty sushi").trace_key()
        );
        assert_eq!(a.clone().with_trace_id(7).trace_key(), 7);
        let slotted = a.clone().with_slots(Slots {
            cuisine: Some("thai".into()),
            location: None,
        });
        assert_ne!(slotted.trace_key(), a.trace_key(), "slots feed the key");
        let tags = RankRequest::tags(vec![SubjectiveTag::new("quiet", "room")]);
        assert_eq!(
            tags.trace_key(),
            RankRequest::tags(vec![SubjectiveTag::new("quiet", "room")]).trace_key()
        );
        assert_ne!(tags.trace_key(), a.trace_key());
        let filtered = a.clone().with_filter_dsl("quiet AND NOT expensive");
        assert_ne!(filtered.trace_key(), a.trace_key(), "filter feeds the key");
        assert_eq!(
            filtered.trace_key(),
            a.clone()
                .with_filter_dsl("quiet and not expensive")
                .trace_key(),
            "the normal form is hashed, not the surface spelling"
        );
        assert_ne!(
            a.clone().with_filter_dsl("price<=nine").trace_key(),
            a.clone().with_filter_dsl("price<=ten").trace_key(),
            "a malformed DSL hashes its own source"
        );
    }

    #[test]
    fn sanitized_is_the_single_validation_seam() {
        assert!(RankRequest::utterance("cheap ramen").sanitized().is_ok());
        let ok = RankRequest::utterance("x")
            .with_filter_dsl("delicious AND (quiet OR romantic), price<=2")
            .sanitized();
        assert!(ok.is_ok());

        let bad_dsl = RankRequest::utterance("x")
            .with_filter_dsl("price<=nine")
            .sanitized();
        match bad_dsl {
            Err(SaccsError::InvalidRequest { field, reason }) => {
                assert_eq!(field, "filter");
                assert!(reason.contains("bytes 7..11"), "span surfaces: {reason}");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }

        let bad_theta = RankRequest::utterance("x")
            .with_filter(Filter::from_expr(saccs_query::FilterExpr::Threshold {
                tag: SubjectiveTag::new("quiet", "room"),
                theta: 2.0,
            }))
            .sanitized();
        assert!(matches!(
            bad_theta,
            Err(SaccsError::InvalidRequest {
                field: "filter",
                ..
            })
        ));

        let bad_boost = RankRequest::utterance("x")
            .with_profile(UserProfile::new(), f32::NAN)
            .sanitized();
        assert!(matches!(
            bad_boost,
            Err(SaccsError::InvalidRequest {
                field: "profile",
                ..
            })
        ));

        let bad_top_k = RankRequest::utterance("x")
            .with_config(SaccsConfig {
                top_k: 0,
                ..SaccsConfig::default()
            })
            .sanitized();
        assert!(matches!(
            bad_top_k,
            Err(SaccsError::InvalidRequest {
                field: "config",
                ..
            })
        ));
    }
}
