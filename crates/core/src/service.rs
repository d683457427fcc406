//! Algorithm 1: subjective filtering and ranking.
//!
//! ```text
//! S_api ← search_api(u)            (objective results)
//! tags  ← extract_tags(u)          (subjective tags in the utterance)
//! for t in tags:
//!     S_t ← index[t]               if t known
//!     S_t ← ⋃ index[tag]·sim       otherwise (θ_filter gate)
//! R ← ⋂ { S_api, S_t … }
//! return sort(aggregate_scores(R))
//! ```
//!
//! §3.3: with many tags, per-entity scores are aggregated with the
//! arithmetic mean ("we also experimented with … the product or min
//! operators, but the arithmetic mean works better in practice") — all
//! three are implemented so the ablation bench can verify that claim.
//!
//! # Concurrency
//!
//! The whole rank path is `&self`: a single `SaccsService` behind an
//! `Arc` serves any number of threads. The moving parts that make that
//! true live elsewhere — the one live index publishes immutable
//! snapshots whose probes record history behind a shared mutex, the
//! stage breakers are lock-free atomics
//! ([`saccs_fault::SharedBreaker`]), and the neural extractor holds its
//! trained models frozen off the autograd tape, so every thread reads
//! the one [`TagExtractor`]. The canonical entry point is
//! [`SaccsService::rank_request`] over a [`RankRequest`]; the historical
//! per-shape methods (`rank`, `rank_utterance`, `rank_with_tags`, …) are
//! gone — every request shape, including subjective filters, goes
//! through the one front door.

use crate::error::{SaccsError, Stage};
use crate::extractor::TagExtractor;
use crate::request::{invalid_filter, RankInput, RankRequest, RankResponse};
use crate::resilient::{
    call_with_retry, DeadlineClock, Degradation, DegradeAction, ResilienceConfig, StageBreakers,
};
use crate::search_api::SearchApi;
use saccs_index::{IngestReceipt, LiveIndex, LiveSnapshot, SubjectiveIndex};
use saccs_query::{compile, CompiledFilter, Filter, JoinOrder};
use saccs_text::SubjectiveTag;
use std::sync::Arc;

/// Score aggregation across tags (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    Mean,
    Product,
    Min,
}

impl Aggregation {
    pub const ALL: [Aggregation; 3] = [Aggregation::Mean, Aggregation::Product, Aggregation::Min];

    pub fn label(self) -> &'static str {
        match self {
            Aggregation::Mean => "mean",
            Aggregation::Product => "product",
            Aggregation::Min => "min",
        }
    }

    fn combine(self, scores: &[f32]) -> f32 {
        if scores.is_empty() {
            // The padding path can hand over an empty per-tag score set;
            // every operator must agree it contributes nothing (a bare
            // `product` would say 1.0 and a bare `min` +∞).
            return 0.0;
        }
        match self {
            Aggregation::Mean => scores.iter().sum::<f32>() / scores.len() as f32,
            Aggregation::Product => scores.iter().product(),
            Aggregation::Min => scores.iter().fold(f32::INFINITY, |m, &s| m.min(s)),
        }
    }
}

/// Service parameters, set per service or overridden per request
/// ([`RankRequest::with_config`], checked by [`RankRequest::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaccsConfig {
    pub aggregation: Aggregation,
    /// Number of results to return.
    pub top_k: usize,
}

impl Default for SaccsConfig {
    fn default() -> Self {
        SaccsConfig {
            aggregation: Aggregation::Mean,
            top_k: 10,
        }
    }
}

/// The assembled subjective search service.
pub struct SaccsService {
    /// The one index: every request pins one consistent
    /// [`LiveSnapshot`] of it, and [`SaccsService::ingest`] feeds it.
    live: Arc<LiveIndex>,
    extractor: Option<TagExtractor>,
    config: SaccsConfig,
    resilience: ResilienceConfig,
    breakers: StageBreakers,
}

// One service behind an `Arc` serves every thread: a field that is not
// `Send + Sync` (say, a `Var` of the training tape) fails the build here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SaccsService>();
    assert_send_sync::<TagExtractor>();
    assert_send_sync::<RankRequest>();
    assert_send_sync::<RankResponse>();
};

impl SaccsService {
    /// Build from a populated index and a trained extractor.
    pub fn new(live: Arc<LiveIndex>, extractor: TagExtractor, config: SaccsConfig) -> Self {
        SaccsService {
            live,
            extractor: Some(extractor),
            config,
            resilience: ResilienceConfig::default(),
            breakers: StageBreakers::default(),
        }
    }

    /// Build without a neural extractor: probes pin one consistent
    /// snapshot of `live` per request (ingest proceeds concurrently
    /// without ever being observed mid-write), and
    /// [`SaccsService::ingest`] feeds reviews in. Utterance-input
    /// requests degrade to objective-only (or, through
    /// [`SaccsService::extract_tags`], fail with
    /// [`SaccsError::NoExtractor`]); tags-input requests work normally.
    pub fn with_live_index(live: Arc<LiveIndex>, config: SaccsConfig) -> Self {
        SaccsService {
            live,
            extractor: None,
            config,
            resilience: ResilienceConfig::default(),
            breakers: StageBreakers::default(),
        }
    }

    /// Replace the resilience tuning (the deadline) used by the
    /// resilient rank path. Resets the stage breakers.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.breakers = StageBreakers::default();
        self.resilience = resilience;
        self
    }

    /// The active resilience tuning.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// The per-stage circuit breakers (inspection; chaos tests assert
    /// on trip counts).
    pub fn breakers(&self) -> &StageBreakers {
        &self.breakers
    }

    /// The index requests are served from right now: a pin of the live
    /// index's published snapshot, which dereferences to its
    /// [`SubjectiveIndex`]. Later ingests and re-indexing rounds do not
    /// change a pin already taken.
    pub fn index(&self) -> Arc<LiveSnapshot> {
        self.live.pin()
    }

    /// The live index this service serves and ingests into.
    pub fn live_index(&self) -> &Arc<LiveIndex> {
        &self.live
    }

    /// Ingest one review into the live index.
    pub fn ingest(&self, entity_id: usize, review_tags: &[SubjectiveTag]) -> IngestReceipt {
        self.live.add_review(entity_id, review_tags)
    }

    /// The neural extractor, if this service has one.
    pub fn extractor(&self) -> Option<&TagExtractor> {
        self.extractor.as_ref()
    }

    pub fn config(&self) -> &SaccsConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Canonical request-shaped API
    // ------------------------------------------------------------------

    /// Hardened Algorithm 1 over a typed request — the canonical entry
    /// point, and the unit the `saccs-serve` front end queues and sheds.
    ///
    /// Every failable stage (`search_api`, `extract`, per-tag `probe`)
    /// runs under its own circuit breaker and bounded retries with
    /// deterministic backoff, inside a per-request deadline budget
    /// ([`ResilienceConfig`]). Failures degrade instead of erroring,
    /// walking the ladder documented in [`crate::resilient`]:
    ///
    /// * an unevaluable subjective filter ranks unfiltered
    ///   ([`DegradeAction::Unfiltered`]);
    /// * a failing probe drops that tag's filter ([`DegradeAction::DroppedTag`]);
    /// * failed extraction — or every probe failing — returns the
    ///   objective API order ([`DegradeAction::ObjectiveOnly`]);
    /// * a lapsed deadline returns whatever is ranked so far
    ///   ([`DegradeAction::Partial`]);
    /// * an unreachable `search_api` returns empty results
    ///   ([`DegradeAction::Empty`]) — with the reason in the report.
    ///
    /// Tags-input requests skip the extraction stage entirely (no
    /// extractor required, no extract breaker touched). With no faults
    /// armed (or the `fault` feature off) the cost of the hardening is
    /// one closed-breaker check per stage. Callers that want a stage
    /// failure as an error read [`RankResponse::degradation`]: an
    /// unevaluable filter is an [`SaccsError::InvalidRequest`] event, a
    /// missing extractor an [`SaccsError::Unavailable`] one. Every retry,
    /// breaker transition, degradation and deadline miss is counted on
    /// the `fault.*` metrics; `fault.degraded_requests` increments at
    /// most once per request.
    ///
    /// Each stage runs under its own `saccs-obs` span (`algo1.search_api`,
    /// `algo1.filter`, `algo1.extract`, `algo1.probe`, `algo1.aggregate`,
    /// `algo1.pad`), all nested inside `algo1.rank`.
    pub fn rank_request(&self, request: &RankRequest, api: &SearchApi<'_>) -> RankResponse {
        self.rank_request_at(request, api, DeadlineClock::start(self.resilience.deadline))
    }

    /// [`SaccsService::rank_request`] against an externally-started
    /// deadline clock. The serving front end starts the clock at
    /// *admission*, so time spent queued counts against the request's
    /// budget instead of silently extending it.
    pub fn rank_request_at(
        &self,
        request: &RankRequest,
        api: &SearchApi<'_>,
        clock: DeadlineClock,
    ) -> RankResponse {
        let _rank = saccs_obs::span!("algo1.rank");
        let config = request.config.as_ref().unwrap_or(&self.config);
        let mut degradation = Degradation::default();
        let finish =
            |results: Vec<(usize, f32)>, degradation: Degradation, clock: &DeadlineClock| {
                if degradation.is_degraded() {
                    saccs_obs::counter!("fault.degraded_requests").inc();
                }
                RankResponse {
                    results,
                    degradation,
                    elapsed: clock.elapsed(),
                }
            };

        // Stage 1: objective search — the floor of the ladder. If it is
        // unreachable there is nothing left to serve.
        let mut api_results = {
            let _search = saccs_obs::span!("algo1.search_api");
            let breaker = &self.breakers.search_api;
            match call_with_retry(Stage::SearchApi, breaker, &clock, || {
                api.try_search(&request.slots)
            }) {
                Ok(results) => results,
                Err(err) => {
                    degradation.record(Stage::SearchApi, err, DegradeAction::Empty);
                    return finish(Vec::new(), degradation, &clock);
                }
            }
        };

        // One index for the whole request: one pinned snapshot, so the
        // filter compiles against the exact segment set the probes below
        // will answer from, however much is ingested mid-flight.
        let pinned = self.live.pin();
        let index = pinned.index();

        // Stage 1b: the subjective filter, compiled against the pinned
        // snapshot and applied as a pure selection on the objective
        // candidates. A filter that cannot be compiled (malformed DSL
        // ranked without `sanitized()`, unknown attribute, armed
        // failpoint) costs only itself: the request continues unfiltered
        // on the mildest ladder rung.
        if let Some(filter) = request.filter_stage() {
            let _filter = saccs_obs::span!("algo1.filter");
            let candidates = api_results.len() as u32;
            match filter.and_then(|filter| Self::try_filter(filter, index, api)) {
                Ok(compiled) => {
                    api_results.retain(|&e| compiled.contains(e));
                    saccs_obs::trace::record(saccs_obs::trace::TraceEvent::FilterPlan {
                        leaves: compiled.summary().leaves,
                        candidates,
                        passed: api_results.len() as u32,
                    });
                }
                Err(err) => {
                    degradation.record(Stage::Filter, err, DegradeAction::Unfiltered);
                }
            }
        }

        // Stage 2: subjective tags. Pre-extracted tags skip the neural
        // stage entirely; an utterance goes through the extractor —
        // objective-only on failure (an absent extractor degrades
        // identically: services built without one serve objective
        // results instead of erroring on the resilient path).
        let tags: Vec<SubjectiveTag> = match &request.input {
            RankInput::Tags(tags) => tags.clone(),
            RankInput::Utterance(utterance) => {
                if clock.expired() {
                    saccs_obs::counter!("fault.deadline.exceeded").inc();
                    saccs_obs::trace::record(saccs_obs::trace::TraceEvent::DeadlineExhausted {
                        stage: Stage::Extract.label(),
                    });
                    degradation.record(
                        Stage::Extract,
                        clock.exceeded_at(Stage::Extract),
                        DegradeAction::ObjectiveOnly,
                    );
                    Vec::new()
                } else {
                    let _extract = saccs_obs::span!("algo1.extract");
                    match self.extractor.as_ref() {
                        None => {
                            degradation.record(
                                Stage::Extract,
                                SaccsError::Unavailable {
                                    stage: Stage::Extract,
                                },
                                DegradeAction::ObjectiveOnly,
                            );
                            Vec::new()
                        }
                        Some(extractor) => {
                            let breaker = &self.breakers.extract;
                            match call_with_retry(Stage::Extract, breaker, &clock, || {
                                extractor.try_extract(utterance)
                            }) {
                                Ok(tags) => tags,
                                Err(err) => {
                                    degradation.record(
                                        Stage::Extract,
                                        err,
                                        DegradeAction::ObjectiveOnly,
                                    );
                                    Vec::new()
                                }
                            }
                        }
                    }
                }
            }
        };
        if tags.is_empty() {
            return finish(
                Self::passthrough(&api_results, config.top_k),
                degradation,
                &clock,
            );
        }

        // Personalization weights are pure in-memory compute over the
        // profile — computed up front so the probe loop below stays a
        // single pass.
        let weights: Option<Vec<f32>> = request.profile.as_ref().map(|(profile, boost)| {
            tags.iter()
                .map(|t| profile.weight(t, self.live.similarity(), *boost))
                .collect()
        });

        // Stage 3: per-tag probes. Each failing tag is dropped on its
        // own; the deadline is re-checked between tags so a lapsed
        // budget truncates the probe list instead of blocking. Each
        // probed tag's weighted scores land in a dense slot vector over
        // `0..=max candidate id`; entities outside it are never
        // aggregated, so they are dropped here.
        let slots = api_results.iter().max().map_or(0, |&id| id + 1);
        let mut per_tag: Vec<Vec<Option<f32>>> = Vec::with_capacity(tags.len());
        let mut probe_failures: Vec<SaccsError> = Vec::new();
        {
            let _probe = saccs_obs::span!("algo1.probe");
            let breaker = &self.breakers.probe;
            for (i, t) in tags.iter().enumerate() {
                if clock.expired() {
                    saccs_obs::counter!("fault.deadline.exceeded").inc();
                    saccs_obs::trace::record(saccs_obs::trace::TraceEvent::DeadlineExhausted {
                        stage: Stage::Probe.label(),
                    });
                    degradation.record(
                        Stage::Probe,
                        clock.exceeded_at(Stage::Probe),
                        DegradeAction::Partial,
                    );
                    break;
                }
                let w = weights.as_ref().map_or(1.0, |ws| ws[i]);
                match call_with_retry(Stage::Probe, breaker, &clock, || index.try_probe(t)) {
                    Ok(scores) => {
                        let mut dense = vec![None; slots];
                        for (e, s) in scores {
                            if let Some(slot) = dense.get_mut(e) {
                                *slot = Some(s * w);
                            }
                        }
                        per_tag.push(dense);
                    }
                    Err(err) => probe_failures.push(err),
                }
            }
        }
        // A dropped probe costs one tag if its siblings survived, and
        // the whole subjective stage if none did.
        let probe_action = if per_tag.is_empty() {
            DegradeAction::ObjectiveOnly
        } else {
            DegradeAction::DroppedTag
        };
        for err in probe_failures {
            degradation.record(Stage::Probe, err, probe_action);
        }
        if per_tag.is_empty() {
            return finish(
                Self::passthrough(&api_results, config.top_k),
                degradation,
                &clock,
            );
        }

        // Stage 4: pure in-memory aggregation — cannot fail.
        finish(
            self.aggregate_and_pad(&api_results, &per_tag, config),
            degradation,
            &clock,
        )
    }

    /// Extract tags from an utterance without ranking (for inspection).
    /// `Err(NoExtractor)` if the service was built
    /// [`SaccsService::with_live_index`].
    pub fn extract_tags(&self, utterance: &str) -> Result<Vec<SubjectiveTag>, SaccsError> {
        let extractor = self.extractor.as_ref().ok_or(SaccsError::NoExtractor)?;
        Ok(extractor.extract(utterance))
    }

    // ------------------------------------------------------------------
    // Shared internals
    // ------------------------------------------------------------------

    /// Objective passthrough: the API order verbatim with zero scores.
    fn passthrough(api: &[usize], k: usize) -> Vec<(usize, f32)> {
        api.iter().take(k).map(|&e| (e, 0.0)).collect()
    }

    /// Compile the request's filter against the index the probes read,
    /// with the search API as the objective catalog. Behind the
    /// `algo1.filter` failpoint so chaos scenarios can force the
    /// unfiltered degradation rung.
    fn try_filter(
        filter: &Filter,
        index: &SubjectiveIndex,
        api: &SearchApi<'_>,
    ) -> Result<CompiledFilter, SaccsError> {
        saccs_fault::failpoint!("algo1.filter")?;
        compile(filter, index, api, JoinOrder::RarestFirst).map_err(|e| invalid_filter(&e))
    }

    /// Algorithm 1 lines 11–12 over already-probed tag scores:
    /// intersect, aggregate, pad, rank. `per_tag` holds one dense slot
    /// vector (indexed by entity id, covering every candidate in
    /// `api_results`) per *successfully probed* tag — fewer vectors than
    /// extracted tags when probes were dropped, and the full/partial
    /// split then applies to the surviving tags only.
    fn aggregate_and_pad(
        &self,
        api_results: &[usize],
        per_tag: &[Vec<Option<f32>>],
        config: &SaccsConfig,
    ) -> Vec<(usize, f32)> {
        // Line 11: strict intersection, plus partial matches to pad with.
        let mut full: Vec<(usize, f32)> = Vec::new();
        let mut partial: Vec<(usize, f32, usize)> = Vec::new();
        {
            let _aggregate = saccs_obs::span!("algo1.aggregate");
            // One buffer for every candidate's present scores, in tag
            // order — the order the operators fold them in.
            let mut scores: Vec<f32> = Vec::with_capacity(per_tag.len());
            for &e in api_results {
                scores.clear();
                scores.extend(
                    per_tag
                        .iter()
                        .filter_map(|slots| slots.get(e).copied().flatten()),
                );
                if scores.len() == per_tag.len() {
                    full.push((e, config.aggregation.combine(&scores)));
                } else if !scores.is_empty() {
                    // When the strict intersection yields fewer than
                    // `top_k` entities, entities found under a subset of
                    // the tags pad the list below the full matches
                    // (short candidate lists would waste NDCG@k mass).
                    // Partials score as the aggregate of the *present* tags
                    // discounted by coverage. Under Mean this equals the
                    // zero-padded mean; under Product/Min it keeps partials
                    // comparable instead of collapsing them all to zero.
                    let coverage = scores.len() as f32 / per_tag.len() as f32;
                    let score = config.aggregation.combine(&scores) * coverage;
                    partial.push((e, score, scores.len()));
                }
            }
        }
        // The pad span covers the degenerate fallback too: a request's
        // trace always carries all five stages, whatever the data did.
        let _pad = saccs_obs::span!("algo1.pad");
        // Degenerate case: the subjective filters matched nothing at all
        // (e.g. every extracted tag is below θ_filter similarity to every
        // index tag). Fall back to the objective API order — SACCS then
        // behaves exactly like the underlying search service.
        if full.is_empty() && partial.is_empty() {
            return Self::passthrough(api_results, config.top_k);
        }
        let mut out = full;
        top_k_sorted(&mut out, config.top_k, |a, b| {
            b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
        });
        let room = config.top_k.saturating_sub(out.len());
        if room > 0 {
            top_k_sorted(&mut partial, room, |a, b| {
                b.2.cmp(&a.2).then(b.1.total_cmp(&a.1)).then(a.0.cmp(&b.0))
            });
            out.extend(partial.into_iter().map(|(e, s, _)| (e, s)));
        }
        out
    }
}

/// Keep the `k` first elements of `v` under `cmp`, in order, in
/// O(n + k log k). `cmp` breaks every tie by entity id, so it is a
/// total order and the result equals a full sort followed by
/// `truncate(k)`.
fn top_k_sorted<T>(v: &mut Vec<T>, k: usize, cmp: impl Fn(&T, &T) -> std::cmp::Ordering) {
    if v.len() > k {
        v.select_nth_unstable_by(k, &cmp);
        v.truncate(k);
    }
    v.sort_by(cmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::UserProfile;
    use saccs_index::index::IndexConfig;
    use saccs_index::LiveConfig;
    use saccs_text::{ConceptualSimilarity, Domain, Lexicon};

    fn tag(op: &str, asp: &str) -> SubjectiveTag {
        SubjectiveTag::new(op, asp)
    }

    /// Entities with the given ids, in the given order — the search API
    /// returns candidates in corpus order, so this is how tests gate and
    /// order the candidate pool through the request front door.
    fn entities_for(ids: &[usize]) -> Vec<saccs_data::Entity> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let lex = Lexicon::new(Domain::Restaurants);
        ids.iter()
            .map(|&i| {
                let mut rng = StdRng::seed_from_u64(5 + i as u64);
                saccs_data::Entity::sample(i, &lex, &mut rng)
            })
            .collect()
    }

    /// Rank pre-extracted tags against an explicit candidate list via
    /// the canonical request path.
    fn rank_tags(
        s: &SaccsService,
        tags: Vec<SubjectiveTag>,
        candidates: &[usize],
    ) -> Vec<(usize, f32)> {
        let ents = entities_for(candidates);
        let api = SearchApi::new(&ents);
        s.rank_request(&RankRequest::tags(tags), &api).results
    }

    /// Index with three entities of five reviews each: 0 is great food
    /// + nice staff, 1 is great food only, 2 is nice staff only.
    fn service() -> SaccsService {
        let live = LiveIndex::new(
            ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
            IndexConfig::default(),
            LiveConfig {
                seal_every: 0,
                max_segments: 0,
            },
        );
        for (entity_id, review_tags) in [
            (0, vec![tag("delicious", "food"), tag("friendly", "staff")]),
            (1, vec![tag("delicious", "food")]),
            (2, vec![tag("friendly", "staff")]),
        ] {
            live.add_review(entity_id, &review_tags);
            for _ in 1..5 {
                live.add_review(entity_id, &[]);
            }
        }
        live.add_tags(&[tag("delicious", "food"), tag("nice", "staff")]);
        SaccsService::with_live_index(Arc::new(live), SaccsConfig::default())
    }

    #[test]
    fn combine_on_empty_scores_is_zero_for_every_operator() {
        // Regression: Product used to return 1.0 and Min +∞ on an empty
        // slice, which would float garbage to the top of padded rankings.
        for agg in Aggregation::ALL {
            assert_eq!(agg.combine(&[]), 0.0, "{} on empty slice", agg.label());
        }
    }

    #[test]
    fn single_tag_ranks_by_degree() {
        let s = service();
        let ranked = rank_tags(&s, vec![tag("delicious", "food")], &[0, 1, 2]);
        let ids: Vec<usize> = ranked.iter().map(|(e, _)| *e).collect();
        assert!(ids.contains(&0) && ids.contains(&1));
        assert!(!ids.contains(&2) || ranked.iter().find(|(e, _)| *e == 2).unwrap().1 == 0.0);
    }

    #[test]
    fn intersection_prefers_entities_matching_all_tags() {
        let s = service();
        let ranked = rank_tags(
            &s,
            vec![tag("delicious", "food"), tag("nice", "staff")],
            &[0, 1, 2],
        );
        assert_eq!(
            ranked[0].0, 0,
            "only entity 0 matches both tags: {ranked:?}"
        );
    }

    #[test]
    fn partial_matches_pad_below_full_matches() {
        let s = service();
        let ranked = rank_tags(
            &s,
            vec![tag("delicious", "food"), tag("nice", "staff")],
            &[0, 1, 2],
        );
        // All three entities appear (top_k 10, padding on), 0 first.
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].0, 0);
    }

    #[test]
    fn per_request_config_overrides_service_config() {
        // The service returns its default top_k; the request shrinks it.
        // Tags-input requests need no extractor and no live API entities
        // beyond the candidate gate.
        let s = service();
        let ents = entities(3);
        let api = SearchApi::new(&ents);
        let padded = s.rank_request(
            &RankRequest::tags(vec![tag("delicious", "food"), tag("nice", "staff")]),
            &api,
        );
        assert_eq!(padded.results.len(), 3);
        let strict = s.rank_request(
            &RankRequest::tags(vec![tag("delicious", "food"), tag("nice", "staff")]).with_config(
                SaccsConfig {
                    top_k: 1,
                    ..SaccsConfig::default()
                },
            ),
            &api,
        );
        assert_eq!(strict.results.len(), 1, "{:?}", strict.results);
        assert_eq!(strict.results[0], padded.results[0]);
        assert!(strict.is_full_fidelity());
        // The service's own config is untouched by the override.
        assert_eq!(s.config().top_k, SaccsConfig::default().top_k);
    }

    #[test]
    fn tags_input_skips_the_extract_breaker_entirely() {
        let s = service();
        let ents = entities(3);
        let api = SearchApi::new(&ents);
        let before = s.breakers().extract.times_opened();
        let response = s.rank_request(&RankRequest::tags(vec![tag("delicious", "food")]), &api);
        assert!(!response.results.is_empty());
        assert!(response.is_full_fidelity());
        assert_eq!(s.breakers().extract.times_opened(), before);
    }

    #[test]
    fn extract_tags_without_an_extractor_is_no_extractor() {
        let s = service();
        assert_eq!(
            s.extract_tags("delicious food"),
            Err(SaccsError::NoExtractor)
        );
    }

    #[test]
    fn api_results_gate_the_candidates() {
        let s = service();
        let ranked = rank_tags(&s, vec![tag("delicious", "food")], &[1]);
        assert!(ranked.iter().all(|(e, _)| *e == 1));
    }

    #[test]
    fn empty_tags_pass_api_order_through() {
        let s = service();
        let ranked = rank_tags(&s, vec![], &[2, 0, 1]);
        assert_eq!(
            ranked.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![2, 0, 1]
        );
    }

    #[test]
    fn unknown_tag_uses_similarity_fallback_and_history() {
        let s = service();
        // "scrumptious food" is not an index tag; similar to delicious food.
        let ranked = rank_tags(&s, vec![tag("scrumptious", "food")], &[0, 1, 2]);
        assert!(!ranked.is_empty());
        assert_eq!(s.index().history().len(), 1);
    }

    #[test]
    fn aggregation_operators_differ() {
        let mut s = service();
        let tags = vec![tag("delicious", "food"), tag("nice", "staff")];
        let mean = rank_tags(&s, tags.clone(), &[0, 1, 2]);
        s.config.aggregation = Aggregation::Product;
        let product = rank_tags(&s, tags.clone(), &[0, 1, 2]);
        s.config.aggregation = Aggregation::Min;
        let min = rank_tags(&s, tags, &[0, 1, 2]);
        // Same top entity (0 matches everything), but different scores.
        assert_eq!(mean[0].0, 0);
        assert_eq!(product[0].0, 0);
        assert_eq!(min[0].0, 0);
        assert_ne!(mean[0].1, product[0].1);
    }

    #[test]
    fn personalization_tilts_toward_standing_interests() {
        let s = service();
        // Query mentions both dimensions; entity 1 excels at food, entity
        // 2 at staff. A staff-obsessed profile must pull entity 2 above 1.
        let tags = vec![tag("delicious", "food"), tag("nice", "staff")];
        let mut profile = UserProfile::new();
        for _ in 0..8 {
            profile.observe(&[tag("friendly", "staff")]);
        }
        let ents = entities_for(&[1, 2]);
        let api = SearchApi::new(&ents);
        let ranked = s
            .rank_request(
                &RankRequest::tags(tags.clone()).with_profile(profile, 2.0),
                &api,
            )
            .results;
        // Both entities match exactly one tag each; the profile weight on
        // the staff side must put entity 2 first.
        let pos1 = ranked.iter().position(|(e, _)| *e == 1).unwrap();
        let pos2 = ranked.iter().position(|(e, _)| *e == 2).unwrap();
        assert!(pos2 < pos1, "profile did not tilt ranking: {ranked:?}");
        // With boost 0 the order is purely score-based and deterministic.
        let neutral = s
            .rank_request(
                &RankRequest::tags(tags).with_profile(UserProfile::new(), 0.0),
                &api,
            )
            .results;
        assert_eq!(neutral.len(), 2);
    }

    fn entities(n: usize) -> Vec<saccs_data::Entity> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let lex = Lexicon::new(Domain::Restaurants);
        let mut rng = StdRng::seed_from_u64(5);
        (0..n)
            .map(|i| saccs_data::Entity::sample(i, &lex, &mut rng))
            .collect()
    }

    #[test]
    fn utterance_request_without_extractor_is_objective_only() {
        // A service built without an extractor: the request degrades to
        // the objective order and says why.
        let ents = entities(3);
        let api = SearchApi::new(&ents);
        let s = service();
        let out = s.rank_request(&RankRequest::utterance("delicious food"), &api);
        assert_eq!(out.results, vec![(0, 0.0), (1, 0.0), (2, 0.0)]);
        assert!(out.degradation.is_degraded());
        assert_eq!(out.degradation.worst(), Some(DegradeAction::ObjectiveOnly));
        assert!(matches!(
            out.degradation.events[0].error,
            SaccsError::Unavailable { .. }
        ));
    }

    #[test]
    fn zero_deadline_reports_instead_of_blocking() {
        let ents = entities(3);
        let api = SearchApi::new(&ents);
        let s = service().with_resilience(ResilienceConfig {
            deadline: Some(std::time::Duration::ZERO),
        });
        let out = s.rank_request(&RankRequest::utterance("delicious food"), &api);
        assert!(out.results.is_empty());
        assert_eq!(out.degradation.worst(), Some(DegradeAction::Empty));
        assert!(matches!(
            out.degradation.events[0].error,
            SaccsError::DeadlineExceeded { .. }
        ));
    }

    #[test]
    fn top_k_truncates() {
        let mut s = service();
        s.config.top_k = 1;
        let ranked = rank_tags(
            &s,
            vec![tag("delicious", "food"), tag("nice", "staff")],
            &[0, 1, 2],
        );
        assert_eq!(ranked.len(), 1);
    }

    #[test]
    fn filter_retains_matches_and_degrades_when_uncompilable() {
        let s = service();
        let ents = entities(3);
        let api = SearchApi::new(&ents);
        // "delicious" matches the delicious-food postings: entities 0
        // and 1. Entity 2 is cut before ranking, at full fidelity.
        let req = RankRequest::tags(vec![tag("delicious", "food")]).with_filter_dsl("delicious");
        let out = s.rank_request(&req, &api);
        assert!(out.is_full_fidelity());
        let ids = out.item_ids();
        assert!(
            ids.contains(&0) && ids.contains(&1) && !ids.contains(&2),
            "{ids:?}"
        );

        // An unknown attribute cannot compile: the request ranks
        // unfiltered on the mildest rung and reports the invalid filter.
        let bad =
            RankRequest::tags(vec![tag("delicious", "food")]).with_filter_dsl("Parking=garage");
        let out = s.rank_request(&bad, &api);
        assert_eq!(out.degradation.worst(), Some(DegradeAction::Unfiltered));
        assert!(!out.results.is_empty());
        assert!(matches!(
            out.degradation.events[0].error,
            SaccsError::InvalidRequest {
                field: "filter",
                ..
            }
        ));

        // A DSL that does not parse, ranked without the `sanitized()`
        // admission check, degrades the same way with its parse error.
        let malformed =
            RankRequest::tags(vec![tag("delicious", "food")]).with_filter_dsl("price<=nine");
        let out = s.rank_request(&malformed, &api);
        assert_eq!(out.degradation.worst(), Some(DegradeAction::Unfiltered));
        assert!(!out.results.is_empty());
        match &out.degradation.events[0].error {
            SaccsError::InvalidRequest { field, reason } => {
                assert_eq!(*field, "filter");
                assert_eq!(reason, "bad price literal \"nine\" (at bytes 7..11)");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }

    proptest::proptest! {
        /// Top-k selection equals a full sort and `truncate(k)`, bit for
        /// bit, under the ranking order (tied scores, signed zeros).
        #[test]
        fn top_k_sorted_equals_sort_then_truncate(
            scores in proptest::collection::vec(0usize..6, 0..300),
            k in 0usize..40,
        ) {
            const PALETTE: [f32; 6] = [0.0, -0.0, 0.5, 0.5, 1.25, -2.0];
            let cmp = |a: &(usize, f32), b: &(usize, f32)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
            let mut want: Vec<(usize, f32)> =
                scores.iter().enumerate().map(|(e, &s)| (e, PALETTE[s])).collect();
            let mut got = want.clone();
            want.sort_by(cmp);
            want.truncate(k);
            top_k_sorted(&mut got, k, cmp);
            let bits = |v: &[(usize, f32)]| v.iter().map(|&(e, s)| (e, s.to_bits())).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}
