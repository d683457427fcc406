//! Subjective query language suite: the filter front door end to end.
//!
//! The contract under test is the query PR's headline claim: a
//! [`RankRequest::with_filter`] flows unchanged through the serving
//! front end, compiles against the same pinned snapshot the probes
//! read, and yields **bitwise identical** filtered rankings at serve
//! widths 1, 2 and 8, at every intermediate state of an interleaved
//! ingest stream — always equal to a service over a from-scratch replay
//! of the same review log, which scans where the live index answers
//! fallback probes through its cell index.
//!
//! Also covered: planner join-order invariance (rarest-first ==
//! left-to-right == the naive per-entity evaluator), the unfiltered
//! degradation rung for filters that cannot compile, admission-time
//! rejection of malformed filter DSL at the `sanitized()` seam, and
//! the `algo1.filter` stage span + `filter:` plan event in traces, and
//! entity ids of any size through probes, filters and a reopen.

mod common;

use common::{
    bits, entities, global_lock, live_index, live_server, rebuild, sim, stream, tag, vocabulary,
};
use saccs::core::{DegradeAction, RankRequest, SaccsConfig, SaccsError, SaccsService, SearchApi};
use saccs::index::index::IndexConfig;
use saccs::index::{LiveConfig, LiveIndex, ReviewRecord};
use saccs::obs::trace::install;
use saccs::obs::TraceContext;
use saccs::query::{compile, naive_matches, Filter, JoinOrder};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Filter DSL shapes spanning the grammar: bare opinion, thresholded
/// tag, boolean connectives, negation, and objective predicates folded
/// into the same plan.
fn filter_dsls() -> Vec<&'static str> {
    vec![
        "delicious",
        "cozy ambiance@0.05 OR friendly staff",
        "delicious AND NOT cozy ambiance, price<=3",
        "(delicious OR friendly staff@0.1) AND rating>=1.0",
        "NOT Ambience=romantic",
    ]
}

/// Filtered rank requests exercising each DSL shape against the
/// subjective tags the stream populates.
fn filtered_requests() -> Vec<RankRequest> {
    filter_dsls()
        .into_iter()
        .map(|dsl| {
            RankRequest::tags(vec![tag("delicious", "food"), tag("nice", "staff")])
                .with_filter_dsl(dsl)
        })
        .collect()
}

/// Filtered requests through the served admission queue, interleaved
/// with ingest traffic, must answer bitwise identically to a replay at
/// every ingestion state, at serve widths 1, 2 and 8: the live side
/// through its cell index, the replay by scan.
#[test]
fn filtered_rankings_are_bitwise_stable_across_widths_ann_and_ingest_states() {
    let _serial = global_lock();
    for workers in [1usize, 2, 8] {
        let live = live_index();
        let (server, ents) = live_server(&live, workers);
        let api = SearchApi::new(&ents);
        let mut log: Vec<ReviewRecord> = Vec::new();
        for (entity_id, review_tags) in stream() {
            let receipt = server
                .submit_ingest(entity_id, review_tags.clone())
                .expect("ingest admitted");
            log.push(ReviewRecord {
                seq: receipt.seq,
                entity_id,
                tags: review_tags,
            });
            let replay =
                SaccsService::with_live_index(rebuild(&log, &vocabulary()), SaccsConfig::default());
            for (served, reference) in filtered_requests().into_iter().zip(
                filtered_requests()
                    .iter()
                    .map(|r| replay.rank_request(r, &api)),
            ) {
                let dsl = served
                    .filter
                    .as_ref()
                    .and_then(|f| f.source())
                    .unwrap_or("<none>")
                    .to_string();
                let response = server.submit(served).expect("rank admitted");
                assert!(
                    response.is_full_fidelity(),
                    "filter `{dsl}` degraded (workers={workers})"
                );
                assert_eq!(
                    bits(&response.results),
                    bits(&reference.results),
                    "served filtered ranking diverged from the replay for `{dsl}` \
                     after {} reviews (workers={workers}, segments={})",
                    log.len(),
                    live.segment_count(),
                );
            }
        }
    }
}

/// Join-order invariance: the cost-based rarest-first plan, the naive
/// left-to-right plan and the per-entity reference evaluator agree on
/// the exact match set for every DSL shape, against the same index the
/// serving path uses.
#[test]
fn planner_join_order_never_changes_the_match_set() {
    let _serial = global_lock();
    let log: Vec<ReviewRecord> = stream()
        .into_iter()
        .enumerate()
        .map(|(i, (entity_id, tags))| ReviewRecord {
            seq: i as u64,
            entity_id,
            tags,
        })
        .collect();
    let idx = rebuild(&log, &vocabulary()).pin();
    let ents = entities(5);
    let api = SearchApi::new(&ents);
    for dsl in filter_dsls() {
        let filter = Filter::parse(dsl).expect("all suite DSLs parse");
        let rare = compile(&filter, &idx, &api, JoinOrder::RarestFirst).expect("compiles");
        let ltr = compile(&filter, &idx, &api, JoinOrder::LeftToRight).expect("compiles");
        let reference = naive_matches(&filter, &idx, &api).expect("naive evaluates");
        assert_eq!(
            rare.bitmap().to_vec(),
            ltr.bitmap().to_vec(),
            "join order changed the match set for `{dsl}`"
        );
        assert_eq!(
            rare.bitmap().to_vec(),
            reference,
            "planner disagrees with the naive evaluator for `{dsl}`"
        );
    }
}

/// A filter naming an attribute outside the schema cannot compile; the
/// served request ranks unfiltered on the mildest degradation rung and
/// its results equal the unfiltered request bitwise.
#[test]
fn uncompilable_filter_degrades_to_unfiltered_through_the_server() {
    let _serial = global_lock();
    let live = live_index();
    let (server, _ents) = live_server(&live, 2);
    for (entity_id, review_tags) in stream() {
        server
            .submit_ingest(entity_id, review_tags)
            .expect("ingest admitted");
    }
    let tags = vec![tag("delicious", "food")];
    let unfiltered = server
        .submit(RankRequest::tags(tags.clone()))
        .expect("rank admitted");
    let degraded = server
        .submit(RankRequest::tags(tags).with_filter_dsl("Parking=garage"))
        .expect("an uncompilable filter is degraded, not shed");
    assert_eq!(
        degraded.degradation.worst(),
        Some(DegradeAction::Unfiltered)
    );
    assert_eq!(bits(&degraded.results), bits(&unfiltered.results));
}

/// Malformed filter DSL never becomes a queued job: `submit` rejects it
/// at the `sanitized()` seam with the parse error's byte span, and the
/// admission counters do not move.
#[test]
fn malformed_filter_dsl_is_rejected_at_admission() {
    let _serial = global_lock();
    let live = live_index();
    let (server, _ents) = live_server(&live, 1);
    let before = server.stats();
    let err = server
        .submit(RankRequest::tags(vec![tag("delicious", "food")]).with_filter_dsl("price<=nine"))
        .expect_err("malformed DSL must be rejected before admission");
    match err {
        SaccsError::InvalidRequest { field, reason } => {
            assert_eq!(field, "filter");
            assert!(reason.contains("bytes 7..11"), "span surfaces: {reason}");
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    let after = server.stats();
    assert_eq!(after.submitted, before.submitted, "never admitted");
    assert_eq!(after.shed, before.shed, "a caller error is not a shed");
}

/// The filter stage is traced: the request's context carries the
/// deterministic `filter:leaves:candidates:passed` plan event.
#[test]
fn filter_stage_emits_a_plan_trace_event() {
    let _serial = global_lock();
    let log: Vec<ReviewRecord> = stream()
        .into_iter()
        .enumerate()
        .map(|(i, (entity_id, tags))| ReviewRecord {
            seq: i as u64,
            entity_id,
            tags,
        })
        .collect();
    let svc = SaccsService::with_live_index(rebuild(&log, &vocabulary()), SaccsConfig::default());
    let ents = entities(5);
    let api = SearchApi::new(&ents);
    let ctx = TraceContext::new(7);
    let request = RankRequest::tags(vec![tag("delicious", "food")]).with_filter_dsl("delicious");
    let normals: Vec<String> = {
        let _scope = install(Arc::clone(&ctx));
        let response = svc.rank_request(&request, &api);
        assert!(response.is_full_fidelity());
        ctx.events().iter().map(|e| e.normal()).collect()
    };
    let plan = normals
        .iter()
        .find(|n| n.starts_with("filter:"))
        .expect("plan event recorded");
    // One leaf, five objective candidates; the passed count must match
    // the reference evaluator over the same index and catalog.
    let expected = naive_matches(
        request.filter.as_ref().expect("filter attached"),
        &svc.index(),
        &api,
    )
    .expect("reference evaluates")
    .len();
    assert_eq!(plan, &format!("filter:1:5:{expected}"));
}

/// Entity ids size nothing: reviews for `usize::MAX` and `1 << 40`
/// beside small ids go through an exact probe, a fallback probe, filter
/// compiles over either, a checkpoint and a reopen. Nothing panics and
/// every id comes back unchanged; ids past the catalog cannot pass a
/// filter.
#[test]
fn huge_entity_ids_survive_probes_filters_and_a_reopen() {
    let _serial = global_lock();
    let reviewed = [0, usize::MAX, 3, 1 << 40, usize::MAX];
    let dir = std::env::temp_dir().join(format!("saccs-huge-ids-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        let config = LiveConfig {
            seal_every: 2,
            max_segments: 0,
        };
        LiveIndex::open(&dir, sim(), IndexConfig::default(), config).expect("opens")
    };
    let check = |live: &LiveIndex| {
        let snapshot = live.pin();
        let ids = |answer: Vec<(usize, f32)>| -> BTreeSet<usize> {
            answer.into_iter().map(|(e, _)| e).collect()
        };
        let all: BTreeSet<usize> = reviewed.into_iter().collect();
        let (exact, fallback) = (tag("delicious", "food"), tag("tasty", "meal"));
        assert!(snapshot.lookup(&exact).is_some() && snapshot.lookup(&fallback).is_none());
        assert_eq!(ids(snapshot.probe_readonly(&exact)), all);
        assert_eq!(ids(snapshot.probe_readonly(&fallback)), all);
        let ents = entities(5);
        let api = SearchApi::new(&ents);
        for dsl in ["delicious food@0.01", "tasty meal@0.01"] {
            let filter = Filter::parse(dsl).expect("parses");
            let compiled =
                compile(&filter, &snapshot, &api, JoinOrder::RarestFirst).expect("compiles");
            assert_eq!(compiled.bitmap().to_vec(), vec![0, 3], "{dsl}");
        }
    };
    let live = open();
    live.add_tags(&vocabulary());
    for &id in &reviewed {
        live.add_review(id, &[tag("delicious", "food"), tag("friendly", "staff")]);
    }
    check(&live);
    live.checkpoint().expect("checkpoints");
    drop(live);
    let reopened = open();
    let log: Vec<usize> = reopened.review_log().iter().map(|r| r.entity_id).collect();
    assert_eq!(log, reviewed);
    check(&reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
