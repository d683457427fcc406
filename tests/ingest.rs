//! Ingest-while-serving equivalence suite: the segmented live index
//! behind the full `saccs-serve` front end.
//!
//! The contract under test: a server whose service fronts a
//! [`LiveIndex`] answers every rank request — at any worker count —
//! **bitwise identically** to a service over a from-scratch replay of
//! the same review log, at *every* intermediate state of the stream:
//! mid mem-segment, right after a seal, and right after a compaction
//! merge. The live side splices each review into its columns and
//! answers fallback probes through its cell index; the replay folds
//! whole columns, scans, and is itself pinned to a naive Equation-1
//! evaluator. Ingestion rides the same bounded admission queue as rank
//! traffic, so the interleaving here exercises real queue-sharing, not
//! a side channel.
//!
//! Also covered: serve-level ingest accounting (`ServeStats`), the
//! admission-time rejection of entity ids outside the served catalog,
//! and the `ingest:buffered` / `ingest:sealed` trace events.

mod common;

use common::{bits, global_lock, live_index, live_server, rebuild, stream, tag, vocabulary};
use saccs::core::{RankRequest, SaccsConfig, SaccsError, SaccsService, SearchApi, Stage};
use saccs::index::ReviewRecord;
use saccs::obs::trace::install;
use saccs::obs::TraceContext;
use std::sync::Arc;

/// Rank requests probing indexed tags, a near-synonym and an unknown
/// tag (the fallback + history-recording path).
fn rank_requests() -> Vec<RankRequest> {
    vec![
        RankRequest::tags(vec![tag("delicious", "food"), tag("nice", "staff")]),
        RankRequest::tags(vec![tag("cozy", "ambiance")]),
        RankRequest::tags(vec![tag("quiet", "place")]),
    ]
}

/// Interleave ingest and rank traffic through the served admission
/// queue and demand bitwise equality with a from-scratch replay at
/// every seal/merge state, at serve widths 1, 2 and 8.
#[test]
fn interleaved_ingest_and_rank_matches_rebuild_at_every_state() {
    let _serial = global_lock();
    for workers in [1usize, 2, 8] {
        let live = live_index();
        let (server, ents) = live_server(&live, workers);
        let api = SearchApi::new(&ents);
        let mut log: Vec<ReviewRecord> = Vec::new();
        let mut seals = 0usize;
        for (entity_id, review_tags) in stream() {
            let receipt = server
                .submit_ingest(entity_id, review_tags.clone())
                .expect("ingest admitted");
            if receipt.sealed {
                seals += 1;
            }
            log.push(ReviewRecord {
                seq: receipt.seq,
                entity_id,
                tags: review_tags,
            });
            let replay =
                SaccsService::with_live_index(rebuild(&log, &vocabulary()), SaccsConfig::default());
            for (served, reference) in rank_requests()
                .into_iter()
                .zip(rank_requests().iter().map(|r| replay.rank_request(r, &api)))
            {
                let response = server.submit(served).expect("rank admitted");
                assert!(response.is_full_fidelity());
                assert_eq!(
                    bits(&response.results),
                    bits(&reference.results),
                    "served ranking diverged from the replay after {} reviews \
                     (workers={workers}, segments={})",
                    log.len(),
                    live.segment_count(),
                );
            }
        }
        // The cadence actually exercised seals and compaction: 10
        // reviews at seal_every=2 seal five times, and max_segments=3
        // forces at least one inline merge, so the final sealed set
        // is smaller than the number of seals.
        assert_eq!(seals, 5, "workers={workers}");
        assert!(
            live.segment_count() < seals,
            "compaction never merged (workers={workers}, segments={})",
            live.segment_count(),
        );
        assert_eq!(live.review_log(), log, "workers={workers}");
    }
}

/// Ingestion shares the admission queue: receipts are sequential, the
/// serve-level counters attribute ingest and rank traffic separately,
/// and old pinned snapshots stay readable mid-stream.
#[test]
fn serve_stats_attribute_ingest_and_rank_separately() {
    let _serial = global_lock();
    let live = live_index();
    let (server, _ents) = live_server(&live, 2);
    let early = live.pin();
    let early_bits = bits(&live.probe_pinned(&early, &tag("delicious", "food")));
    for (i, (entity_id, review_tags)) in stream().into_iter().enumerate() {
        let receipt = server
            .submit_ingest(entity_id, review_tags)
            .expect("ingest admitted");
        assert_eq!(receipt.seq, i as u64, "receipts must be sequential");
    }
    let _ = server
        .submit(RankRequest::tags(vec![tag("delicious", "food")]))
        .expect("rank admitted");
    let stats = server.stats();
    assert_eq!(stats.ingested, 10);
    assert_eq!(stats.served, 1, "rank and ingest counters must not mix");
    assert_eq!(stats.submitted, 11, "both kinds ride the admission queue");
    assert_eq!(stats.shed, 0);
    // Snapshot isolation across the whole served stream: the pre-ingest
    // pin still answers with its original (empty-index) bits.
    assert_eq!(
        bits(&live.probe_pinned(&early, &tag("delicious", "food"))),
        early_bits
    );
}

/// A review for an entity outside the server's table is a typed
/// rejection before admission: counted neither as submitted nor as
/// shed, and never applied to the live index.
#[test]
fn ingest_for_an_unknown_entity_is_rejected_before_admission() {
    let _serial = global_lock();
    let live = live_index();
    let (server, ents) = live_server(&live, 2);
    for entity_id in [ents.len(), 1 << 40, usize::MAX] {
        let err = server
            .submit_ingest(entity_id, vec![tag("delicious", "food")])
            .expect_err("unknown entity must be rejected");
        assert!(
            matches!(
                err,
                SaccsError::InvalidRequest {
                    field: "entity_id",
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(err.stage(), Stage::Admission);
    }
    let stats = server.stats();
    assert_eq!((stats.submitted, stats.shed, stats.ingested), (0, 0, 0));
    assert!(live.review_log().is_empty());
    // A catalog entity is still admitted, and the next fallback probe
    // answers normally.
    let receipt = server
        .submit_ingest(ents.len() - 1, vec![tag("delicious", "food")])
        .expect("catalog entity admitted");
    assert_eq!(receipt.seq, 0);
    let response = server
        .submit(RankRequest::tags(vec![tag("tasty", "meal")]))
        .expect("rank admitted");
    assert!(response.is_full_fidelity());
    assert_eq!(server.stats().submitted, 2);
}

/// Every ingest records a trace event on the caller's context:
/// `ingest:buffered` while the mem-segment absorbs the review,
/// `ingest:sealed` on the write that trips the seal cadence.
#[test]
fn ingest_emits_buffered_and_sealed_trace_events() {
    let _serial = global_lock();
    let live = live_index();
    let svc = SaccsService::with_live_index(Arc::clone(&live), SaccsConfig::default());
    let ctx = TraceContext::new(42);
    let normals: Vec<String> = {
        let _scope = install(Arc::clone(&ctx));
        svc.ingest(0, &[tag("delicious", "food")]);
        svc.ingest(1, &[tag("friendly", "staff")]);
        ctx.events().iter().map(|e| e.normal()).collect()
    };
    assert_eq!(
        normals,
        vec!["ingest:buffered".to_string(), "ingest:sealed".to_string()],
        "seal_every=2: first write buffers, second seals"
    );
}
