//! Chaos suite: seeded fault schedules driving the hardened rank path.
//!
//! The ungated tests pin the zero-fault contract: `rank_request` is
//! bitwise identical to a small Algorithm-1 reference written out in
//! this file, and a tag-free utterance passes the objective order
//! through without ever entering the pad stage. The
//! `fault`-gated tests arm deterministic schedules (`saccs-fault`) and
//! drive the degradation ladder end to end:
//!
//! ```text
//! cargo test --features fault --test chaos -- --nocapture
//! ```
//!
//! Every armed test prints its `(seed, scenario)` pair; replaying a
//! failure is `arm_guard(&Scenario::parse(printed)?, printed_seed)`.
//!
//! The fault registry, the span-timing switch and the metrics registry
//! are process-global, so every test takes the file-wide mutex and
//! asserts on counter *deltas*: instruments live as long as the
//! process, so earlier tests have already moved them.

use saccs::core::{RankRequest, SaccsBuilder, SearchApi, Slots, TrainedSaccs};
use saccs::data::yelp::{YelpConfig, YelpCorpus};
use saccs::text::{Domain, Lexicon};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

fn corpus() -> &'static YelpCorpus {
    static CORPUS: OnceLock<YelpCorpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        YelpCorpus::generate(
            Lexicon::new(Domain::Restaurants),
            &YelpConfig {
                n_entities: 24,
                n_reviews: 420,
                seed: 42,
                ..Default::default()
            },
        )
    })
}

fn saccs() -> TrainedSaccs {
    SaccsBuilder::quick().build(corpus())
}

/// Serialize the whole file: armed schedules, the span-timing switch and
/// the metrics registry are shared process state. A panicking test must not
/// wedge the rest, so poison is swallowed.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(feature = "fault")]
fn counter(name: &str) -> u64 {
    saccs::obs::registry().counter(name).get()
}

/// Scores compared by bit pattern: "same ranking" here means the exact
/// same floats, not approximately equal ones.
fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(e, s)| (e, s.to_bits())).collect()
}

/// The objective passthrough `rank_request` must fall back to: the API
/// order with zero scores, truncated to `top_k`.
fn objective_order(api: &SearchApi<'_>, top_k: usize) -> Vec<(usize, f32)> {
    api.search(&Slots::default())
        .into_iter()
        .take(top_k)
        .map(|e| (e, 0.0))
        .collect()
}

const UTTERANCES: [&str; 3] = [
    "I want a restaurant with delicious food and a nice staff",
    "somewhere with friendly staff and tasty food",
    "find me a cozy place with a great atmosphere",
];

/// Algorithm 1 written out from the service's public pieces, sharing no
/// code with the rank path past the index probe: objective search,
/// extraction, one read-only probe per tag, then the strict
/// intersection ranked by the §3.3 mean, padded with partial matches
/// scored as their mean discounted by tag coverage.
fn reference_rank(
    trained: &TrainedSaccs,
    api: &SearchApi<'_>,
    request: &RankRequest,
    utterance: &str,
) -> Vec<(usize, f32)> {
    let service = &trained.service;
    let top_k = service.config().top_k;
    let candidates = api.search(&request.slots);
    let tags = service.extract_tags(utterance).expect("extractor present");
    let per_tag: Vec<Vec<(usize, f32)>> = tags
        .iter()
        .map(|t| service.index().probe_readonly(t))
        .collect();
    let mut full: Vec<(usize, f32)> = Vec::new();
    let mut partial: Vec<(usize, f32, usize)> = Vec::new();
    for &e in &candidates {
        let scores: Vec<f32> = per_tag
            .iter()
            .filter_map(|hits| hits.iter().find(|&&(id, _)| id == e).map(|&(_, s)| s))
            .collect();
        if scores.is_empty() {
            continue;
        }
        let mean = scores.iter().sum::<f32>() / scores.len() as f32;
        if scores.len() == per_tag.len() {
            full.push((e, mean));
        } else {
            let coverage = scores.len() as f32 / per_tag.len() as f32;
            partial.push((e, mean * coverage, scores.len()));
        }
    }
    if full.is_empty() && partial.is_empty() {
        return candidates.iter().take(top_k).map(|&e| (e, 0.0)).collect();
    }
    full.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    partial.sort_by(|a, b| b.2.cmp(&a.2).then(b.1.total_cmp(&a.1)).then(a.0.cmp(&b.0)));
    if full.len() < top_k {
        full.extend(partial.into_iter().map(|(e, s, _)| (e, s)));
    }
    full.truncate(top_k);
    full
}

#[test]
fn rank_resilient_is_bitwise_identical_to_rank_without_faults() {
    let _serial = global_lock();
    let trained = saccs();
    let api = SearchApi::new(&corpus().entities);
    for utterance in UTTERANCES {
        let request = RankRequest::utterance(utterance);
        let reference = reference_rank(&trained, &api, &request, utterance);
        assert!(!reference.is_empty(), "reference ranked nothing");
        let served = trained.service.rank_request(&request, &api);
        assert!(
            served.is_full_fidelity(),
            "fault-free run degraded on {utterance:?}: {:?}",
            served.degradation.events
        );
        assert_eq!(
            bits(&reference),
            bits(&served.results),
            "rank_request diverged from the reference on {utterance:?}"
        );
    }
}

/// Satellite regression: an utterance with no subjective signal (and
/// empty slots) must pass the API order through verbatim — and must do
/// so via the early passthrough, never reaching the pad stage. The
/// `algo1.pad` histogram (spans record durations there while span
/// timing is on) pins that: its sample count may not move.
#[test]
fn tag_free_rank_passes_api_order_through_without_padding() {
    let _serial = global_lock();
    let trained = saccs();
    let api = SearchApi::new(&corpus().entities);
    assert!(
        trained
            .service
            .extract_tags("")
            .expect("extractor present")
            .is_empty(),
        "empty utterance extracted tags"
    );

    saccs::obs::set_enabled(true);
    let pad_before = saccs::obs::registry().histogram("algo1.pad").count();
    let rank_before = saccs::obs::registry().histogram("algo1.rank").count();
    let ranked = trained
        .service
        .rank_request(&RankRequest::utterance(""), &api);
    saccs::obs::set_enabled(false);
    assert!(ranked.is_full_fidelity(), "{:?}", ranked.degradation.events);

    let top_k = trained.service.config().top_k;
    assert_eq!(
        bits(&ranked.results),
        bits(&objective_order(&api, top_k)),
        "tag-free rank is not the objective passthrough"
    );
    assert_eq!(
        saccs::obs::registry().histogram("algo1.rank").count(),
        rank_before + 1,
        "rank span did not record"
    );
    assert_eq!(
        saccs::obs::registry().histogram("algo1.pad").count(),
        pad_before,
        "pad stage ran on a tag-free utterance"
    );
}

#[cfg(feature = "fault")]
mod armed {
    use super::*;
    use saccs::core::{DegradeAction, ResilienceConfig, SaccsError};
    use saccs::fault::{arm_guard, Scenario};
    use std::time::Duration;

    /// Permanent probe outage: every request must degrade to the
    /// objective order (never panic, never go empty), with a non-empty
    /// degradation report, and `fault.degraded_requests` must count
    /// each one exactly once.
    #[test]
    fn permanent_probe_fault_degrades_every_request_to_objective_only() {
        let _serial = global_lock();
        let trained = saccs();
        let api = SearchApi::new(&corpus().entities);
        let expected = objective_order(&api, trained.service.config().top_k);

        const SEED: u64 = 7;
        let scenario = Scenario::parse("algo1.probe=err").expect("scenario parses");
        println!("chaos replay: seed={SEED} scenario={scenario}");
        let degraded_before = counter("fault.degraded_requests");
        let _faults = arm_guard(&scenario, SEED);

        const REQUESTS: u64 = 4;
        for (i, utterance) in UTTERANCES
            .iter()
            .cycle()
            .take(REQUESTS as usize)
            .enumerate()
        {
            let outcome = trained
                .service
                .rank_request(&RankRequest::utterance(*utterance), &api);
            assert_eq!(
                bits(&outcome.results),
                bits(&expected),
                "request {i} is not the objective fallback"
            );
            assert!(
                outcome.degradation.is_degraded(),
                "request {i} reported no degradation"
            );
            assert_eq!(
                outcome.degradation.worst(),
                Some(DegradeAction::ObjectiveOnly),
                "request {i} worst rung"
            );
        }
        assert_eq!(
            counter("fault.degraded_requests") - degraded_before,
            REQUESTS,
            "degraded_requests must count each request once"
        );
        assert!(
            trained.service.breakers().probe.times_opened() >= 1,
            "a permanent outage must trip the probe breaker"
        );
    }

    /// Transient faults inside the retry budget are fully absorbed: two
    /// failing probe calls, then recovery — the ranking is byte-identical
    /// to the fault-free run and nothing degrades.
    #[test]
    fn retries_absorb_transient_probe_faults_bitwise() {
        let _serial = global_lock();
        let trained = saccs();
        let api = SearchApi::new(&corpus().entities);
        let request = RankRequest::utterance(UTTERANCES[0]);
        let reference = trained.service.rank_request(&request, &api);
        assert!(reference.is_full_fidelity());

        const SEED: u64 = 11;
        // Probe calls 1 and 2 fail; the default policy retries up to 3
        // attempts, so the first tag recovers on its third call.
        let scenario = Scenario::parse("algo1.probe=err@1..3").expect("scenario parses");
        println!("chaos replay: seed={SEED} scenario={scenario}");
        let retries_before = counter("fault.retry.attempts");
        let outcome = {
            let _faults = arm_guard(&scenario, SEED);
            trained.service.rank_request(&request, &api)
        };
        assert!(
            outcome.is_full_fidelity(),
            "absorbed faults must not degrade: {:?}",
            outcome.degradation.events
        );
        assert_eq!(
            bits(&outcome.results),
            bits(&reference.results),
            "ranking changed once the faults cleared"
        );
        assert_eq!(
            counter("fault.retry.attempts") - retries_before,
            2,
            "exactly the two injected failures should have been retried"
        );
    }

    /// A lapsed deadline mid-probe returns the partially-ranked results
    /// (from the tags probed in time) instead of blocking or panicking.
    #[test]
    fn deadline_mid_probe_returns_partial_results() {
        let _serial = global_lock();
        let trained = saccs();
        let service = trained.service.with_resilience(ResilienceConfig {
            deadline: Some(Duration::from_millis(250)),
        });
        let api = SearchApi::new(&corpus().entities);
        let utterance = UTTERANCES[0];
        assert!(
            service
                .extract_tags(utterance)
                .expect("extractor present")
                .len()
                >= 2,
            "test needs a multi-tag utterance to truncate"
        );

        const SEED: u64 = 13;
        // The first probe call sleeps straight through the 250ms budget;
        // the deadline check before the next tag then truncates the
        // probe list.
        let scenario = Scenario::parse("algo1.probe=delay(600ms)@1").expect("scenario parses");
        println!("chaos replay: seed={SEED} scenario={scenario}");
        let exceeded_before = counter("fault.deadline.exceeded");
        let outcome = {
            let _faults = arm_guard(&scenario, SEED);
            service.rank_request(&RankRequest::utterance(utterance), &api)
        };
        assert!(
            !outcome.results.is_empty(),
            "partial degradation must still return the surviving ranking"
        );
        assert_eq!(
            outcome.degradation.worst(),
            Some(DegradeAction::Partial),
            "events: {:?}",
            outcome.degradation.events
        );
        assert!(
            outcome
                .degradation
                .events
                .iter()
                .any(|e| matches!(e.error, SaccsError::DeadlineExceeded { .. })),
            "no deadline error in {:?}",
            outcome.degradation.events
        );
        assert!(
            counter("fault.deadline.exceeded") > exceeded_before,
            "deadline counter never moved"
        );
    }

    /// The reproducibility contract the printed `(seed, scenario)` pairs
    /// rely on: re-arming the same schedule against a fresh service
    /// replays the same rankings and the same degradation report,
    /// event for event.
    #[test]
    fn seeded_probabilistic_chaos_replays_exactly() {
        let _serial = global_lock();
        const SEED: u64 = 2024;
        // p must beat the retry budget: a logical probe only degrades
        // when three consecutive calls fire (p³), so p=0.9 makes at
        // least one degradation over six requests near-certain.
        let scenario = Scenario::parse("algo1.probe=err@p=0.9").expect("scenario parses");
        println!("chaos replay: seed={SEED} scenario={scenario}");

        // One replayed request: its ranking as score bits and its
        // degradation events.
        type Replayed = (Vec<(usize, u32)>, Vec<String>);
        let run = |seed: u64| -> Vec<Replayed> {
            let trained = saccs();
            let api = SearchApi::new(&corpus().entities);
            let _faults = arm_guard(&scenario, seed);
            UTTERANCES
                .iter()
                .cycle()
                .take(6)
                .map(|utterance| {
                    let outcome = trained
                        .service
                        .rank_request(&RankRequest::utterance(*utterance), &api);
                    let events: Vec<String> = outcome
                        .degradation
                        .events
                        .iter()
                        .map(|e| format!("{}:{}:{}", e.stage, e.action.label(), e.error))
                        .collect();
                    (bits(&outcome.results), events)
                })
                .collect()
        };

        let first = run(SEED);
        let second = run(SEED);
        assert_eq!(first, second, "same (seed, scenario) must replay exactly");
        assert!(
            first.iter().any(|(_, events)| !events.is_empty()),
            "p=0.5 over 6 requests fired nothing — schedule not armed?"
        );
    }
}

/// Crash-recovery chaos for the segmented live index: failpoints kill a
/// segment persist mid-write and a compaction merge mid-flight, and
/// recovery must come up on a consistent committed snapshot — no torn
/// segment ever becomes visible — serving rankings bitwise identical to
/// a from-scratch rebuild of the durable review log.
#[cfg(feature = "fault")]
mod ingest_recovery {
    use super::{bits, counter, global_lock};
    use saccs::fault::{arm_guard, Scenario};
    use saccs::index::index::IndexConfig;
    use saccs::index::{LiveConfig, LiveIndex, ReviewRecord};
    use saccs::text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sim() -> ConceptualSimilarity {
        ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants))
    }

    fn tag(op: &str, asp: &str) -> SubjectiveTag {
        SubjectiveTag::new(op, asp)
    }

    fn vocabulary() -> Vec<SubjectiveTag> {
        vec![tag("delicious", "food"), tag("cozy", "ambiance")]
    }

    fn probes() -> Vec<SubjectiveTag> {
        vec![
            tag("delicious", "food"),
            tag("cozy", "ambiance"),
            tag("tasty", "meal"),
        ]
    }

    /// Six reviews over four entities: enough for three sealed segments
    /// at `seal_every = 2`.
    fn reviews() -> Vec<(usize, Vec<SubjectiveTag>)> {
        vec![
            (0, vec![tag("delicious", "food")]),
            (1, vec![tag("cozy", "ambiance"), tag("tasty", "meal")]),
            (2, vec![tag("friendly", "staff")]),
            (0, vec![tag("deliciouz", "food")]),
            (3, vec![tag("cozy", "ambiance")]),
            (1, vec![tag("delicious", "meal"), tag("great", "service")]),
        ]
    }

    fn live_config() -> LiveConfig {
        // Manual compaction only: the tests drive merges explicitly.
        LiveConfig {
            seal_every: 2,
            max_segments: 0,
        }
    }

    fn temp_dir(label: &str) -> PathBuf {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "saccs-chaos-{label}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// From-scratch comparator over a review log: a fresh memory-only
    /// replay, reviews first, then the tags.
    fn rebuild(log: &[ReviewRecord], tags: &[SubjectiveTag]) -> LiveIndex {
        let replay = LiveIndex::new(
            sim(),
            IndexConfig::default(),
            LiveConfig {
                seal_every: 0,
                max_segments: 0,
            },
        );
        for record in log {
            replay.add_review(record.entity_id, &record.tags);
        }
        replay.add_tags(tags);
        replay
    }

    fn probe_bits(live: &LiveIndex) -> Vec<Vec<(usize, u32)>> {
        let snap = live.pin();
        probes()
            .iter()
            .map(|p| bits(&live.probe_pinned(&snap, p)))
            .collect()
    }

    fn rebuild_bits(log: &[ReviewRecord]) -> Vec<Vec<(usize, u32)>> {
        let snapshot = rebuild(log, &vocabulary()).pin();
        probes()
            .iter()
            .map(|p| bits(&snapshot.probe_readonly(p)))
            .collect()
    }

    /// `index.persist` tears the first seal's segment write mid-file and
    /// the process "dies" before any retry. The torn file sits at its
    /// final name, but the manifest never referenced it, so recovery
    /// must come up on the (empty) durable prefix — and a clean rerun
    /// over the same directory overwrites the torn file and round-trips
    /// the full stream bitwise.
    #[test]
    fn torn_segment_persist_never_becomes_visible_after_recovery() {
        let _serial = global_lock();
        const SEED: u64 = 13;
        let scenario = Scenario::parse("index.persist=err@1").expect("scenario parses");
        println!("chaos replay: seed={SEED} scenario={scenario}");
        let dir = temp_dir("persist");
        let failed_before = counter("index.ingest.persist_failed");

        {
            let _faults = arm_guard(&scenario, SEED);
            let live = LiveIndex::open(&dir, sim(), IndexConfig::default(), live_config())
                .expect("open fresh store");
            live.add_tags(&vocabulary());
            for (entity_id, review_tags) in reviews().into_iter().take(2) {
                live.add_review(entity_id, &review_tags);
            }
            assert_eq!(
                counter("index.ingest.persist_failed") - failed_before,
                1,
                "the armed seal persist must have torn"
            );
            // The in-memory view keeps serving past the failed persist.
            assert_eq!(
                probe_bits(&live),
                rebuild_bits(&live.review_log()),
                "in-memory serving diverged after the torn persist"
            );
            // Crash: dropped without a checkpoint, retry never happens.
        }

        let recovered = LiveIndex::open(&dir, sim(), IndexConfig::default(), live_config())
            .expect("recovery must not load the torn segment");
        assert_eq!(
            recovered.review_log(),
            Vec::new(),
            "nothing was durable, so the recovered log must be empty"
        );

        // Clean rerun over the same directory: the overwritten segment
        // files and a checkpoint round-trip the full stream bitwise.
        let mut log: Vec<ReviewRecord> = Vec::new();
        for (entity_id, review_tags) in reviews() {
            let receipt = recovered.add_review(entity_id, &review_tags);
            log.push(ReviewRecord {
                seq: receipt.seq,
                entity_id,
                tags: review_tags,
            });
        }
        recovered.checkpoint().expect("clean checkpoint");
        drop(recovered);
        let reopened = LiveIndex::open(&dir, sim(), IndexConfig::default(), live_config())
            .expect("reopen after clean run");
        assert_eq!(reopened.review_log(), log);
        assert_eq!(
            probe_bits(&reopened),
            rebuild_bits(&log),
            "recovered rankings diverged from the from-scratch rebuild"
        );
    }

    /// `index.merge` aborts compaction between writing the merged image
    /// and committing the manifest: the merged file is an invisible
    /// orphan, the old segments stay live (bitwise unchanged service),
    /// and recovery after the "crash" re-serves identical rankings —
    /// after which compaction completes cleanly.
    #[test]
    fn aborted_merge_keeps_old_segments_live_and_recovers_bitwise() {
        let _serial = global_lock();
        const SEED: u64 = 17;
        let scenario = Scenario::parse("index.merge=err@1").expect("scenario parses");
        println!("chaos replay: seed={SEED} scenario={scenario}");
        let dir = temp_dir("merge");
        let aborted_before = counter("index.ingest.merge_aborted");

        let mut log: Vec<ReviewRecord> = Vec::new();
        {
            let live = LiveIndex::open(&dir, sim(), IndexConfig::default(), live_config())
                .expect("open fresh store");
            live.add_tags(&vocabulary());
            for (entity_id, review_tags) in reviews() {
                let receipt = live.add_review(entity_id, &review_tags);
                log.push(ReviewRecord {
                    seq: receipt.seq,
                    entity_id,
                    tags: review_tags,
                });
            }
            assert_eq!(live.segment_count(), 3, "three sealed segments expected");
            let before = probe_bits(&live);

            let aborted = {
                let _faults = arm_guard(&scenario, SEED);
                live.compact_now()
            };
            assert!(aborted.is_err(), "the armed merge must abort");
            assert_eq!(
                counter("index.ingest.merge_aborted") - aborted_before,
                1,
                "the abort must be counted exactly once"
            );
            assert_eq!(
                live.segment_count(),
                3,
                "an aborted merge must leave the old segments live"
            );
            assert_eq!(
                probe_bits(&live),
                before,
                "an aborted merge changed live rankings"
            );
            // Crash: dropped without a checkpoint.
        }

        let recovered = LiveIndex::open(&dir, sim(), IndexConfig::default(), live_config())
            .expect("recovery after the aborted merge");
        assert_eq!(
            recovered.review_log(),
            log,
            "the committed pre-merge snapshot must recover in full"
        );
        assert_eq!(recovered.segment_count(), 3, "orphan merge file loaded?");
        assert_eq!(
            probe_bits(&recovered),
            rebuild_bits(&log),
            "recovered rankings diverged from the from-scratch rebuild"
        );

        // Unarmed, the merge completes and rankings still don't move.
        assert!(recovered.compact_now().expect("clean merge"));
        assert_eq!(recovered.segment_count(), 1);
        assert_eq!(
            probe_bits(&recovered),
            rebuild_bits(&log),
            "a completed merge changed rankings"
        );
    }
}
