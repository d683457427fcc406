//! Request-tracing suite: end-to-end trace coverage through the
//! concurrent serve path.
//!
//! The contract under test is the observability PR's headline claim:
//! with a flight recorder installed, every served request carries a
//! complete, deterministic trace — all five Algorithm-1 stages
//! (`search_api`, `extract`, `probe`, `aggregate`, `pad`) plus queue
//! wait attributed separately — while rankings stay **bitwise
//! identical** to serving with the recorder off, and the normalized
//! report (timestamps stripped) is **byte-identical** across repeated
//! identical runs. Behind the `fault` feature, injected faults must
//! surface as retry/breaker/degradation events inside the *owning*
//! request's trace, not some global log.
//!
//! The fault registry and metrics registry are process-global, so every
//! test takes the file-wide mutex, exactly like `tests/serve.rs`.

use saccs::core::{RankRequest, SaccsBuilder, SaccsService, SearchApi};
use saccs::data::yelp::{YelpConfig, YelpCorpus};
use saccs::data::Entity;
use saccs::obs::TraceEvent;
use saccs::serve::{RecorderConfig, SaccsServer, ServeConfig};
use saccs::text::{Domain, Lexicon};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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

fn service() -> Arc<SaccsService> {
    static SERVICE: OnceLock<Arc<SaccsService>> = OnceLock::new();
    Arc::clone(SERVICE.get_or_init(|| Arc::new(SaccsBuilder::quick().build(corpus()).service)))
}

fn entities() -> Vec<Entity> {
    corpus().entities.clone()
}

fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

const UTTERANCES: [&str; 3] = [
    "I want a restaurant with delicious food and a nice staff",
    "somewhere with friendly staff and tasty food",
    "find me a cozy place with a great atmosphere",
];

const REQUESTS: usize = 12;

/// The five Algorithm-1 stages every full-fidelity utterance trace must
/// cover (`algo1.rank` wraps them and is present too).
const STAGES: [&str; 5] = [
    "algo1.search_api",
    "algo1.extract",
    "algo1.probe",
    "algo1.aggregate",
    "algo1.pad",
];

/// Request `i` with `i` as its explicit trace id: the utterances cycle,
/// so content-derived ids would collide across requests.
fn request(i: usize) -> RankRequest {
    RankRequest::utterance(UTTERANCES[i % UTTERANCES.len()]).with_trace_id(i as u64)
}

fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(e, s)| (e, s.to_bits())).collect()
}

/// Drive the shared service until a request answers at full fidelity
/// (breakers left open by an earlier chaos test heal on call counts).
fn heal(svc: &SaccsService) {
    let ents = entities();
    let api = SearchApi::new(&ents);
    for _ in 0..64 {
        if svc.rank_request(&request(0), &api).is_full_fidelity() {
            return;
        }
    }
    panic!("breakers never closed on a fault-free service");
}

fn recorder_server(svc: &Arc<SaccsService>, workers: usize) -> Arc<SaccsServer> {
    Arc::new(SaccsServer::start(
        Arc::clone(svc),
        entities(),
        ServeConfig {
            workers,
            queue_depth: 64,
            batch: 4,
            recorder: Some(RecorderConfig::default()),
        },
    ))
}

/// Submit requests `0..REQUESTS` from concurrent client threads and
/// return the replies (score bits) in request order.
fn submit_all(server: &Arc<SaccsServer>) -> Vec<Vec<(usize, u32)>> {
    let (tx, rx) = std::sync::mpsc::channel();
    let handles: Vec<_> = (0..REQUESTS)
        .map(|i| {
            let server = Arc::clone(server);
            let tx = tx.clone();
            saccs::rt::spawn_worker(&format!("trace-client-{i}"), move || {
                let response = server.submit(request(i)).expect("request admitted");
                tx.send((i, bits(&response.results))).expect("send reply");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    drop(tx);
    let mut replies = vec![Vec::new(); REQUESTS];
    for (i, reply) in rx {
        replies[i] = reply;
    }
    replies
}

/// Acceptance (a) + (c): at widths 1, 2 and 8 every trace carries all
/// five Algorithm-1 stages, exactly one admission and one queue-wait
/// event (attributed separately from service time), and the rankings
/// are bitwise identical to the recorder-off serial reference.
#[test]
fn every_trace_covers_all_five_stages_and_rankings_match_recorder_off() {
    let _serial = global_lock();
    let svc = service();
    heal(&svc);
    // Recorder-off reference: the serial rank path, no trace contexts
    // alive anywhere.
    let reference: Vec<Vec<(usize, u32)>> = {
        let ents = entities();
        let api = SearchApi::new(&ents);
        (0..REQUESTS)
            .map(|i| {
                let response = svc.rank_request(&request(i), &api);
                assert!(response.is_full_fidelity());
                assert!(
                    response.timings.is_none(),
                    "no recorder, no per-stage timings"
                );
                bits(&response.results)
            })
            .collect()
    };
    for workers in [1usize, 2, 8] {
        let server = recorder_server(&svc, workers);
        let replies = submit_all(&server);
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(
                reply, &reference[i],
                "request {i} diverged from recorder-off at width {workers}"
            );
        }
        let report = server.obs_report().expect("recorder installed");
        assert_eq!(report.requests, REQUESTS as u64);
        assert_eq!(report.shed, 0);
        assert_eq!(report.traces.len(), REQUESTS);
        for (i, trace) in report.traces.iter().enumerate() {
            assert_eq!(trace.id, i as u64, "traces sorted by caller-assigned id");
            let normals: Vec<String> = trace.events.iter().map(TraceEvent::normal).collect();
            assert_eq!(
                normals.iter().filter(|n| *n == "admitted").count(),
                1,
                "width {workers} trace {i}: {normals:?}"
            );
            assert_eq!(
                normals.iter().filter(|n| *n == "queue_wait").count(),
                1,
                "queue wait recorded exactly once, width {workers} trace {i}"
            );
            for stage in STAGES {
                let exit = format!("stage_exit:{stage}");
                assert!(
                    normals.contains(&exit),
                    "width {workers} trace {i} missing {exit}: {normals:?}"
                );
            }
            assert_eq!(trace.dropped, 0, "event buffer never overflowed");
        }
        // Queue wait is attributed under its own synthetic stage,
        // separate from every span-timed stage.
        let queue = report
            .stages
            .get("serve.queue_wait")
            .expect("queue-wait stage present");
        assert_eq!(queue.count, REQUESTS as u64);
        for stage in STAGES {
            assert_eq!(
                report.stages.get(stage).map(|s| s.count),
                Some(REQUESTS as u64),
                "stage {stage} folded once per request"
            );
        }
    }
}

/// Per-stage timings ride back on the response when (and only when) the
/// request ran under a recorder, covering the five stages in execution
/// order; queue wait stays out of them (it is not a rank stage).
#[test]
fn responses_carry_stage_timings_only_under_a_recorder() {
    let _serial = global_lock();
    let svc = service();
    heal(&svc);
    let server = recorder_server(&svc, 1);
    let response = server.submit(request(0)).expect("admitted");
    let timings = response.timings.expect("recorder attaches timings");
    let names: Vec<&str> = timings.stages.iter().map(|&(n, _)| n).collect();
    for stage in STAGES {
        assert!(names.contains(&stage), "timings missing {stage}: {names:?}");
    }
    assert!(
        !names.iter().any(|n| n.starts_with("serve.")),
        "queue wait is attributed in the trace, not the rank timings: {names:?}"
    );
    assert!(
        timings.stages.iter().all(|&(_, ns)| ns > 0),
        "stages accumulated real time: {:?}",
        timings.stages
    );
}

/// Acceptance (d): the normalized report — per-stage counts and event
/// sequences with every nanosecond payload stripped — is byte-identical
/// across two identical seeded runs, at the concurrency-stressed width.
#[test]
fn normalized_report_is_byte_identical_across_identical_runs() {
    let _serial = global_lock();
    let svc = service();
    heal(&svc);
    let run = || {
        let server = recorder_server(&svc, 8);
        let _ = submit_all(&server);
        server
            .obs_report()
            .expect("recorder installed")
            .render(true)
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(first, second, "normalized reports must be byte-identical");
    // The full (non-normalized) render carries timing payloads, which
    // the normalized form must not contain.
    assert!(!first.contains("total_ns"));
    assert!(!first.contains("queue_ns"));
}

#[cfg(feature = "fault")]
mod armed {
    use super::*;
    use saccs::fault::{arm_guard, Scenario};

    /// A one-shot probe fault is retried and absorbed; the retry event
    /// lands in the trace of the request that hit it — and only there.
    #[test]
    fn retry_events_land_in_the_owning_trace() {
        let _serial = global_lock();
        let svc = service();
        heal(&svc);
        const SEED: u64 = 7;
        let scenario = Scenario::parse("algo1.probe=err@1").expect("scenario parses");
        println!("trace replay: seed={SEED} scenario={scenario}");
        let _faults = arm_guard(&scenario, SEED);
        // Width 1: requests are served strictly in submission order, so
        // the first probe call — and with it the retry — deterministically
        // belongs to request 0.
        let server = recorder_server(&svc, 1);
        let first = server.submit(request(0)).expect("admitted");
        let second = server.submit(request(1)).expect("admitted");
        assert!(first.is_full_fidelity(), "retry absorbed the fault");
        assert!(second.is_full_fidelity());
        let report = server.obs_report().expect("recorder installed");
        let retried: Vec<u64> = report
            .traces
            .iter()
            .filter(|t| {
                t.events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::Retry { stage: "probe", .. }))
            })
            .map(|t| t.id)
            .collect();
        assert_eq!(retried, vec![0], "retry recorded in request 0's trace only");
        assert_eq!(report.events.get("retry:probe:1"), Some(&1));
    }

    /// Acceptance (b): under a permanent probe outage the breaker
    /// transition is recorded in the trace of the request that tripped
    /// it, and every degraded request's own trace carries its
    /// degradation-ladder events.
    #[test]
    fn breaker_and_degradation_events_attribute_to_their_requests() {
        let _serial = global_lock();
        let svc = service();
        heal(&svc);
        const SEED: u64 = 11;
        let scenario = Scenario::parse("algo1.probe=err").expect("scenario parses");
        println!("trace replay: seed={SEED} scenario={scenario}");
        let report = {
            let _faults = arm_guard(&scenario, SEED);
            let server = recorder_server(&svc, 1);
            for i in 0..4 {
                let response = server.submit(request(i)).expect("admitted");
                assert!(!response.is_full_fidelity(), "request {i} must degrade");
            }
            server.obs_report().expect("recorder installed")
        };
        assert_eq!(report.traces.len(), 4);
        // Every degraded request's own trace carries its ladder events.
        for trace in &report.traces {
            assert!(trace.degraded, "trace {} marked degraded", trace.id);
            assert!(
                trace
                    .events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::Degraded { .. })),
                "trace {} missing degradation events: {:?}",
                trace.id,
                trace.events
            );
        }
        // Breaker-open transitions are owned by the requests that
        // tripped them — width 1 makes the first owner deterministic:
        // request 0 crosses the failure threshold. (The breaker may
        // half-open on call counts and re-open under a later request.)
        let opens_per_trace: Vec<(u64, usize)> = report
            .traces
            .iter()
            .map(|t| {
                let n = t
                    .events
                    .iter()
                    .filter(|e| {
                        matches!(
                            e,
                            TraceEvent::Breaker {
                                stage: "probe",
                                to: "open"
                            }
                        )
                    })
                    .count();
                (t.id, n)
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        assert_eq!(
            opens_per_trace.first().map(|&(id, _)| id),
            Some(0),
            "request 0 tripped the breaker: {opens_per_trace:?}"
        );
        // Every open transition is attributed to exactly one owning
        // trace — the per-trace counts add up to the global event count.
        let total_opens: usize = opens_per_trace.iter().map(|&(_, n)| n).sum();
        assert_eq!(
            report.events.get("breaker:probe:open"),
            Some(&(total_opens as u64)),
            "no orphan breaker transitions outside request traces"
        );
        // Heal the shared breakers for whatever test runs next.
        heal(&svc);
    }
}
