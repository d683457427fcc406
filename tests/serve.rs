//! Concurrent-serving suite: the `saccs-serve` front end over a fully
//! trained service.
//!
//! The contract under test: replies produced through `SaccsServer` —
//! at any worker count — are **bitwise identical** to calling
//! `SaccsService::rank_request` serially. Every worker extracts through the one shared extractor's
//! frozen models, the same arithmetic as the serial path, so scores must
//! match to the last bit, not just approximately.
//!
//! Also covered: exact shed accounting under an over-depth burst (the
//! `pause` gate makes the queue depth deterministic), and — behind the
//! `fault` feature — a chaos schedule driven *through* the server,
//! proving the shared breakers degrade every concurrent request
//! consistently.
//!
//! The fault registry and metrics registry are process-global, so every
//! test takes the file-wide mutex, exactly like `tests/chaos.rs`.

use saccs::core::{RankRequest, SaccsBuilder, SaccsService, SearchApi};
use saccs::data::yelp::{YelpConfig, YelpCorpus};
use saccs::data::Entity;
use saccs::serve::{SaccsServer, ServeConfig};
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

/// One trained service for the whole file: training dominates test time
/// and `SaccsService` is explicitly shareable — sharing it across tests
/// is itself part of the exercise.
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

fn request(i: usize) -> RankRequest {
    RankRequest::utterance(UTTERANCES[i % UTTERANCES.len()])
}

fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(e, s)| (e, s.to_bits())).collect()
}

/// Drive the shared service until a request answers at full fidelity.
/// The breakers are call-count driven (reject `open_calls`, then close
/// after `success_to_close` half-open successes), so a chaos test that
/// ran earlier in this process leaves them healable by a bounded number
/// of fault-free requests.
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

/// The serial ground truth every served reply must reproduce exactly.
fn serial_reference(svc: &SaccsService) -> Vec<Vec<(usize, u32)>> {
    let ents = entities();
    let api = SearchApi::new(&ents);
    (0..REQUESTS)
        .map(|i| {
            let response = svc.rank_request(&request(i), &api);
            assert!(
                response.is_full_fidelity(),
                "reference run degraded: {:?}",
                response.degradation.events
            );
            bits(&response.results)
        })
        .collect()
}

/// Submit the standard request batch from `REQUESTS` concurrent client
/// threads and return the replies in request order.
fn submit_all(server: &Arc<SaccsServer>) -> Vec<Vec<(usize, u32)>> {
    let (tx, rx) = std::sync::mpsc::channel();
    let handles: Vec<_> = (0..REQUESTS)
        .map(|i| {
            let server = Arc::clone(server);
            let tx = tx.clone();
            saccs::rt::spawn_worker(&format!("test-client-{i}"), move || {
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

#[test]
fn every_width_is_bitwise_identical_to_serial() {
    let _serial = global_lock();
    let svc = service();
    heal(&svc);
    let reference = serial_reference(&svc);
    for workers in [1usize, 2, 8] {
        let server = Arc::new(SaccsServer::start(
            Arc::clone(&svc),
            entities(),
            ServeConfig {
                workers,
                queue_depth: 64,
                ..ServeConfig::default()
            },
        ));
        let replies = submit_all(&server);
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(
                reply, &reference[i],
                "request {i} diverged at workers={workers}"
            );
        }
        let stats = server.stats();
        assert_eq!(stats.served, REQUESTS as u64);
        assert_eq!(stats.shed, 0);
    }
}

/// Queue the whole request set behind a paused server, then release it
/// to one worker, which drains the queue one job per tick. The replies
/// must still be bit-for-bit the serial ones.
#[test]
fn queued_burst_drained_by_one_worker_stays_bitwise_identical() {
    let _serial = global_lock();
    let svc = service();
    heal(&svc);
    let reference = serial_reference(&svc);
    let server = Arc::new(SaccsServer::start(
        Arc::clone(&svc),
        entities(),
        ServeConfig {
            workers: 1,
            queue_depth: 64,
            ..ServeConfig::default()
        },
    ));
    server.pause();
    let (tx, rx) = std::sync::mpsc::channel();
    let handles: Vec<_> = (0..REQUESTS)
        .map(|i| {
            let server = Arc::clone(&server);
            let tx = tx.clone();
            saccs::rt::spawn_worker(&format!("test-burst-{i}"), move || {
                let response = server.submit(request(i)).expect("request admitted");
                tx.send((i, bits(&response.results))).expect("send reply");
            })
        })
        .collect();
    while server.queue_len() < REQUESTS {
        std::thread::yield_now();
    }
    server.resume();
    for h in handles {
        h.join().expect("client thread");
    }
    drop(tx);
    for (i, reply) in rx {
        assert_eq!(reply, reference[i], "queued request {i} diverged");
    }
}

#[test]
fn over_depth_burst_sheds_exactly_the_excess() {
    let _serial = global_lock();
    const DEPTH: usize = 4;
    const BURST: usize = 10;
    let server = Arc::new(SaccsServer::start(
        service(),
        entities(),
        ServeConfig {
            workers: 2,
            queue_depth: DEPTH,
            ..ServeConfig::default()
        },
    ));
    server.pause();
    let handles: Vec<_> = (0..BURST)
        .map(|i| {
            let server = Arc::clone(&server);
            saccs::rt::spawn_worker(&format!("test-burst-{i}"), move || {
                // Admitted requests are served after resume; shed ones
                // must fail fast with the admission-stage error.
                if let Err(e) = server.submit(request(i)) {
                    assert_eq!(e.stage(), saccs::core::Stage::Admission);
                }
            })
        })
        .collect();
    // The queue is capped while paused, so the burst settles: DEPTH
    // admitted and parked, the rest shed immediately.
    loop {
        let stats = server.stats();
        if stats.submitted + stats.shed == BURST as u64 {
            break;
        }
        std::thread::yield_now();
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, DEPTH as u64, "queue admitted past depth");
    assert_eq!(stats.shed, (BURST - DEPTH) as u64, "wrong shed count");
    server.resume();
    for h in handles {
        h.join().expect("burst thread");
    }
    assert_eq!(server.stats().served, DEPTH as u64);
}

#[cfg(feature = "fault")]
mod armed {
    use super::*;
    use saccs::core::{DegradeAction, Slots};
    use saccs::fault::{arm_guard, Scenario};

    fn counter(name: &str) -> u64 {
        saccs::obs::registry().counter(name).get()
    }

    /// A permanent probe outage hit by 8 concurrent requests through 2
    /// workers: every reply must be the objective-order fallback with a
    /// degradation report, the shared breaker must trip, and
    /// `fault.degraded_requests` must count each request exactly once —
    /// no double counting from racing workers.
    #[test]
    fn chaos_through_the_server_degrades_every_request_consistently() {
        let _serial = global_lock();
        let svc = service();
        let ents = entities();
        let expected: Vec<(usize, u32)> = {
            let api = SearchApi::new(&ents);
            api.search(&Slots::default())
                .into_iter()
                .take(svc.config().top_k)
                .map(|e| (e, 0.0f32.to_bits()))
                .collect()
        };
        let opened_before = svc.breakers().probe.times_opened();
        let degraded_before = counter("fault.degraded_requests");

        const SEED: u64 = 7;
        let scenario = Scenario::parse("algo1.probe=err").expect("scenario parses");
        println!("chaos replay: seed={SEED} scenario={scenario}");
        let _faults = arm_guard(&scenario, SEED);

        let server = Arc::new(SaccsServer::start(
            Arc::clone(&svc),
            ents,
            ServeConfig {
                workers: 2,
                queue_depth: 64,
                ..ServeConfig::default()
            },
        ));
        const CHAOS_REQUESTS: usize = 8;
        let (tx, rx) = std::sync::mpsc::channel();
        let handles: Vec<_> = (0..CHAOS_REQUESTS)
            .map(|i| {
                let server = Arc::clone(&server);
                let tx = tx.clone();
                saccs::rt::spawn_worker(&format!("test-chaos-{i}"), move || {
                    let response = server.submit(request(i)).expect("request admitted");
                    tx.send(response).expect("send reply");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("chaos client");
        }
        drop(tx);
        let mut seen = 0;
        for response in rx {
            seen += 1;
            assert_eq!(
                bits(&response.results),
                expected,
                "degraded reply is not the objective fallback"
            );
            assert_eq!(
                response.degradation.worst(),
                Some(DegradeAction::ObjectiveOnly),
                "events: {:?}",
                response.degradation.events
            );
        }
        assert_eq!(seen, CHAOS_REQUESTS);
        assert_eq!(
            counter("fault.degraded_requests") - degraded_before,
            CHAOS_REQUESTS as u64,
            "each request must be counted degraded exactly once"
        );
        assert!(
            svc.breakers().probe.times_opened() > opened_before,
            "a permanent outage through the server must trip the shared breaker"
        );
    }
}
