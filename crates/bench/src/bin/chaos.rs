//! Chaos bench: the trained service served fault-free, then replayed
//! under a seeded fault schedule. Every file it writes is a pure function
//! of the build; `scripts/ci.sh` runs the bin twice and byte-diffs them.
//!
//! Pass 1 (served): [`SERVED_REQUESTS`] requests through a
//! [`WORKERS`]-wide `SaccsServer` with the flight recorder on. Every reply must equal serial `rank_request` bit for
//! bit, or the bin exits non-zero. It writes `CHAOS_served.jsonl`, one
//! line per request (ranking with score *bits*) plus the server
//! counters, and `CHAOS_obsreport.json`, the recorder's *normalized*
//! `ObsReport` (timestamps stripped), which `xtask check-report`
//! validates.
//!
//! Pass 2 (replay): arm [`SCENARIO`] under [`SEED`] and drive
//! [`CHAOS_REQUESTS`] requests through `rank_request`, writing
//! `CHAOS_report.jsonl`: one line per request (ranking bits,
//! degradation events) plus a final `fault.*` counter-delta line. The
//! scenario is error-only; delay effects and deadlines are wall-clock
//! and would break the diff. Without the `fault` feature the schedule is
//! inert and the replay records a degradation-free run.
//!
//! `cargo run --release -p saccs-bench --features fault --bin chaos`
//! (`SACCS_OBS=json` also writes `BENCH_chaos.json`).

use saccs_bench::{bits, ranking_json, write_export};
use saccs_core::{RankRequest, SaccsBuilder, SaccsService, SearchApi};
use saccs_data::yelp::{YelpConfig, YelpCorpus};
use saccs_fault::{arm_guard, Scenario};
use saccs_obs::json::escape;
use saccs_serve::{RecorderConfig, SaccsServer, ServeConfig};
use saccs_text::{Domain, Lexicon};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{mpsc, Arc};

const UTTERANCES: [&str; 3] = [
    "I want a restaurant with delicious food and a nice staff",
    "somewhere with friendly staff and tasty food",
    "find me a cozy place with a great atmosphere",
];

/// Requests in the served pass.
const SERVED_REQUESTS: usize = 12;

/// Serve workers in the served pass, and client threads driving them.
const WORKERS: usize = 8;

/// Requests in the armed replay (the utterances, cycled).
const CHAOS_REQUESTS: usize = 8;

/// Seed of the fault schedule.
const SEED: u64 = 2024;

/// The replayed schedule. A logical probe degrades only when every call
/// of its retry budget fires, so `p` must be high for the replay to
/// degrade at all.
const SCENARIO: &str = "algo1.probe=err@p=0.9";

/// Served request `i`, carrying `i` as its explicit trace id: the
/// utterances cycle, so content-derived ids would collide and the
/// recorder report would depend on completion order.
fn request(i: usize) -> RankRequest {
    RankRequest::utterance(UTTERANCES[i % UTTERANCES.len()]).with_trace_id(i as u64)
}

/// Submit requests `0..SERVED_REQUESTS` from [`WORKERS`] client threads
/// (request `i` goes to client `i % WORKERS`); returns the replies in
/// request order.
fn drive(server: &Arc<SaccsServer>) -> Vec<Vec<(usize, u32)>> {
    let (tx, rx) = mpsc::channel();
    let handles: Vec<_> = (0..WORKERS)
        .map(|c| {
            let server = Arc::clone(server);
            let tx = tx.clone();
            saccs_rt::spawn_worker(&format!("bench-client-{c}"), move || {
                for i in (c..SERVED_REQUESTS).step_by(WORKERS) {
                    let response = server.submit(request(i)).expect("request admitted");
                    tx.send((i, bits(&response.results))).expect("send reply");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    drop(tx);
    let mut replies = vec![Vec::new(); SERVED_REQUESTS];
    for (i, reply) in rx {
        replies[i] = reply;
    }
    replies
}

/// Pass 1: serve the request stream and check it against serial
/// `rank_request`; writes the served export and the recorder report.
fn served_pass(service: &Arc<SaccsService>, corpus: &YelpCorpus, api: &SearchApi) {
    let server = Arc::new(SaccsServer::start(
        Arc::clone(service),
        corpus.entities.clone(),
        ServeConfig {
            workers: WORKERS,
            queue_depth: 256,
            recorder: Some(RecorderConfig { ring: 256 }),
            ..ServeConfig::default()
        },
    ));
    let mut served = String::new();
    for (i, reply) in drive(&server).iter().enumerate() {
        let serial = bits(&service.rank_request(&request(i), api).results);
        if reply != &serial {
            println!("DIVERGENCE: request {i}\n  served {reply:?}\n  serial {serial:?}");
            std::process::exit(1);
        }
        let _ = writeln!(
            served,
            "{{\"request\":{i},\"ranking\":{}}}",
            ranking_json(reply)
        );
    }
    let stats = server.stats();
    let _ = writeln!(
        served,
        "{{\"counters\":{{\"serve.submitted\":{},\"serve.served\":{},\"serve.shed\":{}}}}}",
        stats.submitted, stats.served, stats.shed
    );
    println!(
        "served: {SERVED_REQUESTS} requests at width {WORKERS}, all bitwise identical to serial \
         rank_request"
    );
    write_export("CHAOS_served.jsonl", &served);
    let report = server.obs_report().expect("recorder installed");
    write_export("CHAOS_obsreport.json", &report.render(true));
}

fn fault_counters() -> BTreeMap<String, u64> {
    saccs_obs::registry()
        .counter_values()
        .into_iter()
        .filter(|(name, _)| name.starts_with("fault."))
        .collect()
}

fn main() {
    saccs_bench::obs_init();
    let scenario = Scenario::parse(SCENARIO).expect("static scenario parses");
    println!("Chaos bench: fault-free served pass, then a seeded fault replay");
    println!("  (seed={SEED} scenario={scenario} requests={CHAOS_REQUESTS})\n");
    let corpus = YelpCorpus::generate(
        Lexicon::new(Domain::Restaurants),
        &YelpConfig {
            n_entities: 24,
            n_reviews: 420,
            seed: 42,
            ..Default::default()
        },
    );
    let service = Arc::new(SaccsBuilder::quick().build(&corpus).service);
    let api = SearchApi::new(&corpus.entities);

    served_pass(&service, &corpus, &api);

    // Pass 2: the armed replay.
    let before = fault_counters();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{{\"seed\":{SEED},\"scenario\":\"{}\"}}",
        escape(&scenario.to_string())
    );
    {
        let _faults = arm_guard(&scenario, SEED);
        for (i, utterance) in UTTERANCES.iter().cycle().take(CHAOS_REQUESTS).enumerate() {
            let outcome = service.rank_request(&RankRequest::utterance(*utterance), &api);
            let events: Vec<String> = outcome
                .degradation
                .events
                .iter()
                .map(|ev| {
                    format!(
                        "\"{}\"",
                        escape(&format!("{}:{}:{}", ev.stage, ev.action.label(), ev.error))
                    )
                })
                .collect();
            let _ = writeln!(
                report,
                "{{\"request\":{i},\"ranking\":{},\"degradation\":[{}]}}",
                ranking_json(&bits(&outcome.results)),
                events.join(",")
            );
        }
    }
    let after = fault_counters();
    let delta =
        |name: &str| after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0);
    let deltas: Vec<String> = after
        .keys()
        .map(|name| format!("\"{}\":{}", escape(name), delta(name)))
        .collect();
    let _ = writeln!(report, "{{\"counters\":{{{}}}}}", deltas.join(","));
    let degraded = delta("fault.degraded_requests");
    println!("replay: {CHAOS_REQUESTS} requests, {degraded} degraded");
    write_export("CHAOS_report.jsonl", &report);

    saccs_bench::obs_finish(
        "chaos",
        &[
            ("chaos_requests", CHAOS_REQUESTS as f64),
            ("degraded_requests", degraded as f64),
        ],
    );
}
