//! Chaos/resilience bench: a deterministic fault-schedule export.
//!
//! Arm the seeded scenario and drive a fixed request batch through
//! `SaccsService::rank_request`, writing one JSON line per
//! request (ranking with score *bits*, degradation events) plus a final
//! `fault.*` counter-delta line. With an error-only scenario the file is
//! a pure function of `(seed, scenario)`; `scripts/ci.sh` runs the bin
//! twice and diffs the two exports to prove it. Delay effects and
//! deadlines are wall-clock and would break the diff — keep them out of
//! the CI scenario. Without the `fault` feature the schedule is inert
//! and the export records a degradation-free run.
//!
//! `cargo run --release -p saccs-bench --features fault --bin chaos`
//!
//! Environment: `SACCS_CHAOS_SEED` (default 2024),
//! `SACCS_CHAOS_SCENARIO` (default `algo1.probe=err@p=0.9`),
//! `SACCS_CHAOS_OUT` (default `CHAOS_report.jsonl`),
//! `SACCS_OBS=json` to emit `BENCH_chaos.json`.

use saccs_core::{RankRequest, SaccsBuilder, SearchApi, TrainedSaccs};
use saccs_data::yelp::{YelpConfig, YelpCorpus};
use saccs_fault::{arm_guard, Scenario};
use saccs_text::{Domain, Lexicon};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const UTTERANCES: [&str; 3] = [
    "I want a restaurant with delicious food and a nice staff",
    "somewhere with friendly staff and tasty food",
    "find me a cozy place with a great atmosphere",
];

/// Requests in the chaos export (the utterances, cycled).
const CHAOS_REQUESTS: usize = 8;

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn build() -> (YelpCorpus, TrainedSaccs) {
    let corpus = YelpCorpus::generate(
        Lexicon::new(Domain::Restaurants),
        &YelpConfig {
            n_entities: 24,
            n_reviews: 420,
            seed: 42,
            ..Default::default()
        },
    );
    let trained = SaccsBuilder::quick().build(&corpus);
    (corpus, trained)
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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
    let seed: u64 = env_or("SACCS_CHAOS_SEED", "2024").parse().unwrap_or(2024);
    let scenario_text = env_or("SACCS_CHAOS_SCENARIO", "algo1.probe=err@p=0.9");
    let scenario = match Scenario::parse(&scenario_text) {
        Ok(s) => s,
        Err(e) => {
            println!("bad SACCS_CHAOS_SCENARIO: {e}");
            std::process::exit(2);
        }
    };
    let out_path = env_or("SACCS_CHAOS_OUT", "CHAOS_report.jsonl");

    println!("Chaos bench: seeded fault replay through rank_request");
    println!("  (seed={seed} scenario={scenario} requests={CHAOS_REQUESTS})\n");
    let (corpus, trained) = build();
    let api = SearchApi::new(&corpus.entities);
    let requests: Vec<RankRequest> = UTTERANCES
        .iter()
        .map(|u| RankRequest::utterance(*u))
        .collect();

    let before = fault_counters();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{{\"seed\":{seed},\"scenario\":\"{}\"}}",
        json_escape(&scenario.to_string())
    );
    {
        let _faults = arm_guard(&scenario, seed);
        for (i, r) in requests.iter().cycle().take(CHAOS_REQUESTS).enumerate() {
            let outcome = trained.service.rank_request(r, &api);
            let ranking: Vec<String> = outcome
                .results
                .iter()
                .map(|&(e, s)| format!("[{e},{}]", s.to_bits()))
                .collect();
            let events: Vec<String> = outcome
                .degradation
                .events
                .iter()
                .map(|ev| {
                    format!(
                        "\"{}\"",
                        json_escape(&format!("{}:{}:{}", ev.stage, ev.action.label(), ev.error))
                    )
                })
                .collect();
            let _ = writeln!(
                report,
                "{{\"request\":{i},\"ranking\":[{}],\"degradation\":[{}]}}",
                ranking.join(","),
                events.join(",")
            );
        }
    }
    let after = fault_counters();
    let deltas: Vec<String> = after
        .iter()
        .map(|(name, v)| {
            let d = v - before.get(name).copied().unwrap_or(0);
            format!("\"{}\":{d}", json_escape(name))
        })
        .collect();
    let _ = writeln!(report, "{{\"counters\":{{{}}}}}", deltas.join(","));
    let degraded = after.get("fault.degraded_requests").copied().unwrap_or(0)
        - before.get("fault.degraded_requests").copied().unwrap_or(0);
    match std::fs::write(&out_path, &report) {
        Ok(()) => println!("\nwrote {out_path} ({CHAOS_REQUESTS} requests, {degraded} degraded)"),
        Err(e) => {
            println!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    saccs_bench::obs_finish(
        "chaos",
        &[
            ("chaos_requests", CHAOS_REQUESTS as f64),
            ("degraded_requests", degraded as f64),
        ],
    );
}
