//! Query-planner bench: the cost-based filter planner A/B.
//!
//! Phase 1 (corpus): synthetic posting lists over 1k / 10k / 100k
//! entities — a mixed-selectivity vocabulary (dense, medium and rare
//! tags) installed straight into a `SubjectiveIndex`, plus a synthetic
//! objective catalog whose attributes are pure functions of entity id.
//!
//! Phase 2 (equality): for every query shape and corpus size, the
//! rarest-first plan, the left-to-right plan and the naive per-entity
//! evaluator must produce the *same match set* — any divergence exits
//! non-zero. The match sets are the deterministic export.
//!
//! Phase 3 (speedup): wall-clock A/B of compiled plans vs the naive
//! evaluator, best-of-N per (size, query). The ≥3x headline at 100k
//! quoted in EXPERIMENTS.md, plus rarest-first vs left-to-right.
//!
//! Phase 4 (export): match counts and entity sets go to
//! `QUERY_report.jsonl` as JSON lines; the file is a pure function of
//! the build and `scripts/ci.sh` byte-diffs two runs. `SACCS_OBS=json`
//! emits `BENCH_query.json`.

use saccs_index::index::{IndexConfig, SubjectiveIndex};
use saccs_query::{compile, naive_matches, Filter, JoinOrder, ObjectiveCatalog};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
use std::fmt::Write as _;
use std::time::Instant;

const TIMING_REPS: usize = 3;
const SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// `(opinion, aspect, one-in-k selectivity)` — mixed so rarest-first
/// actually has an ordering decision to make.
const VOCAB: [(&str, &str, usize); 5] = [
    ("delicious", "food", 3),
    ("friendly", "staff", 4),
    ("quiet", "room", 20),
    ("romantic", "vibe", 400),
    ("expensive", "menu", 50),
];

/// The benched query shapes: a mixed-selectivity AND chain, a nested
/// boolean with negation and an objective predicate folded in, an
/// objective-heavy conjunction, and an adversarial source order that
/// puts the universe-wide objective scans *before* the rare tag —
/// the case rarest-first exists to repair.
const QUERIES: [(&str, &str); 4] = [
    (
        "and_chain",
        "delicious food AND quiet room AND romantic vibe",
    ),
    (
        "nested",
        "delicious food AND (quiet room OR romantic vibe) AND NOT expensive menu, price<=2",
    ),
    ("objective", "friendly staff AND price<=2 AND rating>=2.5"),
    ("obj_first", "price<=2 AND rating>=2.5 AND romantic vibe"),
];

/// Objective attributes as pure functions of entity id — the bench
/// never allocates 100k entities, it answers from arithmetic.
struct SynthCatalog {
    universe: usize,
}

impl ObjectiveCatalog for SynthCatalog {
    fn universe(&self) -> usize {
        self.universe
    }

    fn attribute(&self, id: usize, name: &str) -> Option<&str> {
        match name {
            "PriceRange" => Some(match id % 4 {
                0 => "1",
                1 => "2",
                2 => "3",
                _ => "4",
            }),
            "NoiseLevel" => Some(match id % 3 {
                0 => "quiet",
                1 => "average",
                _ => "loud",
            }),
            "Ambience" => Some(match id % 5 {
                0 => "romantic",
                1 | 2 => "casual",
                _ => "classy",
            }),
            _ => None,
        }
    }

    fn stars(&self, id: usize) -> Option<f32> {
        Some((id % 11) as f32 / 2.0)
    }

    fn has_attribute(&self, name: &str) -> bool {
        matches!(name, "PriceRange" | "NoiseLevel" | "Ambience")
    }
}

/// Synthetic postings: tag `t` covers every `k`-th entity (all lists
/// aligned at id 0 so conjunctions intersect at common multiples),
/// degrees a pure function of `(tag, id)`.
fn build_index(universe: usize) -> SubjectiveIndex {
    let mut idx = SubjectiveIndex::new(
        ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
        IndexConfig::default(),
    );
    idx.install_postings(VOCAB.iter().enumerate().map(|(t, (opinion, aspect, k))| {
        let raw: Vec<(usize, f32)> = (0..universe)
            .filter(|id| id % k == 0)
            .map(|id| (id, 0.05 + ((id * 7 + t * 13) % 90) as f32 / 100.0))
            .collect();
        (SubjectiveTag::new(opinion, aspect), raw)
    }));
    idx
}

/// Best-of-N wall clock, recording per-evaluation latency.
fn best_of<T>(histogram: &str, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..TIMING_REPS {
        let t0 = Instant::now();
        let v = f();
        let wall = t0.elapsed().as_secs_f64();
        saccs_obs::registry()
            .histogram(histogram)
            .record(t0.elapsed().as_nanos() as u64);
        best = best.min(wall);
        out = Some(v);
    }
    (out.expect("TIMING_REPS > 0"), best)
}

fn main() {
    saccs_bench::obs_init();
    let mut report = String::new();
    let mut headline: Vec<(String, f64)> = Vec::new();

    println!(
        "Query planner bench: {} queries over {SIZES:?} entities\n",
        QUERIES.len()
    );
    for universe in SIZES {
        let idx = build_index(universe);
        let catalog = SynthCatalog { universe };
        let mut t_plan = 0.0;
        let mut t_ltr = 0.0;
        let mut t_naive = 0.0;
        for (name, dsl) in QUERIES {
            let filter = Filter::parse(dsl).expect("bench DSL parses");
            let (rare, wall_rare) = best_of(&format!("query.plan.{universe}"), || {
                compile(&filter, &idx, &catalog, JoinOrder::RarestFirst).expect("compiles")
            });
            let (ltr, wall_ltr) = best_of(&format!("query.ltr.{universe}"), || {
                compile(&filter, &idx, &catalog, JoinOrder::LeftToRight).expect("compiles")
            });
            let (naive, wall_naive) = best_of(&format!("query.naive.{universe}"), || {
                naive_matches(&filter, &idx, &catalog).expect("evaluates")
            });
            if rare.bitmap().to_vec() != naive || ltr.bitmap().to_vec() != naive {
                println!("DIVERGENCE: `{dsl}` plans disagree at {universe} entities");
                std::process::exit(1);
            }
            t_plan += wall_rare;
            t_ltr += wall_ltr;
            t_naive += wall_naive;
            let ids: Vec<String> = naive.iter().take(20).map(|e| e.to_string()).collect();
            let _ = writeln!(
                report,
                "{{\"universe\":{universe},\"query\":\"{name}\",\"matched\":{},\"first\":[{}]}}",
                naive.len(),
                ids.join(",")
            );
        }
        let speedup = t_naive / t_plan;
        let order_gain = t_ltr / t_plan;
        println!(
            "{universe} entities: plans == naive on every query\n  \
             planner {:.3} ms   naive {:.3} ms   ({speedup:.1}x, best of {TIMING_REPS})\n  \
             left-to-right {:.3} ms   (rarest-first {order_gain:.2}x over source order)",
            t_plan * 1e3,
            t_naive * 1e3,
            t_ltr * 1e3
        );
        headline.push((format!("speedup_{}k", universe / 1000), speedup));
        if universe == 100_000 {
            headline.push(("rarest_vs_ltr_100k".to_string(), order_gain));
            if speedup < 3.0 {
                println!("WARNING: planner speedup {speedup:.1}x below the 3x acceptance bar");
            }
        }
    }

    saccs_bench::write_export("QUERY_report.jsonl", &report);
    let metrics: Vec<(&str, f64)> = headline.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    saccs_bench::obs_finish("query", &metrics);
}
