//! Probe-scaling bench: the sublinear fallback probe A/B.
//!
//! Phase 1 (corpus): a deterministic 100k-tag synthetic corpus
//! (`saccs_data::synthetic_tags` — lexicon pairs plus fuzzy-resolvable
//! typo variants) is loaded through the snapshot `restore` path into two
//! indexes that differ only in `ann_enabled`.
//!
//! Phase 2 (equality + recall): every fallback probe must come back from
//! the ANN index bitwise identical to the exhaustive scan — the semantic
//! candidate cells prune with sound upper bounds and rescore with the
//! exact similarity, so recall@10 is 1.0 by construction and any
//! divergence exits non-zero.
//!
//! Phase 3 (speedup): wall-clock A/B of the same probes, scan vs ANN,
//! best-of-N. The ≥10x headline quoted in EXPERIMENTS.md.
//!
//! Phase 4 (rank-hits micro): the probe accumulator — stable-sorted Vec
//! fold vs the old per-entity BTreeMap — on a synthetic hit stream; both
//! must produce bit-identical rankings (same per-entity addition order).
//!
//! Phase 5 (export): probe rankings (score bits) and corpus stats go to
//! `SACCS_PROBE_OUT` as JSON lines; the file is a pure function of the
//! build and `scripts/ci.sh` byte-diffs two runs.
//!
//! Environment: `SACCS_PROBE_TAGS` (corpus size, default 100000),
//! `SACCS_PROBE_OUT` (default `PROBE_report.jsonl`), `SACCS_OBS=json`
//! to emit `BENCH_probe.json`.

use saccs_data::synthetic_tags;
use saccs_index::index::{IndexConfig, SubjectiveIndex};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const N_ENTITIES: usize = 200;
const TIMING_REPS: usize = 3;

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(e, s)| (e, s.to_bits())).collect()
}

/// Top-10 entity-overlap recall of `got` against `want`.
fn recall_at_10(got: &[(usize, f32)], want: &[(usize, f32)]) -> f64 {
    let top: Vec<usize> = want.iter().take(10).map(|&(e, _)| e).collect();
    if top.is_empty() {
        return 1.0;
    }
    let hit = got.iter().take(10).filter(|(e, _)| top.contains(e)).count();
    hit as f64 / top.len() as f64
}

/// Deterministic snapshot image: one posting line per tag, entities and
/// degrees a pure function of the tag's position.
fn synthetic_snapshot(tags: &[SubjectiveTag]) -> String {
    let mut snap = String::new();
    for (i, tag) in tags.iter().enumerate() {
        let _ = write!(snap, "{}|{}\t", tag.opinion, tag.aspect);
        for p in 0..1 + i % 3 {
            if p > 0 {
                snap.push(',');
            }
            let e = (i * 7 + p * 31) % N_ENTITIES;
            let d = 0.05 + ((i + p * 13) % 97) as f32 / 100.0;
            let _ = write!(snap, "{e}:{d}:{d}");
        }
        snap.push('\n');
    }
    snap
}

fn restore_index(snap: &str, config: IndexConfig) -> SubjectiveIndex {
    let mut idx = SubjectiveIndex::new(
        ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
        config,
    );
    let n = idx
        .restore(snap.as_bytes())
        .expect("synthetic snapshot restores");
    assert_eq!(n, snap.lines().count());
    idx
}

/// Unknown cross-domain probes: one per opinion group, pairing its first
/// variant with an aspect the group does *not* naturally apply to, so
/// every probe misses the exact lookup and exercises the θ_filter
/// fallback (matching through same-concept aspects of other groups).
fn fallback_probes(lexicon: &Lexicon, index: &SubjectiveIndex, n: usize) -> Vec<SubjectiveTag> {
    let mut probes = Vec::new();
    for group in lexicon.opinion_groups() {
        if let Some(aspect) = lexicon
            .aspects()
            .iter()
            .find(|a| !group.aspects.contains(&a.canonical))
        {
            let tag = SubjectiveTag::new(group.variants[0], aspect.members[0]);
            if index.lookup(&tag).is_none() && !probes.contains(&tag) {
                probes.push(tag);
            }
        }
        if probes.len() == n {
            break;
        }
    }
    assert!(probes.len() >= 4, "not enough fallback probes");
    probes
}

/// Best-of-N wall clock for probing every tag in `probes`, recording
/// per-probe latency into `histogram`.
fn time_probes(idx: &SubjectiveIndex, probes: &[SubjectiveTag], histogram: &str) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TIMING_REPS {
        let mut sink = 0usize;
        let t0 = Instant::now();
        for p in probes {
            let t1 = Instant::now();
            sink += idx.probe_readonly(p).len();
            saccs_obs::registry()
                .histogram(histogram)
                .record(t1.elapsed().as_nanos() as u64);
        }
        let wall = t0.elapsed().as_secs_f64();
        assert!(sink > 0, "fallback probes all came back empty");
        best = best.min(wall);
    }
    best
}

/// The index's probe accumulator: stable sort by entity, then one
/// left-to-right fold per run (see `SubjectiveIndex::rank_hits`).
fn rank_vec(mut hits: Vec<(usize, f32)>) -> Vec<(usize, f32)> {
    hits.sort_by_key(|&(e, _)| e);
    let mut ranked: Vec<(usize, f32)> = Vec::new();
    for (e, s) in hits {
        match ranked.last_mut() {
            Some((le, ls)) if *le == e => *ls += s,
            _ => ranked.push((e, s)),
        }
    }
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    ranked
}

/// The pre-refactor accumulator: per-entity BTreeMap, same addition
/// order per entity (grouped encounter order), so bit-identical output.
fn rank_btree(hits: &[(usize, f32)]) -> Vec<(usize, f32)> {
    let mut scores: BTreeMap<usize, f32> = BTreeMap::new();
    for &(e, s) in hits {
        *scores.entry(e).or_insert(0.0) += s;
    }
    let mut ranked: Vec<(usize, f32)> = scores.into_iter().collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    ranked
}

fn main() {
    saccs_bench::obs_init();
    let n_tags: usize = env_or("SACCS_PROBE_TAGS", "100000")
        .parse()
        .unwrap_or(100_000);
    let out_path = env_or("SACCS_PROBE_OUT", "PROBE_report.jsonl");
    let lexicon = Lexicon::new(Domain::Restaurants);

    // Phase 1: the synthetic corpus through the snapshot path.
    let t0 = Instant::now();
    let tags = synthetic_tags(&lexicon, n_tags, 0x5EED);
    let snap = synthetic_snapshot(&tags);
    println!(
        "Probe bench: {} tags, {N_ENTITIES} entities (generated in {:.2}s)\n",
        tags.len(),
        t0.elapsed().as_secs_f64()
    );

    // Phases 2+3, per θ_filter: bitwise equality (and therefore exact
    // recall), then the scan-vs-ANN wall clock. θ=0.45 is the paper
    // default: shared-applicability cells (upper bound exactly 0.45)
    // survive the strict `> θ` filter, a probe matches a sizeable slice
    // of the corpus, and the achievable speedup is bounded by output
    // size. θ=0.55 prunes those cells and is the selective regime the
    // sublinear structure targets — that speedup is the headline.
    let mut report = String::new();
    let mut semantic_recall = 1.0;
    let mut semantic_speedup = 0.0;
    let mut default_speedup = 0.0;
    let probes = {
        let probe_idx = restore_index(&snap, IndexConfig::default());
        fallback_probes(&lexicon, &probe_idx, 8)
    };
    for theta in [0.45f32, 0.55] {
        let config = IndexConfig {
            theta_filter: theta,
            ..IndexConfig::default()
        };
        let scan_idx = restore_index(&snap, config.clone());
        let ann_idx = restore_index(
            &snap,
            IndexConfig {
                ann_enabled: true,
                ..config
            },
        );
        let mut recall = 0.0;
        for probe in &probes {
            let scan = scan_idx.probe_readonly(probe);
            let ann = ann_idx.probe_readonly(probe);
            if bits(&ann) != bits(&scan) {
                println!("DIVERGENCE: ANN probe for {probe:?} differs from scan at θ={theta}");
                std::process::exit(1);
            }
            recall += recall_at_10(&ann, &scan);
            let ranking: Vec<String> = ann
                .iter()
                .take(20)
                .map(|&(e, s)| format!("[{e},{}]", s.to_bits()))
                .collect();
            let _ = writeln!(
                report,
                "{{\"theta\":\"{theta}\",\"probe\":\"{}\",\"matches\":{},\"ranking\":[{}]}}",
                probe.phrase(),
                ann.len(),
                ranking.join(",")
            );
        }
        recall /= probes.len() as f64;
        let t_scan = time_probes(
            &scan_idx,
            &probes,
            &format!("probe.scan.t{}", theta * 100.0),
        );
        let t_ann = time_probes(&ann_idx, &probes, &format!("probe.ann.t{}", theta * 100.0));
        let speedup = t_scan / t_ann;
        println!(
            "θ={theta}: {} fallback probes bitwise identical to scan (recall@10 = {recall:.3})\n  \
             scan {:.2} ms\n  ann  {:.2} ms   ({speedup:.1}x, best of {TIMING_REPS})",
            probes.len(),
            t_scan * 1e3,
            t_ann * 1e3
        );
        if theta == 0.45 {
            default_speedup = speedup;
        } else {
            semantic_speedup = speedup;
            semantic_recall = recall;
            if speedup < 10.0 {
                println!("WARNING: ANN speedup {speedup:.1}x below the 10x acceptance bar");
            }
        }
    }

    // Phase 4: rank-hits accumulator micro-benchmark, on two hit
    // shapes: *dense* (this bench's 200-entity corpus — few keys, the
    // BTreeMap's best case) and *sparse* (100k entities — the scaling
    // regime this PR targets, where per-key tree nodes lose to one
    // contiguous sort). Both accumulators must agree bit for bit.
    let micro = |entities: usize| -> (f64, f64) {
        let hits: Vec<(usize, f32)> = (0..200_000)
            .map(|i| ((i * 31) % entities, 0.4 + (i % 13) as f32 / 20.0))
            .collect();
        let want = rank_btree(&hits);
        if bits(&rank_vec(hits.clone())) != bits(&want) {
            println!("DIVERGENCE: Vec accumulator differs from BTreeMap accumulator");
            std::process::exit(1);
        }
        let mut t_vec = f64::INFINITY;
        let mut t_btree = f64::INFINITY;
        for _ in 0..5 {
            let input = hits.clone();
            let t0 = Instant::now();
            let r = rank_vec(input);
            t_vec = t_vec.min(t0.elapsed().as_secs_f64());
            assert_eq!(r.len(), want.len());
            let t0 = Instant::now();
            let r = rank_btree(&hits);
            t_btree = t_btree.min(t0.elapsed().as_secs_f64());
            assert_eq!(r.len(), want.len());
        }
        (t_btree, t_vec)
    };
    let (dense_btree, dense_vec) = micro(N_ENTITIES);
    let (sparse_btree, sparse_vec) = micro(100_000);
    let rankhits_speedup = sparse_btree / sparse_vec;
    println!(
        "\nrank-hits accumulator (200k hits, best of 5, outputs bit-identical):\n  \
         dense  ({N_ENTITIES} entities): btree {:.2} ms, vec {:.2} ms   ({:.2}x)\n  \
         sparse (100000 entities): btree {:.2} ms, vec {:.2} ms   ({rankhits_speedup:.2}x)",
        dense_btree * 1e3,
        dense_vec * 1e3,
        dense_btree / dense_vec,
        sparse_btree * 1e3,
        sparse_vec * 1e3
    );

    // Phase 5: the deterministic export (timings excluded by design).
    let _ = writeln!(
        report,
        "{{\"corpus\":{{\"tags\":{},\"entities\":{N_ENTITIES}}}}}",
        tags.len()
    );
    match std::fs::write(&out_path, &report) {
        Ok(()) => println!("\nwrote {out_path} ({} probes)", probes.len()),
        Err(e) => {
            println!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    saccs_bench::obs_finish(
        "probe",
        &[
            ("tags", tags.len() as f64),
            ("semantic_recall_at10", semantic_recall),
            ("semantic_speedup", semantic_speedup),
            ("semantic_speedup_default_theta", default_speedup),
            ("rankhits_speedup", rankhits_speedup),
        ],
    );
}
