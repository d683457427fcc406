//! Probe-scaling bench: the sublinear fallback probe A/B.
//!
//! Phase 1 (corpus): a deterministic 100k-tag synthetic corpus
//! (`saccs_data::synthetic_tags` — lexicon pairs plus fuzzy-resolvable
//! typo variants) is bulk-loaded through `install_postings` into two
//! indexes: the default one, whose fallback probes go through its cell
//! index, and the scan reference, the same similarity fed in as a custom
//! one.
//!
//! Phase 2 (equality + recall): every fallback probe must come back from
//! the cell index bitwise identical to the exhaustive scan — the
//! semantic candidate cells prune with sound upper bounds and rescore
//! with the exact similarity, so recall@10 is 1.0 by construction and
//! any divergence exits non-zero.
//!
//! Phase 3 (speedup): wall-clock A/B of the same probes, scan vs cells.
//! Each arm reports its best pass of as many as fit in `ARM_BUDGET`
//! (at least `MIN_PASSES`): about 2 s per run at any corpus size, for a
//! best of hundreds of passes, which moves far less between runs than
//! a best of 3 (EXPERIMENTS.md, "Probe timings by budget"). Both arms
//! resolve the probe once and score it against the index tags resolved
//! at load with the one scorer, so the ratio measures cell pruning
//! alone: about 2× at 20k tags (EXPERIMENTS.md, "Sublinear fallback
//! probe").
//!
//! Phase 4 (export): probe rankings (score bits) and corpus stats go to
//! `PROBE_report.jsonl` as JSON lines; the file is a pure function of
//! the build and `scripts/ci.sh` byte-diffs two runs.
//!
//! Environment: `SACCS_PROBE_TAGS` (corpus size, default 100000),
//! `SACCS_OBS=json` to emit `BENCH_probe.json`.

use saccs_bench::{bits, ranked, ranking_json, write_export};
use saccs_data::synthetic_tags;
use saccs_index::index::{IndexConfig, SubjectiveIndex};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const N_ENTITIES: usize = 200;
/// Wall-clock time each timed arm keeps making passes over the probes.
const ARM_BUDGET: Duration = Duration::from_millis(500);
/// Passes each arm makes however long they take.
const MIN_PASSES: usize = 3;

/// Top-10 entity-overlap recall of `got` against `want`.
fn recall_at_10(got: &[(usize, f32)], want: &[(usize, f32)]) -> f64 {
    let top: Vec<usize> = want.iter().take(10).map(|&(e, _)| e).collect();
    if top.is_empty() {
        return 1.0;
    }
    let hit = got.iter().take(10).filter(|(e, _)| top.contains(e)).count();
    hit as f64 / top.len() as f64
}

/// Deterministic posting columns: entities and degrees a pure function
/// of the tag's position.
fn synthetic_postings(tags: &[SubjectiveTag]) -> Vec<(SubjectiveTag, Vec<(usize, f32)>)> {
    tags.iter()
        .enumerate()
        .map(|(i, tag)| {
            let raw = (0..1 + i % 3)
                .map(|p| {
                    let e = (i * 7 + p * 31) % N_ENTITIES;
                    let d = 0.05 + ((i + p * 13) % 97) as f32 / 100.0;
                    (e, d)
                })
                .collect();
            (tag.clone(), raw)
        })
        .collect()
}

/// Load `postings` into the default index, or with `scan` into the scan
/// reference.
fn load_index(
    postings: &[(SubjectiveTag, Vec<(usize, f32)>)],
    config: IndexConfig,
    scan: bool,
) -> SubjectiveIndex {
    let sim = ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants));
    let mut idx = SubjectiveIndex::new(sim.clone(), config);
    if scan {
        idx = idx.with_custom_similarity(sim);
    }
    idx.install_postings(postings.iter().cloned());
    assert_eq!(idx.len(), postings.len());
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

/// The best wall clock of one pass probing every tag in `probes`, over
/// as many passes as fit in [`ARM_BUDGET`] (at least [`MIN_PASSES`]),
/// recording per-probe latency into `histogram`. Returns the best pass
/// and the number of passes.
fn time_probes(idx: &SubjectiveIndex, probes: &[SubjectiveTag], histogram: &str) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed() < ARM_BUDGET {
        passes += 1;
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
    (best, passes)
}

fn main() {
    saccs_bench::obs_init();
    let n_tags = saccs_bench::env_usize("SACCS_PROBE_TAGS", 100_000);
    let lexicon = Lexicon::new(Domain::Restaurants);

    // Phase 1: the synthetic corpus as posting columns.
    let t0 = Instant::now();
    let tags = synthetic_tags(&lexicon, n_tags, 0x5EED);
    let postings = synthetic_postings(&tags);
    println!(
        "Probe bench: {} tags, {N_ENTITIES} entities (generated in {:.2}s)\n",
        tags.len(),
        t0.elapsed().as_secs_f64()
    );

    // Phases 2+3, per θ_filter: bitwise equality (and therefore exact
    // recall), then the scan-vs-cells wall clock. θ=0.45 is the paper
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
        let probe_idx = load_index(&postings, IndexConfig::default(), false);
        fallback_probes(&lexicon, &probe_idx, 8)
    };
    for theta in [0.45f32, 0.55] {
        let config = IndexConfig {
            theta_filter: theta,
            ..IndexConfig::default()
        };
        let scan_idx = load_index(&postings, config.clone(), true);
        let cell_idx = load_index(&postings, config, false);
        let mut recall = 0.0;
        for probe in &probes {
            let scan = scan_idx.probe_readonly(probe);
            let cells = cell_idx.probe_readonly(probe);
            if bits(&cells) != bits(&scan) {
                println!("DIVERGENCE: cell probe for {probe:?} differs from scan at θ={theta}");
                std::process::exit(1);
            }
            let (cells, scan) = (
                ranked(&cell_idx, probe, cells),
                ranked(&scan_idx, probe, scan),
            );
            let cell_bits = bits(&cells);
            recall += recall_at_10(&cells, &scan);
            let _ = writeln!(
                report,
                "{{\"theta\":\"{theta}\",\"probe\":\"{}\",\"matches\":{},\"ranking\":{}}}",
                probe.phrase(),
                cells.len(),
                ranking_json(&cell_bits[..cell_bits.len().min(20)])
            );
        }
        recall /= probes.len() as f64;
        let (t_scan, scan_passes) = time_probes(
            &scan_idx,
            &probes,
            &format!("probe.scan.t{}", theta * 100.0),
        );
        let (t_cells, cell_passes) =
            time_probes(&cell_idx, &probes, &format!("probe.ann.t{}", theta * 100.0));
        let speedup = t_scan / t_cells;
        println!(
            "θ={theta}: {} fallback probes bitwise identical to scan (recall@10 = {recall:.3})\n  \
             scan  {:.2} ms (best of {scan_passes})\n  \
             cells {:.2} ms (best of {cell_passes})   ({speedup:.1}x)",
            probes.len(),
            t_scan * 1e3,
            t_cells * 1e3
        );
        if theta == 0.45 {
            default_speedup = speedup;
        } else {
            semantic_speedup = speedup;
            semantic_recall = recall;
        }
    }

    // Phase 4: the deterministic export (timings excluded by design).
    let _ = writeln!(
        report,
        "{{\"corpus\":{{\"tags\":{},\"entities\":{N_ENTITIES}}}}}",
        tags.len()
    );
    write_export("PROBE_report.jsonl", &report);

    saccs_bench::obs_finish(
        "probe",
        &[
            ("tags", tags.len() as f64),
            ("semantic_recall_at10", semantic_recall),
            ("semantic_speedup", semantic_speedup),
            ("semantic_speedup_default_theta", default_speedup),
        ],
    );
}
