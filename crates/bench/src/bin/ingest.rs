//! Ingest-scaling bench: the segmented live index under a seeded review
//! stream.
//!
//! Phase 1 (equivalence checkpoints): a persistent [`LiveIndex`] —
//! sealing, compacting and committing under `SACCS_INGEST_DIR` — ingests
//! a seeded stream; at fixed checkpoints every probe must come back
//! bitwise identical to a `SubjectiveIndex` rebuilt from scratch over
//! the same review log, and any divergence exits non-zero. The store is
//! then checkpointed, reopened, and the recovered index must reproduce
//! the same bits. Rankings (score bits) and segment counts go to
//! `INGEST_report.jsonl` as JSON lines; the file is a pure function of
//! the build and `scripts/ci.sh` byte-diffs two runs.
//!
//! Phase 2 (throughput A/B): reviews/sec and pinned-probe latency as the
//! seal cadence sweeps `{16, 64, 256}` with compaction off — three
//! different sealed-segment counts over the same stream, isolating the
//! cost of probing across more (smaller) segments. Timings are printed
//! and land in the `BENCH_ingest.json` headline, never in the export.
//!
//! Catalog section (per-review latency at the repository benchmark's
//! catalog shape): a memory-only [`LiveIndex`] with
//! `LiveConfig::default()` ingests 20,000 reviews of 1–4 tags over 2,000
//! entities from `synthetic_tags(lex, 4000, 0x5ACC)`, indexes the first
//! 200 tags, then times 1,000 more `add_review` calls one by one, and
//! with `SACCS_OBS=json` prints each ingest span per timed review. Every
//! posting column is then compared with a from-scratch rebuild of the
//! same log (entity ids and degree bits in slot order; `DIVERGENCE` and
//! a non-zero exit on any difference). The export gains one line: the
//! posting count, the mean number of posting lists a timed review
//! changed, and an FNV-1a digest over every column's Table-1 rows
//! (ranked, with normalized degrees).
//!
//! Environment: `SACCS_INGEST_REVIEWS` (phase-2 stream length, default
//! 3000), `SACCS_INGEST_DIR` (default `target/ingest-bench`, wiped at
//! start), `SACCS_OBS=json` to emit `BENCH_ingest.json`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saccs_bench::{bits, ranked, ranking_json, write_export};
use saccs_data::synthetic_tags;
use saccs_index::index::IndexConfig;
use saccs_index::{LiveConfig, LiveIndex, LiveSnapshot, Postings, ReviewRecord};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const N_ENTITIES: usize = 100;
const EQ_REVIEWS: usize = 256;
const EQ_CHECK_EVERY: usize = 64;
const TIMING_REPS: usize = 3;
const SEED: u64 = 0x1A6E57;

/// The catalog section's shape: the repository benchmark's catalog set-up.
const CATALOG_ENTITIES: usize = 2000;
const CATALOG_VOCAB: usize = 4000;
const CATALOG_SEED: u64 = 0x5ACC;
const CATALOG_REVIEWS: usize = 20_000;
const CATALOG_INDEXED: usize = 200;
const CATALOG_TIMED: usize = 1000;
/// The spans a memory-only review's time breaks into (`index.ingest.persist`
/// needs a store).
const INGEST_PARTS: [&str; 6] = [
    "index.ingest.fold",
    "index.ingest.splice",
    "index.ingest.seal",
    "index.ingest.publish",
    "index.ingest.reclaim",
    "index.ingest.compact",
];

fn sim() -> ConceptualSimilarity {
    ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants))
}

/// The seeded review stream: `n` reviews over `entities` entities,
/// 1–`max_tags` tags each, drawn from the synthetic vocabulary.
fn stream(
    vocab: &[SubjectiveTag],
    n: usize,
    entities: usize,
    max_tags: usize,
    rng: &mut StdRng,
) -> Vec<(usize, Vec<SubjectiveTag>)> {
    (0..n)
        .map(|_| {
            let entity = rng.gen_range(0..entities);
            let k = 1 + rng.gen_range(0..max_tags);
            let tags = (0..k)
                .map(|_| vocab[rng.gen_range(0..vocab.len())].clone())
                .collect();
            (entity, tags)
        })
        .collect()
}

/// From-scratch comparator over a review log: a fresh memory-only
/// replay, reviews first, then the tags.
fn rebuild(log: &[ReviewRecord], tags: &[SubjectiveTag]) -> Arc<LiveSnapshot> {
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
    replay.pin()
}

/// Compare every probe on the live index against the rebuild, appending
/// deterministic report lines; exits non-zero on the first divergence.
fn check_equivalence(
    label: &str,
    live: &LiveIndex,
    log: &[ReviewRecord],
    index_tags: &[SubjectiveTag],
    probes: &[SubjectiveTag],
    report: &mut String,
) {
    let replay = rebuild(log, index_tags);
    let snapshot = live.pin();
    for probe in probes {
        let answer = live.probe_pinned(&snapshot, probe);
        if bits(&answer) != bits(&replay.probe_readonly(probe)) {
            println!(
                "DIVERGENCE: live probe for {probe:?} differs from rebuild at {label} \
                 ({} reviews, {} segments)",
                log.len(),
                live.segment_count()
            );
            std::process::exit(1);
        }
        let got = bits(&ranked(&snapshot, probe, answer));
        let _ = writeln!(
            report,
            "{{\"checkpoint\":\"{label}\",\"reviews\":{},\"segments\":{},\"probe\":\"{}\",\"ranking\":{}}}",
            log.len(),
            live.segment_count(),
            probe.phrase(),
            ranking_json(&got[..got.len().min(20)])
        );
    }
}

fn main() {
    saccs_bench::obs_init();
    let n_perf = saccs_bench::env_usize("SACCS_INGEST_REVIEWS", 3000);
    let dir = std::env::var("SACCS_INGEST_DIR").unwrap_or_else(|_| "target/ingest-bench".into());
    let lexicon = Lexicon::new(Domain::Restaurants);

    // The shared vocabulary: review tags are drawn from all of it, the
    // index covers a 32-tag prefix, and the probe set mixes indexed
    // tags with out-of-vocabulary ones (the fallback path).
    let vocab = synthetic_tags(&lexicon, 400, 0x5EED);
    let index_tags: Vec<SubjectiveTag> = vocab.iter().take(32).cloned().collect();
    let mut probes: Vec<SubjectiveTag> = vocab.iter().take(4).cloned().collect();
    probes.extend(vocab.iter().rev().take(4).cloned());

    // Phase 1: equivalence checkpoints on the persistent path.
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = StdRng::seed_from_u64(SEED);
    let eq_stream = stream(&vocab, EQ_REVIEWS, N_ENTITIES, 3, &mut rng);
    let mut report = String::new();
    let live = match LiveIndex::open(
        &dir,
        sim(),
        IndexConfig::default(),
        LiveConfig {
            seal_every: 16,
            max_segments: 4,
        },
    ) {
        Ok(live) => live,
        Err(e) => {
            println!("failed to open {dir}: {e:?}");
            std::process::exit(1);
        }
    };
    live.add_tags(&index_tags);
    let t0 = Instant::now();
    let mut log: Vec<ReviewRecord> = Vec::new();
    for (i, (entity_id, tags)) in eq_stream.iter().enumerate() {
        let receipt = live.add_review(*entity_id, tags);
        log.push(ReviewRecord {
            seq: receipt.seq,
            entity_id: *entity_id,
            tags: tags.clone(),
        });
        if (i + 1) % EQ_CHECK_EVERY == 0 {
            check_equivalence("live", &live, &log, &index_tags, &probes, &mut report);
        }
    }
    println!(
        "Phase 1: {EQ_REVIEWS} reviews persisted+checked in {:.2}s \
         ({} segments after compaction)",
        t0.elapsed().as_secs_f64(),
        live.segment_count()
    );
    if let Err(e) = live.checkpoint() {
        println!("checkpoint failed: {e:?}");
        std::process::exit(1);
    }
    drop(live);
    let recovered = match LiveIndex::open(
        &dir,
        sim(),
        IndexConfig::default(),
        LiveConfig {
            seal_every: 16,
            max_segments: 4,
        },
    ) {
        Ok(live) => live,
        Err(e) => {
            println!("recovery failed: {e:?}");
            std::process::exit(1);
        }
    };
    if recovered.review_log() != log {
        println!("DIVERGENCE: recovered review log differs from the ingested stream");
        std::process::exit(1);
    }
    check_equivalence(
        "recovered",
        &recovered,
        &log,
        &index_tags,
        &probes,
        &mut report,
    );
    println!("Phase 1: recovery round trip bitwise identical\n");
    drop(recovered);

    // Phase 2: seal-cadence sweep, compaction off — three segment
    // counts over the same stream.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xB0B);
    let perf_stream = stream(&vocab, n_perf, N_ENTITIES, 3, &mut rng);
    let mut headline: Vec<(String, f64)> = vec![("reviews".into(), n_perf as f64)];
    println!("Phase 2: {n_perf} reviews per cadence, probe latency best of {TIMING_REPS}");
    for seal_every in [16usize, 64, 256] {
        let live = LiveIndex::new(
            sim(),
            IndexConfig::default(),
            LiveConfig {
                seal_every,
                max_segments: 0,
            },
        );
        live.add_tags(&index_tags);
        let t0 = Instant::now();
        for (entity_id, tags) in &perf_stream {
            live.add_review(*entity_id, tags);
        }
        let ingest_wall = t0.elapsed().as_secs_f64();
        let rps = n_perf as f64 / ingest_wall;
        let segments = live.segment_count();

        let snapshot = live.pin();
        let histogram = format!("ingest.probe.s{seal_every}");
        let mut best = f64::INFINITY;
        for _ in 0..TIMING_REPS {
            let mut sink = 0usize;
            let t0 = Instant::now();
            for probe in &probes {
                let t1 = Instant::now();
                sink += live.probe_pinned(&snapshot, probe).len();
                saccs_obs::registry()
                    .histogram(&histogram)
                    .record(t1.elapsed().as_nanos() as u64);
            }
            best = best.min(t0.elapsed().as_secs_f64());
            assert!(sink > 0, "probes all came back empty");
        }
        println!(
            "  seal_every={seal_every:>3}: {segments:>3} segments, \
             {rps:>9.0} reviews/s, probes {:.3} ms",
            best * 1e3
        );
        headline.push((format!("rps_s{seal_every}"), rps));
        headline.push((format!("probe_ms_s{seal_every}"), best * 1e3));
        headline.push((format!("segments_s{seal_every}"), segments as f64));
    }

    catalog(&lexicon, &mut report, &mut headline);

    write_export("INGEST_report.jsonl", &report);
    let headline_refs: Vec<(&str, f64)> = headline.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    saccs_bench::obs_finish("ingest", &headline_refs);
}

/// The catalog section: per-review `add_review` latency at the
/// benchmark's catalog shape, then a column-by-column check against a
/// from-scratch rebuild. Appends one export line and the `catalog_*`
/// headline numbers.
fn catalog(lexicon: &Lexicon, report: &mut String, headline: &mut Vec<(String, f64)>) {
    let vocab = synthetic_tags(lexicon, CATALOG_VOCAB, CATALOG_SEED);
    let index_tags = &vocab[..CATALOG_INDEXED];
    let mut rng = StdRng::seed_from_u64(CATALOG_SEED);
    let setup = stream(&vocab, CATALOG_REVIEWS, CATALOG_ENTITIES, 4, &mut rng);
    let timed = stream(&vocab, CATALOG_TIMED, CATALOG_ENTITIES, 4, &mut rng);

    let t0 = Instant::now();
    let live = LiveIndex::new(sim(), IndexConfig::default(), LiveConfig::default());
    for (entity_id, tags) in &setup {
        live.add_review(*entity_id, tags);
    }
    live.add_tags(index_tags);
    println!(
        "\nCatalog: {CATALOG_ENTITIES} entities, {CATALOG_REVIEWS} reviews, \
         {CATALOG_INDEXED} index tags set up in {:.2}s",
        t0.elapsed().as_secs_f64()
    );

    let spliced = || saccs_obs::registry().counter("index.ingest.spliced").get();
    let part_ns = || INGEST_PARTS.map(|part| saccs_obs::registry().histogram(part).sum());
    let (spliced0, part_ns0) = (spliced(), part_ns());
    let mut micros = Vec::with_capacity(CATALOG_TIMED);
    let t0 = Instant::now();
    for (entity_id, tags) in &timed {
        let t1 = Instant::now();
        live.add_review(*entity_id, tags);
        micros.push(t1.elapsed().as_secs_f64() * 1e6);
    }
    let rps = CATALOG_TIMED as f64 / t0.elapsed().as_secs_f64();
    let touched = (spliced() - spliced0) as f64 / CATALOG_TIMED as f64;
    micros.sort_by(f64::total_cmp);
    let quantile = |q: f64| micros[((micros.len() - 1) as f64 * q).round() as usize];
    let (p50, p90) = (quantile(0.5), quantile(0.9));
    println!(
        "Catalog: {CATALOG_TIMED} reviews timed: p50 {p50:.0} us, p90 {p90:.0} us, \
         {rps:.0} reviews/s, {touched:.1} posting lists changed per review"
    );
    let part_ns1 = part_ns();

    let replay = rebuild(&live.review_log(), index_tags);
    let snapshot = live.pin();
    let mut postings = 0usize;
    let mut digest = 0u64;
    for tag in index_tags {
        let (live_column, replayed) = (snapshot.lookup(tag), replay.lookup(tag));
        if live_column.map(slot_bits) != replayed.map(slot_bits) {
            println!(
                "DIVERGENCE: live posting list for {tag:?} differs from rebuild \
                 after the catalog stream"
            );
            std::process::exit(1);
        }
        let rows = live_column.map(|p| p.table()).unwrap_or_default();
        postings += rows.len();
        for (entity_id, degree, normalized) in rows {
            digest = saccs_obs::trace::hash_bytes(digest, &(entity_id as u64).to_le_bytes());
            digest = saccs_obs::trace::hash_bytes(digest, &degree.to_bits().to_le_bytes());
            digest = saccs_obs::trace::hash_bytes(digest, &normalized.to_bits().to_le_bytes());
        }
    }
    println!("Catalog: every posting list bitwise identical to a from-scratch rebuild");
    let _ = writeln!(
        report,
        "{{\"checkpoint\":\"catalog\",\"reviews\":{},\"tags\":{CATALOG_INDEXED},\
         \"postings\":{postings},\"touched_per_review\":{touched:.3},\"digest\":\"{digest:016x}\"}}",
        CATALOG_REVIEWS + CATALOG_TIMED,
    );
    headline.push(("catalog_review_p50_us".into(), p50));
    headline.push(("catalog_review_p90_us".into(), p90));
    headline.push(("catalog_reviews_per_s".into(), rps));
    headline.push(("catalog_touched_per_review".into(), touched));
    // Span sums move only while span timing is on (`SACCS_OBS=json`).
    if saccs_obs::enabled() {
        for ((part, before), after) in INGEST_PARTS.iter().zip(part_ns0).zip(part_ns1) {
            let us = (after - before) as f64 / 1e3 / CATALOG_TIMED as f64;
            println!("  {part}: {us:.1} us per timed review");
            headline.push((format!("catalog_{}_us", &part["index.ingest.".len()..]), us));
        }
    }
}

/// A posting column as `(entity, degree bits)` in slot order.
fn slot_bits(postings: Postings<'_>) -> Vec<(usize, u32)> {
    postings.iter().map(|(e, d)| (e, d.to_bits())).collect()
}
