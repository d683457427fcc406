//! The traced phase: where a request's time goes, layer by layer.
//!
//! Spans are recorded here, around the benchmark's own calls into each
//! layer's public function; nothing inside the program is instrumented.
//! The phase has four parts, each given a share of `--seconds`:
//!
//! 1. A whole replay: sampled requests run serially through
//!    `SaccsService::rank_request`, giving the parent span `core.rank`.
//!    On `chat`, a second sample runs through `extract_tags` for the
//!    parent span `core.extract`.
//! 2. A decomposed replay: a disjoint sample from the same generator,
//!    calling each stage's public function in Algorithm-1 order. It
//!    must be disjoint: a first call warms the encoder memo, so
//!    replaying the same utterance would time memo hits.
//! 3. On `catalog_mixed`: direct `LiveIndex::add_review` calls, each
//!    classed by its `IngestReceipt`, interleaved with pinned probes.
//! 4. Open loops alternating between the plain server and one with the
//!    flight recorder on, for queue wait and the tracing overhead.
//!
//! Aggregation and padding have no public entry point, so they are
//! measured as the residual: the parent's mean minus the per-request
//! means of the stages attributed to it.

use crate::load::{self, Sample};
use crate::report::{Kind, Metric};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{part, purpose, stream, OpStream, Requests, Stack, Workload};
use saccs_core::extractor::sentence_tokens;
use saccs_core::{RankInput, RankRequest, SearchApi};
use saccs_index::{IngestReceipt, LiveConfig};
use saccs_query::{compile, JoinOrder};
use saccs_text::iob::spans_from_tags;
use saccs_text::{Span, SpanKind, SubjectiveTag};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Requests per replay sample (fewer if the time share runs out).
const REPLAY_REQUESTS: usize = 2000;
/// Direct ingests on `catalog_mixed` (fewer if the time share runs out).
const INGEST_REVIEWS: usize = 300;
/// Request ids of each part's spans.
const WHOLE_IDS: Range<u64> = 0..1_000_000;
const EXTRACT_IDS: Range<u64> = 1_000_000..2_000_000;
const DECOMPOSED_IDS: Range<u64> = 2_000_000..3_000_000;
const INGEST_IDS: Range<u64> = 3_000_000..4_000_000;
/// The spans `extraction_stages` records under `extract.stages`.
const EXTRACTION_STAGES: [&str; 6] = [
    "text.tokenize",
    "embed.features_batch",
    "embed.features",
    "tagger.predict",
    "tagger.decode",
    "pairing.pair_spans",
];
/// Shares of `--seconds`: the four alternating open-loop segments, and
/// the ingest part; the replays take the rest.
const LOOP_SHARE: f64 = 0.4;
const INGEST_SHARE: f64 = 0.15;

/// What an `add_review` call did, by its receipt: compaction ran inline
/// when the write sealed a segment and the sealed count reached
/// `max_segments`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestClass {
    Plain,
    Seal,
    Compact,
}

impl IngestClass {
    pub fn of(receipt: &IngestReceipt, config: &LiveConfig) -> IngestClass {
        if receipt.sealed && config.max_segments > 0 && receipt.segments >= config.max_segments {
            IngestClass::Compact
        } else if receipt.sealed {
            IngestClass::Seal
        } else {
            IngestClass::Plain
        }
    }

    pub fn span_name(self) -> &'static str {
        match self {
            IngestClass::Plain => "index.add_review_plain",
            IngestClass::Seal => "index.add_review_seal",
            IngestClass::Compact => "index.add_review_compact",
        }
    }
}

/// Counts gathered along the replays.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    whole: usize,
    decomposed: usize,
    sentences: usize,
    tagged_sentences: usize,
    pair_candidates: usize,
    probes: usize,
    fallbacks: usize,
    probe_results: usize,
    filtered: usize,
    filter_candidates: usize,
    filter_passed: usize,
}

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
    /// The per-layer breakdown table, one row per line.
    pub breakdown: Vec<String>,
    /// `(name, value)` pairs for the run's context line.
    pub context: Vec<(&'static str, f64)>,
}

pub fn traced_phase(stack: &Stack, seed: u64, seconds: f64) -> Traced {
    let w = stack.workload;
    let ingest_share = if w == Workload::CatalogMixed {
        INGEST_SHARE
    } else {
        0.0
    };
    let replay_budget = Duration::from_secs_f64(seconds * (1.0 - LOOP_SHARE - ingest_share));
    let counter = |name: &str| saccs_obs::registry().counter(name).get();
    let (seals0, merges0) = (
        counter("index.ingest.seals"),
        counter("index.ingest.merges"),
    );

    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let loops = open_loops(stack, seed, seconds * LOOP_SHARE);
    replays(stack, seed, replay_budget, &mut tracer, &mut tally);
    let reviews = if w == Workload::CatalogMixed {
        ingest_with_probes(
            stack,
            seed,
            Duration::from_secs_f64(seconds * ingest_share),
            &mut tracer,
            &mut tally,
        )
    } else {
        0
    };

    let layer = |name: &str, value: f64, unit: &'static str, n: usize| {
        Metric::new(name, value, unit, Kind::Layer, n)
    };
    let quant = |xs: &[f64], q: f64| stats::quantile(xs, q).unwrap_or(0.0);
    // `<name>_p50_<unit>` and `<name>_p99_<unit>` of `xs`.
    let tails = |name: &str, xs: &[f64], unit: &'static str| {
        [(0.5, "p50"), (0.99, "p99")].map(|(q, label)| {
            layer(
                &format!("{name}_{label}_{unit}"),
                quant(xs, q),
                unit,
                xs.len(),
            )
        })
    };
    // Mean duration of the spans called `name`, as `<name>_us`.
    let span_mean = |name: &str| {
        let d = tracer.durations_us(name);
        layer(
            &format!("{name}_us"),
            stats::mean(&d).unwrap_or(0.0),
            "us",
            d.len(),
        )
    };
    let per_request =
        |name: &str| tracer.total_us(name, DECOMPOSED_IDS) / tally.decomposed.max(1) as f64;
    let mut m = Vec::new();

    // serve
    m.extend(tails("serve.queue_wait", &loops.queue_waits_us, "us"));
    m.push(layer(
        "serve.batched_warm_ratio",
        ratio(loops.batched_warms, loops.served),
        "ratio",
        loops.served,
    ));

    // core: the parent span and the stages attributed to it.
    let rank = tracer.durations_us("core.rank");
    let rank_mean = stats::mean(&rank).unwrap_or(0.0);
    m.extend(tails("core.rank", &rank, "us"));
    m.push(layer("core.rank_mean_us", rank_mean, "us", rank.len()));
    let extract = tracer.durations_us("core.extract");
    let extract_mean = stats::mean(&extract).unwrap_or(0.0);
    let stages = [
        ("core.search_api", per_request("core.search_api")),
        ("index.pin", per_request("index.pin")),
        ("query.compile", per_request("query.compile")),
        ("core.extract", extract_mean),
        ("core.probe", per_request("core.probe")),
    ];
    let attributed: f64 = stages.iter().map(|(_, v)| v).sum();
    let d = tally.decomposed;
    m.push(layer("core.search_api_us", stages[0].1, "us", d));
    m.push(layer("core.extract_us", extract_mean, "us", extract.len()));
    m.push(layer("core.probe_us", stages[4].1, "us", d));
    m.push(layer(
        "core.residual_us",
        rank_mean - attributed,
        "us",
        rank.len(),
    ));

    // text / embed / tagger / pairing: extraction, on `chat` only.
    let is_chat = w == Workload::Chat;
    let children: f64 = EXTRACTION_STAGES.iter().map(|name| per_request(name)).sum();
    let (residual, n) = if is_chat {
        (extract_mean - children, extract.len())
    } else {
        (0.0, 0)
    };
    m.push(layer("core.extract_residual_us", residual, "us", n));
    m.extend(EXTRACTION_STAGES.map(span_mean));
    m.push(layer(
        "text.sentences_per_request",
        ratio(tally.sentences, d),
        "count",
        d,
    ));
    let lookups = loops.memo_hits + loops.memo_misses;
    m.push(layer(
        "embed.memo_hit_ratio",
        ratio(loops.memo_hits, lookups),
        "ratio",
        lookups,
    ));
    m.push(layer(
        "pairing.candidates_per_sentence",
        ratio(tally.pair_candidates, tally.tagged_sentences),
        "count",
        tally.tagged_sentences,
    ));

    // query
    m.push(span_mean("query.compile"));
    m.push(layer(
        "query.pass_ratio",
        ratio(tally.filter_passed, tally.filter_candidates),
        "ratio",
        tally.filtered,
    ));

    // index: pins and probes, from the decomposed replay and the ingest
    // part alike.
    m.push(span_mean("index.pin"));
    m.extend(tails(
        "index.probe_exact",
        &tracer.durations_us("index.probe_exact"),
        "us",
    ));
    m.extend(tails(
        "index.probe_fallback",
        &tracer.durations_us("index.probe_fallback"),
        "us",
    ));
    m.push(layer(
        "index.fallback_ratio",
        ratio(tally.fallbacks, tally.probes),
        "ratio",
        tally.probes,
    ));
    m.push(layer(
        "index.results_per_probe",
        ratio(tally.probe_results, tally.probes),
        "count",
        tally.probes,
    ));

    // index: ingest.
    m.extend(
        [IngestClass::Plain, IngestClass::Seal, IngestClass::Compact]
            .map(|c| span_mean(c.span_name())),
    );
    let seals = counter("index.ingest.seals") - seals0;
    let merges = counter("index.ingest.merges") - merges0;
    m.push(layer("index.seals", seals as f64, "count", 1));
    m.push(layer("index.merges", merges as f64, "count", 1));

    // loadgen validity, and the untraced loop's tail, which is too noisy
    // run to run to gate (see README.md).
    let ms = |samples: &[Sample]| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| !s.ingest)
            .map(|s| s.latency_ns() as f64 / 1e6)
            .collect()
    };
    let late: Vec<f64> = loops
        .untraced
        .iter()
        .map(|s| s.late_ns() as f64 / 1e6)
        .collect();
    m.push(layer(
        "loadgen.late_p99_ms",
        quant(&late, 0.99),
        "ms",
        late.len(),
    ));
    m.push(layer(
        "loadgen.achieved_rps",
        loops.untraced.len() as f64 / loops.untraced_wall_s,
        "ops/s",
        loops.untraced.len(),
    ));
    let (plain, traced) = (ms(&loops.untraced), ms(&loops.traced));
    let overhead = match (stats::quantile(&traced, 0.5), stats::quantile(&plain, 0.5)) {
        (Some(t), Some(p)) if p > 0.0 => (t / p - 1.0) * 100.0,
        _ => 0.0,
    };
    m.push(layer("trace.overhead_pct", overhead, "%", traced.len()));
    m.push(layer(
        "diag.rank_p99_ms",
        quant(&plain, 0.99),
        "ms",
        plain.len(),
    ));

    let breakdown = breakdown_table(&tracer, &tally, &stages, rank_mean, extract_mean, is_chat);
    let context = vec![
        ("replay_requests", tally.whole as f64),
        ("decomposed_requests", tally.decomposed as f64),
        ("direct_reviews", reviews as f64),
        ("loop_segment_s", seconds * LOOP_SHARE / 4.0),
        ("untraced_loop_ops", loops.untraced.len() as f64),
        ("traced_loop_ops", loops.traced.len() as f64),
        ("recorded_traces", loops.queue_waits_us.len() as f64),
    ];
    Traced {
        metrics: m,
        attempted: tally.attempted + loops.attempted,
        failed: tally.failed + loops.failed,
        tracer,
        breakdown,
        context,
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den > 0 {
        num as f64 / den as f64
    } else {
        0.0
    }
}

struct Loops {
    untraced: Vec<Sample>,
    untraced_wall_s: f64,
    traced: Vec<Sample>,
    queue_waits_us: Vec<f64>,
    memo_hits: usize,
    memo_misses: usize,
    served: usize,
    batched_warms: usize,
    attempted: u64,
    failed: u64,
}

/// Alternate untraced and recorder-on segments (two of each), so drift
/// in the machine's load falls on both arms alike.
fn open_loops(stack: &Stack, seed: u64, seconds: f64) -> Loops {
    let universe = stack.entities.len();
    let rate = stack.workload.total_rate();
    let n = ((rate * seconds / 4.0).round() as usize).max(1);
    let recorded = stack.recorded_server(2 * n + 64);
    let mut untraced_ops = OpStream::new(stack, seed, part::UNTRACED);
    let mut traced_ops = OpStream::new(stack, seed, part::TRACED);
    let hit = saccs_obs::registry().counter("embed.cache.hit");
    let miss = saccs_obs::registry().counter("embed.cache.miss");
    let mut loops = Loops {
        untraced: Vec::new(),
        untraced_wall_s: 0.0,
        traced: Vec::new(),
        queue_waits_us: Vec::new(),
        memo_hits: 0,
        memo_misses: 0,
        served: 0,
        batched_warms: 0,
        attempted: 0,
        failed: 0,
    };
    for _ in 0..2 {
        let (h0, m0, s0) = (hit.get(), miss.get(), stack.server.stats());
        let plain = load::open_loop(&stack.server, untraced_ops.take(n), rate, universe);
        let s1 = stack.server.stats();
        loops.memo_hits += (hit.get() - h0) as usize;
        loops.memo_misses += (miss.get() - m0) as usize;
        loops.served += (s1.served - s0.served) as usize;
        loops.batched_warms += (s1.batched_warms - s0.batched_warms) as usize;
        loops.untraced_wall_s += plain.wall_s;
        loops.untraced.extend(plain.samples);
        loops
            .traced
            .extend(load::open_loop(&recorded, traced_ops.take(n), rate, universe).samples);
    }
    if let Some(report) = recorded.obs_report() {
        loops.queue_waits_us = report
            .traces
            .iter()
            .map(|t| t.queue_ns as f64 / 1e3)
            .collect();
    }
    for s in loops.untraced.iter().chain(&loops.traced) {
        loops.attempted += 1;
        loops.failed += u64::from(!s.ok);
    }
    loops
}

/// Parts 1 and 2, interleaved request by request so the samples see the
/// same machine state.
fn replays(stack: &Stack, seed: u64, budget: Duration, tracer: &mut Tracer, tally: &mut Tally) {
    let api = stack.api();
    let universe = stack.entities.len();
    let mut whole = Requests::new(&stack.vocabulary, stream(seed, purpose::WHOLE));
    let mut extract = Requests::new(&stack.vocabulary, stream(seed, purpose::EXTRACT));
    let mut decomposed = Requests::new(&stack.vocabulary, stream(seed, purpose::DECOMPOSED));
    let deadline = Instant::now() + budget;
    for i in 0..REPLAY_REQUESTS as u64 {
        if Instant::now() >= deadline {
            break;
        }
        let request = whole.rank();
        let response = tracer.time(WHOLE_IDS.start + i, "core.rank", None, || {
            stack.service.rank_request(&request, &api)
        });
        tally.whole += 1;
        tally.attempted += 1;
        if !(response.is_full_fidelity() && load::valid_ranking(&response.results, universe)) {
            tally.failed += 1;
        }
        if let RankInput::Utterance(utterance) = &extract.rank().input {
            let id = EXTRACT_IDS.start + i;
            tally.attempted += 1;
            let tags = tracer.time(id, "core.extract", None, || {
                stack.service.extract_tags(utterance)
            });
            tally.failed += u64::from(tags.is_err());
        }
        let request = decomposed.rank();
        decomposed_request(
            stack,
            &api,
            DECOMPOSED_IDS.start + i,
            &request,
            tracer,
            tally,
        );
    }
}

/// One request through each stage's public function, in Algorithm-1
/// order: search, pin, filter, extract, probe.
fn decomposed_request(
    stack: &Stack,
    api: &SearchApi<'_>,
    id: u64,
    request: &RankRequest,
    t: &mut Tracer,
    tally: &mut Tally,
) {
    tally.decomposed += 1;
    let mut candidates = t.time(id, "core.search_api", None, || api.search(&request.slots));
    let pinned = stack
        .live
        .as_ref()
        .map(|live| t.time(id, "index.pin", None, || live.pin()));
    if let (Some(filter), Some(snap)) = (&request.filter, &pinned) {
        let compiled = t.time(id, "query.compile", None, || {
            compile(filter, snap.index(), api, JoinOrder::RarestFirst)
        });
        tally.filtered += 1;
        tally.filter_candidates += candidates.len();
        match compiled {
            Ok(c) => candidates.retain(|&e| c.contains(e)),
            Err(_) => tally.failed += 1,
        }
        tally.filter_passed += candidates.len();
    }
    let tags: Vec<SubjectiveTag> = match &request.input {
        RankInput::Tags(tags) => t.time(id, "core.extract", None, || tags.clone()),
        RankInput::Utterance(utterance) => {
            extraction_stages(stack, id, utterance, t, tally);
            // The tags themselves come from the real extractor (repair
            // and lexicon fallback have no public entry point), outside
            // any span: its encoder forwards are memo hits by now.
            stack.service.extract_tags(utterance).unwrap_or_default()
        }
    };
    let probe = t.begin(id, "core.probe", None);
    for tag in &tags {
        let (exact, results) = match (&stack.live, &pinned) {
            (Some(live), Some(snap)) => {
                let exact = snap.index().lookup(tag).is_some();
                let name = probe_span(exact);
                (
                    exact,
                    t.time(id, name, Some(probe), || live.probe_pinned(snap, tag)),
                )
            }
            _ => {
                let index = stack.service.index();
                let exact = index.lookup(tag).is_some();
                let name = probe_span(exact);
                (
                    exact,
                    t.time(id, name, Some(probe), || index.probe_readonly(tag)),
                )
            }
        };
        tally.probes += 1;
        tally.fallbacks += usize::from(!exact);
        tally.probe_results += results.len();
    }
    t.end(probe);
}

fn probe_span(exact: bool) -> &'static str {
    if exact {
        "index.probe_exact"
    } else {
        "index.probe_fallback"
    }
}

/// `TagExtractor::extract`'s stages, each through its public function:
/// tokenize, (batch-warm the encoder for multi-sentence input), then
/// per sentence encode, tag, decode spans and pair them.
fn extraction_stages(stack: &Stack, id: u64, utterance: &str, t: &mut Tracer, tally: &mut Tally) {
    let Some(shared) = stack.service.extractor() else {
        return;
    };
    shared.with_replica(|ex| {
        let parent = t.begin(id, "extract.stages", None);
        let sentences = t.time(id, "text.tokenize", Some(parent), || {
            sentence_tokens(utterance)
        });
        tally.sentences += sentences.len();
        if sentences.len() > 1 {
            t.time(id, "embed.features_batch", Some(parent), || {
                ex.warm_features(&sentences)
            });
        }
        for tokens in sentences.iter().filter(|s| !s.is_empty()) {
            let bert = ex.tagger().bert();
            let features = t.time(id, "embed.features", Some(parent), || bert.features(tokens));
            let iob = t.time(id, "tagger.predict", Some(parent), || {
                ex.tagger().model().predict(&features)
            });
            let spans = t.time(id, "tagger.decode", Some(parent), || spans_from_tags(&iob));
            let (aspects, opinions): (Vec<Span>, Vec<Span>) =
                spans.into_iter().partition(|s| s.kind == SpanKind::Aspect);
            tally.tagged_sentences += 1;
            tally.pair_candidates += aspects.len() * opinions.len();
            if !aspects.is_empty() && !opinions.is_empty() {
                t.time(id, "pairing.pair_spans", Some(parent), || {
                    ex.pairing().pair_spans(tokens, &aspects, &opinions)
                });
            }
        }
        t.end(parent);
    });
}

/// Part 3: direct ingests, classed by receipt, each followed by a probe
/// of a fresh pin. Returns the reviews ingested.
fn ingest_with_probes(
    stack: &Stack,
    seed: u64,
    budget: Duration,
    t: &mut Tracer,
    tally: &mut Tally,
) -> usize {
    let Some(live) = &stack.live else {
        return 0;
    };
    let config = LiveConfig::default();
    let mut requests = Requests::new(&stack.vocabulary, stream(seed, purpose::INGEST_PROBE));
    let deadline = Instant::now() + budget;
    let mut done = 0;
    while done < INGEST_REVIEWS && Instant::now() < deadline {
        let (Some((entity, review)), Some(tag)) = (requests.review(), requests.probe_tag()) else {
            break;
        };
        let id = INGEST_IDS.start + done as u64;
        let span = t.begin(id, "index.add_review", None);
        let receipt = live.add_review(entity, &review);
        t.end_as(span, IngestClass::of(&receipt, &config).span_name());
        let snap = t.time(id, "index.pin", None, || live.pin());
        let exact = snap.index().lookup(&tag).is_some();
        let results = t.time(id, probe_span(exact), None, || {
            live.probe_pinned(&snap, &tag)
        });
        tally.probes += 1;
        tally.fallbacks += usize::from(!exact);
        tally.probe_results += results.len();
        tally.attempted += 1;
        done += 1;
    }
    done
}

/// Mean microseconds per request by layer, children indented under
/// their parent, with unattributed time as rows of its own.
fn breakdown_table(
    tracer: &Tracer,
    tally: &Tally,
    stages: &[(&str, f64)],
    rank_mean: f64,
    extract_mean: f64,
    is_chat: bool,
) -> Vec<String> {
    let per_request =
        |name: &str| tracer.total_us(name, DECOMPOSED_IDS) / tally.decomposed.max(1) as f64;
    let share = |v: f64| {
        if rank_mean > 0.0 {
            100.0 * v / rank_mean
        } else {
            0.0
        }
    };
    let mut rows = vec![format!(
        "{:<30} {:>12} {:>8}   ({} whole, {} decomposed requests)",
        "layer", "us/request", "share", tally.whole, tally.decomposed
    )];
    let mut row =
        |label: String, v: f64| rows.push(format!("{label:<30} {v:>12.2} {:>7.1}%", share(v)));
    // Stages this workload's requests never reach get no row.
    let reached = |name: &str| !tracer.durations_us(name).is_empty();
    for &(stage, v) in stages.iter().filter(|(stage, _)| reached(stage)) {
        row(stage.to_string(), v);
        if stage == "core.extract" && is_chat {
            let mut children = 0.0;
            for name in EXTRACTION_STAGES.into_iter().filter(|name| reached(name)) {
                let c = per_request(name);
                children += c;
                row(format!("  {name}"), c);
            }
            row("  (extract unattributed)".into(), extract_mean - children);
        }
        if stage == "core.probe" {
            for name in ["index.probe_exact", "index.probe_fallback"] {
                row(format!("  {name}"), per_request(name));
            }
        }
    }
    let attributed: f64 = stages.iter().map(|(_, v)| v).sum();
    row("(unattributed)".into(), rank_mean - attributed);
    row("core.rank".into(), rank_mean);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receipts_class_inline_compaction_seals_and_plain_writes() {
        let config = LiveConfig::default();
        let receipt = |sealed, segments| IngestReceipt {
            seq: 0,
            sealed,
            segments,
        };
        assert_eq!(
            IngestClass::of(&receipt(false, 3), &config),
            IngestClass::Plain
        );
        assert_eq!(
            IngestClass::of(&receipt(false, 99), &config),
            IngestClass::Plain
        );
        assert_eq!(
            IngestClass::of(&receipt(true, 3), &config),
            IngestClass::Seal
        );
        let full = config.max_segments;
        assert_eq!(
            IngestClass::of(&receipt(true, full), &config),
            IngestClass::Compact
        );
        let never = LiveConfig {
            max_segments: 0,
            ..LiveConfig::default()
        };
        assert_eq!(
            IngestClass::of(&receipt(true, 50), &never),
            IngestClass::Seal
        );
    }

    #[test]
    fn ratios_guard_empty_denominators() {
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(ratio(3, 0), 0.0);
    }
}
