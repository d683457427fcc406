//! Shared setup code for the table/figure regeneration binaries.
//!
//! Every binary accepts two environment variables:
//!
//! * `SACCS_SCALE` — fractional scale of the paper's dataset sizes
//!   (default varies per binary; `1.0` = exact paper sizes);
//! * `SACCS_EPOCHS` — training epochs for the tagger sweeps (default 15,
//!   the paper's setting);
//! * `SACCS_OBS` — `json` turns span timing on and writes a
//!   `BENCH_<bin>.json` registry snapshot; anything else (or unset)
//!   leaves instrumentation on its zero-cost path.
//!
//! All runs are seeded; identical settings regenerate identical tables.
//! Bins with a deterministic export (`chaos`, `probe`, `ingest`,
//! `query`, `table5`, `figure4_ablation`) write it as `<BIN>_*.json[l]`
//! into the current directory, beside `BENCH_<bin>.json`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saccs_data::yelp::{YelpConfig, YelpCorpus};
use saccs_data::{canonical_tags, CrowdSimulator, Query};
use saccs_embed::{
    build_vocab, finetune_tagging, general_corpus, train_mlm, FrozenMiniBert, MiniBert,
    MiniBertConfig, MlmConfig,
};
use saccs_eval::ndcg::ndcg;
use saccs_index::index::IndexConfig;
use saccs_index::{LiveConfig, LiveIndex, SubjectiveIndex};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
use std::sync::Arc;

/// Under `SACCS_OBS=json`, turn span timing (and with it the
/// span-duration histograms) on. Call at the top of every bench `main`;
/// pair with [`obs_finish`].
pub fn obs_init() {
    if std::env::var("SACCS_OBS").as_deref() == Ok("json") {
        saccs_obs::set_enabled(true);
    }
}

/// If `SACCS_OBS=json`, write `BENCH_<bin>.json` into the current
/// directory: the full metrics registry (counters, gauges, span-duration
/// histograms) plus the bin's headline quality numbers. Returns the path
/// written, if any.
pub fn obs_finish(bin: &str, headline: &[(&str, f64)]) -> Option<String> {
    if std::env::var("SACCS_OBS").as_deref() != Ok("json") {
        return None;
    }
    let path = format!("BENCH_{bin}.json");
    let doc = saccs_obs::json::bench_snapshot(bin, headline);
    match std::fs::write(&path, doc) {
        Ok(()) => {
            println!("wrote {path}");
            Some(path)
        }
        Err(e) => {
            println!("failed to write {path}: {e}");
            None
        }
    }
}

/// A ranking with each score as its raw `f32` bits: the form the bench
/// bins compare, so equality means bitwise equality.
pub fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(e, s)| (e, s.to_bits())).collect()
}

/// A probe's answer (slot order) ranked for export: an exact answer as
/// its column ranks (stable by descending degree, ties in slot order),
/// a fallback one by descending score, ties by ascending id.
pub fn ranked(
    index: &SubjectiveIndex,
    tag: &SubjectiveTag,
    mut answer: Vec<(usize, f32)>,
) -> Vec<(usize, f32)> {
    if index.lookup(tag).is_some_and(|p| !p.is_empty()) {
        answer.sort_by(|a, b| b.1.total_cmp(&a.1));
    } else {
        answer.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    }
    answer
}

/// Render a [`bits`] ranking as a JSON array of `[entity, score bits]`
/// pairs, the form every deterministic export records.
pub fn ranking_json(ranked: &[(usize, u32)]) -> String {
    let pairs: Vec<String> = ranked.iter().map(|(e, b)| format!("[{e},{b}]")).collect();
    format!("[{}]", pairs.join(","))
}

/// Write a deterministic export (`<BIN>_*.json[l]`) into the current
/// directory, exiting non-zero if the write fails.
pub fn write_export(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        println!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

/// Parse a `usize` environment variable, `default` when unset or
/// unparseable.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parse `SACCS_SCALE` with a per-binary default.
pub fn scale(default: f64) -> f64 {
    std::env::var("SACCS_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .clamp(0.01, 1.0)
}

/// Parse `SACCS_EPOCHS` (default 15, the paper's §6.3 setting).
pub fn epochs(default: usize) -> usize {
    env_usize("SACCS_EPOCHS", default)
}

/// The bench-grade MiniBert: larger grid, heavier MLM, with optional
/// domain post-training and tagging fine-tuning. Deterministic.
pub struct BenchBert;

impl BenchBert {
    pub fn config() -> MiniBertConfig {
        MiniBertConfig {
            dim: 48,
            heads: 6,
            layers: 4,
            max_len: 48,
            seed: 0xBE,
        }
    }

    /// General-pretrained encoder (the "BERT" of the OpineDB baseline).
    pub fn general(mlm_sentences: usize) -> MiniBert {
        let vocab = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
        let bert = MiniBert::new(vocab, Self::config());
        train_mlm(
            &bert,
            &general_corpus(mlm_sentences, 0x6E),
            &MlmConfig {
                epochs: 4,
                ..Default::default()
            },
        );
        bert
    }

    /// Continue MLM on in-domain full-vocabulary text (the +DK step).
    pub fn add_domain_knowledge(bert: &MiniBert, domain: Domain, sentences: usize) {
        use saccs_data::{GeneratorConfig, SentenceGenerator};
        let gen = SentenceGenerator::new(
            Lexicon::new(domain),
            GeneratorConfig {
                train_vocabulary_only: false,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(0xD0);
        let corpus: Vec<Vec<String>> = (0..sentences)
            .map(|_| gen.random_sentence(&mut rng).tokens)
            .collect();
        train_mlm(
            bert,
            &corpus,
            &MlmConfig {
                seed: 0xDD,
                ..Default::default()
            },
        );
    }
}

/// Fully trained pairing-grade encoder, frozen: general MLM + in-domain
/// post-train + tagging fine-tune (what §5.1's attention heuristic reads).
pub fn pairing_bert(scale: f64) -> Arc<FrozenMiniBert> {
    use saccs_data::{Dataset, DatasetId};
    let bert = BenchBert::general((6000.0 * scale) as usize + 200);
    BenchBert::add_domain_knowledge(&bert, Domain::Hotels, (2000.0 * scale) as usize + 100);
    let hotels = Dataset::generate_scaled(DatasetId::S4, scale.max(0.2));
    finetune_tagging(
        &bert,
        &hotels.train,
        (12.0 * scale).ceil() as usize,
        1e-3,
        0xF7,
    );
    Arc::new(bert.freeze())
}

/// Per-review gold tag profiles for one entity (the fraud-robustness
/// experiments need review granularity rather than a flat bag).
pub fn gold_review_profiles(corpus: &YelpCorpus, entity: usize) -> Vec<saccs_index::ReviewProfile> {
    corpus
        .reviews_of(entity)
        .iter()
        .map(|&ri| {
            let mut tags = Vec::new();
            for s in &corpus.reviews[ri].sentences {
                for (a, o) in &s.pairs {
                    tags.push(SubjectiveTag::new(&o.text(&s.tokens), &a.text(&s.tokens)));
                }
            }
            saccs_index::ReviewProfile::new(tags)
        })
        .collect()
}

/// A memory-only live index over the restaurant lexicon that keeps
/// every review in its one mem-segment (nothing seals or merges): the
/// form a batch build takes.
pub fn batch_index(config: IndexConfig) -> LiveIndex {
    LiveIndex::new(
        ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
        config,
        LiveConfig {
            seal_every: 0,
            max_segments: 0,
        },
    )
}

/// The first `n` of the 18 canonical tags.
pub fn first_canonical_tags(n: usize) -> Vec<SubjectiveTag> {
    canonical_tags().iter().take(n).map(|t| t.tag()).collect()
}

/// Gold-extraction index: every review's gold tags ingested, entities
/// in catalog order, and the first `n_tags` canonical tags indexed.
/// Used by the index/ranking ablation bins, which isolate Equation-1 /
/// Algorithm-1 behaviour from extraction quality.
pub fn gold_index(corpus: &YelpCorpus, config: IndexConfig, n_tags: usize) -> Arc<LiveIndex> {
    let live = batch_index(config);
    for entity in &corpus.entities {
        for review in gold_review_profiles(corpus, entity.id) {
            live.add_review(entity.id, &review.tags);
        }
    }
    live.add_tags(&first_canonical_tags(n_tags));
    Arc::new(live)
}

/// Mean NDCG@10 per difficulty level of a ranking function over query
/// sets — the evaluation loop every Table-2-family bin shares. `rank`
/// receives the query and its per-entity gains and must return ranked
/// entity ids.
pub fn mean_ndcg_by_level(
    sets: &[(saccs_data::Difficulty, Vec<Query>)],
    corpus: &YelpCorpus,
    crowd: &CrowdSimulator,
    mut rank: impl FnMut(&Query, &[f32]) -> Vec<usize>,
) -> Vec<f32> {
    sets.iter()
        .map(|(_, queries)| {
            let mut total = 0.0;
            for q in queries {
                let gains = query_gains(q, crowd, corpus);
                let ranked = rank(q, &gains);
                total += ndcg_of_ranking(&ranked, &gains, 10);
            }
            total / queries.len().max(1) as f32
        })
        .collect()
}

/// The Table-2 corpus at a given scale of the paper's 280/7061.
pub fn table2_corpus(scale: f64) -> YelpCorpus {
    let n_entities = ((280.0 * scale) as usize).max(20);
    let n_reviews = ((7061.0 * scale) as usize).max(n_entities * 4);
    YelpCorpus::generate(
        Lexicon::new(Domain::Restaurants),
        &YelpConfig {
            n_entities,
            n_reviews,
            ..Default::default()
        },
    )
}

/// Per-query mean-sat gains for every entity.
pub fn query_gains(query: &Query, crowd: &CrowdSimulator, corpus: &YelpCorpus) -> Vec<f32> {
    (0..corpus.entities.len())
        .map(|e| {
            query
                .tags
                .iter()
                .map(|t| crowd.sat(t, corpus, e))
                .sum::<f32>()
                / query.tags.len() as f32
        })
        .collect()
}

/// NDCG@k of a ranked id list against per-entity gains.
pub fn ndcg_of_ranking(ranked: &[usize], gains: &[f32], k: usize) -> f32 {
    let ranked_gains: Vec<f32> = ranked.iter().map(|&e| gains[e]).collect();
    ndcg(&ranked_gains, gains, k)
}

/// Render one row of a fixed-width results table.
pub fn row(label: &str, values: &[f32]) -> String {
    let mut s = format!("{label:<18}");
    for v in values {
        s.push_str(&format!(" {v:>7.3}"));
    }
    s
}

/// Render a percentage row (Table 4/5 style).
pub fn row_pct(label: &str, values: &[f32]) -> String {
    let mut s = format!("{label:<22}");
    for v in values {
        s.push_str(&format!(" {:>6.2}", v * 100.0));
    }
    s
}
