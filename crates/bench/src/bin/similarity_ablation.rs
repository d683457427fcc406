//! **Footnote-2 ablation**: conceptual similarity vs. embedding cosine.
//!
//! §3.1 (footnote 2): "Conceptual similarity has been shown to work better
//! on short phrases such as subjective tags than cosine similarity." This
//! bin tests the claim head to head: the same gold-extraction index is
//! built twice — once with the lexicon-backed conceptual measure, once
//! with MiniBert mean-pooled phrase embeddings compared by cosine — and
//! both answer the Table-2 query sets.
//!
//! `cargo run --release -p saccs-bench --bin similarity_ablation`
//! Environment: `SACCS_SCALE` (default 0.5).
//!
//! It writes `SIMILARITY_ABLATION_report.jsonl`, a pure function of the
//! build: per measure and query set, the mean NDCG@10 as `f32` bits and
//! an FNV-1a digest of every query's ranked entity ids.

use saccs_bench::{
    batch_index, gold_review_profiles, ndcg_of_ranking, query_gains, scale, table2_corpus,
    write_export, BenchBert,
};
use saccs_core::{EmbeddingSimilarity, RankRequest, SaccsConfig, SaccsService, SearchApi};
use saccs_data::queries::query_sets;
use saccs_data::{canonical_tags, CrowdSimulator};
use saccs_index::index::IndexConfig;
use saccs_index::{DegreeFormula, ReviewProfile};
use saccs_obs::trace::hash_bytes;
use saccs_text::{Domain, SubjectiveTag};
use std::fmt::Write as _;
use std::sync::Arc;

fn main() {
    saccs_bench::obs_init();
    let scale = scale(0.5);
    println!("Similarity ablation (footnote 2): conceptual vs embedding cosine");
    println!("gold extraction, scale={scale}\n");
    let corpus = table2_corpus(scale);
    let crowd = CrowdSimulator::default();
    let sets = query_sets(100, 0x5141);
    let api = SearchApi::new(&corpus.entities);

    // Collect every entity's gold reviews once.
    let reviews: Vec<(usize, Vec<ReviewProfile>)> = corpus
        .entities
        .iter()
        .map(|e| (e.id, gold_review_profiles(&corpus, e.id)))
        .collect();
    let index_tags: Vec<SubjectiveTag> = canonical_tags().iter().map(|t| t.tag()).collect();

    eprintln!("Training MiniBert for the embedding measure...");
    let bert = BenchBert::general((4000.0 * scale) as usize + 400);
    BenchBert::add_domain_knowledge(&bert, Domain::Restaurants, (2000.0 * scale) as usize + 200);
    let universe: Vec<&SubjectiveTag> = index_tags
        .iter()
        .chain(
            reviews
                .iter()
                .flat_map(|(_, profiles)| profiles.iter().flat_map(|r| &r.tags)),
        )
        .collect();
    let embedding = EmbeddingSimilarity::precompute(&bert.freeze(), universe);
    eprintln!("  {} phrases embedded", embedding.len());

    let config = IndexConfig {
        degree_formula: DegreeFormula::PureRate,
        ..Default::default()
    };
    let build = |custom: Option<EmbeddingSimilarity>| -> SaccsService {
        let mut live = batch_index(config.clone());
        if let Some(c) = custom {
            live = live.with_custom_similarity(c);
        }
        for (entity, profiles) in &reviews {
            for review in profiles {
                live.add_review(*entity, &review.tags);
            }
        }
        live.add_tags(&index_tags);
        SaccsService::with_live_index(Arc::new(live), SaccsConfig::default())
    };

    println!(
        "{:<22} {:>7} {:>7} {:>7}",
        "Similarity", "Short", "Medium", "Long"
    );
    let (mut report, mut headline) = (String::new(), Vec::new());
    for (label, measure, custom) in [
        ("conceptual (paper)", "conceptual", None),
        ("embedding cosine", "embedding", Some(embedding)),
    ] {
        let service = build(custom);
        let mut values = Vec::new();
        for (difficulty, queries) in &sets {
            let (mut total, mut digest) = (0.0, 0u64);
            for q in queries {
                let gains = query_gains(q, &crowd, &corpus);
                let tags: Vec<SubjectiveTag> = q.tags.iter().map(|t| t.tag()).collect();
                let ranked: Vec<usize> = service
                    .rank_request(&RankRequest::tags(tags), &api)
                    .results
                    .into_iter()
                    .map(|(e, _)| e)
                    .collect();
                digest = hash_bytes(digest, &(ranked.len() as u64).to_le_bytes());
                for &e in &ranked {
                    digest = hash_bytes(digest, &(e as u64).to_le_bytes());
                }
                total += ndcg_of_ranking(&ranked, &gains, 10);
            }
            let mean = total / queries.len() as f32;
            let _ = writeln!(
                report,
                "{{\"measure\":\"{measure}\",\"set\":\"{difficulty:?}\",\"ndcg\":{},\
                 \"ranked_digest\":\"{digest:016x}\"}}",
                mean.to_bits()
            );
            values.push(mean);
        }
        let overall = values.iter().sum::<f32>() / values.len() as f32;
        headline.push((measure, f64::from(overall)));
        println!("{}", saccs_bench::row(label, &values));
    }
    println!("\n(The paper's footnote 2 predicts the conceptual row wins on these");
    println!(" short phrases; the embedding row shares the same index and queries.)");
    saccs_bench::obs_finish("similarity_ablation", &headline);
    write_export("SIMILARITY_ABLATION_report.jsonl", &report);
}
