//! **Equation 1 ablation**: the volume weight in the degree of truth.
//!
//! The paper multiplies the mean tag similarity by `log(|R_e| + 1)`
//! (review volume) "because the more reviews there are, the more
//! statistically significant the degrees of truth become". This ablation
//! compares that against weighting by the *matching-mention* count and
//! against no volume factor at all — a reproduction finding discussed in
//! EXPERIMENTS.md: when the ground truth is a per-review mean (as the
//! paper's crowdsourced sat() is), review-volume weighting buries the
//! mention-rate signal.
//!
//! `cargo run --release -p saccs-bench --bin degree_of_truth_ablation`

use saccs_bench::{gold_index, mean_ndcg_by_level, scale, table2_corpus};
use saccs_core::{RankRequest, SaccsConfig, SaccsService, SearchApi};
use saccs_data::queries::query_sets;
use saccs_data::CrowdSimulator;
use saccs_index::index::IndexConfig;
use saccs_index::DegreeFormula;
use saccs_text::SubjectiveTag;

fn main() {
    let scale = scale(1.0);
    println!("Degree-of-truth volume-weight ablation (Equation 1)");
    println!("gold extraction, scale={scale}\n");
    let corpus = table2_corpus(scale);
    let crowd = CrowdSimulator::default();
    let sets = query_sets(100, 0xDE6);
    let api = SearchApi::new(&corpus.entities);

    println!(
        "{:<18} {:>7} {:>7} {:>7}",
        "Volume weight", "Short", "Medium", "Long"
    );
    for (label, formula) in [
        ("Eq1 (literal)", DegreeFormula::Equation1),
        ("match volume", DegreeFormula::MatchVolume),
        ("mention rate", DegreeFormula::MentionRate),
        ("pure rate", DegreeFormula::PureRate),
        ("pure mean", DegreeFormula::PureMean),
    ] {
        let index = gold_index(
            &corpus,
            IndexConfig {
                degree_formula: formula,
                ..Default::default()
            },
            18,
        );
        let service = SaccsService::with_live_index(index, SaccsConfig::default());
        let values = mean_ndcg_by_level(&sets, &corpus, &crowd, |q, _| {
            let tags: Vec<SubjectiveTag> = q.tags.iter().map(|t| t.tag()).collect();
            service
                .rank_request(&RankRequest::tags(tags), &api)
                .results
                .into_iter()
                .map(|(e, _)| e)
                .collect()
        });
        println!("{}", saccs_bench::row(label, &values));
    }
}
