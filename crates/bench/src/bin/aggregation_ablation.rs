//! **§3.3 ablation**: score aggregation across tags — arithmetic mean vs.
//! product vs. min. The paper: "we also experimented with other
//! aggregation methods such as the product or min operators, but the
//! arithmetic mean works better in practice."
//!
//! Uses gold extraction (the ablation isolates Algorithm 1's ranking math
//! from extractor quality), paper-size corpus.
//!
//! `cargo run --release -p saccs-bench --bin aggregation_ablation`

use saccs_bench::{gold_index, mean_ndcg_by_level, scale, table2_corpus};
use saccs_core::{Aggregation, RankRequest, SaccsConfig, SaccsService, SearchApi};
use saccs_data::queries::query_sets;
use saccs_data::CrowdSimulator;
use saccs_index::index::IndexConfig;
use saccs_index::DegreeFormula;
use saccs_text::SubjectiveTag;

fn main() {
    let scale = scale(1.0);
    println!("Aggregation ablation (Section 3.3): mean vs product vs min");
    println!("gold extraction, scale={scale}\n");
    let corpus = table2_corpus(scale);
    let crowd = CrowdSimulator::default();
    let sets = query_sets(100, 0xA66);
    let api = SearchApi::new(&corpus.entities);

    println!(
        "{:<18} {:>7} {:>7} {:>7}",
        "Aggregation", "Short", "Medium", "Long"
    );
    for agg in Aggregation::ALL {
        let index = gold_index(
            &corpus,
            IndexConfig {
                degree_formula: DegreeFormula::PureRate,
                ..Default::default()
            },
            18,
        );
        let service = SaccsService::with_live_index(
            index,
            SaccsConfig {
                aggregation: agg,
                ..Default::default()
            },
        );
        let values = mean_ndcg_by_level(&sets, &corpus, &crowd, |q, _| {
            let tags: Vec<SubjectiveTag> = q.tags.iter().map(|t| t.tag()).collect();
            service
                .rank_request(&RankRequest::tags(tags), &api)
                .results
                .into_iter()
                .map(|(e, _)| e)
                .collect()
        });
        println!("{}", saccs_bench::row(agg.label(), &values));
    }
    println!("\n(The paper reports the mean winning; Table 2 uses mean throughout.)");
}
