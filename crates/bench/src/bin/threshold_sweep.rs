//! **Threshold sweep**: the similarity thresholds θ_index (Equation 1)
//! and θ_filter (Algorithm 1). The paper's conclusion flags them as
//! important and proposes adjusting them dynamically as future work; this
//! sweep maps the sensitivity surface.
//!
//! `cargo run --release -p saccs-bench --bin threshold_sweep`

use saccs_bench::{gold_index, mean_ndcg_by_level, scale, table2_corpus};
use saccs_core::{RankRequest, SaccsConfig, SaccsService, SearchApi};
use saccs_data::queries::query_sets;
use saccs_data::{CrowdSimulator, Difficulty};
use saccs_index::index::IndexConfig;
use saccs_index::DegreeFormula;
use saccs_text::SubjectiveTag;

fn main() {
    let scale = scale(1.0);
    println!(
        "Similarity-threshold sweep (Short query set, NDCG@10, gold extraction, scale={scale})\n"
    );
    let corpus = table2_corpus(scale);
    let crowd = CrowdSimulator::default();
    let sets = query_sets(100, 0x7557);
    let (_, queries) = sets
        .iter()
        .find(|(d, _)| *d == Difficulty::Short)
        .expect("short set");
    let api = SearchApi::new(&corpus.entities);

    let thetas = [0.30f32, 0.40, 0.45, 0.55, 0.70, 0.85];
    print!("{:>14}", "θ_index \\ θ_f");
    for tf in thetas {
        print!(" {tf:>6.2}");
    }
    println!();
    for ti in thetas {
        print!("{ti:>14.2}");
        for tf in thetas {
            let index = gold_index(
                &corpus,
                IndexConfig {
                    theta_index: ti,
                    theta_filter: tf,
                    degree_formula: DegreeFormula::PureRate,
                },
                18,
            );
            let service = SaccsService::with_live_index(index, SaccsConfig::default());
            let short_set = [(Difficulty::Short, queries.clone())];
            let values = mean_ndcg_by_level(&short_set, &corpus, &crowd, |q, _| {
                let tags: Vec<SubjectiveTag> = q.tags.iter().map(|t| t.tag()).collect();
                service
                    .rank_request(&RankRequest::tags(tags), &api)
                    .results
                    .into_iter()
                    .map(|(e, _)| e)
                    .collect()
            });
            print!(" {:>6.3}", values[0]);
        }
        println!();
    }
    println!("\n(θ_filter only matters for tags absent from the index; the canonical");
    println!(" query tags are all indexed here, so sensitivity concentrates in θ_index.)");
}
