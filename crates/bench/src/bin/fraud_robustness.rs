//! **§7 extension experiment**: robustness to fake reviews.
//!
//! Injects astroturf campaigns (bursts of near-identical praise for paid
//! entities) into the corpus and measures how far each campaign drags the
//! naive index's ranking away from the honest ground truth — and how much
//! of that damage the duplicate-burst [`FraudFilter`] repairs. Gold
//! extraction isolates the index layer.
//!
//! `cargo run --release -p saccs-bench --bin fraud_robustness`

use saccs_bench::{batch_index, first_canonical_tags, ndcg_of_ranking, scale, table2_corpus};
use saccs_core::{RankRequest, SaccsConfig, SaccsService, SearchApi};
use saccs_data::fraud::{inject_fraud, FraudCampaign};
use saccs_data::yelp::YelpCorpus;
use saccs_data::{canonical_tags, CrowdSimulator};
use saccs_index::index::IndexConfig;
use saccs_index::{DegreeFormula, FraudFilter};
use saccs_text::lexicon::Polarity;
use std::sync::Arc;

/// A gold-extraction service over every review, or with `filter` over
/// the reviews it keeps.
fn build_service(corpus: &YelpCorpus, filter: Option<&FraudFilter>) -> SaccsService {
    let live = batch_index(IndexConfig {
        degree_formula: DegreeFormula::PureRate,
        ..Default::default()
    });
    for e in 0..corpus.entities.len() {
        let profiles = saccs_bench::gold_review_profiles(corpus, e);
        let keep = match filter {
            Some(f) => f.keep_flags(&profiles),
            None => vec![true; profiles.len()],
        };
        for (review, kept) in profiles.iter().zip(keep) {
            if kept {
                live.add_review(e, &review.tags);
            }
        }
    }
    live.add_tags(&first_canonical_tags(canonical_tags().len()));
    SaccsService::with_live_index(Arc::new(live), SaccsConfig::default())
}

fn main() {
    saccs_bench::obs_init();
    let scale = scale(0.5);
    println!("Fraud robustness (Section 7 extension): astroturf campaigns vs the FraudFilter");
    println!("gold extraction, scale={scale}\n");

    let clean_corpus = table2_corpus(scale);
    let crowd = CrowdSimulator::default();
    let tag = canonical_tags()
        .into_iter()
        .find(|t| t.phrase() == "delicious food")
        .unwrap();
    let gains: Vec<f32> = (0..clean_corpus.entities.len())
        .map(|e| crowd.sat(&tag, &clean_corpus, e))
        .collect();
    let api = SearchApi::new(&clean_corpus.entities);

    // Campaign targets: the entities with the WORST true quality on the
    // pushed dimension (the ones that would pay for reviews).
    let mut worst: Vec<usize> = (0..clean_corpus.entities.len()).collect();
    worst.sort_by(|&a, &b| gains[a].partial_cmp(&gains[b]).unwrap());
    let targets: Vec<usize> = worst.into_iter().take(4).collect();

    println!("Campaign: 4 low-quality entities each buy fake 'delicious food' reviews.\n");
    println!(
        "{:<26} {:>10} {:>12} {:>14}",
        "condition", "NDCG@10", "targets@10", "target rank"
    );

    let report = |label: &str, service: &SaccsService| {
        let ranked: Vec<usize> = service
            .rank_request(&RankRequest::tags(vec![tag.tag()]), &api)
            .results
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        let ndcg = ndcg_of_ranking(&ranked, &gains, 10);
        let in_top = ranked
            .iter()
            .take(10)
            .filter(|e| targets.contains(e))
            .count();
        let best_rank = targets
            .iter()
            .filter_map(|t| ranked.iter().position(|e| e == t))
            .min()
            .map(|r| (r + 1).to_string())
            .unwrap_or_else(|| "-".to_string());
        println!("{label:<26} {ndcg:>10.3} {in_top:>12} {best_rank:>14}");
        ndcg
    };

    let baseline = report("clean corpus", &build_service(&clean_corpus, None));

    for n_fake in [10usize, 30, 60] {
        let mut corrupted = clean_corpus.clone();
        let campaigns: Vec<FraudCampaign> = targets
            .iter()
            .map(|&entity_id| FraudCampaign {
                entity_id,
                n_reviews: n_fake,
                concept: "food",
                group: "delicious",
                polarity: Polarity::Positive,
            })
            .collect();
        inject_fraud(&mut corrupted, &campaigns, 0xFA + n_fake as u64);

        let naive = report(
            &format!("+{n_fake} fakes, naive"),
            &build_service(&corrupted, None),
        );
        let filtered = report(
            &format!("+{n_fake} fakes, FraudFilter"),
            &build_service(&corrupted, Some(&FraudFilter::default())),
        );
        println!(
            "  -> damage {:.3}, repaired {:.0}%\n",
            baseline - naive,
            100.0 * (filtered - naive).max(0.0) / (baseline - naive).max(1e-6)
        );
    }
    println!("(naive = Equation-1 evidence straight from all reviews; FraudFilter =");
    println!(" duplicate-burst suppression, no access to fake/real labels)");
    saccs_bench::obs_finish(
        "fraud_robustness",
        &[("ndcg_clean_baseline", f64::from(baseline))],
    );
}
