//! Figure 6 walkthrough: the data-programming pipeline for pairing.
//!
//! Labeling functions → generative label models (majority vote and the
//! EM probabilistic model) → discriminative classifier, with each stage's
//! quality measured against the balanced pairing benchmark (§6.4).
//!
//! Run with: `cargo run --release --example weak_supervision`

use saccs::data::{Dataset, DatasetId};
use saccs::embed::{build_vocab, general_corpus, train_mlm, MiniBert, MiniBertConfig, MlmConfig};
use saccs::pairing::generative::{majority_vote, ProbabilisticModel};
use saccs::pairing::heuristics::SentenceContext;
use saccs::pairing::testset::{build_test_set, evaluate_voter};
use saccs::pairing::{PairingPipeline, PipelineConfig};
use saccs::text::Domain;
use std::sync::Arc;

fn main() {
    println!("== Figure 6: data programming for pairing ==\n");
    println!("Training MiniBert and fitting the pipeline...");
    let vocab = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
    let bert = MiniBert::new(
        vocab,
        MiniBertConfig {
            dim: 32,
            heads: 4,
            layers: 3,
            max_len: 48,
            seed: 11,
        },
    );
    train_mlm(
        &bert,
        &general_corpus(1500, 13),
        &MlmConfig {
            epochs: 2,
            ..Default::default()
        },
    );
    let bert = Arc::new(bert.freeze());

    // §6.4: "We train the model with Booking.com dataset for hotels."
    let hotels = Dataset::generate_scaled(DatasetId::S4, 0.6);
    let dev = Dataset::generate_scaled(DatasetId::S1, 0.04);
    let pipeline = PairingPipeline::fit(bert, &hotels.train, &dev.train, PipelineConfig::default());

    let test = build_test_set(397, Domain::Hotels, 0x64);
    println!(
        "\n{:<16} {:>6} {:>6} {:>6} {:>6}",
        "stage", "acc", "P", "R", "F1"
    );

    // Stage 1: each labeling function alone.
    let mut votes_per_example: Vec<Vec<bool>> = vec![Vec::new(); test.len()];
    for lf in pipeline.labeling_functions() {
        let conf = evaluate_voter(
            |e| {
                let ctx = SentenceContext {
                    tokens: &e.tokens,
                    aspects: &e.aspects,
                    opinions: &e.opinions,
                };
                lf.label(&ctx, e.candidate)
            },
            &test,
        );
        for (i, e) in test.iter().enumerate() {
            let ctx = SentenceContext {
                tokens: &e.tokens,
                aspects: &e.aspects,
                opinions: &e.opinions,
            };
            votes_per_example[i].push(lf.label(&ctx, e.candidate));
        }
        println!(
            "{:<16} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
            lf.name(),
            100.0 * conf.accuracy(),
            100.0 * conf.precision(),
            100.0 * conf.recall(),
            100.0 * conf.f1()
        );
    }

    // Stage 2: generative aggregation.
    let mv = {
        let mut c = saccs::eval::BinaryConfusion::new();
        for (v, e) in votes_per_example.iter().zip(&test) {
            c.observe(majority_vote(v), e.label);
        }
        c
    };
    println!(
        "{:<16} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
        "majority vote",
        100.0 * mv.accuracy(),
        100.0 * mv.precision(),
        100.0 * mv.recall(),
        100.0 * mv.f1()
    );
    let pm_model = ProbabilisticModel::fit(&votes_per_example);
    println!(
        "  learned LF accuracies: {:?}",
        pm_model
            .accuracies
            .iter()
            .map(|a| (a * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    let pm = {
        let mut c = saccs::eval::BinaryConfusion::new();
        for (v, e) in votes_per_example.iter().zip(&test) {
            c.observe(pm_model.predict(v), e.label);
        }
        c
    };
    println!(
        "{:<16} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
        "probabilistic",
        100.0 * pm.accuracy(),
        100.0 * pm.precision(),
        100.0 * pm.recall(),
        100.0 * pm.f1()
    );

    // Stage 3: the discriminative model trained on weak labels.
    let pairer = pipeline.pairer();
    let disc = evaluate_voter(
        |e| pairer.classify(&e.tokens, &e.candidate.0, &e.candidate.1),
        &test,
    );
    println!(
        "{:<16} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
        "discriminative",
        100.0 * disc.accuracy(),
        100.0 * disc.precision(),
        100.0 * disc.recall(),
        100.0 * disc.f1()
    );
    println!("\n(Full-scale Table 5 numbers: `cargo run --release -p saccs-bench --bin table5`)");
}
