//! Regenerate **Table 4**: aspect/opinion tagger F1 on S1–S4.
//!
//! Rows: the OpineDB baseline (per-token classifier on general BERT), the
//! domain-knowledge variant (+DK, same head on the post-trained encoder),
//! and the SACCS adversarial BiLSTM-CRF at ε ∈ {0.1, 0.2, 0.5, 1.0, 2.0}
//! with α = 0.5 fixed, 15 training epochs (§6.3).
//!
//! `cargo run --release -p saccs-bench --bin table4`
//! Environment: `SACCS_SCALE` (default 0.35 of the paper's dataset sizes),
//! `SACCS_EPOCHS` (default 15).

use saccs_bench::{epochs, row_pct, scale, BenchBert};
use saccs_data::{Dataset, DatasetId};
use saccs_tagger::{Adversarial, Architecture, Tagger, TrainConfig};
use std::sync::Arc;

fn main() {
    saccs_bench::obs_init();
    let scale = scale(0.35);
    let epochs = epochs(15);
    println!("Table 4: Evaluation of aspect/opinion tagger (span F1, %)");
    println!("scale={scale} epochs={epochs} alpha=0.5\n");
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>6}",
        "Model", "S1", "S2", "S3", "S4"
    );

    let datasets: Vec<Dataset> = DatasetId::ALL
        .iter()
        .map(|&id| Dataset::generate_scaled(id, scale))
        .collect();

    let mut rows: Vec<(String, Vec<f32>)> = Vec::new();

    // OpineDB: general-pretrained encoder, per-token classifier.
    let general = Arc::new(BenchBert::general((4000.0 * scale) as usize + 400).freeze());
    let opine_cfg = TrainConfig {
        architecture: Architecture::TokenSoftmax,
        epochs,
        lr: 1e-3,
        ..Default::default()
    };
    let f1s: Vec<f32> = datasets
        .iter()
        .map(|d| {
            Tagger::train(Arc::clone(&general), &d.train, &opine_cfg)
                .freeze()
                .evaluate(&d.test)
                .f1()
        })
        .collect();
    rows.push(("OpineDB".to_string(), f1s));

    // Domain-adapted encoders: one per dataset domain (the [58] recipe).
    let dk_berts: Vec<Arc<saccs_embed::FrozenMiniBert>> = datasets
        .iter()
        .map(|d| {
            let bert = BenchBert::general((4000.0 * scale) as usize + 400);
            BenchBert::add_domain_knowledge(&bert, d.id.domain(), (2000.0 * scale) as usize + 200);
            Arc::new(bert.freeze())
        })
        .collect();

    let f1s: Vec<f32> = datasets
        .iter()
        .zip(&dk_berts)
        .map(|(d, b)| {
            Tagger::train(Arc::clone(b), &d.train, &opine_cfg)
                .freeze()
                .evaluate(&d.test)
                .f1()
        })
        .collect();
    rows.push(("OpineDB + DK".to_string(), f1s));

    // Adversarial BiLSTM-CRF sweeps (on the domain-adapted encoders).
    for eps in [0.1f32, 0.2, 0.5, 1.0, 2.0] {
        let cfg = TrainConfig {
            architecture: Architecture::BiLstmCrf,
            adversarial: Some(Adversarial {
                epsilon: eps,
                alpha: 0.5,
            }),
            epochs,
            ..Default::default()
        };
        let f1s: Vec<f32> = datasets
            .iter()
            .zip(&dk_berts)
            .map(|(d, b)| {
                Tagger::train(Arc::clone(b), &d.train, &cfg)
                    .freeze()
                    .evaluate(&d.test)
                    .f1()
            })
            .collect();
        rows.push((format!("Adversarial (eps={eps})"), f1s));
        eprintln!("  [done eps={eps}]");
    }

    for (label, values) in &rows {
        println!("{}", row_pct(label, values));
    }

    saccs_bench::obs_finish(
        "table4",
        &[
            ("f1_opinedb_s1", f64::from(rows[0].1[0])),
            ("f1_opinedb_dk_s1", f64::from(rows[1].1[0])),
            ("f1_adversarial_eps02_s1", f64::from(rows[3].1[0])),
        ],
    );

    println!("\nPaper reference (their BERT/testbed; shape, not absolutes, is the target):");
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>6}",
        "OpineDB", 81.82, 75.44, 72.30, 67.41
    );
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>6}",
        "OpineDB + DK", 83.06, 75.42, 73.86, 69.64
    );
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>6}",
        "Adversarial (eps=0.1)", 81.23, 76.56, 74.63, 70.16
    );
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>6}",
        "Adversarial (eps=0.2)", 83.46, 76.97, 73.64, 72.34
    );
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>6}",
        "Adversarial (eps=0.5)", 84.43, 75.36, 72.28, 70.32
    );
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>6}",
        "Adversarial (eps=1.0)", 82.80, 67.50, 73.47, 70.38
    );
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>6}",
        "Adversarial (eps=2.0)", 82.93, 71.39, 73.27, 68.42
    );
}
