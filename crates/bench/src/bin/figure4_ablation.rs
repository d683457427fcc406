//! **Figure 4 ablation**: the adversarial-training architecture in
//! numbers. Sweeps the clean/adversarial mixing weight α (the paper fixes
//! α = 0.5) at ε = 0.2 on the smallest dataset (S4), reporting test F1 and
//! the robustness gap (perturbed-loss − clean-loss at eval time).
//!
//! `cargo run --release -p saccs-bench --bin figure4_ablation`
//! Environment: `SACCS_SCALE` (default 0.5), `SACCS_EPOCHS` (default 15).
//!
//! It writes `FIGURE4_ABLATION_report.jsonl`, a pure function of the
//! build: per α, the test set's span counts and the mean losses (clean
//! and at both perturbation sizes) as `f32` bits.

use saccs_bench::{epochs, scale, write_export, BenchBert};
use saccs_data::{Dataset, DatasetId};
use saccs_tagger::{Adversarial, Architecture, Tagger, TrainConfig};
use saccs_text::Domain;
use std::fmt::Write as _;
use std::sync::Arc;

fn main() {
    saccs_bench::obs_init();
    let scale = scale(0.5);
    let epochs = epochs(15);
    let eps = 0.2f32;
    println!(
        "Figure 4 ablation: alpha sweep at eps={eps} on S4 (scale={scale}, epochs={epochs})\n"
    );

    let bert = BenchBert::general((4000.0 * scale) as usize + 400);
    BenchBert::add_domain_knowledge(&bert, Domain::Hotels, (2000.0 * scale) as usize + 200);
    let bert = Arc::new(bert.freeze());
    let data = Dataset::generate_scaled(DatasetId::S4, scale);

    println!(
        "{:>6} {:>9} {:>11} {:>11} {:>11}",
        "alpha", "test F1", "clean loss", "gap@e=0.2", "gap@e=1.0"
    );
    let (mut report, mut headline) = (String::new(), Vec::new());
    for alpha in [0.0f32, 0.25, 0.5, 0.75, 1.0] {
        let cfg = TrainConfig {
            architecture: Architecture::BiLstmCrf,
            // alpha = 1.0 is pure clean training (the adversarial term has
            // zero weight) — trained without the FGSM machinery entirely.
            adversarial: if alpha >= 1.0 {
                None
            } else {
                Some(Adversarial {
                    epsilon: eps,
                    alpha,
                })
            },
            epochs,
            ..Default::default()
        };
        let tagger = Tagger::train(Arc::clone(&bert), &data.train, &cfg);
        let spans = tagger.freeze().evaluate(&data.test);
        let f1 = spans.f1();
        let clean = tagger.mean_loss(&data.test, None);
        let perturbed_small = tagger.mean_loss(&data.test, Some(eps));
        let perturbed_large = tagger.mean_loss(&data.test, Some(1.0));
        let (gap_small, gap_large) = (perturbed_small - clean, perturbed_large - clean);
        println!(
            "{alpha:>6.2} {:>8.2}% {clean:>11.3} {gap_small:>11.3} {gap_large:>11.3}",
            f1 * 100.0
        );
        let (matched, predicted, gold) = spans.counts();
        let _ = writeln!(
            report,
            "{{\"alpha\":{alpha},\"matched\":{matched},\"predicted\":{predicted},\"gold\":{gold},\
             \"clean_loss\":{},\"loss_eps_small\":{},\"loss_eps_large\":{}}}",
            clean.to_bits(),
            perturbed_small.to_bits(),
            perturbed_large.to_bits()
        );
        if alpha == 0.5 {
            headline = vec![("f1_alpha05", f64::from(f1))];
        }
    }
    println!("\n(The paper fixes alpha = 0.5; the sweep shows the clean/robust trade-off");
    println!(" Figure 4's architecture controls. alpha = 1.0 is the no-adversary baseline.)");
    saccs_bench::obs_finish("figure4_ablation", &headline);
    write_export("FIGURE4_ABLATION_report.jsonl", &report);
}
