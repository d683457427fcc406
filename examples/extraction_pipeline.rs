//! Figure 2 walkthrough: token tagging and pairing on the paper's example
//! sentence, plus the adversarial-robustness mechanics of §4.3.
//!
//! Run with: `cargo run --release --example extraction_pipeline`

use saccs::data::{Dataset, DatasetId};
use saccs::embed::{build_vocab, general_corpus, train_mlm, MiniBert, MiniBertConfig, MlmConfig};
use saccs::pairing::{PairingPipeline, PipelineConfig};
use saccs::tagger::{Adversarial, Architecture, Tagger, TrainConfig};
use saccs::text::{tokenize_lower, Domain, SpanKind};
use std::sync::Arc;

fn main() {
    println!("== Figure 2: tagging + pairing ==\n");
    println!("Training MiniBert + tagger + pairing (a minute or so)...");
    let vocab = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
    let bert = MiniBert::new(
        vocab,
        MiniBertConfig {
            dim: 32,
            heads: 4,
            layers: 3,
            max_len: 48,
            seed: 5,
        },
    );
    train_mlm(
        &bert,
        &general_corpus(1200, 3),
        &MlmConfig {
            epochs: 2,
            ..Default::default()
        },
    );
    let bert = Arc::new(bert.freeze());

    let data = Dataset::generate_scaled(DatasetId::S1, 0.2);
    let tagger = Tagger::train(
        Arc::clone(&bert),
        &data.train,
        &TrainConfig {
            architecture: Architecture::BiLstmCrf,
            adversarial: Some(Adversarial {
                epsilon: 0.2,
                alpha: 0.5,
            }),
            epochs: 8,
            ..Default::default()
        },
    );
    let frozen = tagger.freeze();
    println!(
        "  tagger test F1: {:.1}%",
        frozen.evaluate(&data.test).f1_percent()
    );

    let dev: Vec<_> = data.test.iter().take(50).cloned().collect();
    let pairing = PairingPipeline::fit(bert, &data.train, &dev, PipelineConfig::default());

    // Figure 2's sentence.
    let sentence = "The food is really good but the service is a bit slow";
    let tokens: Vec<String> = tokenize_lower(sentence)
        .into_iter()
        .map(|t| t.text)
        .collect();
    println!("\nSentence: \"{sentence}\"");
    let tags = frozen.tag(&tokens);
    println!("\n  {:<10} IOB tag", "token");
    for (tok, tag) in tokens.iter().zip(&tags) {
        println!("  {tok:<10} {tag}");
    }

    let spans = frozen.extract_spans(&tokens);
    let aspects: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Aspect)
        .copied()
        .collect();
    let opinions: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Opinion)
        .copied()
        .collect();
    let pairs = pairing.pairer().pair_spans(&tokens, &aspects, &opinions);
    println!("\nSubjective tags (paired):");
    for (a, o) in &pairs {
        println!("  {{{} {}}}", o.text(&tokens), a.text(&tokens));
    }

    // §4.3 in action: loss under FGSM perturbation.
    println!("\n== Adversarial robustness (Eq. 6-9) ==");
    for eps in [0.1f32, 0.5, 2.0] {
        let clean = tagger.mean_loss(&data.test[..60], None);
        let perturbed = tagger.mean_loss(&data.test[..60], Some(eps));
        println!("  eps={eps:<4} clean loss {clean:.3} -> perturbed {perturbed:.3}");
    }
}
