//! Regenerate **Figure 5**: a BERT attention head pairing aspects with
//! opinions — rendered as an ASCII heatmap on the figure's sentence — plus
//! the headline number of §5.1: the best head's accuracy on the pairing
//! test set (paper: 82.62%).
//!
//! `cargo run --release -p saccs-bench --bin figure5`

use saccs_bench::{pairing_bert, scale};
use saccs_data::{Dataset, DatasetId};
use saccs_pairing::heuristics::{AttentionHeuristic, PairingHeuristic, SentenceContext};
use saccs_pairing::labeling::select_attention_heads;
use saccs_pairing::testset::{build_test_set, evaluate_voter};
use saccs_text::{tokenize_lower, Domain};

fn shade(v: f32, max: f32) -> char {
    let levels = [' ', '.', ':', '+', '*', '#', '@'];
    let idx = ((v / max.max(1e-6)) * (levels.len() - 1) as f32).round() as usize;
    levels[idx.min(levels.len() - 1)]
}

fn main() {
    let scale = scale(1.0);
    eprintln!("Training encoder...");
    let bert = pairing_bert(scale);

    // Pick the best head the way §5.2's "qualitative analysis" did.
    let dev = Dataset::generate_scaled(DatasetId::S1, 0.05);
    let heads = select_attention_heads(&bert, &dev.train, 5);
    let (layer, head, dev_acc) = heads[0];
    println!(
        "Figure 5: attention head {layer}:{head} (dev pairing accuracy {:.1}%)\n",
        dev_acc * 100.0
    );

    // The figure's sentence.
    let sentence = "the food is delicious . the staff and decor are amazing";
    let tokens: Vec<String> = tokenize_lower(sentence)
        .into_iter()
        .map(|t| t.text)
        .collect();
    let att = bert.attention(&tokens, layer).swap_remove(head);

    // Rows/cols 1.. are the tokens ([CLS] at 0).
    let max = (1..att.rows())
        .flat_map(|r| (1..att.cols()).map(move |c| (r, c)))
        .map(|(r, c)| att.get(r, c))
        .fold(0.0f32, f32::max);
    print!("{:>10} ", "");
    for j in 0..tokens.len() {
        print!("{j:>3} ");
    }
    println!();
    for (i, t) in tokens.iter().enumerate() {
        print!("{t:>10} ");
        for j in 0..tokens.len() {
            let v = att.get(i + 1, j + 1);
            print!("  {} ", shade(v, max));
        }
        println!();
    }
    println!();
    for (j, t) in tokens.iter().enumerate() {
        print!("{j}={t}  ");
    }
    println!();
    println!("\n(darker = higher attention; the paper's figure shows food→delicious");
    println!(" and staff/decor→amazing as the dark cells)");

    // Key aspect→opinion attention values.
    let idx = |w: &str| tokens.iter().position(|t| t == w).unwrap() + 1;
    for (a, o) in [
        ("food", "delicious"),
        ("staff", "amazing"),
        ("decor", "amazing"),
    ] {
        println!("  attention({a} → {o}) = {:.3}", att.get(idx(a), idx(o)));
    }

    // §5.1's headline: best-head accuracy on the pairing benchmark.
    let n = ((397.0 * scale) as usize).max(60);
    let test = build_test_set(n, Domain::Hotels, 0x397);
    let heuristic = AttentionHeuristic::new(bert, layer, head);
    let pairs_of = |e: &saccs_pairing::testset::PairingExample| {
        let ctx = SentenceContext {
            tokens: &e.tokens,
            aspects: &e.aspects,
            opinions: &e.opinions,
        };
        heuristic.pairs(&ctx).contains(&e.candidate)
    };
    let conf = evaluate_voter(pairs_of, &test);
    println!(
        "\nBest head accuracy on the {}-example pairing benchmark: {:.2}%",
        test.len(),
        100.0 * conf.accuracy()
    );
    println!("Paper reference: 82.62% (their 12-layer/12-head BERT; see EXPERIMENTS.md)");
}
