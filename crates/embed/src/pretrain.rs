//! Masked-LM pretraining and domain post-training.
//!
//! Reproduces the two-phase regime of §4.2: a *general* pretraining corpus
//! (the Wikipedia stand-in — mixed-domain text restricted to the training
//! half of every paraphrase group, so domain-specific test vocabulary like
//! "a killer" or "la carte" stays unseen) and a *domain post-training*
//! corpus (full-vocabulary in-domain reviews, the \[58\] recipe). The paper:
//! "standard BERT embeddings are blind to the domain and may hinder the
//! tagging performance"; Table 4 credits domain knowledge with up to
//! +2.93 F1.

use crate::model::MiniBert;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saccs_data::{GeneratorConfig, SentenceGenerator};
use saccs_nn::layers::Layer;
use saccs_nn::optim::{zero_grads, Adam};
use saccs_text::lexicon::{Domain, Lexicon};
use saccs_text::vocab::{Vocab, MASK};

/// Fraction of (non-CLS) tokens masked per sentence, BERT's 15%.
const MASK_PROB: f64 = 0.15;

/// Masked-LM training knobs.
#[derive(Debug, Clone)]
pub struct MlmConfig {
    pub epochs: usize,
    pub lr: f32,
    pub seed: u64,
}

impl Default for MlmConfig {
    fn default() -> Self {
        MlmConfig {
            epochs: 2,
            lr: 5e-3,
            seed: 0x31A5,
        }
    }
}

/// Build a vocabulary covering every domain's full surface lexicon plus
/// the template glue words the generators emit. Typo'd tokens map to
/// `[UNK]` at encode time, as real OOV words would.
pub fn build_vocab(domains: &[Domain]) -> Vocab {
    let mut tokens: Vec<String> = Vec::new();
    let glue = [
        "the",
        "is",
        "are",
        "was",
        "were",
        "here",
        "we",
        "loved",
        "got",
        "and",
        "but",
        "a",
        "both",
        ",",
        ".",
        "!",
        "?",
        "unlike",
        "not",
        // Utterance register (see SentenceGenerator::utterance).
        "i",
        "want",
        "am",
        "looking",
        "for",
        "find",
        "me",
        "that",
        "has",
        "with",
        "any",
        "please",
        "an",
        "in",
        "serves",
        "somewhere",
        "actually",
        "forget",
    ];
    tokens.extend(
        saccs_data::generator::UTTERANCE_CUISINES
            .iter()
            .map(|s| s.to_string()),
    );
    tokens.extend(
        saccs_data::generator::UTTERANCE_CITIES
            .iter()
            .map(|s| s.to_string()),
    );
    tokens.extend(glue.iter().map(|s| s.to_string()));
    for &d in domains {
        let lex = Lexicon::new(d);
        for a in lex.aspects() {
            for m in a.members {
                tokens.extend(m.split_whitespace().map(|w| w.to_string()));
            }
        }
        for g in lex.opinion_groups() {
            for v in g.variants {
                tokens.extend(v.split_whitespace().map(|w| w.to_string()));
            }
        }
        tokens.extend(lex.noise_tokens().iter().map(|s| s.to_string()));
    }
    Vocab::from_tokens(tokens)
}

/// Generate the general (mixed-domain, train-vocabulary-only) pretraining
/// corpus: `n` tokenized sentences.
pub fn general_corpus(n: usize, seed: u64) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let generators: Vec<SentenceGenerator> =
        [Domain::Restaurants, Domain::Electronics, Domain::Hotels]
            .into_iter()
            .map(|d| {
                SentenceGenerator::new(
                    Lexicon::new(d),
                    GeneratorConfig {
                        typo_rate: 0.0,
                        noise_rate: 0.3,
                        train_vocabulary_only: true,
                        ..Default::default()
                    },
                )
            })
            .collect();
    (0..n)
        .map(|i| {
            generators[i % generators.len()]
                .random_sentence(&mut rng)
                .tokens
        })
        .collect()
}

/// Run masked-LM training over tokenized sentences; returns the mean loss
/// of the final epoch. Used for both general pretraining and domain
/// post-training (call twice with different corpora).
pub fn train_mlm(bert: &MiniBert, sentences: &[Vec<String>], config: &MlmConfig) -> f32 {
    assert!(!sentences.is_empty(), "empty MLM corpus");
    let _mlm = saccs_obs::span!("mlm.train");
    let params = bert.params();
    let mut opt = Adam::new(config.lr).with_clip(1.0);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut last_epoch_loss = f32::INFINITY;
    for _ in 0..config.epochs {
        let _epoch = saccs_obs::span!("mlm.epoch");
        let mut total = 0.0;
        let mut count = 0usize;
        for tokens in sentences {
            let original = bert.ids(tokens);
            if original.len() < 2 {
                continue;
            }
            // Choose masked positions (never position 0, the [CLS]).
            let mut masked: Vec<usize> = (1..original.len())
                .filter(|_| rng.gen_bool(MASK_PROB))
                .collect();
            if masked.is_empty() {
                masked.push(rng.gen_range(1..original.len()));
            }
            let mut input = original.clone();
            for &p in &masked {
                input[p] = MASK;
            }
            let targets: Vec<usize> = masked.iter().map(|&p| original[p]).collect();

            zero_grads(&params);
            // Mask-first: run the vocab-sized head only over the masked
            // rows (same loss and gradients as heading every position and
            // gathering after — the head is row-wise linear).
            let loss = bert
                .mlm_logits_rows(&input, &masked)
                .cross_entropy(&targets);
            loss.backward();
            opt.step(&params);
            total += loss.scalar();
            count += 1;
        }
        last_epoch_loss = total / count.max(1) as f32;
        saccs_obs::counter!("mlm.epochs").inc();
        if saccs_obs::enabled() {
            saccs_obs::registry()
                .gauge("mlm.epoch_loss")
                .set(f64::from(last_epoch_loss));
        }
    }
    last_epoch_loss
}

/// Fine-tune the encoder on the aspect/opinion tagging task (§5.1: "we
/// have it already trained on aspect/opinion extraction as explained in
/// Section 4" — the attention-head pairing heuristic reads heads from
/// *this* model). A per-token linear head over the 5 IOB labels is trained
/// jointly with the full encoder; the head is discarded, the sharpened
/// attention stays.
pub fn finetune_tagging(
    bert: &MiniBert,
    sentences: &[saccs_data::LabeledSentence],
    epochs: usize,
    lr: f32,
    seed: u64,
) -> f32 {
    use saccs_nn::layers::Linear;
    let mut rng = StdRng::seed_from_u64(seed);
    let head = Linear::new(bert.dim(), saccs_text::IobTag::COUNT, &mut rng);
    let mut params = bert.params();
    params.extend(head.params());
    let mut opt = Adam::new(lr).with_clip(1.0);
    let mut last = f32::INFINITY;
    for _ in 0..epochs {
        let _epoch = saccs_obs::span!("finetune.epoch");
        let mut total = 0.0;
        let mut count = 0usize;
        for s in sentences {
            let ids = bert.ids(&s.tokens);
            if ids.len() != s.tokens.len() + 1 {
                continue; // truncated by max_len
            }
            zero_grads(&params);
            let enc = bert.encode(&ids);
            let logits = head.forward(&enc.slice_rows(1, ids.len()));
            let targets: Vec<usize> = s.tags.iter().map(|t| t.index()).collect();
            let loss = logits.cross_entropy(&targets);
            loss.backward();
            opt.step(&params);
            total += loss.scalar();
            count += 1;
        }
        last = total / count.max(1) as f32;
    }
    last
}

/// Mean masked-prediction loss on a held-out corpus without updating
/// weights (for measuring domain-adaptation gains). It reads the MLM
/// head, which only the taped encoder has.
///
/// Each sentence's mask positions derive from `(seed, sentence index)`
/// and the per-sentence losses are summed in index order.
pub fn eval_mlm(bert: &MiniBert, sentences: &[Vec<String>], seed: u64) -> f32 {
    let mut total = 0.0;
    let mut count = 0usize;
    for (i, tokens) in sentences.iter().enumerate() {
        let original = bert.ids(tokens);
        if original.len() < 2 {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut masked: Vec<usize> = (1..original.len())
            .filter(|_| rng.gen_bool(MASK_PROB))
            .collect();
        if masked.is_empty() {
            masked.push(rng.gen_range(1..original.len()));
        }
        let mut input = original.clone();
        for &p in &masked {
            input[p] = MASK;
        }
        let targets: Vec<usize> = masked.iter().map(|&p| original[p]).collect();
        total += bert
            .mlm_logits_rows(&input, &masked)
            .cross_entropy(&targets)
            .scalar();
        count += 1;
    }
    total / count.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MiniBertConfig;

    fn small_config() -> MiniBertConfig {
        MiniBertConfig {
            dim: 16,
            heads: 2,
            layers: 2,
            max_len: 32,
            seed: 5,
        }
    }

    #[test]
    fn vocab_covers_all_domains() {
        let v = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
        for w in [
            "delicious",
            "carte",
            "killer",
            "xr-500",
            "mattress",
            "the",
            ".",
        ] {
            assert!(v.contains(w), "vocab missing {w}");
        }
        assert!(v.len() > 200);
    }

    #[test]
    fn general_corpus_excludes_held_out_variants() {
        // "phenomenal" is variant index 5 of the delicious group (odd ⇒
        // held out of training vocabulary) and appears in no other variant.
        let corpus = general_corpus(300, 3);
        assert_eq!(corpus.len(), 300);
        for s in &corpus {
            assert!(
                !s.iter().any(|t| t == "phenomenal" || t == "killer"),
                "held-out variant in general corpus"
            );
        }
    }

    #[test]
    fn mlm_loss_decreases_with_training() {
        let vocab = build_vocab(&[Domain::Restaurants]);
        let bert = MiniBert::new(vocab, small_config());
        let corpus = general_corpus(60, 7);
        let before = eval_mlm(&bert, &corpus, 1);
        train_mlm(
            &bert,
            &corpus,
            &MlmConfig {
                epochs: 3,
                ..Default::default()
            },
        );
        let after = eval_mlm(&bert, &corpus, 1);
        assert!(after < before, "MLM did not learn: {before} → {after}");
    }

    #[test]
    fn domain_post_training_helps_in_domain_prediction() {
        // The §4.2 mechanism end to end: a generally-pretrained model is
        // post-trained on full-vocabulary restaurant text and must predict
        // held-out in-domain text better than its pre-post-training self.
        let vocab = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
        let bert = MiniBert::new(vocab, small_config());
        let general = general_corpus(80, 11);
        train_mlm(
            &bert,
            &general,
            &MlmConfig {
                epochs: 2,
                ..Default::default()
            },
        );

        let gen = SentenceGenerator::new(
            Lexicon::new(Domain::Restaurants),
            GeneratorConfig {
                typo_rate: 0.0,
                noise_rate: 0.3,
                train_vocabulary_only: false,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(13);
        let domain_train: Vec<Vec<String>> = (0..80)
            .map(|_| gen.random_sentence(&mut rng).tokens)
            .collect();
        let domain_heldout: Vec<Vec<String>> = (0..40)
            .map(|_| gen.random_sentence(&mut rng).tokens)
            .collect();

        let before = eval_mlm(&bert, &domain_heldout, 2);
        train_mlm(
            &bert,
            &domain_train,
            &MlmConfig {
                epochs: 2,
                seed: 0xD0,
                ..Default::default()
            },
        );
        let after = eval_mlm(&bert, &domain_heldout, 2);
        assert!(
            after < before,
            "domain post-training did not help: {before} → {after}"
        );
    }
}
