//! Integration tests for the extraction pipeline (tagger + pairing)
//! against generator gold structure.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saccs::data::generator::{FacetSpec, GeneratorConfig, SentenceGenerator};
use saccs::data::{Dataset, DatasetId};
use saccs::embed::{build_vocab, general_corpus, train_mlm, MiniBert, MiniBertConfig, MlmConfig};
use saccs::pairing::{PairingPipeline, PipelineConfig};
use saccs::parse::ParseTree;
use saccs::tagger::{FrozenTagger, Tagger, TrainConfig};
use saccs::text::iob::spans_from_tags;
use saccs::text::lexicon::Polarity;
use saccs::text::{Domain, Lexicon, SpanKind, SubjectiveTag};
use std::rc::Rc;
use std::sync::Arc;

struct Fixture {
    tagger: Tagger,
    pairing: PairingPipeline,
    data: Dataset,
}

fn fixture() -> Fixture {
    let vocab = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
    let bert = MiniBert::new(
        vocab,
        MiniBertConfig {
            dim: 24,
            heads: 4,
            layers: 2,
            max_len: 48,
            seed: 31,
        },
    );
    train_mlm(
        &bert,
        &general_corpus(250, 32),
        &MlmConfig {
            epochs: 2,
            ..Default::default()
        },
    );
    let bert = Rc::new(bert);
    let data = Dataset::generate_scaled(DatasetId::S1, 0.08);
    let tagger = Tagger::train(
        bert.clone(),
        &data.train,
        &TrainConfig {
            epochs: 6,
            ..Default::default()
        },
    );
    let dev: Vec<_> = data.test.iter().take(40).cloned().collect();
    let pairing = PairingPipeline::fit(bert, &data.train, &dev, PipelineConfig::default());
    Fixture {
        tagger,
        pairing,
        data,
    }
}

/// The served path runs the trained models frozen; on every test
/// sentence its spans and its pairing probabilities must equal the taped
/// models' bit for bit.
#[test]
fn frozen_extraction_matches_the_taped_models_bitwise() {
    let fx = fixture();
    let bert = Arc::new(fx.tagger.bert().freeze());
    let tagger = FrozenTagger::new(Arc::clone(&bert), fx.tagger.model().freeze());
    let pairer = fx.pairing.discriminative_model();
    let frozen_pairer = pairer.freeze(Arc::clone(&bert));
    let mut candidates = 0;
    for s in &fx.data.test {
        let features = tagger.bert().features(&s.tokens);
        let spans = spans_from_tags(&tagger.model().predict(&features));
        assert_eq!(spans, fx.tagger.extract_spans(&s.tokens), "{:?}", s.tokens);
        let tree = ParseTree::from_tokens(&s.tokens);
        for a in spans.iter().filter(|sp| sp.kind == SpanKind::Aspect) {
            for o in spans.iter().filter(|sp| sp.kind == SpanKind::Opinion) {
                let frozen = frozen_pairer.probability_with(&features, &tree, &s.tokens, a, o);
                let taped = pairer.probability(&s.tokens, a, o);
                assert_eq!(frozen.to_bits(), taped.to_bits(), "{:?}", s.tokens);
                candidates += 1;
            }
        }
    }
    assert!(candidates > 0, "no test sentence reached pairing");
}

#[test]
fn extractor_recovers_known_dimensions() {
    let fx = fixture();
    let gen = SentenceGenerator::new(
        Lexicon::new(Domain::Restaurants),
        GeneratorConfig {
            noise_rate: 0.0,
            trap_rate: 0.0,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(77);
    let mut recovered = 0;
    let total = 40;
    for _ in 0..total {
        let facet = FacetSpec {
            concept: "food",
            group: "delicious",
            polarity: Polarity::Positive,
        };
        let s = gen.sentence(&[facet], &mut rng);
        let spans = fx.tagger.extract_spans(&s.tokens);
        let aspects: Vec<_> = spans
            .iter()
            .filter(|sp| sp.kind == saccs::text::SpanKind::Aspect)
            .copied()
            .collect();
        let opinions: Vec<_> = spans
            .iter()
            .filter(|sp| sp.kind == saccs::text::SpanKind::Opinion)
            .copied()
            .collect();
        if aspects.is_empty() || opinions.is_empty() {
            continue;
        }
        let pairs = fx.pairing.pair_spans(&s.tokens, &aspects, &opinions);
        let tags: Vec<SubjectiveTag> = pairs
            .iter()
            .map(|(a, o)| SubjectiveTag::new(&o.text(&s.tokens), &a.text(&s.tokens)))
            .collect();
        // Does any extracted tag resolve to the (food, positive) dimension?
        let lex = Lexicon::new(Domain::Restaurants);
        if tags.iter().any(|t| {
            lex.aspect_concept(&t.aspect)
                .is_some_and(|c| c.canonical == "food")
                && lex
                    .opinion_group(&t.opinion)
                    .is_some_and(|g| g.polarity == Polarity::Positive)
        }) {
            recovered += 1;
        }
    }
    assert!(
        recovered * 2 >= total,
        "extractor recovered only {recovered}/{total} single-facet food sentences"
    );
}

#[test]
fn extraction_degrades_gracefully_on_empty_and_junk_input() {
    let fx = fixture();
    assert!(fx.tagger.tag(&[]).is_empty());
    let junk: Vec<String> = ["xqzt", "blorp", "wibble"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let tags = fx.tagger.tag(&junk);
    assert_eq!(tags.len(), 3);
    // No panic is the contract; spans may or may not be empty.
    let _ = fx.tagger.extract_spans(&junk);
}

#[test]
fn tagger_output_always_aligns_with_input_length() {
    let fx = fixture();
    let data = Dataset::generate_scaled(DatasetId::S3, 0.02);
    for s in &data.test {
        let tags = fx.tagger.tag(&s.tokens);
        // max_len-1 cap (CLS occupies one slot).
        assert_eq!(tags.len(), s.tokens.len().min(47));
    }
}
