//! Integration tests for the extraction pipeline (tagger + pairing)
//! against generator gold structure.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saccs::data::generator::{FacetSpec, GeneratorConfig, SentenceGenerator};
use saccs::data::{Dataset, DatasetId};
use saccs::embed::{build_vocab, general_corpus, train_mlm, MiniBert, MiniBertConfig, MlmConfig};
use saccs::nn::{Matrix, Var};
use saccs::pairing::{PairingPipeline, PipelineConfig};
use saccs::tagger::{Tagger, TrainConfig};
use saccs::text::iob::spans_from_tags;
use saccs::text::lexicon::Polarity;
use saccs::text::{Domain, Lexicon, SubjectiveTag};
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
    let bert = Arc::new(bert.freeze());
    let data = Dataset::generate_scaled(DatasetId::S1, 0.08);
    let tagger = Tagger::train(
        Arc::clone(&bert),
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

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Inference runs on the trained tagger's frozen form; on every test
/// sentence its emissions must equal the taped head's eval-mode ones bit
/// for bit, and its tags the taped emissions decoded by the same CRF.
#[test]
fn frozen_extraction_matches_the_taped_models_bitwise() {
    let fx = fixture();
    let tagger = fx.tagger.freeze();
    let mut rng = StdRng::seed_from_u64(0);
    let mut spans = 0;
    for s in &fx.data.test {
        let features = tagger.bert().features(&s.tokens);
        let taped = fx
            .tagger
            .model()
            .emissions(&Var::leaf(features.clone()), false, &mut rng)
            .value_clone();
        assert_eq!(
            bits(&tagger.model().emissions(&features)),
            bits(&taped),
            "{:?}",
            s.tokens
        );
        let tags = tagger.tag(&s.tokens);
        assert_eq!(tags, tagger.model().decode(&taped), "{:?}", s.tokens);
        spans += spans_from_tags(&tags).len();
    }
    assert!(spans > 0, "the tagger found no span in the test set");
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
    let tagger = fx.tagger.freeze();
    let mut recovered = 0;
    let total = 40;
    for _ in 0..total {
        let facet = FacetSpec {
            concept: "food",
            group: "delicious",
            polarity: Polarity::Positive,
        };
        let s = gen.sentence(&[facet], &mut rng);
        let spans = tagger.extract_spans(&s.tokens);
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
        let pairs = fx
            .pairing
            .pairer()
            .pair_spans(&s.tokens, &aspects, &opinions);
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
    let tagger = fixture().tagger.freeze();
    assert!(tagger.tag(&[]).is_empty());
    let junk: Vec<String> = ["xqzt", "blorp", "wibble"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let tags = tagger.tag(&junk);
    assert_eq!(tags.len(), 3);
    // No panic is the contract; spans may or may not be empty.
    let _ = tagger.extract_spans(&junk);
}

#[test]
fn tagger_output_always_aligns_with_input_length() {
    let tagger = fixture().tagger.freeze();
    let data = Dataset::generate_scaled(DatasetId::S3, 0.02);
    for s in &data.test {
        let tags = tagger.tag(&s.tokens);
        // max_len-1 cap (CLS occupies one slot).
        assert_eq!(tags.len(), s.tokens.len().min(47));
    }
}
