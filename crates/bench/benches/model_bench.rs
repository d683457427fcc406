//! Criterion benchmarks for the neural stack: MiniBert encoding, tagger
//! inference, one clean and one FGSM training step, and CRF Viterbi,
//! beam and forward-backward passes.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saccs_data::{Dataset, DatasetId};
use saccs_embed::{build_vocab, MiniBert, MiniBertConfig};
use saccs_nn::{zero_grads, Matrix, Var};
use saccs_tagger::{Architecture, Crf, TaggerModel};
use saccs_text::{Domain, IobTag};

fn bench_models(c: &mut Criterion) {
    let vocab = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
    let bert = MiniBert::new(
        vocab,
        MiniBertConfig {
            dim: 48,
            heads: 6,
            layers: 4,
            max_len: 48,
            seed: 1,
        },
    );
    let data = Dataset::generate_scaled(DatasetId::S1, 0.01);
    let sentence = &data.train[0];

    c.bench_function("bert/encode_sentence", |b| {
        let ids = bert.ids(&sentence.tokens);
        b.iter(|| bert.encode(&ids).value_clone())
    });

    let mut rng = StdRng::seed_from_u64(2);
    let model = TaggerModel::new(Architecture::BiLstmCrf, bert.dim(), 24, 0.0, &mut rng);
    let features = bert.freeze().features(&sentence.tokens);
    let frozen = model.freeze();

    c.bench_function("tagger/predict_viterbi", |b| {
        b.iter(|| frozen.predict(&features))
    });

    c.bench_function("tagger/train_step_clean", |b| {
        let params = model.params();
        b.iter(|| {
            zero_grads(&params);
            let loss = model.loss(&Var::leaf(features.clone()), &sentence.tags, true, &mut rng);
            loss.backward();
            loss.scalar()
        })
    });

    c.bench_function("tagger/train_step_fgsm", |b| {
        let params = model.params();
        b.iter(|| {
            zero_grads(&params);
            let probe = Var::leaf(features.clone());
            model
                .loss(&probe, &sentence.tags, true, &mut rng)
                .backward();
            let delta = probe.grad().map(|g| 0.2 * g.signum());
            zero_grads(&params);
            let clean = model.loss(&Var::leaf(features.clone()), &sentence.tags, true, &mut rng);
            let adv = model.loss(
                &Var::leaf(features.add(&delta)),
                &sentence.tags,
                true,
                &mut rng,
            );
            let total = clean.scale(0.5).add(&adv.scale(0.5));
            total.backward();
            total.scalar()
        })
    });

    let crf = Crf::new(&mut rng);
    let emissions = Matrix::uniform(20, IobTag::COUNT, 2.0, &mut rng);
    c.bench_function("crf/viterbi_t20", |b| b.iter(|| crf.viterbi(&emissions)));
    c.bench_function("crf/beam5_t20", |b| {
        b.iter(|| crf.beam_decode(&emissions, 5))
    });
    let targets = vec![IobTag::O; 20];
    c.bench_function("crf/nll_forward_backward_t20", |b| {
        b.iter(|| {
            let loss = crf.nll(&Var::leaf(emissions.clone()), &targets);
            loss.backward();
            loss.scalar()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_models
}
criterion_main!(benches);
