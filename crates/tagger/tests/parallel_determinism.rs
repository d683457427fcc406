//! Bitwise thread-count invariance of tagger training.
//!
//! Training takes one optimizer step per example in shuffle order, and
//! its one parallel stage is the frozen encoder's `features_batch`,
//! which fans the training sentences out over the `saccs-rt` pool. The
//! trained weights must therefore be identical bits at every
//! `SACCS_THREADS`. One test function on purpose: `saccs_rt::set_threads`
//! is grow-only and process-global, so the width-1 run must happen
//! before any widening.

use saccs_data::{Dataset, DatasetId};
use saccs_embed::{build_vocab, FrozenMiniBert, MiniBert, MiniBertConfig};
use saccs_tagger::{Tagger, TrainConfig};
use saccs_text::Domain;
use std::sync::Arc;

fn bert() -> Arc<FrozenMiniBert> {
    let config = MiniBertConfig {
        dim: 16,
        heads: 2,
        layers: 2,
        max_len: 48,
        seed: 2,
    };
    Arc::new(MiniBert::new(build_vocab(&[Domain::Restaurants]), config).freeze())
}

fn train_states(data: &Dataset) -> Vec<saccs_nn::Matrix> {
    let cfg = TrainConfig {
        epochs: 2,
        ..Default::default()
    };
    let tagger = Tagger::train(bert(), &data.train, &cfg);
    tagger
        .model()
        .params()
        .iter()
        .map(|p| p.value_clone())
        .collect()
}

#[test]
fn training_bitwise_identical_across_widths() {
    let data = Dataset::generate_scaled(DatasetId::S4, 0.08);

    saccs_rt::set_threads(1);
    let base = train_states(&data);
    for width in [2, 8] {
        saccs_rt::set_threads(width);
        let wide = train_states(&data);
        assert_eq!(base.len(), wide.len());
        for (k, (a, b)) in base.iter().zip(&wide).enumerate() {
            assert!(
                a.data() == b.data(),
                "param {k} diverged from width 1 at width {width}"
            );
        }
    }
}
