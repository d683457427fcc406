//! Bitwise determinism of the embed paths across thread counts: the
//! pool-parallel `features_batch` and the serial `eval_mlm`. If the
//! features drift with `SACCS_THREADS`, everything downstream (tagger,
//! index, table2 nDCG) drifts — so this is checked at the source.
//!
//! One test function on purpose: `saccs_rt::set_threads` is grow-only
//! and process-global, so the width-1 baseline must run before any
//! widening and tests in one binary run concurrently.

use saccs_embed::model::{MiniBert, MiniBertConfig};
use saccs_embed::pretrain::{build_vocab, eval_mlm, general_corpus};
use saccs_text::lexicon::Domain;

fn bert() -> MiniBert {
    MiniBert::new(
        build_vocab(&[Domain::Restaurants]),
        MiniBertConfig {
            dim: 16,
            heads: 2,
            layers: 2,
            max_len: 32,
            seed: 9,
        },
    )
}

#[test]
fn embed_paths_bitwise_identical_across_widths() {
    let corpus = general_corpus(40, 21);

    // Width-1 baselines: the pool has never been widened, so every path
    // below runs inline on this thread.
    let base_feats: Vec<_> = {
        let b = bert().freeze();
        corpus.iter().map(|s| b.features(s)).collect()
    };
    let base_eval = eval_mlm(&bert(), &corpus, 3);

    for width in [2, 8] {
        saccs_rt::set_threads(width);
        let wide_feats = bert().freeze().features_batch(&corpus);
        assert_eq!(base_feats.len(), wide_feats.len());
        for (i, (a, b)) in base_feats.iter().zip(&wide_feats).enumerate() {
            assert!(
                a.data() == b.data(),
                "sentence {i} features diverged at width {width}"
            );
        }
        let wide_eval = eval_mlm(&bert(), &corpus, 3);
        assert!(
            base_eval.to_bits() == wide_eval.to_bits(),
            "eval_mlm diverged at width {width}: {base_eval} vs {wide_eval}"
        );
    }
}
