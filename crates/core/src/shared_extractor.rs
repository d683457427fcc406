//! Cross-thread sharing of the neural extractor.
//!
//! [`TagExtractor`] cannot be `Sync`: the autograd graph underneath it
//! (`saccs-nn`'s `Var`) is `Rc<RefCell<…>>`-based by design, and the
//! encoder handle inside the tagger and pairer is an `Rc<MiniBert>`.
//! A concurrent serving front end still wants one `SaccsService` shared
//! by every worker, so this module splits the extractor into:
//!
//! * a [`SharedExtractor`] **blueprint** — the serialized weights plus
//!   every construction parameter (vocabulary, encoder config, head
//!   shapes, repair lexicon). Plain owned data: `Send + Sync`.
//! * per-thread **replicas** — real `TagExtractor`s rebuilt from the
//!   blueprint on first use in each thread and cached in a
//!   thread-local, keyed by the blueprint's unique id.
//!
//! Replicas are *bitwise faithful*: construction is
//! same-shape-then-`load_state` over the `saccs-nn` state codec, so
//! every thread's replica extracts identical tags with identical float
//! bits (pinned by this module's replica tests). The
//! thread that builds the blueprint adopts the original extractor into
//! its own cache, keeping the single-threaded path allocation-free.

use crate::extractor::TagExtractor;
use saccs_embed::{MiniBert, MiniBertConfig};
use saccs_nn::{decode_state, encode_state};
use saccs_pairing::{DiscriminativePairer, PairingPipeline, PipelineConfig};
use saccs_tagger::{Architecture, Tagger, TaggerModel};
use saccs_text::vocab::Vocab;
use saccs_text::Lexicon;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Replicas cached per thread; beyond this many distinct blueprints the
/// cache is cleared (serving processes hold one or two services, so
/// eviction is a correctness backstop, not a tuning knob).
const REPLICA_CACHE_CAP: usize = 8;

thread_local! {
    static REPLICAS: RefCell<HashMap<u64, Rc<TagExtractor>>> = RefCell::new(HashMap::new());
}

fn next_uid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A `Send + Sync` blueprint of a trained [`TagExtractor`]: serialized
/// weights plus construction parameters. Threads materialize cached
/// bitwise-identical replicas via [`SharedExtractor::with_replica`].
pub struct SharedExtractor {
    uid: u64,
    vocab: Vocab,
    bert_config: MiniBertConfig,
    bert_bytes: Vec<u8>,
    tagger_arch: Architecture,
    tagger_hidden: usize,
    tagger_dropout: f32,
    tagger_state: Vec<u8>,
    pipeline_config: PipelineConfig,
    pairer_state: Vec<u8>,
    lexicon: Lexicon,
}

impl SharedExtractor {
    /// Snapshot `extractor` into a blueprint and adopt the original as
    /// this thread's cached replica (so the constructing thread keeps
    /// serving from the already-warm instance).
    pub fn adopt(extractor: TagExtractor) -> SharedExtractor {
        let uid = next_uid();
        let bert = extractor.tagger().bert();
        let model = extractor.tagger().model();
        let shared = SharedExtractor {
            uid,
            vocab: bert.vocab().clone(),
            bert_config: bert.config().clone(),
            bert_bytes: bert.save_bytes().to_vec(),
            tagger_arch: model.architecture(),
            tagger_hidden: model.hidden(),
            tagger_dropout: model.dropout_p(),
            tagger_state: encode_state(&model.state()).to_vec(),
            pipeline_config: extractor.pairing().config().clone(),
            pairer_state: encode_state(&extractor.pairing().discriminative_model().state())
                .to_vec(),
            lexicon: extractor.lexicon().clone(),
        };
        REPLICAS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if cache.len() >= REPLICA_CACHE_CAP {
                cache.clear();
            }
            cache.insert(uid, Rc::new(extractor));
        });
        shared
    }

    /// Run `f` against this thread's replica, building it from the
    /// blueprint on the thread's first use.
    pub fn with_replica<R>(&self, f: impl FnOnce(&TagExtractor) -> R) -> R {
        let replica = REPLICAS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(r) = cache.get(&self.uid) {
                return Rc::clone(r);
            }
            if cache.len() >= REPLICA_CACHE_CAP {
                cache.clear();
            }
            let r = Rc::new(self.build_replica());
            cache.insert(self.uid, Rc::clone(&r));
            r
        });
        f(&replica)
    }

    /// Materialize a fresh extractor from the blueprint: construct the
    /// same shapes, then load the serialized weights over them. The
    /// decode calls cannot fail — the bytes were produced by
    /// `encode_state`/`save_bytes` on same-shaped models in `adopt`.
    fn build_replica(&self) -> TagExtractor {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let bert = Rc::new(MiniBert::new(self.vocab.clone(), self.bert_config.clone()));
        if let Err(e) = bert.load_bytes(&self.bert_bytes) {
            unreachable!("blueprint bert bytes decode into the same-shaped encoder: {e}")
        }
        let mut rng = StdRng::seed_from_u64(0);
        let model = TaggerModel::new(
            self.tagger_arch,
            bert.dim(),
            self.tagger_hidden,
            self.tagger_dropout,
            &mut rng,
        );
        match decode_state(&self.tagger_state) {
            Ok(state) => model.load_state(&state),
            Err(e) => unreachable!("blueprint tagger state decodes: {e}"),
        }
        let tagger = Tagger::from_parts(Rc::clone(&bert), model);
        let pairer =
            DiscriminativePairer::replica(bert, self.pipeline_config.discriminative.hidden);
        match decode_state(&self.pairer_state) {
            Ok(state) => pairer.load_state(&state),
            Err(e) => unreachable!("blueprint pairer state decodes: {e}"),
        }
        let pairing = PairingPipeline::serving(pairer, self.pipeline_config.clone());
        TagExtractor::new(tagger, pairing, self.lexicon.clone())
    }
}

impl std::fmt::Debug for SharedExtractor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedExtractor")
            .field("uid", &self.uid)
            .field("bert_bytes", &self.bert_bytes.len())
            .field("tagger_state", &self.tagger_state.len())
            .field("pairer_state", &self.pairer_state.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saccs_data::{Dataset, DatasetId};
    use saccs_embed::build_vocab;
    use saccs_tagger::TrainConfig;
    use saccs_text::Domain;

    fn tiny_extractor() -> TagExtractor {
        let vocab = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
        let bert = Rc::new(MiniBert::new(
            vocab,
            MiniBertConfig {
                dim: 16,
                heads: 2,
                layers: 2,
                max_len: 48,
                seed: 9,
            },
        ));
        let data = Dataset::generate_scaled(DatasetId::S4, 0.05);
        let tagger = Tagger::train(
            bert.clone(),
            &data.train,
            &TrainConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        let dev: Vec<_> = data.test.iter().take(10).cloned().collect();
        let pairing = PairingPipeline::fit(
            bert,
            &data.train,
            &dev,
            PipelineConfig {
                discriminative: saccs_pairing::DiscriminativeConfig {
                    epochs: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        TagExtractor::new(tagger, pairing, Lexicon::new(Domain::Restaurants))
    }

    const PROBES: [&str; 3] = [
        "the food is delicious and the staff is friendly",
        "I want a cozy place with a great atmosphere",
        "somewhere with tasty pizza and quick service",
    ];

    #[test]
    fn adopting_thread_reuses_the_original_and_replicas_match_bitwise() {
        let original = tiny_extractor();
        let expected: Vec<_> = PROBES.iter().map(|p| original.extract(p)).collect();
        let shared = SharedExtractor::adopt(original);

        // Adopting thread: served from the cache seeded with the original.
        for (probe, want) in PROBES.iter().zip(&expected) {
            assert_eq!(&shared.with_replica(|ex| ex.extract(probe)), want);
        }

        // A forced rebuild (what any other thread does on first use) is
        // bitwise identical too.
        let rebuilt = shared.build_replica();
        for (probe, want) in PROBES.iter().zip(&expected) {
            assert_eq!(&rebuilt.extract(probe), want);
        }
    }

    #[test]
    fn other_threads_build_identical_replicas() {
        let original = tiny_extractor();
        let expected: Vec<_> = PROBES.iter().map(|p| original.extract(p)).collect();
        let shared = SharedExtractor::adopt(original);

        let results: Vec<Vec<_>> = saccs_rt::parallel_map(PROBES.len(), 1, |i| {
            shared.with_replica(|ex| ex.extract(PROBES[i]))
        });
        assert_eq!(results, expected, "pool-thread replicas diverged");
    }
}
