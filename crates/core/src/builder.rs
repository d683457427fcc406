//! One-call construction of a fully trained SACCS service.
//!
//! Mirrors the paper's experimental setup end to end:
//!
//! 1. pretrain MiniBert on the general corpus (BERT stand-in, §4.1),
//! 2. post-train on in-domain review text (domain knowledge, §4.2 / \[58\]),
//! 3. fine-tune on the tagging task (sharpens the attention heads the
//!    pairing heuristic reads, §5.1),
//! 4. train the BiLSTM-CRF tagger, optionally adversarially (§4.3),
//! 5. fit the data-programming pairing pipeline (§5.2),
//! 6. run the extractor over every review, ingest each review's tags into
//!    a memory-only [`LiveIndex`](saccs_index::LiveIndex) and index the
//!    canonical tags (§3.1, Figure 1).

use crate::extractor::TagExtractor;
use crate::service::{SaccsConfig, SaccsService};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use saccs_data::{canonical_tags, Dataset, DatasetId, YelpCorpus};
use saccs_embed::{
    build_vocab, finetune_tagging, general_corpus, train_mlm, MiniBert, MiniBertConfig, MlmConfig,
};
use saccs_index::index::IndexConfig;
use saccs_index::{LiveConfig, LiveIndex};
use saccs_pairing::{PairingPipeline, PipelineConfig};
use saccs_tagger::{Tagger, TrainConfig};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
use std::sync::Arc;

/// End-to-end build configuration.
#[derive(Debug, Clone)]
pub struct SaccsBuilder {
    pub bert: MiniBertConfig,
    /// Sentences in the general (mixed-domain) MLM corpus.
    pub mlm_sentences: usize,
    pub mlm: MlmConfig,
    /// Cap on in-domain sentences used for domain post-training (0 skips
    /// the §4.2 step entirely).
    pub post_train_sentences: usize,
    /// Epochs of tagging fine-tuning for the attention heads (0 skips).
    pub finetune_epochs: usize,
    /// Scale of the S1 dataset used to train the tagger (1.0 = paper size).
    pub tagger_data_scale: f64,
    pub tagger: TrainConfig,
    pub pipeline: PipelineConfig,
    pub index: IndexConfig,
    pub service: SaccsConfig,
    /// How many of the 18 canonical tags to index initially (Table 2
    /// evaluates 6, 12 and 18).
    pub initial_tags: usize,
    pub seed: u64,
}

impl SaccsBuilder {
    /// Small and fast: for tests and examples (seconds, not minutes).
    pub fn quick() -> Self {
        SaccsBuilder {
            bert: MiniBertConfig {
                dim: 24,
                heads: 4,
                layers: 2,
                max_len: 48,
                seed: 0xB1,
            },
            mlm_sentences: 500,
            mlm: MlmConfig {
                epochs: 2,
                ..Default::default()
            },
            post_train_sentences: 300,
            finetune_epochs: 2,
            tagger_data_scale: 0.12,
            tagger: TrainConfig {
                epochs: 12,
                ..Default::default()
            },
            pipeline: PipelineConfig::default(),
            index: IndexConfig::default(),
            service: SaccsConfig::default(),
            initial_tags: 18,
            seed: 0x5ACC,
        }
    }

    /// Paper-scale settings used by the Table-2 bench.
    pub fn paper() -> Self {
        SaccsBuilder {
            bert: MiniBertConfig {
                dim: 48,
                heads: 6,
                layers: 4,
                max_len: 48,
                seed: 0xB2,
            },
            mlm_sentences: 6000,
            mlm: MlmConfig {
                epochs: 4,
                ..Default::default()
            },
            post_train_sentences: 4000,
            finetune_epochs: 6,
            tagger_data_scale: 0.5,
            tagger: TrainConfig {
                epochs: 10,
                ..Default::default()
            },
            pipeline: PipelineConfig::default(),
            index: IndexConfig::default(),
            service: SaccsConfig::default(),
            initial_tags: 18,
            seed: 0x5ACC,
        }
    }

    /// Train everything against `corpus` and build the populated service.
    pub fn build(&self, corpus: &YelpCorpus) -> TrainedSaccs {
        let _build = saccs_obs::span!("build.pipeline");
        let mut rng = StdRng::seed_from_u64(self.seed);

        // 1–3: the encoder.
        let _pretrain = saccs_obs::span!("build.pretrain");
        let vocab = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
        let bert = MiniBert::new(vocab, self.bert.clone());
        train_mlm(
            &bert,
            &general_corpus(self.mlm_sentences, self.seed ^ 1),
            &self.mlm,
        );
        if self.post_train_sentences > 0 {
            let mut domain_sents: Vec<Vec<String>> =
                corpus.all_sentences().map(|s| s.tokens.clone()).collect();
            domain_sents.shuffle(&mut rng);
            domain_sents.truncate(self.post_train_sentences);
            train_mlm(
                &bert,
                &domain_sents,
                &MlmConfig {
                    seed: self.seed ^ 2,
                    ..self.mlm.clone()
                },
            );
        }
        let tagging_data = Dataset::generate_scaled(DatasetId::S1, self.tagger_data_scale);
        // The extractor must also parse the *request register* ("i want a
        // restaurant with …", §3.2), so utterance-style sentences are mixed
        // into the tagger's training data (~20% of the review volume).
        let mut tagger_train = tagging_data.train.clone();
        {
            use saccs_data::{GeneratorConfig, SentenceGenerator};
            let gen = SentenceGenerator::new(
                Lexicon::new(Domain::Restaurants),
                GeneratorConfig {
                    noise_rate: 0.0,
                    ..Default::default()
                },
            );
            let n_utts = (2 * tagger_train.len() / 5).max(40);
            for _ in 0..n_utts {
                tagger_train.push(gen.random_utterance(&mut rng));
            }
        }
        if self.finetune_epochs > 0 {
            finetune_tagging(
                &bert,
                &tagger_train,
                self.finetune_epochs,
                1e-3,
                self.seed ^ 3,
            );
        }
        drop(_pretrain);
        // The encoder's training ends here: one frozen copy serves every
        // later step, and the taped one goes.
        let frozen = Arc::new(bert.freeze());
        drop(bert);

        // 4: the tagger (spans itself as `tagger.train`).
        let tagger = Tagger::train(Arc::clone(&frozen), &tagger_train, &self.tagger).freeze();

        // 5: the pairing pipeline (dev = a slice of the tagging data;
        // spans itself as `pairing.fit`).
        let dev: Vec<_> = tagging_data.test.iter().take(60).cloned().collect();
        let pairing =
            PairingPipeline::fit(frozen, &tagging_data.train, &dev, self.pipeline.clone());

        let lexicon = Lexicon::new(Domain::Restaurants);
        let extractor = TagExtractor::new(tagger, pairing.into_pairer(), lexicon);

        // 6: extract each review's tags into a memory-only live index,
        // entities in catalog order, then index the initial tags. Every
        // record stays in the one mem-segment: nothing seals or merges.
        let live = LiveIndex::new(
            ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
            self.index.clone(),
            LiveConfig {
                seal_every: 0,
                max_segments: 0,
            },
        );
        {
            let _extract = saccs_obs::span!("build.extract_reviews");
            for entity in &corpus.entities {
                for &ri in corpus.reviews_of(entity.id) {
                    let mut review_tags = Vec::new();
                    for sentence in &corpus.reviews[ri].sentences {
                        review_tags.extend(extractor.extract_from_tokens(&sentence.tokens));
                    }
                    live.add_review(entity.id, &review_tags);
                }
            }
        }
        live.add_tags(&canonical(self.initial_tags));

        TrainedSaccs {
            service: SaccsService::new(Arc::new(live), extractor, self.service.clone()),
        }
    }
}

/// The first `n` of the 18 canonical tags.
fn canonical(n: usize) -> Vec<SubjectiveTag> {
    canonical_tags().iter().take(n).map(|t| t.tag()).collect()
}

/// The result of a full build.
pub struct TrainedSaccs {
    pub service: SaccsService,
}

impl TrainedSaccs {
    /// Re-index with a different number of canonical tags (Table 2's
    /// 6/12/18-tag conditions reuse one trained pipeline).
    pub fn reindex_canonical(&self, n_tags: usize) {
        let live = self.service.live_index();
        live.clear_tags();
        live.add_tags(&canonical(n_tags));
    }
}
