//! The three workloads: how each stack is set up and what traffic it
//! receives. Every request and review sent is drawn from the run's
//! `--seed`; the system under test only ever sees the generated inputs.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use saccs_core::{
    Filter, FilterExpr, RankRequest, SaccsBuilder, SaccsConfig, SaccsService, SearchApi,
};
use saccs_data::yelp::{YelpConfig, YelpCorpus};
use saccs_data::{synthetic_tags, Entity, GeneratorConfig, SentenceGenerator};
use saccs_index::index::IndexConfig;
use saccs_index::{LiveConfig, LiveIndex};
use saccs_query::{CmpOp, ObjectivePred};
use saccs_serve::{RecorderConfig, SaccsServer, ServeConfig};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
use std::path::Path;
use std::sync::Arc;

/// Serve-side shape shared by every workload: two workers, micro-batches
/// of four, a 64-deep admission queue.
pub const WORKERS: usize = 2;
pub const BATCH: usize = 4;
pub const QUEUE_DEPTH: usize = 64;

/// Seed of the catalog data set. Each workload serves one fixed data set
/// (for `chat`, the paper-size Yelp slice) and `--seed` draws the
/// traffic: seeds then differ in what is asked and in what order, not
/// in how much the index costs to probe, which moved the mean request
/// cost by about 5% from seed to seed.
const CATALOG_DATA_SEED: u64 = 0x5ACC;
const CATALOG_ENTITIES: usize = 2000;
const CATALOG_REVIEWS: usize = 20_000;
const CATALOG_VOCAB: usize = 4000;
const CATALOG_INDEXED: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Chat,
    CatalogRead,
    CatalogMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Chat,
        Workload::CatalogRead,
        Workload::CatalogMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Chat => "chat",
            Workload::CatalogRead => "catalog_read",
            Workload::CatalogMixed => "catalog_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered rank requests per second in the open loop.
    pub fn rank_rate(self) -> f64 {
        match self {
            Workload::Chat => 1000.0,
            Workload::CatalogRead => 200.0,
            Workload::CatalogMixed => 100.0,
        }
    }

    /// Offered reviews per second in the open loop.
    pub fn ingest_rate(self) -> f64 {
        match self {
            Workload::CatalogMixed => 12.5,
            Workload::Chat | Workload::CatalogRead => 0.0,
        }
    }

    pub fn total_rate(self) -> f64 {
        self.rank_rate() + self.ingest_rate()
    }
}

/// Independent, reproducible random streams derived from the run seed,
/// one per purpose, so adding draws to one phase never shifts another.
pub fn stream(seed: u64, purpose: u64) -> StdRng {
    let mut h = seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(h ^ (h >> 31))
}

/// Stream purposes.
pub mod purpose {
    pub const SETUP: u64 = 1;
    pub const GATE: u64 = 2;
    pub const OPEN_RANKS: u64 = 10;
    pub const OPEN_MIX: u64 = 11;
    pub const OPEN_REVIEWS: u64 = 12;
    pub const WHOLE: u64 = 20;
    pub const EXTRACT: u64 = 21;
    pub const DECOMPOSED: u64 = 22;
    pub const INGEST_PROBE: u64 = 23;
}

/// The separate operation streams ([`OpStream::new`]'s `part`) of a run.
pub mod part {
    pub const LATENCY: u64 = 0;
    /// Closed-loop client `k` uses `CAPACITY + k`.
    pub const CAPACITY: u64 = 1;
    pub const UNTRACED: u64 = 3;
    pub const TRACED: u64 = 4;

    /// `part` in untraced round `round`.
    pub fn round(round: u64, part: u64) -> u64 {
        10 * (round + 1) + part
    }
}

/// One operation a client sends.
#[derive(Clone)]
pub enum Op {
    Rank(Box<RankRequest>),
    Ingest {
        entity: usize,
        tags: Vec<SubjectiveTag>,
    },
}

/// What requests draw from. Shared, immutable; a [`Requests`] source
/// holds the per-stream state.
#[derive(Clone)]
pub enum Vocabulary {
    /// Utterances in the request register, as the tagger was trained on.
    Chat(Arc<SentenceGenerator>),
    Catalog(Arc<Catalog>),
}

pub struct Catalog {
    /// Every tag reviews use; the first `indexed` are index tags.
    tags: Vec<SubjectiveTag>,
    indexed: usize,
    /// What requests ask for: every index tag and as many tags the index
    /// does not know, which take the θ_filter fallback probe.
    queries: Vec<SubjectiveTag>,
    entities: usize,
}

impl Catalog {
    fn new(tags: Vec<SubjectiveTag>, indexed: usize, entities: usize) -> Catalog {
        // Unknown tags spread evenly over the rest of the vocabulary, so
        // they cover its opinion groups the way the whole of it does.
        let unknown = tags.len() - indexed;
        let queries = tags[..indexed]
            .iter()
            .cloned()
            .chain((0..indexed).map(|k| tags[indexed + k * unknown / indexed].clone()))
            .collect();
        Catalog {
            tags,
            indexed,
            queries,
            entities,
        }
    }
}

/// A seeded shuffled deck: every item is drawn once per pass, in a fresh
/// order each pass. Drawing request features from decks instead of
/// independent coin flips gives every run the same mix of cheap and
/// expensive requests, so different seeds reorder and recombine the
/// work without changing how much of it there is. Fallback probe costs
/// are bimodal (about a third cost 10 ms, the rest under 1 ms), and
/// independent draws alone moved the mean request cost by several
/// percent from seed to seed.
pub struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Clone> Deck<T> {
    pub fn new(items: Vec<T>) -> Deck<T> {
        let next = items.len();
        Deck { items, next }
    }

    pub fn draw(&mut self, rng: &mut StdRng) -> T {
        if self.next == self.items.len() {
            self.items.shuffle(rng);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1].clone()
    }
}

/// One seeded stream of requests and reviews over a vocabulary.
pub struct Requests {
    vocabulary: Vocabulary,
    rng: StdRng,
    /// Catalog request features, each balanced by a deck: the query tag
    /// (index into `queries`), tags per request, whether a filter rides
    /// along, and the filter's index tag.
    tags: Deck<usize>,
    arity: Deck<usize>,
    filtered: Deck<bool>,
    threshold: Deck<usize>,
}

impl Requests {
    pub fn new(vocabulary: &Vocabulary, rng: StdRng) -> Requests {
        let (queries, indexed) = match vocabulary {
            Vocabulary::Chat(_) => (0, 0),
            Vocabulary::Catalog(c) => (c.queries.len(), c.indexed),
        };
        Requests {
            vocabulary: vocabulary.clone(),
            rng,
            tags: Deck::new((0..queries).collect()),
            arity: Deck::new(vec![1, 2, 3]),
            filtered: Deck::new(vec![true, false]),
            threshold: Deck::new((0..indexed).collect()),
        }
    }

    /// A catalog query tag: indexed or not, half and half.
    pub fn probe_tag(&mut self) -> Option<SubjectiveTag> {
        match &self.vocabulary {
            Vocabulary::Chat(_) => None,
            Vocabulary::Catalog(c) => Some(c.queries[self.tags.draw(&mut self.rng)].clone()),
        }
    }

    pub fn rank(&mut self) -> RankRequest {
        let catalog = match &self.vocabulary {
            Vocabulary::Chat(gen) => {
                return RankRequest::utterance(gen.random_utterance(&mut self.rng).tokens.join(" "))
            }
            Vocabulary::Catalog(c) => Arc::clone(c),
        };
        let n = self.arity.draw(&mut self.rng);
        let request = RankRequest::tags((0..n).filter_map(|_| self.probe_tag()).collect());
        if !self.filtered.draw(&mut self.rng) {
            return request;
        }
        // An AST, not DSL text: the DSL cannot spell multi-word
        // synthetic opinions such as "a killer".
        let tag = catalog.tags[self.threshold.draw(&mut self.rng)].clone();
        request.with_filter(Filter::from_expr(FilterExpr::And(vec![
            FilterExpr::Threshold { tag, theta: 0.0 },
            FilterExpr::Objective(ObjectivePred::Price {
                op: CmpOp::Le,
                value: 2,
            }),
        ])))
    }

    /// One review: an entity and 1–4 tags from the whole vocabulary.
    pub fn review(&mut self) -> Option<(usize, Vec<SubjectiveTag>)> {
        let Vocabulary::Catalog(c) = &self.vocabulary else {
            return None;
        };
        let rng = &mut self.rng;
        let n = rng.gen_range(1..=4);
        let review = (0..n)
            .map(|_| c.tags[rng.gen_range(0..c.tags.len())].clone())
            .collect();
        Some((rng.gen_range(0..c.entities), review))
    }
}

/// A served stack, ready for traffic.
pub struct Stack {
    pub workload: Workload,
    pub service: Arc<SaccsService>,
    pub entities: Arc<Vec<Entity>>,
    pub live: Option<Arc<LiveIndex>>,
    pub server: Arc<SaccsServer>,
    pub vocabulary: Vocabulary,
}

impl Stack {
    pub fn api(&self) -> SearchApi<'_> {
        SearchApi::new(&self.entities)
    }

    /// Another server over the same service, with the flight recorder
    /// on, for the traced phase.
    pub fn recorded_server(&self, ring: usize) -> Arc<SaccsServer> {
        Arc::new(SaccsServer::start(
            Arc::clone(&self.service),
            self.entities.to_vec(),
            serve_config().with_recorder(RecorderConfig {
                ring,
                ..RecorderConfig::default()
            }),
        ))
    }
}

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        batch: BATCH,
        recorder: None,
    }
}

/// Build the workload's stack from scratch and start its server.
pub fn setup(workload: Workload, out: &Path) -> Result<Stack, String> {
    let (service, entities, live, vocabulary) = match workload {
        Workload::Chat => {
            // The paper's Yelp slice: 280 entities, 7061 reviews (§6.2).
            let corpus =
                YelpCorpus::generate(Lexicon::new(Domain::Restaurants), &YelpConfig::default());
            let service = SaccsBuilder::quick().build(&corpus).service;
            // The request register the builder mixes into tagger
            // training: noise-free utterances.
            let gen = SentenceGenerator::new(
                Lexicon::new(Domain::Restaurants),
                GeneratorConfig {
                    noise_rate: 0.0,
                    ..Default::default()
                },
            );
            (
                service,
                corpus.entities,
                None,
                Vocabulary::Chat(Arc::new(gen)),
            )
        }
        Workload::CatalogRead | Workload::CatalogMixed => {
            let lexicon = Lexicon::new(Domain::Restaurants);
            let dir = out.join(format!("{}.store", workload.name()));
            if dir.exists() {
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| format!("cannot wipe {}: {e}", dir.display()))?;
            }
            let live = LiveIndex::open(
                &dir,
                ConceptualSimilarity::new(lexicon.clone()),
                IndexConfig::default(),
                LiveConfig::default(),
            )
            .map_err(|e| format!("cannot open the index store: {e}"))?;
            let mut rng = stream(CATALOG_DATA_SEED, purpose::SETUP);
            let entities: Vec<Entity> = (0..CATALOG_ENTITIES)
                .map(|i| Entity::sample(i, &lexicon, &mut rng))
                .collect();
            let catalog = Arc::new(Catalog::new(
                synthetic_tags(&lexicon, CATALOG_VOCAB, CATALOG_DATA_SEED),
                CATALOG_INDEXED,
                CATALOG_ENTITIES,
            ));
            let vocabulary = Vocabulary::Catalog(Arc::clone(&catalog));
            let mut reviews = Requests::new(&vocabulary, rng);
            for _ in 0..CATALOG_REVIEWS {
                if let Some((entity, tags)) = reviews.review() {
                    live.add_review(entity, &tags);
                }
            }
            live.add_tags(&catalog.tags[..catalog.indexed]);
            let live = Arc::new(live);
            let service = SaccsService::with_live_index(Arc::clone(&live), SaccsConfig::default());
            (service, entities, Some(live), vocabulary)
        }
    };
    let service = Arc::new(service);
    let server = Arc::new(SaccsServer::start(
        Arc::clone(&service),
        entities.clone(),
        serve_config(),
    ));
    Ok(Stack {
        workload,
        service,
        entities: Arc::new(entities),
        live,
        server,
        vocabulary,
    })
}

/// Operations in the workload's read/write mix: ranks interleaved with
/// reviews at the workload's ingest share (a deck of one review per
/// eight ranks on `catalog_mixed`). Ranks, reviews and the interleaving
/// draw from separate streams, so `catalog_mixed` reads exactly what
/// `catalog_read` reads.
pub struct OpStream {
    ranks: Requests,
    reviews: Requests,
    mix: Deck<bool>,
    mix_rng: StdRng,
}

impl OpStream {
    /// `part` selects disjoint streams for the separate loops of a run.
    pub fn new(stack: &Stack, seed: u64, part: u64) -> OpStream {
        let w = stack.workload;
        let mix = if w.ingest_rate() > 0.0 {
            let mut mix = vec![false; (w.rank_rate() / w.ingest_rate()).round() as usize];
            mix.push(true);
            mix
        } else {
            vec![false]
        };
        let at = |purpose: u64| stream(seed, purpose + 1000 * part);
        OpStream {
            ranks: Requests::new(&stack.vocabulary, at(purpose::OPEN_RANKS)),
            reviews: Requests::new(&stack.vocabulary, at(purpose::OPEN_REVIEWS)),
            mix: Deck::new(mix),
            mix_rng: at(purpose::OPEN_MIX),
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.mix.draw(&mut self.mix_rng) {
            if let Some((entity, tags)) = self.reviews.review() {
                return Op::Ingest { entity, tags };
            }
        }
        Op::Rank(Box::new(self.ranks.rank()))
    }

    /// The next `n` operations, for an open-loop schedule.
    pub fn take(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decks_deal_every_item_once_per_pass() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut deck = Deck::new((0..5).collect::<Vec<usize>>());
        for _ in 0..3 {
            let mut pass: Vec<usize> = (0..5).map(|_| deck.draw(&mut rng)).collect();
            pass.sort_unstable();
            assert_eq!(pass, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn catalog_queries_are_half_index_tags() {
        let tags: Vec<SubjectiveTag> = (0..40)
            .map(|i| SubjectiveTag::new(&format!("o{i}"), "food"))
            .collect();
        let c = Catalog::new(tags.clone(), 10, 5);
        assert_eq!(c.queries.len(), 20);
        assert_eq!(&c.queries[..10], &tags[..10]);
        assert!(c.queries[10..].iter().all(|q| !tags[..10].contains(q)));
        let vocabulary = Vocabulary::Catalog(Arc::new(c));
        let mut a = Requests::new(&vocabulary, StdRng::seed_from_u64(1));
        let mut b = Requests::new(&vocabulary, StdRng::seed_from_u64(1));
        for _ in 0..50 {
            assert_eq!(a.probe_tag(), b.probe_tag(), "same seed, same stream");
        }
    }
}
