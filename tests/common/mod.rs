//! The live-serving fixture `tests/ingest.rs` and `tests/query.rs`
//! share: one tag vocabulary, one interleaved review stream, a live
//! index behind a `SaccsServer`, and the from-scratch rebuild both
//! suites compare it against.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saccs::core::{SaccsConfig, SaccsService};
use saccs::data::Entity;
use saccs::index::index::{EntityEvidence, IndexConfig};
use saccs::index::{LiveConfig, LiveIndex, ReviewRecord, SubjectiveIndex};
use saccs::serve::{SaccsServer, ServeConfig};
use saccs::text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Metrics and (under the `fault` feature) the failpoint registry are
/// process-global, so the tests serialize exactly like `tests/serve.rs`.
pub(crate) fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn sim() -> ConceptualSimilarity {
    ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants))
}

pub(crate) fn tag(op: &str, asp: &str) -> SubjectiveTag {
    SubjectiveTag::new(op, asp)
}

pub(crate) fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(e, s)| (e, s.to_bits())).collect()
}

pub(crate) fn entities(n: usize) -> Vec<Entity> {
    let lex = Lexicon::new(Domain::Restaurants);
    let mut rng = StdRng::seed_from_u64(5);
    (0..n).map(|i| Entity::sample(i, &lex, &mut rng)).collect()
}

/// The indexed tag vocabulary.
pub(crate) fn index_tags() -> Vec<SubjectiveTag> {
    vec![
        tag("delicious", "food"),
        tag("friendly", "staff"),
        tag("cozy", "ambiance"),
    ]
}

/// The interleaved review stream: 10 reviews over 5 entities, mixing
/// exact vocabulary hits, near-typos and out-of-vocabulary noise. At
/// [`live_index`]'s `seal_every=2`, `max_segments=3` it seals five times
/// and forces at least one compaction merge.
pub(crate) fn stream() -> Vec<(usize, Vec<SubjectiveTag>)> {
    vec![
        (0, vec![tag("delicious", "food"), tag("friendly", "staff")]),
        (1, vec![tag("tasty", "meal")]),
        (2, vec![tag("cozy", "ambiance"), tag("great", "service")]),
        (0, vec![tag("deliciouz", "food")]),
        (3, vec![tag("friendly", "staff"), tag("cozy", "ambiance")]),
        (1, vec![tag("zorgle", "zzplace")]),
        (4, vec![tag("delicious", "food")]),
        (2, vec![tag("friendly", "service")]),
        (3, vec![tag("tasty", "food"), tag("great", "staff")]),
        (4, vec![tag("cozy", "ambiance"), tag("delicious", "meal")]),
    ]
}

/// The from-scratch comparator: replay the log the way the batch
/// pipeline would and index the same tag set. The similarity goes in as
/// a custom one, so its fallback probes scan.
pub(crate) fn rebuild(log: &[ReviewRecord], tags: &[SubjectiveTag]) -> SubjectiveIndex {
    let mut idx = SubjectiveIndex::new(sim(), IndexConfig::default()).with_custom_similarity(sim());
    let mut evidence: Vec<EntityEvidence> = Vec::new();
    for record in log {
        match evidence
            .iter_mut()
            .find(|e| e.entity_id == record.entity_id)
        {
            Some(ev) => {
                ev.review_count += 1;
                ev.review_tags.extend(record.tags.iter().cloned());
            }
            None => evidence.push(EntityEvidence {
                entity_id: record.entity_id,
                review_count: 1,
                review_tags: record.tags.clone(),
            }),
        }
    }
    for ev in evidence {
        idx.register_entity(ev);
    }
    idx.index_tags(tags);
    idx
}

pub(crate) fn live_index() -> Arc<LiveIndex> {
    let live = LiveIndex::new(
        sim(),
        IndexConfig::default(),
        LiveConfig {
            seal_every: 2,
            max_segments: 3,
        },
    );
    live.add_tags(&index_tags());
    Arc::new(live)
}

pub(crate) fn live_server(
    live: &Arc<LiveIndex>,
    workers: usize,
) -> (Arc<SaccsServer>, Vec<Entity>) {
    let svc = Arc::new(SaccsService::with_live_index(
        Arc::clone(live),
        SaccsConfig::default(),
    ));
    let ents = entities(5);
    let server = Arc::new(SaccsServer::start(
        svc,
        ents.clone(),
        ServeConfig {
            workers,
            queue_depth: 64,
            batch: 4,
            ..ServeConfig::default()
        },
    ));
    (server, ents)
}
