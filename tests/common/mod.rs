//! The live-serving fixture `tests/ingest.rs` and `tests/query.rs`
//! share: one tag vocabulary, one interleaved review stream, a live
//! index behind a `SaccsServer`, the from-scratch replay both suites
//! compare it against, and a naive Equation-1 evaluator that pins the
//! replay's columns.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saccs::core::{SaccsConfig, SaccsService};
use saccs::data::Entity;
use saccs::index::index::IndexConfig;
use saccs::index::{LiveConfig, LiveIndex, ReviewRecord};
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
pub(crate) fn vocabulary() -> Vec<SubjectiveTag> {
    vec![
        tag("delicious", "food"),
        tag("friendly", "staff"),
        tag("cozy", "ambiance"),
    ]
}

/// The interleaved review stream: 10 reviews over 5 entities, mixing
/// exact vocabulary hits, near-typos and out-of-vocabulary noise; entity
/// 0 gathers three distinct matches for "delicious food", so Equation
/// 1's mean is not an exact power-of-two division. At
/// [`live_index`]'s `seal_every=2`, `max_segments=3` it seals five times
/// and forces at least one compaction merge.
pub(crate) fn stream() -> Vec<(usize, Vec<SubjectiveTag>)> {
    vec![
        (0, vec![tag("delicious", "food"), tag("friendly", "staff")]),
        (1, vec![tag("tasty", "meal")]),
        (2, vec![tag("cozy", "ambiance"), tag("great", "service")]),
        (0, vec![tag("deliciouz", "food"), tag("tasty", "meal")]),
        (3, vec![tag("friendly", "staff"), tag("cozy", "ambiance")]),
        (1, vec![tag("zorgle", "zzplace")]),
        (4, vec![tag("delicious", "food")]),
        (2, vec![tag("friendly", "service")]),
        (3, vec![tag("tasty", "food"), tag("great", "staff")]),
        (4, vec![tag("cozy", "ambiance"), tag("delicious", "meal")]),
    ]
}

/// The from-scratch comparator: a fresh memory-only index fed the log's
/// reviews first and the tag set after, so each column is folded from
/// the whole log at once rather than spliced review by review. The
/// similarity goes in as a custom one, so its fallback probes scan.
/// Every column must equal [`naive_column`] bit for bit.
pub(crate) fn rebuild(log: &[ReviewRecord], tags: &[SubjectiveTag]) -> Arc<LiveIndex> {
    let replay = LiveIndex::new(
        sim(),
        IndexConfig::default(),
        LiveConfig {
            seal_every: 0,
            max_segments: 0,
        },
    )
    .with_custom_similarity(sim());
    for record in log {
        replay.add_review(record.entity_id, &record.tags);
    }
    replay.add_tags(tags);
    let snapshot = replay.pin();
    for tag in tags {
        let column: Vec<(usize, u32, u32)> = snapshot
            .lookup(tag)
            .map(|postings| postings.table())
            .unwrap_or_default()
            .iter()
            .map(|&(e, degree, normalized)| (e, degree.to_bits(), normalized.to_bits()))
            .collect();
        assert_eq!(column, naive_column(log, tag), "replayed column {tag:?}");
    }
    Arc::new(replay)
}

/// Equation 1 evaluated naively from the log, as Table 1's rows
/// `(entity, degree bits, normalized bits)`: per entity (in first-seen
/// order) the review count and the left fold, in log order, of every
/// review tag's similarity to `tag` above θ_index; degree
/// `ln(reviews + 1) × sum / n`; a stable sort by descending degree;
/// normalized against the largest degree. The index stores the column
/// by entity slot (first-seen order) and ranks it this way on demand.
fn naive_column(log: &[ReviewRecord], tag: &SubjectiveTag) -> Vec<(usize, u32, u32)> {
    let (sim, theta) = (sim(), IndexConfig::default().theta_index);
    // (entity, reviews, sum, n)
    let mut folds: Vec<(usize, usize, f32, usize)> = Vec::new();
    for record in log {
        let i = match folds.iter().position(|f| f.0 == record.entity_id) {
            Some(i) => i,
            None => {
                folds.push((record.entity_id, 0, 0.0, 0));
                folds.len() - 1
            }
        };
        folds[i].1 += 1;
        for t in &record.tags {
            let s = sim.tag_similarity(tag, t);
            if s > theta {
                folds[i].2 += s;
                folds[i].3 += 1;
            }
        }
    }
    let mut degrees: Vec<(usize, f32)> = folds
        .into_iter()
        .filter(|f| f.3 > 0)
        .map(|(e, reviews, sum, n)| (e, ((reviews + 1) as f32).ln() * (sum / n as f32)))
        .collect();
    degrees.sort_by(|a, b| b.1.total_cmp(&a.1));
    let max = degrees.first().map_or(0.0, |d| d.1);
    degrees
        .into_iter()
        .map(|(e, d)| {
            let normalized = if max > 0.0 { d / max } else { 0.0 };
            (e, d.to_bits(), normalized.to_bits())
        })
        .collect()
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
    live.add_tags(&vocabulary());
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
            ..ServeConfig::default()
        },
    ));
    (server, ents)
}
