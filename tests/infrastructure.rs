//! Integration tests for the infrastructure extensions: concurrent
//! probing of the live index, CoNLL interop and the extractor
//! persistence codec — all through the public facade.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saccs::data::generator::{GeneratorConfig, SentenceGenerator};
use saccs::data::{from_conll, to_conll};
use saccs::index::index::IndexConfig;
use saccs::index::{LiveConfig, LiveIndex};
use saccs::text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};

fn tag(op: &str, asp: &str) -> SubjectiveTag {
    SubjectiveTag::new(op, asp)
}

#[test]
fn live_index_survives_a_probe_storm() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    const THREADS: usize = 8;
    const TAGS_PER_THREAD: usize = 40;
    let live = LiveIndex::new(
        ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
        IndexConfig::default(),
        LiveConfig::default(),
    );
    for e in 0..10 {
        live.add_review(e, &[tag("delicious", "food"), tag("nice", "staff")]);
    }
    live.add_tags(&[tag("delicious", "food"), tag("nice", "staff")]);
    let initial = live.tag_count();
    let unknown = |t: usize, i: usize| tag(&format!("oddword{t}x{i}"), &format!("aspect{t}"));
    let added = AtomicUsize::new(0);
    let start = Barrier::new(THREADS);
    crossbeam::thread::scope(|scope| {
        for t in 0..THREADS {
            let (live, added, start) = (&live, &added, &start);
            scope.spawn(move |_| {
                start.wait();
                for i in 0..TAGS_PER_THREAD {
                    // Each thread probes its own distinct unknown tags (twice,
                    // so the pending history sees repeats), a shared unknown
                    // tag and a known one, every probe on a fresh pin; every
                    // thread also runs re-indexing rounds, so drains race
                    // both the probes and each other.
                    let _ = live.probe_pinned(&live.pin(), &unknown(t, i));
                    let _ = live.probe_pinned(&live.pin(), &unknown(t, i));
                    let _ = live.probe_pinned(&live.pin(), &tag("scrumptious", "pasta"));
                    assert!(!live
                        .probe_pinned(&live.pin(), &tag("delicious", "food"))
                        .is_empty());
                    if i % 7 == t % 7 {
                        added.fetch_add(live.reindex_pending(), Ordering::Relaxed);
                    }
                }
            });
        }
    })
    .unwrap();
    added.fetch_add(live.reindex_pending(), Ordering::Relaxed);
    assert_eq!(live.pending_count(), 0);
    // Exact accounting: every distinct unknown tag is indexed exactly
    // once — none lost to a racing drain, none added twice.
    let distinct = THREADS * TAGS_PER_THREAD + 1;
    assert_eq!(added.into_inner(), distinct);
    assert_eq!(live.tag_count(), initial + distinct);
    let snapshot = live.pin();
    for t in 0..THREADS {
        for i in 0..TAGS_PER_THREAD {
            assert!(
                snapshot.index().lookup(&unknown(t, i)).is_some(),
                "lost tag oddword{t}x{i}"
            );
        }
    }
    // And a promoted tag now answers from its own postings.
    assert!(snapshot
        .index()
        .lookup(&tag("scrumptious", "pasta"))
        .is_some());
}

#[test]
fn conll_roundtrip_through_the_facade() {
    let gen = SentenceGenerator::new(Lexicon::new(Domain::Hotels), GeneratorConfig::default());
    let mut rng = StdRng::seed_from_u64(7);
    let sentences: Vec<_> = (0..25).map(|_| gen.random_sentence(&mut rng)).collect();
    let text = to_conll(&sentences);
    let parsed = from_conll(&text).expect("roundtrip parse");
    assert_eq!(parsed.len(), sentences.len());
    for (a, b) in sentences.iter().zip(&parsed) {
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.tags, b.tags);
        assert_eq!(
            a.pairs.iter().collect::<std::collections::BTreeSet<_>>(),
            b.pairs.iter().collect::<std::collections::BTreeSet<_>>()
        );
    }
}

#[test]
fn state_codec_rejects_corruption_at_every_cut() {
    use saccs::nn::{decode_state, encode_state, Matrix};
    let state = vec![Matrix::full(3, 3, 1.25), Matrix::zeros(1, 7)];
    let bytes = encode_state(&state);
    assert_eq!(decode_state(&bytes).unwrap(), state);
    for cut in 0..bytes.len() {
        assert!(
            decode_state(&bytes[..cut]).is_err(),
            "accepted truncation at {cut}"
        );
    }
}
