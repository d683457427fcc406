//! Bitwise thread-count invariance of `LiveIndex::add_tags` and the
//! probes answered from it. Each new tag's posting list is a pure
//! function of the tag and the record log and comes back positionally
//! from the `saccs-rt` fan-out, so the columns an 8-wide pool builds
//! must equal the serial ones bit for bit.
//!
//! One test function on purpose: `saccs_rt::set_threads` is grow-only
//! and process-global, so the width-1 build must run before widening.

use saccs_index::index::IndexConfig;
use saccs_index::Postings;
use saccs_index::{LiveConfig, LiveIndex};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};

fn tag(op: &str, asp: &str) -> SubjectiveTag {
    SubjectiveTag::new(op, asp)
}

/// A memory-only index over 24 entities' reviews, 2–5 reviews each,
/// the first carrying three tags from a pool with a typo'd opinion and
/// aspect (resolved fuzzily) and an unresolvable pair.
fn reviewed_index() -> LiveIndex {
    let live = LiveIndex::new(
        ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
        IndexConfig::default(),
        LiveConfig {
            seal_every: 0,
            max_segments: 0,
        },
    );
    let pool = [
        tag("delicious", "food"),
        tag("tasty", "meal"),
        tag("nice", "staff"),
        tag("friendly", "service"),
        tag("cozy", "ambiance"),
        tag("cheap", "price"),
        tag("deliciouz", "food"),
        tag("friendly", "servise"),
        tag("zorgle", "zzplace"),
    ];
    for e in 0..24usize {
        let review_tags: Vec<SubjectiveTag> = (0..3)
            .map(|k| pool[(e * 5 + k * 7) % pool.len()].clone())
            .collect();
        live.add_review(e, &review_tags);
        for _ in 1..2 + e % 4 {
            live.add_review(e, &[]);
        }
    }
    live
}

fn vocabulary() -> Vec<SubjectiveTag> {
    [
        ("delicious", "food"),
        ("tasty", "meal"),
        ("nice", "staff"),
        ("friendly", "service"),
        ("cozy", "ambiance"),
        ("cheap", "price"),
        ("great", "food"),
        ("good", "service"),
        ("quiet", "ambiance"),
        ("deliciouz", "meal"),
        ("nice", "staf"),
        ("zorgle", "zzplace"),
    ]
    .iter()
    .map(|(o, a)| tag(o, a))
    .collect()
}

/// A column as `(entity, degree bits)` in slot order.
fn column_bits(postings: Postings<'_>) -> Vec<(usize, u32)> {
    postings.iter().map(|(e, d)| (e, d.to_bits())).collect()
}

fn probe_bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(e, s)| (e, s.to_bits())).collect()
}

#[test]
fn parallel_build_and_probes_bitwise_identical_across_widths() {
    let tags = vocabulary();
    let probes = [
        tag("delicious", "food"),
        tag("scrumptious", "pasta"),
        tag("great", "meal"),
        tag("romantic", "ambiance"),
    ];

    let mut baseline = None;
    // Width 1 first: the pool has never been widened.
    for width in [1, 2, 8] {
        saccs_rt::set_threads(width);
        let live = reviewed_index();
        assert_eq!(live.add_tags(&tags), tags.len());
        let snapshot = live.pin();
        let columns: Vec<_> = tags
            .iter()
            .map(|t| snapshot.lookup(t).map(column_bits))
            .collect();
        assert!(columns.iter().all(Option::is_some));
        let probed: Vec<_> = probes
            .iter()
            .map(|t| probe_bits(&snapshot.probe_readonly(t)))
            .collect();
        match &baseline {
            None => baseline = Some((columns, probed)),
            Some((base_columns, base_probes)) => {
                for ((t, got), expect) in tags.iter().zip(&columns).zip(base_columns) {
                    assert_eq!(got, expect, "postings for {t:?} diverged at width {width}");
                }
                assert_eq!(&probed, base_probes, "probes diverged at width {width}");
            }
        }
    }
}
