//! Bitwise thread-count invariance of parallel index construction and
//! the probes answered from it. Posting lists are pure functions of `(tag, evidence)`
//! and come back positionally from the `saccs-rt` fan-out, so the index
//! an 8-wide pool builds must equal the serial one bit for bit.
//!
//! One test function on purpose: `saccs_rt::set_threads` is grow-only
//! and process-global, so the width-1 build must run before widening.

use saccs_index::index::{EntityEvidence, IndexConfig, SubjectiveIndex};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};

fn tag(op: &str, asp: &str) -> SubjectiveTag {
    SubjectiveTag::new(op, asp)
}

fn evidence_index() -> SubjectiveIndex {
    let mut idx = SubjectiveIndex::new(
        ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
        IndexConfig::default(),
    );
    let pool = [
        tag("delicious", "food"),
        tag("tasty", "meal"),
        tag("nice", "staff"),
        tag("friendly", "service"),
        tag("cozy", "ambiance"),
        tag("cheap", "price"),
    ];
    for e in 0..24usize {
        let review_tags: Vec<SubjectiveTag> = (0..3)
            .map(|k| pool[(e * 5 + k * 7) % pool.len()].clone())
            .collect();
        idx.register_entity(EntityEvidence {
            entity_id: e,
            review_count: 2 + e % 4,
            review_tags,
        });
    }
    idx
}

fn index_tags() -> Vec<SubjectiveTag> {
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
    ]
    .iter()
    .map(|(o, a)| tag(o, a))
    .collect()
}

#[test]
fn parallel_build_and_probes_bitwise_identical_across_widths() {
    let tags = index_tags();
    let probes = [
        tag("delicious", "food"),
        tag("scrumptious", "pasta"),
        tag("great", "meal"),
        tag("romantic", "ambiance"),
    ];

    // Width-1 baseline: the pool has never been widened.
    let mut base = evidence_index();
    base.index_tags(&tags);
    let base_posts: Vec<_> = tags
        .iter()
        .map(|t| base.lookup(t).map(<[_]>::to_vec))
        .collect();
    let base_probes: Vec<_> = probes.iter().map(|t| base.probe_readonly(t)).collect();

    for width in [2, 8] {
        saccs_rt::set_threads(width);
        let mut idx = evidence_index();
        idx.index_tags(&tags);
        for (t, expect) in tags.iter().zip(&base_posts) {
            assert_eq!(
                idx.lookup(t).map(<[_]>::to_vec).as_ref(),
                expect.as_ref(),
                "postings for {t:?} diverged at width {width}"
            );
        }

        let probed: Vec<_> = probes.iter().map(|t| idx.probe_readonly(t)).collect();
        assert_eq!(probed, base_probes, "probes diverged at width {width}");
    }
}
