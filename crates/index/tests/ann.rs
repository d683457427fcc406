//! Fallback probes through the cell index must be *exactly* the
//! exhaustive scan: same entity ids, same score bits, same order. With
//! the default conceptual similarity the semantic candidate cells prune
//! only tags whose upper bound is below θ_filter, and the rescore
//! replays the scan's addition sequence, so the equality is bitwise —
//! across random corpora, θ values and `saccs-rt` widths. The scan
//! reference is the same index built with the same similarity fed in as
//! a custom one, which scans by construction.

use proptest::prelude::*;
use saccs_index::index::{IndexConfig, SubjectiveIndex};
use saccs_index::{LiveConfig, LiveIndex, LiveSnapshot};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
use std::sync::Arc;

/// Mix of in-lexicon opinions, fuzzy-resolvable typos, and garbage.
const OPINIONS: &[&str] = &[
    "delicious",
    "tasty",
    "great",
    "good",
    "bad",
    "friendly",
    "rude",
    "cozy",
    "noisy",
    "cheap",
    "deliciouz",
    "frendly",
    "zorgle",
];

/// Same mix on the aspect side.
const ASPECTS: &[&str] = &[
    "food", "meal", "pasta", "staff", "service", "waiters", "ambiance", "price", "zzplace",
];

/// θ_filter values swept by the fuzz test.
const THETAS: &[f32] = &[0.15, 0.45, 0.55, 0.7, 0.9];

fn sim() -> ConceptualSimilarity {
    ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants))
}

fn mk_tag(&(o, a): &(usize, usize)) -> SubjectiveTag {
    SubjectiveTag::new(OPINIONS[o % OPINIONS.len()], ASPECTS[a % ASPECTS.len()])
}

/// Build an index over `entities` (`(review count, tags)`, the tags in
/// the first review) and `tags`: the default one, whose fallback probes
/// go through the cell index, or with `scan` the scan reference.
fn build(
    config: IndexConfig,
    entities: &[(usize, Vec<SubjectiveTag>)],
    tags: &[SubjectiveTag],
    scan: bool,
) -> Arc<LiveSnapshot> {
    let mut live = LiveIndex::new(
        sim(),
        config,
        LiveConfig {
            seal_every: 0,
            max_segments: 0,
        },
    );
    if scan {
        live = live.with_custom_similarity(sim());
    }
    for (e, (reviews, review_tags)) in entities.iter().enumerate() {
        live.add_review(e, review_tags);
        for _ in 1..*reviews {
            live.add_review(e, &[]);
        }
    }
    live.add_tags(tags);
    live.pin()
}

fn assert_ranked_bitwise_eq(cells: &[(usize, f32)], scan: &[(usize, f32)], ctx: &str) {
    assert_eq!(cells.len(), scan.len(), "{ctx}: lengths differ");
    for (i, ((ea, sa), (eb, sb))) in cells.iter().zip(scan).enumerate() {
        assert_eq!(ea, eb, "{ctx}: entity at rank {i}");
        assert_eq!(
            sa.to_bits(),
            sb.to_bits(),
            "{ctx}: score bits at rank {i} ({sa} vs {sb})"
        );
    }
}

proptest! {
    #![proptest_config(prop::test_runner::Config::with_cases(48))]

    /// The core invariant, fuzzed: for any corpus and θ_filter,
    /// cell-index probes equal scan probes bitwise.
    #[test]
    fn cell_probe_equals_scan_probe_bitwise(
        raw_entities in prop::collection::vec(
            (1usize..5, prop::collection::vec((0usize..64, 0usize..64), 1..6)),
            1..10,
        ),
        raw_tags in prop::collection::vec((0usize..64, 0usize..64), 1..14),
        raw_probes in prop::collection::vec((0usize..64, 0usize..64), 1..6),
        theta_pick in 0usize..THETAS.len(),
    ) {
        let theta = THETAS[theta_pick];
        let entities: Vec<(usize, Vec<SubjectiveTag>)> = raw_entities
            .iter()
            .map(|(reviews, ts)| (*reviews, ts.iter().map(mk_tag).collect()))
            .collect();
        let tags: Vec<SubjectiveTag> = raw_tags.iter().map(mk_tag).collect();
        let probes: Vec<SubjectiveTag> = raw_probes.iter().map(mk_tag).collect();
        let config = IndexConfig {
            theta_filter: theta,
            ..IndexConfig::default()
        };
        let scan_idx = build(config.clone(), &entities, &tags, true);
        let cell_idx = build(config, &entities, &tags, false);
        for probe in &probes {
            let scan = scan_idx.probe_readonly(probe);
            let cells = cell_idx.probe_readonly(probe);
            assert_ranked_bitwise_eq(
                &cells,
                &scan,
                &format!("probe {probe:?} θ={theta}"),
            );
        }
    }
}

/// Width sweep: one test function on purpose — `saccs_rt::set_threads`
/// is grow-only and process-global, so the width-1 pass must run first.
/// Cell-index probes must match both the scan *and* the width-1
/// baseline bit for bit at widths 1, 2 and 8.
#[test]
fn cell_probes_bitwise_identical_across_widths() {
    let entities: Vec<(usize, Vec<SubjectiveTag>)> = (0..16)
        .map(|e| {
            let t = (0..4)
                .map(|k| {
                    SubjectiveTag::new(
                        OPINIONS[(e * 5 + k * 3) % OPINIONS.len()],
                        ASPECTS[(e * 2 + k) % ASPECTS.len()],
                    )
                })
                .collect();
            (2 + e % 3, t)
        })
        .collect();
    let tags: Vec<SubjectiveTag> = (0..12)
        .map(|i| {
            SubjectiveTag::new(
                OPINIONS[(i * 7) % OPINIONS.len()],
                ASPECTS[i % ASPECTS.len()],
            )
        })
        .collect();
    let probes = [
        SubjectiveTag::new("scrumptious", "pasta"),
        SubjectiveTag::new("deliciouz", "food"),
        SubjectiveTag::new("great", "waiters"),
        SubjectiveTag::new("romantic", "ambiance"),
    ];

    let mut baseline: Option<Vec<Vec<(usize, f32)>>> = None;
    for width in [1usize, 2, 8] {
        saccs_rt::set_threads(width);
        let scan_idx = build(IndexConfig::default(), &entities, &tags, true);
        let cell_idx = build(IndexConfig::default(), &entities, &tags, false);
        let results: Vec<Vec<(usize, f32)>> =
            probes.iter().map(|p| cell_idx.probe_readonly(p)).collect();
        for (probe, cells) in probes.iter().zip(&results) {
            assert_ranked_bitwise_eq(
                cells,
                &scan_idx.probe_readonly(probe),
                &format!("width {width} probe {probe:?}"),
            );
        }
        match &baseline {
            None => baseline = Some(results),
            Some(base) => {
                for ((probe, got), expect) in probes.iter().zip(&results).zip(base) {
                    assert_ranked_bitwise_eq(
                        got,
                        expect,
                        &format!("width {width} vs width 1, probe {probe:?}"),
                    );
                }
            }
        }
    }
}

/// The scan reference scans whatever order it was built in: a custom
/// similarity set after `install_postings` drops the cell index that
/// call built. A cell-index probe records a `probe_ann` trace event; a
/// scan records none.
#[test]
fn custom_similarity_drops_cells_built_before_it() {
    let entities = vec![(3, vec![SubjectiveTag::new("delicious", "food")])];
    let tags = [SubjectiveTag::new("delicious", "food")];
    let probe = SubjectiveTag::new("tasty", "meal");
    let cell_idx = build(IndexConfig::default(), &entities, &tags, false);
    let mut installed = SubjectiveIndex::new(sim(), IndexConfig::default());
    installed.install_postings(tags.iter().map(|t| {
        let pairs = cell_idx.lookup(t).map_or(vec![], |p| p.iter().collect());
        (t.clone(), pairs)
    }));
    let scan_idx = installed.with_custom_similarity(sim());
    let probe_ann_events = |idx: &SubjectiveIndex| {
        let ctx = saccs_obs::TraceContext::new(1);
        let ranked = {
            let _scope = saccs_obs::trace::install(std::sync::Arc::clone(&ctx));
            idx.probe_readonly(&probe)
        };
        assert!(
            !ranked.is_empty(),
            "the probe must match through the fallback"
        );
        ctx.events()
            .iter()
            .filter(|e| matches!(e, saccs_obs::trace::TraceEvent::ProbeAnn { .. }))
            .count()
    };
    assert_eq!(probe_ann_events(&cell_idx), 1);
    assert_eq!(probe_ann_events(&scan_idx), 0);
    assert_ranked_bitwise_eq(
        &cell_idx.probe_readonly(&probe),
        &scan_idx.probe_readonly(&probe),
        "cells vs late-built scan reference",
    );
}
