//! Property suite for the segmented-ingestion layer.
//!
//! Three families of invariants, fuzzed over arbitrary inputs:
//!
//! * **Codec round trips** — zigzag/varint and the posting-list codec
//!   are exact inverses, bit-for-bit, for every value including
//!   arbitrary f32 bit patterns (NaNs, signed zeros, subnormals).
//! * **Merge-operator algebra** — merging sealed segments is
//!   associative, permutation-invariant and idempotent: however the
//!   compactor groups or orders segments, the merged record stream is
//!   the seq-sorted set, nothing more and nothing less.
//! * **Incremental = from-scratch** — a [`LiveIndex`] fed an arbitrary
//!   review stream answers every probe with exactly the bits a fresh
//!   replay of the same log answers (reviews first, then the tags, so
//!   its columns are folded whole rather than spliced), at every prefix
//!   of the stream. The replay scans; the live side answers fallback
//!   probes through its cell index.

use proptest::prelude::*;
use saccs_index::codec::{
    get_postings, get_varint, put_postings, put_varint, zigzag_decode, zigzag_encode,
};
use saccs_index::index::{IndexConfig, IndexEntry};
use saccs_index::{
    merge_segments, LiveConfig, LiveIndex, LiveSnapshot, ReviewRecord, SealedSegment,
};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
use std::sync::Arc;

const OPINIONS: &[&str] = &[
    "delicious",
    "tasty",
    "great",
    "friendly",
    "cozy",
    "cheap",
    "deliciouz",
    "zorgle",
];

const ASPECTS: &[&str] = &["food", "meal", "staff", "service", "ambiance", "zzplace"];

fn sim() -> ConceptualSimilarity {
    ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants))
}

fn mk_tag(&(o, a): &(usize, usize)) -> SubjectiveTag {
    SubjectiveTag::new(OPINIONS[o % OPINIONS.len()], ASPECTS[a % ASPECTS.len()])
}

fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(e, s)| (e, s.to_bits())).collect()
}

/// The from-scratch comparator: replay `log` into a fresh memory-only
/// index, reviews first, then the tag set, so each column folds the
/// whole log at once. Built with the similarity as a custom one, its
/// fallback probes scan.
fn rebuild(log: &[ReviewRecord], tags: &[SubjectiveTag]) -> Arc<LiveSnapshot> {
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
    replay.pin()
}

/// Chunk `records` (already seq-sorted) into non-empty sealed segments
/// at arbitrary cut points derived from `cuts`.
fn chunk_into_segments(records: &[ReviewRecord], cuts: &[usize]) -> Vec<SealedSegment> {
    let mut segments = Vec::new();
    let mut start = 0usize;
    for &c in cuts {
        let cut = start + 1 + c % records.len().max(1);
        if cut < records.len() {
            segments.push(SealedSegment::new(records[start..cut].to_vec()));
            start = cut;
        }
    }
    if start < records.len() {
        segments.push(SealedSegment::new(records[start..].to_vec()));
    }
    segments
}

proptest! {
    #![proptest_config(prop::test_runner::Config::with_cases(64))]

    #[test]
    fn zigzag_and_varint_round_trip_arbitrary_values(
        signed in prop::collection::vec(i64::MIN..i64::MAX, 0..32),
        unsigned in prop::collection::vec(0u64..u64::MAX, 0..32),
    ) {
        for &v in &signed {
            prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        let mut out = Vec::new();
        for &v in &unsigned {
            put_varint(&mut out, v);
        }
        let mut pos = 0;
        for &v in &unsigned {
            prop_assert_eq!(get_varint(&out, &mut pos).expect("varint decodes"), v);
        }
        prop_assert_eq!(pos, out.len());
    }

    /// Posting lists survive the codec bit-for-bit for arbitrary entity
    /// ids and arbitrary f32 *bit patterns* — NaN payloads, signed
    /// zeros and subnormals included.
    #[test]
    fn postings_codec_round_trips_bitwise_on_arbitrary_postings(
        raw in prop::collection::vec(
            (0usize..1_000_000, 0u32..=u32::MAX, 0u32..=u32::MAX),
            0..40,
        ),
    ) {
        let postings: Vec<IndexEntry> = raw
            .iter()
            .map(|&(entity_id, d, n)| IndexEntry {
                entity_id,
                degree_of_truth: f32::from_bits(d),
                normalized: f32::from_bits(n),
            })
            .collect();
        let mut out = Vec::new();
        put_postings(&mut out, &postings);
        let mut pos = 0;
        let back = get_postings(&out, &mut pos).expect("postings decode");
        prop_assert_eq!(pos, out.len());
        prop_assert_eq!(back.len(), postings.len());
        for (a, b) in postings.iter().zip(&back) {
            prop_assert_eq!(a.entity_id, b.entity_id);
            prop_assert_eq!(a.degree_of_truth.to_bits(), b.degree_of_truth.to_bits());
            prop_assert_eq!(a.normalized.to_bits(), b.normalized.to_bits());
        }
    }

    /// However the compactor groups segments (any cut points) and in
    /// whatever order it feeds them (any rotation + optional reversal),
    /// the merged stream is the same seq-sorted record set. Merging the
    /// merge with the original segments changes nothing (idempotence
    /// under the seq dedup).
    #[test]
    fn merge_is_permutation_invariant_associative_and_idempotent(
        raw in prop::collection::vec((0usize..6, prop::collection::vec((0usize..8, 0usize..6), 0..3)), 1..24),
        cuts_a in prop::collection::vec(0usize..8, 0..6),
        cuts_b in prop::collection::vec(0usize..8, 0..6),
        rotate in 0usize..8,
        reverse in prop::bool::ANY,
    ) {
        let records: Vec<ReviewRecord> = raw
            .iter()
            .enumerate()
            .map(|(seq, (entity_id, tags))| ReviewRecord {
                seq: seq as u64,
                entity_id: *entity_id,
                tags: tags.iter().map(mk_tag).collect(),
            })
            .collect();
        let canonical = SealedSegment::new(records.clone());

        // Two arbitrary groupings of the same records.
        let seg_a = chunk_into_segments(&records, &cuts_a);
        let mut seg_b = chunk_into_segments(&records, &cuts_b);
        // Arbitrary presentation order of the second grouping.
        if !seg_b.is_empty() {
            let r = rotate % seg_b.len();
            seg_b.rotate_left(r);
        }
        if reverse {
            seg_b.reverse();
        }
        let merged_a = merge_segments(&seg_a).expect("non-empty input");
        let merged_b = merge_segments(&seg_b).expect("non-empty input");
        prop_assert_eq!(merged_a.records(), canonical.records());
        prop_assert_eq!(merged_b.records(), canonical.records());

        // Associativity: merging a prefix first, then the rest, equals
        // the flat merge.
        if seg_a.len() >= 2 {
            let first = merge_segments(&seg_a[..2]).expect("two segments");
            let mut staged = vec![first];
            staged.extend(seg_a[2..].iter().cloned());
            let nested = merge_segments(&staged).expect("non-empty input");
            prop_assert_eq!(nested.records(), canonical.records());
        }

        // Idempotence: re-merging the merge with every original segment
        // dedups on seq and changes nothing.
        let mut with_dupes = vec![merged_a];
        with_dupes.extend(seg_a.iter().cloned());
        let redone = merge_segments(&with_dupes).expect("non-empty input");
        prop_assert_eq!(redone.records(), canonical.records());
    }

    /// The tentpole equivalence, fuzzed: a live index fed an arbitrary
    /// review stream — under an arbitrary seal cadence, with and
    /// without compaction — answers every probe bitwise identically to
    /// a from-scratch build at *every prefix* of the stream.
    #[test]
    fn incremental_ingest_equals_from_scratch_rebuild_bitwise(
        stream in prop::collection::vec(
            (0usize..5, prop::collection::vec((0usize..8, 0usize..6), 0..4)),
            1..16,
        ),
        raw_tags in prop::collection::vec((0usize..8, 0usize..6), 1..6),
        raw_probes in prop::collection::vec((0usize..8, 0usize..6), 1..4),
        seal_every in 0usize..5,
    ) {
        let tags: Vec<SubjectiveTag> = raw_tags.iter().map(mk_tag).collect();
        let probes: Vec<SubjectiveTag> = raw_probes.iter().map(mk_tag).collect();
        let live = LiveIndex::new(
            sim(),
            IndexConfig::default(),
            LiveConfig {
                seal_every,
                max_segments: 3,
            },
        );
        live.add_tags(&tags);
        let mut log: Vec<ReviewRecord> = Vec::new();
        for (i, (entity_id, review)) in stream.iter().enumerate() {
            let review_tags: Vec<SubjectiveTag> = review.iter().map(mk_tag).collect();
            let receipt = live.add_review(*entity_id, &review_tags);
            log.push(ReviewRecord { seq: receipt.seq, entity_id: *entity_id, tags: review_tags });
            let replay = rebuild(&log, &tags);
            let snapshot = live.pin();
            for probe in &probes {
                prop_assert_eq!(
                    bits(&live.probe_pinned(&snapshot, probe)),
                    bits(&replay.probe_readonly(probe)),
                    "prefix {} probe {:?} (seal_every {})",
                    i, probe, seal_every
                );
            }
        }
        // The live record log is exactly the stream, in seq order.
        prop_assert_eq!(live.review_log(), log);
    }
}
