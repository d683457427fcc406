//! Property suite for the segmented-ingestion layer.
//!
//! Four families of invariants, fuzzed over arbitrary inputs:
//!
//! * **The store gives back what it was given** — a sealed segment's
//!   image decodes to the same records for seqs up to `u64::MAX` and
//!   arbitrary Unicode tag sides, and a persistent [`LiveIndex`] whose
//!   index tags and probed unknown tags hold `|`, tabs, newlines,
//!   capitals and empty sides reopens with the same tag set, the same
//!   pending counts and bitwise the same rankings.
//! * **Disk bytes never panic the store** — arbitrary bytes, and
//!   truncations and single-byte flips of valid images, each with and
//!   without a recomputed FNV-1a trailer, come back from
//!   [`SealedSegment::decode`] and from [`LiveIndex::open`] (as a
//!   damaged `MANIFEST` or segment file) as `Ok` or a typed
//!   [`StoreError`].
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
use saccs_index::index::IndexConfig;
use saccs_index::{
    merge_segments, LiveConfig, LiveIndex, LiveSnapshot, ReviewRecord, SealedSegment, StoreError,
};
use saccs_obs::trace::hash_bytes;
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Characters the old text manifest split on or rewrote, and a
/// non-ASCII letter and NUL.
const SPECIAL: [char; 8] = ['|', '\t', '\n', '\r', 'A', 'Z', 'é', '\0'];

/// One tag side from generated `(kind, value)` codes: a special
/// character, a lowercase ASCII letter, or any Unicode scalar value
/// (U+FFFD in place of a surrogate). No codes make an empty side.
fn side(codes: &[(u8, u32)]) -> String {
    codes
        .iter()
        .map(|&(kind, v)| match kind {
            0 => SPECIAL[v as usize % SPECIAL.len()],
            1 => char::from(b'a' + (v % 26) as u8),
            _ => char::from_u32(v).unwrap_or('\u{fffd}'),
        })
        .collect()
}

/// The codes strategy for one tag side.
fn side_codes() -> impl Strategy<Value = SideCodes> {
    prop::collection::vec((0u8..3, 0u32..0x11_0000), 0..5)
}

type SideCodes = Vec<(u8, u32)>;

/// A tag built through the public fields, kept exactly as generated.
fn raw_tag((opinion, aspect): &(SideCodes, SideCodes)) -> SubjectiveTag {
    SubjectiveTag {
        opinion: side(opinion),
        aspect: side(aspect),
    }
}

/// Records with strictly increasing seqs drawn from `seqs` (the last
/// one moved to `u64::MAX` when `top`).
fn records_from(
    seqs: &[u64],
    top: bool,
    bodies: &[(usize, Vec<(SideCodes, SideCodes)>)],
) -> Vec<ReviewRecord> {
    let mut seqs = seqs.to_vec();
    seqs.sort_unstable();
    seqs.dedup();
    if let (true, Some(last)) = (top, seqs.last_mut()) {
        *last = u64::MAX;
    }
    seqs.iter()
        .zip(bodies.iter().cycle())
        .map(|(&seq, (entity_id, tags))| ReviewRecord {
            seq,
            entity_id: *entity_id,
            tags: tags.iter().map(raw_tag).collect(),
        })
        .collect()
}

/// `body` framed with a freshly computed FNV-1a trailer, so that only
/// the decoder past the checksum can reject it.
fn reseal(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(&hash_bytes(0, body).to_le_bytes());
    out
}

/// Damaged variants of a valid image: `garbage` itself and behind the
/// image's magic, a truncation at `cut` and a flip of byte `at` by
/// `mask`, each as is and resealed. The flag marks variants the
/// checksum must reject on its own.
fn damaged(
    image: &[u8],
    garbage: &[u8],
    cut: usize,
    (at, mask): (usize, u8),
) -> Vec<(Vec<u8>, bool)> {
    let body = &image[..image.len() - 8];
    let behind_magic = [&image[..5], garbage].concat();
    let truncated = &image[..cut % image.len()];
    let mut flipped = image.to_vec();
    flipped[at % image.len()] ^= mask;
    let mut flipped_body = body.to_vec();
    flipped_body[at % body.len()] ^= mask;
    vec![
        (garbage.to_vec(), false),
        (reseal(garbage), false),
        (reseal(&behind_magic), false),
        (truncated.to_vec(), true),
        (reseal(&body[..cut % body.len()]), false),
        (flipped, true),
        (reseal(&flipped_body), false),
    ]
}

fn temp_dir(label: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "saccs-segment-suite-{label}-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path, seal_every: usize) -> Result<LiveIndex, StoreError> {
    LiveIndex::open(
        dir,
        sim(),
        IndexConfig::default(),
        LiveConfig {
            seal_every,
            max_segments: 2,
        },
    )
}

/// What a reopen must give back: the index tags, the pending history
/// and the rankings of `probes`, as bits.
type Recovered = (
    Vec<SubjectiveTag>,
    Vec<(SubjectiveTag, usize)>,
    Vec<Vec<(usize, u32)>>,
);

fn recovered(live: &LiveIndex, probes: &[SubjectiveTag]) -> Recovered {
    let snapshot = live.pin();
    let tags = snapshot.tags().cloned().collect();
    let pending = snapshot
        .history()
        .entries()
        .map(|(t, c)| (t.clone(), c))
        .collect();
    let rankings = probes
        .iter()
        .map(|p| bits(&snapshot.probe_readonly(p)))
        .collect();
    (tags, pending, rankings)
}

proptest! {
    #![proptest_config(prop::test_runner::Config::with_cases(64))]

    /// Sealed segment images round-trip arbitrary records: seqs up to
    /// `u64::MAX`, entity ids of any size, and tag sides of any Unicode.
    #[test]
    fn segment_images_round_trip_arbitrary_records(
        seqs in prop::collection::vec(0u64..u64::MAX, 1..12),
        top in prop::bool::ANY,
        bodies in prop::collection::vec(
            (0usize..usize::MAX, prop::collection::vec((side_codes(), side_codes()), 0..3)),
            1..6,
        ),
    ) {
        let segment = SealedSegment::new(records_from(&seqs, top, &bodies));
        let back = SealedSegment::decode(&segment.encode()).expect("a fresh image decodes");
        prop_assert_eq!(back, segment);
    }

    /// Arbitrary, truncated and flipped bytes decode to a segment or a
    /// typed error, never a panic; without a recomputed trailer the
    /// checksum alone rejects every truncation and flip.
    #[test]
    fn segment_decode_survives_damaged_and_arbitrary_bytes(
        seqs in prop::collection::vec(0u64..u64::MAX, 1..6),
        top in prop::bool::ANY,
        bodies in prop::collection::vec(
            (0usize..usize::MAX, prop::collection::vec((side_codes(), side_codes()), 0..3)),
            1..4,
        ),
        garbage in prop::collection::vec(0u8..=255, 0..48),
        cut in 0usize..4096,
        flip in (0usize..4096, 1u8..=255),
    ) {
        let image = SealedSegment::new(records_from(&seqs, top, &bodies)).encode();
        for (bytes, checksum_rejects) in damaged(&image, &garbage, cut, flip) {
            let decoded = SealedSegment::decode(&bytes);
            if checksum_rejects {
                prop_assert!(matches!(decoded, Err(StoreError::Corrupt(_))), "{:?}", bytes);
            }
        }
    }

    /// A store whose `MANIFEST` or first segment file holds damaged or
    /// arbitrary bytes opens to `Ok` or a typed error, never a panic.
    #[test]
    fn open_survives_a_damaged_manifest_or_segment(
        manifest in prop::bool::ANY,
        garbage in prop::collection::vec(0u8..=255, 0..48),
        cut in 0usize..4096,
        flip in (0usize..4096, 1u8..=255),
    ) {
        let dir = temp_dir("damaged");
        {
            let live = open(&dir, 2).expect("a fresh store opens");
            live.add_tags(&[mk_tag(&(0, 0)), mk_tag(&(4, 4))]);
            for (entity_id, review) in [(0, (0, 1)), (1, (4, 4)), (0, (6, 5)), (2, (1, 0)), (3, (2, 2))] {
                live.add_review(entity_id, &[mk_tag(&review)]);
            }
            let _ = live.pin().probe(&mk_tag(&(5, 3)));
            live.checkpoint().expect("a clean checkpoint");
        }
        let target = if manifest {
            dir.join("MANIFEST")
        } else {
            let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
                .expect("store dir")
                .map(|e| e.expect("dir entry").path())
                .filter(|p| p.extension().is_some_and(|e| e == "seg"))
                .collect();
            segments.sort();
            segments.remove(0)
        };
        let image = std::fs::read(&target).expect("committed file");
        for (bytes, checksum_rejects) in damaged(&image, &garbage, cut, flip) {
            std::fs::write(&target, &bytes).expect("overwrite");
            let opened = open(&dir, 2);
            if checksum_rejects {
                prop_assert!(opened.is_err(), "{:?} opened", bytes);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any tag a caller can build survives a reopen: index tags and
    /// probed unknown tags with `|`, tabs, newlines, capitals and empty
    /// sides come back byte for byte, with their pending counts, and a
    /// fixed probe set ranks bit for bit as before the drop.
    #[test]
    fn any_tag_survives_a_reopen(
        index_tags in prop::collection::vec((side_codes(), side_codes()), 1..5),
        probed in prop::collection::vec(((side_codes(), side_codes()), 1usize..4), 0..4),
        stream in prop::collection::vec(
            (0usize..5, prop::collection::vec((0usize..8, 0usize..6), 0..4)),
            1..12,
        ),
        odd_reviews in prop::collection::vec(
            (0usize..5, prop::collection::vec((side_codes(), side_codes()), 1..3)),
            0..3,
        ),
        seal_every in 1usize..5,
    ) {
        let dir = temp_dir("reopen");
        let index_tags: Vec<SubjectiveTag> = index_tags.iter().map(raw_tag).collect();
        let probes: Vec<SubjectiveTag> = (0..8)
            .map(|i| mk_tag(&(i, i)))
            .chain(index_tags.iter().cloned())
            .collect();
        let before = {
            let live = open(&dir, seal_every).expect("a fresh store opens");
            live.add_tags(&index_tags);
            for (entity_id, review) in &stream {
                live.add_review(*entity_id, &review.iter().map(mk_tag).collect::<Vec<_>>());
            }
            for (entity_id, review) in &odd_reviews {
                live.add_review(*entity_id, &review.iter().map(raw_tag).collect::<Vec<_>>());
            }
            let snapshot = live.pin();
            for (codes, times) in &probed {
                for _ in 0..*times {
                    let _ = snapshot.probe(&raw_tag(codes));
                }
            }
            live.checkpoint().expect("a clean checkpoint");
            recovered(&live, &probes)
        };
        let reopened = open(&dir, seal_every).expect("the store reopens");
        prop_assert_eq!(recovered(&reopened, &probes), before);
        let _ = std::fs::remove_dir_all(&dir);
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
