//! Segments and the segment store: the persistence layer under the live
//! index.
//!
//! Reviews ingested at serving time land in an append-only mem-segment;
//! once it reaches the configured size it is sealed into an immutable
//! [`SealedSegment`]. With a store, each sealed segment persists as one
//! file, and the store's `MANIFEST` names the segments that are live.
//! Every file the store writes is one framed image, written and checked
//! by one pair of functions here (`frame`, `unframe`): a magic, a body in
//! the [`crate::codec`] varint codec, and an 8-byte FNV-1a checksum
//! trailer. A segment image holds its records. The manifest image holds
//! the committed `(first_seq, last_seq)` ranges, the index tags and the
//! pending `(tag, count)` history, and nothing recovery can derive from
//! the records: no posting lists, no next seq. Tags are stored byte for
//! byte, so any tag a caller can build comes back unchanged.
//!
//! Segment files are written first and become visible only when a
//! manifest (committed by atomic tmp-rename) references them, so a crash
//! mid-write leaves a torn file that recovery never reads. Nothing is
//! fsynced: a committed file survives a killed process, not a host
//! crash. Merging sealed segments sorts the union of their records by
//! the globally unique ingest sequence number, which makes the merge
//! operator associative and permutation-invariant — the properties the
//! persistence proptests pin down.
//!
//! Failpoints at the two disk seams (`index.persist` tears a segment
//! write in half, `index.merge` kills a compaction between the merged
//! file and the manifest commit) let the chaos suite inject exactly the
//! crashes the recovery invariants are supposed to survive.

use crate::codec::{self, CodecError};
use saccs_text::SubjectiveTag;
use std::path::PathBuf;

/// File magic of a sealed segment image.
const SEGMENT_MAGIC: &[u8; 5] = b"SSEG1";
/// File magic of a manifest image.
const MANIFEST_MAGIC: &[u8; 5] = b"SMAN1";
/// The committed manifest file name.
const MANIFEST: &str = "MANIFEST";

/// One file image: `magic`, the body `write` appends, and an 8-byte
/// little-endian FNV-1a checksum over both. The caller sizes the
/// buffer: a merged segment's image grown from empty raises the catalog
/// set-up's peak RSS by 1.3 MB.
fn frame(magic: &[u8; 5], capacity: usize, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(magic);
    write(&mut out);
    let checksum = saccs_obs::trace::hash_bytes(0, &out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Check that `bytes` is one image framed under `magic` (`what` names
/// it in errors) and decode its body with `read`, which must consume it
/// exactly. A torn (truncated or half-written) file fails the checksum
/// and is reported as corrupt rather than surfacing a partial body.
fn unframe<T>(
    bytes: &[u8],
    magic: &[u8; 5],
    what: &str,
    read: impl FnOnce(&[u8], &mut usize) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let corrupt = |why: &str| StoreError::Corrupt(format!("{what}: {why}"));
    if bytes.len() < magic.len() + 8 {
        return Err(corrupt("file too short"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    if !body.starts_with(magic) {
        return Err(corrupt("bad magic"));
    }
    let mut stored = [0u8; 8];
    stored.copy_from_slice(trailer);
    if saccs_obs::trace::hash_bytes(0, body) != u64::from_le_bytes(stored) {
        return Err(corrupt("checksum mismatch"));
    }
    let mut pos = magic.len();
    let value = read(body, &mut pos)?;
    if pos != body.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(value)
}

/// One ingested review: the globally unique ingest sequence number, the
/// entity it reviews, and the subjective tags extracted from its text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReviewRecord {
    /// Global ingest sequence number (unique, assigned under the writer
    /// lock, strictly increasing).
    pub seq: u64,
    /// The reviewed entity.
    pub entity_id: usize,
    /// Extracted subjective tags, in extraction order.
    pub tags: Vec<SubjectiveTag>,
}

/// The append-only mutable segment receiving `add_review` writes.
#[derive(Debug, Default)]
pub(crate) struct MemSegment {
    records: Vec<ReviewRecord>,
}

impl MemSegment {
    /// Append one record. Callers assign strictly increasing `seq`s
    /// (the live writer does so under its lock).
    pub(crate) fn push(&mut self, record: ReviewRecord) {
        debug_assert!(self
            .records
            .last()
            .map(|r| r.seq < record.seq)
            .unwrap_or(true));
        self.records.push(record);
    }

    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Records buffered so far, in ingest order.
    pub(crate) fn records(&self) -> &[ReviewRecord] {
        &self.records
    }

    /// Seal: move the buffered records into an immutable segment,
    /// leaving this mem-segment empty. Returns `None` when there is
    /// nothing to seal.
    pub(crate) fn seal(&mut self) -> Option<SealedSegment> {
        if self.records.is_empty() {
            return None;
        }
        Some(SealedSegment::new(std::mem::take(&mut self.records)))
    }
}

/// An immutable, checksummed run of records sorted by `seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedSegment {
    records: Vec<ReviewRecord>,
}

impl SealedSegment {
    /// Wrap a seq-sorted record run. Debug builds verify the ordering
    /// invariant; release builds trust the (tested) writers.
    pub fn new(records: Vec<ReviewRecord>) -> Self {
        debug_assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
        debug_assert!(!records.is_empty());
        SealedSegment { records }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in seq order.
    pub fn records(&self) -> &[ReviewRecord] {
        &self.records
    }

    /// Lowest ingest seq in the segment.
    pub fn first_seq(&self) -> u64 {
        self.records.first().map(|r| r.seq).unwrap_or(0)
    }

    /// Highest ingest seq in the segment.
    pub fn last_seq(&self) -> u64 {
        self.records.last().map(|r| r.seq).unwrap_or(0)
    }

    /// Encode to the on-disk image: the varint record count, then per
    /// record the seq delta, entity id, tag count and tags, framed.
    pub fn encode(&self) -> Vec<u8> {
        frame(SEGMENT_MAGIC, 64 + self.records.len() * 16, |out| {
            codec::put_varint(out, self.records.len() as u64);
            let mut prev_seq = 0u64;
            for r in &self.records {
                codec::put_varint(out, r.seq - prev_seq);
                prev_seq = r.seq;
                codec::put_varint(out, r.entity_id as u64);
                codec::put_varint(out, r.tags.len() as u64);
                for t in &r.tags {
                    codec::put_tag(out, t);
                }
            }
        })
    }

    /// Decode an on-disk image, validating the frame, the codec and the
    /// strictly increasing seqs of a non-empty record run. Any byte
    /// string decodes to a segment or a typed error.
    pub fn decode(bytes: &[u8]) -> Result<SealedSegment, StoreError> {
        unframe(bytes, SEGMENT_MAGIC, "segment", |body, pos| {
            let corrupt = |why: &str| StoreError::Corrupt(format!("segment: {why}"));
            let count = codec::get_varint(body, pos)?;
            let mut records = Vec::with_capacity(count.min(1 << 16) as usize);
            let mut prev_seq = 0u64;
            for i in 0..count {
                let delta = codec::get_varint(body, pos)?;
                if i > 0 && delta == 0 {
                    return Err(corrupt("seqs not increasing"));
                }
                let seq = prev_seq
                    .checked_add(delta)
                    .ok_or_else(|| corrupt("seq overflows u64"))?;
                prev_seq = seq;
                let entity_id = codec::get_varint(body, pos)? as usize;
                let tag_count = codec::get_varint(body, pos)?;
                let mut tags = Vec::with_capacity(tag_count.min(1 << 12) as usize);
                for _ in 0..tag_count {
                    tags.push(codec::get_tag(body, pos)?);
                }
                records.push(ReviewRecord {
                    seq,
                    entity_id,
                    tags,
                });
            }
            if records.is_empty() {
                return Err(corrupt("no records"));
            }
            Ok(SealedSegment { records })
        })
    }
}

/// Merge sealed segments into one: the union of their records sorted by
/// the globally unique ingest seq (duplicates collapse, making the
/// operator idempotent too). Because the result is a pure function of
/// the record *set*, merging is associative and permutation-invariant —
/// compaction order and timing cannot change what readers see. The
/// segments are borrowed, so each record is copied once, into the
/// output.
pub fn merge_segments<'a>(
    segments: impl IntoIterator<Item = &'a SealedSegment>,
) -> Option<SealedSegment> {
    let mut records: Vec<ReviewRecord> = segments
        .into_iter()
        .flat_map(|s| s.records().iter().cloned())
        .collect();
    if records.is_empty() {
        return None;
    }
    records.sort_by_key(|r| r.seq);
    records.dedup_by_key(|r| r.seq);
    Some(SealedSegment { records })
}

/// What a manifest commit makes visible: the committed segments, the
/// index tag set and the pending user-tag history. The next ingest seq
/// is not stored; recovery derives it from the last segment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// `(first_seq, last_seq)` per committed segment, ascending and
    /// disjoint.
    pub(crate) segments: Vec<(u64, u64)>,
    /// The index tag set at commit time, strictly ascending.
    pub(crate) tags: Vec<SubjectiveTag>,
    /// Pending unknown-tag requests `(tag, count)` at commit time.
    pub(crate) pending: Vec<(SubjectiveTag, usize)>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        frame(MANIFEST_MAGIC, 64, |out| {
            codec::put_varint(out, self.segments.len() as u64);
            for &(first, last) in &self.segments {
                codec::put_varint(out, first);
                codec::put_varint(out, last);
            }
            codec::put_varint(out, self.tags.len() as u64);
            for t in &self.tags {
                codec::put_tag(out, t);
            }
            codec::put_varint(out, self.pending.len() as u64);
            for (t, count) in &self.pending {
                codec::put_tag(out, t);
                codec::put_varint(out, *count as u64);
            }
        })
    }

    /// Decode a manifest image. Besides the frame and the codec, it
    /// rejects segment ranges that do not ascend or that overlap, and
    /// index tags that are not strictly ascending: the writer keeps one
    /// column per tag, in tag order.
    fn decode(bytes: &[u8]) -> Result<Manifest, StoreError> {
        unframe(bytes, MANIFEST_MAGIC, "manifest", |body, pos| {
            let corrupt = |why: &str| StoreError::Corrupt(format!("manifest: {why}"));
            let mut m = Manifest::default();
            for _ in 0..codec::get_varint(body, pos)? {
                let first = codec::get_varint(body, pos)?;
                let last = codec::get_varint(body, pos)?;
                let after = m.segments.last().is_none_or(|&(_, prev)| prev < first);
                if first > last || !after {
                    return Err(corrupt("segment ranges do not ascend"));
                }
                m.segments.push((first, last));
            }
            for _ in 0..codec::get_varint(body, pos)? {
                let tag = codec::get_tag(body, pos)?;
                if m.tags.last().is_some_and(|prev| *prev >= tag) {
                    return Err(corrupt("index tags not strictly ascending"));
                }
                m.tags.push(tag);
            }
            for _ in 0..codec::get_varint(body, pos)? {
                let tag = codec::get_tag(body, pos)?;
                let count = codec::get_varint(body, pos)? as usize;
                m.pending.push((tag, count));
            }
            Ok(m)
        })
    }
}

/// A persistence failure: disk, codec, integrity, or an injected fault.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Varint/string decode error inside a file image.
    Codec(CodecError),
    /// An integrity invariant failed (checksum, magic, ordering).
    Corrupt(String),
    /// An armed failpoint injected a failure at a persistence seam.
    Fault(saccs_fault::FaultError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "segment store io: {e}"),
            StoreError::Codec(e) => write!(f, "segment store codec: {e}"),
            StoreError::Corrupt(what) => write!(f, "segment store corrupt: {what}"),
            StoreError::Fault(e) => write!(f, "segment store fault: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<saccs_fault::FaultError> for StoreError {
    fn from(e: saccs_fault::FaultError) -> Self {
        StoreError::Fault(e)
    }
}

/// The on-disk segment directory: segment files and the `MANIFEST` that
/// makes a set of them visible.
#[derive(Debug)]
pub(crate) struct SegmentStore {
    dir: PathBuf,
}

impl SegmentStore {
    /// Open (creating if needed) the store directory.
    pub(crate) fn open(dir: impl Into<PathBuf>) -> Result<SegmentStore, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SegmentStore { dir })
    }

    fn segment_path(&self, first: u64, last: u64) -> PathBuf {
        self.dir.join(format!("seg-{first:08}-{last:08}.seg"))
    }

    /// Write one sealed segment to its final file name. The file is
    /// *not yet visible*: only a subsequent manifest commit references
    /// it. Under the `index.persist` failpoint the write is torn in
    /// half — exactly the on-disk state a crash mid-write leaves — and
    /// the injected error is returned so the caller re-persists later.
    pub(crate) fn persist_segment(&self, segment: &SealedSegment) -> Result<(), StoreError> {
        let bytes = segment.encode();
        let path = self.segment_path(segment.first_seq(), segment.last_seq());
        if let Err(fault) = saccs_fault::failpoint!("index.persist") {
            let _ = std::fs::write(&path, &bytes[..bytes.len() / 2]);
            return Err(StoreError::Fault(fault));
        }
        std::fs::write(&path, &bytes)?;
        Ok(())
    }

    /// Commit `manifest`: write its image to `MANIFEST.tmp`, atomically
    /// rename it over `MANIFEST`, then best-effort-remove the segment
    /// files the new manifest no longer references (merged-away inputs,
    /// torn half-writes, orphans of aborted merges).
    pub(crate) fn commit(&self, manifest: &Manifest) -> Result<(), StoreError> {
        let tmp = self.dir.join("MANIFEST.tmp");
        std::fs::write(&tmp, manifest.encode())?;
        std::fs::rename(&tmp, self.dir.join(MANIFEST))?;
        self.sweep_unreferenced(manifest);
        Ok(())
    }

    /// Remove `.seg` files the manifest does not reference. Failures
    /// are ignored: stray files are invisible to recovery anyway, so
    /// cleanup is an optimization, never a correctness step.
    fn sweep_unreferenced(&self, manifest: &Manifest) {
        let referenced: Vec<PathBuf> = manifest
            .segments
            .iter()
            .map(|&(first, last)| self.segment_path(first, last))
            .collect();
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "seg") && !referenced.contains(&path) {
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// Load the last committed manifest and its segments in seq order,
    /// or `None` when no manifest was ever committed. Only
    /// manifest-referenced files are read (torn writes and aborted-merge
    /// orphans are invisible), and every file is checksum-validated, so
    /// the result is always a consistent prefix of the ingest stream.
    pub(crate) fn load(&self) -> Result<Option<(Manifest, Vec<SealedSegment>)>, StoreError> {
        let bytes = match std::fs::read(self.dir.join(MANIFEST)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let manifest = Manifest::decode(&bytes)?;
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for &(first, last) in &manifest.segments {
            let segment = SealedSegment::decode(&std::fs::read(self.segment_path(first, last))?)?;
            if segment.first_seq() != first || segment.last_seq() != last {
                return Err(StoreError::Corrupt(
                    "segment seq range disagrees with manifest".into(),
                ));
            }
            segments.push(segment);
        }
        Ok(Some((manifest, segments)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tag(op: &str, asp: &str) -> SubjectiveTag {
        SubjectiveTag::new(op, asp)
    }

    /// A tag built through the public fields, kept exactly as given.
    fn raw_tag(opinion: &str, aspect: &str) -> SubjectiveTag {
        SubjectiveTag {
            opinion: opinion.into(),
            aspect: aspect.into(),
        }
    }

    fn record(seq: u64, entity: usize, tags: &[(&str, &str)]) -> ReviewRecord {
        ReviewRecord {
            seq,
            entity_id: entity,
            tags: tags.iter().map(|(o, a)| tag(o, a)).collect(),
        }
    }

    fn temp_store(label: &str) -> (PathBuf, SegmentStore) {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "saccs-segment-{label}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SegmentStore::open(&dir).unwrap();
        (dir, store)
    }

    fn sample_segment() -> SealedSegment {
        SealedSegment::new(vec![
            record(3, 0, &[("good", "food"), ("nice", "staff")]),
            record(5, 2, &[("romantic", "ambiance")]),
            record(9, 0, &[]),
        ])
    }

    #[test]
    fn segment_encode_decode_round_trips() {
        let seg = sample_segment();
        let back = SealedSegment::decode(&seg.encode()).unwrap();
        assert_eq!(back, seg);
        assert_eq!(back.first_seq(), 3);
        assert_eq!(back.last_seq(), 9);
    }

    #[test]
    fn corrupted_byte_fails_the_checksum() {
        let mut bytes = sample_segment().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            SealedSegment::decode(&bytes),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn torn_half_image_is_rejected() {
        let bytes = sample_segment().encode();
        assert!(matches!(
            SealedSegment::decode(&bytes[..bytes.len() / 2]),
            Err(StoreError::Corrupt(_))
        ));
    }

    /// A crafted image with a valid trailer whose second seq delta is
    /// `u64::MAX` overflows the seq: a typed error, not a panic.
    #[test]
    fn overflowing_seq_delta_is_corrupt() {
        let bytes = frame(SEGMENT_MAGIC, 64, |out| {
            codec::put_varint(out, 2);
            for delta in [1, u64::MAX] {
                codec::put_varint(out, delta);
                codec::put_varint(out, 0);
                codec::put_varint(out, 0);
            }
        });
        assert!(matches!(
            SealedSegment::decode(&bytes),
            Err(StoreError::Corrupt(why)) if why.contains("overflows")
        ));
    }

    #[test]
    fn merge_is_permutation_invariant_and_associative() {
        let a = SealedSegment::new(vec![record(1, 0, &[("good", "food")])]);
        let b = SealedSegment::new(vec![record(2, 1, &[("nice", "staff")])]);
        let c = SealedSegment::new(vec![
            record(4, 0, &[("quick", "service")]),
            record(7, 2, &[]),
        ]);
        let abc = merge_segments(&[a.clone(), b.clone(), c.clone()]).unwrap();
        let cba = merge_segments(&[c.clone(), b.clone(), a.clone()]).unwrap();
        assert_eq!(abc, cba);
        let ab_then_c =
            merge_segments(&[merge_segments(&[a.clone(), b.clone()]).unwrap(), c.clone()]).unwrap();
        let a_then_bc = merge_segments(&[a, merge_segments(&[b, c]).unwrap()]).unwrap();
        assert_eq!(ab_then_c, a_then_bc);
        assert_eq!(abc, ab_then_c);
        assert_eq!(abc.first_seq(), 1);
        assert_eq!(abc.last_seq(), 7);
    }

    /// Tags the old text manifest rewrote or could not parse come back
    /// byte for byte.
    #[test]
    fn store_round_trips_segments_and_manifest() {
        let (dir, store) = temp_store("roundtrip");
        let seg = sample_segment();
        store.persist_segment(&seg).unwrap();
        let manifest = Manifest {
            segments: vec![(seg.first_seq(), seg.last_seq())],
            tags: vec![raw_tag("Delicious", "food"), raw_tag("a|b", "food")],
            pending: vec![(raw_tag("quiet\n", "\tplace"), 2), (raw_tag("", ""), 1)],
        };
        store.commit(&manifest).unwrap();

        let (loaded, segments) = store.load().unwrap().unwrap();
        assert_eq!(loaded, manifest);
        assert_eq!(segments, vec![seg]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_rejects_unordered_ranges_and_tags() {
        let decode = |m: &Manifest| Manifest::decode(&m.encode());
        let ok = Manifest {
            segments: vec![(0, 3), (4, 4), (9, 12)],
            tags: vec![tag("good", "food"), tag("nice", "staff")],
            pending: Vec::new(),
        };
        assert_eq!(decode(&ok).unwrap(), ok);
        for segments in [vec![(0, 3), (3, 5)], vec![(4, 5), (0, 3)], vec![(5, 4)]] {
            let bad = Manifest {
                segments,
                ..ok.clone()
            };
            assert!(matches!(decode(&bad), Err(StoreError::Corrupt(_))));
        }
        for tags in [
            vec![tag("good", "food"), tag("good", "food")],
            vec![tag("nice", "staff"), tag("good", "food")],
        ] {
            let bad = Manifest { tags, ..ok.clone() };
            assert!(matches!(decode(&bad), Err(StoreError::Corrupt(_))));
        }
    }

    #[test]
    fn load_ignores_unmanifested_files_and_sweep_removes_them() {
        let (dir, store) = temp_store("stray");
        let seg = sample_segment();
        store.persist_segment(&seg).unwrap();
        // A stray torn file never referenced by any manifest.
        let stray = dir.join("seg-99999990-99999999.seg");
        std::fs::write(&stray, b"torn garbage").unwrap();
        let manifest = Manifest {
            segments: vec![(seg.first_seq(), seg.last_seq())],
            ..Default::default()
        };
        store.commit(&manifest).unwrap();
        // The stray file was swept and recovery only sees the committed set.
        assert!(!stray.exists());
        let (_, segments) = store.load().unwrap().unwrap();
        assert_eq!(segments.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_loads_as_none() {
        let (dir, store) = temp_store("empty");
        assert!(store.load().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_segment_seals_into_sorted_runs() {
        let mut mem = MemSegment::default();
        assert!(mem.seal().is_none());
        mem.push(record(0, 4, &[("good", "food")]));
        mem.push(record(1, 5, &[]));
        let sealed = mem.seal().unwrap();
        assert_eq!(mem.len(), 0);
        assert_eq!(sealed.len(), 2);
        assert_eq!(sealed.first_seq(), 0);
        assert_eq!(sealed.last_seq(), 1);
    }
}
