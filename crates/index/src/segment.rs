//! Segments: the persistence layer under the live index.
//!
//! Reviews ingested at serving time land in an append-only
//! [`MemSegment`]; once it reaches the configured size it is sealed
//! into an immutable [`SealedSegment`] and persisted as one
//! checksummed file of zigzag/varint-encoded records. A [`SegmentStore`]
//! owns the on-disk layout: segment files are written first and become
//! visible only when the `MANIFEST` (committed by atomic tmp-rename)
//! references them, so a crash mid-write leaves a torn file that
//! recovery never reads. Merging sealed segments sorts the union of
//! their records by the globally unique ingest sequence number, which
//! makes the merge operator associative and permutation-invariant — the
//! properties the persistence proptests pin down.
//!
//! Failpoints at the two disk seams (`index.persist` tears a segment
//! write in half, `index.merge` kills a compaction between the merged
//! file and the manifest commit) let the chaos suite inject exactly the
//! crashes the recovery invariants are supposed to survive.

use crate::codec::{self, CodecError};
use crate::index::PostingColumns;
use saccs_text::SubjectiveTag;
use std::path::{Path, PathBuf};

/// File magic for a sealed segment image.
const SEGMENT_MAGIC: &[u8; 5] = b"SSEG1";
/// File magic for a checkpointed posting-list image.
const POSTINGS_MAGIC: &[u8; 5] = b"SPST1";
/// The committed manifest file name.
const MANIFEST: &str = "MANIFEST";
/// Manifest header line (format version gate).
const MANIFEST_HEADER: &str = "saccs-segments v1";

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
pub struct MemSegment {
    records: Vec<ReviewRecord>,
}

impl MemSegment {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one record. Callers assign strictly increasing `seq`s
    /// (the live writer does so under its lock).
    pub fn push(&mut self, record: ReviewRecord) {
        debug_assert!(self
            .records
            .last()
            .map(|r| r.seq < record.seq)
            .unwrap_or(true));
        self.records.push(record);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records buffered so far, in ingest order.
    pub fn records(&self) -> &[ReviewRecord] {
        &self.records
    }

    /// Seal: move the buffered records into an immutable segment,
    /// leaving this mem-segment empty. Returns `None` when there is
    /// nothing to seal.
    pub fn seal(&mut self) -> Option<SealedSegment> {
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

    /// Encode to the on-disk image: magic, varint record count, per
    /// record the seq delta / entity id / tag strings as varints, and an
    /// 8-byte little-endian FNV-1a checksum trailer over everything
    /// before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.records.len() * 16);
        out.extend_from_slice(SEGMENT_MAGIC);
        codec::put_varint(&mut out, self.records.len() as u64);
        let mut prev_seq = 0u64;
        for r in &self.records {
            codec::put_varint(&mut out, r.seq - prev_seq);
            prev_seq = r.seq;
            codec::put_varint(&mut out, r.entity_id as u64);
            codec::put_varint(&mut out, r.tags.len() as u64);
            for t in &r.tags {
                codec::put_str(&mut out, &t.opinion);
                codec::put_str(&mut out, &t.aspect);
            }
        }
        let checksum = saccs_obs::trace::hash_bytes(0, &out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decode an on-disk image, validating magic, checksum and the
    /// strictly-increasing seq invariant. A torn (truncated or
    /// half-written) file fails the checksum and is reported as corrupt
    /// rather than surfacing partial records.
    pub fn decode(bytes: &[u8]) -> Result<SealedSegment, StoreError> {
        if bytes.len() < SEGMENT_MAGIC.len() + 8 {
            return Err(StoreError::Corrupt("segment file too short".into()));
        }
        if &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            return Err(StoreError::Corrupt("bad segment magic".into()));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let mut stored = [0u8; 8];
        stored.copy_from_slice(trailer);
        if saccs_obs::trace::hash_bytes(0, body) != u64::from_le_bytes(stored) {
            return Err(StoreError::Corrupt("segment checksum mismatch".into()));
        }
        let mut pos = SEGMENT_MAGIC.len();
        let count = codec::get_varint(body, &mut pos)? as usize;
        let mut records = Vec::with_capacity(count.min(1 << 16));
        let mut prev_seq = 0u64;
        for i in 0..count {
            let delta = codec::get_varint(body, &mut pos)?;
            if i > 0 && delta == 0 {
                return Err(StoreError::Corrupt("segment seqs not increasing".into()));
            }
            let seq = prev_seq + delta;
            prev_seq = seq;
            let entity_id = codec::get_varint(body, &mut pos)? as usize;
            let tag_count = codec::get_varint(body, &mut pos)? as usize;
            let mut tags = Vec::with_capacity(tag_count.min(1 << 12));
            for _ in 0..tag_count {
                let opinion = codec::get_str(body, &mut pos)?;
                let aspect = codec::get_str(body, &mut pos)?;
                tags.push(SubjectiveTag { opinion, aspect });
            }
            records.push(ReviewRecord {
                seq,
                entity_id,
                tags,
            });
        }
        if pos != body.len() {
            return Err(StoreError::Corrupt("trailing bytes after records".into()));
        }
        if records.is_empty() {
            return Err(StoreError::Corrupt("empty segment".into()));
        }
        Ok(SealedSegment { records })
    }
}

/// Merge sealed segments into one: the union of their records sorted by
/// the globally unique ingest seq (duplicates collapse, making the
/// operator idempotent too). Because the result is a pure function of
/// the record *set*, merging is associative and permutation-invariant —
/// compaction order and timing cannot change what readers see.
pub fn merge_segments(segments: &[SealedSegment]) -> Option<SealedSegment> {
    let mut records: Vec<ReviewRecord> = segments
        .iter()
        .flat_map(|s| s.records().iter().cloned())
        .collect();
    if records.is_empty() {
        return None;
    }
    records.sort_by_key(|r| r.seq);
    records.dedup_by_key(|r| r.seq);
    Some(SealedSegment { records })
}

/// Everything the committed manifest pins: the durable ingest frontier,
/// the segment set, the optional checkpointed posting image, the index
/// tag set, and the pending user-tag history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Next ingest seq to assign after recovery.
    pub next_seq: u64,
    /// `(first_seq, last_seq)` per committed segment, in seq order.
    pub segments: Vec<(u64, u64)>,
    /// File name of the checkpointed posting lists, when one was
    /// committed alongside the segment set.
    pub postings_file: Option<String>,
    /// The index tag set at commit time.
    pub tags: Vec<SubjectiveTag>,
    /// Pending unknown-tag requests `(tag, count)` at commit time.
    pub pending: Vec<(SubjectiveTag, usize)>,
}

impl Manifest {
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(MANIFEST_HEADER);
        out.push('\n');
        out.push_str(&format!("next_seq\t{}\n", self.next_seq));
        for (first, last) in &self.segments {
            out.push_str(&format!("segment\t{first}\t{last}\n"));
        }
        if let Some(name) = &self.postings_file {
            out.push_str(&format!("postings\t{name}\n"));
        }
        for t in &self.tags {
            out.push_str(&format!("tag\t{}|{}\n", t.opinion, t.aspect));
        }
        for (t, count) in &self.pending {
            out.push_str(&format!("pending\t{}|{}\t{count}\n", t.opinion, t.aspect));
        }
        out
    }

    fn parse(text: &str) -> Result<Manifest, StoreError> {
        let corrupt = |what: &str| StoreError::Corrupt(format!("manifest: {what}"));
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(corrupt("bad header"));
        }
        let mut m = Manifest::default();
        let parse_tag = |key: &str| -> Result<SubjectiveTag, StoreError> {
            let (opinion, aspect) = key
                .split_once('|')
                .ok_or_else(|| corrupt("tag key missing |"))?;
            Ok(SubjectiveTag::new(opinion, aspect))
        };
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (kind, rest) = line
                .split_once('\t')
                .ok_or_else(|| corrupt("missing tab"))?;
            match kind {
                "next_seq" => {
                    m.next_seq = rest.parse().map_err(|_| corrupt("bad next_seq"))?;
                }
                "segment" => {
                    let (first, last) = rest
                        .split_once('\t')
                        .ok_or_else(|| corrupt("segment needs first\\tlast"))?;
                    m.segments.push((
                        first.parse().map_err(|_| corrupt("bad first seq"))?,
                        last.parse().map_err(|_| corrupt("bad last seq"))?,
                    ));
                }
                "postings" => m.postings_file = Some(rest.to_string()),
                "tag" => m.tags.push(parse_tag(rest)?),
                "pending" => {
                    let (key, count) = rest
                        .split_once('\t')
                        .ok_or_else(|| corrupt("pending needs tag\\tcount"))?;
                    m.pending.push((
                        parse_tag(key)?,
                        count.parse().map_err(|_| corrupt("bad pending count"))?,
                    ));
                }
                _ => return Err(corrupt("unknown line kind")),
            }
        }
        Ok(m)
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

/// A committed store image loaded back from disk.
#[derive(Debug)]
pub struct LoadedStore {
    /// The committed manifest.
    pub manifest: Manifest,
    /// The committed segments, in manifest order (seq order).
    pub segments: Vec<SealedSegment>,
    /// The checkpointed posting lists, when the manifest references one.
    pub postings: Option<PostingColumns>,
}

/// The on-disk segment directory: segment files, optional posting
/// checkpoints, and the `MANIFEST` that makes a set of them visible.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
}

impl SegmentStore {
    /// Open (creating if needed) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SegmentStore, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SegmentStore { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segment_path(&self, first: u64, last: u64) -> PathBuf {
        self.dir.join(format!("seg-{first:08}-{last:08}.seg"))
    }

    /// Write one sealed segment to its final file name. The file is
    /// *not yet visible*: only a subsequent manifest commit references
    /// it. Under the `index.persist` failpoint the write is torn in
    /// half — exactly the on-disk state a crash mid-write leaves — and
    /// the injected error is returned so the caller re-persists later.
    pub fn persist_segment(&self, segment: &SealedSegment) -> Result<(), StoreError> {
        let bytes = segment.encode();
        let path = self.segment_path(segment.first_seq(), segment.last_seq());
        if let Err(fault) = saccs_fault::failpoint!("index.persist") {
            let _ = std::fs::write(&path, &bytes[..bytes.len() / 2]);
            return Err(StoreError::Fault(fault));
        }
        std::fs::write(&path, &bytes)?;
        Ok(())
    }

    /// Write the posting lists as a checkpoint image named by content
    /// hash (`postings-<hash>.bin`), returning the file name for the
    /// manifest. Content addressing makes the write idempotent and
    /// guarantees an already-committed manifest never sees its
    /// referenced image change underneath it.
    pub fn write_postings(&self, entries: &PostingColumns) -> Result<String, StoreError> {
        let mut out = Vec::new();
        out.extend_from_slice(POSTINGS_MAGIC);
        codec::put_varint(&mut out, entries.len() as u64);
        for (tag, postings) in entries {
            codec::put_str(&mut out, &tag.opinion);
            codec::put_str(&mut out, &tag.aspect);
            codec::put_postings(&mut out, postings);
        }
        let checksum = saccs_obs::trace::hash_bytes(0, &out);
        out.extend_from_slice(&checksum.to_le_bytes());
        let name = format!("postings-{checksum:016x}.bin");
        std::fs::write(self.dir.join(&name), &out)?;
        Ok(name)
    }

    fn read_postings(&self, name: &str) -> Result<PostingColumns, StoreError> {
        let bytes = std::fs::read(self.dir.join(name))?;
        if bytes.len() < POSTINGS_MAGIC.len() + 8 {
            return Err(StoreError::Corrupt("postings file too short".into()));
        }
        if &bytes[..POSTINGS_MAGIC.len()] != POSTINGS_MAGIC {
            return Err(StoreError::Corrupt("bad postings magic".into()));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let mut stored = [0u8; 8];
        stored.copy_from_slice(trailer);
        if saccs_obs::trace::hash_bytes(0, body) != u64::from_le_bytes(stored) {
            return Err(StoreError::Corrupt("postings checksum mismatch".into()));
        }
        let mut pos = POSTINGS_MAGIC.len();
        let count = codec::get_varint(body, &mut pos)? as usize;
        let mut entries = PostingColumns::new();
        for _ in 0..count {
            let opinion = codec::get_str(body, &mut pos)?;
            let aspect = codec::get_str(body, &mut pos)?;
            let postings = codec::get_postings(body, &mut pos)?;
            entries.insert(SubjectiveTag { opinion, aspect }, postings.into());
        }
        if pos != body.len() {
            return Err(StoreError::Corrupt("trailing bytes after postings".into()));
        }
        Ok(entries)
    }

    /// Commit `manifest`: render to `MANIFEST.tmp`, atomically rename
    /// over `MANIFEST`, then best-effort-remove segment/posting files
    /// the new manifest no longer references (merged-away inputs, torn
    /// half-writes, orphans of aborted merges).
    pub fn commit(&self, manifest: &Manifest) -> Result<(), StoreError> {
        let tmp = self.dir.join("MANIFEST.tmp");
        std::fs::write(&tmp, manifest.render().as_bytes())?;
        std::fs::rename(&tmp, self.dir.join(MANIFEST))?;
        self.sweep_unreferenced(manifest);
        Ok(())
    }

    /// Remove `.seg`/`.bin` files the manifest does not reference.
    /// Failures are ignored: stray files are invisible to recovery
    /// anyway, so cleanup is an optimization, never a correctness step.
    fn sweep_unreferenced(&self, manifest: &Manifest) {
        let mut referenced: Vec<PathBuf> = manifest
            .segments
            .iter()
            .map(|&(first, last)| self.segment_path(first, last))
            .collect();
        if let Some(name) = &manifest.postings_file {
            referenced.push(self.dir.join(name));
        }
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in dir.flatten() {
            let path = entry.path();
            let ext = path.extension().and_then(|e| e.to_str());
            if !matches!(ext, Some("seg") | Some("bin")) {
                continue;
            }
            if !referenced.contains(&path) {
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// Load the last committed image, or `None` when no manifest was
    /// ever committed. Only manifest-referenced files are read (torn
    /// writes and aborted-merge orphans are invisible), and every file
    /// is checksum-validated, so the result is always a consistent
    /// prefix of the ingest stream.
    pub fn load(&self) -> Result<Option<LoadedStore>, StoreError> {
        let manifest_path = self.dir.join(MANIFEST);
        let text = match std::fs::read_to_string(&manifest_path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let manifest = Manifest::parse(&text)?;
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for &(first, last) in &manifest.segments {
            let bytes = std::fs::read(self.segment_path(first, last))?;
            let segment = SealedSegment::decode(&bytes)?;
            if segment.first_seq() != first || segment.last_seq() != last {
                return Err(StoreError::Corrupt(
                    "segment seq range disagrees with manifest".into(),
                ));
            }
            segments.push(segment);
        }
        let postings = match &manifest.postings_file {
            Some(name) => Some(self.read_postings(name)?),
            None => None,
        };
        Ok(Some(LoadedStore {
            manifest,
            segments,
            postings,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexEntry;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tag(op: &str, asp: &str) -> SubjectiveTag {
        SubjectiveTag::new(op, asp)
    }

    fn record(seq: u64, entity: usize, tags: &[(&str, &str)]) -> ReviewRecord {
        ReviewRecord {
            seq,
            entity_id: entity,
            tags: tags.iter().map(|(o, a)| tag(o, a)).collect(),
        }
    }

    fn temp_store(label: &str) -> SegmentStore {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "saccs-segment-{label}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        SegmentStore::open(dir).unwrap()
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

    #[test]
    fn store_round_trips_segments_manifest_and_postings() {
        let store = temp_store("roundtrip");
        let seg = sample_segment();
        store.persist_segment(&seg).unwrap();
        let mut entries = PostingColumns::new();
        entries.insert(
            tag("good", "food"),
            vec![IndexEntry {
                entity_id: 0,
                degree_of_truth: 1.5,
                normalized: 1.0,
            }]
            .into(),
        );
        let postings_file = store.write_postings(&entries).unwrap();
        let manifest = Manifest {
            next_seq: 10,
            segments: vec![(seg.first_seq(), seg.last_seq())],
            postings_file: Some(postings_file),
            tags: vec![tag("good", "food")],
            pending: vec![(tag("quiet", "place"), 2)],
        };
        store.commit(&manifest).unwrap();

        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.manifest, manifest);
        assert_eq!(loaded.segments, vec![seg]);
        assert_eq!(loaded.postings.unwrap(), entries);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_ignores_unmanifested_files_and_sweep_removes_them() {
        let store = temp_store("stray");
        let seg = sample_segment();
        store.persist_segment(&seg).unwrap();
        // A stray torn file never referenced by any manifest.
        let stray = store.dir().join("seg-99999990-99999999.seg");
        std::fs::write(&stray, b"torn garbage").unwrap();
        let manifest = Manifest {
            next_seq: 10,
            segments: vec![(seg.first_seq(), seg.last_seq())],
            ..Default::default()
        };
        store.commit(&manifest).unwrap();
        // The stray file was swept and recovery only sees the committed set.
        assert!(!stray.exists());
        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.segments.len(), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn empty_dir_loads_as_none() {
        let store = temp_store("empty");
        assert!(store.load().unwrap().is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn mem_segment_seals_into_sorted_runs() {
        let mut mem = MemSegment::new();
        assert!(mem.seal().is_none());
        mem.push(record(0, 4, &[("good", "food")]));
        mem.push(record(1, 5, &[]));
        let sealed = mem.seal().unwrap();
        assert!(mem.is_empty());
        assert_eq!(sealed.len(), 2);
        assert_eq!(sealed.first_seq(), 0);
        assert_eq!(sealed.last_seq(), 1);
    }
}
