//! Live review ingestion over the segmented index.
//!
//! [`LiveIndex`] is the serving-time counterpart of the frozen-corpus
//! [`SubjectiveIndex`]: reviews arrive through [`LiveIndex::add_review`]
//! while probes keep answering, with three guarantees the ingest suite
//! pins down bit for bit:
//!
//! * **Snapshot isolation.** Readers call [`LiveIndex::pin`] to get an
//!   `Arc` of the currently published [`LiveSnapshot`] — a fully built
//!   [`SubjectiveIndex`] (ANN sidecar included) over one consistent
//!   segment set. Writers publish new snapshots by swapping the `Arc`;
//!   a pinned reader keeps probing its frozen view for as long as it
//!   holds the pin, never observing a half-applied review.
//! * **Incremental = from-scratch.** Degrees of truth are maintained as
//!   per-`(tag, entity)` partial folds `(Σ sim, n)` extended by each new
//!   review's tags. Because f32 addition is folded left-to-right in
//!   review order — exactly the order a from-scratch
//!   [`SubjectiveIndex::index_tags`] build walks the concatenated
//!   review tags — the incremental degrees, posting orders and
//!   normalized columns are bitwise identical to a rebuild at every
//!   ingest state.
//! * **Merge independence.** Sealed segments carry records keyed by a
//!   globally unique ingest seq; compaction merges by sorting on that
//!   seq ([`crate::segment::merge_segments`]), so merged output — and
//!   everything readers see — is independent of merge order and timing.
//!
//! Durability goes through [`SegmentStore`]: sealed segments persist to
//! checksummed files and become visible only at a manifest commit, so
//! recovery ([`LiveIndex::open`]) always loads a consistent prefix of
//! the ingest stream no matter where a crash (or an armed `index.seal` /
//! `index.persist` / `index.merge` failpoint) cut the writer down.
//! Persistence failures never fail ingestion — the write stays buffered
//! and is retried at the next seal or [`LiveIndex::checkpoint`]; they
//! only widen the durability gap, which the `index.ingest.*` counters
//! account for.
//!
//! The live path always scores with the lexicon-backed
//! [`ConceptualSimilarity`](saccs_text::ConceptualSimilarity) (a pure
//! function of lexicon and config, so snapshot clones score
//! identically); custom embedding similarities remain a frozen-index
//! feature.

use crate::history::UserTagHistory;
use crate::index::{
    degree_value, finalize_postings, EntityEvidence, IndexConfig, IndexEntry, SubjectiveIndex,
};
use crate::segment::{
    merge_segments, Manifest, MemSegment, ReviewRecord, SealedSegment, SegmentStore, StoreError,
};
use parking_lot::{Mutex, RwLock};
use saccs_text::{ConceptualSimilarity, SubjectiveTag};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar};

/// Live-ingestion tuning knobs.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Reviews buffered in the mem-segment before it is sealed (and,
    /// with a store, persisted). `0` disables auto-sealing — only
    /// [`LiveIndex::checkpoint`] seals then.
    pub seal_every: usize,
    /// Sealed-segment count that triggers compaction. `0` disables
    /// automatic compaction — only [`LiveIndex::compact_now`] merges.
    pub max_segments: usize,
    /// Run compaction on a dedicated `saccs-rt` worker thread instead
    /// of inline on the ingesting thread. Rankings are unaffected
    /// either way (posting lists are a pure function of the ingested
    /// record set, not of the segment layout).
    pub background_compaction: bool,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            seal_every: 64,
            max_segments: 8,
            background_compaction: false,
        }
    }
}

/// What one `add_review` call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// The globally unique ingest seq assigned to the review.
    pub seq: u64,
    /// Whether this write sealed the mem-segment.
    pub sealed: bool,
    /// Sealed-segment count after the write.
    pub segments: usize,
}

/// One published, immutable view of the live index: a fully built
/// [`SubjectiveIndex`] over a consistent segment set. Probing a pinned
/// snapshot goes through exactly the frozen-index code paths (exact,
/// θ_filter fallback, dynamic thresholds, ANN), so live serving inherits
/// their determinism guarantees wholesale. Every snapshot's index shares
/// its live index's pending history, so [`SubjectiveIndex::probe`] on a
/// pinned view records unknown tags for the next
/// [`LiveIndex::reindex_pending`] round.
pub struct LiveSnapshot {
    index: SubjectiveIndex,
    ingested: u64,
    segments: usize,
}

impl LiveSnapshot {
    /// The probeable index view.
    pub fn index(&self) -> &SubjectiveIndex {
        &self.index
    }

    /// Reviews visible in this snapshot.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Sealed segments backing this snapshot (the mem-segment's
    /// contents are included in the view but not counted here).
    pub fn segments(&self) -> usize {
        self.segments
    }
}

/// Partial degree fold for one `(tag, entity)` pair: `Σ sim` over the
/// entity's review tags clearing θ_index, and the match count. Extending
/// the fold with a new review's tags performs the same f32 additions, in
/// the same order, as a from-scratch fold over the concatenated tags —
/// the invariant that keeps incremental degrees bitwise exact.
#[derive(Debug, Clone, Copy, Default)]
struct TagAccum {
    sum: f32,
    n: u32,
}

/// Writer-side state, all under one mutex: the open mem-segment, the
/// sealed segments (with their persistence status), and the incremental
/// index state the publish step snapshots from.
#[derive(Default)]
struct Writer {
    mem: MemSegment,
    /// `(segment, persisted)` in seq order. A `false` flag marks a
    /// durability gap (failed persist) retried at the next seal or
    /// checkpoint.
    sealed: Vec<(SealedSegment, bool)>,
    next_seq: u64,
    ingested: u64,
    /// Per-entity evidence in first-seen order — the same order a
    /// from-scratch build registers entities, so posting construction
    /// walks entities identically.
    evidence: Vec<EntityEvidence>,
    entity_slot: BTreeMap<usize, usize>,
    /// Per index tag, the partial fold per evidence slot (aligned with
    /// `evidence`; missing trailing slots mean `n == 0`).
    accums: BTreeMap<SubjectiveTag, Vec<TagAccum>>,
    /// The canonical posting lists, updated incrementally; publishes
    /// clone this map into a fresh snapshot index.
    entries: BTreeMap<SubjectiveTag, Vec<IndexEntry>>,
}

/// Fold `tags` into the accumulator columns for one entity slot and
/// grow `evidence` bookkeeping. Returns the index tags whose posting
/// list must be recomputed (any tag with matches for this entity: its
/// degree inputs — fold, review count, total tag count — changed).
fn apply_review(
    w: &mut Writer,
    entity_id: usize,
    tags: &[SubjectiveTag],
    similarity: &ConceptualSimilarity,
    config: &IndexConfig,
) -> Vec<SubjectiveTag> {
    let slot = match w.entity_slot.get(&entity_id) {
        Some(&slot) => slot,
        None => {
            let slot = w.evidence.len();
            w.evidence.push(EntityEvidence {
                entity_id,
                review_count: 0,
                review_tags: Vec::new(),
            });
            w.entity_slot.insert(entity_id, slot);
            slot
        }
    };
    w.evidence[slot].review_count += 1;
    w.evidence[slot].review_tags.extend(tags.iter().cloned());
    let slots = w.evidence.len();
    let mut touched = Vec::new();
    for (tag, accs) in w.accums.iter_mut() {
        if accs.len() < slots {
            accs.resize(slots, TagAccum::default());
        }
        let acc = &mut accs[slot];
        for t in tags {
            let sim = similarity.tag_similarity(tag, t);
            if sim > config.theta_index {
                acc.sum += sim;
                acc.n += 1;
            }
        }
        if acc.n > 0 {
            touched.push(tag.clone());
        }
    }
    touched
}

/// Recompute one tag's posting list from its accumulator column —
/// entities in first-seen order, shared [`degree_value`] /
/// [`finalize_postings`] math, hence bitwise equal to
/// `SubjectiveIndex::build_postings` over the same evidence.
fn postings_from_accums(
    accs: &[TagAccum],
    evidence: &[EntityEvidence],
    config: &IndexConfig,
) -> Vec<IndexEntry> {
    let mut postings: Vec<IndexEntry> = accs
        .iter()
        .zip(evidence)
        .filter_map(|(acc, ev)| {
            (acc.n > 0).then(|| IndexEntry {
                entity_id: ev.entity_id,
                degree_of_truth: degree_value(
                    config.degree_formula,
                    acc.sum,
                    acc.n as usize,
                    ev.review_count,
                    ev.review_tags.len(),
                ),
                normalized: 0.0,
            })
        })
        .collect();
    finalize_postings(&mut postings);
    postings
}

/// Build a fresh accumulator column for a newly added index tag by
/// folding every entity's review tags in order (the same fold
/// `SubjectiveIndex::degree_of_truth` performs).
fn accum_column(
    evidence: &[EntityEvidence],
    tag: &SubjectiveTag,
    similarity: &ConceptualSimilarity,
    config: &IndexConfig,
) -> Vec<TagAccum> {
    evidence
        .iter()
        .map(|ev| {
            let mut acc = TagAccum::default();
            for t in &ev.review_tags {
                let sim = similarity.tag_similarity(tag, t);
                if sim > config.theta_index {
                    acc.sum += sim;
                    acc.n += 1;
                }
            }
            acc
        })
        .collect()
}

#[derive(Default)]
struct CompactorFlags {
    requested: bool,
    shutdown: bool,
}

#[derive(Default)]
struct CompactorSignal {
    flags: Mutex<CompactorFlags>,
    cv: Condvar,
}

struct LiveInner {
    similarity: ConceptualSimilarity,
    config: IndexConfig,
    live: LiveConfig,
    store: Option<SegmentStore>,
    writer: Mutex<Writer>,
    published: RwLock<Arc<LiveSnapshot>>,
    /// Unknown tags recorded by pinned probes, drained by
    /// [`LiveIndex::reindex_pending`]. Shared with every published
    /// snapshot's index. Lock order: `writer` before `pending` (never the
    /// reverse while `writer` is held elsewhere).
    pending: Arc<Mutex<UserTagHistory>>,
    comp: CompactorSignal,
}

impl LiveInner {
    /// Publish the writer's current state as a fresh immutable snapshot.
    fn publish_locked(&self, w: &Writer) {
        let mut index = SubjectiveIndex::with_history(
            self.similarity.clone(),
            self.config.clone(),
            Arc::clone(&self.pending),
        );
        index.replace_entries(w.entries.clone());
        let snapshot = LiveSnapshot {
            index,
            ingested: w.ingested,
            segments: w.sealed.len(),
        };
        *self.published.write() = Arc::new(snapshot);
    }

    /// Seal the mem-segment (behind the `index.seal` failpoint — an
    /// injected fault defers the seal and the mem-segment keeps
    /// growing) and, with a store, persist + commit the durable prefix.
    fn seal_locked(&self, w: &mut Writer) -> bool {
        if saccs_fault::failpoint!("index.seal").is_err() {
            saccs_obs::counter!("index.ingest.seal_deferred").inc();
            return false;
        }
        let Some(segment) = w.mem.seal() else {
            return false;
        };
        w.sealed.push((segment, false));
        saccs_obs::counter!("index.ingest.seals").inc();
        saccs_obs::gauge!("index.segments").set(w.sealed.len() as f64);
        if self.store.is_some() {
            // Persistence failures are a durability gap, not an ingest
            // failure: counted, retried at the next seal/checkpoint.
            let _ = self.commit_locked(w, false);
        }
        true
    }

    /// Persist every not-yet-persisted sealed segment in seq order,
    /// then commit a manifest referencing the contiguous durable
    /// prefix (plus the tag set and pending history). Optionally
    /// checkpoints the posting lists alongside. Returns the first
    /// persist error, if any — the manifest still commits whatever
    /// prefix did persist.
    fn commit_locked(&self, w: &mut Writer, with_postings: bool) -> Result<(), StoreError> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let mut first_err = None;
        for (segment, persisted) in w.sealed.iter_mut() {
            if *persisted {
                continue;
            }
            match store.persist_segment(segment) {
                Ok(()) => *persisted = true,
                Err(e) => {
                    saccs_obs::counter!("index.ingest.persist_failed").inc();
                    first_err = Some(e);
                    break;
                }
            }
        }
        let durable: Vec<(u64, u64)> = w
            .sealed
            .iter()
            .take_while(|(_, persisted)| *persisted)
            .map(|(s, _)| (s.first_seq(), s.last_seq()))
            .collect();
        let postings_file = if with_postings && first_err.is_none() {
            match store.write_postings(&w.entries) {
                Ok(name) => Some(name),
                Err(e) => {
                    first_err = Some(e);
                    None
                }
            }
        } else {
            None
        };
        let manifest = Manifest {
            next_seq: durable.last().map(|&(_, last)| last + 1).unwrap_or(0),
            segments: durable,
            postings_file,
            tags: w.entries.keys().cloned().collect(),
            pending: self
                .pending
                .lock()
                .entries()
                .map(|(t, c)| (t.clone(), c))
                .collect(),
        };
        store.commit(&manifest)?;
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Merge all sealed segments into one. The `index.merge` failpoint
    /// sits between writing the merged image and swapping/committing:
    /// an abort there leaves the old segments live and the merged file
    /// an unreferenced orphan (swept at the next commit).
    fn compact(&self) -> Result<bool, StoreError> {
        let mut w = self.writer.lock();
        if w.sealed.len() < 2 {
            return Ok(false);
        }
        let segments: Vec<SealedSegment> = w.sealed.iter().map(|(s, _)| s.clone()).collect();
        let Some(merged) = merge_segments(&segments) else {
            return Ok(false);
        };
        let mut persisted = false;
        if let Some(store) = &self.store {
            if let Err(e) = store.persist_segment(&merged) {
                saccs_obs::counter!("index.ingest.merge_aborted").inc();
                return Err(e);
            }
            persisted = true;
        }
        if let Err(fault) = saccs_fault::failpoint!("index.merge") {
            saccs_obs::counter!("index.ingest.merge_aborted").inc();
            return Err(StoreError::Fault(fault));
        }
        w.sealed = vec![(merged, persisted)];
        saccs_obs::counter!("index.ingest.merges").inc();
        saccs_obs::gauge!("index.segments").set(1.0);
        let committed = self.commit_locked(&mut w, false);
        self.publish_locked(&w);
        drop(w);
        committed.map(|_| true)
    }
}

/// The live, ingesting index handle. See the module docs for the
/// isolation / equivalence / durability contract.
pub struct LiveIndex {
    inner: Arc<LiveInner>,
    compactor: Option<std::thread::JoinHandle<()>>,
}

impl LiveIndex {
    /// A memory-only live index (no persistence): segments seal and
    /// merge in memory, recovery is not available.
    pub fn new(similarity: ConceptualSimilarity, config: IndexConfig, live: LiveConfig) -> Self {
        Self::build(
            similarity,
            config,
            live,
            None,
            Writer::default(),
            UserTagHistory::new(),
        )
    }

    /// Open a persistent live index at `dir`, recovering the last
    /// committed manifest if one exists: committed segments are
    /// replayed in seq order through the same accumulator folds ingest
    /// uses, so the recovered index is bitwise identical to one that
    /// ingested exactly the durable prefix. A checkpointed posting
    /// image, when present, is cross-checked against the replay and a
    /// disagreement is reported as corruption.
    pub fn open(
        dir: impl Into<PathBuf>,
        similarity: ConceptualSimilarity,
        config: IndexConfig,
        live: LiveConfig,
    ) -> Result<Self, StoreError> {
        let store = SegmentStore::open(dir)?;
        let mut w = Writer::default();
        let mut pending = UserTagHistory::new();
        if let Some(loaded) = store.load()? {
            for tag in &loaded.manifest.tags {
                w.accums.insert(tag.clone(), Vec::new());
            }
            for segment in &loaded.segments {
                for record in segment.records() {
                    let _ =
                        apply_review(&mut w, record.entity_id, &record.tags, &similarity, &config);
                    w.ingested += 1;
                }
            }
            let tags: Vec<SubjectiveTag> = w.accums.keys().cloned().collect();
            for tag in tags {
                let postings = match w.accums.get(&tag) {
                    Some(accs) => postings_from_accums(accs, &w.evidence, &config),
                    None => Vec::new(),
                };
                w.entries.insert(tag, postings);
            }
            if let Some(checkpointed) = &loaded.postings {
                if *checkpointed != w.entries {
                    return Err(StoreError::Corrupt(
                        "checkpointed postings disagree with segment replay".into(),
                    ));
                }
            }
            let last_seq = loaded
                .segments
                .last()
                .map(|s| s.last_seq() + 1)
                .unwrap_or(0);
            w.next_seq = loaded.manifest.next_seq.max(last_seq);
            w.sealed = loaded
                .segments
                .into_iter()
                .map(|segment| (segment, true))
                .collect();
            for (tag, count) in loaded.manifest.pending {
                pending.set_count(tag, count);
            }
        }
        Ok(Self::build(
            similarity,
            config,
            live,
            Some(store),
            w,
            pending,
        ))
    }

    fn build(
        similarity: ConceptualSimilarity,
        config: IndexConfig,
        live: LiveConfig,
        store: Option<SegmentStore>,
        writer: Writer,
        pending: UserTagHistory,
    ) -> Self {
        let background = live.background_compaction;
        let inner = Arc::new(LiveInner {
            similarity,
            config,
            live,
            store,
            writer: Mutex::new(writer),
            published: RwLock::new(Arc::new(LiveSnapshot {
                index: SubjectiveIndex::new(
                    ConceptualSimilarity::new(saccs_text::Lexicon::new(
                        saccs_text::Domain::Restaurants,
                    )),
                    IndexConfig::default(),
                ),
                ingested: 0,
                segments: 0,
            })),
            pending: Arc::new(Mutex::new(pending)),
            comp: CompactorSignal::default(),
        });
        {
            let w = inner.writer.lock();
            inner.publish_locked(&w);
        }
        let compactor = background.then(|| {
            let worker = Arc::clone(&inner);
            saccs_rt::spawn_worker("index-compact", move || loop {
                let mut flags = worker.comp.flags.lock();
                while !flags.requested && !flags.shutdown {
                    flags = worker
                        .comp
                        .cv
                        .wait(flags)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                if flags.shutdown {
                    break;
                }
                flags.requested = false;
                drop(flags);
                let _ = worker.compact();
            })
        });
        LiveIndex { inner, compactor }
    }

    /// The similarity measure scoring ingested reviews and probes.
    pub fn similarity(&self) -> &ConceptualSimilarity {
        &self.inner.similarity
    }

    /// The index configuration snapshots are built with.
    pub fn config(&self) -> &IndexConfig {
        &self.inner.config
    }

    /// Ingest one review: assign it the next global seq, extend the
    /// entity's evidence and every index tag's partial fold, recompute
    /// the touched posting lists, and publish a fresh snapshot. Seals
    /// (and persists) the mem-segment when it reaches `seal_every`, and
    /// triggers compaction when the sealed count reaches `max_segments`.
    pub fn add_review(&self, entity_id: usize, tags: &[SubjectiveTag]) -> IngestReceipt {
        let inner = &self.inner;
        let mut w = inner.writer.lock();
        let seq = w.next_seq;
        w.next_seq += 1;
        w.ingested += 1;
        w.mem.push(ReviewRecord {
            seq,
            entity_id,
            tags: tags.to_vec(),
        });
        let touched = apply_review(&mut w, entity_id, tags, &inner.similarity, &inner.config);
        for tag in touched {
            let postings = match w.accums.get(&tag) {
                Some(accs) => postings_from_accums(accs, &w.evidence, &inner.config),
                None => Vec::new(),
            };
            w.entries.insert(tag, postings);
        }
        saccs_obs::counter!("index.ingest.reviews").inc();
        let sealed = inner.live.seal_every > 0
            && w.mem.len() >= inner.live.seal_every
            && inner.seal_locked(&mut w);
        inner.publish_locked(&w);
        let segments = w.sealed.len();
        drop(w);
        saccs_obs::trace::record(saccs_obs::trace::TraceEvent::Ingest { sealed });
        if sealed && inner.live.max_segments > 0 && segments >= inner.live.max_segments {
            if inner.live.background_compaction {
                self.request_compaction();
            } else {
                let _ = inner.compact();
            }
        }
        IngestReceipt {
            seq,
            sealed,
            segments,
        }
    }

    /// Add index tags (initial vocabulary or a re-indexing round).
    /// Already-indexed tags are skipped; returns how many were new.
    pub fn add_tags(&self, tags: &[SubjectiveTag]) -> usize {
        let inner = &self.inner;
        let mut w = inner.writer.lock();
        let mut added = 0usize;
        for tag in tags {
            if w.entries.contains_key(tag) {
                continue;
            }
            let accs = accum_column(&w.evidence, tag, &inner.similarity, &inner.config);
            let postings = postings_from_accums(&accs, &w.evidence, &inner.config);
            w.accums.insert(tag.clone(), accs);
            w.entries.insert(tag.clone(), postings);
            added += 1;
        }
        if added > 0 {
            inner.publish_locked(&w);
            let _ = inner.commit_locked(&mut w, false);
        }
        added
    }

    /// Pin the currently published snapshot. The pin is just an `Arc`
    /// clone under a read lock — cheap, non-blocking for writers — and
    /// the returned view stays frozen however much is ingested after.
    pub fn pin(&self) -> Arc<LiveSnapshot> {
        Arc::clone(&self.inner.published.read())
    }

    /// Probe a pinned snapshot: [`SubjectiveIndex::probe`] on its index,
    /// which records tags the snapshot doesn't know in the shared pending
    /// history (the Figure-1 adaptation loop).
    pub fn probe_pinned(&self, snapshot: &LiveSnapshot, tag: &SubjectiveTag) -> Vec<(usize, f32)> {
        snapshot.index().probe(tag)
    }

    /// Distinct unknown tags recorded by probes since the last round.
    pub fn pending_count(&self) -> usize {
        self.inner.pending.lock().len()
    }

    /// Run a re-indexing round over the pending unknown tags (most
    /// requested first). Returns how many new tags were indexed.
    pub fn reindex_pending(&self) -> usize {
        let drained = self.inner.pending.lock().drain();
        if drained.is_empty() {
            return 0;
        }
        saccs_obs::counter!("index.reindex.rounds").inc();
        let added = self.add_tags(&drained);
        saccs_obs::counter!("index.reindex.tags").add(added as u64);
        added
    }

    /// Merge all sealed segments into one now, synchronously. Returns
    /// whether a merge happened (needs at least two sealed segments).
    pub fn compact_now(&self) -> Result<bool, StoreError> {
        self.inner.compact()
    }

    /// Ask the background compactor to run (no-op signal when
    /// `background_compaction` is off).
    pub fn request_compaction(&self) {
        let mut flags = self.inner.comp.flags.lock();
        flags.requested = true;
        drop(flags);
        self.inner.comp.cv.notify_one();
    }

    /// Seal-aware checkpoint: seals the in-flight mem-segment (so
    /// unsealed writes are covered — the gap the snapshot regression
    /// test pins), persists every outstanding segment, writes the
    /// posting-list image, and commits the manifest. No-op persistence
    /// without a store.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let inner = &self.inner;
        let mut w = inner.writer.lock();
        if let Some(segment) = w.mem.seal() {
            w.sealed.push((segment, false));
            saccs_obs::counter!("index.ingest.seals").inc();
            saccs_obs::gauge!("index.segments").set(w.sealed.len() as f64);
        }
        let committed = inner.commit_locked(&mut w, true);
        inner.publish_locked(&w);
        committed
    }

    /// Every live record in seq order (sealed segments then the open
    /// mem-segment) — the replay input a from-scratch equivalence
    /// rebuild starts from.
    pub fn review_log(&self) -> Vec<ReviewRecord> {
        let w = self.inner.writer.lock();
        let mut log: Vec<ReviewRecord> = Vec::with_capacity(w.ingested as usize);
        for (segment, _) in &w.sealed {
            log.extend(segment.records().iter().cloned());
        }
        log.extend(w.mem.records().iter().cloned());
        log
    }

    /// Total reviews ingested (including ones still in the mem-segment).
    pub fn ingested(&self) -> u64 {
        self.inner.writer.lock().ingested
    }

    /// Current sealed-segment count.
    pub fn segment_count(&self) -> usize {
        self.inner.writer.lock().sealed.len()
    }

    /// Number of index tags.
    pub fn tag_count(&self) -> usize {
        self.inner.writer.lock().entries.len()
    }
}

impl Drop for LiveIndex {
    fn drop(&mut self) {
        if let Some(handle) = self.compactor.take() {
            {
                let mut flags = self.inner.comp.flags.lock();
                flags.shutdown = true;
            }
            self.inner.comp.cv.notify_all();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saccs_text::{Domain, Lexicon};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tag(op: &str, asp: &str) -> SubjectiveTag {
        SubjectiveTag::new(op, asp)
    }

    fn sim() -> ConceptualSimilarity {
        ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants))
    }

    fn temp_dir(label: &str) -> PathBuf {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "saccs-live-{label}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// From-scratch comparator: replay the log into a frozen index the
    /// way a batch pipeline would (entities in first-seen order).
    fn rebuild(log: &[ReviewRecord], tags: &[SubjectiveTag]) -> SubjectiveIndex {
        let mut idx = SubjectiveIndex::new(sim(), IndexConfig::default());
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

    fn bits(ranking: &[(usize, f32)]) -> Vec<(usize, u32)> {
        ranking.iter().map(|&(id, s)| (id, s.to_bits())).collect()
    }

    const TAGS: [(&str, &str); 3] = [
        ("good", "food"),
        ("nice", "staff"),
        ("romantic", "ambiance"),
    ];
    const PROBES: [(&str, &str); 4] = [
        ("good", "food"),
        ("delicious", "food"),
        ("friendly", "waiters"),
        ("quiet", "place"),
    ];
    const STREAM: [(usize, &[(&str, &str)]); 8] = [
        (0, &[("good", "food"), ("nice", "staff")]),
        (1, &[("amazing", "pizza")]),
        (0, &[("romantic", "ambiance")]),
        (2, &[("creative", "cooking"), ("good", "food")]),
        (1, &[("nice", "staff"), ("friendly", "staff")]),
        (3, &[]),
        (2, &[("good", "food")]),
        (0, &[("delicious", "food")]),
    ];

    fn index_tags() -> Vec<SubjectiveTag> {
        TAGS.iter().map(|(o, a)| tag(o, a)).collect()
    }

    #[test]
    fn incremental_matches_from_scratch_at_every_state() {
        let live = LiveIndex::new(
            sim(),
            IndexConfig::default(),
            LiveConfig {
                seal_every: 3,
                max_segments: 0,
                background_compaction: false,
            },
        );
        live.add_tags(&index_tags());
        for (entity, tags) in STREAM {
            let review: Vec<SubjectiveTag> = tags.iter().map(|(o, a)| tag(o, a)).collect();
            live.add_review(entity, &review);
            let frozen = rebuild(&live.review_log(), &index_tags());
            let snapshot = live.pin();
            for (o, a) in PROBES {
                let live_ranked = live.probe_pinned(&snapshot, &tag(o, a));
                let frozen_ranked = frozen.probe_readonly(&tag(o, a));
                assert_eq!(bits(&live_ranked), bits(&frozen_ranked), "probe {o} {a}");
            }
        }
    }

    #[test]
    fn compaction_does_not_change_rankings() {
        let live = LiveIndex::new(
            sim(),
            IndexConfig::default(),
            LiveConfig {
                seal_every: 2,
                max_segments: 0,
                background_compaction: false,
            },
        );
        live.add_tags(&index_tags());
        for (entity, tags) in STREAM {
            let review: Vec<SubjectiveTag> = tags.iter().map(|(o, a)| tag(o, a)).collect();
            live.add_review(entity, &review);
        }
        assert!(live.segment_count() >= 2);
        let snapshot_before = live.pin();
        let before: Vec<_> = PROBES
            .iter()
            .map(|(o, a)| bits(&live.probe_pinned(&snapshot_before, &tag(o, a))))
            .collect();
        assert!(live.compact_now().unwrap());
        assert_eq!(live.segment_count(), 1);
        let snapshot_after = live.pin();
        for ((o, a), expected) in PROBES.iter().zip(before) {
            assert_eq!(
                bits(&live.probe_pinned(&snapshot_after, &tag(o, a))),
                expected
            );
        }
        // The pre-compaction pin still answers identically: snapshot
        // isolation holds across the merge.
        for (o, a) in PROBES {
            assert_eq!(
                bits(&live.probe_pinned(&snapshot_after, &tag(o, a))),
                bits(&live.probe_pinned(&snapshot_before, &tag(o, a)))
            );
        }
    }

    #[test]
    fn pinned_snapshot_is_isolated_from_later_ingest() {
        let live = LiveIndex::new(sim(), IndexConfig::default(), LiveConfig::default());
        live.add_tags(&index_tags());
        live.add_review(0, &[tag("good", "food")]);
        let pinned = live.pin();
        let before = bits(&live.probe_pinned(&pinned, &tag("good", "food")));
        for _ in 0..10 {
            live.add_review(1, &[tag("good", "food")]);
        }
        // The pin still sees exactly one entity; a fresh pin sees two.
        assert_eq!(
            bits(&live.probe_pinned(&pinned, &tag("good", "food"))),
            before
        );
        assert_eq!(
            live.probe_pinned(&live.pin(), &tag("good", "food")).len(),
            2
        );
    }

    #[test]
    fn persist_recover_round_trips_bitwise() {
        let dir = temp_dir("recover");
        let log;
        {
            let live = LiveIndex::open(
                &dir,
                sim(),
                IndexConfig::default(),
                LiveConfig {
                    seal_every: 3,
                    max_segments: 0,
                    background_compaction: false,
                },
            )
            .unwrap();
            live.add_tags(&index_tags());
            for (entity, tags) in STREAM {
                let review: Vec<SubjectiveTag> = tags.iter().map(|(o, a)| tag(o, a)).collect();
                live.add_review(entity, &review);
            }
            let snapshot = live.pin();
            let _ = live.probe_pinned(&snapshot, &tag("quiet", "place"));
            live.checkpoint().unwrap();
            log = live.review_log();
        }
        let recovered =
            LiveIndex::open(&dir, sim(), IndexConfig::default(), LiveConfig::default()).unwrap();
        assert_eq!(recovered.ingested(), log.len() as u64);
        assert_eq!(recovered.review_log(), log);
        // The pending probe survived the checkpoint.
        assert_eq!(recovered.pending_count(), 1);
        let frozen = rebuild(&log, &index_tags());
        let snapshot = recovered.pin();
        for (o, a) in PROBES {
            assert_eq!(
                bits(&recovered.probe_pinned(&snapshot, &tag(o, a))),
                bits(&frozen.probe_readonly(&tag(o, a)))
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_is_seal_aware_covering_inflight_writes() {
        let dir = temp_dir("inflight");
        {
            let live = LiveIndex::open(
                &dir,
                sim(),
                IndexConfig::default(),
                LiveConfig {
                    seal_every: 1000, // never auto-seals: every write stays in-flight
                    max_segments: 0,
                    background_compaction: false,
                },
            )
            .unwrap();
            live.add_tags(&index_tags());
            live.add_review(0, &[tag("good", "food")]);
            live.add_review(1, &[tag("romantic", "ambiance")]);
            assert_eq!(live.segment_count(), 0, "writes are unsealed");
            live.checkpoint().unwrap();
        }
        let recovered =
            LiveIndex::open(&dir, sim(), IndexConfig::default(), LiveConfig::default()).unwrap();
        // Without seal-aware checkpointing these two reviews would be lost.
        assert_eq!(recovered.ingested(), 2);
        assert_eq!(
            recovered
                .probe_pinned(&recovered.pin(), &tag("good", "food"))
                .len(),
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_compactor_merges_on_signal_and_shuts_down() {
        let live = LiveIndex::new(
            sim(),
            IndexConfig::default(),
            LiveConfig {
                seal_every: 1,
                max_segments: 4,
                background_compaction: true,
            },
        );
        live.add_tags(&index_tags());
        for (entity, tags) in STREAM {
            let review: Vec<SubjectiveTag> = tags.iter().map(|(o, a)| tag(o, a)).collect();
            live.add_review(entity, &review);
        }
        // The compactor runs asynchronously; poll its effect through the
        // writer state (bounded spin, no sleeps).
        for _ in 0..10_000 {
            if live.segment_count() <= 4 {
                break;
            }
            std::thread::yield_now();
        }
        assert!(live.segment_count() <= 4);
        let frozen = rebuild(&live.review_log(), &index_tags());
        let snapshot = live.pin();
        for (o, a) in PROBES {
            assert_eq!(
                bits(&live.probe_pinned(&snapshot, &tag(o, a))),
                bits(&frozen.probe_readonly(&tag(o, a)))
            );
        }
        drop(live); // Drop joins the compactor: must not hang.
    }

    #[test]
    fn reindex_pending_promotes_probed_tags() {
        let live = LiveIndex::new(sim(), IndexConfig::default(), LiveConfig::default());
        live.add_tags(&index_tags());
        live.add_review(0, &[tag("quiet", "place")]);
        let snapshot = live.pin();
        let _ = live.probe_pinned(&snapshot, &tag("quiet", "place"));
        let _ = live.probe_pinned(&snapshot, &tag("quiet", "place"));
        assert_eq!(live.pending_count(), 1);
        assert_eq!(live.reindex_pending(), 1);
        assert_eq!(live.pending_count(), 0);
        let after = live.pin();
        assert!(after.index().lookup(&tag("quiet", "place")).is_some());
        let frozen = rebuild(
            &live.review_log(),
            &[index_tags(), vec![tag("quiet", "place")]].concat(),
        );
        assert_eq!(
            bits(&live.probe_pinned(&after, &tag("quiet", "place"))),
            bits(&frozen.probe_readonly(&tag("quiet", "place")))
        );
    }
}
