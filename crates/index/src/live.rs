//! Live review ingestion over the segmented index: the one writer of
//! Equation 1.
//!
//! [`LiveIndex`] computes every posting list. A memory-only one (no
//! store, `LiveConfig { seal_every: 0, max_segments: 0 }`) is how the
//! trained service, the table bins and the tests build an index: one
//! [`LiveIndex::add_review`] per review, then [`LiveIndex::add_tags`].
//! With a store, reviews arrive while probes keep answering, with three
//! guarantees the ingest suite pins down bit for bit:
//!
//! * **Snapshot isolation.** Readers call [`LiveIndex::pin`] to get an
//!   `Arc` of the currently published [`LiveSnapshot`] — a read-only
//!   [`SubjectiveIndex`] (cell index included) over one consistent
//!   segment set. Writers publish new snapshots by swapping the `Arc`;
//!   a pinned reader keeps probing its frozen view for as long as it
//!   holds the pin, never observing a half-applied review.
//! * **Incremental = from-scratch.** Degrees of truth are maintained as
//!   per-`(tag, entity)` partial folds `(Σ sim, n)` extended by each new
//!   review's tags. Because f32 addition is folded left-to-right in
//!   review order — exactly the order [`LiveIndex::add_tags`] walks the
//!   record log when it builds a new tag's column from scratch — the
//!   incremental degrees are bitwise identical to a replay at every
//!   ingest state. Each posting column is laid out by entity slot (the
//!   entity's first-seen position) in chunks behind `Arc`, and a review
//!   changes one entry in each column where its entity has evidence, so
//!   ingest *splices* that entry: it writes the entity's new degree into
//!   its slot, copying that one chunk (and the column's table of chunk
//!   pointers) while published snapshots keep the old ones. Nothing
//!   moves and nothing is rescaled, and a chunk's form (dense or sparse)
//!   follows from its fill, so every column equals a replay's bit for
//!   bit, layout included.
//! * **Merge independence.** Sealed segments carry records keyed by a
//!   globally unique ingest seq; compaction merges by sorting on that
//!   seq ([`crate::segment::merge_segments`]), so merged output — and
//!   everything readers see — is independent of merge order and timing.
//!
//! Each review's tags are stored once, in the record log (the open
//! mem-segment and the sealed segments); per entity the writer keeps
//! only its review and tag counts. A publish shares everything it
//! hands the snapshot: the columns (one pointer each), the slot table
//! and the cell index, so it clones no tag map and copies no posting.
//!
//! Durability goes through the segment store (`crate::segment`): sealed
//! segments persist to checksummed files and become visible only at a
//! manifest commit, so recovery ([`LiveIndex::open`]) always loads a
//! consistent prefix of the ingest stream no matter where a crash (or an
//! armed `index.seal` / `index.persist` / `index.merge` failpoint) cut
//! the writer down, and rebuilds every column by replaying it. What a
//! crash can lose is on [`IngestReceipt`]. Persistence failures never
//! fail ingestion — the write stays buffered and is retried at the next
//! seal or [`LiveIndex::checkpoint`]; they only widen the durability
//! gap, which the `index.ingest.*` counters account for.
//!
//! The index scores with the lexicon-backed
//! [`ConceptualSimilarity`](saccs_text::ConceptualSimilarity), or with a
//! custom measure set by [`LiveIndex::with_custom_similarity`] (whose
//! snapshots answer fallback probes by scan). Every tag is resolved once
//! where it enters, and pairs are scored from resolutions: an index tag
//! when `add_tags` or recovery adds it, a review's tags once in
//! `add_review`, each distinct review tag once per log pass of the
//! column fold. The resolved tag set and its cell index change only with
//! the tag set, so every snapshot published over one tag set shares
//! them by `Arc`, as it shares the live index's one similarity.

use crate::ann::SemanticCandidateIndex;
use crate::column::{PostingColumn, SlotIds};
use crate::history::UserTagHistory;
use crate::index::{DegreeFormula, IndexConfig, Scoring, SubjectiveIndex};
use crate::segment::{
    merge_segments, Manifest, MemSegment, ReviewRecord, SealedSegment, SegmentStore, StoreError,
};
use parking_lot::{Mutex, RwLock};
use saccs_text::{ConceptualSimilarity, ResolvedTag, SubjectiveTag, TagSimilarity};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;

/// Live-ingestion tuning knobs.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Reviews buffered in the mem-segment before it is sealed (and,
    /// with a store, persisted). `0` disables auto-sealing — only
    /// [`LiveIndex::checkpoint`] seals then.
    pub seal_every: usize,
    /// Sealed-segment count that triggers compaction, run inline by the
    /// ingesting call. `0` disables automatic compaction — only
    /// [`LiveIndex::compact_now`] merges.
    pub max_segments: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            seal_every: 64,
            max_segments: 8,
        }
    }
}

/// What one `add_review` call did.
///
/// A receipt acknowledges that the review is visible to the next pin,
/// not that it is durable. With a store, a review becomes durable when
/// its mem-segment is sealed and committed (every `seal_every` reviews,
/// or at [`LiveIndex::checkpoint`]), so a crash loses up to
/// `seal_every − 1` acknowledged reviews, and a committed file survives
/// a killed process but not a host crash (nothing is fsynced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// The globally unique ingest seq assigned to the review.
    pub seq: u64,
    /// Whether this write sealed the mem-segment.
    pub sealed: bool,
    /// Sealed-segment count after the write.
    pub segments: usize,
}

/// One published, immutable view of the live index: a read-only
/// [`SubjectiveIndex`] over a consistent segment set, reachable through
/// `Deref` or [`LiveSnapshot::index`]. Probing a pinned snapshot goes
/// through the index's code paths (exact, θ_filter fallback through the
/// cell index or by scan), so serving inherits their determinism
/// guarantees wholesale. Every snapshot's index shares its live index's
/// pending history, so [`SubjectiveIndex::probe`] on a pinned view
/// records unknown tags for the next [`LiveIndex::reindex_pending`]
/// round, its similarity, the writer's posting chunks, so a publish
/// copies no posting, and the writer's cell index and slot table, so a
/// publish resolves no tag and clones no tag map.
pub struct LiveSnapshot {
    index: SubjectiveIndex,
    ingested: u64,
    segments: usize,
}

impl LiveSnapshot {
    /// The writer's current state as a snapshot: its columns shared by
    /// reference count, its cell index, slot table, similarity and
    /// pending history shared outright.
    fn of(w: &Writer, scoring: &Scoring, pending: &Arc<Mutex<UserTagHistory>>) -> Self {
        LiveSnapshot {
            index: SubjectiveIndex::with_columns(
                scoring.clone(),
                w.config.clone(),
                Arc::clone(pending),
                Arc::clone(&w.cells),
                w.columns.clone(),
                Arc::clone(&w.ids),
            ),
            ingested: w.ingested,
            segments: w.sealed.len(),
        }
    }

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

impl Deref for LiveSnapshot {
    type Target = SubjectiveIndex;

    fn deref(&self) -> &SubjectiveIndex {
        &self.index
    }
}

/// The degree-of-truth value for one `(tag, entity)` pair, given the
/// θ_index-filtered similarity fold `(sum, n)` over the entity's review
/// tags. A splice and a from-scratch column feed it the *same* left-fold
/// `sum` (f32 addition in review order), so their degrees are bitwise
/// identical.
fn degree_value(
    formula: DegreeFormula,
    sum: f32,
    n: usize,
    review_count: usize,
    total_tags: usize,
) -> f32 {
    let mean = sum / n as f32;
    let total = total_tags.max(1) as f32;
    let log_reviews = ((review_count + 1) as f32).ln();
    match formula {
        DegreeFormula::Equation1 => log_reviews * mean,
        DegreeFormula::MatchVolume => ((n + 1) as f32).ln() * mean,
        DegreeFormula::MentionRate => log_reviews * sum / total,
        DegreeFormula::PureRate => sum / total,
        DegreeFormula::PureMean => mean,
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

impl TagAccum {
    /// Extend the fold with one review tag's similarity to the index tag.
    fn add(&mut self, sim: f32, theta: f32) {
        if sim > theta {
            self.sum += sim;
            self.n += 1;
        }
    }
}

/// One entity's review totals, the degree inputs besides the fold.
#[derive(Debug, Clone, Copy, Default)]
struct EntityTotals {
    review_count: usize,
    total_tags: usize,
}

/// Writer-side state, all under one mutex: the open mem-segment, the
/// sealed segments (with their persistence status), and the incremental
/// index state the publish step snapshots from.
#[derive(Default)]
struct Writer {
    config: IndexConfig,
    mem: MemSegment,
    /// `(segment, persisted)` in seq order. A `false` flag marks a
    /// durability gap (failed persist) retried at the next seal or
    /// checkpoint.
    sealed: Vec<(SealedSegment, bool)>,
    next_seq: u64,
    ingested: u64,
    /// Per-entity totals by slot (first-seen order).
    entities: Vec<EntityTotals>,
    entity_slot: BTreeMap<usize, usize>,
    /// The entity id in each slot: replaced where an entity arrives,
    /// shared by every snapshot in between.
    ids: Arc<SlotIds>,
    /// The index tags, ascending, resolved, and their cells: replaced
    /// where the tag set changes, shared by every snapshot in between.
    /// A tag's position here is its id in `accums` and `columns`.
    cells: Arc<SemanticCandidateIndex>,
    /// Per tag id, the partial fold per entity slot (aligned with
    /// `entities`; missing trailing slots mean `n == 0`).
    accums: Vec<Vec<TagAccum>>,
    /// The posting columns by tag id. A review writes the reviewed
    /// entity's degree into each column it changes, copying one chunk;
    /// publishes share the rest.
    columns: Vec<PostingColumn>,
}

impl Writer {
    /// Count one review of `tag_count` tags for `entity_id`, registering
    /// the entity in the next slot if it is new. Returns its slot.
    fn observe(&mut self, entity_id: usize, tag_count: usize) -> usize {
        let slot = match self.entity_slot.get(&entity_id) {
            Some(&slot) => slot,
            None => {
                let slot = self.entities.len();
                self.entities.push(EntityTotals::default());
                self.entity_slot.insert(entity_id, slot);
                Arc::make_mut(&mut self.ids).push(entity_id);
                slot
            }
        };
        self.entities[slot].review_count += 1;
        self.entities[slot].total_tags += tag_count;
        slot
    }

    /// Every live record in seq order: the sealed segments, then the
    /// open mem-segment.
    fn records(&self) -> impl Iterator<Item = &ReviewRecord> {
        self.sealed
            .iter()
            .flat_map(|(segment, _)| segment.records())
            .chain(self.mem.records())
    }

    /// The degree of the entity in `slot` under a tag whose fold for
    /// it is `acc` (`acc.n > 0`).
    fn degree(&self, slot: usize, acc: TagAccum) -> f32 {
        let totals = self.entities[slot];
        degree_value(
            self.config.degree_formula,
            acc.sum,
            acc.n as usize,
            totals.review_count,
            totals.total_tags,
        )
    }

    /// Compute one tag's posting column from its accumulators, whole.
    /// Used where a column is new or recomputed: [`Writer::fold_columns`]
    /// and [`LiveIndex::set_degree_formula`].
    fn column(&self, accs: &[TagAccum]) -> PostingColumn {
        PostingColumn::from_slots(
            accs.iter()
                .enumerate()
                .filter(|(_, acc)| acc.n > 0)
                .map(|(slot, &acc)| (slot, self.degree(slot, acc))),
        )
    }

    /// Recompute every posting column from the accumulators.
    fn recompute(&mut self) {
        self.columns = self.accums.iter().map(|accs| self.column(accs)).collect();
    }

    /// Fold each of `tags`' (new to the index, distinct) accumulator
    /// columns over the whole record log, one `saccs-rt` pool task per
    /// tag, and install each with its posting column and its
    /// resolution, in tag order: [`LiveIndex::add_tags`] and recovery.
    fn fold_columns(&mut self, tags: &[&SubjectiveTag], scoring: &Scoring) {
        let fresh: Vec<ResolvedTag<'_>> =
            tags.iter().map(|t| scoring.conceptual.resolve(t)).collect();
        let folded = {
            let log = LogPass::of(self, scoring);
            let writer = &*self;
            saccs_rt::parallel_map(fresh.len(), 4, |i| {
                let accs = log.fold(&fresh[i], writer, scoring);
                let column = writer.column(&accs);
                (accs, column)
            })
        };
        let cells = Arc::new(self.cells.with(&fresh));
        let mut folded: BTreeMap<&SubjectiveTag, (Vec<TagAccum>, PostingColumn)> =
            tags.iter().copied().zip(folded).collect();
        let mut old = std::mem::take(&mut self.accums)
            .into_iter()
            .zip(std::mem::take(&mut self.columns));
        // The old tags keep their relative order among the new ones.
        for tag in cells.tags() {
            let (accs, column) = match folded.remove(tag) {
                Some(new) => new,
                None => old.next().unwrap_or_default(),
            };
            self.accums.push(accs);
            self.columns.push(column);
        }
        self.cells = cells;
    }
}

/// Fold one review in and splice the reviewed entity's new degree into
/// every posting column it changes: wherever the entity's fold has
/// matches after the review, its degree inputs (fold, review count,
/// total tag count) changed, so its slot is rewritten. Returns how many
/// columns were spliced.
fn splice_review(
    w: &mut Writer,
    entity_id: usize,
    tags: &[SubjectiveTag],
    scoring: &Scoring,
) -> usize {
    let slot = w.observe(entity_id, tags.len());
    {
        let _fold = saccs_obs::span!("index.ingest.fold");
        let review: Vec<ResolvedTag<'_>> =
            tags.iter().map(|t| scoring.conceptual.resolve(t)).collect();
        let (slots, theta) = (w.entities.len(), w.config.theta_index);
        for (id, accs) in w.accums.iter_mut().enumerate() {
            let index_tag = w.cells.resolved(id);
            if accs.len() < slots {
                accs.resize(slots, TagAccum::default());
            }
            for t in &review {
                accs[slot].add(scoring.sim(&index_tag, t), theta);
            }
        }
    }
    let _splice = saccs_obs::span!("index.ingest.splice");
    let mut spliced = 0;
    for id in 0..w.columns.len() {
        let acc = w.accums[id][slot];
        if acc.n > 0 {
            let degree = w.degree(slot, acc);
            w.columns[id].set(slot, degree);
            spliced += 1;
        }
    }
    spliced
}

/// The record log as one resolution pass for the column fold: each
/// distinct review tag resolved once, and every tag occurrence in seq
/// order as `(entity slot, distinct tag id)`.
struct LogPass<'a> {
    distinct: Vec<ResolvedTag<'a>>,
    occurrences: Vec<(u32, u32)>,
}

impl<'a> LogPass<'a> {
    fn of(w: &'a Writer, scoring: &Scoring) -> Self {
        let mut ids: BTreeMap<&SubjectiveTag, u32> = BTreeMap::new();
        let mut distinct = Vec::new();
        let mut occurrences = Vec::new();
        for record in w.records() {
            let slot = w.entity_slot[&record.entity_id] as u32;
            for tag in &record.tags {
                let id = *ids.entry(tag).or_insert_with(|| {
                    distinct.push(scoring.conceptual.resolve(tag));
                    (distinct.len() - 1) as u32
                });
                occurrences.push((slot, id));
            }
        }
        LogPass {
            distinct,
            occurrences,
        }
    }

    /// A fresh accumulator column for index tag `tag`: its score against
    /// each distinct review tag, folded per entity in seq order, the same
    /// left fold over the entity's reviews' tags a splice performs review
    /// by review.
    fn fold(&self, tag: &ResolvedTag<'_>, w: &Writer, scoring: &Scoring) -> Vec<TagAccum> {
        let scores: Vec<f32> = self.distinct.iter().map(|t| scoring.sim(tag, t)).collect();
        let mut accs = vec![TagAccum::default(); w.entities.len()];
        for &(slot, id) in &self.occurrences {
            accs[slot as usize].add(scores[id as usize], w.config.theta_index);
        }
        accs
    }
}

/// Drop a snapshot a publish replaced, after the writer lock is
/// released. When no reader still pins it, its teardown runs here: the
/// chunk tables and chunks only it still holds (on a review, one of
/// each per column the review changed) are freed outside every lock.
fn reclaim(replaced: Arc<LiveSnapshot>) {
    let _span = saccs_obs::span!("index.ingest.reclaim");
    drop(replaced);
}

/// The live, ingesting index handle. See the module docs for the
/// isolation / equivalence / durability contract.
pub struct LiveIndex {
    scoring: Scoring,
    live: LiveConfig,
    store: Option<SegmentStore>,
    writer: Mutex<Writer>,
    published: RwLock<Arc<LiveSnapshot>>,
    /// Unknown tags recorded by pinned probes, drained by
    /// [`LiveIndex::reindex_pending`]. Shared with every published
    /// snapshot's index. Lock order: `writer` before `pending` (never the
    /// reverse while `writer` is held elsewhere).
    pending: Arc<Mutex<UserTagHistory>>,
}

impl LiveIndex {
    /// A memory-only live index (no persistence): segments seal and
    /// merge in memory, recovery is not available. With
    /// `LiveConfig { seal_every: 0, max_segments: 0 }` every record
    /// stays in the one mem-segment: the form a batch build takes.
    pub fn new(similarity: ConceptualSimilarity, config: IndexConfig, live: LiveConfig) -> Self {
        Self::build(
            Scoring::new(similarity),
            live,
            None,
            Writer {
                config,
                ..Writer::default()
            },
            UserTagHistory::new(),
        )
    }

    /// Score degrees and probes with `similarity` instead of the
    /// lexicon's (the footnote-2 ablation; fed a
    /// [`ConceptualSimilarity`], the scan reference the cell index is
    /// tested against). Snapshots then answer fallback probes by scan.
    /// Set it on a fresh index: folds already taken keep the old
    /// measure.
    pub fn with_custom_similarity(mut self, similarity: impl TagSimilarity + 'static) -> Self {
        self.scoring.custom = Some(Arc::new(similarity));
        let first = LiveSnapshot::of(&self.writer.lock(), &self.scoring, &self.pending);
        *self.published.write() = Arc::new(first);
        self
    }

    /// Open a persistent live index at `dir`, recovering the last
    /// committed manifest if one exists: the committed segments become
    /// the sealed segments, each record counts into its entity's totals
    /// in seq order, and each manifest tag's column folds the log as
    /// [`LiveIndex::add_tags`] folds it. That is the fold a splice makes
    /// review by review, so the recovered index is bitwise identical to
    /// one that ingested exactly the durable prefix. The next seq follows
    /// the last durable one, and the pending history comes back with its
    /// counts. Files that fail to decode are reported as
    /// [`StoreError`]s.
    pub fn open(
        dir: impl Into<PathBuf>,
        similarity: ConceptualSimilarity,
        config: IndexConfig,
        live: LiveConfig,
    ) -> Result<Self, StoreError> {
        let store = SegmentStore::open(dir)?;
        let scoring = Scoring::new(similarity);
        let mut w = Writer {
            config,
            ..Writer::default()
        };
        let mut pending = UserTagHistory::new();
        if let Some((manifest, segments)) = store.load()? {
            if let Some(last) = segments.last() {
                w.next_seq = last
                    .last_seq()
                    .checked_add(1)
                    .ok_or_else(|| StoreError::Corrupt("seqs exhaust u64".into()))?;
            }
            w.sealed = segments
                .into_iter()
                .map(|segment| (segment, true))
                .collect();
            let reviews: Vec<(usize, usize)> =
                w.records().map(|r| (r.entity_id, r.tags.len())).collect();
            for (entity_id, tag_count) in reviews {
                w.observe(entity_id, tag_count);
                w.ingested += 1;
            }
            let tags: Vec<&SubjectiveTag> = manifest.tags.iter().collect();
            w.fold_columns(&tags, &scoring);
            for (tag, count) in manifest.pending {
                pending.set_count(tag, count);
            }
        }
        Ok(Self::build(scoring, live, Some(store), w, pending))
    }

    fn build(
        scoring: Scoring,
        live: LiveConfig,
        store: Option<SegmentStore>,
        writer: Writer,
        pending: UserTagHistory,
    ) -> Self {
        let pending = Arc::new(Mutex::new(pending));
        let first = LiveSnapshot::of(&writer, &scoring, &pending);
        LiveIndex {
            scoring,
            live,
            store,
            writer: Mutex::new(writer),
            published: RwLock::new(Arc::new(first)),
            pending,
        }
    }

    /// Publish the writer's current state as a fresh immutable snapshot,
    /// returning the one it replaced for [`reclaim`] once the writer
    /// lock is released.
    #[must_use]
    fn publish_locked(&self, w: &Writer) -> Arc<LiveSnapshot> {
        let _span = saccs_obs::span!("index.ingest.publish");
        let snapshot = LiveSnapshot::of(w, &self.scoring, &self.pending);
        std::mem::replace(&mut *self.published.write(), Arc::new(snapshot))
    }

    /// Seal the mem-segment (behind the `index.seal` failpoint — an
    /// injected fault defers the seal and the mem-segment keeps
    /// growing) and, with a store, persist + commit the durable prefix.
    fn seal_locked(&self, w: &mut Writer) -> bool {
        let _span = saccs_obs::span!("index.ingest.seal");
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
            let _ = self.commit_locked(w);
        }
        true
    }

    /// Persist every not-yet-persisted sealed segment in seq order,
    /// then commit a manifest referencing the contiguous durable
    /// prefix (plus the tag set and pending history). Returns the first
    /// persist error, if any — the manifest still commits whatever
    /// prefix did persist.
    fn commit_locked(&self, w: &mut Writer) -> Result<(), StoreError> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let _span = saccs_obs::span!("index.ingest.persist");
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
        let manifest = Manifest {
            segments: w
                .sealed
                .iter()
                .take_while(|(_, persisted)| *persisted)
                .map(|(s, _)| (s.first_seq(), s.last_seq()))
                .collect(),
            tags: w.cells.tags().cloned().collect(),
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

    /// Merge all sealed segments into one now, synchronously. Returns
    /// whether a merge happened (needs at least two sealed segments).
    /// The `index.merge` failpoint sits between writing the merged image
    /// and swapping/committing: an abort there leaves the old segments
    /// live and the merged file an unreferenced orphan (swept at the
    /// next commit).
    pub fn compact_now(&self) -> Result<bool, StoreError> {
        let _span = saccs_obs::span!("index.ingest.compact");
        let mut w = self.writer.lock();
        if w.sealed.len() < 2 {
            return Ok(false);
        }
        // Borrowed: the merge copies each record once, into its output.
        let Some(merged) = merge_segments(w.sealed.iter().map(|(s, _)| s)) else {
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
        let committed = self.commit_locked(&mut w);
        let replaced = self.publish_locked(&w);
        drop(w);
        reclaim(replaced);
        committed.map(|_| true)
    }

    /// The lexicon-backed similarity: probes and degrees score with it
    /// unless a custom similarity is set, and profiles weight with it.
    pub fn similarity(&self) -> &ConceptualSimilarity {
        &self.scoring.conceptual
    }

    /// Ingest one review: assign it the next global seq, append it to the
    /// record log, extend the entity's totals and every index tag's
    /// partial fold, write the entity's recomputed degree into its slot
    /// of each posting column where it has evidence (copying the one
    /// chunk that holds the slot), and publish a fresh snapshot. Seals
    /// (and persists) the mem-segment when it reaches `seal_every`, and
    /// triggers compaction when the sealed count reaches `max_segments`.
    ///
    /// The parts are timed as spans: `index.ingest` around the call,
    /// `index.ingest.fold`, `index.ingest.splice`, `index.ingest.seal`,
    /// `index.ingest.persist`, `index.ingest.publish`,
    /// `index.ingest.reclaim` (the replaced snapshot's teardown, after
    /// the writer lock) and `index.ingest.compact`. None is a
    /// request-trace stage.
    ///
    /// Any `entity_id` is accepted: the index sizes everything by the
    /// number of distinct entities, never by an id.
    pub fn add_review(&self, entity_id: usize, tags: &[SubjectiveTag]) -> IngestReceipt {
        let _span = saccs_obs::span!("index.ingest");
        let mut w = self.writer.lock();
        let seq = w.next_seq;
        w.next_seq += 1;
        w.ingested += 1;
        w.mem.push(ReviewRecord {
            seq,
            entity_id,
            tags: tags.to_vec(),
        });
        let spliced = splice_review(&mut w, entity_id, tags, &self.scoring);
        saccs_obs::counter!("index.ingest.reviews").inc();
        saccs_obs::counter!("index.ingest.spliced").add(spliced as u64);
        let sealed = self.live.seal_every > 0
            && w.mem.len() >= self.live.seal_every
            && self.seal_locked(&mut w);
        let replaced = self.publish_locked(&w);
        let segments = w.sealed.len();
        drop(w);
        reclaim(replaced);
        saccs_obs::trace::record(saccs_obs::trace::TraceEvent::Ingest { sealed });
        if sealed && self.live.max_segments > 0 && segments >= self.live.max_segments {
            let _ = self.compact_now();
        }
        IngestReceipt {
            seq,
            sealed,
            segments,
        }
    }

    /// Add index tags (initial vocabulary or a re-indexing round).
    /// Already-indexed tags are skipped; returns how many were new.
    /// Each new tag's column folds the whole record log and is a pure
    /// function of the tag and the log, so the columns fan out one task
    /// per tag across the `saccs-rt` pool and come back positionally:
    /// the index is bitwise independent of the pool width.
    pub fn add_tags(&self, tags: &[SubjectiveTag]) -> usize {
        let _build = saccs_obs::span!("index.build");
        let mut w = self.writer.lock();
        let mut seen = BTreeSet::new();
        let fresh: Vec<&SubjectiveTag> = tags
            .iter()
            .filter(|t| w.cells.id_of(t).is_none() && seen.insert(*t))
            .collect();
        if fresh.is_empty() {
            return 0;
        }
        saccs_obs::counter!("index.build.tags").add(fresh.len() as u64);
        w.fold_columns(&fresh, &self.scoring);
        let replaced = self.publish_locked(&w);
        let _ = self.commit_locked(&mut w);
        drop(w);
        reclaim(replaced);
        fresh.len()
    }

    /// Drop every index tag (the record log is kept, so a later
    /// [`LiveIndex::add_tags`] rebuilds from the same reviews). Table 2
    /// evaluates its 6/12/18-tag index states on one trained pipeline
    /// this way.
    pub fn clear_tags(&self) {
        let mut w = self.writer.lock();
        w.accums.clear();
        w.columns.clear();
        w.cells = Arc::default();
        let replaced = self.publish_locked(&w);
        let _ = self.commit_locked(&mut w);
        drop(w);
        reclaim(replaced);
    }

    /// Switch the degree formula and recompute every posting column from
    /// the accumulators already held (the folds do not depend on it).
    pub fn set_degree_formula(&self, formula: DegreeFormula) {
        let mut w = self.writer.lock();
        w.config.degree_formula = formula;
        w.recompute();
        let replaced = self.publish_locked(&w);
        drop(w);
        reclaim(replaced);
    }

    /// Pin the currently published snapshot. The pin is just an `Arc`
    /// clone under a read lock — cheap, non-blocking for writers — and
    /// the returned view stays frozen however much is ingested after.
    pub fn pin(&self) -> Arc<LiveSnapshot> {
        Arc::clone(&self.published.read())
    }

    /// Probe a pinned snapshot: [`SubjectiveIndex::probe`] on its index,
    /// which records tags the snapshot doesn't know in the shared pending
    /// history (the Figure-1 adaptation loop).
    pub fn probe_pinned(&self, snapshot: &LiveSnapshot, tag: &SubjectiveTag) -> Vec<(usize, f32)> {
        snapshot.index().probe(tag)
    }

    /// Distinct unknown tags recorded by probes since the last round.
    pub fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }

    /// Run a re-indexing round over the pending unknown tags (most
    /// requested first). Returns how many new tags were indexed.
    pub fn reindex_pending(&self) -> usize {
        let drained = self.pending.lock().drain();
        if drained.is_empty() {
            return 0;
        }
        saccs_obs::counter!("index.reindex.rounds").inc();
        let added = self.add_tags(&drained);
        saccs_obs::counter!("index.reindex.tags").add(added as u64);
        added
    }

    /// Seal-aware checkpoint: seals the in-flight mem-segment (so
    /// unsealed writes are covered — the gap the snapshot regression
    /// test pins), persists every outstanding segment, and commits the
    /// manifest. After it returns `Ok`, every review acknowledged so far
    /// is durable against a killed process. No-op persistence without a
    /// store.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let mut w = self.writer.lock();
        if let Some(segment) = w.mem.seal() {
            w.sealed.push((segment, false));
            saccs_obs::counter!("index.ingest.seals").inc();
            saccs_obs::gauge!("index.segments").set(w.sealed.len() as f64);
        }
        let committed = self.commit_locked(&mut w);
        let replaced = self.publish_locked(&w);
        drop(w);
        reclaim(replaced);
        committed
    }

    /// Every live record in seq order (sealed segments then the open
    /// mem-segment) — the replay input a from-scratch equivalence
    /// rebuild starts from.
    pub fn review_log(&self) -> Vec<ReviewRecord> {
        self.writer.lock().records().cloned().collect()
    }

    /// Total reviews ingested (including ones still in the mem-segment).
    pub fn ingested(&self) -> u64 {
        self.writer.lock().ingested
    }

    /// Current sealed-segment count.
    pub fn segment_count(&self) -> usize {
        self.writer.lock().sealed.len()
    }

    /// Number of index tags.
    pub fn tag_count(&self) -> usize {
        self.writer.lock().columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Postings, CHUNK};
    use crate::index::tests::{rank_hits, ranked_bits};
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

    /// From-scratch comparator: replay the log into a fresh memory-only
    /// index, reviews first, then the tags, so every column is folded
    /// from the whole log at once instead of spliced. It scores through
    /// the custom-similarity hook, so its fallback probes scan while the
    /// live snapshots answer through their cell index.
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
    /// Entities 5 and 4 tie bit for bit, so their order in a column is
    /// first-seen order.
    const STREAM: [(usize, &[(&str, &str)]); 10] = [
        (0, &[("good", "food"), ("nice", "staff")]),
        (1, &[("amazing", "pizza")]),
        (0, &[("romantic", "ambiance")]),
        (2, &[("creative", "cooking"), ("good", "food")]),
        (1, &[("nice", "staff"), ("friendly", "staff")]),
        (3, &[]),
        (2, &[("good", "food")]),
        (0, &[("delicious", "food")]),
        (5, &[("good", "food")]),
        (4, &[("good", "food")]),
    ];

    fn vocabulary() -> Vec<SubjectiveTag> {
        TAGS.iter().map(|(o, a)| tag(o, a)).collect()
    }

    /// A column as Table 1 ranks it: `(entity, degree bits, normalized
    /// bits)`.
    fn column_bits(postings: Postings<'_>) -> Vec<(usize, u32, u32)> {
        postings
            .table()
            .iter()
            .map(|&(e, d, n)| (e, d.to_bits(), n.to_bits()))
            .collect()
    }

    /// Every writer column is bitwise the column a from-scratch build
    /// computes over the writer's own accumulators and entity totals,
    /// chunk forms included, and the published snapshot holds them.
    fn assert_columns_match_a_build(live: &LiveIndex) {
        let w = live.writer.lock();
        assert_eq!(w.accums.len(), w.columns.len());
        assert_eq!(w.cells.len(), w.columns.len());
        assert_eq!(w.ids.len(), w.entities.len());
        let snapshot = live.pin();
        for ((tag, accs), column) in w.cells.tags().zip(&w.accums).zip(&w.columns) {
            let want = w.column(accs).layout();
            assert_eq!(column.layout(), want, "column {tag:?}");
            assert_eq!(snapshot.column(tag).map(|c| c.layout()), Some(want));
        }
    }

    /// A small palette with near-synonyms and exact repeats, so reviews
    /// of different entities often fold to bitwise-equal degrees, plus a
    /// typo'd opinion and aspect (resolved fuzzily) and an unresolvable
    /// pair (scored by edit distance).
    const OPINIONS: [&str; 6] = [
        "good",
        "delicious",
        "nice",
        "friendly",
        "deliciouz",
        "zorgle",
    ];
    const ASPECTS: [&str; 5] = ["food", "staff", "waiters", "foood", "zzplace"];

    fn palette(picks: &[(usize, usize)]) -> Vec<SubjectiveTag> {
        picks
            .iter()
            .map(|&(o, a)| tag(OPINIONS[o], ASPECTS[a]))
            .collect()
    }

    /// A pair scorer the probe reference folds with.
    type Score<'s> = &'s dyn Fn(&ResolvedTag<'_>, &ResolvedTag<'_>) -> f32;

    /// The conceptual score shifted down by 0.6: under a negative
    /// θ_filter and θ_index it matches pairs whose similarity is
    /// negative, so folds, degrees and fallback scores go negative.
    struct Shifted(ConceptualSimilarity);

    impl TagSimilarity for Shifted {
        fn similarity(&self, a: &ResolvedTag<'_>, b: &ResolvedTag<'_>) -> f32 {
            self.0.score(a, b) - 0.6
        }
    }

    /// Every fallback probe of the published snapshot equals the
    /// reference fold over its columns, entity by entity, bit for bit.
    fn assert_probes_match_the_reference(live: &LiveIndex, score: Score<'_>) {
        let snapshot = live.pin();
        let lexicon = live.similarity();
        for probe in [
            tag("delicious", "meal"),
            tag("friendly", "waiters"),
            tag("deliciouz", "zzplace"),
        ] {
            if snapshot.lookup(&probe).is_some_and(|p| !p.is_empty()) {
                continue;
            }
            let resolved = lexicon.resolve(&probe);
            let mut hits: Vec<(usize, f32)> = Vec::new();
            for t in snapshot.tags() {
                let sim = score(&resolved, &lexicon.resolve(t));
                if sim > snapshot.config().theta_filter {
                    let postings = snapshot.lookup(t).into_iter().flat_map(|p| p.iter());
                    hits.extend(postings.map(|(e, d)| (e, sim * d)));
                }
            }
            assert_eq!(
                ranked_bits(&snapshot.probe_readonly(&probe)),
                ranked_bits(&rank_hits(hits)),
                "probe {probe:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(48))]

        /// Reviews over up to 3 chunks of entities, so a column's chunks
        /// fill from sparse past the dense boundary; a late `add_tags`, a
        /// formula switch, and a `clear_tags` that rebuilds from another
        /// tag set (dense chunks come back sparse where that set has
        /// less evidence). After every step every column equals a build
        /// from the accumulators, forms included, and every fallback
        /// probe equals the reference fold. Half the cases score through
        /// a similarity that goes negative under negative thresholds.
        #[test]
        fn spliced_columns_equal_a_from_scratch_build(
            early_tags in proptest::collection::vec((0..6usize, 0..5usize), 1..5),
            late_tags in proptest::collection::vec((0..6usize, 0..5usize), 0..3),
            stream in proptest::collection::vec(
                (0..2 * CHUNK + 30, proptest::collection::vec((0..6usize, 0..5usize), 0..6)),
                1..400,
            ),
            seal_every in 1..5usize,
            formula in 0..5usize,
            negative in proptest::bool::ANY,
        ) {
            let formula = [
                DegreeFormula::Equation1,
                DegreeFormula::MatchVolume,
                DegreeFormula::MentionRate,
                DegreeFormula::PureRate,
                DegreeFormula::PureMean,
            ][formula];
            let live = LiveIndex::new(
                sim(),
                IndexConfig {
                    theta_index: if negative { -0.3 } else { 0.45 },
                    theta_filter: if negative { -0.2 } else { 0.45 },
                    ..IndexConfig::default()
                },
                LiveConfig {
                    seal_every,
                    max_segments: 2,
                },
            );
            let shifted = Shifted(sim());
            let lexicon = sim();
            let (live, score): (LiveIndex, Score<'_>) =
                if negative {
                    (live.with_custom_similarity(Shifted(sim())), &|a, b| shifted.similarity(a, b))
                } else {
                    (live, &|a, b| lexicon.score(a, b))
                };
            live.add_tags(&palette(&early_tags));
            let n = stream.len();
            for (i, (entity, review)) in stream.iter().enumerate() {
                if i == n / 3 {
                    live.add_tags(&palette(&late_tags));
                } else if i == n / 2 {
                    live.set_degree_formula(formula);
                } else if i == 2 * n / 3 {
                    live.clear_tags();
                    live.add_tags(&palette(&late_tags));
                    live.add_tags(&palette(&early_tags[..1]));
                }
                live.add_review(*entity, &palette(review));
                assert_columns_match_a_build(&live);
                if i % 8 == 0 || i + 1 == n {
                    assert_probes_match_the_reference(&live, score);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// A column `add_tags` folds from the record log equals the one
        /// spliced review by review, bit for bit, with records spread
        /// over sealed, merged and open segments: the log is folded in
        /// seq order. Few entities with many tags each make
        /// order-sensitive f32 sums common.
        #[test]
        fn log_folded_columns_equal_spliced_columns(
            tags in proptest::collection::vec((0..6usize, 0..5usize), 1..4),
            stream in proptest::collection::vec(
                (0..3usize, proptest::collection::vec((0..6usize, 0..5usize), 1..6)),
                1..40,
            ),
            seal_every in 0..5usize,
        ) {
            let live = || {
                LiveIndex::new(
                    sim(),
                    IndexConfig::default(),
                    LiveConfig {
                        seal_every,
                        max_segments: 2,
                    },
                )
            };
            let (spliced, folded) = (live(), live());
            spliced.add_tags(&palette(&tags));
            for (entity, review) in &stream {
                spliced.add_review(*entity, &palette(review));
                folded.add_review(*entity, &palette(review));
            }
            folded.add_tags(&palette(&tags));
            let (a, b) = (spliced.pin(), folded.pin());
            for t in palette(&tags) {
                proptest::prop_assert_eq!(
                    a.column(&t).map(|c| c.layout()),
                    b.column(&t).map(|c| c.layout()),
                    "column {:?}",
                    t
                );
            }
        }
    }

    #[test]
    fn ingest_parts_record_their_spans() {
        let samples = |name: &str| saccs_obs::registry().histogram(name).count();
        let parts = [
            "index.ingest",
            "index.ingest.fold",
            "index.ingest.splice",
            "index.ingest.seal",
            "index.ingest.persist",
            "index.ingest.publish",
        ];
        let dir = temp_dir("spans");
        let live = LiveIndex::open(
            &dir,
            sim(),
            IndexConfig::default(),
            LiveConfig {
                seal_every: 1,
                max_segments: 0,
            },
        )
        .unwrap();
        live.add_tags(&vocabulary());
        // Span timing is process-wide: other tests may add samples while
        // it is on, so only the rise is asserted.
        let before: Vec<u64> = parts.iter().map(|p| samples(p)).collect();
        saccs_obs::set_enabled(true);
        let receipt = live.add_review(0, &[tag("good", "food")]);
        saccs_obs::set_enabled(false);
        assert!(receipt.sealed);
        for (part, before) in parts.iter().zip(before) {
            assert!(samples(part) > before, "{part} recorded no sample");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_matches_from_scratch_at_every_state() {
        let live = LiveIndex::new(
            sim(),
            IndexConfig::default(),
            LiveConfig {
                seal_every: 3,
                max_segments: 0,
            },
        );
        live.add_tags(&vocabulary());
        for (entity, tags) in STREAM {
            let review: Vec<SubjectiveTag> = tags.iter().map(|(o, a)| tag(o, a)).collect();
            live.add_review(entity, &review);
            let replay = rebuild(&live.review_log(), &vocabulary());
            let snapshot = live.pin();
            for (o, a) in PROBES {
                let live_ranked = live.probe_pinned(&snapshot, &tag(o, a));
                let replay_ranked = replay.probe_readonly(&tag(o, a));
                assert_eq!(bits(&live_ranked), bits(&replay_ranked), "probe {o} {a}");
            }
        }
    }

    #[test]
    fn formula_switch_and_tag_clearing_equal_fresh_builds() {
        let build = |formula: DegreeFormula| {
            let live = LiveIndex::new(
                sim(),
                IndexConfig {
                    degree_formula: formula,
                    ..IndexConfig::default()
                },
                LiveConfig::default(),
            );
            for (entity, tags) in STREAM {
                let review: Vec<SubjectiveTag> = tags.iter().map(|(o, a)| tag(o, a)).collect();
                live.add_review(entity, &review);
            }
            live.add_tags(&vocabulary());
            live
        };
        let columns = |live: &LiveIndex| -> Vec<Option<Vec<(usize, u32, u32)>>> {
            let snapshot = live.pin();
            vocabulary()
                .iter()
                .map(|t| snapshot.lookup(t).map(column_bits))
                .collect()
        };
        let switched = build(DegreeFormula::Equation1);
        let equation1 = columns(&switched);
        switched.set_degree_formula(DegreeFormula::PureRate);
        assert_eq!(columns(&switched), columns(&build(DegreeFormula::PureRate)));
        assert_ne!(columns(&switched), equation1);
        switched.set_degree_formula(DegreeFormula::Equation1);
        switched.clear_tags();
        assert_eq!(switched.tag_count(), 0);
        assert!(switched.pin().is_empty());
        assert_eq!(switched.add_tags(&vocabulary()), vocabulary().len());
        assert_eq!(columns(&switched), equation1);
    }

    #[test]
    fn compaction_does_not_change_rankings() {
        let live = LiveIndex::new(
            sim(),
            IndexConfig::default(),
            LiveConfig {
                seal_every: 2,
                max_segments: 0,
            },
        );
        live.add_tags(&vocabulary());
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
        live.add_tags(&vocabulary());
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
    fn publish_shares_untouched_columns_with_earlier_snapshots() {
        let live = LiveIndex::new(sim(), IndexConfig::default(), LiveConfig::default());
        live.add_tags(&vocabulary());
        live.add_review(0, &[tag("romantic", "ambiance")]);
        let before = live.pin();
        // Entity 1 says nothing near "romantic ambiance": that column is
        // untouched, the "good food" one gains a posting.
        live.add_review(1, &[tag("good", "food")]);
        let after = live.pin();
        let untouched = tag("romantic", "ambiance");
        let (a, b) = (
            before.column(&untouched).unwrap(),
            after.column(&untouched).unwrap(),
        );
        assert_eq!(a.len(), 1);
        assert!(a.shares_chunk(b, 0), "publish copied an untouched column");
        let touched = tag("good", "food");
        assert_eq!(before.lookup(&touched).unwrap().len(), 0);
        assert_eq!(after.lookup(&touched).unwrap().len(), 1);
    }

    /// A review copies the one chunk holding its entity's slot in each
    /// column it changes; the column's other chunks stay shared with
    /// the snapshots published before it.
    #[test]
    fn a_review_copies_one_chunk_per_changed_column() {
        let live = LiveIndex::new(sim(), IndexConfig::default(), LiveConfig::default());
        live.add_tags(&vocabulary());
        for entity in 0..2 * CHUNK {
            live.add_review(entity, &[tag("good", "food")]);
        }
        let before = live.pin();
        live.add_review(CHUNK + 5, &[tag("good", "food")]);
        let after = live.pin();
        let food = tag("good", "food");
        let (a, b) = (before.column(&food).unwrap(), after.column(&food).unwrap());
        assert!(a.shares_chunk(b, 0));
        assert!(!a.shares_chunk(b, CHUNK));
        assert_eq!(a.layout()[0], b.layout()[0]);
        assert_ne!(a.layout()[1], b.layout()[1]);
        assert_eq!(b.len(), 2 * CHUNK);
    }

    /// A review's publish hands the next snapshot the cell index the
    /// last one had; only a change of the tag set replaces it.
    #[test]
    fn snapshots_share_the_cell_index_until_the_tag_set_changes() {
        let live = LiveIndex::new(sim(), IndexConfig::default(), LiveConfig::default());
        live.add_tags(&vocabulary());
        let before = live.pin();
        live.add_review(0, &[tag("good", "food")]);
        let after = live.pin();
        assert!(!Arc::ptr_eq(&before, &after));
        assert!(Arc::ptr_eq(before.cells(), after.cells()));
        assert_eq!(live.add_tags(&vocabulary()), 0);
        assert!(Arc::ptr_eq(after.cells(), live.pin().cells()));
        live.add_tags(&[tag("quiet", "place")]);
        let grown = live.pin();
        assert!(!Arc::ptr_eq(after.cells(), grown.cells()));
        live.clear_tags();
        assert!(!Arc::ptr_eq(grown.cells(), live.pin().cells()));
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
                },
            )
            .unwrap();
            live.add_tags(&vocabulary());
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
        let replay = rebuild(&log, &vocabulary());
        let snapshot = recovered.pin();
        for (o, a) in PROBES {
            assert_eq!(
                bits(&recovered.probe_pinned(&snapshot, &tag(o, a))),
                bits(&replay.probe_readonly(&tag(o, a)))
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
                },
            )
            .unwrap();
            live.add_tags(&vocabulary());
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

    /// The documented loss window: a review is durable once its
    /// mem-segment is sealed and committed, so a drop without a
    /// checkpoint loses the open mem-segment's acknowledged reviews.
    #[test]
    fn a_crash_loses_only_the_open_mem_segment() {
        let dir = temp_dir("loss");
        {
            let live = LiveIndex::open(&dir, sim(), IndexConfig::default(), LiveConfig::default())
                .unwrap();
            for i in 0..100 {
                live.add_review(i % 7, &[tag("good", "food")]);
            }
        }
        let recovered =
            LiveIndex::open(&dir, sim(), IndexConfig::default(), LiveConfig::default()).unwrap();
        assert_eq!(recovered.ingested(), 64);
        assert_eq!(recovered.add_review(0, &[]).seq, 64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reindex_pending_promotes_probed_tags() {
        let live = LiveIndex::new(sim(), IndexConfig::default(), LiveConfig::default());
        live.add_tags(&vocabulary());
        live.add_review(0, &[tag("quiet", "place")]);
        let snapshot = live.pin();
        let _ = live.probe_pinned(&snapshot, &tag("quiet", "place"));
        let _ = live.probe_pinned(&snapshot, &tag("quiet", "place"));
        assert_eq!(live.pending_count(), 1);
        assert_eq!(live.reindex_pending(), 1);
        assert_eq!(live.pending_count(), 0);
        let after = live.pin();
        assert!(after.index().lookup(&tag("quiet", "place")).is_some());
        let replay = rebuild(
            &live.review_log(),
            &[vocabulary(), vec![tag("quiet", "place")]].concat(),
        );
        assert_eq!(
            bits(&live.probe_pinned(&after, &tag("quiet", "place"))),
            bits(&replay.probe_readonly(&tag("quiet", "place")))
        );
    }
}
