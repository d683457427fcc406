//! The inverted index and Equation 1.
//!
//! [`SubjectiveIndex`] is the read-only view a live index publishes: one
//! posting column per index tag, by tag id (the tag's position in the
//! shared cell index's ascending tag list), each laid out by entity slot
//! in chunks (`crate::column`). A lookup finds the tag's id by binary
//! search over those tags and reads the column in place as [`Postings`].
//!
//! Probes answer in slot order and never sort: Algorithm 1 scatters each
//! answer into per-entity slots and the filter planner sets bits, so no
//! ranking depends on the order. The fallback probe resolves the probe
//! tag once, scores it against the index tags (by scan or through the
//! resolution cells), and folds the matched columns densely per slot.
//! Whatever prints or exports an answer ranks it there:
//! [`Postings::table`] for a column, score then id for a fallback.

use crate::ann::SemanticCandidateIndex;
use crate::column::{Matches, PostingColumn, Postings, SlotIds};
use crate::history::UserTagHistory;
use parking_lot::Mutex;
use saccs_text::{ConceptualSimilarity, ResolvedTag, SubjectiveTag, TagSimilarity};
use std::sync::{Arc, MutexGuard};

/// The degree-of-truth formula (Equation 1 and its variants).
///
/// Equation 1 reads `Deg(tag, e) = log(|R_e|+1) / |T_e^tag| · Σ_{t∈T_e^tag}
/// Sim(tag, t)` — i.e. log review volume times the *mean similarity of the
/// matching mentions*. That literal reading discards the mention **rate**
/// (one matching mention among 100 reviews scores like thirty), which is a
/// reproduction finding documented in `EXPERIMENTS.md`: against a ground
/// truth that is itself a per-review mean (the paper's crowdsourced
/// `sat`), the literal formula underperforms rate-carrying variants. The
/// `MentionRate` variant is the alternative reading where the denominator
/// is *all* extracted tags `|T_e|`, making the score `log volume ×
/// matching rate × similarity`; the others isolate individual factors.
/// All variants are exercised by the `degree_of_truth_ablation` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegreeFormula {
    /// Equation 1 verbatim: `log(|R_e|+1) × mean sim of matching tags`.
    Equation1,
    /// `log(matches+1) × mean sim` — matching-mention volume.
    MatchVolume,
    /// Alternative Eq-1 reading: `log(|R_e|+1) × Σ sim / |T_e|`.
    MentionRate,
    /// `Σ sim / |T_e|` — pure matching rate, no volume factor.
    PureRate,
    /// `mean sim of matching tags` — no volume factor.
    PureMean,
}

/// Index construction/query parameters.
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// θ_index of Equation 1: minimum similarity for a review tag to count
    /// toward an index tag's degree of truth.
    pub theta_index: f32,
    /// θ_filter of Algorithm 1: minimum similarity for an index tag to
    /// answer a probe for an unknown tag.
    pub theta_filter: f32,
    /// Degree-of-truth formula.
    pub degree_formula: DegreeFormula,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            theta_index: 0.45,
            theta_filter: 0.45,
            degree_formula: DegreeFormula::Equation1,
        }
    }
}

/// The similarity an index scores with: the lexicon-backed
/// [`ConceptualSimilarity`], which resolves every tag, weights profiles
/// and prunes the cell index, and an optional override for degrees and
/// probes (e.g. embedding cosine for the footnote-2 ablation). Both sit
/// behind an `Arc`, so a live index hands every snapshot it publishes the
/// same measure, fuzzy memo included.
#[derive(Clone)]
pub(crate) struct Scoring {
    pub(crate) conceptual: Arc<ConceptualSimilarity>,
    pub(crate) custom: Option<Arc<dyn TagSimilarity>>,
}

impl Scoring {
    pub(crate) fn new(similarity: ConceptualSimilarity) -> Self {
        Scoring {
            conceptual: Arc::new(similarity),
            custom: None,
        }
    }

    /// The similarity score used for degrees and probes.
    pub(crate) fn sim(&self, a: &ResolvedTag<'_>, b: &ResolvedTag<'_>) -> f32 {
        match &self.custom {
            Some(s) => s.similarity(a, b),
            None => self.conceptual.score(a, b),
        }
    }
}

/// The subjective-tag inverted index: a read-only view over posting
/// columns. [`crate::LiveIndex`] computes every column (Equation 1) and
/// publishes its state as one of these per snapshot;
/// [`SubjectiveIndex::install_postings`] bulk-loads synthetic columns
/// for benches and tests.
pub struct SubjectiveIndex {
    config: IndexConfig,
    /// Degrees and probes score through `scoring.sim`; an index with a
    /// custom similarity answers fallback probes by scan.
    scoring: Scoring,
    /// The user tag history is the only probe-path state that mutates at
    /// serving time, so it sits behind its own mutex: probes stay `&self`
    /// and many serving threads can record unknown tags concurrently.
    /// Every snapshot a `crate::LiveIndex` publishes shares that live
    /// index's one pending history through this `Arc`.
    history: Arc<Mutex<UserTagHistory>>,
    /// The tag set, ascending, each tag resolved once where it entered,
    /// and the resolution cells answering θ_filter fallback probes. A
    /// tag's position here is its id. Built where the tag set changes;
    /// every snapshot over one tag set shares it.
    cells: Arc<SemanticCandidateIndex>,
    /// One posting column per tag id. Cloning one shares its chunks.
    columns: Vec<PostingColumn>,
    /// The entity id in each slot, shared with the writer until an
    /// entity arrives.
    ids: Arc<SlotIds>,
}

impl SubjectiveIndex {
    pub fn new(similarity: ConceptualSimilarity, config: IndexConfig) -> Self {
        Self::with_columns(
            Scoring::new(similarity),
            config,
            Arc::default(),
            Arc::default(),
            Vec::new(),
            Arc::default(),
        )
    }

    /// An index over `columns` (by id of the tags `cells` holds) and
    /// the slot table `ids`, that records unknown tags into `history`,
    /// shared with whoever else holds it (the live-ingest publish path
    /// hands every snapshot its writer's columns, cell index and slot
    /// table, its similarity and its live index's pending history).
    pub(crate) fn with_columns(
        scoring: Scoring,
        config: IndexConfig,
        history: Arc<Mutex<UserTagHistory>>,
        cells: Arc<SemanticCandidateIndex>,
        columns: Vec<PostingColumn>,
        ids: Arc<SlotIds>,
    ) -> Self {
        debug_assert_eq!(cells.len(), columns.len(), "one column per tag");
        SubjectiveIndex {
            config,
            scoring,
            history,
            cells,
            columns,
            ids,
        }
    }

    /// Replace the similarity measure used for probes (the
    /// conceptual-vs-cosine ablation hook). Fallback probes then scan,
    /// whatever was installed before: fed a [`ConceptualSimilarity`],
    /// this is the scan reference the cell index is tested against, as
    /// it scores bit for bit alike.
    pub fn with_custom_similarity(mut self, similarity: impl TagSimilarity + 'static) -> Self {
        self.scoring.custom = Some(Arc::new(similarity));
        self
    }

    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The similarity checker backing this index.
    pub fn similarity(&self) -> &ConceptualSimilarity {
        &self.scoring.conceptual
    }

    /// The resolved tag set this view shares with every snapshot over
    /// the same tags.
    #[cfg(test)]
    pub(crate) fn cells(&self) -> &Arc<SemanticCandidateIndex> {
        &self.cells
    }

    /// Number of index tags.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Iterate over the index tags, ascending.
    pub fn tags(&self) -> impl Iterator<Item = &SubjectiveTag> {
        self.cells.tags()
    }

    /// `tag`'s posting column, if `tag` is indexed.
    pub(crate) fn column(&self, tag: &SubjectiveTag) -> Option<&PostingColumn> {
        self.cells.id_of(tag).map(|id| &self.columns[id])
    }

    /// Exact posting-list lookup: the tag's postings in slot order.
    pub fn lookup(&self, tag: &SubjectiveTag) -> Option<Postings<'_>> {
        self.column(tag).map(|c| Postings::new(c, &self.ids))
    }

    /// Exact posting-list length for a tag (`0` when the tag is not
    /// indexed). The cost-based filter planner in `saccs-query` orders
    /// intersections rarest-first on these per-tag statistics.
    pub fn posting_len(&self, tag: &SubjectiveTag) -> usize {
        self.column(tag).map_or(0, PostingColumn::len)
    }

    /// Iterate `(tag, posting length)` statistics in ascending tag
    /// order — the planner's cardinality-estimation input.
    pub fn posting_stats(&self) -> impl Iterator<Item = (&SubjectiveTag, usize)> {
        self.cells
            .tags()
            .zip(self.columns.iter().map(PostingColumn::len))
    }

    /// Install precomputed posting lists from raw `(entity_id, degree)`
    /// pairs per tag, then resolve the tag set and build the cell index
    /// once. A tag installed twice keeps its last list, and an entity
    /// listed twice in one list its last degree. Slots go to the
    /// entities in ascending id. Benches and property tests use this to
    /// assemble synthetic corpora of known posting shapes without
    /// fabricating review evidence.
    pub fn install_postings(
        &mut self,
        columns: impl IntoIterator<Item = (SubjectiveTag, Vec<(usize, f32)>)>,
    ) {
        let mut lists: Vec<(SubjectiveTag, Vec<(usize, f32)>)> = self
            .tags()
            .cloned()
            .zip(
                self.columns
                    .iter()
                    .map(|c| Postings::new(c, &self.ids).iter().collect()),
            )
            .collect();
        lists.extend(columns);
        // Stable: of one tag's lists (or one entity's degrees), the
        // last comes last and is the one kept.
        lists.sort_by(|a, b| a.0.cmp(&b.0));
        lists = keep_last(lists, |a, b| a.0 == b.0);
        let mut ids: Vec<usize> = Vec::new();
        for (_, list) in &mut lists {
            list.sort_by_key(|&(id, _)| id);
            *list = keep_last(std::mem::take(list), |a, b| a.0 == b.0);
            ids.extend(list.iter().map(|&(id, _)| id));
        }
        ids.sort_unstable();
        ids.dedup();
        let mut slots = SlotIds::default();
        for &id in &ids {
            slots.push(id);
        }
        let slot_of = |id: usize| ids.partition_point(|&other| other < id);
        self.columns = lists
            .iter()
            .map(|(_, list)| {
                PostingColumn::from_slots(list.iter().map(|&(id, d)| (slot_of(id), d)))
            })
            .collect();
        let tags = lists.into_iter().map(|(tag, _)| tag).collect();
        self.cells = Arc::new(SemanticCandidateIndex::build(self.similarity(), tags));
        self.ids = Arc::new(slots);
    }

    /// Probe the index for a (possibly unknown) tag, per §3.2:
    ///
    /// * known tag → its postings verbatim;
    /// * unknown tag → union of postings of all index tags with
    ///   `similarity > θ_filter`, each entity's score summed over matching
    ///   tags as `Σ sim × degree`, and the tag is recorded in the user tag
    ///   history for the next indexing round.
    ///
    /// Returns `(entity_id, score)` in slot order, each entity once.
    /// Takes `&self`: the only mutation is the history record, which
    /// goes through the history mutex so concurrent serving threads can
    /// probe one shared index.
    pub fn probe(&self, tag: &SubjectiveTag) -> Vec<(usize, f32)> {
        if self.cells.id_of(tag).is_none() {
            self.history.lock().record(tag.clone());
        }
        self.probe_readonly(tag)
    }

    /// Fallible [`SubjectiveIndex::probe`] behind the `algo1.probe`
    /// failpoint: the index of a deployed service lives behind storage
    /// that can fail per-lookup. An injected failure happens *before*
    /// the probe, so neither postings nor the user tag history are
    /// touched by a failed call.
    pub fn try_probe(
        &self,
        tag: &SubjectiveTag,
    ) -> Result<Vec<(usize, f32)>, saccs_fault::FaultError> {
        saccs_fault::failpoint!("algo1.probe")?;
        Ok(self.probe(tag))
    }

    /// Read-only probe (no history side effect), for concurrent serving.
    pub fn probe_readonly(&self, tag: &SubjectiveTag) -> Vec<(usize, f32)> {
        if let Some(postings) = self.lookup(tag) {
            // A known tag answers verbatim (§3.2) — unless its posting
            // list is empty (indexed, but no entity's reviews mention it),
            // in which case the similarity fallback is strictly more
            // informative than silence.
            if !postings.is_empty() {
                saccs_obs::counter!("index.probe.exact").inc();
                saccs_obs::trace::record(saccs_obs::trace::TraceEvent::Probe { exact: true });
                let mut answer = Vec::with_capacity(postings.len());
                // `for_each` runs the iterator's per-chunk loops.
                postings.iter().for_each(|posting| answer.push(posting));
                return answer;
            }
        }
        // θ_filter similarity fallback: the tag is unknown (or indexed
        // empty). The exact/fallback counter ratio is the index miss
        // rate under real query traffic.
        saccs_obs::counter!("index.probe.fallback").inc();
        saccs_obs::trace::record(saccs_obs::trace::TraceEvent::Probe { exact: false });
        let theta = self.config.theta_filter;
        let probe = self.scoring.conceptual.resolve(tag);
        // A custom similarity has no upper bounds to prune cells by.
        let matches = if self.scoring.custom.is_some() || self.columns.is_empty() {
            self.probe_scan(&probe, theta)
        } else {
            self.probe_cells(&probe, theta)
        };
        let _fold = saccs_obs::span!("index.probe.fold");
        matches.fold(&self.ids)
    }

    /// The exhaustive θ_filter fallback: score every index tag. The only
    /// path a custom similarity allows.
    fn probe_scan(&self, probe: &ResolvedTag<'_>, theta: f32) -> Matches<'_> {
        let _rescore = saccs_obs::span!("index.probe.rescore");
        let mut matches = Matches::default();
        for (id, column) in self.columns.iter().enumerate() {
            let sim = self.scoring.sim(probe, &self.cells.resolved(id));
            if sim > theta {
                matches.push(sim, column);
            }
        }
        matches
    }

    /// The cell-index fallback: fetch candidates scored in ascending tag
    /// order (= the scan's iteration order). The candidate set is a
    /// superset of the scan's matches, so the surviving `(tag, column)`
    /// sequence — and with it every f32 addition of the fold — is
    /// identical to the scan's and the answer is bitwise equal.
    fn probe_cells(&self, probe: &ResolvedTag<'_>, theta: f32) -> Matches<'_> {
        let _rescore = saccs_obs::span!("index.probe.rescore");
        let mut matches = Matches::default();
        let mut rescored = 0u32;
        let sc = self.cells.rescore(self.similarity(), probe, theta);
        for &(id, sim) in &sc.scored {
            if sim > theta {
                rescored += 1;
                matches.push(sim, &self.columns[id as usize]);
            }
        }
        let (candidates, visited) = (sc.scored.len() as u32, sc.visited);
        saccs_obs::counter!("index.probe.ann.candidates").add(u64::from(candidates));
        saccs_obs::counter!("index.probe.ann.rescored").add(u64::from(rescored));
        saccs_obs::counter!("index.probe.ann.visited").add(u64::from(visited));
        saccs_obs::trace::record(saccs_obs::trace::TraceEvent::ProbeAnn {
            candidates,
            rescored,
            visited,
        });
        matches
    }

    /// Pending unknown tags (user tag history). Returns the guard; the
    /// `Deref` impl keeps existing `.len()`/`.contains()` call sites
    /// working, but holding it across another probe blocks that probe's
    /// history record.
    pub fn history(&self) -> MutexGuard<'_, UserTagHistory> {
        self.history.lock()
    }

    /// Render the Table-1 view of the index (tags with their top entities
    /// and normalized degrees of truth).
    pub fn render_table(&self, top_k: usize, name_of: impl Fn(usize) -> String) -> String {
        let mut out = String::from("Tag                    Entities\n");
        for (tag, column) in self.cells.tags().zip(&self.columns) {
            let rows = Postings::new(column, &self.ids).table();
            for (i, &(entity, _, normalized)) in rows.iter().take(top_k).enumerate() {
                if i == 0 {
                    out.push_str(&format!("{:<22} ", tag.phrase()));
                } else {
                    out.push_str(&" ".repeat(23));
                }
                out.push_str(&format!("{} ({:.2})\n", name_of(entity), normalized));
            }
            if rows.is_empty() {
                out.push_str(&format!("{:<22} (no entities)\n", tag.phrase()));
            }
        }
        out
    }
}

/// `items` with each run of `same` neighbours cut to its last item.
fn keep_last<T>(items: Vec<T>, same: impl Fn(&T, &T) -> bool) -> Vec<T> {
    let mut kept: Vec<T> = Vec::with_capacity(items.len());
    for item in items {
        match kept.last_mut() {
            Some(last) if same(last, &item) => *last = item,
            _ => kept.push(item),
        }
    }
    kept
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::column::CHUNK;
    use crate::live::{LiveConfig, LiveIndex, LiveSnapshot};
    use proptest::prelude::*;
    use saccs_text::{Domain, Lexicon};

    /// The reference a fallback probe must reproduce: stable-sort the
    /// `(entity, sim × degree)` hits — recorded in tag-major order — by
    /// entity, fold each run left to right (seeded with its first
    /// value), then rank by `(score desc, id asc)`.
    pub(crate) fn rank_hits(mut hits: Vec<(usize, f32)>) -> Vec<(usize, f32)> {
        hits.sort_by_key(|&(id, _)| id);
        let mut out: Vec<(usize, f32)> = Vec::with_capacity(hits.len());
        for (id, v) in hits {
            match out.last_mut() {
                Some((last, acc)) if *last == id => *acc += v,
                _ => out.push((id, v)),
            }
        }
        by_score(out)
    }

    /// An answer ranked by `(score desc, id asc)`, as score bits.
    pub(crate) fn ranked_bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
        by_score(ranked.to_vec())
            .iter()
            .map(|&(e, s)| (e, s.to_bits()))
            .collect()
    }

    fn by_score(mut answer: Vec<(usize, f32)>) -> Vec<(usize, f32)> {
        answer.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        answer
    }

    /// Similarities with ties; the last slot draws a random one.
    pub(crate) const SIMS: &[f32] = &[0.5, 0.5, 0.75, 1.0, 0.46];

    /// Degrees with signed zeros, subnormals and ties; the last slot
    /// draws a random one.
    pub(crate) const DEGREES: &[f32] = &[
        0.0,
        -0.0,
        1e-40,
        -1e-40,
        f32::MIN_POSITIVE,
        0.25,
        0.25,
        1.0,
        -1.0,
        3.5,
    ];

    pub(crate) fn pick(palette: &[f32], i: usize, random: f32) -> f32 {
        palette.get(i).copied().unwrap_or(random)
    }

    proptest! {
        #![proptest_config(prop::test_runner::Config::with_cases(256))]

        /// The dense fold against the sort-based reference, on matched
        /// columns of 0–40 tags over three chunks of slots: up to 400
        /// draws per column fill a chunk from empty to well past the
        /// dense/sparse boundary, so both forms and the crossing occur,
        /// yet a few hits per entity keep single-hit `-0.0` scores
        /// common. Similarities include negative ones. Entity ids, score
        /// bits and order (slot order) must all agree.
        #[test]
        fn dense_fold_matches_the_sort_fold_reference(
            raw in prop::collection::vec(
                (
                    0usize..SIMS.len() + 2,
                    -1.0f32..1.0,
                    prop::collection::vec(
                        (0usize..3 * CHUNK - 20, 0usize..DEGREES.len() + 1, -4.0f32..4.0),
                        0..400,
                    ),
                ),
                0..41,
            ),
        ) {
            let mut ids = SlotIds::default();
            for slot in 0..3 * CHUNK {
                ids.push(slot * 15_625 + 7);
            }
            let columns: Vec<(f32, PostingColumn)> = raw
                .iter()
                .map(|(s, s_rand, postings)| {
                    let mut slots: Vec<(usize, f32)> = postings
                        .iter()
                        .map(|&(slot, d, d_rand)| (slot, pick(DEGREES, d, d_rand)))
                        .collect();
                    slots.sort_by_key(|&(slot, _)| slot);
                    slots = keep_last(slots, |a, b| a.0 == b.0);
                    (pick(SIMS, *s, *s_rand), PostingColumn::from_slots(slots))
                })
                .collect();
            let mut matches = Matches::default();
            let mut hits: Vec<(usize, f32)> = Vec::new();
            for (sim, column) in &columns {
                matches.push(*sim, column);
                for (_, _, postings) in column.layout() {
                    hits.extend(
                        postings
                            .iter()
                            .map(|&(slot, d)| (ids.get(slot), sim * f32::from_bits(d))),
                    );
                }
            }
            let folded = matches.fold(&ids);
            prop_assert!(folded.windows(2).all(|w| w[0].0 < w[1].0), "slot order");
            prop_assert_eq!(ranked_bits(&folded), ranked_bits(&rank_hits(hits)));
        }
    }

    proptest! {
        /// A fallback probe through `install_postings` equals the fold
        /// computed here from `lookup` and the scorer, through the
        /// cell index and the scan alike. Entity ids are sparse
        /// (multiples of 15625 up to 984375) and repeat across tags
        /// and within a list (the last degree stays).
        #[test]
        fn fallback_probe_equals_an_in_test_fold(
            raw in prop::collection::vec(
                prop::collection::vec((0usize..64, 0usize..DEGREES.len() + 1, 0.0f32..4.0), 0..12),
                INSTALLED.len()..INSTALLED.len() + 1,
            ),
            scan in prop::bool::ANY,
        ) {
            let mut idx = if scan { scan_index() } else { index() };
            idx.install_postings(INSTALLED.iter().zip(&raw).map(|(&(op, asp), postings)| {
                let pairs = postings
                    .iter()
                    .map(|&(k, d, d_rand)| (k * 15_625, pick(DEGREES, d, d_rand)))
                    .collect();
                (tag(op, asp), pairs)
            }));
            for probe in [tag("scrumptious", "pizza"), tag("delicious", "meal"), tag("friendly", "waiters")] {
                prop_assert!(idx.lookup(&probe).is_none());
                let theta = idx.config().theta_filter;
                let scorer = idx.similarity();
                let resolved = scorer.resolve(&probe);
                let mut hits: Vec<(usize, f32)> = Vec::new();
                for t in idx.tags() {
                    let sim = scorer.score(&resolved, &scorer.resolve(t));
                    if let Some(postings) = idx.lookup(t).filter(|_| sim > theta) {
                        hits.extend(postings.iter().map(|(e, d)| (e, sim * d)));
                    }
                }
                prop_assert_eq!(
                    ranked_bits(&idx.probe_readonly(&probe)),
                    ranked_bits(&rank_hits(hits)),
                    "probe {:?} scan={}",
                    probe,
                    scan
                );
            }
        }
    }

    /// Index tags for the probe-level fold test: near neighbours of its
    /// probes, so every probe matches several of them.
    const INSTALLED: &[(&str, &str)] = &[
        ("delicious", "food"),
        ("tasty", "pasta"),
        ("good", "food"),
        ("great", "pizza"),
        ("nice", "staff"),
        ("friendly", "service"),
        ("cozy", "ambiance"),
    ];

    fn index() -> SubjectiveIndex {
        SubjectiveIndex::new(
            ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
            IndexConfig::default(),
        )
    }

    /// The scan reference: the same similarity, fed in as a custom one.
    fn scan_index() -> SubjectiveIndex {
        let sim = ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants));
        SubjectiveIndex::new(sim.clone(), IndexConfig::default()).with_custom_similarity(sim)
    }

    fn tag(op: &str, asp: &str) -> SubjectiveTag {
        SubjectiveTag::new(op, asp)
    }

    /// One entity's reviews: `(id, review count, tags)`.
    type Evidence<'a> = (usize, usize, &'a [(&'a str, &'a str)]);

    /// The published index of a memory-only live index over `entities`
    /// (each one review carrying all its tags, then `reviews - 1` empty
    /// reviews, so counts and folds are the given ones) with `tags`
    /// indexed.
    fn built(
        config: IndexConfig,
        entities: &[Evidence<'_>],
        tags: &[SubjectiveTag],
    ) -> Arc<LiveSnapshot> {
        let live = LiveIndex::new(
            ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
            config,
            LiveConfig {
                seal_every: 0,
                max_segments: 0,
            },
        );
        for &(id, reviews, review_tags) in entities {
            let review: Vec<SubjectiveTag> = review_tags.iter().map(|(o, a)| tag(o, a)).collect();
            live.add_review(id, &review);
            for _ in 1..reviews {
                live.add_review(id, &[]);
            }
        }
        live.add_tags(tags);
        live.pin()
    }

    fn built_default(entities: &[Evidence<'_>], tags: &[SubjectiveTag]) -> Arc<LiveSnapshot> {
        built(IndexConfig::default(), entities, tags)
    }

    /// A tag's postings ranked as Table 1 shows them.
    fn ranked(idx: &SubjectiveIndex, t: &SubjectiveTag) -> Vec<(usize, f32)> {
        let rows = idx.lookup(t).map(|p| p.table()).unwrap_or_default();
        rows.into_iter().map(|(e, d, _)| (e, d)).collect()
    }

    #[test]
    fn figure1_scenario() {
        // E1: "good food", E3: "superb atmosphere", E5: "amazing pizza".
        // Index tags: "good food", "great atmosphere". E1 and E5 must land
        // under "good food"; E3 must not.
        let idx = built_default(
            &[
                (1, 1, &[("good", "food")]),
                (3, 1, &[("superb", "atmosphere")]),
                (5, 1, &[("amazing", "pizza")]),
            ],
            &[tag("good", "food"), tag("great", "atmosphere")],
        );

        let food = idx.lookup(&tag("good", "food")).unwrap();
        let food_ids: Vec<usize> = food.iter().map(|(e, _)| e).collect();
        assert!(food_ids.contains(&1));
        assert!(
            food_ids.contains(&5),
            "amazing pizza ≈ good food (concept subsumption)"
        );
        assert!(!food_ids.contains(&3));

        let atmo = idx.lookup(&tag("great", "atmosphere")).unwrap();
        let atmo_ids: Vec<usize> = atmo.iter().map(|(e, _)| e).collect();
        assert_eq!(atmo_ids, vec![3]);
    }

    #[test]
    fn exact_mention_outranks_similar_mention() {
        let idx = built_default(
            &[
                (0, 3, &[("good", "food"), ("good", "food")]),
                (1, 3, &[("amazing", "pizza")]),
            ],
            &[tag("good", "food")],
        );
        let rows = idx.lookup(&tag("good", "food")).unwrap().table();
        assert_eq!(rows[0].0, 0);
        assert!(rows[0].1 > rows[1].1);
        assert_eq!(rows[0].2, 1.0);
    }

    #[test]
    fn review_volume_weights_degrees() {
        // Same mention profile, more reviews → higher degree (Eq. 1's
        // log(|R_e|+1) factor: "SACCS privileges the entities having more
        // reviews").
        let idx = built_default(
            &[(0, 2, &[("good", "food")]), (1, 50, &[("good", "food")])],
            &[tag("good", "food")],
        );
        let postings = ranked(&idx, &tag("good", "food"));
        assert_eq!(postings[0].0, 1);
        let ratio = postings[0].1 / postings[1].1;
        assert!((ratio - (51f32.ln() / 3f32.ln())).abs() < 1e-4);
    }

    #[test]
    fn volume_weight_can_be_ablated() {
        let idx = built(
            IndexConfig {
                degree_formula: DegreeFormula::PureMean,
                ..Default::default()
            },
            &[(0, 2, &[("good", "food")]), (1, 50, &[("good", "food")])],
            &[tag("good", "food")],
        );
        let postings = ranked(&idx, &tag("good", "food"));
        assert!((postings[0].1 - postings[1].1).abs() < 1e-6);
    }

    #[test]
    fn match_count_weight_rewards_mention_rate() {
        // Same review volume; entity 1 has three matching mentions, entity
        // 0 has one.
        let idx = built(
            IndexConfig {
                degree_formula: DegreeFormula::MatchVolume,
                ..Default::default()
            },
            &[
                (0, 10, &[("good", "food")]),
                (
                    1,
                    10,
                    &[("good", "food"), ("good", "food"), ("good", "food")],
                ),
            ],
            &[tag("good", "food")],
        );
        assert_eq!(ranked(&idx, &tag("good", "food"))[0].0, 1);
    }

    #[test]
    fn probe_unknown_tag_unions_similar_tags_and_records_history() {
        // §3.2's walk-through: "delicious food" is absent; it pulls from
        // "good food" and "creative cooking" postings.
        let idx = built_default(
            &[
                (0, 1, &[("good", "food")]),
                (1, 1, &[("creative", "cooking")]),
                (2, 1, &[("fast", "delivery")]),
            ],
            &[
                tag("good", "food"),
                tag("creative", "cooking"),
                tag("fast", "delivery"),
            ],
        );
        let result = by_score(idx.probe(&tag("delicious", "food")));
        let ids: Vec<usize> = result.iter().map(|(e, _)| *e).collect();
        assert!(ids.contains(&0), "good food contributor missing");
        assert!(ids.contains(&1), "creative cooking contributor missing");
        assert!(!ids.contains(&2), "fast delivery must not contribute");
        // good food is the closer tag → entity 0 scores above entity 1.
        assert_eq!(result[0].0, 0);
        assert_eq!(idx.history().len(), 1);
        assert!(idx.history().contains(&tag("delicious", "food")));
    }

    #[test]
    fn known_tag_probe_is_verbatim_and_leaves_no_history() {
        let idx = built_default(&[(0, 1, &[("nice", "staff")])], &[tag("nice", "staff")]);
        let result = idx.probe(&tag("nice", "staff"));
        assert_eq!(result.len(), 1);
        assert!(idx.history().is_empty());
    }

    #[test]
    fn opposite_polarity_never_enters_postings() {
        let idx = built_default(&[(0, 1, &[("bland", "food")])], &[tag("delicious", "food")]);
        assert!(idx.lookup(&tag("delicious", "food")).unwrap().is_empty());
    }

    #[test]
    fn installed_postings_round_trip_and_keep_cells_vs_scan_equality() {
        let idx = built_default(
            &[
                (0, 3, &[("good", "food"), ("nice", "staff")]),
                (1, 7, &[("creative", "cooking"), ("quick", "service")]),
                (2, 2, &[("romantic", "ambiance")]),
            ],
            &[
                tag("good", "food"),
                tag("nice", "staff"),
                tag("creative", "cooking"),
                tag("quick", "service"),
                tag("romantic", "ambiance"),
            ],
        );
        let raw = || {
            idx.tags()
                .map(|t| (t.clone(), idx.lookup(t).unwrap().iter().collect()))
                .collect::<Vec<(SubjectiveTag, Vec<(usize, f32)>)>>()
        };
        let table_bits = |index: &SubjectiveIndex, t: &SubjectiveTag| -> Vec<(usize, u32, u32)> {
            let rows = index.lookup(t).unwrap().table();
            rows.iter()
                .map(|&(e, d, n)| (e, d.to_bits(), n.to_bits()))
                .collect()
        };

        let mut installed = index();
        installed.install_postings(raw());
        assert_eq!(installed.len(), idx.len());
        // The entities arrived in id order, so the bulk load gives them
        // the same slots: each column and its Table-1 rows (ranked,
        // normalized) come back bit for bit.
        for t in idx.tags() {
            let (a, b) = (idx.lookup(t).unwrap(), installed.lookup(t).unwrap());
            assert_eq!(a.len(), b.len());
            let bits = |p: Postings<'_>| -> Vec<(usize, u32)> {
                p.iter().map(|(e, d)| (e, d.to_bits())).collect()
            };
            assert_eq!(bits(a), bits(b));
            assert_eq!(table_bits(&idx, t), table_bits(&installed, t));
        }
        // And the cell index built by the one bulk load answers fallback
        // probes bitwise identically to a scan over the same columns.
        let mut scan = scan_index();
        scan.install_postings(raw());
        let slot_bits = |answer: Vec<(usize, f32)>| -> Vec<(usize, u32)> {
            answer.iter().map(|&(e, s)| (e, s.to_bits())).collect()
        };
        for probe in [tag("delicious", "food"), tag("friendly", "waiters")] {
            let cells = slot_bits(installed.probe_readonly(&probe));
            assert_eq!(cells, slot_bits(scan.probe_readonly(&probe)));
            assert!(!cells.is_empty());
        }
    }

    /// A second install replaces a tag's list and keeps the others; an
    /// entity listed twice in one list keeps its last degree; slots go
    /// in ascending id, so probes answer in id order.
    #[test]
    fn install_keeps_the_last_list_and_degree() {
        let mut idx = index();
        idx.install_postings([
            (tag("good", "food"), vec![(9, 1.0), (4, 2.0), (9, 3.0)]),
            (tag("nice", "staff"), vec![(7, 0.5)]),
        ]);
        idx.install_postings([(tag("nice", "staff"), vec![(5, 0.25), (2, 0.75)])]);
        assert_eq!(
            idx.probe_readonly(&tag("good", "food")),
            vec![(4, 2.0), (9, 3.0)]
        );
        assert_eq!(
            idx.probe_readonly(&tag("nice", "staff")),
            vec![(2, 0.75), (5, 0.25)]
        );
        assert_eq!(ranked(&idx, &tag("good", "food")), vec![(9, 3.0), (4, 2.0)]);
    }

    #[test]
    fn render_table_matches_table1_shape() {
        let idx = built_default(
            &[(0, 3, &[("good", "food")]), (1, 2, &[("tasty", "pizza")])],
            &[tag("good", "food")],
        );
        let table = idx.render_table(3, |id| format!("Entity-{id}"));
        assert!(table.contains("good food"));
        assert!(table.contains("Entity-0"));
        assert!(table.contains("(1.00)"));
    }
}
