//! The inverted index and Equation 1.
//!
//! [`SubjectiveIndex`] is the read-only view a live index publishes. Its
//! fallback probe resolves the probe tag once and scores it against the
//! index tags resolved where they entered (the shared cell index), by
//! scan or through the resolution cells.

use crate::ann::SemanticCandidateIndex;
use crate::history::UserTagHistory;
use parking_lot::Mutex;
use saccs_text::{ConceptualSimilarity, ResolvedTag, SubjectiveTag, TagSimilarity};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, MutexGuard};

/// One entity mapping under an index tag.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndexEntry {
    pub entity_id: usize,
    /// Degree of truth per Equation 1 (raw; grows with log review volume).
    pub degree_of_truth: f32,
    /// Degree rescaled to `[0, 1]` across the tag's entities — the form
    /// Table 1 displays.
    pub normalized: f32,
}

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

/// Posting lists by index tag. Each list is an immutable column behind
/// an `Arc`, so cloning the map — a live-ingest publish, the fallback
/// probe's cell index — shares every list instead of copying it.
pub type PostingColumns = BTreeMap<SubjectiveTag, Arc<[IndexEntry]>>;

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
/// lists. [`crate::LiveIndex`] computes every list (Equation 1) and
/// publishes its state as one of these per snapshot;
/// [`SubjectiveIndex::install_postings`] bulk-loads synthetic lists for
/// benches and tests.
pub struct SubjectiveIndex {
    config: IndexConfig,
    /// Degrees and probes score through `scoring.sim`; an index with a
    /// custom similarity answers fallback probes by scan.
    scoring: Scoring,
    /// Index tag → entity mappings, sorted by descending degree of truth.
    entries: PostingColumns,
    /// The user tag history is the only probe-path state that mutates at
    /// serving time, so it sits behind its own mutex: probes stay `&self`
    /// and many serving threads can record unknown tags concurrently.
    /// Every snapshot a `crate::LiveIndex` publishes shares that live
    /// index's one pending history through this `Arc`.
    history: Arc<Mutex<UserTagHistory>>,
    /// The tag set, each tag resolved once where it entered, and the
    /// resolution cells answering θ_filter fallback probes. Built where
    /// the tag set changes; every snapshot over one tag set shares it.
    cells: Arc<SemanticCandidateIndex>,
    /// `entries`' columns in tag order (`Arc` clones, not copies), so a
    /// fallback probe reads tag `id`'s column by position instead of a
    /// string-keyed tree lookup per candidate.
    columns: Vec<Arc<[IndexEntry]>>,
}

impl SubjectiveIndex {
    pub fn new(similarity: ConceptualSimilarity, config: IndexConfig) -> Self {
        Self::with_columns(
            Scoring::new(similarity),
            config,
            Arc::default(),
            PostingColumns::new(),
            Arc::default(),
        )
    }

    /// An index over `entries`, whose tag set `cells` resolves, that
    /// records unknown tags into `history`, shared with whoever else
    /// holds it (the live-ingest publish path hands every snapshot its
    /// writer's columns and cell index, its similarity and its live
    /// index's pending history).
    pub(crate) fn with_columns(
        scoring: Scoring,
        config: IndexConfig,
        history: Arc<Mutex<UserTagHistory>>,
        entries: PostingColumns,
        cells: Arc<SemanticCandidateIndex>,
    ) -> Self {
        let columns = entries.values().cloned().collect();
        SubjectiveIndex {
            config,
            scoring,
            entries,
            history,
            cells,
            columns,
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
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over the index tags.
    pub fn tags(&self) -> impl Iterator<Item = &SubjectiveTag> {
        self.entries.keys()
    }

    /// Exact posting-list lookup.
    pub fn lookup(&self, tag: &SubjectiveTag) -> Option<&[IndexEntry]> {
        self.entries.get(tag).map(|v| &v[..])
    }

    /// Exact posting-list length for a tag (`0` when the tag is not
    /// indexed). The cost-based filter planner in `saccs-query` orders
    /// intersections rarest-first on these per-tag statistics.
    pub fn posting_len(&self, tag: &SubjectiveTag) -> usize {
        self.entries.get(tag).map(|v| v.len()).unwrap_or(0)
    }

    /// Iterate `(tag, posting length)` statistics in ascending tag
    /// order — the planner's cardinality-estimation input.
    pub fn posting_stats(&self) -> impl Iterator<Item = (&SubjectiveTag, usize)> {
        self.entries.iter().map(|(t, v)| (t, v.len()))
    }

    /// Install precomputed posting lists from raw `(entity_id, degree)`
    /// pairs per tag, each ordered and normalized exactly like an
    /// indexing round (shared `finalize_postings`), then resolve the tag
    /// set and build the cell index once. A tag installed twice keeps its
    /// last list. Benches and property tests use this to assemble
    /// synthetic corpora of known posting shapes without fabricating
    /// review evidence.
    pub fn install_postings(
        &mut self,
        columns: impl IntoIterator<Item = (SubjectiveTag, Vec<(usize, f32)>)>,
    ) {
        for (tag, raw) in columns {
            let mut postings: Vec<IndexEntry> = raw
                .into_iter()
                .map(|(entity_id, degree_of_truth)| IndexEntry {
                    entity_id,
                    degree_of_truth,
                    normalized: 0.0,
                })
                .collect();
            finalize_postings(&mut postings);
            self.entries.insert(tag, postings.into());
        }
        let tags = self.entries.keys().cloned().collect();
        self.cells = Arc::new(SemanticCandidateIndex::build(self.similarity(), tags));
        self.columns = self.entries.values().cloned().collect();
    }

    /// Probe the index for a (possibly unknown) tag, per §3.2:
    ///
    /// * known tag → its postings verbatim;
    /// * unknown tag → union of postings of all index tags with
    ///   `similarity > θ_filter`, each entity's score summed over matching
    ///   tags as `Σ sim × degree`, and the tag is recorded in the user tag
    ///   history for the next indexing round.
    ///
    /// Returns `(entity_id, score)` sorted by descending score. Takes
    /// `&self`: the only mutation is the history record, which goes
    /// through the history mutex so concurrent serving threads can probe
    /// one shared index.
    pub fn probe(&self, tag: &SubjectiveTag) -> Vec<(usize, f32)> {
        if !self.entries.contains_key(tag) {
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
        if let Some(postings) = self.entries.get(tag) {
            // A known tag answers verbatim (§3.2) — unless its posting
            // list is empty (indexed, but no entity's reviews mention it),
            // in which case the similarity fallback is strictly more
            // informative than silence.
            if !postings.is_empty() {
                saccs_obs::counter!("index.probe.exact").inc();
                saccs_obs::trace::record(saccs_obs::trace::TraceEvent::Probe { exact: true });
                return postings
                    .iter()
                    .map(|e| (e.entity_id, e.degree_of_truth))
                    .collect();
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
        if self.scoring.custom.is_some() || self.entries.is_empty() {
            self.probe_scan(&probe, theta)
        } else {
            self.probe_cells(&probe, theta)
        }
    }

    /// The exhaustive θ_filter fallback: score every index tag. The only
    /// path a custom similarity allows.
    fn probe_scan(&self, probe: &ResolvedTag<'_>, theta: f32) -> Vec<(usize, f32)> {
        let mut matches = Matches::default();
        for (id, postings) in self.columns.iter().enumerate() {
            let sim = self.scoring.sim(probe, &self.cells.resolved(id));
            if sim > theta {
                matches.push(sim, postings);
            }
        }
        matches.rank()
    }

    /// The cell-index fallback: fetch candidates scored in ascending tag
    /// order (= the scan's iteration order), and rank. The candidate set
    /// is a superset of the scan's matches, so the surviving `(tag,
    /// posting)` sequence — and with it every f32 addition — is identical
    /// to the scan's and the ranking is bitwise equal.
    fn probe_cells(&self, probe: &ResolvedTag<'_>, theta: f32) -> Vec<(usize, f32)> {
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
        matches.rank()
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
        for (tag, postings) in &self.entries {
            let mut first = true;
            for e in postings.iter().take(top_k) {
                if first {
                    out.push_str(&format!("{:<22} ", tag.phrase()));
                    first = false;
                } else {
                    out.push_str(&" ".repeat(23));
                }
                out.push_str(&format!("{} ({:.2})\n", name_of(e.entity_id), e.normalized));
            }
            if postings.is_empty() {
                out.push_str(&format!("{:<22} (no entities)\n", tag.phrase()));
            }
        }
        out
    }
}

/// Order a freshly computed posting list and fill in the normalized
/// column: stable sort by descending degree (ties keep first-seen entity
/// order), then rescale against the max. Shared by the live writer and
/// [`SubjectiveIndex::install_postings`], so a bulk-loaded list is laid
/// out exactly like a computed one.
pub(crate) fn finalize_postings(postings: &mut [IndexEntry]) {
    postings.sort_by(|a, b| b.degree_of_truth.total_cmp(&a.degree_of_truth));
    let max = postings.first().map(|e| e.degree_of_truth).unwrap_or(0.0);
    if max > 0.0 {
        for e in postings.iter_mut() {
            e.normalized = e.degree_of_truth / max;
        }
    }
}

/// The posting lists one θ_filter fallback probe matched, as
/// `(sim, postings)` in ascending tag order (the scan's iteration
/// order, which the cell-index rescore replays), plus the slot-array size.
#[derive(Default)]
struct Matches<'a> {
    lists: Vec<(f32, &'a [IndexEntry])>,
    /// One past the largest entity id in `lists`.
    slots: usize,
}

impl<'a> Matches<'a> {
    fn push(&mut self, sim: f32, postings: &'a [IndexEntry]) {
        for e in postings {
            self.slots = self.slots.max(e.entity_id + 1);
        }
        self.lists.push((sim, postings));
    }

    /// Fold the matches into the ranked `(entity, Σ sim × degree)` list
    /// through one dense slot array of scores indexed by entity id, plus
    /// the list of touched ids: O(H + U log U) for H hits over U
    /// distinct entities. An entity's first contribution *seeds* its
    /// slot (never `0.0 + v`, which would turn a `-0.0` into `+0.0`) and
    /// later ones add in tag-major encounter order — the same f32
    /// additions, in the same order, as a stable sort of the hits by
    /// entity followed by a left-to-right fold, so scores are
    /// bit-for-bit those of that fold.
    fn rank(self) -> Vec<(usize, f32)> {
        let mut scores: Vec<Option<f32>> = vec![None; self.slots];
        let mut touched: Vec<usize> = Vec::new();
        for (sim, postings) in self.lists {
            for e in postings {
                let v = sim * e.degree_of_truth;
                match &mut scores[e.entity_id] {
                    Some(score) => *score += v,
                    slot @ None => {
                        *slot = Some(v);
                        touched.push(e.entity_id);
                    }
                }
            }
        }
        let mut out: Vec<(usize, f32)> = touched
            .into_iter()
            .filter_map(|id| scores[id].map(|s| (id, s)))
            .collect();
        // Ids are distinct, so the unstable sort is still deterministic.
        out.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::{LiveConfig, LiveIndex, LiveSnapshot};
    use proptest::prelude::*;
    use saccs_text::{Domain, Lexicon};

    /// The reference the dense fold must reproduce: stable-sort the
    /// `(entity, sim × degree)` hits — recorded in tag-major order — by
    /// entity, fold each run left to right (seeded with its first
    /// value), then rank by `(score desc, id asc)`.
    fn rank_hits(mut hits: Vec<(usize, f32)>) -> Vec<(usize, f32)> {
        hits.sort_by_key(|&(id, _)| id);
        let mut out: Vec<(usize, f32)> = Vec::with_capacity(hits.len());
        for (id, v) in hits {
            match out.last_mut() {
                Some((last, acc)) if *last == id => *acc += v,
                _ => out.push((id, v)),
            }
        }
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    fn ranked_bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
        ranked.iter().map(|&(e, s)| (e, s.to_bits())).collect()
    }

    /// Similarities with ties; the last slot draws a random one.
    const SIMS: &[f32] = &[0.5, 0.5, 0.75, 1.0, 0.46];

    /// Degrees with signed zeros, subnormals and ties; the last slot
    /// draws a random one.
    const DEGREES: &[f32] = &[
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

    fn pick(palette: &[f32], i: usize, random: f32) -> f32 {
        palette.get(i).copied().unwrap_or(random)
    }

    proptest! {
        #![proptest_config(prop::test_runner::Config::with_cases(256))]

        /// The dense accumulator against the sort-based reference, on
        /// matched lists of 0–40 tags over a pool of sparse entity ids:
        /// entities repeat within and across tags, yet a few hits per
        /// entity keep single-hit `-0.0` scores common. Ids, score bits
        /// and order must all agree.
        #[test]
        fn dense_fold_matches_the_sort_fold_reference(
            pool in prop::collection::vec(0usize..1_000_001, 1..48),
            raw in prop::collection::vec(
                (
                    0usize..SIMS.len() + 1,
                    0.0f32..1.0,
                    prop::collection::vec(
                        (0usize..64, 0usize..DEGREES.len() + 1, -4.0f32..4.0),
                        0..8,
                    ),
                ),
                0..41,
            ),
        ) {
            let lists: Vec<(f32, Vec<IndexEntry>)> = raw
                .iter()
                .map(|(s, s_rand, postings)| {
                    let postings = postings
                        .iter()
                        .map(|&(k, d, d_rand)| IndexEntry {
                            entity_id: pool[k % pool.len()],
                            degree_of_truth: pick(DEGREES, d, d_rand),
                            normalized: 0.0,
                        })
                        .collect();
                    (pick(SIMS, *s, *s_rand), postings)
                })
                .collect();
            let mut matches = Matches::default();
            let mut hits: Vec<(usize, f32)> = Vec::new();
            for (sim, postings) in &lists {
                matches.push(*sim, postings);
                hits.extend(postings.iter().map(|e| (e.entity_id, sim * e.degree_of_truth)));
            }
            prop_assert_eq!(ranked_bits(&matches.rank()), ranked_bits(&rank_hits(hits)));
        }
    }

    proptest! {
        /// A fallback probe through `install_postings` equals the fold
        /// computed here from `lookup` and the scorer, through the
        /// cell index and the scan alike. Entity ids are sparse
        /// (multiples of 15625 up to 984375) and repeat across tags.
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
                    if sim > theta {
                        let postings = idx.lookup(t).unwrap_or_default();
                        hits.extend(postings.iter().map(|e| (e.entity_id, sim * e.degree_of_truth)));
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
        let food_ids: Vec<usize> = food.iter().map(|e| e.entity_id).collect();
        assert!(food_ids.contains(&1));
        assert!(
            food_ids.contains(&5),
            "amazing pizza ≈ good food (concept subsumption)"
        );
        assert!(!food_ids.contains(&3));

        let atmo = idx.lookup(&tag("great", "atmosphere")).unwrap();
        let atmo_ids: Vec<usize> = atmo.iter().map(|e| e.entity_id).collect();
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
        let postings = idx.lookup(&tag("good", "food")).unwrap();
        assert_eq!(postings[0].entity_id, 0);
        assert!(postings[0].degree_of_truth > postings[1].degree_of_truth);
        assert_eq!(postings[0].normalized, 1.0);
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
        let postings = idx.lookup(&tag("good", "food")).unwrap();
        assert_eq!(postings[0].entity_id, 1);
        let ratio = postings[0].degree_of_truth / postings[1].degree_of_truth;
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
        let postings = idx.lookup(&tag("good", "food")).unwrap();
        assert!((postings[0].degree_of_truth - postings[1].degree_of_truth).abs() < 1e-6);
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
        let postings = idx.lookup(&tag("good", "food")).unwrap();
        assert_eq!(postings[0].entity_id, 1);
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
        let result = idx.probe(&tag("delicious", "food"));
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
                .map(|t| {
                    let postings = idx.lookup(t).unwrap_or_default();
                    let pairs = postings
                        .iter()
                        .map(|e| (e.entity_id, e.degree_of_truth))
                        .collect();
                    (t.clone(), pairs)
                })
                .collect::<Vec<(SubjectiveTag, Vec<(usize, f32)>)>>()
        };

        let mut installed = index();
        installed.install_postings(raw());
        assert_eq!(installed.len(), idx.len());
        // Re-finalizing an indexing round's own lists reproduces them
        // bit for bit, normalized column included.
        for t in idx.tags() {
            let a = idx.lookup(t).unwrap();
            let b = installed.lookup(t).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.entity_id, y.entity_id);
                assert_eq!(x.degree_of_truth.to_bits(), y.degree_of_truth.to_bits());
                assert_eq!(x.normalized.to_bits(), y.normalized.to_bits());
            }
        }
        // And the cell index built by the one bulk load answers fallback
        // probes bitwise identically to a scan over the same columns.
        let mut scan = scan_index();
        scan.install_postings(raw());
        for probe in [tag("delicious", "food"), tag("friendly", "waiters")] {
            let cells = installed.probe_readonly(&probe);
            assert_eq!(
                ranked_bits(&cells),
                ranked_bits(&scan.probe_readonly(&probe))
            );
            assert!(!cells.is_empty());
        }
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
