//! The inverted index and Equation 1.

use crate::ann::SemanticCandidateIndex;
use crate::history::UserTagHistory;
use parking_lot::Mutex;
use saccs_text::{ConceptualSimilarity, SubjectiveTag, TagSimilarity};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
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
    /// §7 future-work extension: adjust θ_filter "dynamically depending on
    /// the semantics of the subjective tags being compared". When enabled,
    /// probes for tags with *generic* opinions (good/bad — promiscuous
    /// matchers under the generic bridge) use a raised threshold, while
    /// specific in-lexicon tags probe with a slightly lowered one.
    pub dynamic_thresholds: bool,
    /// Answer fallback probes through the resolution-cell candidate
    /// index in [`crate::ann`] instead of the exhaustive scan. Results
    /// stay bitwise identical to the scan (sound upper-bound pruning +
    /// exact rescore). Only the default conceptual similarity has cells;
    /// an index with a custom similarity keeps scanning.
    pub ann_enabled: bool,
    /// Equality mode for the paper tables: run *both* the exhaustive scan
    /// and the ANN probe, count bitwise mismatches
    /// (`index.probe.ann.mismatch`), and always return the scan result.
    pub ann_verify: bool,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            theta_index: 0.45,
            theta_filter: 0.45,
            degree_formula: DegreeFormula::Equation1,
            dynamic_thresholds: false,
            ann_enabled: false,
            ann_verify: false,
        }
    }
}

/// Per-entity evidence handed to the indexer: the bag of subjective tags
/// the extractor pulled out of the entity's reviews, plus the review count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EntityEvidence {
    pub entity_id: usize,
    pub review_count: usize,
    pub review_tags: Vec<SubjectiveTag>,
}

/// The subjective-tag inverted index.
pub struct SubjectiveIndex {
    config: IndexConfig,
    similarity: ConceptualSimilarity,
    /// Optional override for the tag-similarity measure used in degree
    /// computation and probes (e.g. embedding cosine for the footnote-2
    /// ablation). The lexicon-backed [`ConceptualSimilarity`] stays in
    /// place for dynamic thresholds and profile weighting. `Send + Sync`
    /// so a service built on this index can be shared across serving
    /// threads.
    custom_similarity: Option<Box<dyn TagSimilarity + Send + Sync>>,
    /// Index tag → entity mappings, sorted by descending degree of truth.
    entries: BTreeMap<SubjectiveTag, Vec<IndexEntry>>,
    /// Evidence retained for incremental re-indexing rounds.
    evidence: Vec<EntityEvidence>,
    /// The user tag history is the only probe-path state that mutates at
    /// serving time, so it sits behind its own mutex: probes stay `&self`
    /// and many serving threads can record unknown tags concurrently.
    /// Every snapshot a `crate::LiveIndex` publishes shares that live
    /// index's one pending history through this `Arc`.
    history: Arc<Mutex<UserTagHistory>>,
    /// ANN sidecar, rebuilt eagerly by every `&mut` entry mutation when
    /// `ann_enabled` — probes stay `&self`.
    ann: Option<AnnState>,
}

/// The ANN sidecar: the lexicographic tag list candidate ids index into,
/// its posting lists (cloned at rebuild so a rescore is one indexed read
/// instead of a string-keyed tree lookup per candidate), and the
/// resolution cells.
struct AnnState {
    tags: Vec<SubjectiveTag>,
    postings: Vec<Vec<IndexEntry>>,
    cells: SemanticCandidateIndex,
}

impl SubjectiveIndex {
    pub fn new(similarity: ConceptualSimilarity, config: IndexConfig) -> Self {
        Self::with_history(similarity, config, Arc::default())
    }

    /// An empty index whose probes record unknown tags into `history`,
    /// shared with whoever else holds it (the live-ingest publish path
    /// hands every snapshot its live index's pending history).
    pub(crate) fn with_history(
        similarity: ConceptualSimilarity,
        config: IndexConfig,
        history: Arc<Mutex<UserTagHistory>>,
    ) -> Self {
        SubjectiveIndex {
            config,
            similarity,
            custom_similarity: None,
            entries: BTreeMap::new(),
            evidence: Vec::new(),
            history,
            ann: None,
        }
    }

    /// Replace the similarity measure used for degrees and probes (the
    /// conceptual-vs-cosine ablation hook). Call before `index_tags`.
    pub fn with_custom_similarity(mut self, similarity: impl TagSimilarity + 'static) -> Self {
        self.custom_similarity = Some(Box::new(similarity));
        self
    }

    /// The similarity score used for degrees and probes.
    fn sim(&self, a: &SubjectiveTag, b: &SubjectiveTag) -> f32 {
        match &self.custom_similarity {
            Some(s) => s.similarity(a, b),
            None => self.similarity.tag_similarity(a, b),
        }
    }

    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The similarity checker backing this index.
    pub fn similarity(&self) -> &ConceptualSimilarity {
        &self.similarity
    }

    /// Switch the degree formula. Takes effect on the next
    /// [`SubjectiveIndex::index_tags`] call; existing postings are not
    /// recomputed automatically.
    pub fn set_degree_formula(&mut self, formula: DegreeFormula) {
        self.config.degree_formula = formula;
    }

    /// Toggle the ANN fallback probe on an already-built index (the
    /// scan-vs-ANN A/B hook), rebuilding or dropping the sidecar.
    pub fn set_ann_enabled(&mut self, enabled: bool) {
        self.config.ann_enabled = enabled;
        self.rebuild_ann();
    }

    /// Rebuild the ANN sidecar from the current entries. Always runs over
    /// the lexicographically sorted tag list, so the structure is a pure
    /// function of the tag set — independent of insertion order and of
    /// the thread count.
    fn rebuild_ann(&mut self) {
        self.ann = None;
        // A custom similarity has no upper bounds to prune cells by:
        // fallback probes keep scanning.
        if !self.config.ann_enabled || self.entries.is_empty() || self.custom_similarity.is_some() {
            return;
        }
        let tags: Vec<SubjectiveTag> = self.entries.keys().cloned().collect();
        let postings: Vec<Vec<IndexEntry>> = self.entries.values().cloned().collect();
        let cells = SemanticCandidateIndex::build(&self.similarity, &tags);
        self.ann = Some(AnnState {
            tags,
            postings,
            cells,
        });
    }

    /// Register extracted evidence for one entity (idempotent per entity:
    /// later registrations replace earlier ones).
    pub fn register_entity(&mut self, evidence: EntityEvidence) {
        if let Some(existing) = self
            .evidence
            .iter_mut()
            .find(|e| e.entity_id == evidence.entity_id)
        {
            *existing = evidence;
        } else {
            self.evidence.push(evidence);
        }
    }

    /// Degree of truth of `tag` for one entity (Equation 1):
    /// `log(|R_e| + 1) × mean{ Sim(tag, t) : t ∈ T_e, Sim > θ_index }`,
    /// or `None` when no review tag clears the threshold.
    fn degree_of_truth(&self, tag: &SubjectiveTag, evidence: &EntityEvidence) -> Option<f32> {
        let mut sum = 0.0f32;
        let mut n = 0usize;
        for t in &evidence.review_tags {
            let sim = self.sim(tag, t);
            if sim > self.config.theta_index {
                sum += sim;
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        Some(degree_value(
            self.config.degree_formula,
            sum,
            n,
            evidence.review_count,
            evidence.review_tags.len(),
        ))
    }

    /// Compute one tag's posting list from the registered evidence.
    fn build_postings(&self, tag: &SubjectiveTag) -> Vec<IndexEntry> {
        let mut postings: Vec<IndexEntry> = self
            .evidence
            .iter()
            .filter_map(|ev| {
                self.degree_of_truth(tag, ev).map(|d| IndexEntry {
                    entity_id: ev.entity_id,
                    degree_of_truth: d,
                    normalized: 0.0,
                })
            })
            .collect();
        finalize_postings(&mut postings);
        postings
    }

    /// Replace the entries map wholesale (the live-ingest publish path:
    /// `crate::live` computes posting lists incrementally and installs
    /// them here so a snapshot index probes exactly like a from-scratch
    /// build). Rebuilds the ANN sidecar for the new segment set.
    pub(crate) fn replace_entries(&mut self, entries: BTreeMap<SubjectiveTag, Vec<IndexEntry>>) {
        self.entries = entries;
        self.rebuild_ann();
    }

    /// (Re)index the given tags against all registered evidence. Existing
    /// tags are recomputed; construction fans out one task per tag across
    /// the `saccs-rt` pool. Posting lists come back positionally and each
    /// is a pure function of `(tag, evidence)`, so the resulting index is
    /// bitwise independent of the thread count.
    pub fn index_tags(&mut self, tags: &[SubjectiveTag]) {
        let _build = saccs_obs::span!("index.build");
        saccs_obs::counter!("index.build.tags").add(tags.len() as u64);
        let this = &*self;
        let postings = saccs_rt::parallel_map(tags.len(), 4, |i| this.build_postings(&tags[i]));
        for (tag, postings) in tags.iter().zip(postings) {
            self.entries.insert(tag.clone(), postings);
        }
        self.rebuild_ann();
    }

    /// Fallible [`SubjectiveIndex::index_tags`] behind the `index.build`
    /// failpoint. A failed call leaves the index exactly as it was (the
    /// fault fires before any posting list is rebuilt), so callers can
    /// retry the whole round.
    pub fn try_index_tags(
        &mut self,
        tags: &[SubjectiveTag],
    ) -> Result<(), saccs_fault::FaultError> {
        saccs_fault::failpoint!("index.build")?;
        self.index_tags(tags);
        Ok(())
    }

    /// Run an indexing round over the accumulated user tag history
    /// (Figure 1's "next indexing round"): every tag users asked about and
    /// the index didn't know becomes a first-class index tag. Returns how
    /// many new tags were indexed.
    pub fn reindex_from_history(&mut self) -> usize {
        let pending = self.history.lock().drain();
        let fresh: Vec<SubjectiveTag> = pending
            .into_iter()
            .filter(|t| !self.entries.contains_key(t))
            .collect();
        saccs_obs::counter!("index.reindex.rounds").inc();
        saccs_obs::counter!("index.reindex.tags").add(fresh.len() as u64);
        self.index_tags(&fresh);
        fresh.len()
    }

    /// Drop all indexed tags (registered evidence is kept, so a fresh
    /// `index_tags` call rebuilds from the same extractions). Used by the
    /// Table-2 runs to evaluate 6/12/18-tag index states on one pipeline.
    pub fn clear_tags(&mut self) {
        self.entries.clear();
        self.ann = None;
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

    /// Export the current posting lists into a [`crate::TagAutomaton`]
    /// (the §7 search-automaton alternative: exact/prefix/fuzzy surface
    /// lookups in O(|phrase|)).
    pub fn to_automaton(&self) -> crate::TagAutomaton {
        crate::TagAutomaton::build(self.entries.iter().map(|(t, p)| (t.clone(), p.clone())))
    }

    /// Exact posting-list lookup.
    pub fn lookup(&self, tag: &SubjectiveTag) -> Option<&[IndexEntry]> {
        self.entries.get(tag).map(|v| v.as_slice())
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

    /// Install a precomputed posting list for one tag from raw
    /// `(entity_id, degree)` pairs, ordered and normalized exactly like
    /// an indexing round (shared `finalize_postings`). Benches and
    /// property tests use this to assemble synthetic corpora of known
    /// posting shapes without fabricating review evidence.
    pub fn install_postings(&mut self, tag: SubjectiveTag, raw: Vec<(usize, f32)>) {
        let mut postings: Vec<IndexEntry> = raw
            .into_iter()
            .map(|(entity_id, degree_of_truth)| IndexEntry {
                entity_id,
                degree_of_truth,
                normalized: 0.0,
            })
            .collect();
        finalize_postings(&mut postings);
        self.entries.insert(tag, postings);
        self.rebuild_ann();
    }

    /// Effective θ_filter for a probe tag (the §7 dynamic-threshold
    /// extension; equals the configured θ_filter when disabled).
    pub fn theta_filter_for(&self, tag: &SubjectiveTag) -> f32 {
        if !self.config.dynamic_thresholds {
            return self.config.theta_filter;
        }
        let lex = self.similarity.lexicon();
        let base = self.config.theta_filter;
        match lex.opinion_group(&tag.opinion) {
            // Never *loosen* a generic probe, even when the configured
            // base already sits above the 0.95 cap.
            Some(g) if g.generic => (base + 0.15).min(0.95).max(base),
            Some(_) if lex.aspect_concept(&tag.aspect).is_some() => (base - 0.05).max(0.05),
            _ => base,
        }
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
        let theta = self.theta_filter_for(tag);
        let Some(state) = &self.ann else {
            return self.probe_scan(tag, theta);
        };
        if !self.config.ann_verify {
            return self.probe_ann(state, tag, theta);
        }
        // Equality mode: answer from the scan, run the ANN probe
        // alongside, and account every bitwise divergence.
        let scan = self.probe_scan(tag, theta);
        if Self::ranked_bitwise_eq(&scan, &self.probe_ann(state, tag, theta)) {
            saccs_obs::counter!("index.probe.ann.verified").inc();
        } else {
            saccs_obs::counter!("index.probe.ann.mismatch").inc();
        }
        scan
    }

    /// The exhaustive θ_filter fallback: score every index tag.
    fn probe_scan(&self, tag: &SubjectiveTag, theta: f32) -> Vec<(usize, f32)> {
        let mut hits: Vec<(usize, f32)> = Vec::new();
        for (index_tag, postings) in &self.entries {
            let sim = self.sim(tag, index_tag);
            if sim > theta {
                for e in postings {
                    hits.push((e.entity_id, sim * e.degree_of_truth));
                }
            }
        }
        Self::rank_hits(hits)
    }

    /// ANN fallback: fetch candidates, exactly rescore them in ascending
    /// tag order (= the scan's iteration order), and rank. The candidate
    /// set is a superset of the scan's matches, so the surviving `(tag,
    /// posting)` sequence — and with it every f32 addition — is identical
    /// to the scan's and the ranking is bitwise equal.
    fn probe_ann(&self, state: &AnnState, tag: &SubjectiveTag, theta: f32) -> Vec<(usize, f32)> {
        let mut hits: Vec<(usize, f32)> = Vec::new();
        let mut rescored = 0u32;
        // Fused candidate + per-cell exact rescore: scores come back
        // bitwise equal to `sim()` without paying a lexicon resolution
        // per candidate.
        let sc = state
            .cells
            .rescore(&self.similarity, tag, theta, &state.tags);
        for &(id, sim) in &sc.scored {
            if sim > theta {
                rescored += 1;
                for e in &state.postings[id as usize] {
                    hits.push((e.entity_id, sim * e.degree_of_truth));
                }
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
        Self::rank_hits(hits)
    }

    /// Collapse `(entity, sim × degree)` hits — recorded in tag-major
    /// scan order — into the ranked `(entity, score)` list. The stable
    /// sort keeps each entity's contributions in encounter order, so the
    /// left-to-right fold adds them in exactly the sequence the previous
    /// `BTreeMap` accumulation did: scores are bit-for-bit unchanged,
    /// without a tree lookup per hit (`BENCH_probe` measures the win).
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

    /// Exact (id, score-bits, order) equality of two rankings.
    fn ranked_bitwise_eq(a: &[(usize, f32)], b: &[(usize, f32)]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
    }

    /// Pending unknown tags (user tag history). Returns the guard; the
    /// `Deref` impl keeps existing `.len()`/`.contains()` call sites
    /// working, but holding it across another probe blocks that probe's
    /// history record.
    pub fn history(&self) -> MutexGuard<'_, UserTagHistory> {
        self.history.lock()
    }

    /// Serialize the posting lists to bytes: one `opinion|aspect\t
    /// id:degree:norm,...` line per tag, straight off the entries map —
    /// no intermediate keyed map, no posting-list clones. The user tag
    /// history follows as `#history\topinion|aspect\tcount` lines, so a
    /// snapshot taken mid-flight (unknown tags recorded but not yet
    /// re-indexed) restores with those in-flight requests intact instead
    /// of silently dropping the next indexing round's input.
    pub fn snapshot(&self) -> bytes::Bytes {
        let mut out = String::new();
        for (tag, entries) in &self.entries {
            out.push_str(&tag.opinion);
            out.push('|');
            out.push_str(&tag.aspect);
            out.push('\t');
            for (i, e) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{}:{}:{}",
                    e.entity_id, e.degree_of_truth, e.normalized
                );
            }
            out.push('\n');
        }
        let history = self.history.lock();
        for (tag, count) in history.entries() {
            let _ = writeln!(out, "#history\t{}|{}\t{count}", tag.opinion, tag.aspect);
        }
        bytes::Bytes::from(out.into_bytes())
    }

    /// Rebuild the posting lists from a [`SubjectiveIndex::snapshot`]
    /// byte image, replacing the current entries (registered evidence is
    /// untouched) and rebuilding the ANN sidecar. Returns the number of
    /// restored tags. `f32` values round-trip exactly: `Display` prints
    /// the shortest decimal that parses back to the same bits.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<usize, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("snapshot is not UTF-8: {e}"))?;
        let mut entries: BTreeMap<SubjectiveTag, Vec<IndexEntry>> = BTreeMap::new();
        let mut history = UserTagHistory::new();
        for (ln, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let bad = |what: &str| format!("snapshot line {}: {what}", ln + 1);
            let (key, rest) = line.split_once('\t').ok_or_else(|| bad("missing tab"))?;
            if key == "#history" {
                let (tag_key, count) = rest
                    .split_once('\t')
                    .ok_or_else(|| bad("history line needs tag\\tcount"))?;
                let (opinion, aspect) = tag_key
                    .split_once('|')
                    .ok_or_else(|| bad("missing | in history tag"))?;
                history.set_count(
                    SubjectiveTag::new(opinion, aspect),
                    count.parse().map_err(|_| bad("bad history count"))?,
                );
                continue;
            }
            let (opinion, aspect) = key
                .split_once('|')
                .ok_or_else(|| bad("missing | in tag key"))?;
            let tag = SubjectiveTag {
                opinion: opinion.to_string(),
                aspect: aspect.to_string(),
            };
            let mut postings: Vec<IndexEntry> = Vec::new();
            for part in rest.split(',').filter(|p| !p.is_empty()) {
                let mut fields = part.splitn(3, ':');
                match (fields.next(), fields.next(), fields.next()) {
                    (Some(id), Some(degree), Some(norm)) => postings.push(IndexEntry {
                        entity_id: id.parse().map_err(|_| bad("bad entity id"))?,
                        degree_of_truth: degree.parse().map_err(|_| bad("bad degree"))?,
                        normalized: norm.parse().map_err(|_| bad("bad normalized"))?,
                    }),
                    _ => return Err(bad("posting needs id:degree:norm")),
                }
            }
            entries.insert(tag, postings);
        }
        let restored = entries.len();
        self.entries = entries;
        *self.history.lock() = history;
        self.rebuild_ann();
        Ok(restored)
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

/// The degree-of-truth value for one `(tag, entity)` pair, given the
/// θ_index-filtered similarity fold `(sum, n)` over the entity's review
/// tags. Shared by the batch builder above and the incremental live
/// path (`crate::live`): both feed it the *same* left-fold `sum` (f32
/// addition in review order), so batch and incremental degrees are
/// bitwise identical.
pub(crate) fn degree_value(
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

/// Order a freshly computed posting list and fill in the normalized
/// column: stable sort by descending degree (ties keep evidence order),
/// then rescale against the max. Shared by batch and live builds so the
/// posting byte layout cannot drift between the two paths.
pub(crate) fn finalize_postings(postings: &mut [IndexEntry]) {
    postings.sort_by(|a, b| b.degree_of_truth.total_cmp(&a.degree_of_truth));
    let max = postings.first().map(|e| e.degree_of_truth).unwrap_or(0.0);
    if max > 0.0 {
        for e in postings.iter_mut() {
            e.normalized = e.degree_of_truth / max;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saccs_text::{Domain, Lexicon};

    fn index() -> SubjectiveIndex {
        SubjectiveIndex::new(
            ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
            IndexConfig::default(),
        )
    }

    fn tag(op: &str, asp: &str) -> SubjectiveTag {
        SubjectiveTag::new(op, asp)
    }

    fn evidence(id: usize, reviews: usize, tags: &[(&str, &str)]) -> EntityEvidence {
        EntityEvidence {
            entity_id: id,
            review_count: reviews,
            review_tags: tags.iter().map(|(o, a)| tag(o, a)).collect(),
        }
    }

    #[test]
    fn figure1_scenario() {
        // E1: "good food", E3: "superb atmosphere", E5: "amazing pizza".
        // Index tags: "good food", "great atmosphere". E1 and E5 must land
        // under "good food"; E3 must not.
        let mut idx = index();
        idx.register_entity(evidence(1, 1, &[("good", "food")]));
        idx.register_entity(evidence(3, 1, &[("superb", "atmosphere")]));
        idx.register_entity(evidence(5, 1, &[("amazing", "pizza")]));
        idx.index_tags(&[tag("good", "food"), tag("great", "atmosphere")]);

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
        let mut idx = index();
        idx.register_entity(evidence(0, 3, &[("good", "food"), ("good", "food")]));
        idx.register_entity(evidence(1, 3, &[("amazing", "pizza")]));
        idx.index_tags(&[tag("good", "food")]);
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
        let mut idx = index();
        idx.register_entity(evidence(0, 2, &[("good", "food")]));
        idx.register_entity(evidence(1, 50, &[("good", "food")]));
        idx.index_tags(&[tag("good", "food")]);
        let postings = idx.lookup(&tag("good", "food")).unwrap();
        assert_eq!(postings[0].entity_id, 1);
        let ratio = postings[0].degree_of_truth / postings[1].degree_of_truth;
        assert!((ratio - (51f32.ln() / 3f32.ln())).abs() < 1e-4);
    }

    #[test]
    fn volume_weight_can_be_ablated() {
        let mut idx = SubjectiveIndex::new(
            ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
            IndexConfig {
                degree_formula: DegreeFormula::PureMean,
                ..Default::default()
            },
        );
        idx.register_entity(evidence(0, 2, &[("good", "food")]));
        idx.register_entity(evidence(1, 50, &[("good", "food")]));
        idx.index_tags(&[tag("good", "food")]);
        let postings = idx.lookup(&tag("good", "food")).unwrap();
        assert!((postings[0].degree_of_truth - postings[1].degree_of_truth).abs() < 1e-6);
    }

    #[test]
    fn match_count_weight_rewards_mention_rate() {
        let mut idx = SubjectiveIndex::new(
            ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
            IndexConfig {
                degree_formula: DegreeFormula::MatchVolume,
                ..Default::default()
            },
        );
        // Same review volume; entity 1 has three matching mentions, entity
        // 0 has one.
        idx.register_entity(evidence(0, 10, &[("good", "food")]));
        idx.register_entity(evidence(
            1,
            10,
            &[("good", "food"), ("good", "food"), ("good", "food")],
        ));
        idx.index_tags(&[tag("good", "food")]);
        let postings = idx.lookup(&tag("good", "food")).unwrap();
        assert_eq!(postings[0].entity_id, 1);
    }

    #[test]
    fn probe_unknown_tag_unions_similar_tags_and_records_history() {
        // §3.2's walk-through: "delicious food" is absent; it pulls from
        // "good food" and "creative cooking" postings.
        let mut idx = index();
        idx.register_entity(evidence(0, 1, &[("good", "food")]));
        idx.register_entity(evidence(1, 1, &[("creative", "cooking")]));
        idx.register_entity(evidence(2, 1, &[("fast", "delivery")]));
        idx.index_tags(&[
            tag("good", "food"),
            tag("creative", "cooking"),
            tag("fast", "delivery"),
        ]);
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
        let mut idx = index();
        idx.register_entity(evidence(0, 1, &[("nice", "staff")]));
        idx.index_tags(&[tag("nice", "staff")]);
        let result = idx.probe(&tag("nice", "staff"));
        assert_eq!(result.len(), 1);
        assert!(idx.history().is_empty());
    }

    #[test]
    fn reindex_from_history_adds_tags() {
        let mut idx = index();
        idx.register_entity(evidence(0, 2, &[("romantic", "ambiance")]));
        idx.index_tags(&[tag("good", "food")]);
        assert_eq!(idx.len(), 1);
        let _ = idx.probe(&tag("romantic", "ambiance")); // unknown → history
        let added = idx.reindex_from_history();
        assert_eq!(added, 1);
        assert_eq!(idx.len(), 2);
        // Now a first-class tag with direct postings.
        let postings = idx.lookup(&tag("romantic", "ambiance")).unwrap();
        assert_eq!(postings[0].entity_id, 0);
        assert!(idx.history().is_empty());
    }

    #[test]
    fn opposite_polarity_never_enters_postings() {
        let mut idx = index();
        idx.register_entity(evidence(0, 1, &[("bland", "food")]));
        idx.index_tags(&[tag("delicious", "food")]);
        assert!(idx.lookup(&tag("delicious", "food")).unwrap().is_empty());
    }

    #[test]
    fn parallel_and_serial_builds_agree() {
        let mut idx = index();
        for i in 0..40 {
            idx.register_entity(evidence(
                i,
                i + 1,
                &[("good", "food"), ("nice", "staff"), ("quick", "service")],
            ));
        }
        let tags: Vec<SubjectiveTag> = vec![
            tag("good", "food"),
            tag("delicious", "food"),
            tag("nice", "staff"),
            tag("friendly", "waiters"),
            tag("quick", "service"),
            tag("fast", "delivery"),
        ];
        idx.index_tags(&tags);
        for t in &tags {
            let via_parallel = idx.lookup(t).unwrap().to_vec();
            let direct = idx.build_postings(t);
            assert_eq!(via_parallel.len(), direct.len());
            for (a, b) in via_parallel.iter().zip(&direct) {
                assert_eq!(a.entity_id, b.entity_id);
                assert!((a.degree_of_truth - b.degree_of_truth).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn snapshot_contains_all_tags() {
        let mut idx = index();
        idx.register_entity(evidence(0, 1, &[("good", "food")]));
        idx.index_tags(&[tag("good", "food"), tag("nice", "staff")]);
        let bytes = idx.snapshot();
        let text = String::from_utf8(bytes.to_vec()).unwrap();
        assert!(text.contains("good|food"));
        assert!(text.contains("nice|staff"));
    }

    #[test]
    fn snapshot_restore_round_trips_and_preserves_ann_vs_scan_equality() {
        let mut idx = SubjectiveIndex::new(
            ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
            IndexConfig {
                ann_enabled: true,
                ..Default::default()
            },
        );
        idx.register_entity(evidence(0, 3, &[("good", "food"), ("nice", "staff")]));
        idx.register_entity(evidence(
            1,
            7,
            &[("creative", "cooking"), ("quick", "service")],
        ));
        idx.register_entity(evidence(2, 2, &[("romantic", "ambiance")]));
        idx.index_tags(&[
            tag("good", "food"),
            tag("nice", "staff"),
            tag("creative", "cooking"),
            tag("quick", "service"),
            tag("romantic", "ambiance"),
        ]);
        let bytes = idx.snapshot();

        let mut restored = SubjectiveIndex::new(
            ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
            IndexConfig {
                ann_enabled: true,
                ..Default::default()
            },
        );
        assert_eq!(restored.restore(&bytes).unwrap(), idx.len());
        // Postings round-trip bit-exactly (Display → parse is lossless).
        for t in idx.tags() {
            let a = idx.lookup(t).unwrap();
            let b = restored.lookup(t).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.entity_id, y.entity_id);
                assert_eq!(x.degree_of_truth.to_bits(), y.degree_of_truth.to_bits());
                assert_eq!(x.normalized.to_bits(), y.normalized.to_bits());
            }
        }
        // And the re-derived ANN sidecar answers fallback probes bitwise
        // identically to the exhaustive scan on the restored index.
        for probe in [tag("delicious", "food"), tag("friendly", "waiters")] {
            let theta = restored.theta_filter_for(&probe);
            let ann = restored.probe_readonly(&probe);
            let scan = restored.probe_scan(&probe, theta);
            assert!(SubjectiveIndex::ranked_bitwise_eq(&ann, &scan));
            assert!(!ann.is_empty());
        }
        // A second snapshot of the restored index is byte-identical.
        assert_eq!(bytes, restored.snapshot());
    }

    #[test]
    fn snapshot_round_trip_preserves_pending_history() {
        // Regression: snapshots used to drop the user tag history, so a
        // save/restore cycle lost every in-flight unknown-tag request
        // (the Figure-1 adaptation loop restarted from zero). The
        // `#history` lines now carry the counts across.
        let mut idx = index();
        idx.register_entity(evidence(0, 2, &[("good", "food")]));
        idx.index_tags(&[tag("good", "food")]);
        let _ = idx.probe(&tag("zorgle", "zzplace"));
        let _ = idx.probe(&tag("zorgle", "zzplace"));
        let _ = idx.probe(&tag("quiet", "place"));
        assert_eq!(idx.history().len(), 2);
        let bytes = idx.snapshot();

        let mut restored = index();
        restored.restore(&bytes).unwrap();
        assert_eq!(restored.history().len(), 2);
        assert_eq!(restored.history().count(&tag("zorgle", "zzplace")), 2);
        assert_eq!(restored.history().count(&tag("quiet", "place")), 1);
        // The round trip stays byte-stable with history present.
        assert_eq!(bytes, restored.snapshot());
    }

    #[test]
    fn render_table_matches_table1_shape() {
        let mut idx = index();
        idx.register_entity(evidence(0, 3, &[("good", "food")]));
        idx.register_entity(evidence(1, 2, &[("tasty", "pizza")]));
        idx.index_tags(&[tag("good", "food")]);
        let table = idx.render_table(3, |id| format!("Entity-{id}"));
        assert!(table.contains("good food"));
        assert!(table.contains("Entity-0"));
        assert!(table.contains("(1.00)"));
    }

    #[test]
    fn dynamic_thresholds_raise_the_bar_for_generic_opinions() {
        let mut idx = SubjectiveIndex::new(
            ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
            IndexConfig {
                dynamic_thresholds: true,
                ..Default::default()
            },
        );
        let base = idx.config().theta_filter;
        // Generic opinion → raised threshold.
        assert!(idx.theta_filter_for(&tag("good", "lasagna")) > base);
        // Specific in-lexicon tag → lowered threshold.
        assert!(idx.theta_filter_for(&tag("romantic", "ambiance")) < base);
        // Out-of-lexicon → unchanged.
        assert_eq!(idx.theta_filter_for(&tag("zorgly", "blarg")), base);
        // Disabled → always the base.
        let idx2 = SubjectiveIndex::new(
            ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
            IndexConfig::default(),
        );
        assert_eq!(idx2.theta_filter_for(&tag("good", "lasagna")), base);
        // And the raised bar actually filters: a generic probe that would
        // match under the static threshold matches fewer tags.
        idx.register_entity(evidence(0, 1, &[("delicious", "food")]));
        idx.register_entity(evidence(1, 1, &[("fresh", "ingredients")]));
        idx.index_tags(&[tag("delicious", "food"), tag("fresh", "ingredients")]);
        let dynamic_hits = idx.probe_readonly(&tag("great", "meal")).len();
        let mut static_idx = SubjectiveIndex::new(
            ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
            IndexConfig::default(),
        );
        static_idx.register_entity(evidence(0, 1, &[("delicious", "food")]));
        static_idx.register_entity(evidence(1, 1, &[("fresh", "ingredients")]));
        static_idx.index_tags(&[tag("delicious", "food"), tag("fresh", "ingredients")]);
        let static_hits = static_idx.probe_readonly(&tag("great", "meal")).len();
        assert!(dynamic_hits <= static_hits);
    }

    #[test]
    fn automaton_export_matches_lookup() {
        let mut idx = index();
        idx.register_entity(evidence(0, 2, &[("good", "food"), ("nice", "staff")]));
        idx.index_tags(&[tag("good", "food"), tag("nice", "staff")]);
        let automaton = idx.to_automaton();
        assert_eq!(automaton.len(), 2);
        for t in [tag("good", "food"), tag("nice", "staff")] {
            let via_index = idx.lookup(&t).unwrap();
            let via_automaton = automaton.get(&t).unwrap();
            assert_eq!(via_index.len(), via_automaton.len());
        }
        // Fuzzy absorbs a one-letter typo the BTreeMap cannot.
        assert!(idx.lookup(&tag("goud", "food")).is_none());
        assert!(!automaton.fuzzy_get(&tag("goud", "food")).is_empty());
    }

    #[test]
    fn register_entity_is_idempotent_per_entity() {
        let mut idx = index();
        idx.register_entity(evidence(0, 1, &[("good", "food")]));
        idx.register_entity(evidence(0, 9, &[("good", "food")]));
        idx.index_tags(&[tag("good", "food")]);
        let postings = idx.lookup(&tag("good", "food")).unwrap();
        assert_eq!(postings.len(), 1);
        assert!((postings[0].degree_of_truth - 10f32.ln()).abs() < 1e-4);
    }
}
