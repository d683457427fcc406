//! Deterministic candidate index for the θ_filter fallback probe.
//!
//! The §3.2 fallback answers an unknown tag by scanning **every** index
//! tag; [`SemanticCandidateIndex`] makes that probe sublinear while
//! keeping the ranking contract intact. Tags are bucketed into cells
//! keyed by their *resolution* (aspect concept × opinion group) under the
//! lexicon-backed
//! [`ConceptualSimilarity`](saccs_text::ConceptualSimilarity); a probe
//! prunes whole cells whose similarity **upper bound** cannot clear
//! θ_filter and exactly rescores the rest. Because the bound is sound (see
//! `ConceptualSimilarity::aspect_upper_bound`), the candidate set is a
//! strict superset of the scan's matching tags.
//!
//! Candidate tag ids come back in **ascending order**, which equals the
//! `BTreeMap` iteration order of the index — the probe rescore therefore
//! visits surviving tags in exactly the order the exhaustive scan would
//! have, replays its float-addition sequence, and returns results
//! **bitwise identical** to the scan.

use saccs_text::lexicon::OpinionGroup;
use saccs_text::similarity::SimilarityConfig;
use saccs_text::{ConceptualSimilarity, SubjectiveTag};
use std::collections::BTreeMap;

/// Safety margin for cell pruning: a cell is pruned only when its upper
/// bound clears θ by more than this, absorbing the ~1-ulp error of the
/// `powf` combine on either side of the comparison.
const PRUNE_MARGIN: f32 = 1e-5;

/// Candidate tag ids plus the work accounting a probe reports.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    /// Candidate tag ids, ascending (= index iteration order).
    pub ids: Vec<u32>,
    /// Cells examined while searching.
    pub visited: u32,
}

/// Exactly-scored candidates plus the work accounting a probe reports.
#[derive(Debug, Clone, Default)]
pub struct ScoredCandidates {
    /// `(tag id, similarity)` for every candidate, ascending by id (= the
    /// index's scan iteration order). Scores are bitwise identical to
    /// `ConceptualSimilarity::tag_similarity` on the same pair.
    pub scored: Vec<(u32, f32)>,
    /// Cells examined while searching.
    pub visited: u32,
}

/// Cell key: the resolution of a tag — `(aspect concept, opinion group
/// canonical)`, `None` on either side meaning "stays out of lexicon even
/// after fuzzy canonicalization". Identical strings always share a
/// resolution, so every tag lands in exactly one cell.
type CellKey = (Option<&'static str>, Option<&'static str>);

struct Cell {
    /// The opinion group shared by every tag in the cell (`None` for the
    /// unresolved-opinion band), used for the opinion-side upper bound.
    opinion: Option<&'static OpinionGroup>,
    /// Member tag ids, ascending (tags are inserted in index order).
    tag_ids: Vec<u32>,
}

/// Exact candidate index for the default conceptual similarity: cells of
/// identically-resolved tags with per-cell similarity upper bounds.
pub struct SemanticCandidateIndex {
    cells: BTreeMap<CellKey, Cell>,
}

impl SemanticCandidateIndex {
    /// Bucket `tags` (the index's lexicographically sorted tag list) by
    /// resolution. Pure function of the tag set and the lexicon.
    pub fn build(sim: &ConceptualSimilarity, tags: &[SubjectiveTag]) -> Self {
        // `opinion_groups()` hands back the lexicon's `'static` table, so
        // re-finding the resolved group there frees the cell from the
        // borrow on `sim`.
        let groups: &'static [OpinionGroup] = sim.lexicon().opinion_groups();
        let mut cells: BTreeMap<CellKey, Cell> = BTreeMap::new();
        for (i, tag) in tags.iter().enumerate() {
            let aspect = sim.resolve_aspect(&tag.aspect);
            let opinion: Option<&'static OpinionGroup> = sim
                .resolve_opinion(&tag.opinion)
                .and_then(|g| groups.iter().find(|x| x.canonical == g.canonical));
            let key = (aspect, opinion.map(|g| g.canonical));
            cells
                .entry(key)
                .or_insert_with(|| Cell {
                    opinion,
                    tag_ids: Vec::new(),
                })
                .tag_ids
                .push(i as u32);
        }
        SemanticCandidateIndex { cells }
    }

    /// Number of resolution cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Every tag whose similarity to `probe` *could* exceed `theta`: all
    /// members of cells whose upper bound clears `theta` (within
    /// `PRUNE_MARGIN`). A superset of the scan's matches by bound
    /// soundness; pruned tags satisfy `sim ≤ θ` and would contribute
    /// nothing to the scan either.
    pub fn candidates(
        &self,
        sim: &ConceptualSimilarity,
        probe: &SubjectiveTag,
        theta: f32,
    ) -> CandidateSet {
        let probe_aspect = sim.resolve_aspect(&probe.aspect);
        let probe_opinion = sim.resolve_opinion(&probe.opinion);
        let mut ids: Vec<u32> = Vec::new();
        let mut visited = 0u32;
        for ((cell_aspect, _), cell) in &self.cells {
            visited += 1;
            let a_ub = sim.aspect_upper_bound(probe_aspect, *cell_aspect);
            let o_ub = sim.opinion_upper_bound(probe_opinion, cell.opinion);
            if sim.tag_upper_bound(a_ub, o_ub) + PRUNE_MARGIN > theta {
                ids.extend_from_slice(&cell.tag_ids);
            }
        }
        // Cells come out in key order, not id order; the rescore contract
        // wants ascending ids (= scan order).
        ids.sort_unstable();
        CandidateSet { ids, visited }
    }

    /// [`Self::candidates`] fused with the exact rescore. Within a cell
    /// every tag shares its resolution, so for fully-resolved pairs
    /// `tag_similarity(probe, t)` can take at most four values — one per
    /// combination of the two surface-identity shortcuts (`t.aspect ==
    /// probe.aspect`, `t.opinion == probe.opinion`). Each combination is
    /// computed once from the same branch constants and the same
    /// `powf` combine as `tag_similarity` (bit-identical inputs → bit-
    /// identical f32s), and every member tag then costs two string
    /// compares instead of two lexicon resolutions behind a mutex. Cells
    /// with an unresolved side lean on the surface-string edit fallback,
    /// whose score varies per tag: those pay the full `tag_similarity`.
    pub fn rescore(
        &self,
        sim: &ConceptualSimilarity,
        probe: &SubjectiveTag,
        theta: f32,
        tags: &[SubjectiveTag],
    ) -> ScoredCandidates {
        let cfg = sim.config();
        let lex = sim.lexicon();
        let probe_aspect = sim.resolve_aspect(&probe.aspect);
        let probe_opinion = sim.resolve_opinion(&probe.opinion);
        let mut scored: Vec<(u32, f32)> = Vec::new();
        let mut visited = 0u32;
        for ((cell_aspect, _), cell) in &self.cells {
            visited += 1;
            let a_ub = sim.aspect_upper_bound(probe_aspect, *cell_aspect);
            let o_ub = sim.opinion_upper_bound(probe_opinion, cell.opinion);
            if sim.tag_upper_bound(a_ub, o_ub) + PRUNE_MARGIN <= theta {
                continue;
            }
            match (probe_aspect, *cell_aspect, probe_opinion, cell.opinion) {
                (Some(pa), Some(ca), Some(pg), Some(cg)) => {
                    // The aspect/opinion scores when the surface strings
                    // differ — exactly `aspect_similarity`'s and
                    // `opinion_similarity`'s resolved branches.
                    let a_far = if pa == ca {
                        cfg.same_concept
                    } else if lex.aspects_related(pa, ca) {
                        cfg.related_concept
                    } else {
                        0.0
                    };
                    let o_far = if pg.canonical == cg.canonical {
                        cfg.same_group
                    } else if pg.polarity != cg.polarity {
                        0.0
                    } else if pg.generic || cg.generic {
                        cfg.generic_bridge
                    } else if pg.aspects.iter().any(|a| cg.aspects.contains(a)) {
                        cfg.shared_applicability
                    } else {
                        cfg.same_polarity
                    };
                    let mut combo = [[f32::NAN; 2]; 2];
                    for &id in &cell.tag_ids {
                        let t = &tags[id as usize];
                        let ae = usize::from(t.aspect == probe.aspect);
                        let oe = usize::from(t.opinion == probe.opinion);
                        if combo[ae][oe].is_nan() {
                            let a = if ae == 1 { 1.0 } else { a_far };
                            let o = if oe == 1 { 1.0 } else { o_far };
                            combo[ae][oe] = combine(cfg, a, o);
                        }
                        scored.push((id, combo[ae][oe]));
                    }
                }
                _ => {
                    for &id in &cell.tag_ids {
                        scored.push((id, sim.tag_similarity(probe, &tags[id as usize])));
                    }
                }
            }
        }
        scored.sort_unstable_by_key(|&(id, _)| id);
        ScoredCandidates { scored, visited }
    }
}

/// `tag_similarity`'s combine step on precomputed per-side scores: hard
/// zero on either side, else the weighted geometric mean, clamped.
fn combine(cfg: &SimilarityConfig, a: f32, o: f32) -> f32 {
    if a <= 0.0 || o <= 0.0 {
        return 0.0;
    }
    let w = cfg.aspect_weight;
    (a.powf(w) * o.powf(1.0 - w)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saccs_text::{Domain, Lexicon};

    fn sim() -> ConceptualSimilarity {
        ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants))
    }

    fn tags() -> Vec<SubjectiveTag> {
        let mut v = vec![
            SubjectiveTag::new("good", "food"),
            SubjectiveTag::new("delicious", "food"),
            SubjectiveTag::new("creative", "cooking"),
            SubjectiveTag::new("fast", "delivery"),
            SubjectiveTag::new("bland", "food"),
            SubjectiveTag::new("zorgly", "blarg"),
        ];
        v.sort();
        v
    }

    #[test]
    fn semantic_candidates_superset_of_scan_matches() {
        let s = sim();
        let tags = tags();
        let idx = SemanticCandidateIndex::build(&s, &tags);
        for probe in [
            SubjectiveTag::new("tasty", "pizza"),
            SubjectiveTag::new("amazing", "food"),
            SubjectiveTag::new("quick", "service"),
            SubjectiveTag::new("weird", "blarg"),
        ] {
            for theta in [0.2f32, 0.45, 0.7, 0.9] {
                let cand = idx.candidates(&s, &probe, theta);
                // Ascending ids.
                assert!(cand.ids.windows(2).all(|w| w[0] < w[1]));
                let matched: Vec<u32> = tags
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| s.tag_similarity(&probe, t) > theta)
                    .map(|(i, _)| i as u32)
                    .collect();
                for id in &matched {
                    assert!(
                        cand.ids.contains(id),
                        "probe {probe} theta {theta}: match {id} pruned"
                    );
                }
            }
        }
    }

    #[test]
    fn rescore_is_bitwise_identical_to_tag_similarity() {
        let s = sim();
        let mut tags = tags();
        // Typos (resolve fuzzily, exercising the per-cell fast path with
        // distinct surface strings) and garbage (unresolved cells taking
        // the per-tag fallback).
        tags.push(SubjectiveTag::new("deliciouz", "foood"));
        tags.push(SubjectiveTag::new("blandd", "food"));
        tags.sort();
        let idx = SemanticCandidateIndex::build(&s, &tags);
        for probe in [
            SubjectiveTag::new("tasty", "pizza"),
            SubjectiveTag::new("delicious", "food"), // identical to a member
            SubjectiveTag::new("quick", "service"),
            SubjectiveTag::new("zorgly", "blarg"), // unresolved probe
            SubjectiveTag::new("deliciouz", "food"), // typo probe
        ] {
            for theta in [0.2f32, 0.45, 0.55, 0.7] {
                let sc = idx.rescore(&s, &probe, theta, &tags);
                // Ascending ids, same set as the unfused candidate pass.
                assert!(sc.scored.windows(2).all(|w| w[0].0 < w[1].0));
                let cand = idx.candidates(&s, &probe, theta);
                let ids: Vec<u32> = sc.scored.iter().map(|&(id, _)| id).collect();
                assert_eq!(ids, cand.ids, "probe {probe} theta {theta}");
                assert_eq!(sc.visited, cand.visited);
                for &(id, score) in &sc.scored {
                    let exact = s.tag_similarity(&probe, &tags[id as usize]);
                    assert_eq!(
                        score.to_bits(),
                        exact.to_bits(),
                        "probe {probe} vs {}: fused {score} != exact {exact}",
                        tags[id as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn semantic_pruning_actually_prunes() {
        let s = sim();
        let tags = tags();
        let idx = SemanticCandidateIndex::build(&s, &tags);
        // At the default θ a same-polarity-only cell ("fast delivery" vs
        // a food-opinion probe) must be pruned.
        let cand = idx.candidates(&s, &SubjectiveTag::new("delicious", "food"), 0.45);
        let delivery = tags
            .iter()
            .position(|t| t.aspect == "delivery")
            .map(|i| i as u32);
        if let Some(d) = delivery {
            assert!(!cand.ids.contains(&d), "unrelated cell not pruned");
        }
        assert!(cand.ids.len() < tags.len());
    }
}
