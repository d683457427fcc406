//! The index's resolved tag set and its deterministic candidate cells
//! for the θ_filter fallback probe.
//!
//! [`SemanticCandidateIndex`] holds what depends only on the index's tag
//! set: the ascending tag list, each tag resolved once where it enters
//! the index, and the tags bucketed into cells keyed by their
//! *resolution* (aspect concept × opinion group) under the lexicon-backed
//! [`ConceptualSimilarity`](saccs_text::ConceptualSimilarity). The
//! writer builds it where the tag set changes and every snapshot over
//! that set shares it by `Arc`.
//!
//! The §3.2 fallback answers an unknown tag by scoring **every** index
//! tag; the cells make that probe sublinear while keeping the ranking
//! contract intact. A probe prunes whole cells whose similarity **upper
//! bound** cannot clear θ_filter and scores the rest with
//! [`score`](saccs_text::ConceptualSimilarity::score), the scorer the
//! scan uses. Because the bound is sound (see
//! [`upper_bound`](saccs_text::ConceptualSimilarity::upper_bound)), the
//! candidate set is a strict superset of the scan's matching tags.
//!
//! Candidate tag ids come back in **ascending order**, which equals the
//! `BTreeMap` iteration order of the index — the probe therefore visits
//! surviving tags in exactly the order the exhaustive scan would have,
//! replays its float-addition sequence, and returns results **bitwise
//! identical** to the scan.

use saccs_text::{ConceptualSimilarity, Resolution, ResolvedTag, SubjectiveTag};
use std::collections::BTreeMap;

/// Safety margin for cell pruning: a cell is pruned only when its upper
/// bound clears θ by more than this, absorbing the ~1-ulp error of the
/// `powf` combine on either side of the comparison.
const PRUNE_MARGIN: f32 = 1e-5;

/// Scored candidates plus the work accounting a probe reports.
#[derive(Debug, Clone, Default)]
pub struct ScoredCandidates {
    /// `(tag id, similarity)` for every candidate, ascending by id (= the
    /// index's scan iteration order).
    pub scored: Vec<(u32, f32)>,
    /// Cells examined while searching.
    pub visited: u32,
}

/// An index's tag set, resolved once: tags ascending, each beside its
/// resolution, and the ids of the tags sharing each resolution. Every
/// tag lands in exactly one cell, as identical strings always share a
/// resolution.
#[derive(Default)]
pub struct SemanticCandidateIndex {
    tags: Vec<(SubjectiveTag, Resolution)>,
    cells: BTreeMap<Resolution, Vec<u32>>,
}

impl SemanticCandidateIndex {
    /// Resolve `tags` (ascending) once each and bucket them. A pure
    /// function of the tag set and the lexicon.
    pub fn build(sim: &ConceptualSimilarity, tags: Vec<SubjectiveTag>) -> Self {
        let resolved = tags
            .into_iter()
            .map(|tag| {
                let resolution = sim.resolve(&tag).resolution;
                (tag, resolution)
            })
            .collect();
        Self::from_resolved(resolved)
    }

    fn from_resolved(tags: Vec<(SubjectiveTag, Resolution)>) -> Self {
        let mut cells: BTreeMap<Resolution, Vec<u32>> = BTreeMap::new();
        for (id, &(_, resolution)) in tags.iter().enumerate() {
            cells.entry(resolution).or_default().push(id as u32);
        }
        SemanticCandidateIndex { tags, cells }
    }

    /// This tag set plus `fresh` (tags it does not hold, already
    /// resolved): the tags keep their resolutions and only the cells are
    /// rebuilt.
    pub(crate) fn with(&self, fresh: &[ResolvedTag<'_>]) -> Self {
        let mut merged: Vec<(SubjectiveTag, Resolution)> = self
            .tags
            .iter()
            .cloned()
            .chain(fresh.iter().map(|r| (r.tag.clone(), r.resolution)))
            .collect();
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        Self::from_resolved(merged)
    }

    /// Number of tags.
    pub(crate) fn len(&self) -> usize {
        self.tags.len()
    }

    /// The tags, ascending: tag `id` is the `id`-th.
    pub(crate) fn tags(&self) -> impl Iterator<Item = &SubjectiveTag> {
        self.tags.iter().map(|(tag, _)| tag)
    }

    /// `tag`'s id, if the set holds it: a binary search, as the tags are
    /// ascending.
    pub(crate) fn id_of(&self, tag: &SubjectiveTag) -> Option<usize> {
        self.tags.binary_search_by(|(t, _)| t.cmp(tag)).ok()
    }

    /// Tag `id` (its position in ascending order), resolved.
    #[inline]
    pub(crate) fn resolved(&self, id: usize) -> ResolvedTag<'_> {
        let (tag, resolution) = &self.tags[id];
        ResolvedTag {
            tag,
            resolution: *resolution,
        }
    }

    /// Every tag whose similarity to `probe` *could* exceed `theta`,
    /// scored: all members of cells whose upper bound clears `theta`
    /// (within `PRUNE_MARGIN`). A superset of the scan's matches by bound
    /// soundness; pruned tags satisfy `sim ≤ θ` and would contribute
    /// nothing to the scan either.
    pub fn rescore(
        &self,
        sim: &ConceptualSimilarity,
        probe: &ResolvedTag<'_>,
        theta: f32,
    ) -> ScoredCandidates {
        let surviving: Vec<&Vec<u32>> = self
            .cells
            .iter()
            .filter(|(&cell, _)| sim.upper_bound(probe.resolution, cell) + PRUNE_MARGIN > theta)
            .map(|(_, ids)| ids)
            .collect();
        let mut scored = Vec::with_capacity(surviving.iter().map(|ids| ids.len()).sum());
        for ids in surviving {
            for &id in ids {
                scored.push((id, sim.score(probe, &self.resolved(id as usize))));
            }
        }
        let visited = self.cells.len() as u32;
        // Cells come out in key order, not id order; the probe wants
        // ascending ids (= scan order). Each cell is one ascending run,
        // which the stable sort merges instead of re-sorting.
        scored.sort_by_key(|&(id, _)| id);
        ScoredCandidates { scored, visited }
    }
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

    fn ids(sc: &ScoredCandidates) -> Vec<u32> {
        sc.scored.iter().map(|&(id, _)| id).collect()
    }

    #[test]
    fn rescore_candidates_are_a_superset_of_scan_matches() {
        let s = sim();
        let tags = tags();
        let idx = SemanticCandidateIndex::build(&s, tags.clone());
        for probe in [
            SubjectiveTag::new("tasty", "pizza"),
            SubjectiveTag::new("amazing", "food"),
            SubjectiveTag::new("quick", "service"),
            SubjectiveTag::new("weird", "blarg"),
        ] {
            for theta in [0.2f32, 0.45, 0.7, 0.9] {
                let ids = ids(&idx.rescore(&s, &s.resolve(&probe), theta));
                // Ascending ids.
                assert!(ids.windows(2).all(|w| w[0] < w[1]));
                let matched = tags
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| s.tag_similarity(&probe, t) > theta)
                    .map(|(i, _)| i as u32);
                for id in matched {
                    assert!(
                        ids.contains(&id),
                        "probe {probe} theta {theta}: match {id} pruned"
                    );
                }
            }
        }
    }

    /// Each candidate id names the tag it was scored against: the score
    /// equals resolving that tag afresh and scoring the pair, bit for
    /// bit, for typo'd members (resolved fuzzily), garbage (unresolved
    /// cells) and a set grown by [`SemanticCandidateIndex::with`].
    #[test]
    fn rescore_scores_each_candidate_as_the_scorer_does() {
        let s = sim();
        let (mut early, mut late) = (tags(), vec![]);
        late.push(SubjectiveTag::new("deliciouz", "foood"));
        late.push(SubjectiveTag::new("blandd", "food"));
        late.push(early.remove(1));
        let grown = SemanticCandidateIndex::build(&s, early)
            .with(&late.iter().map(|t| s.resolve(t)).collect::<Vec<_>>());
        let mut tags = tags();
        tags.extend(late.into_iter().take(2));
        tags.sort();
        let built = SemanticCandidateIndex::build(&s, tags.clone());
        assert_eq!(grown.tags, built.tags);
        assert_eq!(grown.cells, built.cells);
        for probe in [
            SubjectiveTag::new("tasty", "pizza"),
            SubjectiveTag::new("delicious", "food"), // identical to a member
            SubjectiveTag::new("quick", "service"),
            SubjectiveTag::new("zorgly", "blarg"), // unresolved probe
            SubjectiveTag::new("deliciouz", "food"), // typo probe
        ] {
            for theta in [0.2f32, 0.45, 0.55, 0.7] {
                let sc = grown.rescore(&s, &s.resolve(&probe), theta);
                assert!(!sc.scored.is_empty(), "probe {probe} theta {theta}");
                for &(id, score) in &sc.scored {
                    let exact = s.tag_similarity(&probe, &tags[id as usize]);
                    assert_eq!(
                        score.to_bits(),
                        exact.to_bits(),
                        "probe {probe} vs {}: {score} != {exact}",
                        tags[id as usize]
                    );
                }
            }
        }
    }

    /// Every lexicon tag (each aspect member × each opinion variant)
    /// against one probe per (concept, group) pair, at θ = 0 so no cell
    /// is pruned: the cell bound never falls below the exact score.
    #[test]
    fn bounds_hold_over_the_lexicon() {
        let s = sim();
        let lex = s.lexicon();
        let mut tags: Vec<SubjectiveTag> = lex
            .aspects()
            .iter()
            .flat_map(|c| c.members)
            .flat_map(|&m| {
                lex.opinion_groups()
                    .iter()
                    .flat_map(|g| g.variants)
                    .map(move |&v| SubjectiveTag::new(v, m))
            })
            .collect();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), 82 * 142);
        let idx = SemanticCandidateIndex::build(&s, tags.clone());
        for concept in lex.aspects() {
            for group in lex.opinion_groups() {
                let probe = SubjectiveTag::new(group.variants[0], concept.members[0]);
                let probe = s.resolve(&probe);
                let sc = idx.rescore(&s, &probe, 0.0);
                assert_eq!(sc.scored.len(), tags.len(), "a cell was pruned");
                for &(id, score) in &sc.scored {
                    let t = idx.resolved(id as usize);
                    let bound = s.upper_bound(probe.resolution, t.resolution);
                    assert!(
                        bound >= score,
                        "{} vs {}: bound {bound} < {score}",
                        probe.tag,
                        t.tag
                    );
                }
            }
        }
    }

    #[test]
    fn semantic_pruning_actually_prunes() {
        let s = sim();
        let tags = tags();
        let idx = SemanticCandidateIndex::build(&s, tags.clone());
        // At the default θ a same-polarity-only cell ("fast delivery" vs
        // a food-opinion probe) must be pruned.
        let probe = SubjectiveTag::new("delicious", "food");
        let ids = ids(&idx.rescore(&s, &s.resolve(&probe), 0.45));
        let delivery = tags
            .iter()
            .position(|t| t.aspect == "delivery")
            .map(|i| i as u32);
        if let Some(d) = delivery {
            assert!(!ids.contains(&d), "unrelated cell not pruned");
        }
        assert!(ids.len() < tags.len());
    }
}
