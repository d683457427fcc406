//! Conceptual similarity between subjective tags.
//!
//! The paper compares subjective tags (short `opinion + aspect` phrases)
//! with a *conceptual similarity* that "in addition to the individual
//! meaning of words, also considers their nature or concept, for example
//! pizza being a type of food", and notes it "has been shown to work better
//! on short phrases such as subjective tags than cosine similarity"
//! (Section 3.1, footnote 2 — the measure itself is out of the paper's
//! scope). This module supplies a concrete instance built on the
//! [`Lexicon`]: identity > synonymy (shared opinion group / aspect concept)
//! > concept relatedness > polarity-gated co-applicability, with a fuzzy
//! > edit-distance fallback for out-of-lexicon terms (typos).

use crate::lexicon::{Lexicon, OpinionGroup};
use crate::metrics::edit_similarity;
use crate::token::words_lower;

/// A subjective tag: "concatenation of an aspect term and an opinion term"
/// (Section 1). `delicious food` has opinion `delicious`, aspect `food`.
/// Both parts are lowercase and may be multiword (`a bit slow service`).
#[derive(
    Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct SubjectiveTag {
    pub opinion: String,
    pub aspect: String,
}

impl SubjectiveTag {
    /// Build from already-separated parts, normalizing to lowercase words.
    pub fn new(opinion: &str, aspect: &str) -> Self {
        SubjectiveTag {
            opinion: words_lower(opinion).join(" "),
            aspect: words_lower(aspect).join(" "),
        }
    }

    /// Parse a surface phrase like `"delicious food"` or `"friendly
    /// waiters"`: the longest known-aspect suffix becomes the aspect, the
    /// rest the opinion. Falls back to "last word = aspect" when the suffix
    /// is out of lexicon, and returns `None` for phrases of fewer than two
    /// words.
    pub fn parse(phrase: &str, lexicon: &Lexicon) -> Option<Self> {
        let words = words_lower(phrase);
        if words.len() < 2 {
            return None;
        }
        // Longest suffix (up to 2 tokens) that is a known aspect member.
        for take in (1..=2usize.min(words.len() - 1)).rev() {
            let aspect = words[words.len() - take..].join(" ");
            if lexicon.aspect_concept(&aspect).is_some() {
                return Some(SubjectiveTag {
                    opinion: words[..words.len() - take].join(" "),
                    aspect,
                });
            }
        }
        Some(SubjectiveTag {
            opinion: words[..words.len() - 1].join(" "),
            aspect: words[words.len() - 1].clone(),
        })
    }

    /// The paper's surface form: opinion followed by aspect.
    pub fn phrase(&self) -> String {
        format!("{} {}", self.opinion, self.aspect)
    }
}

impl std::fmt::Display for SubjectiveTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.opinion, self.aspect)
    }
}

/// Anything that can score the similarity of two subjective tags.
///
/// [`ConceptualSimilarity`] is the paper's measure; the embedding-cosine
/// alternative its footnote 2 compares against lives in `saccs-core`
/// (`EmbeddingSimilarity`), and the index accepts either.
pub trait TagSimilarity: Send + Sync {
    /// Similarity in `[0, 1]`.
    fn similarity(&self, a: &SubjectiveTag, b: &SubjectiveTag) -> f32;
}

/// Score for two distinct surface terms of the same aspect concept.
const SAME_CONCEPT: f32 = 0.90;
/// Score for terms of *related* concepts (food ↔ cooking).
const RELATED_CONCEPT: f32 = 0.55;
/// Score for two distinct phrases of the same opinion group.
const SAME_GROUP: f32 = 0.85;
/// Score when either opinion is a generic evaluative of equal polarity.
const GENERIC_BRIDGE: f32 = 0.70;
/// Score for same-polarity opinions that share an applicable aspect.
const SHARED_APPLICABILITY: f32 = 0.45;
/// Score for same-polarity opinions with nothing else in common.
const SAME_POLARITY: f32 = 0.20;
/// Edit-similarity threshold above which an out-of-lexicon term is
/// fuzzily identified with an in-lexicon one (typo absorption).
const TYPO_THRESHOLD: f32 = 0.75;

/// The similarity checker of Figure 1.
#[derive(Debug)]
pub struct ConceptualSimilarity {
    lexicon: Lexicon,
    /// Geometric weight of the aspect side in [`Self::combine`]; `1 -
    /// aspect_weight` goes to the opinion side. Always 0.5, but kept a
    /// runtime value on purpose: with a literal 0.5 the compiler lowers
    /// `powf(x, 0.5)` to a square-root instruction, glibc's `powf(x, 0.5)`
    /// differs from the correctly rounded square root in the last bit on
    /// about 0.06% of `f32` inputs, and every exported score is pinned
    /// bit for bit.
    aspect_weight: f32,
    /// Memo for fuzzy canonicalization: OOV terms recur constantly in the
    /// index hot loops (every typo'd review tag is compared against every
    /// index tag), and each miss otherwise costs a full lexicon scan.
    fuzzy_cache: std::sync::Mutex<std::collections::HashMap<(String, bool), Option<&'static str>>>,
}

impl Clone for ConceptualSimilarity {
    fn clone(&self) -> Self {
        ConceptualSimilarity {
            lexicon: self.lexicon.clone(),
            aspect_weight: self.aspect_weight,
            fuzzy_cache: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }
}

impl ConceptualSimilarity {
    pub fn new(lexicon: Lexicon) -> Self {
        ConceptualSimilarity {
            lexicon,
            aspect_weight: 0.5,
            fuzzy_cache: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Resolve an aspect term to its canonical concept name, absorbing
    /// typos exactly as [`Self::aspect_similarity`] does. `None` means the
    /// term stays out of lexicon even after fuzzy canonicalization.
    pub fn resolve_aspect(&self, term: &str) -> Option<&'static str> {
        if let Some(c) = self.lexicon.aspect_concept(term) {
            return Some(c.canonical);
        }
        self.fuzzy_canonicalize(term, true)
            .and_then(|m| self.lexicon.aspect_concept(m))
            .map(|c| c.canonical)
    }

    /// Resolve an opinion phrase to its group, absorbing typos exactly as
    /// [`Self::opinion_similarity`] does.
    pub fn resolve_opinion(&self, phrase: &str) -> Option<&OpinionGroup> {
        self.lexicon.opinion_group(phrase).or_else(|| {
            self.fuzzy_canonicalize(phrase, false)
                .and_then(|v| self.lexicon.opinion_group(v))
        })
    }

    /// Similarity of two *distinct* aspect terms resolved to concepts
    /// `c1` and `c2`: the same concept, related concepts, or 0.
    pub fn resolved_aspect_score(&self, c1: &str, c2: &str) -> f32 {
        if c1 == c2 {
            SAME_CONCEPT
        } else if self.lexicon.aspects_related(c1, c2) {
            RELATED_CONCEPT
        } else {
            0.0
        }
    }

    /// Similarity of two *distinct* opinion phrases resolved to groups
    /// `g1` and `g2`. Opposite polarity is a hard zero.
    pub fn resolved_opinion_score(&self, g1: &OpinionGroup, g2: &OpinionGroup) -> f32 {
        if g1.canonical == g2.canonical {
            SAME_GROUP
        } else if g1.polarity != g2.polarity {
            0.0
        } else if g1.generic || g2.generic {
            GENERIC_BRIDGE
        } else if g1.aspects.iter().any(|a| g2.aspects.contains(a)) {
            SHARED_APPLICABILITY
        } else {
            SAME_POLARITY
        }
    }

    /// Combine an aspect-side and an opinion-side score (or upper bound)
    /// into a tag score: the weighted geometric mean, so a hard zero on
    /// either side zeroes the whole score.
    pub fn combine(&self, aspect: f32, opinion: f32) -> f32 {
        if aspect <= 0.0 || opinion <= 0.0 {
            return 0.0;
        }
        let w = self.aspect_weight;
        (aspect.powf(w) * opinion.powf(1.0 - w)).clamp(0.0, 1.0)
    }

    /// Upper bound on `aspect_similarity(p, t)` over *every* pair of terms
    /// whose resolutions are `probe_concept` and `cand_concept` (`None` =
    /// unresolved after fuzzy canonicalization).
    ///
    /// Soundness: identical strings always share a resolution state, so
    /// across a resolved/unresolved split the surface forms must differ and
    /// the score comes from the edit fallback `(edit_sim - 0.5).max(0) <=
    /// 0.5`. Two terms resolved to the same concept may still be the
    /// identical string, hence 1.0 there; two terms resolved to *different*
    /// concepts score exactly their [`Self::resolved_aspect_score`].
    pub fn aspect_upper_bound(
        &self,
        probe_concept: Option<&str>,
        cand_concept: Option<&str>,
    ) -> f32 {
        match (probe_concept, cand_concept) {
            (Some(p), Some(c)) if p == c => 1.0,
            (Some(p), Some(c)) => self.resolved_aspect_score(p, c),
            (None, None) => 1.0,
            _ => 0.5,
        }
    }

    /// Upper bound on `opinion_similarity(p, t)` over every pair of phrases
    /// whose resolutions are `probe_group` and `cand_group` (`None` =
    /// unresolved). Same identity argument as [`Self::aspect_upper_bound`];
    /// distinct groups can never hold the identical string, so the
    /// cross-group branches are exact, including the hard polarity zero.
    pub fn opinion_upper_bound(
        &self,
        probe_group: Option<&OpinionGroup>,
        cand_group: Option<&OpinionGroup>,
    ) -> f32 {
        match (probe_group, cand_group) {
            (Some(g1), Some(g2)) if g1.canonical == g2.canonical => 1.0,
            (Some(g1), Some(g2)) => self.resolved_opinion_score(g1, g2),
            (None, None) => 1.0,
            _ => 0.5,
        }
    }

    /// Absorb small typos: map an out-of-lexicon word to the best known
    /// aspect member / opinion variant when the edit similarity clears
    /// [`TYPO_THRESHOLD`].
    fn fuzzy_canonicalize(&self, term: &str, aspect_side: bool) -> Option<&'static str> {
        if let Some(&hit) = self
            .fuzzy_cache
            .lock()
            .unwrap()
            .get(&(term.to_string(), aspect_side))
        {
            return hit;
        }
        let mut best: Option<(&'static str, f32)> = None;
        let mut consider = |cand: &'static str| {
            let s = edit_similarity(term, cand);
            if s >= TYPO_THRESHOLD && best.is_none_or(|(_, b)| s > b) {
                best = Some((cand, s));
            }
        };
        if aspect_side {
            for a in self.lexicon.aspects() {
                for &m in a.members {
                    consider(m);
                }
            }
        } else {
            for g in self.lexicon.opinion_groups() {
                for &v in g.variants {
                    consider(v);
                }
            }
        }
        let result = best.map(|(c, _)| c);
        self.fuzzy_cache
            .lock()
            .unwrap()
            .insert((term.to_string(), aspect_side), result);
        result
    }

    /// Similarity of two aspect terms in `[0, 1]`.
    pub fn aspect_similarity(&self, a1: &str, a2: &str) -> f32 {
        if a1 == a2 {
            return 1.0;
        }
        match (self.resolve_aspect(a1), self.resolve_aspect(a2)) {
            (Some(c1), Some(c2)) => self.resolved_aspect_score(c1, c2),
            // Out-of-lexicon on at least one side: weak lexical fallback so
            // novel-but-identical user vocabulary still clusters.
            _ => (edit_similarity(a1, a2) - 0.5).max(0.0),
        }
    }

    /// Similarity of two opinion phrases in `[0, 1]`. Opposite polarity is a
    /// hard zero: `delicious food` never matches `bland food`.
    pub fn opinion_similarity(&self, o1: &str, o2: &str) -> f32 {
        if o1 == o2 {
            return 1.0;
        }
        match (self.resolve_opinion(o1), self.resolve_opinion(o2)) {
            (Some(g1), Some(g2)) => self.resolved_opinion_score(g1, g2),
            _ => (edit_similarity(o1, o2) - 0.5).max(0.0),
        }
    }

    /// Similarity of two subjective tags: the aspect- and opinion-side
    /// similarities through [`Self::combine`], so a hard zero on either
    /// side (e.g. opposite polarity) zeroes the whole score.
    pub fn tag_similarity(&self, t1: &SubjectiveTag, t2: &SubjectiveTag) -> f32 {
        self.combine(
            self.aspect_similarity(&t1.aspect, &t2.aspect),
            self.opinion_similarity(&t1.opinion, &t2.opinion),
        )
    }

    /// Convenience over surface phrases; returns 0 for unparseable phrases.
    pub fn phrase_similarity(&self, p1: &str, p2: &str) -> f32 {
        match (
            SubjectiveTag::parse(p1, &self.lexicon),
            SubjectiveTag::parse(p2, &self.lexicon),
        ) {
            (Some(t1), Some(t2)) => self.tag_similarity(&t1, &t2),
            _ => 0.0,
        }
    }
}

impl TagSimilarity for ConceptualSimilarity {
    fn similarity(&self, a: &SubjectiveTag, b: &SubjectiveTag) -> f32 {
        self.tag_similarity(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon::Domain;
    use proptest::prelude::*;

    fn sim() -> ConceptualSimilarity {
        ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants))
    }

    #[test]
    fn parse_splits_opinion_and_aspect() {
        let lex = Lexicon::new(Domain::Restaurants);
        let t = SubjectiveTag::parse("delicious food", &lex).unwrap();
        assert_eq!(t.opinion, "delicious");
        assert_eq!(t.aspect, "food");
        let t = SubjectiveTag::parse("really good la carte", &lex).unwrap();
        assert_eq!(t.opinion, "really good");
        assert_eq!(t.aspect, "la carte");
        assert!(SubjectiveTag::parse("food", &lex).is_none());
    }

    #[test]
    fn identity_is_one() {
        let s = sim();
        let t = SubjectiveTag::new("delicious", "food");
        assert_eq!(s.tag_similarity(&t, &t), 1.0);
    }

    #[test]
    fn paraphrases_score_high() {
        let s = sim();
        // The paper's §1 example: all three phrasings denote deliciousness.
        let a = SubjectiveTag::new("really good", "food");
        let b = SubjectiveTag::new("very tasty", "plates"); // "Very tasty plates of food"
        let c = SubjectiveTag::new("delicious", "food");
        assert!(
            s.tag_similarity(&a, &c) > 0.8,
            "{}",
            s.tag_similarity(&a, &c)
        );
        // plates-vs-food crosses concepts, so lower, but the opinions agree.
        assert!(s.opinion_similarity(&b.opinion, &c.opinion) > 0.8);
    }

    #[test]
    fn opposite_polarity_is_zero() {
        let s = sim();
        let good = SubjectiveTag::new("delicious", "food");
        let bad = SubjectiveTag::new("bland", "food");
        assert_eq!(s.tag_similarity(&good, &bad), 0.0);
    }

    #[test]
    fn figure1_amazing_pizza_matches_good_food() {
        // In Figure 1 the review tag "amazing pizza" maps E5 onto the index
        // tag "good food" — concept subsumption (pizza is-a food) plus the
        // generic-positive bridge.
        let s = sim();
        let a = SubjectiveTag::new("amazing", "pizza");
        let b = SubjectiveTag::new("good", "food");
        let v = s.tag_similarity(&a, &b);
        assert!(v > 0.7, "amazing pizza ~ good food = {v}");
    }

    #[test]
    fn section32_delicious_food_vs_index() {
        // §3.2: "delicious food" is similar to both "good food" and
        // "creative cooking", with the former closer.
        let s = sim();
        let q = SubjectiveTag::new("delicious", "food");
        let s1 = s.tag_similarity(&q, &SubjectiveTag::new("good", "food"));
        let s2 = s.tag_similarity(&q, &SubjectiveTag::new("creative", "cooking"));
        assert!(s1 > s2, "s1={s1} s2={s2}");
        assert!(s2 > 0.4, "s2={s2} should clear a 0.4 filter threshold");
        // ...but "fast delivery" is not similar to "delicious food".
        let s3 = s.tag_similarity(&q, &SubjectiveTag::new("fast", "delivery"));
        assert!(s3 < 0.3, "s3={s3}");
    }

    #[test]
    fn typos_are_absorbed() {
        let s = sim();
        let v = s.tag_similarity(
            &SubjectiveTag::new("delicios", "fodd"),
            &SubjectiveTag::new("delicious", "food"),
        );
        assert!(v > 0.7, "typo similarity = {v}");
    }

    #[test]
    fn unknown_terms_fall_back_lexically() {
        let s = sim();
        assert!(s.aspect_similarity("zorgle", "zorgle") == 1.0);
        assert!(s.aspect_similarity("zorgle", "blarg") < 0.2);
    }

    #[test]
    fn nice_staff_close_to_friendly_waiters() {
        let s = sim();
        let v = s.phrase_similarity("nice staff", "friendly waiters");
        assert!(v > 0.8, "{v}");
    }

    proptest! {
        /// Tag similarity is symmetric and bounded for arbitrary in-lexicon pairs.
        #[test]
        fn prop_symmetric_bounded(i1 in 0usize..26, a1 in 0usize..16, i2 in 0usize..26, a2 in 0usize..16) {
            let s = sim();
            let lex = s.lexicon().clone();
            let ops = lex.opinion_groups();
            let asps = lex.aspects();
            let t1 = SubjectiveTag::new(
                ops[i1 % ops.len()].variants[0],
                asps[a1 % asps.len()].members[0],
            );
            let t2 = SubjectiveTag::new(
                ops[i2 % ops.len()].variants[0],
                asps[a2 % asps.len()].members[0],
            );
            let v12 = s.tag_similarity(&t1, &t2);
            let v21 = s.tag_similarity(&t2, &t1);
            prop_assert!((v12 - v21).abs() < 1e-6);
            prop_assert!((0.0..=1.0).contains(&v12));
        }

        /// Identity always dominates: sim(t, t) = 1 ≥ sim(t, u).
        #[test]
        fn prop_identity_dominates(i in 0usize..26, a in 0usize..16, j in 0usize..26, b in 0usize..16) {
            let s = sim();
            let lex = s.lexicon().clone();
            let ops = lex.opinion_groups();
            let asps = lex.aspects();
            let t = SubjectiveTag::new(ops[i % ops.len()].variants[0], asps[a % asps.len()].members[0]);
            let u = SubjectiveTag::new(ops[j % ops.len()].variants[0], asps[b % asps.len()].members[0]);
            prop_assert!(s.tag_similarity(&t, &t) >= s.tag_similarity(&t, &u) - 1e-6);
        }

        /// The resolution-level upper bounds really bound the similarity,
        /// across in-lexicon terms, absorbable typos, and garbage — the
        /// soundness contract the ANN candidate pruning rests on.
        #[test]
        fn prop_upper_bounds_are_sound(i1 in 0usize..64, i2 in 0usize..64, a1 in 0usize..64, a2 in 0usize..64) {
            let s = sim();
            let lex = s.lexicon().clone();
            let pick_opinion = |i: usize| -> String {
                let g = &lex.opinion_groups()[i % lex.opinion_groups().len()];
                let v = g.variants[i / 7 % g.variants.len()];
                match i % 4 {
                    0 => v.to_string(),
                    1 => format!("{v}z"),          // absorbable typo
                    2 => format!("zz{v}qq"),       // usually unresolved
                    _ => format!("xq{}", i % 9),   // garbage
                }
            };
            let pick_aspect = |i: usize| -> String {
                let c = &lex.aspects()[i % lex.aspects().len()];
                let m = c.members[i / 5 % c.members.len()];
                match i % 4 {
                    0 => m.to_string(),
                    1 => format!("{m}s"),
                    2 => format!("qq{m}zz"),
                    _ => format!("vb{}", i % 9),
                }
            };
            let (o1, o2) = (pick_opinion(i1), pick_opinion(i2));
            let (p1, p2) = (pick_aspect(a1), pick_aspect(a2));
            let a_ub = s.aspect_upper_bound(s.resolve_aspect(&p1), s.resolve_aspect(&p2));
            prop_assert!(s.aspect_similarity(&p1, &p2) <= a_ub + 1e-6,
                "aspect sim({p1},{p2}) exceeds ub {a_ub}");
            let o_ub = s.opinion_upper_bound(s.resolve_opinion(&o1), s.resolve_opinion(&o2));
            prop_assert!(s.opinion_similarity(&o1, &o2) <= o_ub + 1e-6,
                "opinion sim({o1},{o2}) exceeds ub {o_ub}");
            let t1 = SubjectiveTag::new(&o1, &p1);
            let t2 = SubjectiveTag::new(&o2, &p2);
            prop_assert!(s.tag_similarity(&t1, &t2) <= s.combine(a_ub, o_ub) + 1e-5);
        }
    }
}
