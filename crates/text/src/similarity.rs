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
//!
//! A tag is resolved once ([`ConceptualSimilarity::resolve`]: its aspect
//! concept and opinion group, typos absorbed through a memo), and
//! [`ConceptualSimilarity::score`] compares two resolved tags without
//! consulting the lexicon again.

use crate::lexicon::Lexicon;
use crate::metrics::edit_similarity;
use crate::token::words_lower;
use std::collections::HashMap;
use std::sync::Mutex;

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

/// Where a tag lands in the lexicon: the position of its aspect concept
/// in [`Lexicon::aspects`] and of its opinion group in
/// [`Lexicon::opinion_groups`], after fuzzy canonicalization (`None` =
/// stays out of lexicon). Identical strings always share a resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Resolution {
    pub aspect: Option<u16>,
    pub opinion: Option<u16>,
}

/// A subjective tag resolved once by [`ConceptualSimilarity::resolve`]:
/// the surface tag, which the identity shortcuts and the edit-distance
/// fallback read, plus its resolution.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedTag<'a> {
    pub tag: &'a SubjectiveTag,
    pub resolution: Resolution,
}

/// Anything that can score the similarity of two subjective tags.
///
/// [`ConceptualSimilarity`] is the paper's measure; the embedding-cosine
/// alternative its footnote 2 compares against lives in `saccs-core`
/// (`EmbeddingSimilarity`), and the index accepts either. Both sides
/// arrive resolved by the conceptual similarity; a measure that has no
/// use for the resolution reads the surface tag.
pub trait TagSimilarity: Send + Sync {
    /// Similarity in `[0, 1]`.
    fn similarity(&self, a: &ResolvedTag<'_>, b: &ResolvedTag<'_>) -> f32;
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

/// The aspect-side ladder between identical or resolved terms: a pair's
/// level is its score's position here (identical terms on top).
const ASPECT_LEVELS: [f32; 4] = [0.0, RELATED_CONCEPT, SAME_CONCEPT, 1.0];
/// The opinion-side ladder, likewise.
const OPINION_LEVELS: [f32; 6] = [
    0.0,
    SAME_POLARITY,
    SHARED_APPLICABILITY,
    GENERIC_BRIDGE,
    SAME_GROUP,
    1.0,
];

/// One side's ladder level for two distinct terms, by the positions of
/// their concepts (or groups), row-major.
#[derive(Debug, Clone)]
struct Levels {
    width: usize,
    levels: Vec<u8>,
}

impl Levels {
    fn new<T>(items: &[T], level: impl Fn(&T, &T) -> u8) -> Levels {
        let levels = items
            .iter()
            .flat_map(|a| items.iter().map(|b| level(a, b)).collect::<Vec<_>>())
            .collect();
        Levels {
            width: items.len(),
            levels,
        }
    }

    #[inline]
    fn get(&self, x: u16, y: u16) -> usize {
        usize::from(self.levels[usize::from(x) * self.width + usize::from(y)])
    }
}

/// One side's ladder level: identical terms take the `top` level and
/// distinct terms that both resolve read theirs from `levels`. `None`
/// for any other pair, which takes the edit-distance fallback.
/// Identical strings always share a resolution, so terms of two
/// different concepts (or groups) skip the string compare.
#[inline]
fn side_level(
    a: &str,
    b: &str,
    ra: Option<u16>,
    rb: Option<u16>,
    levels: &Levels,
    top: usize,
) -> Option<usize> {
    match (ra, rb) {
        (Some(x), Some(y)) if x != y => Some(levels.get(x, y)),
        _ if a == b => Some(top),
        (Some(x), Some(y)) => Some(levels.get(x, y)),
        _ => None,
    }
}

/// One side's score: its ladder rung, or a weak lexical fallback, so
/// novel-but-identical user vocabulary still clusters.
fn side_score(level: Option<usize>, ladder: &[f32], a: &str, b: &str) -> f32 {
    level.map_or_else(|| (edit_similarity(a, b) - 0.5).max(0.0), |i| ladder[i])
}

/// The similarity checker of Figure 1: the resolver and the one scorer
/// over resolved tags.
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
    /// [`ASPECT_LEVELS`] position of two distinct terms, by their
    /// concepts' positions.
    aspect_levels: Levels,
    /// [`OPINION_LEVELS`] position of two distinct phrases, by their
    /// groups' positions.
    opinion_levels: Levels,
    /// [`Self::combine`] of every aspect level with every opinion level,
    /// filled by `combine` itself, so a lookup returns its bits.
    level_scores: [[f32; OPINION_LEVELS.len()]; ASPECT_LEVELS.len()],
    /// Fuzzy canonicalization memo, aspect side then opinion side:
    /// out-of-lexicon terms recur (a typo'd tag arrives with many reviews
    /// and probes), and each miss otherwise costs a full lexicon scan.
    /// Only [`Self::resolve`] reaches it.
    fuzzy_memo: Mutex<[HashMap<String, Option<u16>>; 2]>,
}

impl Clone for ConceptualSimilarity {
    fn clone(&self) -> Self {
        ConceptualSimilarity {
            lexicon: self.lexicon.clone(),
            aspect_weight: self.aspect_weight,
            aspect_levels: self.aspect_levels.clone(),
            opinion_levels: self.opinion_levels.clone(),
            level_scores: self.level_scores,
            fuzzy_memo: Mutex::default(),
        }
    }
}

impl ConceptualSimilarity {
    pub fn new(lexicon: Lexicon) -> Self {
        let aspect_levels = Levels::new(lexicon.aspects(), |c1, c2| {
            if c1.canonical == c2.canonical {
                2
            } else if lexicon.aspects_related(c1.canonical, c2.canonical) {
                1
            } else {
                0
            }
        });
        // Opposite polarity is a hard zero: `delicious food` never
        // matches `bland food`.
        let opinion_levels = Levels::new(lexicon.opinion_groups(), |g1, g2| {
            if g1.canonical == g2.canonical {
                4
            } else if g1.polarity != g2.polarity {
                0
            } else if g1.generic || g2.generic {
                3
            } else if g1.aspects.iter().any(|a| g2.aspects.contains(a)) {
                2
            } else {
                1
            }
        });
        let mut similarity = ConceptualSimilarity {
            lexicon,
            aspect_weight: 0.5,
            aspect_levels,
            opinion_levels,
            level_scores: [[0.0; OPINION_LEVELS.len()]; ASPECT_LEVELS.len()],
            fuzzy_memo: Mutex::default(),
        };
        for (i, &aspect) in ASPECT_LEVELS.iter().enumerate() {
            for (j, &opinion) in OPINION_LEVELS.iter().enumerate() {
                similarity.level_scores[i][j] = similarity.combine(aspect, opinion);
            }
        }
        similarity
    }

    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Resolve `tag` once: the aspect concept and opinion group it
    /// denotes, absorbing typos through the fuzzy memo. A loop resolves
    /// each tag once and compares resolutions with [`Self::score`].
    pub fn resolve<'a>(&self, tag: &'a SubjectiveTag) -> ResolvedTag<'a> {
        let aspect = self
            .lexicon
            .aspect_index(&tag.aspect)
            .or_else(|| self.fuzzy(&tag.aspect, true));
        let opinion = self
            .lexicon
            .opinion_index(&tag.opinion)
            .or_else(|| self.fuzzy(&tag.opinion, false));
        ResolvedTag {
            tag,
            resolution: Resolution {
                aspect: aspect.map(|i| i as u16),
                opinion: opinion.map(|i| i as u16),
            },
        }
    }

    /// The lexicon position an out-of-lexicon term fuzzily resolves to,
    /// through the memo.
    fn fuzzy(&self, term: &str, aspect_side: bool) -> Option<usize> {
        let side = usize::from(aspect_side);
        let memo = || {
            self.fuzzy_memo
                .lock()
                .expect("a thread panicked holding the fuzzy memo")
        };
        if let Some(&hit) = memo()[side].get(term) {
            return hit.map(usize::from);
        }
        let hit = fuzzy_match(&self.lexicon, term, aspect_side).and_then(|m| {
            if aspect_side {
                self.lexicon.aspect_index(m)
            } else {
                self.lexicon.opinion_index(m)
            }
        });
        memo()[side].insert(term.to_string(), hit.map(|i| i as u16));
        hit
    }

    /// Combine an aspect-side and an opinion-side score (or upper bound)
    /// into a tag score: the weighted geometric mean, so a hard zero on
    /// either side zeroes the whole score.
    fn combine(&self, aspect: f32, opinion: f32) -> f32 {
        if aspect <= 0.0 || opinion <= 0.0 {
            return 0.0;
        }
        let w = self.aspect_weight;
        (aspect.powf(w) * opinion.powf(1.0 - w)).clamp(0.0, 1.0)
    }

    /// Similarity of two resolved tags in `[0, 1]`: the aspect and
    /// opinion sides through a weighted geometric mean (`combine`), so a
    /// hard zero on either side (e.g. opposite polarity) zeroes the whole
    /// score. A pair whose sides are both on the ladder reads its score
    /// from the table `combine` filled; one with an edit-distance side
    /// calls `combine`.
    // Forced inline: as an out-of-line call the cell index's rescore
    // loop ran measurably slower than the fused per-cell path it replaced.
    #[inline(always)]
    pub fn score(&self, a: &ResolvedTag<'_>, b: &ResolvedTag<'_>) -> f32 {
        let (ta, tb, ra, rb) = (a.tag, b.tag, a.resolution, b.resolution);
        let aspect = side_level(
            &ta.aspect,
            &tb.aspect,
            ra.aspect,
            rb.aspect,
            &self.aspect_levels,
            ASPECT_LEVELS.len() - 1,
        );
        let opinion = side_level(
            &ta.opinion,
            &tb.opinion,
            ra.opinion,
            rb.opinion,
            &self.opinion_levels,
            OPINION_LEVELS.len() - 1,
        );
        match (aspect, opinion) {
            (Some(i), Some(j)) => self.level_scores[i][j],
            _ => self.combine(
                side_score(aspect, &ASPECT_LEVELS, &ta.aspect, &tb.aspect),
                side_score(opinion, &OPINION_LEVELS, &ta.opinion, &tb.opinion),
            ),
        }
    }

    /// Upper bound on [`Self::score`] over *every* pair of tags resolved
    /// to `a` and `b`, side by side through the same geometric mean.
    ///
    /// Soundness: identical strings always share a resolution, so across
    /// a resolved/unresolved split the surface forms must differ and the
    /// side scores from the edit fallback `(edit_sim - 0.5).max(0) <=
    /// 0.5`. Two terms resolved to the same concept or group may still be
    /// the identical string, hence 1.0 there (and between two unresolved
    /// terms); distinct concepts or groups can never hold the identical
    /// string, so those sides score exactly their ladder level, including
    /// the hard polarity zero.
    pub fn upper_bound(&self, a: Resolution, b: Resolution) -> f32 {
        self.combine(
            side_bound(a.aspect, b.aspect, &self.aspect_levels, &ASPECT_LEVELS),
            side_bound(a.opinion, b.opinion, &self.opinion_levels, &OPINION_LEVELS),
        )
    }

    /// Similarity of two tags, each resolved for this one call.
    pub fn tag_similarity(&self, t1: &SubjectiveTag, t2: &SubjectiveTag) -> f32 {
        self.score(&self.resolve(t1), &self.resolve(t2))
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

/// One side of [`ConceptualSimilarity::upper_bound`].
fn side_bound(a: Option<u16>, b: Option<u16>, levels: &Levels, ladder: &[f32]) -> f32 {
    match (a, b) {
        (Some(x), Some(y)) if x == y => 1.0,
        (Some(x), Some(y)) => ladder[levels.get(x, y)],
        (None, None) => 1.0,
        _ => 0.5,
    }
}

/// Absorb small typos: the known aspect member / opinion variant closest
/// to an out-of-lexicon term by edit similarity, when it clears
/// [`TYPO_THRESHOLD`] (the first best one in lexicon order).
fn fuzzy_match(lexicon: &Lexicon, term: &str, aspect_side: bool) -> Option<&'static str> {
    let mut best: Option<(&'static str, f32)> = None;
    let mut consider = |cand: &'static str| {
        let s = edit_similarity(term, cand);
        if s >= TYPO_THRESHOLD && best.is_none_or(|(_, b)| s > b) {
            best = Some((cand, s));
        }
    };
    if aspect_side {
        for a in lexicon.aspects() {
            for &m in a.members {
                consider(m);
            }
        }
    } else {
        for g in lexicon.opinion_groups() {
            for &v in g.variants {
                consider(v);
            }
        }
    }
    best.map(|(c, _)| c)
}

impl TagSimilarity for ConceptualSimilarity {
    fn similarity(&self, a: &ResolvedTag<'_>, b: &ResolvedTag<'_>) -> f32 {
        self.score(a, b)
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

    /// The per-call composition [`ConceptualSimilarity::score`] replaced,
    /// kept as its reference: each side resolves both terms through the
    /// lexicon (and the fuzzy memo) to canonical names on every call, then
    /// walks the ladder.
    fn aspect_similarity(s: &ConceptualSimilarity, a1: &str, a2: &str) -> f32 {
        if a1 == a2 {
            return 1.0;
        }
        let lex = s.lexicon();
        let resolve = |t: &str| {
            lex.aspect_concept(t)
                .or_else(|| s.fuzzy(t, true).map(|i| &lex.aspects()[i]))
                .map(|c| c.canonical)
        };
        match (resolve(a1), resolve(a2)) {
            (Some(c1), Some(c2)) if c1 == c2 => SAME_CONCEPT,
            (Some(c1), Some(c2)) if lex.aspects_related(c1, c2) => RELATED_CONCEPT,
            (Some(_), Some(_)) => 0.0,
            _ => (edit_similarity(a1, a2) - 0.5).max(0.0),
        }
    }

    fn opinion_similarity(s: &ConceptualSimilarity, o1: &str, o2: &str) -> f32 {
        if o1 == o2 {
            return 1.0;
        }
        let lex = s.lexicon();
        let resolve = |t: &str| {
            lex.opinion_group(t)
                .or_else(|| s.fuzzy(t, false).map(|i| &lex.opinion_groups()[i]))
        };
        match (resolve(o1), resolve(o2)) {
            (Some(g1), Some(g2)) => {
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
            _ => (edit_similarity(o1, o2) - 0.5).max(0.0),
        }
    }

    fn reference(s: &ConceptualSimilarity, t1: &SubjectiveTag, t2: &SubjectiveTag) -> f32 {
        s.combine(
            aspect_similarity(s, &t1.aspect, &t2.aspect),
            opinion_similarity(s, &t1.opinion, &t2.opinion),
        )
    }

    /// `score(resolve(a), resolve(b))` and the reference, bit for bit.
    fn assert_scores_match(s: &ConceptualSimilarity, a: &SubjectiveTag, b: &SubjectiveTag) {
        let (want, got) = (reference(s, a, b), s.score(&s.resolve(a), &s.resolve(b)));
        assert_eq!(got.to_bits(), want.to_bits(), "{a} vs {b}: {got} != {want}");
    }

    /// Every aspect member and every opinion variant of the lexicon.
    fn members_and_variants(lex: &Lexicon) -> (Vec<&'static str>, Vec<&'static str>) {
        let members = lex.aspects().iter().flat_map(|c| c.members).copied();
        let variants = lex
            .opinion_groups()
            .iter()
            .flat_map(|g| g.variants)
            .copied();
        (members.collect(), variants.collect())
    }

    /// A seeded typo of the kinds `synthetic_tags` makes: duplicate or
    /// drop an interior char, or swap two adjacent ones.
    fn typo(word: &str, kind: usize, at: usize) -> String {
        let mut chars: Vec<char> = word.chars().collect();
        if chars.len() < 3 {
            return format!("{word}{word}");
        }
        let pos = 1 + at % (chars.len() - 1);
        match kind % 3 {
            0 => chars.insert(pos, chars[pos]),
            1 => {
                chars.remove(pos);
            }
            _ => chars.swap(pos - 1, pos),
        }
        chars.into_iter().collect()
    }

    /// One side's term: a lexicon term, a typo of one, or garbage.
    fn term(terms: &[&'static str], pick: usize, kind: usize, at: usize) -> String {
        let word = terms[pick % terms.len()];
        match kind % 5 {
            0 | 1 => word.to_string(),
            2 | 3 => typo(word, kind / 5, at),
            _ => format!("zq{}x{}", pick % 7, "v".repeat(at % 3)),
        }
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

    /// Resolutions are positions, so two concepts (or groups) of one
    /// domain must never share a canonical name: the level tables and
    /// the reference then agree on what "the same" means.
    #[test]
    fn canonical_names_are_unique_per_domain() {
        for domain in [Domain::Restaurants, Domain::Electronics, Domain::Hotels] {
            let lex = Lexicon::new(domain);
            let mut aspects: Vec<_> = lex.aspects().iter().map(|c| c.canonical).collect();
            let mut groups: Vec<_> = lex.opinion_groups().iter().map(|g| g.canonical).collect();
            let (na, ng) = (aspects.len(), groups.len());
            aspects.sort_unstable();
            aspects.dedup();
            groups.sort_unstable();
            groups.dedup();
            assert_eq!((aspects.len(), groups.len()), (na, ng), "{domain:?}");
        }
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
        assert!(opinion_similarity(&s, &b.opinion, &c.opinion) > 0.8);
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
        let tag = |aspect| SubjectiveTag::new("good", aspect);
        let zorgle = tag("zorgle");
        let resolved = s.resolve(&zorgle);
        assert_eq!(resolved.resolution.aspect, None);
        assert_eq!(s.score(&resolved, &resolved), 1.0);
        assert!(s.tag_similarity(&zorgle, &tag("blarg")) < 0.2);
    }

    #[test]
    fn nice_staff_close_to_friendly_waiters() {
        let s = sim();
        let v = s.phrase_similarity("nice staff", "friendly waiters");
        assert!(v > 0.8, "{v}");
    }

    /// Terms exactly at the 0.75 edit-similarity threshold resolve; an
    /// unresolvable pair takes the edit fallback. Both score as the
    /// reference does, bit for bit.
    #[test]
    fn threshold_typos_and_garbage_score_like_the_reference() {
        let s = sim();
        assert_eq!(edit_similarity("fodd", "food"), TYPO_THRESHOLD);
        assert_eq!(edit_similarity("goud", "good"), TYPO_THRESHOLD);
        let at = SubjectiveTag::new("goud", "fodd");
        let clean = SubjectiveTag::new("good", "food");
        let resolution = s.resolve(&at).resolution;
        assert!(resolution.aspect.is_some() && resolution.opinion.is_some());
        let garbage = SubjectiveTag::new("zorgle", "zzplace");
        assert_eq!(
            s.resolve(&garbage).resolution,
            Resolution {
                aspect: None,
                opinion: None
            }
        );
        let tags = [
            at,
            clean,
            garbage,
            SubjectiveTag::new("zorgle", "food"),
            SubjectiveTag::new("deliciouz", "zzplace"),
            SubjectiveTag::new("deliciouz", "foood"),
        ];
        for a in &tags {
            for b in &tags {
                assert_scores_match(&s, a, b);
            }
        }
    }

    /// Every lexicon tag (each aspect member × each opinion variant)
    /// against one probe per opinion group, its concepts cycling through
    /// every aspect concept, clean and with a typo on either side:
    /// resolved scoring equals the reference bit for bit.
    #[test]
    fn score_matches_the_reference_over_the_lexicon() {
        let s = sim();
        let lex = s.lexicon();
        let (members, variants) = members_and_variants(lex);
        let tags: Vec<SubjectiveTag> = members
            .iter()
            .flat_map(|&m| variants.iter().map(move |&v| SubjectiveTag::new(v, m)))
            .collect();
        assert_eq!(tags.len(), 82 * 142);
        let resolved: Vec<ResolvedTag<'_>> = tags.iter().map(|t| s.resolve(t)).collect();
        let concepts = lex.aspects();
        for (j, group) in lex.opinion_groups().iter().enumerate() {
            let (variant, member) = (group.variants[0], concepts[j % concepts.len()].members[0]);
            for probe in [
                SubjectiveTag::new(variant, member),
                SubjectiveTag::new(&typo(variant, j, j / 3), member),
                SubjectiveTag::new(variant, &typo(member, j + 1, j)),
            ] {
                let p = s.resolve(&probe);
                for (t, r) in tags.iter().zip(&resolved) {
                    let want = reference(&s, &probe, t);
                    for got in [s.score(&p, r), s.score(r, &p)] {
                        assert_eq!(got.to_bits(), want.to_bits(), "{probe} vs {t}");
                    }
                }
            }
        }
    }

    proptest! {
        /// Resolved scoring against the reference, bit for bit, over
        /// lexicon terms, seeded typos on either side, and garbage.
        #[test]
        fn prop_score_matches_the_reference(
            sides in prop::collection::vec((0usize..1000, 0usize..15, 0usize..16), 4..5),
        ) {
            let s = sim();
            let (members, variants) = members_and_variants(s.lexicon());
            let side = |i: usize, terms: &[&'static str]| {
                let (pick, kind, at) = sides[i];
                term(terms, pick, kind, at)
            };
            let a = SubjectiveTag::new(&side(0, &variants), &side(1, &members));
            let b = SubjectiveTag::new(&side(2, &variants), &side(3, &members));
            let want = reference(&s, &a, &b);
            let got = s.score(&s.resolve(&a), &s.resolve(&b));
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", a, b);
        }

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
        /// side by side against the reference and whole against the
        /// scorer, across in-lexicon terms, absorbable typos, and garbage
        /// — the soundness contract the cell pruning rests on.
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
            let t1 = SubjectiveTag::new(&pick_opinion(i1), &pick_aspect(a1));
            let t2 = SubjectiveTag::new(&pick_opinion(i2), &pick_aspect(a2));
            let (r1, r2) = (s.resolve(&t1).resolution, s.resolve(&t2).resolution);
            let a_ub = side_bound(r1.aspect, r2.aspect, &s.aspect_levels, &ASPECT_LEVELS);
            prop_assert!(aspect_similarity(&s, &t1.aspect, &t2.aspect) <= a_ub + 1e-6,
                "aspect sim({}, {}) exceeds ub {}", t1.aspect, t2.aspect, a_ub);
            let o_ub = side_bound(r1.opinion, r2.opinion, &s.opinion_levels, &OPINION_LEVELS);
            prop_assert!(opinion_similarity(&s, &t1.opinion, &t2.opinion) <= o_ub + 1e-6,
                "opinion sim({}, {}) exceeds ub {}", t1.opinion, t2.opinion, o_ub);
            prop_assert!(s.tag_similarity(&t1, &t2) <= s.upper_bound(r1, r2) + 1e-5);
        }
    }
}
