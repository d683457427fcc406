//! Fraud-resistant evidence construction (§7 future work).
//!
//! The paper's conclusion: "We also plan to extend the robustness of the
//! proposed techniques to cater for biased or fraudulent online reviews
//! … We have to differentiate between truthful and fake reviews." This
//! module implements that extension at the evidence layer: a
//! [`FraudFilter`] looks at an entity's *per-review* tag profiles and
//! suppresses the statistical fingerprint of astroturf campaigns — a
//! burst of reviews with identical tag profiles far beyond an entity's
//! natural duplication rate. Callers ingest only the reviews it keeps.
//!
//! The filter is unsupervised (it never sees fake/real labels):
//!
//! 1. canonicalize each review's tag multiset to a profile key;
//! 2. allow each profile up to `cap(n) = ceil(α·√n) + base` occurrences
//!    among the entity's `n` reviews (organic one-liner reviews repeat,
//!    but sub-linearly);
//! 3. reviews beyond the cap are dropped, so they count neither toward
//!    the entity's tags nor toward its review count.

use saccs_text::lexicon::Lexicon;
use saccs_text::SubjectiveTag;
use std::collections::HashMap;

/// One review's extracted tags.
#[derive(Debug, Clone, Default)]
pub struct ReviewProfile {
    pub tags: Vec<SubjectiveTag>,
}

impl ReviewProfile {
    pub fn new(tags: Vec<SubjectiveTag>) -> Self {
        ReviewProfile { tags }
    }

    /// Canonical key: the sorted multiset of *semantic dimensions* the
    /// review expresses. Campaigns vary surface phrasing ("delicious
    /// food" / "scrumptious pasta" / "mouthwatering risotto") while
    /// pushing one dimension, so keys canonicalize each tag through the
    /// lexicon: `(opinion group : aspect concept)`, with polarity kept and
    /// out-of-lexicon terms falling back to their surface.
    fn key(&self, lexicon: &Lexicon) -> String {
        let mut dims: Vec<String> = self
            .tags
            .iter()
            .map(|t| {
                let group = lexicon
                    .opinion_group(&t.opinion)
                    .map(|g| format!("{}{:?}", g.canonical, g.polarity))
                    .unwrap_or_else(|| t.opinion.clone());
                let concept = lexicon
                    .aspect_concept(&t.aspect)
                    .map(|c| c.canonical.to_string())
                    .unwrap_or_else(|| t.aspect.clone());
                format!("{group}:{concept}")
            })
            .collect();
        dims.sort();
        dims.dedup();
        dims.join("|")
    }
}

/// Duplicate-burst suppression parameters.
#[derive(Debug, Clone)]
pub struct FraudFilter {
    /// Multiplier on `√n` in the duplication cap.
    pub alpha: f32,
    /// Flat allowance added to the cap.
    pub base: usize,
    /// Lexicon used to canonicalize review profiles to dimensions.
    lexicon: Lexicon,
}

impl Default for FraudFilter {
    fn default() -> Self {
        FraudFilter {
            alpha: 0.6,
            base: 2,
            lexicon: Lexicon::new(saccs_text::Domain::Restaurants),
        }
    }
}

impl FraudFilter {
    pub fn new(alpha: f32, base: usize, lexicon: Lexicon) -> Self {
        FraudFilter {
            alpha,
            base,
            lexicon,
        }
    }

    /// Maximum organic occurrences of one profile among `n` reviews.
    pub fn cap(&self, n_reviews: usize) -> usize {
        (self.alpha * (n_reviews as f32).sqrt()).ceil() as usize + self.base
    }

    /// Per-review keep decision: `true` for reviews within their profile's
    /// cap (in input order — earlier reviews are kept, later bursts
    /// dropped), `false` for the suppressed excess. Empty profiles are
    /// always kept (they contribute nothing anyway).
    pub fn keep_flags(&self, reviews: &[ReviewProfile]) -> Vec<bool> {
        let cap = self.cap(reviews.len());
        let mut seen: HashMap<String, usize> = HashMap::new();
        reviews
            .iter()
            .map(|r| {
                if r.tags.is_empty() {
                    return true;
                }
                let count = seen.entry(r.key(&self.lexicon)).or_insert(0);
                *count += 1;
                *count <= cap
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(op: &str, asp: &str) -> SubjectiveTag {
        SubjectiveTag::new(op, asp)
    }

    fn profile(tags: &[(&str, &str)]) -> ReviewProfile {
        ReviewProfile::new(tags.iter().map(|(o, a)| tag(o, a)).collect())
    }

    #[test]
    fn organic_duplication_is_kept() {
        let f = FraudFilter::default();
        // 16 reviews, cap = ceil(0.6·4) + 2 = 5; five duplicates pass.
        let mut reviews = vec![profile(&[("good", "food")]); 5];
        reviews.extend((0..11).map(|_| profile(&[("nice", "staff")])));
        let keep = f.keep_flags(&reviews);
        assert!(keep[..5].iter().all(|&k| k));
    }

    #[test]
    fn bursts_are_suppressed_beyond_the_cap() {
        let f = FraudFilter::default();
        let mut reviews = vec![profile(&[("delicious", "food")]); 30];
        reviews.extend((0..6).map(|_| profile(&[("nice", "staff")])));
        let keep = f.keep_flags(&reviews);
        let kept_campaign = keep[..30].iter().filter(|&&k| k).count();
        assert_eq!(kept_campaign, f.cap(36));
        assert!(f.cap(36) < 30, "the burst must actually be suppressed");
        assert!(
            keep[30..].iter().all(|&k| k),
            "organic reviews must survive"
        );
    }

    #[test]
    fn profile_key_is_dimension_level() {
        let lex = Lexicon::new(saccs_text::Domain::Restaurants);
        // Surface paraphrases of one dimension share a key…
        let a = profile(&[("delicious", "food")]);
        let b = profile(&[("scrumptious", "pasta")]);
        assert_eq!(a.key(&lex), b.key(&lex));
        // …different dimensions do not…
        let c = profile(&[("nice", "staff")]);
        assert_ne!(a.key(&lex), c.key(&lex));
        // …and polarity separates ("bland food" is not "delicious food").
        let d = profile(&[("bland", "food")]);
        assert_ne!(a.key(&lex), d.key(&lex));
        // Tag order is irrelevant.
        let e1 = profile(&[("good", "wine"), ("nice", "staff")]);
        let e2 = profile(&[("nice", "staff"), ("good", "wine")]);
        assert_eq!(e1.key(&lex), e2.key(&lex));
    }

    #[test]
    fn cap_of_one_keeps_the_first_review_per_profile() {
        let f = FraudFilter::new(0.0, 1, Lexicon::new(saccs_text::Domain::Restaurants)); // cap = 1
        let reviews = vec![
            profile(&[("good", "food")]),
            profile(&[("good", "food")]),
            profile(&[("nice", "staff")]),
        ];
        assert_eq!(f.keep_flags(&reviews), vec![true, false, true]);
    }

    #[test]
    fn empty_profiles_are_always_kept() {
        let f = FraudFilter::new(0.0, 0, Lexicon::new(saccs_text::Domain::Restaurants));
        let reviews = vec![ReviewProfile::default(); 10];
        assert!(f.keep_flags(&reviews).iter().all(|&k| k));
    }

    #[test]
    fn cap_grows_sublinearly() {
        let f = FraudFilter::default();
        assert!(f.cap(100) < 100 / 2);
        assert!(f.cap(9) >= 3);
        assert!(f.cap(400) <= f.cap(100) * 3);
    }
}
