//! Template/paraphrase sentence grammar with gold labels.
//!
//! Produces review sentences whose aspect/opinion structure is known by
//! construction: every sentence carries gold IOB tags (§4's tagging target)
//! and gold aspect↔opinion pairs (§5's pairing target). Templates cover the
//! phenomena the paper discusses:
//!
//! * paraphrase variation — the same subjective fact surfaces as
//!   "The food is phenomenal" / "Very tasty plates of food" / "really good
//!   food" (§1);
//! * multiword aspect and opinion terms ("la carte", "a bit slow", §4.2,
//!   Figure 2);
//! * multi-facet sentences where word distance mispairs but tree distance
//!   doesn't ("The staff is friendly, helpful and professional. The decor
//!   is beautiful", §5);
//! * opinions shared across aspects ("the staff and decor are amazing",
//!   Figure 5);
//! * domain noise tokens (brand names and model numbers for electronics,
//!   §6.3) and optional character-level typos (§5.1's parse-tree failure
//!   mode).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use saccs_text::iob::{tags_from_spans, IobTag, Span};
use saccs_text::lexicon::{Lexicon, OpinionGroup, Polarity};

/// A generated sentence with full gold structure.
#[derive(Debug, Clone)]
pub struct LabeledSentence {
    pub tokens: Vec<String>,
    pub tags: Vec<IobTag>,
    /// Gold (aspect span, opinion span) pairs. An aspect may appear in
    /// several pairs (multiple opinions) and vice versa.
    pub pairs: Vec<(Span, Span)>,
}

impl LabeledSentence {
    /// Surface text (tokens joined with spaces; punctuation unspaced-left
    /// is not attempted — the tokenizer round-trips this form exactly).
    pub fn text(&self) -> String {
        self.tokens.join(" ")
    }

    /// Gold aspect spans.
    pub fn aspect_spans(&self) -> Vec<Span> {
        saccs_text::iob::spans_from_tags(&self.tags)
            .into_iter()
            .filter(|s| s.kind == saccs_text::SpanKind::Aspect)
            .collect()
    }

    /// Gold opinion spans.
    pub fn opinion_spans(&self) -> Vec<Span> {
        saccs_text::iob::spans_from_tags(&self.tags)
            .into_iter()
            .filter(|s| s.kind == saccs_text::SpanKind::Opinion)
            .collect()
    }
}

/// One aspect/opinion mention to be realized in a sentence.
#[derive(Debug, Clone)]
pub struct FacetSpec {
    /// Canonical aspect concept (e.g. `food`).
    pub concept: &'static str,
    /// Canonical opinion group (e.g. `delicious`).
    pub group: &'static str,
    /// Polarity of the realized opinion.
    pub polarity: Polarity,
}

/// Generation knobs.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Probability that a word token receives a character-level typo.
    pub typo_rate: f64,
    /// Probability of inserting a domain noise token before the sentence
    /// core (and of appending one after it).
    pub noise_rate: f64,
    /// Restrict surface realization to the train split of each paraphrase
    /// group (even-indexed variants) or the test split (all variants).
    /// Holding variants out of training is what gives domain post-training
    /// (§4.2) something real to contribute.
    pub train_vocabulary_only: bool,
    /// Probability that a two-facet sentence uses a *trap* construction —
    /// a contrastive postmodifier ("the service , unlike the food , was
    /// slow") or a negated attachment ("the pasta was amazing , not the
    /// pizza") — where the second aspect carries no opinion and both word
    /// distance and naive tree distance mispair. These are the §5.1
    /// failure cases the pairing evaluation needs.
    pub trap_rate: f64,
    /// Probability that the facets of a multi-facet sentence are forced to
    /// share a concept (producing multi-opinion aspects: "the staff is
    /// friendly , helpful and professional") or a group (producing shared
    /// opinions: "the staff and decor are amazing").
    pub correlated_facets: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            typo_rate: 0.0,
            noise_rate: 0.3,
            train_vocabulary_only: false,
            trap_rate: 0.12,
            correlated_facets: 0.35,
        }
    }
}

/// Builder that appends tokens while tracking gold spans.
struct SentenceBuilder {
    tokens: Vec<String>,
    spans: Vec<Span>,
    pairs: Vec<(usize, usize)>, // indices into spans
}

impl SentenceBuilder {
    fn new() -> Self {
        SentenceBuilder {
            tokens: Vec::new(),
            spans: Vec::new(),
            pairs: Vec::new(),
        }
    }

    fn word(&mut self, w: &str) {
        for part in w.split_whitespace() {
            self.tokens.push(part.to_string());
        }
    }

    fn words(&mut self, ws: &[&str]) {
        for w in ws {
            self.word(w);
        }
    }

    /// Append a term as a labeled span; returns its span index.
    fn term(&mut self, surface: &str, kind: saccs_text::SpanKind) -> usize {
        let start = self.tokens.len();
        self.word(surface);
        let span = Span {
            kind,
            start,
            end: self.tokens.len(),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    fn aspect(&mut self, surface: &str) -> usize {
        self.term(surface, saccs_text::SpanKind::Aspect)
    }

    fn opinion(&mut self, surface: &str) -> usize {
        self.term(surface, saccs_text::SpanKind::Opinion)
    }

    fn pair(&mut self, aspect: usize, opinion: usize) {
        self.pairs.push((aspect, opinion));
    }

    fn finish(self) -> LabeledSentence {
        let tags = tags_from_spans(self.tokens.len(), &self.spans);
        let pairs = self
            .pairs
            .into_iter()
            .map(|(a, o)| (self.spans[a], self.spans[o]))
            .collect();
        LabeledSentence {
            tokens: self.tokens,
            tags,
            pairs,
        }
    }
}

/// The sentence generator for one domain.
pub struct SentenceGenerator {
    lexicon: Lexicon,
    config: GeneratorConfig,
}

impl SentenceGenerator {
    pub fn new(lexicon: Lexicon, config: GeneratorConfig) -> Self {
        SentenceGenerator { lexicon, config }
    }

    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Pick a surface variant of an opinion group, respecting the
    /// train-vocabulary restriction.
    fn opinion_surface(&self, group: &OpinionGroup, rng: &mut StdRng) -> &'static str {
        let pool: Vec<&'static str> = if self.config.train_vocabulary_only {
            group.variants.iter().copied().step_by(2).collect()
        } else {
            group.variants.to_vec()
        };
        pool.choose(rng).copied().unwrap_or(group.variants[0])
    }

    /// Pick a surface member of an aspect concept.
    fn aspect_surface(&self, concept: &'static str, rng: &mut StdRng) -> &'static str {
        let members = self
            .lexicon
            .aspect_by_name(concept)
            .expect("unknown concept")
            .members;
        let pool: Vec<&'static str> = if self.config.train_vocabulary_only {
            members.iter().copied().step_by(2).collect()
        } else {
            members.to_vec()
        };
        pool.choose(rng).copied().unwrap_or(members[0])
    }

    /// Pick the realized opinion group for a facet: the facet's group when
    /// positive, otherwise a negative group applicable to the concept.
    fn realized_group(&self, facet: &FacetSpec, rng: &mut StdRng) -> &OpinionGroup {
        if facet.polarity == Polarity::Positive {
            return self
                .lexicon
                .opinion_by_name(facet.group)
                .expect("unknown group");
        }
        let negatives: Vec<&OpinionGroup> = self
            .lexicon
            .opinions_for_aspect(facet.concept)
            .into_iter()
            .filter(|g| g.polarity == Polarity::Negative)
            .collect();
        negatives.choose(rng).copied().unwrap_or_else(|| {
            self.lexicon
                .opinion_by_name("bad")
                .expect("generic negative")
        })
    }

    fn copula(surface_aspect: &str, rng: &mut StdRng) -> &'static str {
        let plural = surface_aspect.ends_with('s') && !surface_aspect.ends_with("ss");
        if plural {
            ["are", "were"].choose(rng).unwrap()
        } else {
            ["is", "was"].choose(rng).unwrap()
        }
    }

    fn maybe_noise(&self, b: &mut SentenceBuilder, rng: &mut StdRng) {
        if rng.gen_bool(self.config.noise_rate) {
            if let Some(w) = self.lexicon.noise_tokens().choose(rng) {
                b.word(w);
            }
        }
    }

    /// Generate one sentence realizing the given facets (1–3 supported).
    pub fn sentence(&self, facets: &[FacetSpec], rng: &mut StdRng) -> LabeledSentence {
        assert!(
            !facets.is_empty() && facets.len() <= 3,
            "1..=3 facets supported"
        );
        let mut b = SentenceBuilder::new();
        self.maybe_noise(&mut b, rng);
        match facets.len() {
            1 => self.one_facet(&mut b, &facets[0], rng),
            2 => self.two_facets(&mut b, &facets[0], &facets[1], rng),
            _ => self.three_facets(&mut b, facets, rng),
        }
        self.maybe_noise(&mut b, rng);
        b.word(".");
        let mut sent = b.finish();
        if self.config.typo_rate > 0.0 {
            apply_typos(&mut sent, self.config.typo_rate, rng);
        }
        sent
    }

    fn one_facet(&self, b: &mut SentenceBuilder, f: &FacetSpec, rng: &mut StdRng) {
        let group = self.realized_group(f, rng);
        let op = self.opinion_surface(group, rng);
        let asp = self.aspect_surface(f.concept, rng);
        match rng.gen_range(0..4) {
            0 => {
                // "the food is delicious"
                b.word("the");
                let a = b.aspect(asp);
                b.word(Self::copula(asp, rng));
                let o = b.opinion(op);
                b.pair(a, o);
            }
            1 => {
                // "delicious food" (noun-phrase mention)
                let o = b.opinion(op);
                let a = b.aspect(asp);
                b.pair(a, o);
            }
            2 => {
                // "we loved the delicious food" / "we got a really slow service"
                b.words(&[
                    "we",
                    if group.polarity == Polarity::Positive {
                        "loved"
                    } else {
                        "got"
                    },
                    "the",
                ]);
                let o = b.opinion(op);
                let a = b.aspect(asp);
                b.pair(a, o);
            }
            _ => {
                // "the food here was delicious indeed"
                b.word("the");
                let a = b.aspect(asp);
                b.word("here");
                b.word(Self::copula(asp, rng));
                let o = b.opinion(op);
                b.pair(a, o);
            }
        }
    }

    fn two_facets(
        &self,
        b: &mut SentenceBuilder,
        f1: &FacetSpec,
        f2: &FacetSpec,
        rng: &mut StdRng,
    ) {
        if rng.gen_bool(self.config.trap_rate) {
            self.trap_two_facets(b, f1, f2, rng);
            return;
        }
        let g1 = self.realized_group(f1, rng);
        let g2 = self.realized_group(f2, rng);
        let op1 = self.opinion_surface(g1, rng);
        let op2 = self.opinion_surface(g2, rng);
        let asp1 = self.aspect_surface(f1.concept, rng);
        let asp2 = self.aspect_surface(f2.concept, rng);
        match rng.gen_range(0..4) {
            0 => {
                // "the food is delicious but the staff is rude" — the
                // adversative when polarities differ, "and" otherwise.
                b.word("the");
                let a1 = b.aspect(asp1);
                b.word(Self::copula(asp1, rng));
                let o1 = b.opinion(op1);
                b.pair(a1, o1);
                b.word(if g1.polarity != g2.polarity {
                    "but"
                } else {
                    "and"
                });
                b.word("the");
                let a2 = b.aspect(asp2);
                b.word(Self::copula(asp2, rng));
                let o2 = b.opinion(op2);
                b.pair(a2, o2);
            }
            1 => {
                // Two sentences: the §5 word-distance trap — op1 sits right
                // next to asp2.
                b.word("the");
                let a1 = b.aspect(asp1);
                b.word(Self::copula(asp1, rng));
                let o1 = b.opinion(op1);
                b.pair(a1, o1);
                b.word(".");
                b.word("the");
                let a2 = b.aspect(asp2);
                b.word(Self::copula(asp2, rng));
                let o2 = b.opinion(op2);
                b.pair(a2, o2);
            }
            2 if g1.canonical == g2.canonical => {
                // Shared opinion: "the staff and decor are amazing".
                b.word("the");
                let a1 = b.aspect(asp1);
                b.word("and");
                let a2 = b.aspect(asp2);
                b.word("are");
                let o = b.opinion(op1);
                b.pair(a1, o);
                b.pair(a2, o);
            }
            _ => {
                // "delicious food but a rude staff"
                let o1 = b.opinion(op1);
                let a1 = b.aspect(asp1);
                b.pair(a1, o1);
                b.word(if g1.polarity != g2.polarity {
                    "but"
                } else {
                    "and"
                });
                let o2 = b.opinion(op2);
                let a2 = b.aspect(asp2);
                b.pair(a2, o2);
            }
        }
    }

    /// Trap constructions (§5.1 failure modes): one opinion, two aspects,
    /// and surface/tree proximity pointing at the *wrong* aspect.
    fn trap_two_facets(
        &self,
        b: &mut SentenceBuilder,
        f1: &FacetSpec,
        f2: &FacetSpec,
        rng: &mut StdRng,
    ) {
        let g1 = self.realized_group(f1, rng);
        let op = self.opinion_surface(g1, rng);
        let asp1 = self.aspect_surface(f1.concept, rng);
        let mut asp2 = self.aspect_surface(f2.concept, rng);
        // Same-concept facets can draw the same surface, which would make
        // the paired and unpaired aspect textually indistinguishable; pick
        // a different member when one exists.
        if asp2 == asp1 {
            let members = self
                .lexicon
                .aspect_by_name(f2.concept)
                .expect("unknown concept")
                .members;
            if let Some(alt) = members.iter().find(|&&m| m != asp1) {
                asp2 = alt;
            }
        }
        if rng.gen_bool(0.5) {
            // "the service , unlike the food , was slow"
            b.word("the");
            let a1 = b.aspect(asp1);
            b.words(&[",", "unlike", "the"]);
            let _a2 = b.aspect(asp2);
            b.word(",");
            b.word(Self::copula(asp1, rng));
            let o = b.opinion(op);
            b.pair(a1, o);
        } else {
            // "the pasta was amazing , not the pizza"
            b.word("the");
            let a1 = b.aspect(asp1);
            b.word(Self::copula(asp1, rng));
            let o = b.opinion(op);
            b.pair(a1, o);
            b.words(&[",", "not", "the"]);
            let _a2 = b.aspect(asp2);
        }
    }

    fn three_facets(&self, b: &mut SentenceBuilder, facets: &[FacetSpec], rng: &mut StdRng) {
        // "the staff is friendly, helpful and professional" when all three
        // facets share a concept; otherwise a chained clause form.
        if facets.iter().all(|f| f.concept == facets[0].concept) {
            let asp = self.aspect_surface(facets[0].concept, rng);
            b.word("the");
            let a = b.aspect(asp);
            b.word(Self::copula(asp, rng));
            for (i, f) in facets.iter().enumerate() {
                if i == 1 {
                    b.word(",");
                }
                if i == 2 {
                    b.word("and");
                }
                let g = self.realized_group(f, rng);
                let o = b.opinion(self.opinion_surface(g, rng));
                b.pair(a, o);
            }
        } else {
            for (i, f) in facets.iter().enumerate() {
                if i > 0 {
                    b.word(if i == 1 { "," } else { "and" });
                }
                b.word("the");
                let g = self.realized_group(f, rng);
                let asp = self.aspect_surface(f.concept, rng);
                let a = b.aspect(asp);
                b.word(Self::copula(asp, rng));
                let o = b.opinion(self.opinion_surface(g, rng));
                b.pair(a, o);
            }
        }
    }

    /// Generate an *utterance-style* sentence ("i want a restaurant with
    /// delicious food and a nice staff") realizing 1–3 facets. Utterances
    /// are what SACCS extracts from at query time (§3.2); the builder
    /// mixes these into tagger training so the extractor sees the request
    /// register, not just review prose. Entity-class nouns ("restaurant",
    /// "place") and objective slots are deliberately unlabeled here — in a
    /// request they are not subjective aspect mentions.
    pub fn utterance(&self, facets: &[FacetSpec], rng: &mut StdRng) -> LabeledSentence {
        assert!(!facets.is_empty() && facets.len() <= 3);
        let mut b = SentenceBuilder::new();
        // Objective slot fillers — always label O: a cuisine or a city in a
        // request is an objective filter for the search API, not a
        // subjective aspect/opinion.
        let cuisine = *UTTERANCE_CUISINES.choose(rng).unwrap();
        let city = *UTTERANCE_CITIES.choose(rng).unwrap();
        match rng.gen_range(0..8) {
            0 => b.words(&["i", "want", "a", "restaurant", "with"]),
            1 => b.words(&["i", "am", "looking", "for", "a", "place", "with"]),
            2 => b.words(&["find", "me", "a", "restaurant", "that", "has"]),
            3 => {
                b.words(&["i", "want", "an", cuisine, "restaurant", "in", city, "with"]);
            }
            4 => {
                b.words(&[
                    "i", "am", "looking", "for", cuisine, "food", "in", city, "with",
                ]);
            }
            5 => b.words(&["somewhere", "with"]),
            // Retraction register ("actually forget the romantic ambiance"):
            // the spans still label as aspect/opinion; the dialog layer
            // handles the negation semantics.
            6 => b.words(&["actually", "forget", "the"]),
            _ => b.words(&["any", "place", "with"]),
        }
        for (i, f) in facets.iter().enumerate() {
            if i > 0 {
                b.word("and");
                // "…and has a nice staff"
                if rng.gen_bool(0.3) {
                    b.word(if rng.gen_bool(0.5) { "has" } else { "serves" });
                }
            }
            if rng.gen_bool(0.35) {
                b.word("a");
            }
            let g = self.realized_group(f, rng);
            let o = b.opinion(self.opinion_surface(g, rng));
            let a = b.aspect(self.aspect_surface(f.concept, rng));
            b.pair(a, o);
        }
        if rng.gen_bool(0.3) {
            b.word("please");
        }
        b.word(".");
        let mut sent = b.finish();
        if self.config.typo_rate > 0.0 {
            apply_typos(&mut sent, self.config.typo_rate, rng);
        }
        sent
    }

    /// Random utterance with 1–3 random positive-leaning facets.
    pub fn random_utterance(&self, rng: &mut StdRng) -> LabeledSentence {
        let n = *[1, 1, 2, 2, 3].choose(rng).unwrap();
        let facets: Vec<FacetSpec> = (0..n)
            .map(|_| {
                let mut f = self.random_facet(rng);
                // Users overwhelmingly ask for positive qualities.
                if rng.gen_bool(0.9) {
                    f.polarity = Polarity::Positive;
                }
                f
            })
            .collect();
        self.utterance(&facets, rng)
    }

    /// Sample a random facet (uniform concept, uniform applicable positive
    /// group, coin-flip polarity).
    pub fn random_facet(&self, rng: &mut StdRng) -> FacetSpec {
        let aspects = self.lexicon.aspects();
        let concept = aspects[rng.gen_range(0..aspects.len())].canonical;
        let positives: Vec<&OpinionGroup> = self
            .lexicon
            .opinions_for_aspect(concept)
            .into_iter()
            .filter(|g| g.polarity == Polarity::Positive)
            .collect();
        let group = positives[rng.gen_range(0..positives.len())].canonical;
        let polarity = if rng.gen_bool(0.5) {
            Polarity::Positive
        } else {
            Polarity::Negative
        };
        FacetSpec {
            concept,
            group,
            polarity,
        }
    }

    /// Generate a sentence with a random number of random facets. With
    /// probability `correlated_facets`, multi-facet sentences share a
    /// concept (multi-opinion aspect) or an opinion group (shared opinion).
    pub fn random_sentence(&self, rng: &mut StdRng) -> LabeledSentence {
        let n = *[1, 1, 1, 2, 2, 3].choose(rng).unwrap();
        let mut facets: Vec<FacetSpec> = (0..n).map(|_| self.random_facet(rng)).collect();
        if n > 1 && rng.gen_bool(self.config.correlated_facets) {
            if rng.gen_bool(0.5) {
                // Share the first facet's concept; re-draw groups that
                // don't apply to it.
                let concept = facets[0].concept;
                let applicable: Vec<&'static str> = self
                    .lexicon
                    .opinions_for_aspect(concept)
                    .into_iter()
                    .filter(|g| g.polarity == saccs_text::lexicon::Polarity::Positive)
                    .map(|g| g.canonical)
                    .collect();
                for f in facets.iter_mut().skip(1) {
                    f.concept = concept;
                    if !applicable.contains(&f.group) {
                        f.group = *applicable.choose(rng).unwrap();
                    }
                }
            } else {
                // Share the first facet's group; re-draw concepts it
                // applies to, and align polarity so one surface fits all.
                let group = facets[0].group;
                let polarity = facets[0].polarity;
                let concepts = self
                    .lexicon
                    .opinion_by_name(group)
                    .map(|g| g.aspects.to_vec())
                    .unwrap_or_default();
                for f in facets.iter_mut().skip(1) {
                    f.group = group;
                    f.polarity = polarity;
                    if !concepts.is_empty() && !concepts.contains(&f.concept) {
                        f.concept = *concepts.choose(rng).unwrap();
                    }
                }
            }
        }
        self.sentence(&facets, rng)
    }
}

/// Cuisines that may appear as objective slot fillers in utterances.
pub const UTTERANCE_CUISINES: &[&str] = &[
    "italian", "french", "chinese", "japanese", "indian", "mexican", "thai", "greek",
];

/// Cities that may appear as objective slot fillers in utterances.
pub const UTTERANCE_CITIES: &[&str] = &[
    "montreal",
    "lyon",
    "melbourne",
    "toronto",
    "paris",
    "sydney",
];

/// Inject character-level typos into word tokens, leaving gold labels
/// untouched (a typo'd aspect is still the aspect; this is precisely the
/// parse-corruption scenario of §5.1).
pub fn apply_typos(sentence: &mut LabeledSentence, rate: f64, rng: &mut StdRng) {
    for tok in &mut sentence.tokens {
        if tok.len() >= 4 && tok.chars().all(|c| c.is_ascii_alphabetic()) && rng.gen_bool(rate) {
            let mut chars: Vec<char> = tok.chars().collect();
            match rng.gen_range(0..3) {
                0 => {
                    // swap two adjacent interior characters
                    let i = rng.gen_range(1..chars.len() - 1);
                    chars.swap(i - 1, i);
                }
                1 => {
                    // drop one interior character
                    let i = rng.gen_range(1..chars.len() - 1);
                    chars.remove(i);
                }
                _ => {
                    // duplicate one character
                    let i = rng.gen_range(0..chars.len());
                    let c = chars[i];
                    chars.insert(i, c);
                }
            }
            *tok = chars.into_iter().collect();
        }
    }
}

/// Deterministic large-scale subjective-tag corpus for the probe-scaling
/// benches: every lexicon opinion variant crossed with every member of
/// its natural aspect concepts, expanded with seeded single-edit typo
/// variants that still fuzzy-resolve (edit similarity ≥ the 0.75 typo
/// threshold, so each variant lands in the same semantic cell as its
/// clean form). Output order and contents depend only on `(lexicon, n,
/// seed)`. Returns fewer than `n` tags only if the variant space of the
/// lexicon is exhausted.
pub fn synthetic_tags(lexicon: &Lexicon, n: usize, seed: u64) -> Vec<saccs_text::SubjectiveTag> {
    fn mix(mut h: u64) -> u64 {
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
    /// One seeded typo that keeps `edit_similarity ≥ 0.75`: duplicate or
    /// drop an interior char (one Levenshtein edit), or swap adjacent
    /// chars (two edits — only on words of 8+ chars, where `1 − 2/8`
    /// still clears the threshold). Words under 4 chars are returned
    /// verbatim; a single edit there would fall below it.
    fn typo(word: &str, salt: u64) -> String {
        let mut chars: Vec<char> = word.chars().collect();
        if chars.len() < 4 {
            return word.to_string();
        }
        let pos = 1 + (salt as usize >> 2) % (chars.len() - 1);
        match salt & 3 {
            0 | 1 => {
                let c = chars[pos];
                chars.insert(pos, c);
            }
            2 => {
                chars.remove(pos);
            }
            _ if chars.len() >= 8 => chars.swap(pos - 1, pos),
            _ => {
                let c = chars[pos];
                chars.insert(pos, c);
            }
        }
        chars.into_iter().collect()
    }

    let mut base: Vec<(&'static str, &'static str)> = Vec::new();
    for group in lexicon.opinion_groups() {
        for &variant in group.variants {
            for &concept in group.aspects {
                if let Some(ac) = lexicon.aspect_by_name(concept) {
                    for &member in ac.members {
                        base.push((variant, member));
                    }
                }
            }
        }
    }
    if base.is_empty() {
        return Vec::new();
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    let mut i = 0u64;
    let budget = (n as u64).saturating_mul(16);
    while out.len() < n && i < budget {
        let (ov, am) = base[(i as usize) % base.len()];
        let round = i / base.len() as u64;
        let salt = mix(seed ^ mix(i));
        let tag = match (round, round % 3) {
            (0, _) => saccs_text::SubjectiveTag::new(ov, am),
            (_, 1) => saccs_text::SubjectiveTag::new(&typo(ov, salt), am),
            (_, 2) => saccs_text::SubjectiveTag::new(ov, &typo(am, salt)),
            _ => saccs_text::SubjectiveTag::new(&typo(ov, salt), &typo(am, mix(salt))),
        };
        if seen.insert(tag.phrase()) {
            out.push(tag);
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn synthetic_tags_are_deterministic_distinct_and_resolvable() {
        let lexicon = Lexicon::new(saccs_text::Domain::Restaurants);
        let tags = synthetic_tags(&lexicon, 10_000, 0x5EED);
        assert_eq!(tags.len(), 10_000, "variant space exhausted early");
        assert_eq!(tags, synthetic_tags(&lexicon, 10_000, 0x5EED));
        let phrases: std::collections::BTreeSet<String> = tags.iter().map(|t| t.phrase()).collect();
        assert_eq!(phrases.len(), tags.len());
        // Typo'd variants must still fuzzy-resolve into the lexicon so
        // the probe-scaling bench exercises the semantic cells, not the
        // edit-distance fallback.
        let sim =
            saccs_text::ConceptualSimilarity::new(Lexicon::new(saccs_text::Domain::Restaurants));
        for tag in tags.iter().step_by(251) {
            let resolution = sim.resolve(tag).resolution;
            assert!(
                resolution.opinion.is_some(),
                "opinion {:?} fell out of the lexicon",
                tag.opinion
            );
            assert!(
                resolution.aspect.is_some(),
                "aspect {:?} fell out of the lexicon",
                tag.aspect
            );
        }
    }
    use saccs_text::iob::is_valid_sequence;
    use saccs_text::{Domain, SpanKind};

    fn generator(cfg: GeneratorConfig) -> SentenceGenerator {
        SentenceGenerator::new(Lexicon::new(Domain::Restaurants), cfg)
    }

    #[test]
    fn gold_tags_are_structurally_valid() {
        let g = generator(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let s = g.random_sentence(&mut rng);
            assert!(is_valid_sequence(&s.tags), "invalid IOB in {:?}", s.tokens);
            assert_eq!(s.tags.len(), s.tokens.len());
        }
    }

    #[test]
    fn every_pair_links_an_aspect_to_an_opinion() {
        let g = generator(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let s = g.random_sentence(&mut rng);
            assert!(!s.pairs.is_empty());
            for (a, o) in &s.pairs {
                assert_eq!(a.kind, SpanKind::Aspect);
                assert_eq!(o.kind, SpanKind::Opinion);
                assert!(a.end <= s.tokens.len() && o.end <= s.tokens.len());
            }
        }
    }

    #[test]
    fn facet_terms_resolve_in_lexicon() {
        let g = generator(GeneratorConfig {
            noise_rate: 0.0,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let s = g.random_sentence(&mut rng);
            for (a, o) in &s.pairs {
                let asp = a.text(&s.tokens);
                let op = o.text(&s.tokens);
                assert!(g.lexicon().aspect_concept(&asp).is_some(), "aspect {asp}");
                assert!(g.lexicon().opinion_group(&op).is_some(), "opinion {op}");
            }
        }
    }

    #[test]
    fn polarity_is_respected() {
        let g = generator(GeneratorConfig {
            noise_rate: 0.0,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let f = FacetSpec {
                concept: "food",
                group: "delicious",
                polarity: Polarity::Negative,
            };
            let s = g.sentence(&[f], &mut rng);
            let (_, o) = s.pairs[0];
            let group = g.lexicon().opinion_group(&o.text(&s.tokens)).unwrap();
            assert_eq!(group.polarity, Polarity::Negative);
        }
    }

    #[test]
    fn shared_opinion_template_pairs_both_aspects() {
        let g = generator(GeneratorConfig {
            noise_rate: 0.0,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(5);
        let f1 = FacetSpec {
            concept: "staff",
            group: "good",
            polarity: Polarity::Positive,
        };
        let f2 = FacetSpec {
            concept: "decor",
            group: "good",
            polarity: Polarity::Positive,
        };
        let mut saw_shared = false;
        for _ in 0..200 {
            let s = g.sentence(&[f1.clone(), f2.clone()], &mut rng);
            let opinion_spans: std::collections::HashSet<_> =
                s.pairs.iter().map(|(_, o)| *o).collect();
            if s.pairs.len() == 2 && opinion_spans.len() == 1 {
                saw_shared = true;
                break;
            }
        }
        assert!(saw_shared, "shared-opinion template never fired");
    }

    #[test]
    fn train_vocabulary_restriction_holds_out_variants() {
        let train = generator(GeneratorConfig {
            noise_rate: 0.0,
            train_vocabulary_only: true,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(6);
        let group = train.lexicon().opinion_by_name("delicious").unwrap();
        let held_out: Vec<&str> = group.variants.iter().copied().skip(1).step_by(2).collect();
        for _ in 0..300 {
            let f = FacetSpec {
                concept: "food",
                group: "delicious",
                polarity: Polarity::Positive,
            };
            let s = train.sentence(&[f], &mut rng);
            let (_, o) = s.pairs[0];
            let surf = o.text(&s.tokens);
            assert!(
                !held_out.contains(&surf.as_str()),
                "held-out variant {surf} leaked"
            );
        }
    }

    #[test]
    fn typos_change_tokens_but_not_labels() {
        let g = generator(GeneratorConfig {
            noise_rate: 0.0,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(7);
        let f = FacetSpec {
            concept: "food",
            group: "delicious",
            polarity: Polarity::Positive,
        };
        let mut clean = g.sentence(&[f], &mut rng);
        let tags_before = clean.tags.clone();
        let len_before = clean.tokens.len();
        apply_typos(&mut clean, 1.0, &mut rng);
        assert_eq!(clean.tags, tags_before);
        assert_eq!(clean.tokens.len(), len_before);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generator(GeneratorConfig::default());
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let a = g.random_sentence(&mut r1);
            let b = g.random_sentence(&mut r2);
            assert_eq!(a.tokens, b.tokens);
            assert_eq!(a.tags, b.tags);
        }
    }

    #[test]
    fn electronics_domain_generates_noise_tokens() {
        let g = SentenceGenerator::new(
            Lexicon::new(Domain::Electronics),
            GeneratorConfig {
                noise_rate: 1.0,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(8);
        let mut saw_brand = false;
        for _ in 0..50 {
            let s = g.random_sentence(&mut rng);
            if s.tokens
                .iter()
                .any(|t| t == "xr-500" || t == "probook" || t == "1080p")
            {
                saw_brand = true;
                break;
            }
        }
        assert!(saw_brand, "electronics noise tokens never appeared");
    }
}
