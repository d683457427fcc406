//! Aspect / opinion / synonym / concept lexicons.
//!
//! SACCS needs linguistic ground truth in three places:
//!
//! 1. the **similarity checker** (Section 3.1) compares subjective tags with
//!    "conceptual similarity", which "in addition to the individual meaning
//!    of words, also considers their nature or concept, for example *pizza
//!    being a type of food*" — that is exactly the `term → aspect concept`
//!    mapping here;
//! 2. the **IR baseline** (Section 6.2) expands query terms "into synonymous
//!    and related terms" following Ganesan & Zhai — the opinion synonym
//!    groups here;
//! 3. the **synthetic corpus generator** (saccs-data) must produce reviews
//!    whose paraphrase structure mirrors natural language ("The food is
//!    phenomenal" / "Very tasty plates of food" / "Really good food" all
//!    denote deliciousness, §1) — it samples surface variants from the same
//!    groups.
//!
//! Three domains are provided, matching the paper's evaluation datasets:
//! restaurants (S1, S3, Yelp corpus), electronics (S2) and hotels (S4).

use std::collections::HashMap;

/// Review domain, matching the paper's datasets (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// SemEval-14/15 restaurants + the Yelp corpus.
    Restaurants,
    /// SemEval-14 electronics (laptops); contains brand/model noise tokens.
    Electronics,
    /// Booking.com hotels.
    Hotels,
}

/// Sentiment polarity of an opinion group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    Positive,
    Negative,
}

/// An aspect *concept*: a canonical name plus the surface terms that denote
/// it (`pizza` is-a `food`).
#[derive(Debug, Clone)]
pub struct AspectConcept {
    pub canonical: &'static str,
    pub members: &'static [&'static str],
}

/// A group of interchangeable opinion phrases with a shared polarity, and
/// the aspect concepts they meaningfully apply to. `generic` groups (e.g.
/// *good*, *bad*) apply to almost anything and act as similarity bridges.
#[derive(Debug, Clone)]
pub struct OpinionGroup {
    pub canonical: &'static str,
    pub variants: &'static [&'static str],
    pub polarity: Polarity,
    /// Canonical aspect names this opinion is natural for.
    pub aspects: &'static [&'static str],
    /// True for all-purpose evaluatives (*good*, *bad*, *great*…).
    pub generic: bool,
}

struct DomainData {
    aspects: &'static [AspectConcept],
    opinions: &'static [OpinionGroup],
    related: &'static [(&'static str, &'static str)],
    noise: &'static [&'static str],
}

macro_rules! aspect {
    ($canon:literal, [$($m:literal),* $(,)?]) => {
        AspectConcept { canonical: $canon, members: &[$($m),*] }
    };
}
macro_rules! opinion {
    ($canon:literal, $pol:ident, generic, [$($v:literal),* $(,)?], [$($a:literal),* $(,)?]) => {
        OpinionGroup { canonical: $canon, variants: &[$($v),*], polarity: Polarity::$pol,
                       aspects: &[$($a),*], generic: true }
    };
    ($canon:literal, $pol:ident, [$($v:literal),* $(,)?], [$($a:literal),* $(,)?]) => {
        OpinionGroup { canonical: $canon, variants: &[$($v),*], polarity: Polarity::$pol,
                       aspects: &[$($a),*], generic: false }
    };
}

static RESTAURANT_ASPECTS: &[AspectConcept] = &[
    aspect!(
        "food",
        [
            "food",
            "pizza",
            "pasta",
            "dish",
            "dishes",
            "meal",
            "meals",
            "dessert",
            "desserts",
            "appetizers",
            "steak",
            "burger",
            "risotto",
            "lasagna",
            "tiramisu",
            "bread",
            "sauce",
            "cuisine",
            "seafood",
            "salad"
        ]
    ),
    aspect!("cooking", ["cooking", "recipes", "preparation", "kitchen"]),
    aspect!(
        "menu",
        ["menu", "carte", "la carte", "selection", "offerings"]
    ),
    aspect!(
        "ambiance",
        ["ambiance", "ambience", "atmosphere", "vibe", "mood"]
    ),
    aspect!("service", ["service"]),
    aspect!(
        "staff",
        [
            "staff",
            "waiter",
            "waiters",
            "waitress",
            "waitstaff",
            "server",
            "servers",
            "personnel",
            "employees",
            "bartender"
        ]
    ),
    aspect!(
        "plates",
        ["plates", "cutlery", "glasses", "tableware", "silverware"]
    ),
    aspect!("price", ["price", "prices", "bill", "cost", "pricing"]),
    aspect!("portions", ["portions", "portion", "servings", "serving"]),
    aspect!("delivery", ["delivery", "takeout"]),
    aspect!("wine", ["wine", "wines", "wine list"]),
    aspect!("decor", ["decor", "interior", "furnishing", "design"]),
    aspect!("music", ["music", "playlist", "songs"]),
    aspect!("seating", ["seating", "seats", "chairs", "booths"]),
    aspect!("ingredients", ["ingredients", "produce", "vegetables"]),
    aspect!("place", ["place", "spot", "venue", "restaurant"]),
];

static RESTAURANT_OPINIONS: &[OpinionGroup] = &[
    opinion!(
        "delicious",
        Positive,
        [
            "delicious",
            "tasty",
            "scrumptious",
            "flavorful",
            "really good",
            "phenomenal",
            "divine",
            "a killer",
            "mouthwatering",
            "yummy",
            "very tasty"
        ],
        ["food", "cooking", "wine"]
    ),
    opinion!(
        "bland",
        Negative,
        [
            "bland",
            "tasteless",
            "flavorless",
            "mediocre",
            "unremarkable"
        ],
        ["food", "cooking", "wine"]
    ),
    opinion!(
        "creative",
        Positive,
        [
            "creative",
            "inventive",
            "original",
            "imaginative",
            "innovative"
        ],
        ["cooking", "menu", "food"]
    ),
    opinion!(
        "varied",
        Positive,
        ["varied", "diverse", "extensive", "wide", "well stocked"],
        ["menu", "wine"]
    ),
    opinion!(
        "limited",
        Negative,
        ["limited", "narrow", "short", "sparse"],
        ["menu", "wine"]
    ),
    opinion!(
        "romantic",
        Positive,
        ["romantic", "intimate", "candle lit", "dreamy"],
        ["ambiance", "place", "music"]
    ),
    opinion!(
        "cozy",
        Positive,
        ["cozy", "snug", "warm", "homey", "welcoming"],
        ["ambiance", "place", "decor"]
    ),
    opinion!(
        "quick",
        Positive,
        ["quick", "fast", "speedy", "prompt", "swift"],
        ["service", "delivery"]
    ),
    opinion!(
        "slow",
        Negative,
        [
            "slow",
            "sluggish",
            "a bit slow",
            "painfully slow",
            "glacial"
        ],
        ["service", "delivery"]
    ),
    opinion!(
        "nice",
        Positive,
        [
            "nice",
            "friendly",
            "kind",
            "lovely",
            "pleasant",
            "courteous",
            "helpful",
            "professional",
            "attentive",
            "charming"
        ],
        ["staff", "service"]
    ),
    opinion!(
        "rude",
        Negative,
        [
            "rude",
            "unfriendly",
            "unhelpful",
            "dismissive",
            "grumpy",
            "curt"
        ],
        ["staff", "service"]
    ),
    opinion!(
        "clean",
        Positive,
        ["clean", "spotless", "immaculate", "pristine"],
        ["plates", "place", "seating"]
    ),
    opinion!(
        "dirty",
        Negative,
        ["dirty", "filthy", "grimy", "stained"],
        ["plates", "place", "seating"]
    ),
    opinion!(
        "fair",
        Positive,
        ["fair", "reasonable", "affordable", "cheap", "honest"],
        ["price"]
    ),
    opinion!(
        "expensive",
        Negative,
        ["expensive", "costly", "overpriced", "steep"],
        ["price"]
    ),
    opinion!(
        "generous",
        Positive,
        ["generous", "big", "large", "hearty", "huge"],
        ["portions"]
    ),
    opinion!(
        "small",
        Negative,
        ["small", "tiny", "skimpy", "meager"],
        ["portions"]
    ),
    opinion!(
        "beautiful",
        Positive,
        [
            "beautiful",
            "gorgeous",
            "stunning",
            "elegant",
            "stylish",
            "tasteful"
        ],
        ["decor", "place"]
    ),
    opinion!(
        "ugly",
        Negative,
        ["ugly", "tacky", "dated", "drab"],
        ["decor", "place"]
    ),
    opinion!(
        "quiet",
        Positive,
        ["quiet", "calm", "peaceful", "serene", "tranquil"],
        ["place", "ambiance"]
    ),
    opinion!(
        "noisy",
        Negative,
        ["noisy", "loud", "deafening"],
        ["place", "ambiance", "music"]
    ),
    opinion!(
        "comfortable",
        Positive,
        ["comfortable", "comfy", "cushy", "plush"],
        ["seating"]
    ),
    opinion!(
        "uncomfortable",
        Negative,
        ["uncomfortable", "cramped", "stiff"],
        ["seating"]
    ),
    opinion!(
        "fresh",
        Positive,
        ["fresh", "crisp", "seasonal", "garden fresh"],
        ["ingredients", "food"]
    ),
    opinion!(
        "stale",
        Negative,
        ["stale", "frozen", "canned", "wilted"],
        ["ingredients", "food"]
    ),
    opinion!(
        "good",
        Positive,
        generic,
        [
            "good",
            "great",
            "excellent",
            "superb",
            "amazing",
            "wonderful",
            "fantastic",
            "awesome",
            "terrific",
            "outstanding",
            "brilliant"
        ],
        [
            "food", "wine", "music", "service", "staff", "decor", "ambiance", "menu", "cooking",
            "place", "delivery"
        ]
    ),
    opinion!(
        "bad",
        Negative,
        generic,
        [
            "bad",
            "terrible",
            "awful",
            "horrible",
            "poor",
            "disappointing",
            "dreadful"
        ],
        [
            "food", "wine", "music", "service", "staff", "decor", "ambiance", "menu", "cooking",
            "place", "delivery"
        ]
    ),
];

static RESTAURANT_RELATED: &[(&str, &str)] = &[
    ("food", "cooking"),
    ("food", "ingredients"),
    ("food", "menu"),
    ("cooking", "ingredients"),
    ("ambiance", "place"),
    ("ambiance", "decor"),
    ("ambiance", "music"),
    ("service", "staff"),
    ("service", "delivery"),
    ("place", "decor"),
    ("place", "seating"),
];

static RESTAURANT_NOISE: &[&str] = &[
    "yesterday",
    "tonight",
    "again",
    "definitely",
    "probably",
    "honestly",
    "overall",
    "visited",
    "ordered",
    "tried",
    "came",
    "went",
    "back",
    "friends",
    "family",
    "birthday",
    "dinner",
    "lunch",
    "evening",
    "weekend",
    "downtown",
    "street",
    "corner",
];

static ELECTRONICS_ASPECTS: &[AspectConcept] = &[
    aspect!("battery", ["battery", "battery life", "charge"]),
    aspect!("screen", ["screen", "display", "panel", "resolution"]),
    aspect!("keyboard", ["keyboard", "keys", "trackpad", "touchpad"]),
    aspect!("price", ["price", "cost", "pricing"]),
    aspect!("performance", ["performance", "speed", "processor", "cpu"]),
    aspect!("camera", ["camera", "lens", "photos"]),
    aspect!("sound", ["sound", "speakers", "audio", "microphone"]),
    aspect!(
        "build",
        ["build", "chassis", "body", "construction", "hinge"]
    ),
    aspect!(
        "software",
        ["software", "os", "interface", "firmware", "drivers"]
    ),
    aspect!("storage", ["storage", "disk", "memory", "ssd"]),
];

static ELECTRONICS_OPINIONS: &[OpinionGroup] = &[
    opinion!(
        "long-lasting",
        Positive,
        ["long lasting", "enduring", "durable", "all day"],
        ["battery"]
    ),
    opinion!(
        "short-lived",
        Negative,
        ["short lived", "weak", "draining", "dying"],
        ["battery"]
    ),
    opinion!(
        "crisp",
        Positive,
        ["crisp", "sharp", "vivid", "bright", "gorgeous"],
        ["screen", "camera"]
    ),
    opinion!(
        "dim",
        Negative,
        ["dim", "washed out", "grainy", "blurry"],
        ["screen", "camera"]
    ),
    opinion!(
        "snappy",
        Positive,
        ["snappy", "fast", "responsive", "smooth", "blazing"],
        ["performance", "software", "storage", "keyboard"]
    ),
    opinion!(
        "laggy",
        Negative,
        ["laggy", "sluggish", "slow", "choppy", "unresponsive"],
        ["performance", "software", "keyboard"]
    ),
    opinion!(
        "sturdy",
        Positive,
        ["sturdy", "solid", "robust", "premium"],
        ["build", "keyboard"]
    ),
    opinion!(
        "flimsy",
        Negative,
        ["flimsy", "cheap feeling", "creaky", "plasticky"],
        ["build"]
    ),
    opinion!(
        "clear",
        Positive,
        ["clear", "rich", "loud", "balanced"],
        ["sound"]
    ),
    opinion!(
        "tinny",
        Negative,
        ["tinny", "muffled", "distorted"],
        ["sound"]
    ),
    opinion!(
        "affordable",
        Positive,
        ["affordable", "cheap", "reasonable", "fair"],
        ["price"]
    ),
    opinion!(
        "overpriced",
        Negative,
        ["overpriced", "expensive", "steep"],
        ["price"]
    ),
    opinion!(
        "intuitive",
        Positive,
        ["intuitive", "polished", "clean"],
        ["software"]
    ),
    opinion!(
        "buggy",
        Negative,
        ["buggy", "glitchy", "unstable", "crashing"],
        ["software"]
    ),
    opinion!(
        "good",
        Positive,
        generic,
        [
            "good",
            "great",
            "excellent",
            "amazing",
            "fantastic",
            "superb",
            "solid"
        ],
        [
            "battery",
            "screen",
            "keyboard",
            "performance",
            "camera",
            "sound",
            "build",
            "software",
            "storage",
            "price"
        ]
    ),
    opinion!(
        "bad",
        Negative,
        generic,
        [
            "bad",
            "terrible",
            "awful",
            "poor",
            "disappointing",
            "horrible"
        ],
        [
            "battery",
            "screen",
            "keyboard",
            "performance",
            "camera",
            "sound",
            "build",
            "software",
            "storage",
            "price"
        ]
    ),
];

static ELECTRONICS_RELATED: &[(&str, &str)] = &[
    ("performance", "software"),
    ("performance", "storage"),
    ("screen", "camera"),
    ("build", "keyboard"),
];

/// Brand names, model numbers and unit tokens: the "technical terms such as
/// brand names and numerical references" that the paper blames for the large
/// adversarial-ε failure on S2 (§6.3).
static ELECTRONICS_NOISE: &[&str] = &[
    "xr-500",
    "probook",
    "gen3",
    "v2",
    "1080p",
    "i7",
    "16gb",
    "512gb",
    "usb-c",
    "hdmi",
    "model",
    "unit",
    "firmware",
    "update",
    "bios",
    "benchmark",
    "spec",
    "sheet",
    "warranty",
    "shipped",
    "unboxed",
    "returned",
    "bought",
    "upgraded",
];

static HOTEL_ASPECTS: &[AspectConcept] = &[
    aspect!("room", ["room", "rooms", "suite", "bedroom"]),
    aspect!("bed", ["bed", "beds", "mattress", "pillows"]),
    aspect!(
        "staff",
        [
            "staff",
            "reception",
            "concierge",
            "housekeeping",
            "personnel"
        ]
    ),
    aspect!("breakfast", ["breakfast", "buffet", "brunch"]),
    aspect!("location", ["location", "neighborhood", "area"]),
    aspect!("wifi", ["wifi", "internet", "connection"]),
    aspect!("bathroom", ["bathroom", "shower", "toilet"]),
    aspect!("view", ["view", "views", "scenery"]),
    aspect!("pool", ["pool", "spa", "gym"]),
    aspect!("lobby", ["lobby", "entrance", "hallways"]),
];

static HOTEL_OPINIONS: &[OpinionGroup] = &[
    opinion!(
        "clean",
        Positive,
        ["clean", "spotless", "immaculate", "tidy"],
        ["room", "bathroom", "lobby", "pool", "bed"]
    ),
    opinion!(
        "dirty",
        Negative,
        ["dirty", "filthy", "dusty", "moldy"],
        ["room", "bathroom", "lobby", "bed"]
    ),
    opinion!(
        "spacious",
        Positive,
        ["spacious", "roomy", "large", "airy"],
        ["room", "bathroom"]
    ),
    opinion!(
        "cramped",
        Negative,
        ["cramped", "tiny", "claustrophobic"],
        ["room", "bathroom"]
    ),
    opinion!(
        "comfortable",
        Positive,
        ["comfortable", "comfy", "plush", "soft"],
        ["bed", "room"]
    ),
    opinion!(
        "lumpy",
        Negative,
        ["lumpy", "hard", "creaky", "saggy"],
        ["bed"]
    ),
    opinion!(
        "friendly",
        Positive,
        ["friendly", "helpful", "welcoming", "attentive", "courteous"],
        ["staff"]
    ),
    opinion!(
        "rude",
        Negative,
        ["rude", "dismissive", "unhelpful", "cold"],
        ["staff"]
    ),
    opinion!(
        "varied",
        Positive,
        ["varied", "generous", "fresh", "plentiful"],
        ["breakfast"]
    ),
    opinion!(
        "meager",
        Negative,
        ["meager", "stale", "repetitive", "sad"],
        ["breakfast"]
    ),
    opinion!(
        "central",
        Positive,
        ["central", "convenient", "perfect", "walkable"],
        ["location"]
    ),
    opinion!(
        "remote",
        Negative,
        ["remote", "inconvenient", "sketchy"],
        ["location"]
    ),
    opinion!("fast", Positive, ["fast", "reliable", "stable"], ["wifi"]),
    opinion!(
        "spotty",
        Negative,
        ["spotty", "unreliable", "glacial", "nonexistent"],
        ["wifi"]
    ),
    opinion!(
        "stunning",
        Positive,
        ["stunning", "breathtaking", "panoramic", "gorgeous"],
        ["view"]
    ),
    opinion!(
        "good",
        Positive,
        generic,
        [
            "good",
            "great",
            "excellent",
            "amazing",
            "wonderful",
            "lovely"
        ],
        [
            "room",
            "bed",
            "staff",
            "breakfast",
            "location",
            "wifi",
            "bathroom",
            "view",
            "pool",
            "lobby"
        ]
    ),
    opinion!(
        "bad",
        Negative,
        generic,
        ["bad", "terrible", "awful", "poor", "disappointing"],
        [
            "room",
            "bed",
            "staff",
            "breakfast",
            "location",
            "wifi",
            "bathroom",
            "view",
            "pool",
            "lobby"
        ]
    ),
];

static HOTEL_RELATED: &[(&str, &str)] = &[
    ("room", "bed"),
    ("room", "bathroom"),
    ("lobby", "pool"),
    ("location", "view"),
];

static HOTEL_NOISE: &[&str] = &[
    "stayed",
    "nights",
    "checked",
    "booked",
    "arrived",
    "trip",
    "holiday",
    "anniversary",
    "floor",
    "elevator",
    "morning",
    "luggage",
    "airport",
    "downtown",
    "tonight",
];

fn domain_data(domain: Domain) -> DomainData {
    match domain {
        Domain::Restaurants => DomainData {
            aspects: RESTAURANT_ASPECTS,
            opinions: RESTAURANT_OPINIONS,
            related: RESTAURANT_RELATED,
            noise: RESTAURANT_NOISE,
        },
        Domain::Electronics => DomainData {
            aspects: ELECTRONICS_ASPECTS,
            opinions: ELECTRONICS_OPINIONS,
            related: ELECTRONICS_RELATED,
            noise: ELECTRONICS_NOISE,
        },
        Domain::Hotels => DomainData {
            aspects: HOTEL_ASPECTS,
            opinions: HOTEL_OPINIONS,
            related: HOTEL_RELATED,
            noise: HOTEL_NOISE,
        },
    }
}

/// A compiled, queryable lexicon for one domain.
#[derive(Debug, Clone)]
pub struct Lexicon {
    domain: Domain,
    aspects: &'static [AspectConcept],
    opinions: &'static [OpinionGroup],
    related: &'static [(&'static str, &'static str)],
    noise: &'static [&'static str],
    aspect_of_term: HashMap<&'static str, usize>,
    opinion_of_term: HashMap<&'static str, usize>,
}

impl Lexicon {
    /// Compile the lexicon for `domain`.
    pub fn new(domain: Domain) -> Self {
        let data = domain_data(domain);
        let mut aspect_of_term = HashMap::new();
        for (i, a) in data.aspects.iter().enumerate() {
            for &m in a.members {
                aspect_of_term.insert(m, i);
            }
        }
        let mut opinion_of_term = HashMap::new();
        for (i, o) in data.opinions.iter().enumerate() {
            for &v in o.variants {
                // First (more specific) group wins for ambiguous variants
                // such as "crisp", which appears under both `crisp` and
                // `fresh` depending on the domain.
                opinion_of_term.entry(v).or_insert(i);
            }
        }
        Lexicon {
            domain,
            aspects: data.aspects,
            opinions: data.opinions,
            related: data.related,
            noise: data.noise,
            aspect_of_term,
            opinion_of_term,
        }
    }

    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// All aspect concepts of the domain.
    pub fn aspects(&self) -> &'static [AspectConcept] {
        self.aspects
    }

    /// All opinion groups of the domain.
    pub fn opinion_groups(&self) -> &'static [OpinionGroup] {
        self.opinions
    }

    /// Filler/noise tokens characteristic of the domain's reviews.
    pub fn noise_tokens(&self) -> &'static [&'static str] {
        self.noise
    }

    /// The concept a surface term denotes (`pizza` → `food`), if known.
    pub fn aspect_concept(&self, term: &str) -> Option<&AspectConcept> {
        self.aspect_index(term).map(|i| &self.aspects[i])
    }

    /// The opinion group a surface phrase belongs to (`tasty` → `delicious`).
    pub fn opinion_group(&self, phrase: &str) -> Option<&OpinionGroup> {
        self.opinion_index(phrase).map(|i| &self.opinions[i])
    }

    /// Position in [`Lexicon::aspects`] of the concept `term` denotes.
    pub fn aspect_index(&self, term: &str) -> Option<usize> {
        self.aspect_of_term.get(term).copied()
    }

    /// Position in [`Lexicon::opinion_groups`] of the group `phrase`
    /// belongs to.
    pub fn opinion_index(&self, phrase: &str) -> Option<usize> {
        self.opinion_of_term.get(phrase).copied()
    }

    /// Look up an aspect concept by its canonical name.
    pub fn aspect_by_name(&self, canonical: &str) -> Option<&AspectConcept> {
        self.aspects.iter().find(|a| a.canonical == canonical)
    }

    /// Look up an opinion group by its canonical name.
    pub fn opinion_by_name(&self, canonical: &str) -> Option<&OpinionGroup> {
        self.opinions.iter().find(|o| o.canonical == canonical)
    }

    /// True when the two canonical aspects are related (food ↔ cooking).
    pub fn aspects_related(&self, a: &str, b: &str) -> bool {
        a == b
            || self
                .related
                .iter()
                .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// Synonym expansion for the IR baseline: every variant sharing a group
    /// or a concept with `term` (including `term` itself when known).
    pub fn expansions(&self, term: &str) -> Vec<&'static str> {
        if let Some(g) = self.opinion_group(term) {
            return g.variants.to_vec();
        }
        if let Some(a) = self.aspect_concept(term) {
            return a.members.to_vec();
        }
        Vec::new()
    }

    /// Opinion groups whose applicability list contains `aspect_canonical`.
    pub fn opinions_for_aspect(&self, aspect_canonical: &str) -> Vec<&OpinionGroup> {
        self.opinions
            .iter()
            .filter(|o| o.aspects.contains(&aspect_canonical))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pizza_is_a_food() {
        let lex = Lexicon::new(Domain::Restaurants);
        assert_eq!(lex.aspect_concept("pizza").unwrap().canonical, "food");
        assert_eq!(lex.aspect_concept("waiters").unwrap().canonical, "staff");
        assert!(lex.aspect_concept("spaceship").is_none());
    }

    #[test]
    fn tasty_is_delicious() {
        let lex = Lexicon::new(Domain::Restaurants);
        assert_eq!(lex.opinion_group("tasty").unwrap().canonical, "delicious");
        assert_eq!(
            lex.opinion_group("a killer").unwrap().canonical,
            "delicious"
        );
        assert_eq!(lex.opinion_group("friendly").unwrap().canonical, "nice");
    }

    #[test]
    fn all_18_canonical_tags_resolve() {
        // The 18 Moura et al. tags used as the Table-2 test set must all be
        // expressible in the restaurant lexicon.
        let lex = Lexicon::new(Domain::Restaurants);
        let tags = [
            ("delicious", "food"),
            ("creative", "cooking"),
            ("varied", "menu"),
            ("romantic", "ambiance"),
            ("quick", "service"),
            ("nice", "staff"),
            ("clean", "plates"),
            ("fair", "prices"),
            ("cozy", "atmosphere"),
            ("fresh", "ingredients"),
            ("generous", "portions"),
            ("fast", "delivery"),
            ("good", "wine"),
            ("friendly", "waiters"),
            ("quiet", "place"),
            ("beautiful", "decor"),
            ("good", "music"),
            ("comfortable", "seating"),
        ];
        for (op, asp) in tags {
            let group = lex
                .opinion_group(op)
                .unwrap_or_else(|| panic!("opinion {op}"));
            let concept = lex
                .aspect_concept(asp)
                .unwrap_or_else(|| panic!("aspect {asp}"));
            assert!(
                group.aspects.contains(&concept.canonical),
                "{op} should apply to {}",
                concept.canonical
            );
        }
    }

    #[test]
    fn related_aspects_are_symmetric() {
        let lex = Lexicon::new(Domain::Restaurants);
        assert!(lex.aspects_related("food", "cooking"));
        assert!(lex.aspects_related("cooking", "food"));
        assert!(lex.aspects_related("food", "food"));
        assert!(!lex.aspects_related("food", "seating"));
    }

    #[test]
    fn expansions_cover_synonyms_and_members() {
        let lex = Lexicon::new(Domain::Restaurants);
        assert!(lex.expansions("quick").contains(&"fast"));
        assert!(lex.expansions("food").contains(&"pizza"));
        assert!(lex.expansions("zzz").is_empty());
    }

    #[test]
    fn opinion_applicability_lists_reference_real_aspects() {
        for d in [Domain::Restaurants, Domain::Electronics, Domain::Hotels] {
            let lex = Lexicon::new(d);
            for g in lex.opinion_groups() {
                for a in g.aspects {
                    assert!(
                        lex.aspect_by_name(a).is_some(),
                        "{:?}: opinion {} references unknown aspect {a}",
                        d,
                        g.canonical
                    );
                }
            }
        }
    }

    #[test]
    fn every_aspect_has_applicable_opinions_of_both_polarities() {
        for d in [Domain::Restaurants, Domain::Electronics, Domain::Hotels] {
            let lex = Lexicon::new(d);
            for a in lex.aspects() {
                let ops = lex.opinions_for_aspect(a.canonical);
                assert!(
                    ops.iter().any(|o| o.polarity == Polarity::Positive),
                    "{:?}: no positive opinion for {}",
                    d,
                    a.canonical
                );
                assert!(
                    ops.iter().any(|o| o.polarity == Polarity::Negative),
                    "{:?}: no negative opinion for {}",
                    d,
                    a.canonical
                );
            }
        }
    }

    #[test]
    fn electronics_has_brand_noise() {
        let lex = Lexicon::new(Domain::Electronics);
        assert!(lex.noise_tokens().contains(&"xr-500"));
    }

    #[test]
    fn domain_terms_do_not_collide_across_kinds() {
        // No surface term should be both an aspect member and an opinion
        // variant within a domain — that would make gold labels ambiguous.
        for d in [Domain::Restaurants, Domain::Electronics, Domain::Hotels] {
            let lex = Lexicon::new(d);
            for a in lex.aspects() {
                for &m in a.members {
                    assert!(
                        lex.opinion_group(m).is_none(),
                        "{:?}: term {m} is both aspect member and opinion",
                        d
                    );
                }
            }
        }
    }
}
