//! Property tests: filters compiled against a [`SearchApi`] catalog,
//! whose objective leaves answer from bitmaps built once per catalog,
//! equal the per-id reference evaluator under both join orders, over
//! corpora edited past what `Entity::sample` draws: attribute values
//! outside the schema, price ranges that parse oddly or not at all,
//! missing attributes, NaN ratings, and reordered, sliced and duplicated
//! ids.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use saccs_core::SearchApi;
use saccs_data::entity::ATTRIBUTE_SCHEMA;
use saccs_data::Entity;
use saccs_index::{IndexConfig, SubjectiveIndex};
use saccs_query::{
    compile, naive_matches, CmpOp, Filter, FilterExpr, JoinOrder, ObjectiveCatalog, ObjectivePred,
};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};

/// Deterministic generator state derived from the proptest case seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }

    fn pick<'t, T>(&mut self, items: &'t [T]) -> &'t T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Subjective tags the index and the filters draw from.
const VOCAB: [(&str, &str); 6] = [
    ("delicious", "food"),
    ("quiet", "noise level"),
    ("romantic", "ambience"),
    ("expensive", "price"),
    ("friendly", "staff"),
    ("fresh", "fish"),
];

/// `PriceRange` values outside the schema: a zero, a leading zero, two
/// digits, and one that does not parse.
const ODD_PRICES: [&str; 4] = ["0", "02", "12", "x"];

/// Attribute values no schema attribute allows.
const UNKNOWN_VALUES: [&str; 3] = ["deafening", "hip", "maybe"];

/// The corpus per-id reference: an id's entity is the one at the id's
/// own position when it has that id, else the first that has it,
/// found by scanning the slice on every call, with no column or table.
struct ScanCatalog<'a>(&'a [Entity]);

impl ScanCatalog<'_> {
    fn entity(&self, id: usize) -> Option<&Entity> {
        self.0
            .get(id)
            .filter(|e| e.id == id)
            .or_else(|| self.0.iter().find(|e| e.id == id))
    }
}

impl ObjectiveCatalog for ScanCatalog<'_> {
    fn universe(&self) -> usize {
        self.0.iter().map(|e| e.id + 1).max().unwrap_or(0)
    }
    fn attribute(&self, id: usize, name: &str) -> Option<&str> {
        self.entity(id)?.attributes.get(name).copied()
    }
    fn stars(&self, id: usize) -> Option<f32> {
        self.entity(id).map(|e| e.stars)
    }
    fn has_attribute(&self, name: &str) -> bool {
        ATTRIBUTE_SCHEMA.iter().any(|(n, _)| *n == name)
    }
}

/// Sampled entities, then edited through their public fields: odd
/// attribute values, missing attributes, NaN ratings, and a slice of
/// the ids with holes, duplicates (whose attributes differ from the
/// original's) and a shuffle.
fn build_corpus(g: &mut Gen, lex: &Lexicon) -> Vec<Entity> {
    let mut rng = StdRng::seed_from_u64(g.next());
    let n = 1 + g.below(150) as usize;
    let mut ents: Vec<Entity> = (0..n).map(|i| Entity::sample(i, lex, &mut rng)).collect();
    for e in ents.iter_mut() {
        match g.below(8) {
            0 => {
                let (name, _) = *g.pick(ATTRIBUTE_SCHEMA);
                e.attributes.insert(name, *g.pick(&UNKNOWN_VALUES));
            }
            1 => {
                e.attributes.insert("PriceRange", *g.pick(&ODD_PRICES));
            }
            2 => {
                let (name, _) = *g.pick(ATTRIBUTE_SCHEMA);
                e.attributes.remove(name);
            }
            3 => e.stars = f32::NAN,
            _ => {}
        }
    }
    // A slice of the ids, with holes.
    let start = g.below(n as u64) as usize;
    let end = start + 1 + g.below((n - start) as u64) as usize;
    let mut ents: Vec<Entity> = ents.drain(start..end).filter(|_| g.below(6) != 0).collect();
    // Duplicated ids whose copies carry other attributes.
    for _ in 0..g.below(4) {
        if ents.is_empty() {
            break;
        }
        let mut copy = g.pick(&ents).clone();
        let (name, values) = *g.pick(ATTRIBUTE_SCHEMA);
        copy.attributes.insert(name, *g.pick(values));
        copy.stars = 1.0 + 4.0 * g.unit();
        let at = g.below(ents.len() as u64 + 1) as usize;
        ents.insert(at, copy);
    }
    // Reordered: a Fisher–Yates shuffle on half the corpora.
    if g.below(2) == 0 {
        for i in (1..ents.len()).rev() {
            let j = g.below((i + 1) as u64) as usize;
            ents.swap(i, j);
        }
    }
    ents
}

fn build_index(g: &mut Gen, universe: usize) -> SubjectiveIndex {
    let mut ix = SubjectiveIndex::new(
        ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
        IndexConfig::default(),
    );
    // A random subset of the vocabulary, so some filter tags are
    // unknown and take the probe fallback, at random densities.
    let mut columns = Vec::new();
    for (op, asp) in VOCAB {
        if g.below(4) == 0 {
            continue;
        }
        let density = 1 + g.below(3);
        let mut raw = Vec::new();
        for id in 0..universe {
            if g.below(4) < density {
                raw.push((id, 0.05 + 0.95 * g.unit()));
            }
        }
        columns.push((SubjectiveTag::new(op, asp), raw));
    }
    ix.install_postings(columns);
    ix
}

fn gen_cmp(g: &mut Gen) -> CmpOp {
    *g.pick(&[
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ])
}

fn gen_leaf(g: &mut Gen, ents: &[Entity]) -> FilterExpr {
    match g.below(6) {
        0 => {
            let (op, asp) = *g.pick(&VOCAB);
            FilterExpr::Threshold {
                tag: SubjectiveTag::new(op, asp),
                theta: g.unit() * 0.8,
            }
        }
        1 => FilterExpr::Opinion {
            word: g.pick(&VOCAB).0.to_string(),
            theta: g.unit() * 0.8,
        },
        2 => FilterExpr::Objective(ObjectivePred::Price {
            op: gen_cmp(g),
            value: 1 + g.below(4) as u8,
        }),
        3 => {
            // Half the literals are some entity's exact rating, so `=`,
            // `<=` and `>=` meet equality.
            let exact = ents.get(g.below(ents.len() as u64) as usize);
            let value = match exact.map(|e| e.stars) {
                Some(stars) if stars.is_finite() && g.below(2) == 0 => stars,
                _ => 0.5 * g.below(11) as f32,
            };
            FilterExpr::Objective(ObjectivePred::Stars {
                op: gen_cmp(g),
                value,
            })
        }
        _ => {
            let (name, values) = *g.pick(ATTRIBUTE_SCHEMA);
            let value = if g.below(4) == 0 {
                *g.pick(&UNKNOWN_VALUES)
            } else {
                *g.pick(values)
            };
            FilterExpr::Objective(ObjectivePred::Attribute {
                name: name.to_string(),
                value: value.to_string(),
                negated: g.below(2) == 0,
            })
        }
    }
}

fn gen_expr(g: &mut Gen, ents: &[Entity], depth: usize) -> FilterExpr {
    if depth == 0 || g.below(5) < 2 {
        return gen_leaf(g, ents);
    }
    let kids = |g: &mut Gen| -> Vec<FilterExpr> {
        (0..2 + g.below(3))
            .map(|_| gen_expr(g, ents, depth - 1))
            .collect()
    };
    match g.below(3) {
        0 => FilterExpr::And(kids(g)),
        1 => FilterExpr::Or(kids(g)),
        _ => FilterExpr::Not(Box::new(gen_expr(g, ents, depth - 1))),
    }
}

proptest! {
    #![proptest_config(prop::test_runner::Config::with_cases(96))]

    /// `compile` against a `SearchApi` (objective leaves from its
    /// bitmaps, narrowed by the subjective leaves) == `naive_matches`
    /// (objective leaves tested per id), both join orders; and both ==
    /// the per-id reference over a catalog that scans the slice for
    /// each id, which pins the id table to the first-match rule.
    #[test]
    fn search_api_plan_equals_naive(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let lex = Lexicon::new(Domain::Restaurants);
        let ents = build_corpus(&mut g, &lex);
        let api = SearchApi::new(&ents);
        let scan = ScanCatalog(&ents);
        prop_assert_eq!(api.universe(), scan.universe());
        let ix = build_index(&mut Gen(g.next()), api.universe());

        for _ in 0..4 {
            let filter = Filter::from_expr(gen_expr(&mut g, &ents, 3));
            prop_assume!(filter.validate().is_ok());
            let naive = naive_matches(&filter, &ix, &api).expect("naive evaluates");
            let reference = naive_matches(&filter, &ix, &scan).expect("reference evaluates");
            prop_assert_eq!(&naive, &reference, "id table vs scan, filter {}", filter.normal());
            for order in [JoinOrder::RarestFirst, JoinOrder::LeftToRight] {
                let compiled = compile(&filter, &ix, &api, order)
                    .expect("compiles")
                    .bitmap()
                    .to_vec();
                prop_assert_eq!(
                    &compiled,
                    &naive,
                    "{} vs naive, filter {}",
                    order.label(),
                    filter.normal()
                );
            }
        }
    }
}
