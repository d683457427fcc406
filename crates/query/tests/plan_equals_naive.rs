//! Property tests: every compiled plan equals the naive tree-walking
//! evaluator over random corpora × random ASTs × random θ thresholds,
//! under both join orders, and under random permutations of `AND`/`OR`
//! children (join-order invariance).

use proptest::prelude::*;
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
}

/// The tag vocabulary corpora draw from (restaurant-domain words so the
/// similarity fallback for unknown tags has a lexicon to work with).
const VOCAB: [(&str, &str); 8] = [
    ("delicious", "food"),
    ("quiet", "noise level"),
    ("romantic", "ambience"),
    ("expensive", "price"),
    ("friendly", "staff"),
    ("fresh", "fish"),
    ("slow", "service"),
    ("good", "atmosphere"),
];

/// Synthetic objective catalog: every attribute a pure function of the
/// entity id and the corpus seed.
struct SynthCatalog {
    universe: usize,
    salt: u64,
}

impl SynthCatalog {
    fn h(&self, id: usize, k: u64) -> u64 {
        let mut g = Gen(self.salt ^ (id as u64).wrapping_mul(0x100000001b3) ^ k);
        g.next()
    }
}

impl ObjectiveCatalog for SynthCatalog {
    fn universe(&self) -> usize {
        self.universe
    }
    fn attribute(&self, id: usize, name: &str) -> Option<&str> {
        match name {
            "PriceRange" => Some(["1", "2", "3", "4"][(self.h(id, 1) % 4) as usize]),
            "NoiseLevel" => Some(["quiet", "average", "loud"][(self.h(id, 2) % 3) as usize]),
            "Ambience" => Some(["romantic", "casual", "classy"][(self.h(id, 3) % 3) as usize]),
            _ => None,
        }
    }
    fn stars(&self, id: usize) -> Option<f32> {
        Some(3.0 + 0.5 * (self.h(id, 4) % 5) as f32)
    }
    fn has_attribute(&self, name: &str) -> bool {
        matches!(name, "PriceRange" | "NoiseLevel" | "Ambience")
    }
}

fn build_index(g: &mut Gen, universe: usize) -> SubjectiveIndex {
    let mut ix = SubjectiveIndex::new(
        ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
        IndexConfig::default(),
    );
    // Index a random subset of the vocabulary (so some query tags are
    // unknown and exercise the probe fallback), with random posting
    // densities per tag.
    let mut columns = Vec::new();
    for (op, asp) in VOCAB {
        if g.below(4) == 0 {
            continue; // leave this tag unindexed
        }
        let density = 1 + g.below(3); // keep 1/4 .. 3/4 of entities
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

fn gen_leaf(g: &mut Gen) -> FilterExpr {
    match g.below(6) {
        0 | 1 => {
            let (op, asp) = VOCAB[g.below(VOCAB.len() as u64) as usize];
            FilterExpr::Threshold {
                tag: SubjectiveTag::new(op, asp),
                theta: g.unit() * 0.8,
            }
        }
        2 => {
            let (op, _) = VOCAB[g.below(VOCAB.len() as u64) as usize];
            FilterExpr::Opinion {
                word: op.to_string(),
                theta: g.unit() * 0.8,
            }
        }
        3 => FilterExpr::Objective(ObjectivePred::Price {
            op: gen_cmp(g),
            value: 1 + g.below(4) as u8,
        }),
        4 => FilterExpr::Objective(ObjectivePred::Stars {
            op: gen_cmp(g),
            value: 3.0 + 0.5 * g.below(5) as f32,
        }),
        _ => {
            let (name, values): (&str, &[&str]) = match g.below(2) {
                0 => ("NoiseLevel", &["quiet", "average", "loud"]),
                _ => ("Ambience", &["romantic", "casual", "classy"]),
            };
            FilterExpr::Objective(ObjectivePred::Attribute {
                name: name.to_string(),
                value: values[g.below(values.len() as u64) as usize].to_string(),
                negated: g.below(2) == 0,
            })
        }
    }
}

fn gen_cmp(g: &mut Gen) -> CmpOp {
    [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ][g.below(6) as usize]
}

fn gen_expr(g: &mut Gen, depth: usize) -> FilterExpr {
    if depth == 0 || g.below(5) < 2 {
        return gen_leaf(g);
    }
    match g.below(3) {
        0 => FilterExpr::And(
            (0..2 + g.below(3))
                .map(|_| gen_expr(g, depth - 1))
                .collect(),
        ),
        1 => FilterExpr::Or(
            (0..2 + g.below(3))
                .map(|_| gen_expr(g, depth - 1))
                .collect(),
        ),
        _ => FilterExpr::Not(Box::new(gen_expr(g, depth - 1))),
    }
}

/// Recursively shuffle the children of every `AND`/`OR` node.
fn permute(expr: &FilterExpr, g: &mut Gen) -> FilterExpr {
    match expr {
        FilterExpr::And(cs) | FilterExpr::Or(cs) => {
            let mut kids: Vec<FilterExpr> = cs.iter().map(|c| permute(c, g)).collect();
            // Fisher–Yates on the derived generator.
            for i in (1..kids.len()).rev() {
                let j = g.below((i + 1) as u64) as usize;
                kids.swap(i, j);
            }
            if matches!(expr, FilterExpr::And(_)) {
                FilterExpr::And(kids)
            } else {
                FilterExpr::Or(kids)
            }
        }
        FilterExpr::Not(c) => FilterExpr::Not(Box::new(permute(c, g))),
        leaf => leaf.clone(),
    }
}

proptest! {
    #![proptest_config(prop::test_runner::Config::with_cases(96))]

    /// Planner == naive evaluator, both join orders, and invariant under
    /// random permutations of connective children.
    #[test]
    fn plan_equals_naive(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let universe = 2 + g.below(63) as usize;
        let mut cg = Gen(g.next());
        let ix = build_index(&mut cg, universe);
        let catalog = SynthCatalog { universe, salt: g.next() };

        let filter = Filter::from_expr(gen_expr(&mut g, 3));
        prop_assume!(filter.validate().is_ok());

        let naive = naive_matches(&filter, &ix, &catalog).expect("naive evaluates");
        let rarest = compile(&filter, &ix, &catalog, JoinOrder::RarestFirst)
            .expect("compiles")
            .bitmap()
            .to_vec();
        let ltr = compile(&filter, &ix, &catalog, JoinOrder::LeftToRight)
            .expect("compiles")
            .bitmap()
            .to_vec();
        prop_assert_eq!(&rarest, &naive, "rarest-first vs naive, filter {}", filter.normal());
        prop_assert_eq!(&ltr, &naive, "left-to-right vs naive, filter {}", filter.normal());

        // Join-order invariance: any permutation of AND/OR children
        // yields the same result set.
        let shuffled = Filter::from_expr(permute(filter.expr(), &mut g));
        let shuffled_ids = compile(&shuffled, &ix, &catalog, JoinOrder::RarestFirst)
            .expect("compiles")
            .bitmap()
            .to_vec();
        prop_assert_eq!(&shuffled_ids, &naive, "permuted children, filter {}", shuffled.normal());
    }
}
