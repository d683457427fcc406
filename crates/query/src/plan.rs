//! Compiling a [`Filter`] against a pinned index snapshot.
//!
//! Each subjective leaf materializes an entity bitmap from the
//! snapshot's posting lists (degree-of-truth thresholding folded into
//! the posting iteration; unindexed tags go through the same θ_filter
//! similarity fallback a probe uses). Objective leaves are one
//! [`ObjectiveCatalog::matching`] call each, folded into the same plan
//! with the ids earlier conjuncts already admitted: a catalog that keeps
//! bitmaps per attribute value (`saccs-core`'s `SearchApi`) answers by
//! combining them, and the per-id default tests only the admitted ids,
//! never the whole universe, which is what "not post-filtered" buys.
//!
//! The cost model is deliberately small: per-tag posting lengths from
//! [`SubjectiveIndex::posting_stats`](saccs_index::SubjectiveIndex::posting_stats)-style
//! statistics estimate each leaf's cardinality, and `AND` nodes
//! intersect rarest-first (ties broken by original position, so plans
//! are deterministic).
//! [`naive_matches`] is the reference evaluator the property tests and
//! the `BENCH_query` bin compare against.

use crate::ast::{Filter, FilterExpr, ObjectivePred, QueryError};
use crate::bitmap::EntityBitmap;
use saccs_index::SubjectiveIndex;

/// The objective-slot side of the catalog a filter compiles against.
/// `saccs-core` implements this for its `SearchApi` so price, rating
/// and categorical attributes resolve against the same entity set the
/// objective search stage answers from.
pub trait ObjectiveCatalog {
    /// Number of entities; entity ids are `0..universe`.
    fn universe(&self) -> usize;
    /// The entity's value for a categorical attribute, if present.
    fn attribute(&self, id: usize, name: &str) -> Option<&str>;
    /// The entity's star rating, if known.
    fn stars(&self, id: usize) -> Option<f32>;
    /// Does the schema define this attribute at all? Unknown names are
    /// a compile error (→ the service's unfiltered degradation rung),
    /// not a silently-empty predicate.
    fn has_attribute(&self, name: &str) -> bool;

    /// The ids in `0..universe` for which `pred` holds, only among the
    /// ids in `within` when it is given. The default tests `pred` id by
    /// id through [`attribute`](Self::attribute) and
    /// [`stars`](Self::stars), visiting only the ids in `within`; a
    /// catalog with precomputed columns overrides it and must return the
    /// same set.
    fn matching(&self, pred: &ObjectivePred, within: Option<&EntityBitmap>) -> EntityBitmap {
        let universe = self.universe();
        let mut b = EntityBitmap::empty(universe);
        match within {
            // The payoff of folding objective predicates into the
            // plan: under an AND they only test the already-admitted
            // candidate ids, not the whole universe.
            Some(r) => {
                for id in r.iter() {
                    if objective_holds(pred, self, id) {
                        b.insert(id);
                    }
                }
            }
            None => {
                for id in 0..universe {
                    if objective_holds(pred, self, id) {
                        b.insert(id);
                    }
                }
            }
        }
        b
    }
}

/// Join-order policy for `AND` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOrder {
    /// Intersect in ascending estimated-cardinality order (the cost-based
    /// default).
    RarestFirst,
    /// Intersect in source order (the naive baseline the bench A/Bs).
    LeftToRight,
}

impl JoinOrder {
    /// Label used in plan summaries and reports.
    pub fn label(self) -> &'static str {
        match self {
            JoinOrder::RarestFirst => "rarest_first",
            JoinOrder::LeftToRight => "left_to_right",
        }
    }
}

/// What the planner did, for the `algo1.filter` trace span and the
/// flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSummary {
    /// Total predicate leaves.
    pub leaves: u32,
    /// Subjective (threshold/opinion) leaves.
    pub subjective: u32,
    /// Objective (price/rating/attribute) leaves.
    pub objective: u32,
    /// Entities in the compiled bitmap.
    pub matched: u32,
    /// Join-order policy label.
    pub order: &'static str,
}

/// A filter compiled against one pinned snapshot: the final entity
/// bitmap plus the plan summary.
#[derive(Debug, Clone)]
pub struct CompiledFilter {
    bitmap: EntityBitmap,
    summary: PlanSummary,
}

impl CompiledFilter {
    /// Does entity `id` pass the filter?
    pub fn contains(&self, id: usize) -> bool {
        self.bitmap.contains(id)
    }

    /// Number of entities passing the filter.
    pub fn count(&self) -> usize {
        self.bitmap.count()
    }

    /// The compiled entity bitmap.
    pub fn bitmap(&self) -> &EntityBitmap {
        &self.bitmap
    }

    /// The plan summary.
    pub fn summary(&self) -> PlanSummary {
        self.summary
    }
}

struct Ctx<'a> {
    index: &'a SubjectiveIndex,
    catalog: &'a dyn ObjectiveCatalog,
    order: JoinOrder,
    universe: usize,
}

/// Compile `filter` against a pinned `index` snapshot and objective
/// `catalog`. Fails (without touching the index) on unknown attribute
/// names or invalid ASTs — the service maps that to the unfiltered
/// degradation rung.
pub fn compile(
    filter: &Filter,
    index: &SubjectiveIndex,
    catalog: &dyn ObjectiveCatalog,
    order: JoinOrder,
) -> Result<CompiledFilter, QueryError> {
    filter.validate()?;
    check_schema(filter.expr(), catalog)?;
    let ctx = Ctx {
        index,
        catalog,
        order,
        universe: catalog.universe(),
    };
    let bitmap = eval(filter.expr(), &ctx, None);
    let (subjective, objective) = leaf_counts(filter.expr());
    let summary = PlanSummary {
        leaves: filter.leaves() as u32,
        subjective,
        objective,
        matched: bitmap.count() as u32,
        order: order.label(),
    };
    Ok(CompiledFilter { bitmap, summary })
}

/// Reject predicates over attributes the catalog does not define.
fn check_schema(expr: &FilterExpr, catalog: &dyn ObjectiveCatalog) -> Result<(), QueryError> {
    match expr {
        FilterExpr::And(cs) | FilterExpr::Or(cs) => {
            for c in cs {
                check_schema(c, catalog)?;
            }
            Ok(())
        }
        FilterExpr::Not(c) => check_schema(c, catalog),
        FilterExpr::Objective(ObjectivePred::Attribute { name, .. }) => {
            if catalog.has_attribute(name) {
                Ok(())
            } else {
                Err(QueryError::invalid(format!(
                    "unknown catalog attribute {name:?}"
                )))
            }
        }
        FilterExpr::Objective(ObjectivePred::Price { .. }) => {
            if catalog.has_attribute("PriceRange") {
                Ok(())
            } else {
                Err(QueryError::invalid(
                    "catalog has no PriceRange attribute for price predicates",
                ))
            }
        }
        _ => Ok(()),
    }
}

fn leaf_counts(expr: &FilterExpr) -> (u32, u32) {
    match expr {
        FilterExpr::And(cs) | FilterExpr::Or(cs) => cs.iter().fold((0, 0), |(s, o), c| {
            let (cs_, co) = leaf_counts(c);
            (s + cs_, o + co)
        }),
        FilterExpr::Not(c) => leaf_counts(c),
        FilterExpr::Threshold { .. } | FilterExpr::Opinion { .. } => (1, 0),
        FilterExpr::Objective(_) => (0, 1),
    }
}

/// Estimated result cardinality of a node, from per-tag posting-length
/// statistics. Exact for indexed thresholds; `universe` for anything we
/// cannot bound (probe fallbacks, objective tests, complements).
fn estimate(expr: &FilterExpr, ctx: &Ctx<'_>) -> usize {
    match expr {
        FilterExpr::And(cs) => cs.iter().map(|c| estimate(c, ctx)).min().unwrap_or(0),
        FilterExpr::Or(cs) => cs
            .iter()
            .map(|c| estimate(c, ctx))
            .fold(0usize, |a, b| a.saturating_add(b))
            .min(ctx.universe),
        FilterExpr::Not(_) => ctx.universe,
        FilterExpr::Threshold { tag, .. } => {
            let len = ctx.index.posting_len(tag);
            if len > 0 {
                len
            } else {
                // Unindexed (or indexed-empty): the similarity fallback
                // can admit anything, so assume the worst.
                ctx.universe
            }
        }
        FilterExpr::Opinion { word, .. } => {
            let mut sum = 0usize;
            for (tag, len) in ctx.index.posting_stats() {
                if tag.opinion == *word {
                    sum = sum.saturating_add(len);
                }
            }
            sum.min(ctx.universe)
        }
        FilterExpr::Objective(_) => ctx.universe,
    }
}

/// Evaluate a node into an entity bitmap. `restrict` is the candidate
/// set already admitted by earlier conjuncts: objective leaves answer
/// only among those ids, and complements stay within it. Posting-backed
/// leaves may return ids outside `restrict` — the caller intersects.
fn eval(expr: &FilterExpr, ctx: &Ctx<'_>, restrict: Option<&EntityBitmap>) -> EntityBitmap {
    match expr {
        FilterExpr::And(cs) => eval_and(cs, ctx, restrict),
        FilterExpr::Or(cs) => {
            let mut acc = EntityBitmap::empty(ctx.universe);
            for c in cs {
                let b = eval(c, ctx, restrict);
                acc.or_assign(&b);
            }
            acc
        }
        FilterExpr::Not(c) => {
            let mut base = match restrict {
                Some(r) => r.clone(),
                None => EntityBitmap::full(ctx.universe),
            };
            let inner = eval(c, ctx, Some(&base));
            base.and_not_assign(&inner);
            base
        }
        FilterExpr::Threshold { tag, theta } => {
            let mut b = EntityBitmap::empty(ctx.universe);
            match ctx.index.lookup(tag) {
                // A known, non-empty tag answers from its postings —
                // the θ threshold folds into the posting iteration.
                Some(postings) if !postings.is_empty() => {
                    for (id, degree) in postings.iter() {
                        if degree > *theta {
                            b.insert(id);
                        }
                    }
                }
                // Unknown (or indexed-empty) tag: the same θ_filter
                // similarity fallback a ranking probe uses, so a filter
                // never disagrees with ranking about what a tag means.
                _ => {
                    for (id, score) in ctx.index.probe_readonly(tag) {
                        if score > *theta {
                            b.insert(id);
                        }
                    }
                }
            }
            b
        }
        FilterExpr::Opinion { word, theta } => {
            // Union of exact postings over every index tag carrying this
            // opinion, whatever the aspect. Ascending tag order keeps
            // this deterministic.
            let mut b = EntityBitmap::empty(ctx.universe);
            let matching: Vec<_> = ctx
                .index
                .tags()
                .filter(|t| t.opinion == *word)
                .cloned()
                .collect();
            for tag in &matching {
                if let Some(postings) = ctx.index.lookup(tag) {
                    for (id, degree) in postings.iter() {
                        if degree > *theta {
                            b.insert(id);
                        }
                    }
                }
            }
            b
        }
        FilterExpr::Objective(pred) => ctx.catalog.matching(pred, restrict),
    }
}

/// `AND` node: positives first (rarest-first under the cost-based
/// policy, stable on the original position so plans are deterministic),
/// with early exit once the accumulator is empty; `NOT` children are
/// applied last as AND-NOTs, evaluated restricted to the accumulator.
fn eval_and(
    children: &[FilterExpr],
    ctx: &Ctx<'_>,
    restrict: Option<&EntityBitmap>,
) -> EntityBitmap {
    let mut positives: Vec<usize> = Vec::new();
    let mut negatives: Vec<usize> = Vec::new();
    for (i, c) in children.iter().enumerate() {
        if matches!(c, FilterExpr::Not(_)) {
            negatives.push(i);
        } else {
            positives.push(i);
        }
    }
    if ctx.order == JoinOrder::RarestFirst {
        // Stable sort by estimated cardinality; ties keep source order.
        let mut keyed: Vec<(usize, usize)> = positives
            .iter()
            .map(|&i| (estimate(&children[i], ctx), i))
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        positives = keyed.into_iter().map(|(_, i)| i).collect();
    }
    let mut acc: Option<EntityBitmap> = None;
    for &i in &positives {
        let narrowed = acc.as_ref().or(restrict);
        let b = eval(&children[i], ctx, narrowed);
        match acc.as_mut() {
            Some(a) => a.and_assign(&b),
            None => {
                let mut first = b;
                if let Some(r) = restrict {
                    first.and_assign(r);
                }
                acc = Some(first);
            }
        }
        if acc.as_ref().is_some_and(EntityBitmap::is_empty) {
            return acc.unwrap_or_else(|| EntityBitmap::empty(ctx.universe));
        }
    }
    let mut acc = acc.unwrap_or_else(|| match restrict {
        // All children are NOTs: start from the candidate base.
        Some(r) => r.clone(),
        None => EntityBitmap::full(ctx.universe),
    });
    for &i in &negatives {
        if acc.is_empty() {
            break;
        }
        let FilterExpr::Not(inner) = &children[i] else {
            continue;
        };
        let b = eval(inner, ctx, Some(&acc));
        acc.and_not_assign(&b);
    }
    acc
}

/// Does `pred` hold for entity `id`? The per-id meaning of an objective
/// leaf: [`ObjectiveCatalog::matching`]'s default and [`naive_matches`]
/// both test it.
fn objective_holds<C: ObjectiveCatalog + ?Sized>(
    pred: &ObjectivePred,
    catalog: &C,
    id: usize,
) -> bool {
    match pred {
        ObjectivePred::Price { op, value } => catalog
            .attribute(id, "PriceRange")
            .and_then(|v| v.parse::<u8>().ok())
            .map(|p| op.holds(p, *value))
            .unwrap_or(false),
        ObjectivePred::Stars { op, value } => catalog
            .stars(id)
            .map(|s| op.holds(s, *value))
            .unwrap_or(false),
        ObjectivePred::Attribute {
            name,
            value,
            negated,
        } => match catalog.attribute(id, name) {
            // An entity missing the attribute entirely fails both forms:
            // `Ambience!=classy` asks for a known, different ambience,
            // not for ignorance.
            Some(v) => (v == value) != *negated,
            None => false,
        },
    }
}

/// The reference evaluator: a per-entity tree walk with no bitmaps, no
/// planning and no early exit. Subjective leaves resolve to sorted id
/// lists from exactly the same posting/probe source as [`compile`], so
/// any disagreement between the two is a planner bug, not a data-source
/// difference. Returns matching ids ascending.
pub fn naive_matches(
    filter: &Filter,
    index: &SubjectiveIndex,
    catalog: &dyn ObjectiveCatalog,
) -> Result<Vec<usize>, QueryError> {
    filter.validate()?;
    check_schema(filter.expr(), catalog)?;
    let universe = catalog.universe();
    let node = build_naive(filter.expr(), index, universe);
    Ok((0..universe)
        .filter(|&id| naive_holds(&node, catalog, id))
        .collect())
}

enum NaiveNode {
    And(Vec<NaiveNode>),
    Or(Vec<NaiveNode>),
    Not(Box<NaiveNode>),
    /// Sorted matching entity ids for a subjective leaf.
    Subjective(Vec<usize>),
    Objective(ObjectivePred),
}

fn build_naive(expr: &FilterExpr, index: &SubjectiveIndex, universe: usize) -> NaiveNode {
    match expr {
        FilterExpr::And(cs) => {
            NaiveNode::And(cs.iter().map(|c| build_naive(c, index, universe)).collect())
        }
        FilterExpr::Or(cs) => {
            NaiveNode::Or(cs.iter().map(|c| build_naive(c, index, universe)).collect())
        }
        FilterExpr::Not(c) => NaiveNode::Not(Box::new(build_naive(c, index, universe))),
        FilterExpr::Threshold { tag, theta } => {
            let mut ids: Vec<usize> = match index.lookup(tag) {
                Some(postings) if !postings.is_empty() => postings
                    .iter()
                    .filter(|&(_, degree)| degree > *theta)
                    .map(|(id, _)| id)
                    .collect(),
                _ => index
                    .probe_readonly(tag)
                    .into_iter()
                    .filter(|(_, s)| *s > *theta)
                    .map(|(id, _)| id)
                    .collect(),
            };
            ids.retain(|&id| id < universe);
            ids.sort_unstable();
            ids.dedup();
            NaiveNode::Subjective(ids)
        }
        FilterExpr::Opinion { word, theta } => {
            let mut ids: Vec<usize> = Vec::new();
            let matching: Vec<_> = index
                .tags()
                .filter(|t| t.opinion == *word)
                .cloned()
                .collect();
            for tag in &matching {
                if let Some(postings) = index.lookup(tag) {
                    ids.extend(
                        postings
                            .iter()
                            .filter(|&(_, degree)| degree > *theta)
                            .map(|(id, _)| id),
                    );
                }
            }
            ids.retain(|&id| id < universe);
            ids.sort_unstable();
            ids.dedup();
            NaiveNode::Subjective(ids)
        }
        FilterExpr::Objective(p) => NaiveNode::Objective(p.clone()),
    }
}

fn naive_holds(node: &NaiveNode, catalog: &dyn ObjectiveCatalog, id: usize) -> bool {
    match node {
        NaiveNode::And(cs) => cs.iter().all(|c| naive_holds(c, catalog, id)),
        NaiveNode::Or(cs) => cs.iter().any(|c| naive_holds(c, catalog, id)),
        NaiveNode::Not(c) => !naive_holds(c, catalog, id),
        NaiveNode::Subjective(ids) => ids.binary_search(&id).is_ok(),
        NaiveNode::Objective(p) => objective_holds(p, catalog, id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use saccs_index::IndexConfig;
    use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};

    /// A small synthetic catalog: price cycles 1..=4, stars cycle over
    /// five values, NoiseLevel alternates quiet/average/loud.
    struct TestCatalog {
        universe: usize,
    }

    impl ObjectiveCatalog for TestCatalog {
        fn universe(&self) -> usize {
            self.universe
        }
        fn attribute(&self, id: usize, name: &str) -> Option<&str> {
            match name {
                "PriceRange" => Some(["1", "2", "3", "4"][id % 4]),
                "NoiseLevel" => Some(["quiet", "average", "loud"][id % 3]),
                _ => None,
            }
        }
        fn stars(&self, id: usize) -> Option<f32> {
            Some([3.0, 3.5, 4.0, 4.5, 5.0][id % 5])
        }
        fn has_attribute(&self, name: &str) -> bool {
            matches!(name, "PriceRange" | "NoiseLevel")
        }
    }

    /// One installed tag: `(opinion, aspect, raw (entity, degree) pairs)`.
    type Installed<'a> = (&'a str, &'a str, &'a [(usize, f32)]);

    fn index_with(postings: &[Installed<'_>]) -> SubjectiveIndex {
        let mut ix = SubjectiveIndex::new(
            ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants)),
            IndexConfig::default(),
        );
        ix.install_postings(
            postings
                .iter()
                .map(|(op, asp, raw)| (SubjectiveTag::new(op, asp), raw.to_vec())),
        );
        ix
    }

    fn compile_ids(
        filter: &Filter,
        ix: &SubjectiveIndex,
        cat: &TestCatalog,
        order: JoinOrder,
    ) -> Vec<usize> {
        compile(filter, ix, cat, order)
            .expect("compiles")
            .bitmap()
            .to_vec()
    }

    #[test]
    fn planner_matches_naive_on_the_issue_query() {
        let ix = index_with(&[
            (
                "delicious",
                "food",
                &[(0, 0.9), (1, 0.7), (2, 0.5), (5, 0.4)],
            ),
            ("quiet", "noise level", &[(1, 0.8), (3, 0.6)]),
            ("romantic", "ambience", &[(2, 0.9), (5, 0.3)]),
            ("expensive", "price", &[(0, 0.95), (5, 0.2)]),
        ]);
        let cat = TestCatalog { universe: 8 };
        let f = Filter::parse("delicious AND (quiet OR romantic) AND NOT expensive, price<=2")
            .expect("parses");
        let naive = naive_matches(&f, &ix, &cat).expect("evaluates");
        let rarest = compile_ids(&f, &ix, &cat, JoinOrder::RarestFirst);
        let ltr = compile_ids(&f, &ix, &cat, JoinOrder::LeftToRight);
        assert_eq!(rarest, naive);
        assert_eq!(ltr, naive);
        // delicious:{0,1,2,5} ∩ (quiet:{1,3} ∪ romantic:{2,5}) = {1,2,5};
        // minus expensive:{0,5} = {1,2}; price<=2 keeps id%4 ∈ {0,1} → {1}.
        assert_eq!(naive, vec![1]);
    }

    #[test]
    fn theta_folds_into_posting_iteration() {
        let ix = index_with(&[("delicious", "food", &[(0, 0.9), (1, 0.5), (2, 0.2)])]);
        let cat = TestCatalog { universe: 4 };
        let f = Filter::parse("delicious food@0.4").expect("parses");
        assert_eq!(
            compile_ids(&f, &ix, &cat, JoinOrder::RarestFirst),
            vec![0, 1]
        );
    }

    #[test]
    fn unknown_attribute_is_a_compile_error() {
        let ix = index_with(&[("quiet", "noise level", &[(0, 0.5)])]);
        let cat = TestCatalog { universe: 4 };
        let f = Filter::parse("quiet AND Parking=garage").expect("parses");
        let err = compile(&f, &ix, &cat, JoinOrder::RarestFirst).expect_err("unknown attribute");
        assert!(err.reason.contains("Parking"));
        assert!(naive_matches(&f, &ix, &cat).is_err());
    }

    #[test]
    fn pure_negation_filters_within_the_universe() {
        let ix = index_with(&[("expensive", "price", &[(1, 0.9), (2, 0.8)])]);
        let cat = TestCatalog { universe: 5 };
        let f = Filter::parse("NOT expensive price").expect("parses");
        assert_eq!(
            compile_ids(&f, &ix, &cat, JoinOrder::RarestFirst),
            vec![0, 3, 4]
        );
    }

    #[test]
    fn summary_counts_leaves_and_matches() {
        let ix = index_with(&[("quiet", "noise level", &[(0, 0.5), (3, 0.4)])]);
        let cat = TestCatalog { universe: 6 };
        let f = Filter::parse("quiet, price<=2, rating>=3.5").expect("parses");
        let c = compile(&f, &ix, &cat, JoinOrder::RarestFirst).expect("compiles");
        let s = c.summary();
        assert_eq!(s.leaves, 3);
        assert_eq!(s.subjective, 1);
        assert_eq!(s.objective, 2);
        assert_eq!(s.order, "rarest_first");
        assert_eq!(s.matched as usize, c.count());
    }

    #[test]
    fn objective_leaf_stars_comparison() {
        let ix = index_with(&[]);
        let cat = TestCatalog { universe: 10 };
        let f = Filter::from_expr(FilterExpr::Objective(ObjectivePred::Stars {
            op: CmpOp::Gt,
            value: 4.0,
        }));
        let got = compile_ids(&f, &ix, &cat, JoinOrder::RarestFirst);
        let want: Vec<usize> = (0..10)
            .filter(|i| [3.0, 3.5, 4.0, 4.5, 5.0][i % 5] > 4.0)
            .collect();
        assert_eq!(got, want);
    }
}
