//! The typed query AST and the [`Filter`] value carried by a
//! `RankRequest`.
//!
//! A filter composes *subjective* predicates (degree-of-truth
//! thresholds over index tags) and *objective* predicates (price,
//! rating, categorical attributes) under `AND`/`OR`/`NOT`. Subjective
//! Databases (Li et al., Megagon Labs, arXiv 1902.09661) motivates
//! exactly this shape: "clean rooms AND quiet, NOT expensive,
//! rating > 4". The AST is pure data — compilation against a pinned
//! index snapshot lives in [`crate::plan`], parsing from the text DSL
//! in [`crate::parse`].

use saccs_text::SubjectiveTag;
use std::fmt;

/// Hard cap on nesting depth accepted by [`Filter::validate`].
pub const MAX_DEPTH: usize = 16;
/// Hard cap on predicate leaves accepted by [`Filter::validate`].
pub const MAX_LEAVES: usize = 64;

/// A comparison operator in an objective predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Apply the comparison to two totally-ordered values.
    pub fn holds<T: PartialOrd>(self, lhs: T, rhs: T) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }

    /// The DSL surface form.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        }
    }
}

/// An objective-slot predicate over the entity catalog, folded into the
/// same plan as the subjective leaves (never post-filtered).
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectivePred {
    /// `price<=2`: the catalog's `PriceRange` attribute (1–4) compared
    /// against a literal.
    Price { op: CmpOp, value: u8 },
    /// `rating>4` / `stars>=3.5`: the star rating compared against a
    /// literal.
    Stars { op: CmpOp, value: f32 },
    /// `NoiseLevel=quiet`: a categorical attribute equality (or `!=`).
    Attribute {
        name: String,
        value: String,
        negated: bool,
    },
}

/// One node of the typed filter expression.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterExpr {
    /// Every child must hold.
    And(Vec<FilterExpr>),
    /// At least one child must hold.
    Or(Vec<FilterExpr>),
    /// The child must not hold (complement within the candidate
    /// universe; the service always intersects the filter with the
    /// objective API results, so the complement never invents
    /// entities).
    Not(Box<FilterExpr>),
    /// The entity's degree of truth for `tag` must exceed `theta`.
    /// Unindexed tags score through the same θ_filter similarity
    /// fallback a probe uses, so a filter never silently diverges from
    /// what ranking would say about the tag.
    Threshold { tag: SubjectiveTag, theta: f32 },
    /// Opinion-only subjective leaf (single-word DSL terms such as
    /// `quiet`): the entity must clear `theta` under *some* index tag
    /// carrying this opinion, whatever the aspect.
    Opinion { word: String, theta: f32 },
    /// An objective catalog predicate.
    Objective(ObjectivePred),
}

impl FilterExpr {
    /// Number of predicate leaves under this node.
    pub fn leaves(&self) -> usize {
        match self {
            FilterExpr::And(cs) | FilterExpr::Or(cs) => cs.iter().map(FilterExpr::leaves).sum(),
            FilterExpr::Not(c) => c.leaves(),
            _ => 1,
        }
    }

    /// Maximum nesting depth of this node (a leaf is depth 1).
    pub fn depth(&self) -> usize {
        match self {
            FilterExpr::And(cs) | FilterExpr::Or(cs) => {
                1 + cs.iter().map(FilterExpr::depth).max().unwrap_or(0)
            }
            FilterExpr::Not(c) => 1 + c.depth(),
            _ => 1,
        }
    }

    fn check(&self) -> Result<(), QueryError> {
        match self {
            FilterExpr::And(cs) | FilterExpr::Or(cs) => {
                if cs.is_empty() {
                    return Err(QueryError::invalid("AND/OR node with no children"));
                }
                for c in cs {
                    c.check()?;
                }
                Ok(())
            }
            FilterExpr::Not(c) => c.check(),
            FilterExpr::Threshold { tag, theta } => {
                if tag.opinion.is_empty() {
                    return Err(QueryError::invalid("threshold tag has an empty opinion"));
                }
                check_theta(*theta)
            }
            FilterExpr::Opinion { word, theta } => {
                if word.is_empty() {
                    return Err(QueryError::invalid("opinion leaf is empty"));
                }
                check_theta(*theta)
            }
            FilterExpr::Objective(p) => match p {
                ObjectivePred::Price { value, .. } => {
                    if !(1..=4).contains(value) {
                        return Err(QueryError::invalid(format!(
                            "price literal {value} outside the 1..=4 range"
                        )));
                    }
                    Ok(())
                }
                ObjectivePred::Stars { value, .. } => {
                    if !value.is_finite() || !(0.0..=5.0).contains(value) {
                        return Err(QueryError::invalid(format!(
                            "rating literal {value} outside the 0..=5 range"
                        )));
                    }
                    Ok(())
                }
                ObjectivePred::Attribute { name, value, .. } => {
                    if name.is_empty() || value.is_empty() {
                        return Err(QueryError::invalid("attribute predicate with empty side"));
                    }
                    Ok(())
                }
            },
        }
    }
}

fn check_theta(theta: f32) -> Result<(), QueryError> {
    if !theta.is_finite() || !(0.0..=1.0).contains(&theta) {
        return Err(QueryError::invalid(format!(
            "theta {theta} outside the [0, 1] range"
        )));
    }
    Ok(())
}

impl fmt::Display for FilterExpr {
    /// Canonical text form: fully parenthesized, thresholds explicit.
    /// This is the normal form hashed into a request's trace key, so it
    /// must be a pure function of the AST.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterExpr::And(cs) | FilterExpr::Or(cs) => {
                let joiner = if matches!(self, FilterExpr::And(_)) {
                    " AND "
                } else {
                    " OR "
                };
                f.write_str("(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(joiner)?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str(")")
            }
            FilterExpr::Not(c) => write!(f, "NOT {c}"),
            FilterExpr::Threshold { tag, theta } => {
                write!(f, "{} {}@{theta}", tag.opinion, tag.aspect)
            }
            FilterExpr::Opinion { word, theta } => write!(f, "{word}@{theta}"),
            FilterExpr::Objective(ObjectivePred::Price { op, value }) => {
                write!(f, "price{}{value}", op.symbol())
            }
            FilterExpr::Objective(ObjectivePred::Stars { op, value }) => {
                write!(f, "rating{}{value}", op.symbol())
            }
            FilterExpr::Objective(ObjectivePred::Attribute {
                name,
                value,
                negated,
            }) => {
                write!(f, "{name}{}{value}", if *negated { "!=" } else { "=" })
            }
        }
    }
}

/// Why a filter could not be parsed, validated, or compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// Human-readable reason.
    pub reason: String,
    /// Byte-offset span `[start, end)` into the DSL source, when the
    /// error came out of the parser.
    pub span: Option<(usize, usize)>,
}

impl QueryError {
    /// A validation/compile error with no source location.
    pub fn invalid(reason: impl Into<String>) -> QueryError {
        QueryError {
            reason: reason.into(),
            span: None,
        }
    }

    /// A parse error anchored at byte span `[start, end)`.
    pub fn at(reason: impl Into<String>, start: usize, end: usize) -> QueryError {
        QueryError {
            reason: reason.into(),
            span: Some((start, end)),
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some((s, e)) => write!(f, "{} (at bytes {s}..{e})", self.reason),
            None => f.write_str(&self.reason),
        }
    }
}

impl std::error::Error for QueryError {}

/// A validated filter attached to a `RankRequest` via `with_filter` —
/// the value the whole serving stack passes through unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    expr: FilterExpr,
    /// The original DSL text, when the filter was parsed from one.
    source: Option<String>,
}

impl Filter {
    /// Parse a DSL string (see [`crate::parse`] for the grammar) and
    /// validate the result. Errors carry byte-offset spans.
    pub fn parse(dsl: &str) -> Result<Filter, QueryError> {
        let expr = crate::parse::parse_expr(dsl)?;
        let filter = Filter {
            expr,
            source: Some(dsl.to_string()),
        };
        filter.validate()?;
        Ok(filter)
    }

    /// Wrap an already-built AST. Validation is deferred to the
    /// `sanitized()` seam of the request builders — [`Filter::validate`]
    /// — so programmatic construction stays infallible.
    pub fn from_expr(expr: FilterExpr) -> Filter {
        Filter { expr, source: None }
    }

    /// The single validation seam: bounds on depth and leaf count, θ
    /// and literal ranges, no empty connectives. `RankRequest::sanitized`
    /// funnels through here instead of clamping silently.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.expr.depth() > MAX_DEPTH {
            return Err(QueryError::invalid(format!(
                "filter nests deeper than {MAX_DEPTH}"
            )));
        }
        let leaves = self.expr.leaves();
        if leaves == 0 {
            return Err(QueryError::invalid("filter has no predicate leaves"));
        }
        if leaves > MAX_LEAVES {
            return Err(QueryError::invalid(format!(
                "filter has {leaves} leaves (max {MAX_LEAVES})"
            )));
        }
        self.expr.check()
    }

    /// The expression tree.
    pub fn expr(&self) -> &FilterExpr {
        &self.expr
    }

    /// The DSL source this filter was parsed from, if any.
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// Canonical normal form (a pure function of the AST, independent
    /// of the surface text) — the form request trace keys hash.
    pub fn normal(&self) -> String {
        self.expr.to_string()
    }

    /// Number of predicate leaves.
    pub fn leaves(&self) -> usize {
        self.expr.leaves()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(op: &str, asp: &str) -> SubjectiveTag {
        SubjectiveTag::new(op, asp)
    }

    #[test]
    fn cmp_ops_hold_as_named() {
        assert!(CmpOp::Le.holds(2, 2));
        assert!(!CmpOp::Lt.holds(2, 2));
        assert!(CmpOp::Ge.holds(4.5, 4.0));
        assert!(CmpOp::Ne.holds("a", "b"));
    }

    #[test]
    fn leaves_and_depth_count_the_tree() {
        let e = FilterExpr::And(vec![
            FilterExpr::Opinion {
                word: "quiet".into(),
                theta: 0.0,
            },
            FilterExpr::Not(Box::new(FilterExpr::Or(vec![
                FilterExpr::Threshold {
                    tag: t("delicious", "food"),
                    theta: 0.2,
                },
                FilterExpr::Objective(ObjectivePred::Price {
                    op: CmpOp::Le,
                    value: 2,
                }),
            ]))),
        ]);
        assert_eq!(e.leaves(), 3);
        assert_eq!(e.depth(), 4);
    }

    #[test]
    fn validate_rejects_out_of_range_literals() {
        let bad_theta = Filter::from_expr(FilterExpr::Threshold {
            tag: t("delicious", "food"),
            theta: 1.5,
        });
        assert!(bad_theta.validate().is_err());
        let bad_price = Filter::from_expr(FilterExpr::Objective(ObjectivePred::Price {
            op: CmpOp::Eq,
            value: 9,
        }));
        assert!(bad_price.validate().is_err());
        let bad_stars = Filter::from_expr(FilterExpr::Objective(ObjectivePred::Stars {
            op: CmpOp::Gt,
            value: f32::NAN,
        }));
        assert!(bad_stars.validate().is_err());
        let empty_and = Filter::from_expr(FilterExpr::And(Vec::new()));
        assert!(empty_and.validate().is_err());
    }

    #[test]
    fn validate_bounds_depth_and_leaves() {
        let mut deep = FilterExpr::Opinion {
            word: "quiet".into(),
            theta: 0.0,
        };
        for _ in 0..MAX_DEPTH {
            deep = FilterExpr::Not(Box::new(deep));
        }
        assert!(Filter::from_expr(deep).validate().is_err());
        let wide = FilterExpr::Or(
            (0..=MAX_LEAVES)
                .map(|i| FilterExpr::Opinion {
                    word: format!("w{i}"),
                    theta: 0.0,
                })
                .collect(),
        );
        assert!(Filter::from_expr(wide).validate().is_err());
    }

    #[test]
    fn normal_form_is_stable_and_content_sensitive() {
        let a = Filter::parse("delicious AND NOT expensive, price<=2").expect("parses");
        let b = Filter::parse("delicious AND NOT expensive, price<=2").expect("parses");
        assert_eq!(a.normal(), b.normal());
        let c = Filter::parse("delicious AND NOT expensive, price<=3").expect("parses");
        assert_ne!(a.normal(), c.normal());
    }
}
