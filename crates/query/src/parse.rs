//! The text DSL for subjective filters.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! filter  := clause (',' clause)*          -- comma is a top-level AND
//! clause  := orexpr
//! orexpr  := andexpr ('OR' andexpr)*
//! andexpr := unary ('AND' unary)*
//! unary   := 'NOT' unary | primary
//! primary := '(' orexpr ')' | term
//! term    := objective | subjective
//! objective  := 'price' cmp INT            -- PriceRange, 1..=4
//!             | ('rating'|'stars') cmp NUM -- star rating, 0..=5
//!             | WORD ('='|'!=') WORD       -- catalog attribute
//! subjective := WORD [WORD] ['@' NUM]      -- opinion [aspect] [theta]
//! cmp     := '<' | '<=' | '>' | '>=' | '=' | '!='
//! ```
//!
//! `AND`/`OR`/`NOT` are case-insensitive and reserved. A one-word
//! subjective term (`quiet`) matches the opinion under any aspect; a
//! two-word term (`delicious food`) names the full tag. `@0.3` sets the
//! degree-of-truth threshold θ (default 0, i.e. any positive degree).
//! All parse errors carry byte-offset spans into the source string.
//!
//! The parser recurses once per `(` and once per `NOT`, so it stops at
//! [`MAX_NESTING`](crate::parse::MAX_NESTING) levels: no text can
//! overflow its stack. What parses is then held to the tighter
//! [`MAX_DEPTH`](crate::ast::MAX_DEPTH) by
//! [`Filter::validate`](crate::Filter::validate).

use crate::ast::{CmpOp, FilterExpr, ObjectivePred, QueryError, MAX_DEPTH};
use saccs_text::SubjectiveTag;

/// Deepest `(` / `NOT` nesting the parser follows before it rejects the
/// text.
pub const MAX_NESTING: usize = 4 * MAX_DEPTH;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    LParen,
    RParen,
    Comma,
    At,
    Cmp(CmpOp),
    Word(String),
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    start: usize,
    end: usize,
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-'
}

fn tokenize(src: &str) -> Result<Vec<Spanned>, QueryError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let (tok, len) = match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'(' => (Tok::LParen, 1),
            b')' => (Tok::RParen, 1),
            b',' => (Tok::Comma, 1),
            b'@' => (Tok::At, 1),
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    (Tok::Cmp(CmpOp::Le), 2)
                } else {
                    (Tok::Cmp(CmpOp::Lt), 1)
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    (Tok::Cmp(CmpOp::Ge), 2)
                } else {
                    (Tok::Cmp(CmpOp::Gt), 1)
                }
            }
            b'=' => (Tok::Cmp(CmpOp::Eq), 1),
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    (Tok::Cmp(CmpOp::Ne), 2)
                } else {
                    return Err(QueryError::at("expected '=' after '!'", i, i + 1));
                }
            }
            _ if is_word_byte(b) => {
                let mut j = i + 1;
                while j < bytes.len() && is_word_byte(bytes[j]) {
                    j += 1;
                }
                (Tok::Word(src[i..j].to_string()), j - i)
            }
            _ => {
                return Err(QueryError::at(
                    format!(
                        "unexpected character {:?}",
                        src[i..].chars().next().unwrap_or('?')
                    ),
                    i,
                    i + 1,
                ));
            }
        };
        out.push(Spanned {
            tok,
            start: i,
            end: i + len,
        });
        i += len;
    }
    Ok(out)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    src_len: usize,
    /// Open `(` and `NOT` levels on the recursion stack.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Spanned> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> (usize, usize) {
        match self.peek() {
            Some(t) => (t.start, t.end),
            None => (self.src_len, self.src_len),
        }
    }

    /// Enter one more `(` or `NOT` level, the token at `start..end`, or
    /// reject the text past [`MAX_NESTING`].
    fn nest(&mut self, start: usize, end: usize) -> Result<(), QueryError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            let reason = format!("filter nests deeper than {MAX_NESTING}");
            return Err(QueryError::at(reason, start, end));
        }
        Ok(())
    }

    /// Is the token at `pos` a reserved keyword (case-insensitive)?
    fn keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Spanned { tok: Tok::Word(w), .. }) if w.eq_ignore_ascii_case(kw))
    }

    fn parse_filter(&mut self) -> Result<FilterExpr, QueryError> {
        let mut clauses = vec![self.parse_or()?];
        while matches!(
            self.peek(),
            Some(Spanned {
                tok: Tok::Comma,
                ..
            })
        ) {
            self.bump();
            clauses.push(self.parse_or()?);
        }
        Ok(flatten_and(clauses))
    }

    fn parse_or(&mut self) -> Result<FilterExpr, QueryError> {
        let mut arms = vec![self.parse_and()?];
        while self.keyword("or") {
            self.bump();
            arms.push(self.parse_and()?);
        }
        if arms.len() == 1 {
            Ok(arms.pop().unwrap_or(FilterExpr::And(Vec::new())))
        } else {
            Ok(flatten_or(arms))
        }
    }

    fn parse_and(&mut self) -> Result<FilterExpr, QueryError> {
        let mut arms = vec![self.parse_unary()?];
        while self.keyword("and") {
            self.bump();
            arms.push(self.parse_unary()?);
        }
        if arms.len() == 1 {
            Ok(arms.pop().unwrap_or(FilterExpr::And(Vec::new())))
        } else {
            Ok(flatten_and(arms))
        }
    }

    fn parse_unary(&mut self) -> Result<FilterExpr, QueryError> {
        if self.keyword("not") {
            let (start, end) = self.here();
            self.nest(start, end)?;
            self.bump();
            let inner = self.parse_unary()?;
            self.depth -= 1;
            return Ok(FilterExpr::Not(Box::new(inner)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<FilterExpr, QueryError> {
        match self.peek() {
            Some(Spanned {
                tok: Tok::LParen,
                start,
                ..
            }) => {
                let open = *start;
                self.nest(open, open + 1)?;
                self.bump();
                let inner = self.parse_or()?;
                self.depth -= 1;
                match self.bump() {
                    Some(Spanned {
                        tok: Tok::RParen, ..
                    }) => Ok(inner),
                    _ => Err(QueryError::at("unclosed '('", open, open + 1)),
                }
            }
            Some(Spanned {
                tok: Tok::Word(_), ..
            }) => self.parse_term(),
            _ => {
                let (s, e) = self.here();
                Err(QueryError::at("expected a predicate", s, e))
            }
        }
    }

    fn parse_term(&mut self) -> Result<FilterExpr, QueryError> {
        let first = match self.bump() {
            Some(Spanned {
                tok: Tok::Word(w),
                start,
                end,
            }) => (w, start, end),
            other => {
                let (s, e) = other
                    .map(|t| (t.start, t.end))
                    .unwrap_or((self.src_len, self.src_len));
                return Err(QueryError::at("expected a predicate", s, e));
            }
        };
        // Objective form: WORD cmp WORD.
        if let Some(Spanned {
            tok: Tok::Cmp(op),
            start,
            end,
        }) = self.peek().cloned()
        {
            let (op_s, op_e) = (start, end);
            self.bump();
            let (rhs, rhs_s, rhs_e) = match self.bump() {
                Some(Spanned {
                    tok: Tok::Word(w),
                    start,
                    end,
                }) => (w, start, end),
                _ => {
                    return Err(QueryError::at(
                        "expected a value after comparison",
                        op_s,
                        op_e,
                    ));
                }
            };
            return objective(
                &first.0, first.1, first.2, op, op_s, op_e, &rhs, rhs_s, rhs_e,
            );
        }
        if is_reserved(&first.0) {
            return Err(QueryError::at(
                format!("keyword {:?} cannot start a predicate", first.0),
                first.1,
                first.2,
            ));
        }
        // Subjective form: opinion [aspect] [@ theta].
        let mut aspect = None;
        if let Some(Spanned {
            tok: Tok::Word(w), ..
        }) = self.peek()
        {
            if !is_reserved(w) {
                // Peek one further: `quiet NoiseLevel=x` must leave the
                // attribute word for the *next* clause only if followed
                // by a comparison — but that split is ambiguous, so we
                // simply take the word as the aspect unless a cmp
                // follows it (then it belongs to an objective term).
                let next_is_cmp = matches!(
                    self.toks.get(self.pos + 1),
                    Some(Spanned {
                        tok: Tok::Cmp(_),
                        ..
                    })
                );
                if !next_is_cmp {
                    if let Some(Spanned {
                        tok: Tok::Word(w), ..
                    }) = self.bump()
                    {
                        aspect = Some(w);
                    }
                }
            }
        }
        let mut theta = 0.0f32;
        if matches!(self.peek(), Some(Spanned { tok: Tok::At, .. })) {
            self.bump();
            let (word, s, e) = match self.bump() {
                Some(Spanned {
                    tok: Tok::Word(w),
                    start,
                    end,
                }) => (w, start, end),
                other => {
                    let (s, e) = other
                        .map(|t| (t.start, t.end))
                        .unwrap_or((self.src_len, self.src_len));
                    return Err(QueryError::at("expected a threshold after '@'", s, e));
                }
            };
            theta = word
                .parse::<f32>()
                .map_err(|_| QueryError::at(format!("bad threshold {word:?}"), s, e))?;
        }
        Ok(match aspect {
            Some(a) => FilterExpr::Threshold {
                tag: SubjectiveTag::new(&first.0, &a),
                theta,
            },
            None => FilterExpr::Opinion {
                word: first.0.to_ascii_lowercase(),
                theta,
            },
        })
    }
}

fn is_reserved(w: &str) -> bool {
    w.eq_ignore_ascii_case("and") || w.eq_ignore_ascii_case("or") || w.eq_ignore_ascii_case("not")
}

#[allow(clippy::too_many_arguments)]
fn objective(
    lhs: &str,
    lhs_s: usize,
    lhs_e: usize,
    op: CmpOp,
    op_s: usize,
    op_e: usize,
    rhs: &str,
    rhs_s: usize,
    rhs_e: usize,
) -> Result<FilterExpr, QueryError> {
    if lhs.eq_ignore_ascii_case("price") {
        let value = rhs
            .parse::<u8>()
            .map_err(|_| QueryError::at(format!("bad price literal {rhs:?}"), rhs_s, rhs_e))?;
        return Ok(FilterExpr::Objective(ObjectivePred::Price { op, value }));
    }
    if lhs.eq_ignore_ascii_case("rating") || lhs.eq_ignore_ascii_case("stars") {
        let value = rhs
            .parse::<f32>()
            .map_err(|_| QueryError::at(format!("bad rating literal {rhs:?}"), rhs_s, rhs_e))?;
        return Ok(FilterExpr::Objective(ObjectivePred::Stars { op, value }));
    }
    match op {
        CmpOp::Eq | CmpOp::Ne => Ok(FilterExpr::Objective(ObjectivePred::Attribute {
            name: lhs.to_string(),
            value: rhs.to_string(),
            negated: op == CmpOp::Ne,
        })),
        _ => Err(QueryError::at(
            format!("attribute {lhs:?} only supports '=' or '!=' (ordering is for price/rating)"),
            op_s,
            op_e,
        )),
    }
    .map_err(|e| {
        // Anchor attribute-shape errors at the lhs if the op span is
        // degenerate (defensive; spans always exist today).
        if e.span == Some((0, 0)) {
            QueryError::at(e.reason, lhs_s, lhs_e)
        } else {
            e
        }
    })
}

fn flatten_and(arms: Vec<FilterExpr>) -> FilterExpr {
    let mut out = Vec::with_capacity(arms.len());
    for a in arms {
        match a {
            FilterExpr::And(cs) => out.extend(cs),
            other => out.push(other),
        }
    }
    if out.len() == 1 {
        out.pop().unwrap_or(FilterExpr::And(Vec::new()))
    } else {
        FilterExpr::And(out)
    }
}

fn flatten_or(arms: Vec<FilterExpr>) -> FilterExpr {
    let mut out = Vec::with_capacity(arms.len());
    for a in arms {
        match a {
            FilterExpr::Or(cs) => out.extend(cs),
            other => out.push(other),
        }
    }
    if out.len() == 1 {
        out.pop().unwrap_or(FilterExpr::Or(Vec::new()))
    } else {
        FilterExpr::Or(out)
    }
}

/// Parse a DSL string into an expression tree. Called by
/// [`crate::Filter::parse`]; errors carry byte-offset spans.
pub fn parse_expr(src: &str) -> Result<FilterExpr, QueryError> {
    let toks = tokenize(src)?;
    if toks.is_empty() {
        return Err(QueryError::at("empty filter", 0, 0));
    }
    let mut p = Parser {
        toks,
        pos: 0,
        src_len: src.len(),
        depth: 0,
    };
    let expr = p.parse_filter()?;
    if let Some(t) = p.peek() {
        return Err(QueryError::at(
            "trailing input after filter",
            t.start,
            t.end,
        ));
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Filter;

    fn tag(op: &str, asp: &str) -> SubjectiveTag {
        SubjectiveTag::new(op, asp)
    }

    #[test]
    fn parses_the_issue_example() {
        let e = parse_expr("delicious AND (quiet OR romantic) AND NOT expensive, price<=2")
            .expect("parses");
        let FilterExpr::And(arms) = e else {
            panic!("top level should be AND")
        };
        assert_eq!(arms.len(), 4);
        assert_eq!(
            arms[0],
            FilterExpr::Opinion {
                word: "delicious".into(),
                theta: 0.0
            }
        );
        assert!(matches!(&arms[1], FilterExpr::Or(inner) if inner.len() == 2));
        assert!(matches!(&arms[2], FilterExpr::Not(_)));
        assert_eq!(
            arms[3],
            FilterExpr::Objective(ObjectivePred::Price {
                op: CmpOp::Le,
                value: 2
            })
        );
    }

    #[test]
    fn two_word_terms_name_the_full_tag_with_theta() {
        let e = parse_expr("delicious food@0.3").expect("parses");
        assert_eq!(
            e,
            FilterExpr::Threshold {
                tag: tag("delicious", "food"),
                theta: 0.3
            }
        );
    }

    #[test]
    fn rating_and_attribute_objectives() {
        let e =
            parse_expr("rating>=3.5 AND NoiseLevel=quiet AND Ambience!=classy").expect("parses");
        let FilterExpr::And(arms) = e else {
            panic!("AND")
        };
        assert_eq!(
            arms[0],
            FilterExpr::Objective(ObjectivePred::Stars {
                op: CmpOp::Ge,
                value: 3.5
            })
        );
        assert_eq!(
            arms[1],
            FilterExpr::Objective(ObjectivePred::Attribute {
                name: "NoiseLevel".into(),
                value: "quiet".into(),
                negated: false,
            })
        );
        assert_eq!(
            arms[2],
            FilterExpr::Objective(ObjectivePred::Attribute {
                name: "Ambience".into(),
                value: "classy".into(),
                negated: true,
            })
        );
    }

    #[test]
    fn keywords_are_case_insensitive_and_reserved() {
        let a = parse_expr("quiet and not loud").expect("parses");
        let b = parse_expr("quiet AND NOT loud").expect("parses");
        assert_eq!(a, b);
        assert!(parse_expr("AND quiet").is_err());
    }

    #[test]
    fn errors_carry_byte_spans() {
        let err = parse_expr("quiet AND price<<2").expect_err("double cmp");
        assert!(err.span.is_some());
        let err = parse_expr("price<=nine").expect_err("bad literal");
        assert_eq!(err.span, Some((7, 11)));
        let err = parse_expr("(quiet OR loud").expect_err("unclosed");
        assert_eq!(err.span, Some((0, 1)));
        let err = parse_expr("Ambience<casual").expect_err("ordering on attribute");
        assert_eq!(err.span, Some((8, 9)));
    }

    #[test]
    fn adjacent_objective_term_is_not_swallowed_as_an_aspect() {
        // The aspect-word is only consumed when NOT followed by a
        // comparison, so `quiet NoiseLevel=average` keeps `NoiseLevel`
        // out of the subjective term — and without an explicit AND the
        // leftover objective term is a trailing-input error.
        let err = parse_expr("quiet NoiseLevel=average").expect_err("needs AND");
        assert!(err.reason.contains("trailing"));
        let e = parse_expr("quiet AND NoiseLevel=average").expect("parses");
        let FilterExpr::And(arms) = e else {
            panic!("AND")
        };
        assert_eq!(
            arms[0],
            FilterExpr::Opinion {
                word: "quiet".into(),
                theta: 0.0
            }
        );
        assert!(matches!(
            &arms[1],
            FilterExpr::Objective(ObjectivePred::Attribute { .. })
        ));
    }

    #[test]
    fn nesting_past_the_bound_is_rejected_with_a_span() {
        let src = format!("{}quiet", "(".repeat(200_000));
        let err = parse_expr(&src).expect_err("too deep");
        assert_eq!(err.span, Some((MAX_NESTING, MAX_NESTING + 1)));
        let src = "NOT ".repeat(200_000) + "quiet";
        let err = parse_expr(&src).expect_err("too deep");
        let at = 4 * MAX_NESTING;
        assert_eq!(err.span, Some((at, at + 3)));
        let src = format!(
            "{}quiet{}",
            "(".repeat(MAX_NESTING),
            ")".repeat(MAX_NESTING)
        );
        assert!(parse_expr(&src).is_ok());
    }

    proptest::proptest! {
        /// Any text, keywords, brackets and non-ASCII included, parses
        /// to a filter or an error.
        #[test]
        fn parse_returns_on_arbitrary_text(
            src in "(AND |OR |NOT |not |\\(|\\)|,|@|<=|!=|>|=|quiet |food |price|0\\.5| |\t|\n|[a-z]{1,3}|[A-Z]|[\u{80}-\u{D7FF}]){0,40}",
        ) {
            let _ = Filter::parse(&src);
        }

        /// Nesting of any depth, closed or not, parses as before up to
        /// the bound and is rejected with a span past it.
        #[test]
        fn parse_returns_on_any_nesting(
            mantissa in 0usize..3,
            exponent in 0u32..6,
            opener in 0usize..3,
            closed in proptest::bool::ANY,
        ) {
            let depth = mantissa * 10usize.pow(exponent);
            let mut src = ["(", "NOT ", "NOT ("][opener].repeat(depth) + "quiet";
            if closed && opener != 1 {
                src.push_str(&")".repeat(depth));
            }
            let levels = if opener == 2 { 2 * depth } else { depth };
            let nots = if opener == 0 { 0 } else { depth };
            let closes = closed || opener == 1 || depth == 0;
            let parsed = Filter::parse(&src);
            proptest::prop_assert_eq!(
                parsed.is_ok(),
                closes && nots < MAX_DEPTH && levels <= MAX_NESTING
            );
            if let (Err(e), true) = (parsed, levels > MAX_NESTING) {
                proptest::prop_assert!(e.reason.contains("nests deeper") && e.span.is_some());
            }
        }
    }
}
