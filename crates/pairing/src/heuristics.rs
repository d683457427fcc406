//! The two unsupervised pairing heuristics of §5.1.

use saccs_embed::FrozenMiniBert;
use saccs_nn::Matrix;
use saccs_parse::ParseTree;
use saccs_text::Span;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Everything a heuristic may look at for one sentence.
pub struct SentenceContext<'a> {
    pub tokens: &'a [String],
    /// Tagged aspect spans (token positions).
    pub aspects: &'a [Span],
    /// Tagged opinion spans.
    pub opinions: &'a [Span],
}

/// A pairing heuristic: proposes a set of (aspect, opinion) span pairs.
pub trait PairingHeuristic {
    /// Stable display name (Table 5 row label, e.g. `lf_tree_as`).
    fn name(&self) -> String;

    /// The pairs this heuristic endorses for the sentence.
    fn pairs(&self, ctx: &SentenceContext<'_>) -> BTreeSet<(Span, Span)>;
}

/// Direction of the greedy tree walk (§5.1: "we use this heuristic twice:
/// from aspects to opinions and then from opinions to aspects").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeDirection {
    /// Each aspect claims its closest opinion (`lf_tree_as`).
    AspectToOpinion,
    /// Each opinion claims its closest aspect (`lf_tree_op`).
    OpinionToAspect,
}

/// Parse-tree distance heuristic: map every source term to the closest
/// target term in the parse tree, with word distance as tie-break.
pub struct TreeHeuristic {
    pub direction: TreeDirection,
}

/// Representative token of a span for distance computations (the head of
/// a noun/adjective phrase is its last word: "wine list" → "list").
fn head(span: &Span) -> usize {
    span.end - 1
}

impl TreeHeuristic {
    pub fn new(direction: TreeDirection) -> Self {
        TreeHeuristic { direction }
    }
}

impl PairingHeuristic for TreeHeuristic {
    fn name(&self) -> String {
        match self.direction {
            TreeDirection::AspectToOpinion => "lf_tree_as".to_string(),
            TreeDirection::OpinionToAspect => "lf_tree_op".to_string(),
        }
    }

    fn pairs(&self, ctx: &SentenceContext<'_>) -> BTreeSet<(Span, Span)> {
        let mut out = BTreeSet::new();
        if ctx.aspects.is_empty() || ctx.opinions.is_empty() {
            return out;
        }
        let tree = ParseTree::from_tokens(ctx.tokens);
        let closest = |from: &Span, candidates: &[Span]| -> Span {
            *candidates
                .iter()
                .min_by_key(|c| tree.pairing_distance(head(from), head(c)))
                // lint:allow(no-unwrap-in-lib): guarded by the is_empty check above
                .expect("non-empty candidates")
        };
        match self.direction {
            TreeDirection::AspectToOpinion => {
                for a in ctx.aspects {
                    out.insert((*a, closest(a, ctx.opinions)));
                }
            }
            TreeDirection::OpinionToAspect => {
                for o in ctx.opinions {
                    out.insert((closest(o, ctx.aspects), *o));
                }
            }
        }
        out
    }
}

/// BERT attention-head heuristic: "given an aspect, output the most
/// attended-to opinion" (§5.1, Figure 5). Attention between spans is the
/// mean of the token-to-token attention weights of head `layer:head`,
/// symmetrized (aspect→opinion plus opinion→aspect mass) for stability on
/// short sentences. Each sentence runs the frozen encoder up to `layer`.
pub struct AttentionHeuristic {
    bert: Arc<FrozenMiniBert>,
    pub layer: usize,
    pub head: usize,
}

impl AttentionHeuristic {
    pub fn new(bert: Arc<FrozenMiniBert>, layer: usize, head: usize) -> Self {
        let (layers, heads) = bert.attention_grid();
        assert!(
            layer >= 1 && layer <= layers,
            "layer {layer} out of 1..={layers}"
        );
        assert!(head < heads, "head {head} out of 0..{heads}");
        AttentionHeuristic { bert, layer, head }
    }
}

/// Mean attention mass between two spans (symmetrized). `att` includes the
/// `[CLS]` row/col at 0, so token `i` lives at `i + 1`.
pub fn span_attention(att: &Matrix, a: &Span, b: &Span) -> f32 {
    let mut total = 0.0;
    let mut n = 0u32;
    for i in a.start..a.end {
        for j in b.start..b.end {
            let (r, c) = (i + 1, j + 1);
            if r < att.rows() && c < att.cols() {
                total += att.get(r, c) + att.get(c, r);
                n += 2;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f32
    }
}

/// Pair each aspect with its most-attended opinion under one head's
/// attention matrix; aspects whose spans carry no observable attention
/// (e.g. beyond the encoder's max_len truncation) are left unpaired.
pub fn pairs_from_attention(att: &Matrix, ctx: &SentenceContext<'_>) -> BTreeSet<(Span, Span)> {
    let mut out = BTreeSet::new();
    for a in ctx.aspects {
        let Some((best, score)) = ctx
            .opinions
            .iter()
            .map(|o| (o, span_attention(att, a, o)))
            .max_by(|x, y| x.1.total_cmp(&y.1))
        else {
            continue;
        };
        if score > 0.0 {
            out.insert((*a, *best));
        }
    }
    out
}

impl PairingHeuristic for AttentionHeuristic {
    fn name(&self) -> String {
        format!("lf_bert_{}:{}", self.layer, self.head)
    }

    fn pairs(&self, ctx: &SentenceContext<'_>) -> BTreeSet<(Span, Span)> {
        if ctx.aspects.is_empty() || ctx.opinions.is_empty() {
            return BTreeSet::new();
        }
        let att = self
            .bert
            .attention(ctx.tokens, self.layer)
            .swap_remove(self.head);
        pairs_from_attention(&att, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saccs_text::tokenize_lower;

    fn toks(s: &str) -> Vec<String> {
        tokenize_lower(s).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn tree_heuristic_solves_the_paper_trap() {
        // "The staff is friendly, helpful and professional. The decor is
        // beautiful" — word distance pairs professional↔decor; tree
        // distance must pair professional↔staff.
        let tokens =
            toks("the staff is friendly , helpful and professional . the decor is beautiful");
        let staff = Span::aspect(1, 2);
        let decor = Span::aspect(10, 11);
        let friendly = Span::opinion(3, 4);
        let helpful = Span::opinion(5, 6);
        let professional = Span::opinion(7, 8);
        let beautiful = Span::opinion(12, 13);
        let ctx = SentenceContext {
            tokens: &tokens,
            aspects: &[staff, decor],
            opinions: &[friendly, helpful, professional, beautiful],
        };
        let pairs = TreeHeuristic::new(TreeDirection::OpinionToAspect).pairs(&ctx);
        assert!(pairs.contains(&(staff, professional)), "{pairs:?}");
        assert!(pairs.contains(&(decor, beautiful)));
        assert!(!pairs.contains(&(decor, professional)));
    }

    #[test]
    fn tree_directions_differ_on_many_to_one() {
        // "The staff is friendly and professional": aspect→opinion gives
        // one pair (closest opinion only); opinion→aspect gives both.
        let tokens = toks("the staff is friendly and professional");
        let staff = Span::aspect(1, 2);
        let friendly = Span::opinion(3, 4);
        let professional = Span::opinion(5, 6);
        let ctx = SentenceContext {
            tokens: &tokens,
            aspects: &[staff],
            opinions: &[friendly, professional],
        };
        let as_to_op = TreeHeuristic::new(TreeDirection::AspectToOpinion).pairs(&ctx);
        let op_to_as = TreeHeuristic::new(TreeDirection::OpinionToAspect).pairs(&ctx);
        assert_eq!(as_to_op.len(), 1, "one pair per aspect: {as_to_op:?}");
        assert_eq!(op_to_as.len(), 2, "one pair per opinion: {op_to_as:?}");
        assert!(op_to_as.contains(&(staff, friendly)));
        assert!(op_to_as.contains(&(staff, professional)));
    }

    #[test]
    fn empty_inputs_produce_no_pairs() {
        let tokens = toks("nothing here");
        let ctx = SentenceContext {
            tokens: &tokens,
            aspects: &[],
            opinions: &[],
        };
        assert!(TreeHeuristic::new(TreeDirection::AspectToOpinion)
            .pairs(&ctx)
            .is_empty());
    }

    #[test]
    fn heuristic_names_match_table5() {
        assert_eq!(
            TreeHeuristic::new(TreeDirection::AspectToOpinion).name(),
            "lf_tree_as"
        );
        assert_eq!(
            TreeHeuristic::new(TreeDirection::OpinionToAspect).name(),
            "lf_tree_op"
        );
    }

    fn untrained_bert() -> Arc<FrozenMiniBert> {
        use saccs_embed::{build_vocab, MiniBert, MiniBertConfig};
        let vocab = build_vocab(&[saccs_text::Domain::Restaurants]);
        let bert = MiniBert::new(
            vocab,
            MiniBertConfig {
                dim: 16,
                heads: 2,
                layers: 2,
                max_len: 32,
                seed: 3,
            },
        );
        Arc::new(bert.freeze())
    }

    #[test]
    fn attention_heuristic_emits_one_pair_per_aspect() {
        let h = AttentionHeuristic::new(untrained_bert(), 2, 1);
        assert_eq!(h.name(), "lf_bert_2:1");
        let tokens = toks("the food is delicious and the staff is friendly");
        let food = Span::aspect(1, 2);
        let staff = Span::aspect(6, 7);
        let delicious = Span::opinion(3, 4);
        let friendly = Span::opinion(8, 9);
        let ctx = SentenceContext {
            tokens: &tokens,
            aspects: &[food, staff],
            opinions: &[delicious, friendly],
        };
        let pairs = h.pairs(&ctx);
        assert_eq!(pairs.len(), 2);
        // Untrained attention may pair arbitrarily; structure only.
        for (a, o) in &pairs {
            assert!(*a == food || *a == staff);
            assert!(*o == delicious || *o == friendly);
        }
    }

    #[test]
    #[should_panic(expected = "layer")]
    fn attention_heuristic_validates_layer() {
        let _ = AttentionHeuristic::new(untrained_bert(), 9, 0);
    }
}
