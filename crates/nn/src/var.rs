//! Reverse-mode automatic differentiation.
//!
//! The substitute for PyTorch's autograd. Every [`Var`] is a node in an
//! implicit computation graph (parents held by `Rc`); calling
//! [`Var::backward`] on a scalar output topologically sorts the graph and
//! accumulates gradients into every reachable node — including *input*
//! leaves, which is what the FGSM adversarial perturbation of Section 4.3
//! needs: `δ* = ε · sign(∇_x ℓ(h_θ(x + δ), y))` is read straight off the
//! gradient of the embedding leaf.
//!
//! Graphs are built per example (batch size 1, one sentence at a time),
//! which keeps every op a plain 2-D matrix operation and avoids padding and
//! masking entirely. At SACCS model sizes (d ≤ 64, T ≤ 40) this is fast
//! enough to train every model in the paper's tables in seconds.

use crate::matrix::Matrix;
use std::cell::{Ref, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

type BackwardFn = Box<dyn Fn(&Matrix, &[Var])>;

struct Inner {
    id: u64,
    value: RefCell<Matrix>,
    grad: RefCell<Matrix>,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
    /// Op name for sanitizer diagnostics; absent in default builds so the
    /// graph pays nothing for the feature.
    #[cfg(feature = "sanitize")]
    op: &'static str,
}

/// A differentiable matrix-valued variable.
#[derive(Clone)]
pub struct Var(Rc<Inner>);

fn accum(target: &Var, delta: &Matrix) {
    target.0.grad.borrow_mut().add_assign(delta);
}

/// `target.grad += alpha · delta` without materialising the scaled
/// temporary (`x * α` and `α * x` are the same IEEE product).
fn accum_scaled(target: &Var, delta: &Matrix, alpha: f32) {
    target.0.grad.borrow_mut().add_scaled(delta, alpha);
}

impl Var {
    /// A leaf node (parameter or input). Gradients accumulate into it.
    pub fn leaf(value: Matrix) -> Var {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Var(Rc::new(Inner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value: RefCell::new(value),
            grad: RefCell::new(grad),
            parents: Vec::new(),
            backward: None,
            #[cfg(feature = "sanitize")]
            op: "leaf",
        }))
    }

    /// Every differentiable op funnels through here, which is where the
    /// `sanitize` feature hooks in: op outputs are screened for NaN/Inf
    /// with a diagnostic naming the op and its parent shapes. The default
    /// build compiles the check away entirely.
    fn from_op(op: &'static str, value: Matrix, parents: Vec<Var>, backward: BackwardFn) -> Var {
        #[cfg(feature = "sanitize")]
        sanitize::check_op_output(op, &value, &parents);
        #[cfg(not(feature = "sanitize"))]
        let _ = op;
        let grad = Matrix::zeros(value.rows(), value.cols());
        Var(Rc::new(Inner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value: RefCell::new(value),
            grad: RefCell::new(grad),
            parents,
            backward: Some(backward),
            #[cfg(feature = "sanitize")]
            op,
        }))
    }

    /// Borrow the current value.
    pub fn value(&self) -> Ref<'_, Matrix> {
        self.0.value.borrow()
    }

    /// Clone the current value out.
    pub fn value_clone(&self) -> Matrix {
        self.0.value.borrow().clone()
    }

    /// Borrow the accumulated gradient.
    pub fn grad(&self) -> Ref<'_, Matrix> {
        self.0.grad.borrow()
    }

    /// Overwrite the value in place (optimizer step, FGSM perturbation).
    /// Only meaningful on leaves; the new value must keep the shape.
    pub fn set_value(&self, m: Matrix) {
        let mut v = self.0.value.borrow_mut();
        assert_eq!(v.shape(), m.shape(), "set_value: shape change");
        *v = m;
    }

    /// Apply an in-place update to the value (e.g. `w -= lr * g`).
    pub fn update_value(&self, f: impl FnOnce(&mut Matrix)) {
        f(&mut self.0.value.borrow_mut());
    }

    /// Reset the gradient to zero (in place — no reallocation).
    pub fn zero_grad(&self) {
        self.0.grad.borrow_mut().data_mut().fill(0.0);
    }

    /// `(rows, cols)` of the value.
    pub fn shape(&self) -> (usize, usize) {
        self.0.value.borrow().shape()
    }

    /// Scalar value of a `1×1` var.
    pub fn scalar(&self) -> f32 {
        let v = self.0.value.borrow();
        assert_eq!(v.shape(), (1, 1), "scalar() on non-scalar var");
        v.get(0, 0)
    }

    /// Run reverse-mode differentiation from this `1×1` scalar node,
    /// accumulating into the gradients of every node in the graph.
    pub fn backward(&self) {
        assert_eq!(self.shape(), (1, 1), "backward() requires a scalar loss");
        let mut order: Vec<Var> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        // Iterative post-order DFS (graphs can be thousands of nodes deep
        // for long LSTM chains; no recursion).
        let mut stack: Vec<(Var, bool)> = vec![(self.clone(), false)];
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                order.push(node);
                continue;
            }
            if !visited.insert(node.0.id) {
                continue;
            }
            stack.push((node.clone(), true));
            for p in &node.0.parents {
                if !visited.contains(&p.0.id) {
                    stack.push((p.clone(), false));
                }
            }
        }
        #[cfg(feature = "sanitize")]
        {
            let unique: HashSet<u64> = order.iter().map(|n| n.0.id).collect();
            assert_eq!(
                unique.len(),
                order.len(),
                "sanitize: backward() topological order visits a node more than once \
                 ({} entries, {} distinct ids)",
                order.len(),
                unique.len()
            );
        }
        {
            let mut g = self.0.grad.borrow_mut();
            let cur = g.get(0, 0);
            g.set(0, 0, cur + 1.0);
        }
        for node in order.iter().rev() {
            if let Some(f) = &node.0.backward {
                // Borrow, don't clone: backward fns only touch *parent*
                // grad cells, never this node's own (the DAG is acyclic
                // and the output var cannot be captured by its closure).
                let g = node.0.grad.borrow();
                #[cfg(feature = "sanitize")]
                sanitize::check_grad_shape(node.0.op, &g, &node.0.value.borrow());
                f(&g, &node.0.parents);
                #[cfg(feature = "sanitize")]
                for p in &node.0.parents {
                    sanitize::check_grad_shape(p.0.op, &p.0.grad.borrow(), &p.0.value.borrow());
                }
            }
        }
    }

    /// Build a custom differentiable operation. `backward` receives the
    /// output gradient and the parent handles and must accumulate into each
    /// parent's gradient (via [`Var::accumulate_grad`]). This is the
    /// extension point structured layers (e.g. the linear-chain CRF in
    /// saccs-tagger) use to supply hand-derived gradients.
    pub fn custom(
        value: Matrix,
        parents: Vec<Var>,
        backward: impl Fn(&Matrix, &[Var]) + 'static,
    ) -> Var {
        Var::from_op("custom", value, parents, Box::new(backward))
    }

    /// Add `delta` into this var's gradient (for custom-op backward fns).
    pub fn accumulate_grad(&self, delta: &Matrix) {
        accum(self, delta);
    }

    // ---- differentiable operations -------------------------------------

    /// Matrix product.
    pub fn matmul(&self, other: &Var) -> Var {
        let value = self.value().matmul(&other.value());
        Var::from_op(
            "matmul",
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                // Parent values are still live at backward time (updates
                // happen only after the pass), so borrow instead of
                // cloning both operands into the closure.
                let da = g.matmul(&parents[1].value().transpose());
                accum(&parents[0], &da);
                let db = parents[0].value().transpose().matmul(g);
                accum(&parents[1], &db);
            }),
        )
    }

    /// Elementwise sum (same shape).
    pub fn add(&self, other: &Var) -> Var {
        let value = self.value().add(&other.value());
        Var::from_op(
            "add",
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                accum(&parents[0], g);
                accum(&parents[1], g);
            }),
        )
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Var) -> Var {
        let value = self.value().sub(&other.value());
        Var::from_op(
            "sub",
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                accum(&parents[0], g);
                accum_scaled(&parents[1], g, -1.0);
            }),
        )
    }

    /// Add a `1×n` row vector to every row of `self`.
    pub fn add_row_broadcast(&self, row: &Var) -> Var {
        let value = self.value().add_row_broadcast(&row.value());
        Var::from_op(
            "add_row_broadcast",
            value,
            vec![self.clone(), row.clone()],
            Box::new(|g, parents| {
                accum(&parents[0], g);
                accum(&parents[1], &g.sum_rows());
            }),
        )
    }

    /// Multiply every row of `self` elementwise by a `1×n` row vector.
    pub fn mul_row_broadcast(&self, row: &Var) -> Var {
        let value = self.value().mul_row_broadcast(&row.value());
        Var::from_op(
            "mul_row_broadcast",
            value,
            vec![self.clone(), row.clone()],
            Box::new(move |g, parents| {
                accum(&parents[0], &g.mul_row_broadcast(&parents[1].value()));
                let dr = g.hadamard(&parents[0].value()).sum_rows();
                accum(&parents[1], &dr);
            }),
        )
    }

    /// Hadamard product (same shape).
    pub fn hadamard(&self, other: &Var) -> Var {
        let value = self.value().hadamard(&other.value());
        Var::from_op(
            "hadamard",
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                let da = g.hadamard(&parents[1].value());
                accum(&parents[0], &da);
                let db = g.hadamard(&parents[0].value());
                accum(&parents[1], &db);
            }),
        )
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f32) -> Var {
        let value = self.value().scale(alpha);
        Var::from_op(
            "scale",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| accum_scaled(&parents[0], g, alpha)),
        )
    }

    /// Elementwise `tanh`.
    pub fn tanh(&self) -> Var {
        let y = self.value().tanh();
        let y_c = y.clone();
        Var::from_op(
            "tanh",
            y,
            vec![self.clone()],
            Box::new(move |g, parents| {
                accum(&parents[0], &g.hadamard(&y_c.map(|v| 1.0 - v * v)));
            }),
        )
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let y = self.value().sigmoid();
        let y_c = y.clone();
        Var::from_op(
            "sigmoid",
            y,
            vec![self.clone()],
            Box::new(move |g, parents| {
                accum(&parents[0], &g.hadamard(&y_c.map(|v| v * (1.0 - v))));
            }),
        )
    }

    /// Elementwise ReLU.
    pub fn relu(&self) -> Var {
        let y = self.value().relu();
        Var::from_op(
            "relu",
            y,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // dx = g ⊙ 1[x > 0] — one fused pass over the input
                // borrow instead of two temporaries (`*d * 0.0` keeps
                // the signed-zero bits of the old hadamard-mask path).
                let mut dx = g.clone();
                for (d, &v) in dx.data_mut().iter_mut().zip(parents[0].value().data()) {
                    // Branch-free select keeps the loop packed; `g·1.0`
                    // and `g·0.0` reproduce the old hadamard-mask bits.
                    *d *= if v > 0.0 { 1.0 } else { 0.0 };
                }
                accum(&parents[0], &dx);
            }),
        )
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Var {
        let y = self.value().softmax_rows();
        let y_c = y.clone();
        Var::from_op(
            "softmax_rows",
            y,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // dx_i = y_i ⊙ (g_i − ⟨g_i, y_i⟩)
                let mut dx = Matrix::zeros(y_c.rows(), y_c.cols());
                for r in 0..y_c.rows() {
                    let dot: f32 = g.row(r).iter().zip(y_c.row(r)).map(|(a, b)| a * b).sum();
                    for c in 0..y_c.cols() {
                        dx.set(r, c, y_c.get(r, c) * (g.get(r, c) - dot));
                    }
                }
                accum(&parents[0], &dx);
            }),
        )
    }

    /// Row-wise log-softmax.
    pub fn log_softmax_rows(&self) -> Var {
        let y = self.value().log_softmax_rows();
        let soft = y.map(f32::exp);
        Var::from_op(
            "log_softmax_rows",
            y,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // dx_i = g_i − softmax_i · Σ_j g_ij
                let mut dx = g.clone();
                for r in 0..dx.rows() {
                    let gsum: f32 = g.row(r).iter().sum();
                    for c in 0..dx.cols() {
                        dx.set(r, c, g.get(r, c) - soft.get(r, c) * gsum);
                    }
                }
                accum(&parents[0], &dx);
            }),
        )
    }

    /// Transpose.
    pub fn transpose(&self) -> Var {
        let value = self.value().transpose();
        Var::from_op(
            "transpose",
            value,
            vec![self.clone()],
            Box::new(|g, parents| accum(&parents[0], &g.transpose())),
        )
    }

    /// Vertical concatenation.
    pub fn vstack(&self, other: &Var) -> Var {
        let top_rows = self.shape().0;
        let value = self.value().vstack(&other.value());
        Var::from_op(
            "vstack",
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                accum(&parents[0], &g.slice_rows(0, top_rows));
                accum(&parents[1], &g.slice_rows(top_rows, g.rows()));
            }),
        )
    }

    /// Horizontal concatenation.
    pub fn hstack(&self, other: &Var) -> Var {
        let left_cols = self.shape().1;
        let value = self.value().hstack(&other.value());
        Var::from_op(
            "hstack",
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                accum(&parents[0], &g.slice_cols(0, left_cols));
                accum(&parents[1], &g.slice_cols(left_cols, g.cols()));
            }),
        )
    }

    /// Rows `start..end` as a new var (gradient scatters back).
    pub fn slice_rows(&self, start: usize, end: usize) -> Var {
        let total = self.shape().0;
        let value = self.value().slice_rows(start, end);
        Var::from_op(
            "slice_rows",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let mut dx = Matrix::zeros(total, g.cols());
                for (i, r) in (start..end).enumerate() {
                    dx.row_mut(r).copy_from_slice(g.row(i));
                }
                accum(&parents[0], &dx);
            }),
        )
    }

    /// Columns `start..end` as a new var (gradient scatters back).
    pub fn slice_cols(&self, start: usize, end: usize) -> Var {
        let (rows, total_cols) = self.shape();
        let value = self.value().slice_cols(start, end);
        Var::from_op(
            "slice_cols",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let mut dx = Matrix::zeros(rows, total_cols);
                for r in 0..rows {
                    dx.row_mut(r)[start..end].copy_from_slice(g.row(r));
                }
                accum(&parents[0], &dx);
            }),
        )
    }

    /// Gather rows by index: `out[t] = self[ids[t]]`. This is the embedding
    /// lookup; gradients scatter-add into the selected rows.
    pub fn gather_rows(&self, ids: &[usize]) -> Var {
        let (rows, cols) = self.shape();
        let value = self.value().gather_rows(ids);
        let ids: Vec<usize> = ids.to_vec();
        Var::from_op(
            "gather_rows",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let mut dx = Matrix::zeros(rows, cols);
                for (t, &i) in ids.iter().enumerate() {
                    for (d, &gv) in dx.row_mut(i).iter_mut().zip(g.row(t)) {
                        *d += gv;
                    }
                }
                accum(&parents[0], &dx);
            }),
        )
    }

    /// Sum of all entries, as a `1×1` var.
    pub fn sum(&self) -> Var {
        let (rows, cols) = self.shape();
        let value = Matrix::from_vec(1, 1, vec![self.value().sum()]);
        Var::from_op(
            "sum",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                accum(&parents[0], &Matrix::full(rows, cols, g.get(0, 0)));
            }),
        )
    }

    /// Row-wise layer normalization (no learned gain/bias; compose with
    /// [`Var::mul_row_broadcast`] / [`Var::add_row_broadcast`] for those).
    #[allow(clippy::needless_range_loop)] // parallel indexing of g/y/sigmas
    pub fn layer_norm_rows(&self, eps: f32) -> Var {
        let (rows, cols) = self.shape();
        let (y, sigmas) = self.value().layer_norm_parts(eps);
        let y_c = y.clone();
        Var::from_op(
            "layer_norm_rows",
            y,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // dx = (1/σ) (g − mean(g) − y · mean(g ⊙ y)), per row.
                let mut dx = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    let gr = g.row(r);
                    let yr = y_c.row(r);
                    let gmean = gr.iter().sum::<f32>() / cols as f32;
                    let gymean = gr.iter().zip(yr).map(|(a, b)| a * b).sum::<f32>() / cols as f32;
                    for c in 0..cols {
                        dx.set(r, c, (gr[c] - gmean - yr[c] * gymean) / sigmas[r]);
                    }
                }
                accum(&parents[0], &dx);
            }),
        )
    }

    /// Inverted dropout with keep-scaling; `mask` entries are 0 or 1.
    /// The caller samples the mask so training stays deterministic under a
    /// seeded RNG (see [`crate::layers::Dropout`]).
    pub fn dropout_with_mask(&self, mask: &Matrix, keep: f32) -> Var {
        assert!(keep > 0.0 && keep <= 1.0);
        let m = mask.clone();
        let value = self.value().hadamard(&m).scale(1.0 / keep);
        Var::from_op(
            "dropout_with_mask",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                accum(&parents[0], &g.hadamard(&m).scale(1.0 / keep));
            }),
        )
    }

    /// Mean cross-entropy of row-logits against integer targets:
    /// `−(1/T) Σ_t log softmax(logits_t)[target_t]`, as a `1×1` var.
    pub fn cross_entropy(&self, targets: &[usize]) -> Var {
        let (rows, cols) = self.shape();
        assert_eq!(rows, targets.len(), "cross_entropy: target length mismatch");
        let ls = self.value().log_softmax_rows();
        let mut loss = 0.0;
        for (t, &y) in targets.iter().enumerate() {
            debug_assert!(y < cols, "cross_entropy: target {y} out of {cols}");
            loss -= ls.get(t, y);
        }
        loss /= rows as f32;
        let soft = ls.map(f32::exp);
        let targets: Vec<usize> = targets.to_vec();
        Var::from_op(
            "cross_entropy",
            Matrix::from_vec(1, 1, vec![loss]),
            vec![self.clone()],
            Box::new(move |g, parents| {
                let scale = g.get(0, 0) / rows as f32;
                let mut dx = soft.clone();
                for (t, &y) in targets.iter().enumerate() {
                    dx.set(t, y, dx.get(t, y) - 1.0);
                }
                accum(&parents[0], &dx.scale(scale));
            }),
        )
    }

    /// Binary cross-entropy of a `1×1` probability against a 0/1 label.
    pub fn binary_cross_entropy(&self, label: f32) -> Var {
        let p = self.scalar().clamp(1e-6, 1.0 - 1e-6);
        let loss = -(label * p.ln() + (1.0 - label) * (1.0 - p).ln());
        Var::from_op(
            "binary_cross_entropy",
            Matrix::from_vec(1, 1, vec![loss]),
            vec![self.clone()],
            Box::new(move |g, parents| {
                let d = (-label / p + (1.0 - label) / (1.0 - p)) * g.get(0, 0);
                accum(&parents[0], &Matrix::from_vec(1, 1, vec![d]));
            }),
        )
    }
}

/// Runtime numeric sanitizer, compiled in only with the `sanitize`
/// feature. Catches the two bug classes that otherwise surface as silent
/// training divergence or a far-away index panic: non-finite op outputs
/// (named at the op that produced them) and gradient/value shape drift
/// (custom backward fns accumulating into the wrong parent).
#[cfg(feature = "sanitize")]
mod sanitize {
    use super::Var;
    use crate::matrix::Matrix;

    /// Panic if `value` holds a NaN/Inf, naming the op and parent shapes.
    pub(super) fn check_op_output(op: &'static str, value: &Matrix, parents: &[Var]) {
        let Some(bad) = first_non_finite(value) else {
            return;
        };
        let (r, c, v) = bad;
        let (rows, cols) = value.shape();
        let parent_shapes = parents
            .iter()
            .map(|p| {
                let (pr, pc) = p.shape();
                format!("{pr}\u{d7}{pc}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        panic!(
            "sanitize: op `{op}` produced {v} at ({r}, {c}) of its \
             {rows}\u{d7}{cols} output; parent shapes: [{parent_shapes}]"
        );
    }

    /// Panic if a gradient's shape has drifted from its value's shape.
    pub(super) fn check_grad_shape(op: &'static str, grad: &Matrix, value: &Matrix) {
        let (gr, gc) = grad.shape();
        let (vr, vc) = value.shape();
        assert!(
            (gr, gc) == (vr, vc),
            "sanitize: op `{op}` carries a {gr}\u{d7}{gc} gradient for a \
             {vr}\u{d7}{vc} value"
        );
    }

    fn first_non_finite(m: &Matrix) -> Option<(usize, usize, f32)> {
        let (_, cols) = m.shape();
        m.data()
            .iter()
            .position(|v| !v.is_finite())
            .map(|i| (i / cols, i % cols, m.data()[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference gradient check: perturb every entry of `leaf`,
    /// re-run `f`, and compare against the autograd gradient.
    fn check_grad(leaf: &Var, f: impl Fn() -> Var, tol: f32) {
        let loss = f();
        loss.backward();
        let analytic = leaf.grad().clone();
        let eps = 1e-3f32;
        let base = leaf.value_clone();
        for r in 0..base.rows() {
            for c in 0..base.cols() {
                let mut plus = base.clone();
                plus.set(r, c, base.get(r, c) + eps);
                leaf.set_value(plus);
                let lp = f().scalar();
                let mut minus = base.clone();
                minus.set(r, c, base.get(r, c) - eps);
                leaf.set_value(minus);
                let lm = f().scalar();
                leaf.set_value(base.clone());
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                    "grad mismatch at ({r},{c}): analytic={a} numeric={numeric}"
                );
            }
        }
    }

    #[test]
    fn grad_of_matmul_chain() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Var::leaf(Matrix::uniform(3, 2, 1.0, &mut rng));
        let x = Var::leaf(Matrix::uniform(2, 3, 1.0, &mut rng));
        check_grad(&w, || x.matmul(&w).tanh().sum(), 1e-2);
        w.zero_grad();
        x.zero_grad();
        check_grad(&x, || x.matmul(&w).tanh().sum(), 1e-2);
    }

    #[test]
    fn grad_of_softmax_cross_entropy() {
        let mut rng = StdRng::seed_from_u64(2);
        let logits = Var::leaf(Matrix::uniform(4, 3, 2.0, &mut rng));
        check_grad(&logits, || logits.cross_entropy(&[0, 2, 1, 1]), 1e-2);
    }

    #[test]
    fn grad_of_layer_norm() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Var::leaf(Matrix::uniform(2, 5, 1.0, &mut rng));
        check_grad(
            &x,
            || {
                x.layer_norm_rows(1e-5)
                    .hadamard(&x.layer_norm_rows(1e-5))
                    .sum()
            },
            2e-2,
        );
    }

    #[test]
    fn grad_of_sigmoid_hadamard() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Var::leaf(Matrix::uniform(2, 3, 1.5, &mut rng));
        let y = Var::leaf(Matrix::uniform(2, 3, 1.5, &mut rng));
        check_grad(&x, || x.sigmoid().hadamard(&y.tanh()).sum(), 1e-2);
    }

    #[test]
    fn grad_of_broadcast_ops() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Var::leaf(Matrix::uniform(3, 4, 1.0, &mut rng));
        let b = Var::leaf(Matrix::uniform(1, 4, 1.0, &mut rng));
        check_grad(&b, || x.add_row_broadcast(&b).relu().sum(), 1e-2);
        b.zero_grad();
        x.zero_grad();
        check_grad(&b, || x.mul_row_broadcast(&b).sum(), 1e-2);
    }

    #[test]
    fn grad_of_gather_rows() {
        let mut rng = StdRng::seed_from_u64(6);
        let emb = Var::leaf(Matrix::uniform(5, 3, 1.0, &mut rng));
        // Repeated index 2 checks scatter-add accumulation.
        check_grad(&emb, || emb.gather_rows(&[2, 0, 2]).tanh().sum(), 1e-2);
    }

    #[test]
    fn grad_of_slices_and_stacks() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Var::leaf(Matrix::uniform(4, 4, 1.0, &mut rng));
        check_grad(
            &x,
            || {
                let top = x.slice_rows(0, 2);
                let left = x.slice_cols(0, 2);
                top.matmul(&left).sum()
            },
            2e-2,
        );
        x.zero_grad();
        check_grad(
            &x,
            || {
                let a = x.slice_rows(0, 2);
                let b = x.slice_rows(2, 4);
                a.hstack(&b).tanh().sum()
            },
            1e-2,
        );
        x.zero_grad();
        check_grad(&x, || x.vstack(&x).sigmoid().sum(), 1e-2);
    }

    #[test]
    fn grad_of_log_softmax_and_softmax() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = Var::leaf(Matrix::uniform(2, 4, 2.0, &mut rng));
        let w = Matrix::uniform(2, 4, 1.0, &mut rng);
        let (xc, wc) = (x.clone(), w.clone());
        check_grad(
            &x,
            move || xc.log_softmax_rows().hadamard(&Var::leaf(wc.clone())).sum(),
            1e-2,
        );
        // fresh leaf for the second check
        let x = Var::leaf(Matrix::uniform(2, 4, 2.0, &mut rng));
        let xc = x.clone();
        check_grad(
            &x,
            move || xc.softmax_rows().hadamard(&Var::leaf(w.clone())).sum(),
            1e-2,
        );
    }

    #[test]
    fn grad_of_binary_cross_entropy() {
        let p = Var::leaf(Matrix::from_vec(1, 1, vec![0.3]));
        check_grad(&p, || p.binary_cross_entropy(1.0), 1e-2);
        p.zero_grad();
        check_grad(&p, || p.binary_cross_entropy(0.0), 1e-2);
    }

    #[test]
    fn shared_subexpression_accumulates() {
        // loss = sum(x ⊙ x) → d/dx = 2x
        let x = Var::leaf(Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]));
        x.hadamard(&x).sum().backward();
        let g = x.grad().clone();
        assert_eq!(g.data(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let x = Var::leaf(Matrix::from_vec(1, 1, vec![2.0]));
        x.scale(3.0).sum().backward();
        x.scale(3.0).sum().backward();
        assert_eq!(x.grad().get(0, 0), 6.0);
        x.zero_grad();
        assert_eq!(x.grad().get(0, 0), 0.0);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let x = Var::leaf(Matrix::from_vec(1, 1, vec![0.5]));
        let mut y = x.clone();
        for _ in 0..5000 {
            y = y.scale(1.0);
        }
        y.sum().backward();
        assert_eq!(x.grad().get(0, 0), 1.0);
    }

    #[test]
    fn dropout_mask_scales_and_blocks() {
        let x = Var::leaf(Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let mask = Matrix::from_vec(1, 4, vec![1.0, 0.0, 1.0, 0.0]);
        let y = x.dropout_with_mask(&mask, 0.5);
        assert_eq!(y.value().data(), &[2.0, 0.0, 6.0, 0.0]);
        y.sum().backward();
        assert_eq!(x.grad().data(), &[2.0, 0.0, 2.0, 0.0]);
    }
}
