//! Neural layers composed from autograd [`Var`] operations.
//!
//! Everything the SACCS models need: [`Linear`], [`Embedding`], [`Lstm`] /
//! [`BiLstm`] (§4.1's encoder), [`MultiHeadSelfAttention`] (MiniBert's and
//! the pairing heuristic's attention, §5.1), learned [`LayerNorm`], and
//! seeded [`Dropout`]. Each layer exposes its parameters through
//! [`Layer::params`] for the optimizer and [`Layer::state`] /
//! [`Layer::load_state`] for serialization.
//!
//! Each layer's `freeze()` returns its weights off the tape, as a
//! `Send + Sync` `Frozen*` counterpart whose forward calls the same
//! [`Matrix`] ops in the same order, so the two agree bit for bit.

use crate::matrix::Matrix;
use crate::var::Var;
use rand::rngs::StdRng;
use rand::Rng;

/// Common layer interface: parameter access for optimizers and state
/// save/restore for serialization.
pub trait Layer {
    /// All trainable parameter vars, in a stable order.
    fn params(&self) -> Vec<Var>;

    /// Snapshot of all parameter values, matching [`Layer::params`] order.
    fn state(&self) -> Vec<Matrix> {
        self.params().iter().map(|p| p.value_clone()).collect()
    }

    /// Restore parameter values from a snapshot produced by [`Layer::state`].
    fn load_state(&self, state: &[Matrix]) {
        let params = self.params();
        assert_eq!(params.len(), state.len(), "load_state: wrong tensor count");
        for (p, m) in params.iter().zip(state) {
            p.set_value(m.clone());
        }
    }

    /// Zero all parameter gradients.
    fn zero_grad(&self) {
        for p in self.params() {
            p.zero_grad();
        }
    }
}

/// Fully connected layer `y = x·W + b`.
pub struct Linear {
    pub w: Var,
    pub b: Var,
}

impl Linear {
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Linear {
            w: Var::leaf(Matrix::xavier(in_dim, out_dim, rng)),
            b: Var::leaf(Matrix::zeros(1, out_dim)),
        }
    }

    pub fn forward(&self, x: &Var) -> Var {
        x.matmul(&self.w).add_row_broadcast(&self.b)
    }

    /// The current weights, off the tape.
    pub fn freeze(&self) -> FrozenLinear {
        FrozenLinear {
            w: self.w.value_clone(),
            b: self.b.value_clone(),
        }
    }
}

/// A frozen [`Linear`]: `y = x·W + b` on plain matrices.
pub struct FrozenLinear {
    w: Matrix,
    b: Matrix,
}

impl FrozenLinear {
    pub fn forward(&self, x: &Matrix) -> Matrix {
        x.matmul(&self.w).add_row_broadcast(&self.b)
    }
}

impl Layer for Linear {
    fn params(&self) -> Vec<Var> {
        vec![self.w.clone(), self.b.clone()]
    }
}

/// Token-id → dense-vector lookup table.
pub struct Embedding {
    pub table: Var,
}

impl Embedding {
    pub fn new(vocab: usize, dim: usize, rng: &mut StdRng) -> Self {
        // BERT-style small-std init keeps early softmaxes well-conditioned.
        Embedding {
            table: Var::leaf(Matrix::uniform(vocab, dim, 0.1, rng)),
        }
    }

    /// Look up a sequence of ids → `T×dim` var.
    pub fn forward(&self, ids: &[usize]) -> Var {
        self.table.gather_rows(ids)
    }
}

impl Layer for Embedding {
    fn params(&self) -> Vec<Var> {
        vec![self.table.clone()]
    }
}

/// A single-direction LSTM processing a `T×in_dim` sequence into `T×hidden`.
///
/// Gates are fused into one `in_dim×4h` input weight and one `h×4h`
/// recurrent weight, chunk order `[i, f, g, o]`. The forget-gate bias is
/// initialized to 1, the standard trick for trainable long dependencies.
pub struct Lstm {
    pub w: Var,
    pub u: Var,
    pub b: Var,
    hidden: usize,
}

impl Lstm {
    pub fn new(in_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let mut b = Matrix::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            b.set(0, c, 1.0);
        }
        Lstm {
            w: Var::leaf(Matrix::xavier(in_dim, 4 * hidden, rng)),
            u: Var::leaf(Matrix::xavier(hidden, 4 * hidden, rng)),
            b: Var::leaf(b),
            hidden,
        }
    }

    /// Run over the sequence, returning the `T×hidden` hidden states.
    /// `reverse` encodes right-to-left (the backward half of a BiLSTM).
    pub fn forward(&self, xs: &Var, reverse: bool) -> Var {
        let t_len = xs.shape().0;
        let h = self.hidden;
        let mut h_prev = Var::leaf(Matrix::zeros(1, h));
        let mut c_prev = Var::leaf(Matrix::zeros(1, h));
        let mut outs: Vec<Var> = Vec::with_capacity(t_len);
        let order: Vec<usize> = if reverse {
            (0..t_len).rev().collect()
        } else {
            (0..t_len).collect()
        };
        for &t in &order {
            let x_t = xs.slice_rows(t, t + 1);
            let gates = x_t
                .matmul(&self.w)
                .add(&h_prev.matmul(&self.u))
                .add_row_broadcast(&self.b);
            let i = gates.slice_cols(0, h).sigmoid();
            let f = gates.slice_cols(h, 2 * h).sigmoid();
            let g = gates.slice_cols(2 * h, 3 * h).tanh();
            let o = gates.slice_cols(3 * h, 4 * h).sigmoid();
            let c = f.hadamard(&c_prev).add(&i.hadamard(&g));
            let h_t = o.hadamard(&c.tanh());
            outs.push(h_t.clone());
            h_prev = h_t;
            c_prev = c;
        }
        if reverse {
            outs.reverse();
        }
        let mut seq = outs[0].clone();
        for o in &outs[1..] {
            seq = seq.vstack(o);
        }
        seq
    }

    /// The current weights, off the tape.
    pub fn freeze(&self) -> FrozenLstm {
        FrozenLstm {
            w: self.w.value_clone(),
            u: self.u.value_clone(),
            b: self.b.value_clone(),
        }
    }
}

/// A frozen [`Lstm`].
pub struct FrozenLstm {
    w: Matrix,
    u: Matrix,
    b: Matrix,
}

impl FrozenLstm {
    /// [`Lstm::forward`] off the tape: each step adds `h_prev·U`, then
    /// `b`, to its row of one `X·W`, and writes `h_t` into the output.
    pub fn forward(&self, xs: &Matrix, reverse: bool) -> Matrix {
        let (t_len, h) = (xs.rows(), self.u.rows());
        let xw = self.input_products(xs);
        let mut seq = Matrix::zeros(t_len, h);
        let mut h_prev = Matrix::zeros(1, h);
        let mut c_prev = Matrix::zeros(1, h);
        for step in 0..t_len {
            let t = if reverse { t_len - 1 - step } else { step };
            let gates = xw
                .slice_rows(t, t + 1)
                .add(&h_prev.matmul(&self.u))
                .add_row_broadcast(&self.b);
            let i = gates.slice_cols(0, h).sigmoid();
            let f = gates.slice_cols(h, 2 * h).sigmoid();
            let g = gates.slice_cols(2 * h, 3 * h).tanh();
            let o = gates.slice_cols(3 * h, 4 * h).sigmoid();
            let c = f.hadamard(&c_prev).add(&i.hadamard(&g));
            let h_t = o.hadamard(&c.tanh());
            seq.row_mut(t).copy_from_slice(h_t.data());
            h_prev = h_t;
            c_prev = c;
        }
        seq
    }

    /// `X·W`, one product per row where one product over all rows could
    /// round differently from the taped step's `x_t·W`.
    fn input_products(&self, xs: &Matrix) -> Matrix {
        if crate::kernel::rows_independent(xs.rows(), xs.cols(), self.w.cols()) {
            return xs.matmul(&self.w);
        }
        let mut xw = Matrix::zeros(xs.rows(), self.w.cols());
        for t in 0..xs.rows() {
            xw.row_mut(t)
                .copy_from_slice(xs.slice_rows(t, t + 1).matmul(&self.w).data());
        }
        xw
    }
}

impl Layer for Lstm {
    fn params(&self) -> Vec<Var> {
        vec![self.w.clone(), self.u.clone(), self.b.clone()]
    }
}

/// Bidirectional LSTM: forward and backward passes concatenated, the
/// encoder of the paper's Figure 3 ("we encode the text sequence from both
/// left to right and right to left, then concatenate").
pub struct BiLstm {
    pub fwd: Lstm,
    pub bwd: Lstm,
}

impl BiLstm {
    pub fn new(in_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        BiLstm {
            fwd: Lstm::new(in_dim, hidden, rng),
            bwd: Lstm::new(in_dim, hidden, rng),
        }
    }

    /// `T×in_dim` → `T×2·hidden`.
    pub fn forward(&self, xs: &Var) -> Var {
        self.fwd
            .forward(xs, false)
            .hstack(&self.bwd.forward(xs, true))
    }

    /// The current weights, off the tape.
    pub fn freeze(&self) -> FrozenBiLstm {
        FrozenBiLstm {
            fwd: self.fwd.freeze(),
            bwd: self.bwd.freeze(),
        }
    }
}

/// A frozen [`BiLstm`].
pub struct FrozenBiLstm {
    fwd: FrozenLstm,
    bwd: FrozenLstm,
}

impl FrozenBiLstm {
    /// `T×in_dim` → `T×2·hidden`, as [`BiLstm::forward`].
    pub fn forward(&self, xs: &Matrix) -> Matrix {
        self.fwd
            .forward(xs, false)
            .hstack(&self.bwd.forward(xs, true))
    }
}

impl Layer for BiLstm {
    fn params(&self) -> Vec<Var> {
        let mut p = self.fwd.params();
        p.extend(self.bwd.params());
        p
    }
}

/// Multi-head scaled-dot-product self-attention over a `T×dim` sequence.
///
/// Heads are materialized individually; the per-head attention
/// distributions the pairing heuristic of §5.1 (Figure 5) reads come
/// from the frozen form, [`FrozenAttention::attentions`].
pub struct MultiHeadSelfAttention {
    pub wq: Var,
    pub wk: Var,
    pub wv: Var,
    pub wo: Var,
    heads: usize,
    dim: usize,
}

impl MultiHeadSelfAttention {
    pub fn new(dim: usize, heads: usize, rng: &mut StdRng) -> Self {
        assert_eq!(dim % heads, 0, "dim must divide into heads");
        MultiHeadSelfAttention {
            wq: Var::leaf(Matrix::xavier(dim, dim, rng)),
            wk: Var::leaf(Matrix::xavier(dim, dim, rng)),
            wv: Var::leaf(Matrix::xavier(dim, dim, rng)),
            wo: Var::leaf(Matrix::xavier(dim, dim, rng)),
            heads,
            dim,
        }
    }

    /// `T×dim` → `T×dim`.
    pub fn forward(&self, xs: &Var) -> Var {
        let hd = self.dim / self.heads;
        let scale = 1.0 / (hd as f32).sqrt();
        let q = xs.matmul(&self.wq);
        let k = xs.matmul(&self.wk);
        let v = xs.matmul(&self.wv);
        let mut head_outs: Vec<Var> = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let (s, e) = (h * hd, (h + 1) * hd);
            let qh = q.slice_cols(s, e);
            let kh = k.slice_cols(s, e);
            let vh = v.slice_cols(s, e);
            let att = qh.matmul(&kh.transpose()).scale(scale).softmax_rows();
            head_outs.push(att.matmul(&vh));
        }
        let mut cat = head_outs[0].clone();
        for h in &head_outs[1..] {
            cat = cat.hstack(h);
        }
        cat.matmul(&self.wo)
    }

    /// The current weights, off the tape.
    pub fn freeze(&self) -> FrozenAttention {
        FrozenAttention {
            wq: self.wq.value_clone(),
            wk: self.wk.value_clone(),
            wv: self.wv.value_clone(),
            wo: self.wo.value_clone(),
            heads: self.heads,
        }
    }
}

/// A frozen [`MultiHeadSelfAttention`].
pub struct FrozenAttention {
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    wo: Matrix,
    heads: usize,
}

impl FrozenAttention {
    /// `T×dim` → `T×dim`, as [`MultiHeadSelfAttention::forward`].
    pub fn forward(&self, xs: &Matrix) -> Matrix {
        let hd = self.wq.cols() / self.heads;
        let q = xs.matmul(&self.wq);
        let k = xs.matmul(&self.wk);
        let v = xs.matmul(&self.wv);
        let mut cat = Matrix::zeros(xs.rows(), self.wq.cols());
        for h in 0..self.heads {
            let (s, e) = (h * hd, (h + 1) * hd);
            let head = self.head_attention(&q, &k, h).matmul(&v.slice_cols(s, e));
            for r in 0..head.rows() {
                cat.row_mut(r)[s..e].copy_from_slice(head.row(r));
            }
        }
        cat.matmul(&self.wo)
    }

    /// Every head's `T×T` attention distribution over `xs`, in head
    /// order: the matrices [`FrozenAttention::forward`] weights the
    /// values with.
    pub fn attentions(&self, xs: &Matrix) -> Vec<Matrix> {
        let q = xs.matmul(&self.wq);
        let k = xs.matmul(&self.wk);
        (0..self.heads)
            .map(|h| self.head_attention(&q, &k, h))
            .collect()
    }

    /// Head `h`'s scaled-dot-product softmax over the projected queries
    /// `q` and keys `k`.
    fn head_attention(&self, q: &Matrix, k: &Matrix, h: usize) -> Matrix {
        let hd = self.wq.cols() / self.heads;
        let (s, e) = (h * hd, (h + 1) * hd);
        q.slice_cols(s, e)
            .matmul(&k.slice_cols(s, e).transpose())
            .scale(1.0 / (hd as f32).sqrt())
            .softmax_rows()
    }
}

impl Layer for MultiHeadSelfAttention {
    fn params(&self) -> Vec<Var> {
        vec![
            self.wq.clone(),
            self.wk.clone(),
            self.wv.clone(),
            self.wo.clone(),
        ]
    }
}

/// Learned layer normalization: `γ ⊙ norm(x) + β` per row.
pub struct LayerNorm {
    pub gain: Var,
    pub bias: Var,
    eps: f32,
}

impl LayerNorm {
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gain: Var::leaf(Matrix::full(1, dim, 1.0)),
            bias: Var::leaf(Matrix::zeros(1, dim)),
            eps: 1e-5,
        }
    }

    pub fn forward(&self, x: &Var) -> Var {
        x.layer_norm_rows(self.eps)
            .mul_row_broadcast(&self.gain)
            .add_row_broadcast(&self.bias)
    }

    /// The current weights, off the tape.
    pub fn freeze(&self) -> FrozenLayerNorm {
        FrozenLayerNorm {
            gain: self.gain.value_clone(),
            bias: self.bias.value_clone(),
            eps: self.eps,
        }
    }
}

/// A frozen [`LayerNorm`].
pub struct FrozenLayerNorm {
    gain: Matrix,
    bias: Matrix,
    eps: f32,
}

impl FrozenLayerNorm {
    pub fn forward(&self, x: &Matrix) -> Matrix {
        x.layer_norm_rows(self.eps)
            .mul_row_broadcast(&self.gain)
            .add_row_broadcast(&self.bias)
    }
}

impl Layer for LayerNorm {
    fn params(&self) -> Vec<Var> {
        vec![self.gain.clone(), self.bias.clone()]
    }
}

/// Inverted dropout; identity in eval mode. Masks are sampled from a caller
/// RNG so training is reproducible end to end.
pub struct Dropout {
    p: f32,
}

impl Dropout {
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p));
        Dropout { p }
    }

    pub fn forward(&self, x: &Var, train: bool, rng: &mut StdRng) -> Var {
        if !train || self.p == 0.0 {
            return x.clone();
        }
        let (rows, cols) = x.shape();
        let keep = 1.0 - self.p;
        let mask = Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| if rng.gen::<f32>() < keep { 1.0 } else { 0.0 })
                .collect(),
        );
        x.dropout_with_mask(&mask, keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_shapes_and_bias() {
        let mut r = rng();
        let lin = Linear::new(4, 3, &mut r);
        let x = Var::leaf(Matrix::zeros(2, 4));
        let y = lin.forward(&x);
        assert_eq!(y.shape(), (2, 3));
        // Zero input → output equals bias rows.
        assert_eq!(y.value().row(0), lin.b.value().row(0));
    }

    #[test]
    fn linear_learns_identity_ish_mapping() {
        // Tiny regression sanity: y = 2x fit by SGD on a 1×1 linear layer.
        let mut r = rng();
        let lin = Linear::new(1, 1, &mut r);
        for _ in 0..300 {
            lin.zero_grad();
            let mut loss_acc = 0.0;
            for x_val in [-1.0f32, 0.5, 2.0] {
                let x = Var::leaf(Matrix::from_vec(1, 1, vec![x_val]));
                let pred = lin.forward(&x);
                let target = Var::leaf(Matrix::from_vec(1, 1, vec![2.0 * x_val]));
                let diff = pred.sub(&target);
                let loss = diff.hadamard(&diff).sum();
                loss.backward();
                loss_acc += loss.scalar();
            }
            for p in lin.params() {
                let g = p.grad().clone();
                p.update_value(|v| v.add_scaled(&g, -0.05));
            }
            if loss_acc < 1e-6 {
                break;
            }
        }
        assert!((lin.w.value().get(0, 0) - 2.0).abs() < 0.05);
        assert!(lin.b.value().get(0, 0).abs() < 0.05);
    }

    #[test]
    fn embedding_gathers_rows() {
        let mut r = rng();
        let emb = Embedding::new(10, 4, &mut r);
        let out = emb.forward(&[3, 3, 7]);
        assert_eq!(out.shape(), (3, 4));
        assert_eq!(out.value().row(0), out.value().row(1));
    }

    #[test]
    fn lstm_output_shape_and_direction() {
        let mut r = rng();
        let lstm = Lstm::new(3, 5, &mut r);
        let xs = Var::leaf(Matrix::uniform(4, 3, 1.0, &mut r));
        let fwd = lstm.forward(&xs, false);
        let bwd = lstm.forward(&xs, true);
        assert_eq!(fwd.shape(), (4, 5));
        assert_eq!(bwd.shape(), (4, 5));
        // Directions genuinely differ on asymmetric input.
        assert_ne!(fwd.value().row(0), bwd.value().row(0));
    }

    #[test]
    fn bilstm_concatenates() {
        let mut r = rng();
        let bi = BiLstm::new(3, 4, &mut r);
        let xs = Var::leaf(Matrix::uniform(5, 3, 1.0, &mut r));
        let out = bi.forward(&xs);
        assert_eq!(out.shape(), (5, 8));
    }

    #[test]
    fn lstm_gradients_flow_to_all_params() {
        let mut r = rng();
        let lstm = Lstm::new(2, 3, &mut r);
        let xs = Var::leaf(Matrix::uniform(6, 2, 1.0, &mut r));
        lstm.forward(&xs, false).sum().backward();
        for p in lstm.params() {
            assert!(p.grad().max_abs() > 0.0, "a parameter received no gradient");
        }
        assert!(
            xs.grad().max_abs() > 0.0,
            "input received no gradient (FGSM needs this)"
        );
    }

    #[test]
    fn attention_gradients_flow() {
        let mut r = rng();
        let att = MultiHeadSelfAttention::new(4, 2, &mut r);
        let xs = Var::leaf(Matrix::uniform(3, 4, 1.0, &mut r));
        att.forward(&xs).sum().backward();
        for p in att.params() {
            assert!(p.grad().max_abs() > 0.0);
        }
    }

    #[test]
    fn attention_gradients_match_finite_differences() {
        // Compound check through the full attention stack (projections,
        // per-head softmax, concat, output projection).
        let mut r = rng();
        let att = MultiHeadSelfAttention::new(4, 2, &mut r);
        let x0 = Matrix::uniform(3, 4, 0.8, &mut r);
        let xs = Var::leaf(x0.clone());
        att.forward(&xs).sum().backward();
        let analytic = xs.grad().clone();
        let eps = 1e-3;
        for row in 0..3 {
            for col in 0..4 {
                let mut plus = x0.clone();
                plus.set(row, col, x0.get(row, col) + eps);
                let lp = att.forward(&Var::leaf(plus)).sum().scalar();
                let mut minus = x0.clone();
                minus.set(row, col, x0.get(row, col) - eps);
                let lm = att.forward(&Var::leaf(minus)).sum().scalar();
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic.get(row, col);
                assert!(
                    (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "attention grad mismatch at ({row},{col}): {a} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let ln = LayerNorm::new(4);
        let x = Var::leaf(Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let y = ln.forward(&x);
        let mean: f32 = y.value().row(0).iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn dropout_eval_is_identity_and_train_masks() {
        let d = Dropout::new(0.5);
        let mut r = rng();
        let x = Var::leaf(Matrix::full(1, 100, 1.0));
        let eval = d.forward(&x, false, &mut r);
        assert_eq!(eval.value().clone(), x.value().clone());
        let train = d.forward(&x, true, &mut r);
        let zeros = train.value().data().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 20 && zeros < 80, "mask rate off: {zeros} zeros");
        // Kept entries are scaled by 1/keep.
        assert!(train
            .value()
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    fn bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
        let (r, c) = m.shape();
        (r, c, m.data().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn frozen_layers_match_taped_bitwise() {
        let mut r = rng();
        let x = Matrix::uniform(7, 8, 1.0, &mut r);
        let xv = Var::leaf(x.clone());
        let lin = Linear::new(8, 5, &mut r);
        assert_eq!(
            bits(&lin.freeze().forward(&x)),
            bits(&lin.forward(&xv).value())
        );
        let ln = LayerNorm::new(8);
        ln.gain.set_value(Matrix::uniform(1, 8, 1.0, &mut r));
        ln.bias.set_value(Matrix::uniform(1, 8, 1.0, &mut r));
        assert_eq!(
            bits(&ln.freeze().forward(&x)),
            bits(&ln.forward(&xv).value())
        );
        let att = MultiHeadSelfAttention::new(8, 2, &mut r);
        assert_eq!(
            bits(&att.freeze().forward(&x)),
            bits(&att.forward(&xv).value())
        );
        let bi = BiLstm::new(8, 6, &mut r);
        for xs in [x, Matrix::uniform(1, 8, 1.0, &mut r)] {
            let taped = bi.forward(&Var::leaf(xs.clone()));
            assert_eq!(bits(&bi.freeze().forward(&xs)), bits(&taped.value()));
        }
    }

    #[test]
    fn frozen_attention_heads_match_taped_ops_bitwise() {
        let mut r = rng();
        // The quick() and paper() encoder shapes; 1 token, a typical
        // sentence and a max_len one.
        for (dim, heads) in [(24, 4), (48, 6)] {
            let att = MultiHeadSelfAttention::new(dim, heads, &mut r);
            let hd = dim / heads;
            for t_len in [1, 13, 48] {
                let x = Matrix::uniform(t_len, dim, 1.0, &mut r);
                // The taped forward's ops, up to each head's softmax.
                let q = Var::leaf(x.clone()).matmul(&att.wq);
                let k = Var::leaf(x.clone()).matmul(&att.wk);
                let got = att.freeze().attentions(&x);
                assert_eq!(got.len(), heads);
                for (h, a) in got.iter().enumerate() {
                    let (s, e) = (h * hd, (h + 1) * hd);
                    let want = q.slice_cols(s, e).matmul(&k.slice_cols(s, e).transpose());
                    let want = want.scale(1.0 / (hd as f32).sqrt()).softmax_rows();
                    assert_eq!(bits(a), bits(&want.value()), "dim {dim}, head {h}");
                    for row in 0..t_len {
                        assert!((a.row(row).iter().sum::<f32>() - 1.0).abs() < 1e-4);
                    }
                }
            }
        }
    }

    #[test]
    fn frozen_lstm_matches_taped_above_the_blocked_kernel_bound() {
        // 48·48·(4·128) flops: one `X·W` would take the blocked kernel,
        // whose rounding differs from the per-step products.
        let mut r = rng();
        let lstm = Lstm::new(48, 128, &mut r);
        let xs = Matrix::uniform(48, 48, 1.0, &mut r);
        let taped = lstm.forward(&Var::leaf(xs.clone()), true);
        assert_eq!(
            bits(&lstm.freeze().forward(&xs, true)),
            bits(&taped.value())
        );
    }

    #[test]
    fn state_roundtrip_restores_outputs() {
        let mut r = rng();
        let bi = BiLstm::new(3, 4, &mut r);
        let xs = Var::leaf(Matrix::uniform(4, 3, 1.0, &mut r));
        let before = bi.forward(&xs).value_clone();
        let saved = bi.state();
        // Perturb, then restore.
        for p in bi.params() {
            p.update_value(|v| *v = v.scale(0.5));
        }
        assert_ne!(bi.forward(&xs).value_clone(), before);
        bi.load_state(&saved);
        assert_eq!(bi.forward(&xs).value_clone(), before);
    }
}
