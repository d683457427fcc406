//! Dense row-major `f32` matrices.
//!
//! The raw numeric workhorse under the autograd engine. Vectors are `1×n`
//! matrices; a token sequence of length `T` embedded in `d` dimensions is a
//! `T×d` matrix. All shapes are checked with assertions — shape bugs are
//! programming errors, not recoverable conditions.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a row-major data vector; panics on length mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// A `1×n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        Matrix {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    /// Uniform Xavier/Glorot initialization over `(-b, b)` with
    /// `b = sqrt(6 / (fan_in + fan_out))`.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Uniform init over `(-bound, bound)`.
    pub fn uniform<R: Rng>(rows: usize, cols: usize, bound: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }
    pub fn cols(&self) -> usize {
        self.cols
    }
    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
    pub fn len(&self) -> usize {
        self.data.len()
    }
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
    pub fn data(&self) -> &[f32] {
        &self.data
    }
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Bounds check behind the `sanitize` feature: release builds of a
    /// non-square matrix would otherwise *silently* read the wrong cell
    /// whenever `c < rows·cols/cols` holds but `c ≥ cols` (the flat
    /// index stays in range). Sanitize builds panic naming the index
    /// and shape; default builds keep the debug-only check.
    #[cfg(feature = "sanitize")]
    #[inline]
    fn check_bounds(&self, r: usize, c: usize, op: &str) {
        assert!(
            r < self.rows && c < self.cols,
            "{op}: index ({r}, {c}) out of bounds for {}\u{d7}{} matrix",
            self.rows,
            self.cols
        );
    }

    #[cfg(not(feature = "sanitize"))]
    #[inline(always)]
    fn check_bounds(&self, r: usize, c: usize, _op: &str) {
        debug_assert!(r < self.rows && c < self.cols);
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.check_bounds(r, c, "get");
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.check_bounds(r, c, "set");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`; `(m×k) · (k×n) = (m×n)`.
    ///
    /// Dispatches to the cache-blocked SIMD kernel ([`crate::kernel`])
    /// and fans row blocks out across the `saccs-rt` pool for large
    /// shapes; results are bitwise identical at every thread count.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_with_threads(other, saccs_rt::threads())
    }

    /// [`Matrix::matmul`] with an explicit fan-out width (test/bench
    /// hook — the cross-thread-count determinism suite compares widths
    /// inside one process without touching the global pool override).
    pub fn matmul_with_threads(&self, other: &Matrix, width: usize) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}×{} · {}×{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, n) = (self.rows, other.cols);
        let mut out = Matrix::zeros(m, n);
        crate::kernel::matmul_into(
            &self.data,
            &other.data,
            m,
            self.cols,
            n,
            &mut out.data,
            width.max(1),
        );
        out
    }

    /// The pre-kernel serial matmul (scalar i-k-j with a zero-skip
    /// branch), kept as the bench baseline and as an independent oracle
    /// for the kernel equivalence tests.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}×{} · {}×{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, n) = (self.rows, other.cols);
        let mut out = Matrix::zeros(m, n);
        crate::kernel::reference_zero_skip_into(
            &self.data,
            &other.data,
            m,
            self.cols,
            n,
            &mut out.data,
        );
        out
    }

    /// Transpose (blocked: 32×32 tiles keep both the read and the
    /// write side within a few cache lines, where the naive loop
    /// strides the destination by `rows` on every element).
    pub fn transpose(&self) -> Matrix {
        const TILE: usize = 32;
        let mut out = Matrix::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(TILE) {
            let r_hi = (rb + TILE).min(self.rows);
            for cb in (0..self.cols).step_by(TILE) {
                let c_hi = (cb + TILE).min(self.cols);
                for r in rb..r_hi {
                    for c in cb..c_hi {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Elementwise sum; shapes must match.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add: {}\u{d7}{} + {}\u{d7}{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// `self += other`, in place.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_assign: {}\u{d7}{} += {}\u{d7}{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other`, in place (axpy).
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled: {}\u{d7}{} += \u{3b1}\u{b7}{}\u{d7}{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "sub: {}\u{d7}{} - {}\u{d7}{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Hadamard (elementwise) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "hadamard: {}\u{d7}{} \u{2218} {}\u{d7}{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Apply `f` elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Add a `1×cols` row vector to every row (broadcast).
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(
            row.rows, 1,
            "broadcast operand must be a row vector, got {}\u{d7}{}",
            row.rows, row.cols
        );
        assert_eq!(
            row.cols, self.cols,
            "broadcast: 1\u{d7}{} row against {}\u{d7}{}",
            row.cols, self.rows, self.cols
        );
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&row.data) {
                *o += b;
            }
        }
        out
    }

    /// Multiply every row elementwise by a `1×cols` row vector.
    pub fn mul_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert!(
            row.rows == 1 && row.cols == self.cols,
            "mul_row_broadcast: shape"
        );
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, &w) in out.row_mut(r).iter_mut().zip(&row.data) {
                *v *= w;
            }
        }
        out
    }

    /// Elementwise `tanh`.
    pub fn tanh(&self) -> Matrix {
        self.map(f32::tanh)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Matrix {
        self.map(|v| 1.0 / (1.0 + (-v).exp()))
    }

    /// Elementwise ReLU.
    pub fn relu(&self) -> Matrix {
        self.map(|v| v.max(0.0))
    }

    /// Row-wise layer normalization, `(x − μ) / sqrt(σ² + eps)` per row
    /// (no learned gain or bias).
    pub fn layer_norm_rows(&self, eps: f32) -> Matrix {
        self.layer_norm_parts(eps).0
    }

    /// [`Matrix::layer_norm_rows`] and each row's `sqrt(σ² + eps)`, which
    /// the taped op keeps for its backward pass.
    pub(crate) fn layer_norm_parts(&self, eps: f32) -> (Matrix, Vec<f32>) {
        let (rows, cols) = self.shape();
        let mut y = Matrix::zeros(rows, cols);
        let mut sigmas = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = self.row(r);
            let mu = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / cols as f32;
            let sigma = (var + eps).sqrt();
            sigmas.push(sigma);
            for (o, &v) in y.row_mut(r).iter_mut().zip(row) {
                *o = (v - mu) / sigma;
            }
        }
        (y, sigmas)
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Column-wise sum, producing a `1×cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// L∞ norm (max absolute entry); 0 for empty matrices.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Vertically stack rows of `self` above rows of `other`.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "vstack: {}\u{d7}{} over {}\u{d7}{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Horizontally concatenate (same row count).
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "hstack: {}\u{d7}{} beside {}\u{d7}{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Copy of rows `range`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows: [{start}, {end}) of {}\u{d7}{}",
            self.rows,
            self.cols
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Copy of columns `start..end`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols: [{start}, {end})"
        );
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Gather rows by index, `out[t] = self[ids[t]]`: the embedding
    /// lookup.
    pub fn gather_rows(&self, ids: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(ids.len(), self.cols);
        for (t, &i) in ids.iter().enumerate() {
            debug_assert!(i < self.rows, "gather_rows: id {i} out of {}", self.rows);
            out.row_mut(t).copy_from_slice(self.row(i));
        }
        out
    }

    /// Row-wise softmax (numerically stable).
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        out
    }

    /// Row-wise log-softmax (numerically stable).
    pub fn log_softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let lse = max + row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
            for v in row.iter_mut() {
                *v -= lse;
            }
        }
        out
    }
}

/// Numerically stable `log(sum(exp(xs)))`.
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    let max = xs.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    if max == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    max + xs.iter().map(|&v| (v - max).exp()).sum::<f32>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn transpose_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.data(), &[1., 4., 2., 5., 3., 6.]);
        // Shapes straddling the 32-wide tile boundary.
        let big = Matrix::from_vec(33, 65, (0..33 * 65).map(|i| i as f32).collect());
        let bt = big.transpose();
        for r in 0..33 {
            for c in 0..65 {
                assert_eq!(bt.get(c, r), big.get(r, c), "({r}, {c})");
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Monotone in the logits.
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let a = Matrix::from_vec(1, 4, vec![0.5, -1.0, 2.0, 0.0]);
        let ls = a.log_softmax_rows();
        let s = a.softmax_rows();
        for c in 0..4 {
            assert!((ls.get(0, c) - s.get(0, c).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_is_stable_for_large_inputs() {
        let a = Matrix::from_vec(1, 2, vec![1000.0, 1000.0]);
        let ls = a.log_softmax_rows();
        assert!((ls.get(0, 0) - (-std::f32::consts::LN_2)).abs() < 1e-4);
    }

    #[test]
    fn broadcast_adds_row() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::row_vector(vec![1., 2., 3.]);
        let c = a.add_row_broadcast(&b);
        assert_eq!(c.row(0), &[1., 2., 3.]);
        assert_eq!(c.row(1), &[1., 2., 3.]);
    }

    #[test]
    fn stack_and_slice() {
        let a = Matrix::from_vec(1, 2, vec![1., 2.]);
        let b = Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.slice_rows(1, 3), b);
        let h = a.hstack(&Matrix::from_vec(1, 1, vec![9.]));
        assert_eq!(h.data(), &[1., 2., 9.]);
    }

    #[test]
    fn log_sum_exp_stable() {
        assert!((log_sum_exp(&[0.0, 0.0]) - std::f32::consts::LN_2).abs() < 1e-6);
        let big = log_sum_exp(&[1000.0, 1000.0]);
        assert!((big - (1000.0 + std::f32::consts::LN_2)).abs() < 1e-3);
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn xavier_is_bounded_and_seeded() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Matrix::xavier(10, 10, &mut rng);
        let bound = (6.0 / 20.0f32).sqrt();
        assert!(m.data().iter().all(|v| v.abs() < bound));
        let mut rng2 = StdRng::seed_from_u64(7);
        assert_eq!(m, Matrix::xavier(10, 10, &mut rng2));
    }

    proptest! {
        #[test]
        fn prop_matmul_identity(r in 1usize..5, c in 1usize..5, seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::uniform(r, c, 1.0, &mut rng);
            let mut id = Matrix::zeros(c, c);
            for i in 0..c { id.set(i, i, 1.0); }
            let out = a.matmul(&id);
            for (x, y) in out.data().iter().zip(a.data()) {
                prop_assert!((x - y).abs() < 1e-6);
            }
        }

        #[test]
        fn prop_matmul_transpose_identity(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..50) {
            // (A·B)ᵀ = Bᵀ·Aᵀ
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::uniform(m, k, 1.0, &mut rng);
            let b = Matrix::uniform(k, n, 1.0, &mut rng);
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() < 1e-5);
            }
        }

        #[test]
        fn prop_transpose_round_trips(r in 1usize..70, c in 1usize..70, seed in 0u64..20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::uniform(r, c, 3.0, &mut rng);
            let t = a.transpose();
            prop_assert_eq!(t.shape(), (c, r));
            prop_assert_eq!(&t.transpose(), &a);
            // Spot-check the mapping itself, not just the involution.
            prop_assert_eq!(t.get(c - 1, r - 1), a.get(r - 1, c - 1));
            prop_assert_eq!(t.get(0, r - 1), a.get(r - 1, 0));
        }

        #[test]
        fn prop_blocked_matmul_matches_naive(m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..20) {
            // The blocked/SIMD kernel agrees with the legacy serial
            // kernel to fp tolerance (FMA changes rounding, not math).
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::uniform(m, k, 1.0, &mut rng);
            let b = Matrix::uniform(k, n, 1.0, &mut rng);
            let fast = a.matmul(&b);
            let slow = a.matmul_naive(&b);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                prop_assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }

        #[test]
        fn prop_add_commutes(r in 1usize..4, c in 1usize..4, seed in 0u64..50) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::uniform(r, c, 2.0, &mut rng);
            let b = Matrix::uniform(r, c, 2.0, &mut rng);
            prop_assert_eq!(a.add(&b), b.add(&a));
        }

        #[test]
        fn prop_softmax_rows_are_distributions(r in 1usize..4, c in 1usize..6, seed in 0u64..50) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::uniform(r, c, 5.0, &mut rng);
            let s = a.softmax_rows();
            for i in 0..r {
                let sum: f32 = s.row(i).iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                prop_assert!(s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }
    }
}
