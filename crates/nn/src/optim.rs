//! Optimizers: SGD with momentum and Adam.
//!
//! Optimizers hold their own per-parameter state keyed by position, so the
//! caller passes the same parameter list (same order) to every `step`.

use crate::matrix::Matrix;
use crate::var::Var;

/// Plain SGD with optional momentum and gradient clipping.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    clip: Option<f32>,
    velocity: Vec<Matrix>,
}

impl Sgd {
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            clip: None,
            velocity: Vec::new(),
        }
    }

    /// Clip gradients elementwise to `[-c, c]` before applying.
    pub fn with_clip(mut self, c: f32) -> Self {
        self.clip = Some(c);
        self
    }

    pub fn step(&mut self, params: &[Var]) {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Matrix::zeros(p.shape().0, p.shape().1))
                .collect();
        }
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "parameter list changed size"
        );
        let lr = self.lr;
        let momentum = self.momentum;
        // `clamp(-∞, ∞)` is the identity (NaN included), so the no-clip
        // case shares the branch-free loop below.
        let (lo, hi) = match self.clip {
            Some(c) => (-c, c),
            None => (f32::NEG_INFINITY, f32::INFINITY),
        };
        for (p, v) in params.iter().zip(self.velocity.iter_mut()) {
            // One fused in-place, branch-free pass per parameter: the
            // per-element expressions are kept verbatim from the old
            // multi-temporary formulation (and SIMD min/max/mul/add are
            // bit-exact elementwise), so the update is bitwise identical.
            p.update_value(|val| {
                let g = p.grad();
                let w = val.data_mut();
                let n = w.len();
                let (vs, gd) = (&mut v.data_mut()[..n], &g.data()[..n]);
                if momentum > 0.0 {
                    for i in 0..n {
                        let gi = gd[i].clamp(lo, hi);
                        vs[i] = vs[i] * momentum + gi;
                        w[i] += -lr * vs[i];
                    }
                } else {
                    for i in 0..n {
                        let gi = gd[i].clamp(lo, hi);
                        w[i] += -lr * gi;
                    }
                }
            });
        }
    }
}

/// Adam (Kingma & Ba) with bias correction and optional gradient clipping.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    clip: Option<f32>,
    t: u32,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: None,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    pub fn with_clip(mut self, c: f32) -> Self {
        self.clip = Some(c);
        self
    }

    pub fn step(&mut self, params: &[Var]) {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Matrix::zeros(p.shape().0, p.shape().1))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(self.m.len(), params.len(), "parameter list changed size");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let lr = self.lr;
        let eps = self.eps;
        let (beta1, beta2) = (self.beta1, self.beta2);
        // `clamp(-∞, ∞)` is the identity (NaN included), so the no-clip
        // case shares the branch-free loop below.
        let (lo, hi) = match self.clip {
            Some(c) => (-c, c),
            None => (f32::NEG_INFINITY, f32::INFINITY),
        };
        for ((p, m), v) in params.iter().zip(self.m.iter_mut()).zip(self.v.iter_mut()) {
            // One fused in-place, branch-free pass instead of ~8
            // full-matrix temporaries per step — and, critically, a loop
            // shape LLVM turns into packed min/max/sqrt/div (the scalar
            // sqrt+div chain dominated every optimizer step). Elementwise
            // SIMD arithmetic is bit-exact, and the per-element
            // expressions are kept verbatim, so the update is bitwise
            // identical to the old formulation.
            p.update_value(|val| {
                let g = p.grad();
                let w = val.data_mut();
                let n = w.len();
                let (ms, vs, gd) = (
                    &mut m.data_mut()[..n],
                    &mut v.data_mut()[..n],
                    &g.data()[..n],
                );
                for i in 0..n {
                    let gi = gd[i].clamp(lo, hi);
                    ms[i] = ms[i] * beta1 + gi * (1.0 - beta1);
                    vs[i] = vs[i] * beta2 + (gi * gi) * (1.0 - beta2);
                    let mhat = ms[i] / bc1;
                    let vhat = vs[i] / bc2;
                    w[i] -= lr * mhat / (vhat.sqrt() + eps);
                }
            });
        }
    }
}

/// Zero the gradients of every parameter in the slice.
pub fn zero_grads(params: &[Var]) {
    for p in params {
        p.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Layer, Linear};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Train y = 3x − 1 on three points; the optimizer under test must
    /// drive the squared loss below `tol` within `iters` rounds.
    fn converges(mut step: impl FnMut(&[Var]), iters: usize, tol: f32) {
        let mut rng = StdRng::seed_from_u64(9);
        let lin = Linear::new(1, 1, &mut rng);
        let params = lin.params();
        let mut final_loss = f32::INFINITY;
        for _ in 0..iters {
            zero_grads(&params);
            let mut total = 0.0;
            for x_val in [-1.0f32, 0.0, 2.0] {
                let x = Var::leaf(Matrix::from_vec(1, 1, vec![x_val]));
                let target = 3.0 * x_val - 1.0;
                let diff = lin
                    .forward(&x)
                    .sub(&Var::leaf(Matrix::from_vec(1, 1, vec![target])));
                let loss = diff.hadamard(&diff).sum();
                loss.backward();
                total += loss.scalar();
            }
            step(&params);
            final_loss = total;
        }
        assert!(final_loss < tol, "did not converge: loss={final_loss}");
    }

    #[test]
    fn sgd_converges() {
        let mut opt = Sgd::new(0.05, 0.0);
        converges(|p| opt.step(p), 400, 1e-4);
    }

    #[test]
    fn sgd_momentum_converges_faster() {
        let mut opt = Sgd::new(0.02, 0.9);
        converges(|p| opt.step(p), 200, 1e-4);
    }

    #[test]
    fn adam_converges() {
        let mut opt = Adam::new(0.05);
        converges(|p| opt.step(p), 400, 1e-3);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let p = Var::leaf(Matrix::from_vec(1, 1, vec![0.0]));
        // Huge gradient.
        p.scale(1e6).sum().backward();
        let mut opt = Sgd::new(1.0, 0.0).with_clip(0.5);
        opt.step(std::slice::from_ref(&p));
        assert!((p.value().get(0, 0) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn zero_grads_resets() {
        let p = Var::leaf(Matrix::from_vec(1, 1, vec![1.0]));
        p.scale(2.0).sum().backward();
        assert!(p.grad().get(0, 0) != 0.0);
        zero_grads(std::slice::from_ref(&p));
        assert_eq!(p.grad().get(0, 0), 0.0);
    }
}
