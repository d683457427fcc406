//! Linear-chain Conditional Random Field (§4.1, Equation 4).
//!
//! The CRF layer sits on top of the BiLSTM's per-token emission scores and
//! models label-sequence dependencies: "I-OP cannot follow I-AS … I-AS must
//! either follow B-AS or I-AS". Structural constraints are enforced with a
//! fixed `-1e4` additive mask on illegal transitions/starts, applied in the
//! loss, in Viterbi and in beam decoding, so illegal sequences get
//! effectively zero probability yet the learned transition weights keep
//! clean gradients.
//!
//! The loss is the exact negative log-likelihood
//! `NLL(y|z) = log Z(z) − score(y, z)` with hand-derived gradients computed
//! by forward–backward:
//!
//! * `∂NLL/∂emission[t,j] = P(y_t = j | z) − 1{y_t = j}`
//! * `∂NLL/∂transition[i,j] = Σ_t P(y_t = i, y_{t+1} = j | z) − #(i→j in y)`
//! * `∂NLL/∂start[j] = P(y_0 = j | z) − 1{y_0 = j}`
//!
//! plugged into the autograd graph through [`Var::custom`](saccs_nn::Var::custom), so the BiLSTM
//! below trains end to end.

use rand::rngs::StdRng;
use saccs_nn::{log_sum_exp, Matrix, Var};
use saccs_text::IobTag;

/// Additive penalty for structurally invalid transitions.
const FORBIDDEN: f32 = -1.0e4;

/// Linear-chain CRF over the 5 IOB labels.
pub struct Crf {
    /// Learned transition scores, `L×L` (`[from, to]`).
    pub transitions: Var,
    /// Learned start scores, `1×L`.
    pub start: Var,
    /// Constant constraint mask added to transitions (0 or `FORBIDDEN`).
    mask: Matrix,
    /// Constant constraint mask added to start scores.
    start_mask: Matrix,
}

impl Crf {
    pub fn new(rng: &mut StdRng) -> Self {
        let l = IobTag::COUNT;
        let mut mask = Matrix::zeros(l, l);
        for from in IobTag::ALL {
            for to in IobTag::ALL {
                if !from.may_precede(to) {
                    mask.set(from.index(), to.index(), FORBIDDEN);
                }
            }
        }
        let mut start_mask = Matrix::zeros(1, l);
        for t in IobTag::ALL {
            if !t.may_start() {
                start_mask.set(0, t.index(), FORBIDDEN);
            }
        }
        Crf {
            transitions: Var::leaf(Matrix::uniform(l, l, 0.1, rng)),
            start: Var::leaf(Matrix::uniform(1, l, 0.1, rng)),
            mask,
            start_mask,
        }
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Var> {
        vec![self.transitions.clone(), self.start.clone()]
    }

    fn masked_transitions(&self) -> Matrix {
        self.transitions.value().add(&self.mask)
    }

    fn masked_start(&self) -> Matrix {
        self.start.value().add(&self.start_mask)
    }

    /// Exact sequence NLL as a differentiable scalar.
    #[allow(clippy::needless_range_loop)] // lockstep α/β/emission indexing
    pub fn nll(&self, emissions: &Var, targets: &[IobTag]) -> Var {
        let em = emissions.value_clone();
        let (t_len, l) = em.shape();
        assert_eq!(l, IobTag::COUNT);
        assert_eq!(t_len, targets.len(), "target length mismatch");
        assert!(t_len > 0);
        let trans = self.masked_transitions();
        let start = self.masked_start();
        let y: Vec<usize> = targets.iter().map(|t| t.index()).collect();

        // Forward recursion (log alpha).
        let mut alpha = Matrix::zeros(t_len, l);
        for j in 0..l {
            alpha.set(0, j, start.get(0, j) + em.get(0, j));
        }
        let mut scratch = vec![0.0f32; l];
        for t in 1..t_len {
            for j in 0..l {
                for (i, s) in scratch.iter_mut().enumerate() {
                    *s = alpha.get(t - 1, i) + trans.get(i, j);
                }
                alpha.set(t, j, log_sum_exp(&scratch) + em.get(t, j));
            }
        }
        let log_z = log_sum_exp(alpha.row(t_len - 1));

        // Gold path score.
        let mut gold = start.get(0, y[0]) + em.get(0, y[0]);
        for t in 1..t_len {
            gold += trans.get(y[t - 1], y[t]) + em.get(t, y[t]);
        }
        let nll_value = log_z - gold;

        // Backward recursion (log beta) for the gradient marginals.
        let mut beta = Matrix::zeros(t_len, l);
        for t in (0..t_len - 1).rev() {
            for i in 0..l {
                for (j, s) in scratch.iter_mut().enumerate() {
                    *s = trans.get(i, j) + em.get(t + 1, j) + beta.get(t + 1, j);
                }
                beta.set(t, i, log_sum_exp(&scratch));
            }
        }

        // Unary marginals − indicators → emission/start grads.
        let mut d_em = Matrix::zeros(t_len, l);
        for t in 0..t_len {
            for j in 0..l {
                let p = (alpha.get(t, j) + beta.get(t, j) - log_z).exp();
                d_em.set(t, j, p);
            }
            d_em.set(t, y[t], d_em.get(t, y[t]) - 1.0);
        }
        let mut d_start = Matrix::zeros(1, l);
        for j in 0..l {
            let p = (alpha.get(0, j) + beta.get(0, j) - log_z).exp();
            d_start.set(0, j, p - f32::from(u8::from(j == y[0])));
        }
        // Pairwise marginals − counts → transition grads.
        let mut d_trans = Matrix::zeros(l, l);
        for t in 0..t_len.saturating_sub(1) {
            for i in 0..l {
                for j in 0..l {
                    let p =
                        (alpha.get(t, i) + trans.get(i, j) + em.get(t + 1, j) + beta.get(t + 1, j)
                            - log_z)
                            .exp();
                    d_trans.set(i, j, d_trans.get(i, j) + p);
                }
            }
            d_trans.set(y[t], y[t + 1], d_trans.get(y[t], y[t + 1]) - 1.0);
        }

        Var::custom(
            Matrix::from_vec(1, 1, vec![nll_value]),
            vec![
                emissions.clone(),
                self.transitions.clone(),
                self.start.clone(),
            ],
            move |g, parents| {
                let s = g.get(0, 0);
                parents[0].accumulate_grad(&d_em.scale(s));
                parents[1].accumulate_grad(&d_trans.scale(s));
                parents[2].accumulate_grad(&d_start.scale(s));
            },
        )
    }

    /// Exact Viterbi decoding (Equation 5) under the structural mask.
    #[allow(clippy::needless_range_loop)] // lockstep indexing of score/back
    pub fn viterbi(&self, emissions: &Matrix) -> Vec<IobTag> {
        let (t_len, l) = emissions.shape();
        assert_eq!(l, IobTag::COUNT);
        if t_len == 0 {
            return Vec::new();
        }
        let trans = self.masked_transitions();
        let start = self.masked_start();
        let mut score = Matrix::zeros(t_len, l);
        let mut back = vec![vec![0usize; l]; t_len];
        for j in 0..l {
            score.set(0, j, start.get(0, j) + emissions.get(0, j));
        }
        for t in 1..t_len {
            for j in 0..l {
                let mut best = f32::NEG_INFINITY;
                let mut arg = 0usize;
                for i in 0..l {
                    let v = score.get(t - 1, i) + trans.get(i, j);
                    if v > best {
                        best = v;
                        arg = i;
                    }
                }
                score.set(t, j, best + emissions.get(t, j));
                back[t][j] = arg;
            }
        }
        let mut cur = (0..l)
            .max_by(|&a, &b| score.get(t_len - 1, a).total_cmp(&score.get(t_len - 1, b)))
            // lint:allow(no-unwrap-in-lib): l = IobTag::COUNT >= 1 always
            .expect("at least one label state");
        let mut path = vec![cur; t_len];
        for t in (1..t_len).rev() {
            cur = back[t][cur];
            path[t - 1] = cur;
        }
        path.into_iter().map(IobTag::from_index).collect()
    }

    /// Beam-search decoding with width `beam` (§4.1 mentions "the Viterbi
    /// algorithm along with beam search for efficient decoding"). A global
    /// top-k beam is approximate in general — exactness requires keeping
    /// the best hypothesis *per end state*, which a width of
    /// `L² = 25` guarantees for this 5-label chain; narrower beams may
    /// miss the optimum on adversarial potentials.
    pub fn beam_decode(&self, emissions: &Matrix, beam: usize) -> Vec<IobTag> {
        let (t_len, l) = emissions.shape();
        assert!(beam >= 1);
        if t_len == 0 {
            return Vec::new();
        }
        let trans = self.masked_transitions();
        let start = self.masked_start();
        // (score, path)
        let mut hyps: Vec<(f32, Vec<usize>)> = (0..l)
            .map(|j| (start.get(0, j) + emissions.get(0, j), vec![j]))
            .collect();
        hyps.sort_by(|a, b| b.0.total_cmp(&a.0));
        hyps.truncate(beam);
        for t in 1..t_len {
            let mut next: Vec<(f32, Vec<usize>)> = Vec::with_capacity(hyps.len() * l);
            for (s, path) in &hyps {
                // lint:allow(no-unwrap-in-lib): every hypothesis starts non-empty
                let last = *path.last().expect("non-empty hypothesis path");
                for j in 0..l {
                    let v = s + trans.get(last, j) + emissions.get(t, j);
                    let mut p = path.clone();
                    p.push(j);
                    next.push((v, p));
                }
            }
            next.sort_by(|a, b| b.0.total_cmp(&a.0));
            next.truncate(beam);
            hyps = next;
        }
        hyps[0].1.iter().map(|&i| IobTag::from_index(i)).collect()
    }

    /// Total log-partition of an emission matrix (exposed for tests).
    pub fn log_partition(&self, emissions: &Matrix) -> f32 {
        let (t_len, l) = emissions.shape();
        if t_len == 0 {
            // The empty sequence has exactly one (empty) labeling.
            return 0.0;
        }
        let trans = self.masked_transitions();
        let start = self.masked_start();
        let mut alpha: Vec<f32> = (0..l)
            .map(|j| start.get(0, j) + emissions.get(0, j))
            .collect();
        let mut scratch = vec![0.0f32; l];
        for t in 1..t_len {
            let prev = alpha.clone();
            for (j, a) in alpha.iter_mut().enumerate() {
                for (i, s) in scratch.iter_mut().enumerate() {
                    *s = prev[i] + trans.get(i, j);
                }
                *a = log_sum_exp(&scratch) + emissions.get(t, j);
            }
        }
        log_sum_exp(&alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use saccs_text::iob::is_valid_sequence;

    fn crf(seed: u64) -> Crf {
        Crf::new(&mut StdRng::seed_from_u64(seed))
    }

    /// Brute-force log-partition and best path over all valid sequences.
    fn brute_force(crf: &Crf, em: &Matrix) -> (f32, Vec<usize>) {
        let (t_len, l) = em.shape();
        let trans = crf.transitions.value().add(&{
            let mut m = Matrix::zeros(l, l);
            for f in IobTag::ALL {
                for t in IobTag::ALL {
                    if !f.may_precede(t) {
                        m.set(f.index(), t.index(), FORBIDDEN);
                    }
                }
            }
            m
        });
        let start = crf.start.value_clone();
        let mut scores = Vec::new();
        let mut best = (f32::NEG_INFINITY, Vec::new());
        let total = l.pow(t_len as u32);
        for mut code in 0..total {
            let mut seq = Vec::with_capacity(t_len);
            for _ in 0..t_len {
                seq.push(code % l);
                code /= l;
            }
            let first = IobTag::from_index(seq[0]);
            let mut s = start.get(0, seq[0])
                + if first.may_start() { 0.0 } else { FORBIDDEN }
                + em.get(0, seq[0]);
            for t in 1..t_len {
                s += trans.get(seq[t - 1], seq[t]) + em.get(t, seq[t]);
            }
            if s > best.0 {
                best = (s, seq.clone());
            }
            scores.push(s);
        }
        (log_sum_exp(&scores), best.1)
    }

    #[test]
    fn log_partition_matches_brute_force() {
        let c = crf(1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let em = Matrix::uniform(4, IobTag::COUNT, 2.0, &mut rng);
            let fast = c.log_partition(&em);
            let (brute, _) = brute_force(&c, &em);
            assert!((fast - brute).abs() < 1e-3, "fast={fast} brute={brute}");
        }
    }

    #[test]
    fn viterbi_matches_brute_force() {
        let c = crf(3);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let em = Matrix::uniform(4, IobTag::COUNT, 3.0, &mut rng);
            let fast: Vec<usize> = c.viterbi(&em).iter().map(|t| t.index()).collect();
            let (_, brute) = brute_force(&c, &em);
            assert_eq!(fast, brute);
        }
    }

    #[test]
    fn decoded_sequences_are_always_structurally_valid() {
        let c = crf(5);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let em = Matrix::uniform(8, IobTag::COUNT, 5.0, &mut rng);
            assert!(is_valid_sequence(&c.viterbi(&em)));
            assert!(is_valid_sequence(&c.beam_decode(&em, 3)));
        }
    }

    #[test]
    fn wide_beam_equals_viterbi() {
        let c = crf(7);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10 {
            let em = Matrix::uniform(6, IobTag::COUNT, 3.0, &mut rng);
            assert_eq!(
                c.viterbi(&em),
                c.beam_decode(&em, IobTag::COUNT * IobTag::COUNT)
            );
        }
    }

    #[test]
    fn nll_gradients_match_finite_differences() {
        let c = crf(9);
        let mut rng = StdRng::seed_from_u64(10);
        let em0 = Matrix::uniform(3, IobTag::COUNT, 1.0, &mut rng);
        let targets = [IobTag::O, IobTag::BAs, IobTag::O];
        let emissions = Var::leaf(em0.clone());
        let loss = c.nll(&emissions, &targets);
        loss.backward();
        let analytic = emissions.grad().clone();
        let eps = 1e-3;
        for r in 0..3 {
            for col in 0..IobTag::COUNT {
                let mut p = em0.clone();
                p.set(r, col, em0.get(r, col) + eps);
                let lp = c.nll(&Var::leaf(p), &targets).scalar();
                let mut m = em0.clone();
                m.set(r, col, em0.get(r, col) - eps);
                let lm = c.nll(&Var::leaf(m), &targets).scalar();
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic.get(r, col);
                assert!(
                    (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "emission grad mismatch at ({r},{col}): {a} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn transition_gradients_match_finite_differences() {
        let c = crf(11);
        let mut rng = StdRng::seed_from_u64(12);
        let em = Matrix::uniform(4, IobTag::COUNT, 1.0, &mut rng);
        let targets = [IobTag::BAs, IobTag::IAs, IobTag::O, IobTag::BOp];
        let emissions = Var::leaf(em);
        c.nll(&emissions, &targets).backward();
        let analytic = c.transitions.grad().clone();
        let base = c.transitions.value_clone();
        let eps = 1e-3;
        for i in 0..IobTag::COUNT {
            for j in 0..IobTag::COUNT {
                // Skip forbidden transitions: their probability is ~0 and
                // the loss is flat there.
                if !IobTag::from_index(i).may_precede(IobTag::from_index(j)) {
                    continue;
                }
                let mut p = base.clone();
                p.set(i, j, base.get(i, j) + eps);
                c.transitions.set_value(p);
                let lp = c.nll(&emissions, &targets).scalar();
                let mut m = base.clone();
                m.set(i, j, base.get(i, j) - eps);
                c.transitions.set_value(m);
                let lm = c.nll(&emissions, &targets).scalar();
                c.transitions.set_value(base.clone());
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic.get(i, j);
                assert!(
                    (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "transition grad mismatch at ({i},{j}): {a} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn nll_is_nonnegative_and_zero_only_for_certain_gold() {
        let c = crf(13);
        // Strong emissions for the gold path → NLL near 0.
        let mut em = Matrix::full(3, IobTag::COUNT, -20.0);
        let targets = [IobTag::O, IobTag::BOp, IobTag::IOp];
        for (t, tag) in targets.iter().enumerate() {
            em.set(t, tag.index(), 20.0);
        }
        let loss = c.nll(&Var::leaf(em), &targets).scalar();
        assert!(loss >= -1e-3);
        assert!(loss < 0.1, "gold path should dominate: {loss}");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(32))]

            /// The Viterbi path's score never exceeds the log-partition
            /// (logsumexp over all paths dominates the max), and the NLL of
            /// the Viterbi path is the smallest among sampled sequences.
            #[test]
            fn prop_partition_dominates_viterbi(seed in 0u64..500, t_len in 1usize..7) {
                let mut rng = StdRng::seed_from_u64(seed);
                let c = Crf::new(&mut rng);
                let em = Matrix::uniform(t_len, IobTag::COUNT, 3.0, &mut rng);
                let path = c.viterbi(&em);
                let nll = c.nll(&Var::leaf(em.clone()), &path).scalar();
                // NLL = logZ − score(path) ≥ 0 exactly when logZ ≥ score.
                prop_assert!(nll >= -1e-3, "viterbi path scored above the partition: {}", nll);
            }

            /// Viterbi is invariant to adding a constant to all emissions.
            #[test]
            fn prop_shift_invariance(seed in 0u64..200, shift in -5.0f32..5.0) {
                let mut rng = StdRng::seed_from_u64(seed);
                let c = Crf::new(&mut rng);
                let em = Matrix::uniform(5, IobTag::COUNT, 3.0, &mut rng);
                let shifted = em.map(|v| v + shift);
                prop_assert_eq!(c.viterbi(&em), c.viterbi(&shifted));
            }

            /// The NLL of any *valid* random sequence is at least the NLL
            /// of the Viterbi path.
            #[test]
            fn prop_viterbi_is_optimal(seed in 0u64..200) {
                let mut rng = StdRng::seed_from_u64(seed);
                let c = Crf::new(&mut rng);
                let em = Matrix::uniform(4, IobTag::COUNT, 2.0, &mut rng);
                let best = c.viterbi(&em);
                let best_nll = c.nll(&Var::leaf(em.clone()), &best).scalar();
                // Compare against a handful of random valid sequences.
                use rand::Rng;
                for _ in 0..10 {
                    let mut seq = Vec::with_capacity(4);
                    let mut prev: Option<IobTag> = None;
                    for _ in 0..4 {
                        let choices: Vec<IobTag> = IobTag::ALL
                            .into_iter()
                            .filter(|&t| match prev {
                                None => t.may_start(),
                                Some(p) => p.may_precede(t),
                            })
                            .collect();
                        let t = choices[rng.gen_range(0..choices.len())];
                        seq.push(t);
                        prev = Some(t);
                    }
                    let nll = c.nll(&Var::leaf(em.clone()), &seq).scalar();
                    prop_assert!(nll >= best_nll - 1e-3);
                }
            }
        }
    }

    #[test]
    fn training_a_crf_alone_learns_transition_structure() {
        // Emissions held ambiguous; only transitions can explain the data,
        // which always follows B-AS with I-AS.
        let mut rng = StdRng::seed_from_u64(14);
        let c = Crf::new(&mut rng);
        let em = Matrix::zeros(2, IobTag::COUNT);
        let targets = [IobTag::BAs, IobTag::IAs];
        let params = c.params();
        let mut opt = saccs_nn::Sgd::new(0.5, 0.0);
        for _ in 0..200 {
            saccs_nn::zero_grads(&params);
            c.nll(&Var::leaf(em.clone()), &targets).backward();
            opt.step(&params);
        }
        assert_eq!(c.viterbi(&em), vec![IobTag::BAs, IobTag::IAs]);
    }
}
