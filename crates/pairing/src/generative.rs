//! Generative label models (§5.2): majority vote and the probabilistic
//! model.
//!
//! Snorkel \[48\] aggregates noisy labeling-function votes into training
//! labels two ways. The simple way is a majority vote. The probabilistic
//! way "incorporates statistical properties of labeling functions such as
//! accuracies" and trains "a probabilistic graphical model to generate the
//! true labels without access to ground truth" — for independent binary
//! LFs this is the classic one-coin Dawid-Skene model fitted with EM,
//! which is what [`ProbabilisticModel`] implements: a class prior `π` and
//! a per-LF accuracy `θ_j`, alternating posterior inference (E) with
//! parameter re-estimation (M).

/// EM iterations of [`ProbabilisticModel::fit`].
const EM_ITERATIONS: usize = 25;

/// Majority vote over binary votes (ties break negative, the conservative
/// choice for a high-precision pipeline).
pub fn majority_vote(votes: &[bool]) -> bool {
    let pos = votes.iter().filter(|&&v| v).count();
    2 * pos > votes.len()
}

/// One-coin Dawid-Skene label model fitted by EM.
#[derive(Debug, Clone)]
pub struct ProbabilisticModel {
    /// P(y = 1).
    pub prior: f64,
    /// Per-LF accuracy P(vote = y).
    pub accuracies: Vec<f64>,
}

impl ProbabilisticModel {
    /// Fit on a vote matrix (`rows = datapoints`, `cols = LFs`) without any
    /// ground-truth labels, in a fixed number of EM rounds (`EM_ITERATIONS`).
    pub fn fit(votes: &[Vec<bool>]) -> Self {
        assert!(!votes.is_empty(), "no datapoints");
        let n_lfs = votes[0].len();
        assert!(votes.iter().all(|v| v.len() == n_lfs), "ragged vote matrix");

        // Init from majority vote.
        let mut posterior: Vec<f64> = votes
            .iter()
            .map(|v| if majority_vote(v) { 0.9 } else { 0.1 })
            .collect();
        let mut prior = 0.5;
        let mut accuracies = vec![0.7; n_lfs];

        for _ in 0..EM_ITERATIONS {
            // M-step: re-estimate prior and accuracies from the posterior.
            prior = posterior.iter().sum::<f64>() / posterior.len() as f64;
            prior = prior.clamp(0.05, 0.95);
            for (j, acc) in accuracies.iter_mut().enumerate() {
                let mut agree = 0.0;
                for (v, &p) in votes.iter().zip(&posterior) {
                    // P(vote_j == y): p if vote is 1, (1-p) if vote is 0.
                    agree += if v[j] { p } else { 1.0 - p };
                }
                *acc = (agree / votes.len() as f64).clamp(0.05, 0.95);
            }
            // E-step: posterior over y given votes.
            for (v, p) in votes.iter().zip(posterior.iter_mut()) {
                let mut log_pos = prior.ln();
                let mut log_neg = (1.0 - prior).ln();
                for (j, &vote) in v.iter().enumerate() {
                    let a = accuracies[j];
                    if vote {
                        log_pos += a.ln();
                        log_neg += (1.0 - a).ln();
                    } else {
                        log_pos += (1.0 - a).ln();
                        log_neg += a.ln();
                    }
                }
                let m = log_pos.max(log_neg);
                let z = (log_pos - m).exp() + (log_neg - m).exp();
                *p = (log_pos - m).exp() / z;
            }
        }
        ProbabilisticModel { prior, accuracies }
    }

    /// Posterior P(y = 1 | votes) for a new datapoint.
    pub fn posterior(&self, votes: &[bool]) -> f64 {
        assert_eq!(votes.len(), self.accuracies.len());
        let mut log_pos = self.prior.ln();
        let mut log_neg = (1.0 - self.prior).ln();
        for (j, &vote) in votes.iter().enumerate() {
            let a = self.accuracies[j];
            if vote {
                log_pos += a.ln();
                log_neg += (1.0 - a).ln();
            } else {
                log_pos += (1.0 - a).ln();
                log_neg += a.ln();
            }
        }
        let m = log_pos.max(log_neg);
        let z = (log_pos - m).exp() + (log_neg - m).exp();
        (log_pos - m).exp() / z
    }

    /// Hard label at the 0.5 threshold.
    pub fn predict(&self, votes: &[bool]) -> bool {
        self.posterior(votes) > 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn majority_vote_basics() {
        assert!(majority_vote(&[true, true, false]));
        assert!(!majority_vote(&[true, false, false]));
        assert!(!majority_vote(&[true, false])); // tie → negative
        assert!(!majority_vote(&[]));
    }

    /// Synthesize votes from LFs with known accuracies.
    fn synth(n: usize, accs: &[f64], prior: f64, seed: u64) -> (Vec<Vec<bool>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut votes = Vec::with_capacity(n);
        let mut truth = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.gen_bool(prior);
            truth.push(y);
            votes.push(
                accs.iter()
                    .map(|&a| if rng.gen_bool(a) { y } else { !y })
                    .collect(),
            );
        }
        (votes, truth)
    }

    #[test]
    fn em_recovers_lf_accuracies() {
        let accs = [0.9, 0.8, 0.65, 0.55];
        let (votes, _) = synth(2000, &accs, 0.5, 1);
        let model = ProbabilisticModel::fit(&votes);
        for (est, &true_a) in model.accuracies.iter().zip(&accs) {
            assert!(
                (est - true_a).abs() < 0.07,
                "estimated {est} vs true {true_a}"
            );
        }
        assert!((model.prior - 0.5).abs() < 0.08);
    }

    #[test]
    fn probabilistic_beats_or_matches_majority_with_unequal_lfs() {
        // One excellent LF among mediocre ones: accuracy weighting should
        // recover labels better than one-LF-one-vote.
        let accs = [0.95, 0.6, 0.6, 0.55, 0.55];
        let (votes, truth) = synth(3000, &accs, 0.5, 2);
        let model = ProbabilisticModel::fit(&votes);
        let mv_correct = votes
            .iter()
            .zip(&truth)
            .filter(|(v, &y)| majority_vote(v) == y)
            .count();
        let pm_correct = votes
            .iter()
            .zip(&truth)
            .filter(|(v, &y)| model.predict(v) == y)
            .count();
        assert!(
            pm_correct > mv_correct,
            "EM ({pm_correct}) should beat majority ({mv_correct}) with unequal LFs"
        );
    }

    #[test]
    fn posterior_is_probability() {
        let (votes, _) = synth(200, &[0.8, 0.7, 0.6], 0.4, 3);
        let model = ProbabilisticModel::fit(&votes);
        for v in &votes {
            let p = model.posterior(v);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn unanimous_votes_dominate_posterior() {
        let (votes, _) = synth(500, &[0.8, 0.8, 0.8], 0.5, 4);
        let model = ProbabilisticModel::fit(&votes);
        assert!(model.posterior(&[true, true, true]) > 0.8);
        assert!(model.posterior(&[false, false, false]) < 0.2);
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(32))]

            /// Flipping one vote from negative to positive never lowers the
            /// posterior when every LF has accuracy > 0.5.
            #[test]
            fn prop_posterior_monotone_in_votes(seed in 0u64..200, idx in 0usize..4) {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let accs = [0.8, 0.7, 0.65, 0.6];
                let votes: Vec<Vec<bool>> = (0..300)
                    .map(|_| {
                        let y = rng.gen_bool(0.5);
                        accs.iter().map(|&a| if rng.gen_bool(a) { y } else { !y }).collect()
                    })
                    .collect();
                let model = ProbabilisticModel::fit(&votes);
                // Learned accuracies should stay above chance for this data.
                prop_assume!(model.accuracies.iter().all(|&a| a > 0.5));
                let low = vec![false; 4];
                let mut high = vec![false; 4];
                high[idx] = true;
                prop_assert!(model.posterior(&high) >= model.posterior(&low) - 1e-9);
            }

            /// Majority vote flips under global negation (with odd voters).
            #[test]
            fn prop_majority_negation(v in proptest::collection::vec(prop::bool::ANY, 1..8)) {
                prop_assume!(v.len() % 2 == 1);
                let neg: Vec<bool> = v.iter().map(|&x| !x).collect();
                prop_assert_ne!(majority_vote(&v), majority_vote(&neg));
            }
        }
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_matrix_rejected() {
        ProbabilisticModel::fit(&[vec![true, false], vec![true]]);
    }
}
