//! Exact statistics over raw samples. No histogram buckets: every
//! quantile is a sample that was actually observed.

/// Nearest-rank quantile of `samples` (any order): the smallest sample
/// with at least `q · n` samples at or below it. `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The median as Python's `statistics.median` computes it: the middle
/// sample, or the mean of the two middle samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method), so run-to-run
/// spreads read the same here as in any external check of them.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ld = sorted.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// 64-bit FNV-1a, folded over little-endian words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_observed_samples() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        // p99 of 1000 samples leaves exactly ten above it.
        let ys: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = quantile(&ys, 0.99).unwrap();
        assert_eq!(ys.iter().filter(|&&y| y > p99).count(), 10);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median([3, 1, 2, 4]) == 2.5
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&xs).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
