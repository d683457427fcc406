//! Exact-match span F1 for aspect/opinion extraction (Table 4's metric).
//!
//! "For an aspect (or opinion) to be counted as correctly extracted, it
//! needs to match the exact terms present in the ground truth" (§6.3); like
//! the NER evaluation the paper cites \[51\], we micro-average over the whole
//! test corpus: precision = matched / predicted, recall = matched / gold.

use std::collections::HashSet;
use std::hash::Hash;

/// Micro-averaged span-level F1 accumulator. `S` is any hashable span
/// representation — typically `saccs_text::Span` or `(kind, start, end)`.
#[derive(Debug, Clone, Default)]
pub struct SpanF1 {
    matched: usize,
    predicted: usize,
    gold: usize,
}

impl SpanF1 {
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate one sentence's predicted and gold span sets.
    pub fn observe<S: Eq + Hash + Clone>(&mut self, predicted: &[S], gold: &[S]) {
        let pset: HashSet<S> = predicted.iter().cloned().collect();
        let gset: HashSet<S> = gold.iter().cloned().collect();
        self.matched += pset.intersection(&gset).count();
        self.predicted += pset.len();
        self.gold += gset.len();
    }

    pub fn precision(&self) -> f32 {
        if self.predicted == 0 {
            return 0.0;
        }
        self.matched as f32 / self.predicted as f32
    }

    pub fn recall(&self) -> f32 {
        if self.gold == 0 {
            return 0.0;
        }
        self.matched as f32 / self.gold as f32
    }

    pub fn f1(&self) -> f32 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }

    /// F1 in percent, matching the paper's reporting style (e.g. `84.43`).
    pub fn f1_percent(&self) -> f32 {
        100.0 * self.f1()
    }

    /// `(matched, predicted, gold)` span counts, the inputs of every
    /// ratio above.
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.matched, self.predicted, self.gold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_only() {
        let mut m = SpanF1::new();
        // One exact match, one boundary miss, one spurious prediction.
        m.observe(&[(0, 1, 2), (1, 4, 6), (0, 8, 9)], &[(0, 1, 2), (1, 4, 7)]);
        assert_eq!(m.matched, 1);
        assert!((m.precision() - 1.0 / 3.0).abs() < 1e-6);
        assert!((m.recall() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn perfect_prediction() {
        let mut m = SpanF1::new();
        m.observe(&[(0, 0, 1)], &[(0, 0, 1)]);
        assert_eq!(m.f1(), 1.0);
        assert_eq!(m.f1_percent(), 100.0);
    }

    #[test]
    fn micro_average_accumulates_across_sentences() {
        let mut m = SpanF1::new();
        m.observe(&[(0, 0, 1)], &[(0, 0, 1)]); // perfect sentence
        m.observe::<(i32, i32, i32)>(&[], &[(0, 2, 3)]); // total miss
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 0.5);
        assert!((m.f1() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_everything_is_zero() {
        let m = SpanF1::new();
        assert_eq!(m.f1(), 0.0);
    }

    #[test]
    fn duplicates_in_input_are_deduplicated() {
        let mut m = SpanF1::new();
        m.observe(&[(0, 0, 1), (0, 0, 1)], &[(0, 0, 1)]);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
    }
}
