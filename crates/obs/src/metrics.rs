//! The global metrics registry: counters, gauges and log-bucketed
//! histograms with quantile readout.
//!
//! All instruments are lock-free on the record path (plain atomics); the
//! registry itself takes a short `RwLock` only to resolve a name to its
//! instrument, and call sites that care cache the returned `Arc` (the
//! [`counter!`](crate::counter) macro does this behind a `OnceLock`).
//! Everything is process-global: the same names read back from
//! [`registry`] no matter which crate recorded them.
//!
//! [`Histogram`] is an HdrHistogram-style log-bucketed sketch: exact
//! buckets for values `0..16`, then four sub-buckets per power of two up
//! to `u64::MAX` (256 buckets total, ≤ ~19% relative quantile error).
//! Recording is four relaxed atomic adds plus two atomic min/max — safe
//! to leave in serving paths.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` measurement (epoch loss, fire rate, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }

    /// Replace the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically add `d` (CAS loop on the f64 bits) — safe for live
    /// up/down gauges (queue depth, in-flight requests) written from
    /// many threads, unlike a read-modify-write around [`set`](Self::set).
    #[inline]
    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Atomically subtract `d` (see [`add`](Self::add)).
    #[inline]
    pub fn sub(&self, d: f64) {
        self.add(-d);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Exact buckets for values below this bound (one bucket per value).
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per power of two above the linear range.
const SUB_PER_OCTAVE: u64 = 4;
/// Total bucket count: 16 linear + 4 × octaves 4..=63.
pub const BUCKET_COUNT: usize = (LINEAR_MAX + (64 - 4) * SUB_PER_OCTAVE) as usize;

/// Bucket index for a recorded value.
pub fn bucket_of(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let msb = 63 - u64::from(v.leading_zeros()); // ≥ 4 here
    let sub = (v >> (msb - 2)) & (SUB_PER_OCTAVE - 1);
    (LINEAR_MAX + (msb - 4) * SUB_PER_OCTAVE + sub) as usize
}

/// Smallest value that lands in bucket `idx` (the round-trip inverse of
/// [`bucket_of`]: `bucket_of(bucket_lower_bound(i)) == i`).
pub fn bucket_lower_bound(idx: usize) -> u64 {
    if (idx as u64) < LINEAR_MAX {
        return idx as u64;
    }
    let b = idx as u64 - LINEAR_MAX;
    let msb = 4 + b / SUB_PER_OCTAVE;
    let sub = b % SUB_PER_OCTAVE;
    (1u64 << msb) | (sub << (msb - 2))
}

/// Log-bucketed histogram of `u64` samples (span durations record
/// nanoseconds). Thread-safe; all updates are relaxed atomics.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` while empty.
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKET_COUNT],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time readout of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// 0 when empty.
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (for tests).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Approximate value at quantile `q ∈ [0, 1]`: the lower bound of the
    /// bucket holding the `⌈q·count⌉`-th sample, clamped to the observed
    /// `[min, max]`. Returns 0 when empty. Monotone in `q` by
    /// construction (bucket index and clamp are both non-decreasing).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let lo = self.min.load(Ordering::Relaxed);
        let hi = self.max.load(Ordering::Relaxed);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return bucket_lower_bound(i).clamp(lo, hi);
            }
        }
        hi
    }

    /// Consistent point-in-time readout (consistent enough for reporting;
    /// concurrent writers may skew fields by a few samples).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// The process-global name → instrument maps.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// The global registry (created on first use).
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(found) = map.read().get(name) {
        return Arc::clone(found);
    }
    Arc::clone(map.write().entry(name.to_string()).or_default())
}

impl Registry {
    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// The histogram registered under `name` (created on first use).
    /// Span exits record their duration here under the span's name.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// All counters, sorted by name.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All gauges, sorted by name.
    pub fn gauge_values(&self) -> Vec<(String, f64)> {
        self.gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Snapshots of all histograms, sorted by name.
    pub fn histogram_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

/// A cached counter handle: resolves the registry entry once per call
/// site, then costs a single relaxed atomic add per event.
///
/// ```
/// saccs_obs::counter!("index.probe.exact").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        SITE.get_or_init(|| $crate::metrics::registry().counter($name))
    }};
}

/// A cached gauge handle: resolves the registry entry once per call
/// site, then costs one atomic op per update.
///
/// ```
/// saccs_obs::gauge!("serve.queue.depth").add(1.0);
/// saccs_obs::gauge!("serve.queue.depth").sub(1.0);
/// ```
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        SITE.get_or_init(|| $crate::metrics::registry().gauge($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn gauge_add_sub_balance_under_8_thread_stress() {
        // Live up/down gauge: 8 threads each add then sub the same
        // amounts; the CAS loop must lose no update, landing back on the
        // initial value exactly (every delta is a small integer, so the
        // f64 arithmetic is exact and order-independent).
        let g = Gauge::new();
        g.set(5.0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let g = &g;
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        g.add(1.0);
                        g.sub(1.0);
                    }
                });
            }
        });
        assert_eq!(g.get(), 5.0);
        g.add(2.5);
        g.sub(1.0);
        assert_eq!(g.get(), 6.5);
    }

    #[test]
    fn saturating_values_land_in_the_top_bucket() {
        // Samples at and near u64::MAX (the span layer clamps overflowing
        // durations to u64::MAX) must stay representable: they land in
        // the final bucket, keep exact count/min/max, and quantiles stay
        // clamped to the observed range instead of overflowing.
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(bucket_lower_bound(BUCKET_COUNT - 1));
        assert_eq!(bucket_of(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(h.bucket_counts()[BUCKET_COUNT - 1], 3);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.min, bucket_lower_bound(BUCKET_COUNT - 1));
        assert!(s.p50 >= s.min && s.p99 <= s.max);
        // Sum wraps are the caller's concern; count/buckets must not.
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 3);
    }

    #[test]
    fn bucket_boundaries_roundtrip_exactly() {
        for idx in 0..BUCKET_COUNT {
            let lo = bucket_lower_bound(idx);
            assert_eq!(bucket_of(lo), idx, "bucket {idx} lower bound {lo}");
            if lo > 0 {
                assert!(
                    bucket_of(lo - 1) == idx - 1 || bucket_of(lo - 1) < idx,
                    "bucket {idx}: value below lower bound did not land lower"
                );
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.p50, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn single_sample_quantiles_are_the_sample() {
        let h = Histogram::new();
        h.record(1234);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 1234);
        assert_eq!(s.min, 1234);
        assert_eq!(s.max, 1234);
        // One sample: every quantile clamps to [min, max] = {1234}.
        assert_eq!(s.p50, 1234);
        assert_eq!(s.p99, 1234);
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        // Log buckets guarantee ≤ ~19% relative error above the linear
        // range (4 sub-buckets per octave ⇒ bucket width ≤ 1/4 of value).
        assert!((375..=625).contains(&p50), "p50 = {p50}");
        assert!((700..=1000).contains(&p95), "p95 = {p95}");
    }

    #[test]
    fn counter_is_atomic_under_8_thread_stress() {
        // Mirrors the shared-index stress style: 8 threads hammer one
        // counter and one histogram; totals must account exactly.
        let c = Counter::new();
        let h = Histogram::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (c, h) = (&c, &h);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        c.inc();
                        h.record(t * per_thread + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
        let s = h.snapshot();
        assert_eq!(s.count, threads * per_thread);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, threads * per_thread - 1);
        assert_eq!(
            h.bucket_counts().iter().sum::<u64>(),
            threads * per_thread,
            "bucket counts must account for every sample"
        );
    }

    #[test]
    fn registry_returns_the_same_instrument_per_name() {
        let r = Registry::default();
        r.counter("a").inc();
        r.counter("a").inc();
        assert_eq!(r.counter("a").get(), 2);
        r.histogram("h").record(7);
        assert_eq!(r.histogram("h").count(), 1);
        assert_eq!(r.counter_values(), vec![("a".to_string(), 2)]);
    }

    fn from_values(values: &[u64]) -> Histogram {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    proptest! {
        /// p50 ≤ p95 ≤ p99 ≤ max for any sample set.
        #[test]
        fn prop_quantiles_monotone(values in proptest::collection::vec(0u64..1_000_000_000, 1..200)) {
            let h = from_values(&values);
            let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
            prop_assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
            prop_assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
            prop_assert!(p99 <= h.quantile(1.0));
        }

        /// Quantiles never leave the observed value range.
        #[test]
        fn prop_quantiles_within_range(values in proptest::collection::vec(0u64..u64::MAX / 2, 1..100), q in 0.0f64..=1.0) {
            let h = from_values(&values);
            let v = h.quantile(q);
            let (lo, hi) = (
                *values.iter().min().unwrap(),
                *values.iter().max().unwrap(),
            );
            prop_assert!(v >= lo && v <= hi, "q({q}) = {v} outside [{lo}, {hi}]");
        }

        /// Every value round-trips into a bucket whose bounds contain it.
        #[test]
        fn prop_bucket_contains_value(v in 0u64..u64::MAX) {
            let idx = bucket_of(v);
            prop_assert!(idx < BUCKET_COUNT);
            prop_assert!(bucket_lower_bound(idx) <= v);
            if idx + 1 < BUCKET_COUNT {
                prop_assert!(v < bucket_lower_bound(idx + 1));
            }
        }
    }
}
