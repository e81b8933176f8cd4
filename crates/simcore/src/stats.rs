//! Streaming and batch statistics for experiment reporting.
//!
//! Two tools cover everything the paper's tables and figures need:
//!
//! - [`OnlineStats`]: Welford-style single-pass mean/variance/extremes, used
//!   for response-time aggregation during long trace replays.
//! - [`SampleSet`]: retains raw samples for exact percentiles and for the
//!   [`demerit`] figure of Table 2.

/// Single-pass mean / variance / min / max accumulator (Welford's method).
///
/// # Examples
///
/// ```
/// use mimd_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by N); zero when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by N-1); zero with fewer than two samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// The raw accumulator state `(count, mean, m2, min, max)`.
    ///
    /// For exact externalisation (e.g. the harness run cache): the tuple
    /// round-trips bit-exactly through [`Self::from_state`], so a restored
    /// accumulator reports the same mean/variance/extremes to the last bit.
    pub fn state(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from a [`Self::state`] tuple.
    pub fn from_state(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        OnlineStats {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A bag of raw samples supporting exact percentile queries.
///
/// Stores every pushed value, so it costs eight bytes per sample; keep one
/// only where the entire distribution is read. The engine uses it for
/// response-time percentiles, and for the demerit figure's predicted and
/// measured access times when a run opts in to recording them.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    values: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SampleSet {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Creates an empty set with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        SampleSet {
            values: Vec::with_capacity(cap),
            sorted: true,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.sorted = true;
        }
    }

    /// Exact p-th percentile (`0.0 ..= 1.0`) by nearest-rank; `None` when
    /// empty.
    ///
    /// Uses O(n) partial selection rather than a full sort when the set is
    /// unsorted — a run that only reports p95/p99 never pays O(n log n).
    /// Selection partially reorders `values` but leaves `sorted` false, so
    /// a later full sort (for [`demerit`]) still happens.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.values.len() as f64).ceil() as usize).max(1) - 1;
        let rank = rank.min(self.values.len() - 1);
        if self.sorted {
            return Some(self.values[rank]);
        }
        let (_, nth, _) = self
            .values
            .select_nth_unstable_by(rank, |a, b| a.partial_cmp(b).expect("samples are finite"));
        Some(*nth)
    }

    /// The raw samples in their current storage order.
    ///
    /// Storage order is incidental (percentile queries may partially
    /// reorder it) but the *multiset* of values fully determines every
    /// query result, so this suffices for exact externalisation.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Appends `xs` in order, as one [`Self::push`] per value would.
    pub fn extend_from_slice(&mut self, xs: &[f64]) {
        if !xs.is_empty() {
            self.values.extend_from_slice(xs);
            self.sorted = false;
        }
    }

    /// Rebuilds a set from raw samples (e.g. from [`Self::values`]).
    pub fn from_values(values: Vec<f64>) -> Self {
        SampleSet {
            values,
            sorted: false,
        }
    }
}

/// The Ruemmler–Wilkes demerit figure between two distributions.
///
/// Defined as the root-mean-square *horizontal* distance between the two
/// empirical CDFs — i.e. the RMS difference between same-quantile samples.
/// The paper's Table 2 reports this between predicted and measured access
/// times. Distributions of unequal size are compared at the quantiles of
/// the larger one.
///
/// Returns `0.0` if either set is empty.
///
/// # Examples
///
/// ```
/// use mimd_sim::{demerit, SampleSet};
///
/// let mut a = SampleSet::new();
/// let mut b = SampleSet::new();
/// for x in [1.0, 2.0, 3.0] {
///     a.push(x);
///     b.push(x + 0.5);
/// }
/// assert!((demerit(&mut a, &mut b) - 0.5).abs() < 1e-12);
/// ```
pub fn demerit(a: &mut SampleSet, b: &mut SampleSet) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (n, m) = (a.len(), b.len());
    let probes = n.max(m);
    a.ensure_sorted();
    b.ensure_sorted();
    let (av, bv) = (&a.values, &b.values);
    let mut acc = 0.0;
    for i in 0..probes {
        let q = (i as f64 + 0.5) / probes as f64;
        let xa = av[((q * n as f64) as usize).min(n - 1)];
        let xb = bv[((q * m as f64) as usize).min(m - 1)];
        acc += (xa - xb) * (xa - xb);
    }
    (acc / probes as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        s.push(1.0);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.sum(), 4.0);
        assert_eq!(s.population_variance(), 1.0);
        assert_eq!(s.sample_variance(), 2.0);
    }

    #[test]
    fn online_stats_single_sample_variance_zero() {
        let mut s = OnlineStats::new();
        s.push(5.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.population_variance() - whole.population_variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::new();
        s.push(2.0);
        let before = s.mean();
        s.merge(&OnlineStats::new());
        assert_eq!(s.mean(), before);
        let mut empty = OnlineStats::new();
        let mut full = OnlineStats::new();
        full.push(4.0);
        empty.merge(&full);
        assert_eq!(empty.mean(), 4.0);
    }

    #[test]
    fn percentiles_are_exact() {
        let mut s = SampleSet::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(0.5), Some(3.0));
        assert_eq!(s.percentile(1.0), Some(5.0));
        assert_eq!(s.percentile(0.8), Some(4.0));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn percentile_of_empty_is_none() {
        let mut s = SampleSet::new();
        assert_eq!(s.percentile(0.5), None);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn extend_from_slice_matches_one_push_per_value() {
        let mut pushed = SampleSet::new();
        let mut extended = SampleSet::new();
        extended.extend_from_slice(&[]);
        assert!(extended.sorted, "an empty extend keeps the set sorted");
        for x in [3.0, 1.0, 2.0] {
            pushed.push(x);
        }
        extended.extend_from_slice(&[3.0, 1.0]);
        extended.extend_from_slice(&[2.0]);
        assert_eq!(pushed.values(), extended.values());
    }

    #[test]
    fn demerit_of_identical_distributions_is_zero() {
        let mut a = SampleSet::new();
        let mut b = SampleSet::new();
        for i in 0..100 {
            a.push(i as f64);
            b.push(i as f64);
        }
        assert!(demerit(&mut a, &mut b) < 1e-12);
    }

    #[test]
    fn demerit_detects_constant_shift() {
        let mut a = SampleSet::new();
        let mut b = SampleSet::new();
        for i in 0..1000 {
            a.push(i as f64);
            b.push(i as f64 + 2.0);
        }
        let d = demerit(&mut a, &mut b);
        assert!((d - 2.0).abs() < 1e-9, "demerit {d}");
    }

    #[test]
    fn demerit_handles_unequal_sizes() {
        let mut a = SampleSet::new();
        let mut b = SampleSet::new();
        for i in 0..1000 {
            a.push(i as f64 / 1000.0);
        }
        for i in 0..100 {
            b.push(i as f64 / 100.0);
        }
        // Same underlying uniform distribution, different resolutions.
        assert!(demerit(&mut a, &mut b) < 0.02);
    }
}
