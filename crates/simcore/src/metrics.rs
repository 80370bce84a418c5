//! Latency metrics: a log-linear histogram (HDR-style) and its summary.
//!
//! Tail-latency experiments need accurate high quantiles over millions of
//! samples without storing them all. [`LatencyHistogram`] buckets values with
//! bounded relative error (< ~1.6% with the default 64 sub-buckets) and
//! supports merging, which lets parallel sweep workers combine results.

use crate::time::SimDuration;
use std::fmt;

/// Number of linear sub-buckets per power-of-two range (must be a power of 2).
const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = 6; // log2(SUB_BUCKETS)

/// A histogram of [`SimDuration`] samples with bounded relative error.
///
/// # Examples
///
/// ```
/// use simcore::metrics::LatencyHistogram;
/// use simcore::time::SimDuration;
///
/// let mut h = LatencyHistogram::new();
/// for ns in 1..=1000u64 {
///     h.record(SimDuration::from_ns(ns));
/// }
/// assert_eq!(h.count(), 1000);
/// let p99 = h.quantile(0.99).as_ns_f64();
/// assert!((p99 - 990.0).abs() / 990.0 < 0.02, "p99 was {p99}");
/// ```
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ps: u128,
    min_ps: u64,
    max_ps: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Vec::new(),
            count: 0,
            sum_ps: 0,
            min_ps: u64::MAX,
            max_ps: 0,
        }
    }

    fn index_for(value: u64) -> usize {
        // Values below SUB_BUCKETS get exact buckets; above, log-linear.
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros(); // exp >= SUB_BITS
        let shift = exp - SUB_BITS;
        let sub = (value >> shift) - SUB_BUCKETS; // in [0, SUB_BUCKETS)
        ((exp - SUB_BITS + 1) as u64 * SUB_BUCKETS + sub) as usize
    }

    /// Lowest representative value (ps) for bucket `idx` — used when
    /// reporting quantiles. We report the bucket midpoint to halve bias.
    fn value_for(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB_BUCKETS {
            return idx;
        }
        let group = idx / SUB_BUCKETS; // >= 1
        let sub = idx % SUB_BUCKETS;
        let base = (SUB_BUCKETS + sub) << (group - 1);
        let width = 1u64 << (group - 1);
        base + width / 2
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        let ps = d.as_ps();
        let idx = Self::index_for(ps);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ps += ps as u128;
        self.min_ps = self.min_ps.min(ps);
        self.max_ps = self.max_ps.max(ps);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True iff no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of all samples, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_ps((self.sum_ps / self.count as u128) as u64)
    }

    /// Exact smallest sample, or zero if empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_ps(self.min_ps)
        }
    }

    /// Exact largest sample, or zero if empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_ps(self.max_ps)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) with bounded relative error; returns the
    /// exact max for q = 1 and zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        if q >= 1.0 {
            return self.max();
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket midpoints can land outside the observed range at
                // the extremes; clamp to the exact min/max.
                return SimDuration::from_ps(Self::value_for(idx).clamp(self.min_ps, self.max_ps));
            }
        }
        self.max()
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, &src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.min_ps = self.min_ps.min(other.min_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
    }

    /// A compact multi-quantile summary.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LatencyHistogram(n={}, mean={}, p99={}, max={})",
            self.count,
            self.mean(),
            self.quantile(0.99),
            self.max()
        )
    }
}

/// Point-in-time summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean latency.
    pub mean: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 90th percentile.
    pub p90: SimDuration,
    /// 99th percentile (the paper's SLO metric).
    pub p99: SimDuration,
    /// 99.9th percentile.
    pub p999: SimDuration,
    /// Maximum.
    pub max: SimDuration,
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p90={} p99={} p99.9={} max={}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.p999, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.99), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn exact_small_values() {
        let mut h = LatencyHistogram::new();
        for ps in [1u64, 2, 3, 63] {
            h.record(SimDuration::from_ps(ps));
        }
        assert_eq!(h.min().as_ps(), 1);
        assert_eq!(h.max().as_ps(), 63);
        assert_eq!(h.quantile(0.0).as_ps(), 1);
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        // Log-spaced values across 9 decades.
        for i in 0..100_000u64 {
            let v = 1.0f64 + (i as f64 / 100_000.0) * 9.0; // exponent 0..9
            h.record(SimDuration::from_ps(10f64.powf(v) as u64));
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let est = h.quantile(q).as_ps() as f64;
            let exact = 10f64.powf(1.0 + q * 9.0);
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.03, "q={q} est={est} exact={exact} rel={rel}");
        }
    }

    #[test]
    fn mean_and_max_exact() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_ns(10));
        h.record(SimDuration::from_ns(20));
        h.record(SimDuration::from_ns(30));
        assert_eq!(h.mean(), SimDuration::from_ns(20));
        assert_eq!(h.max(), SimDuration::from_ns(30));
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantile_one_is_max() {
        let mut h = LatencyHistogram::new();
        for ns in [5u64, 500, 50_000] {
            h.record(SimDuration::from_ns(ns));
        }
        assert_eq!(h.quantile(1.0), SimDuration::from_ns(50_000));
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn quantile_rejects_bad_q() {
        LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for ns in 1..=500u64 {
            a.record(SimDuration::from_ns(ns));
        }
        for ns in 501..=1000u64 {
            b.record(SimDuration::from_ns(ns));
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        let p50 = a.quantile(0.5).as_ns_f64();
        assert!((p50 - 500.0).abs() / 500.0 < 0.02, "p50={p50}");
        assert_eq!(a.max(), SimDuration::from_ns(1000));
        assert_eq!(a.min(), SimDuration::from_ns(1));
    }

    #[test]
    fn summary_fields_consistent() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=10_000u64 {
            h.record(SimDuration::from_ns(ns));
        }
        let s = h.summary();
        assert_eq!(s.count, 10_000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);
    }

    #[test]
    fn bucket_index_monotone() {
        let mut last = 0usize;
        for ps in (0..10_000_000u64).step_by(997) {
            let idx = LatencyHistogram::index_for(ps);
            assert!(idx >= last, "index not monotone at {ps}");
            last = idx;
        }
    }

    #[test]
    fn bucket_value_within_range() {
        for ps in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1_000,
            123_456,
            10_000_000_000,
        ] {
            let idx = LatencyHistogram::index_for(ps);
            let rep = LatencyHistogram::value_for(idx) as f64;
            let rel = (rep - ps as f64).abs() / (ps.max(1) as f64);
            assert!(rel <= 0.02 || ps < 64, "ps={ps} rep={rep} rel={rel}");
        }
    }
}
