//! Log₂-bucketed latency histograms.
//!
//! Durations land in bucket `⌊log₂ v⌋ + 1` (bucket 0 holds zeros), so 65
//! fixed `u64` counters cover the full nanosecond range with ≤ 2×
//! relative quantile error — no allocation, O(1) record, O(65) merge.
//! Quantiles are reported as the bucket's inclusive upper bound, clamped
//! to the observed maximum.

/// Number of buckets: one for zero plus one per bit of a `u64`.
pub const BUCKETS: usize = 65;

/// A fixed-size log₂ histogram of nanosecond durations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHist {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist::new()
    }
}

impl LogHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHist {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    #[inline]
    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one duration.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded duration (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Add another histogram's samples into this one.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The quantile `q ∈ [0, 1]` as the upper bound of the bucket the
    /// rank falls in, clamped to the observed max. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Summarize into the fixed quantile set reports carry.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum_ns: self.sum,
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
            max_ns: self.max,
        }
    }
}

/// The report-facing summary of a [`LogHist`]: count, total and the
/// p50/p90/p99/max quantiles in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
    /// Median (bucket upper bound, ≤ 2× relative error).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Exact observed maximum.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LogHist::bucket(0), 0);
        assert_eq!(LogHist::bucket(1), 1);
        assert_eq!(LogHist::bucket(2), 2);
        assert_eq!(LogHist::bucket(3), 2);
        assert_eq!(LogHist::bucket(4), 3);
        assert_eq!(LogHist::bucket(u64::MAX), 64);
    }

    #[test]
    fn empty_hist_summary_is_zero() {
        let h = LogHist::new();
        assert!(h.is_empty());
        assert_eq!(h.summary(), HistSummary::default());
    }

    #[test]
    fn quantiles_bound_the_data() {
        let mut h = LogHist::new();
        for v in [1u64, 2, 3, 100, 1000, 10_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 11_106);
        assert_eq!(h.max(), 10_000);
        let p50 = h.quantile(0.50);
        // rank 3 of 6 → the value 3's bucket [2,3]; upper bound 3.
        assert_eq!(p50, 3);
        // p99 → last sample's bucket, clamped to observed max.
        assert_eq!(h.quantile(0.99), 10_000);
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let vals_a = [5u64, 0, 17, 300];
        let vals_b = [2u64, 2_000_000, 9];
        let mut a = LogHist::new();
        let mut b = LogHist::new();
        let mut all = LogHist::new();
        for v in vals_a {
            a.record(v);
            all.record(v);
        }
        for v in vals_b {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn zeros_land_in_bucket_zero() {
        let mut h = LogHist::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.summary().p50_ns, 0);
    }
}
