//! Log₂-bucketed latency histograms.
//!
//! Durations land in bucket `⌊log₂ v⌋ + 1` (bucket 0 holds zeros), so 65
//! fixed `u64` counters cover the full nanosecond range with ≤ 2×
//! relative quantile error — no allocation, O(1) record, O(65) merge.
//! Quantiles are reported as the bucket's inclusive upper bound, clamped
//! to the observed maximum.
//!
//! Under sampled timing ([`Obs::stamp`](super::Obs::stamp)) a histogram
//! counts every span but holds durations for only the timed ones: the
//! quantiles and the maximum describe the timed spans, and the total is
//! estimated as their sum scaled by `count / timed`.

/// Number of buckets: one for zero plus one per bit of a `u64`.
pub const BUCKETS: usize = 65;

/// A fixed-size log₂ histogram of nanosecond durations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHist {
    /// Timed spans per bucket.
    counts: [u64; BUCKETS],
    /// Every span, timed or not.
    count: u64,
    /// Spans whose duration was measured.
    timed: u64,
    /// Sum of the measured durations.
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
            timed: 0,
            sum: 0,
            max: 0,
        }
    }

    #[inline]
    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one timed span of `v` nanoseconds.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.timed += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Record one span: timed when `dur_ns` is `Some`, otherwise only
    /// counted.
    #[inline]
    pub fn add(&mut self, dur_ns: Option<u64>) {
        match dur_ns {
            Some(v) => self.record(v),
            None => self.count += 1,
        }
    }

    /// Number of recorded spans, timed or not.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of spans whose duration was measured.
    pub fn timed(&self) -> u64 {
        self.timed
    }

    /// Sum of the measured durations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest measured duration (0 when empty).
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
        self.timed += other.timed;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The quantile `q ∈ [0, 1]` of the timed spans as the upper bound of
    /// the bucket the rank falls in, clamped to the observed max. 0 when
    /// nothing was timed.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.timed == 0 {
            return 0;
        }
        let rank = ((q * self.timed as f64).ceil() as u64).clamp(1, self.timed);
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
            timed: self.timed,
            sum_ns: scaled_sum(self.sum, self.count, self.timed),
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
            max_ns: self.max,
        }
    }
}

/// `timed_sum` scaled from `timed` measured spans up to all `count`
/// spans (0 when nothing was timed); saturates at `u64::MAX`.
pub(crate) fn scaled_sum(timed_sum: u64, count: u64, timed: u64) -> u64 {
    if timed == 0 {
        return 0;
    }
    let scaled = timed_sum as u128 * count as u128 / timed as u128;
    scaled.min(u64::MAX as u128) as u64
}

/// The report-facing summary of a [`LogHist`]: how many spans, how many
/// of them were timed, the estimated total and the p50/p90/p99/max
/// quantiles of the timed ones, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of spans (exact).
    pub count: u64,
    /// Number of spans whose duration was measured.
    pub timed: u64,
    /// Estimated total duration: the timed sum × `count / timed`.
    pub sum_ns: u64,
    /// Median (bucket upper bound, ≤ 2× relative error).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Largest timed duration.
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
    fn untimed_spans_count_but_carry_no_duration() {
        let mut h = LogHist::new();
        h.add(Some(100));
        h.add(None);
        h.add(None);
        h.add(Some(300));
        assert_eq!((h.count(), h.timed(), h.sum(), h.max()), (4, 2, 400, 300));
        // Two timed spans averaging 200 ns stand for all four.
        let s = h.summary();
        assert_eq!((s.count, s.timed, s.sum_ns), (4, 2, 800));
        assert!(s.p50_ns <= 127 && s.p99_ns == 300);
    }

    #[test]
    fn constant_spans_estimate_the_exact_total() {
        let mut h = LogHist::new();
        for i in 0..1_000u64 {
            h.add((i % 64 == 0).then_some(37));
        }
        let s = h.summary();
        assert_eq!((s.count, s.timed), (1_000, 16));
        assert_eq!(s.sum_ns, 37_000);
    }

    #[test]
    fn merge_adds_counts_timed_and_sums() {
        let (mut a, mut b) = (LogHist::new(), LogHist::new());
        a.add(Some(10));
        a.add(None);
        b.add(Some(30));
        b.add(None);
        b.add(None);
        a.merge(&b);
        assert_eq!((a.count(), a.timed(), a.sum(), a.max()), (5, 2, 40, 30));
        assert_eq!(a.summary().sum_ns, 100);
    }

    #[test]
    fn nothing_timed_reports_a_zero_total() {
        let mut h = LogHist::new();
        h.add(None);
        let s = h.summary();
        assert_eq!((s.count, s.timed, s.sum_ns, s.p50_ns), (1, 0, 0, 0));
        assert_eq!(scaled_sum(u64::MAX, 2, 1), u64::MAX);
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
