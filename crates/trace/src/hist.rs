//! Log2-bucketed histograms for latency-shaped quantities.

use crate::metrics::{Collect, MetricsRegistry};

const BUCKETS: usize = 65;

/// A fixed-size power-of-two histogram: value `v` lands in bucket
/// `64 - v.leading_zeros()` (so bucket 0 holds only `v == 0`, bucket 1
/// holds `1`, bucket 2 holds `2..=3`, bucket `k` holds
/// `2^(k-1)..=2^k - 1`). `Copy`, allocation-free, and mergeable, so it
/// can live inside hot structs (the page walker) and be delta'd across
/// the warmup boundary like the plain counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buckets ([`Log2Histogram::buckets`] always has this
    /// length).
    pub const BUCKETS: usize = BUCKETS;

    /// Reassembles a histogram from its raw parts — the inverse of
    /// reading [`Log2Histogram::buckets`], [`Log2Histogram::count`] and
    /// [`Log2Histogram::sum`]. Used by the persistent result store to
    /// round-trip run results bit-exactly; the caller is trusted to pass
    /// a consistent triple (the store validates with a whole-record
    /// checksum instead).
    pub fn from_parts(buckets: [u64; BUCKETS], count: u64, sum: u64) -> Self {
        Log2Histogram {
            buckets,
            count,
            sum,
        }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper edge (inclusive) of the bucket containing the q-th
    /// quantile, `q` in `[0, 1]`. Returns 0 when empty. Log2 buckets
    /// bound the answer to within 2× of the true percentile, which is
    /// what long-tail diagnostics need.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }

    /// Interpolated q-th quantile, `q` in `[0, 1]` (0.0 when empty).
    ///
    /// Where [`Log2Histogram::percentile`] reports the containing
    /// bucket's upper edge (exact but up to 2× pessimistic), this
    /// interpolates linearly *within* the log2 bucket: with `n`
    /// observations in the bucket spanning `lo..=hi` and the target rank
    /// landing `f` of the way through them, the estimate is
    /// `lo + (hi - lo)·f`. Summary lines (`*.p50/p95/p99` registry keys,
    /// CSV export) use this form so latency regressions move smoothly
    /// instead of jumping a whole power of two.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).clamp(1.0, self.count as f64);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = seen as f64;
            seen += n;
            if seen as f64 >= rank {
                if i == 0 {
                    return 0.0;
                }
                let lo = (1u64 << (i - 1)) as f64;
                let hi = ((1u128 << i) - 1) as f64;
                let frac = (rank - before) / n as f64;
                return lo + (hi - lo) * frac;
            }
        }
        0.0
    }

    /// Per-bucket counts, index `k` covering `2^(k-1)..=2^k - 1`
    /// (index 0 covers only the value 0).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Observations recorded into `self` but not into `earlier`
    /// (used to subtract the warmup window, like the `*Stats` deltas).
    pub fn delta(&self, earlier: &Log2Histogram) -> Log2Histogram {
        let mut out = *self;
        for (b, e) in out.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *b = b.saturating_sub(*e);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// Accumulates another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

impl Collect for Log2Histogram {
    fn collect(&self, prefix: &str, out: &mut MetricsRegistry) {
        let Log2Histogram {
            buckets: _,
            count,
            sum,
        } = *self;
        out.set_u64(&format!("{prefix}.count"), count);
        out.set_u64(&format!("{prefix}.sum"), sum);
        out.set_f64(&format!("{prefix}.mean"), self.mean());
        out.set_f64(&format!("{prefix}.p50"), self.quantile(0.50));
        out.set_f64(&format!("{prefix}.p95"), self.quantile(0.95));
        out.set_f64(&format!("{prefix}.p99"), self.quantile(0.99));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        h.record(1024);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.buckets()[11], 1);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1034);
    }

    #[test]
    fn percentile_upper_edges() {
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket 4 → upper edge 15
        }
        h.record(1000); // bucket 10 → upper edge 1023
        assert_eq!(h.percentile(0.50), 15);
        assert_eq!(h.percentile(0.99), 15);
        assert_eq!(h.percentile(1.0), 1023);
        assert_eq!(Log2Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn delta_and_merge_are_inverse_ish() {
        let mut warm = Log2Histogram::new();
        warm.record(7);
        warm.record(100);
        let mut full = warm;
        full.record(7);
        full.record(5000);
        let measured = full.delta(&warm);
        assert_eq!(measured.count(), 2);
        assert_eq!(measured.sum(), 5007);
        let mut rebuilt = warm;
        rebuilt.merge(&measured);
        assert_eq!(rebuilt, full);
    }

    #[test]
    fn collect_exports_summary() {
        let mut h = Log2Histogram::new();
        h.record(16);
        let mut m = MetricsRegistry::new();
        h.collect("walk", &mut m);
        assert_eq!(m.get_u64("walk.count"), Some(1));
        assert_eq!(m.get_u64("walk.sum"), Some(16));
        // One sample in bucket 16..=31 interpolates to the bucket top.
        assert_eq!(m.get_f64("walk.p50"), Some(31.0));
        assert_eq!(m.get_f64("walk.mean"), Some(16.0));
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        // Empty → 0.
        assert_eq!(Log2Histogram::new().quantile(0.5), 0.0);
        // All zeros land exactly on 0.
        let mut z = Log2Histogram::new();
        z.record(0);
        z.record(0);
        assert_eq!(z.quantile(0.99), 0.0);
        // 99 samples in bucket 8..=15, one in 512..=1023: the p50 sits
        // mid-bucket instead of snapping to the edge, and stays strictly
        // inside the bucket's range.
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1000);
        let p50 = h.quantile(0.50);
        assert!((8.0..=15.0).contains(&p50), "p50 = {p50}");
        assert!(p50 < 15.0, "p50 should interpolate below the edge");
        // p100 reaches into the tail bucket.
        let p100 = h.quantile(1.0);
        assert!((512.0..=1023.0).contains(&p100), "p100 = {p100}");
        // Quantiles are monotone in q.
        assert!(h.quantile(0.25) <= h.quantile(0.75));
        assert!(h.quantile(0.75) <= h.quantile(1.0));
    }
}
