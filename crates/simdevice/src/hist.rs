//! Log-bucketed latency histograms (HdrHistogram-style, fixed memory).
//!
//! Production parameter servers report tail latencies, not means: a p99
//! pull stall delays the whole synchronous batch (every worker waits at
//! the barrier). The trainer records per-batch phase durations here and
//! reports p50/p95/p99 alongside totals.

use crate::clock::Nanos;

/// Sub-buckets per power of two (higher = finer resolution; 8 gives
/// ≤ 12.5 % relative error, plenty for tail reporting).
const SUBBUCKETS: usize = 8;
/// Powers of two covered: 1 ns … ~1.2 × 10¹⁸ ns.
const BUCKETS: usize = 60;

/// A fixed-size log-bucketed histogram of nanosecond values.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: Nanos,
    min: Nanos,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS * SUBBUCKETS],
            total: 0,
            max: 0,
            min: Nanos::MAX,
        }
    }

    fn bucket_of(v: Nanos) -> usize {
        if v == 0 {
            return 0;
        }
        let pow = 63 - v.leading_zeros() as usize; // floor(log2 v)
        let sub = if pow == 0 {
            0
        } else {
            // Position within the power-of-two range, in SUBBUCKETS
            // steps (u128 to avoid overflow at the top of the range).
            (((v - (1u64 << pow)) as u128 * SUBBUCKETS as u128) >> pow) as usize
        };
        (pow * SUBBUCKETS + sub).min(BUCKETS * SUBBUCKETS - 1)
    }

    /// Representative (upper-edge) value of a bucket.
    fn bucket_value(idx: usize) -> Nanos {
        let pow = idx / SUBBUCKETS;
        let sub = idx % SUBBUCKETS;
        (1u64 << pow) + (((sub as u64 + 1) << pow) / SUBBUCKETS as u64)
    }

    /// Record one value.
    pub fn record(&mut self, v: Nanos) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> Nanos {
        self.max
    }

    /// Smallest recorded value (exact), or 0 when empty.
    pub fn min(&self) -> Nanos {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `q` ∈ [0, 1], within bucket resolution.
    pub fn quantile(&self, q: f64) -> Nanos {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// `p50/p95/p99/max` summary line in milliseconds.
    pub fn summary_ms(&self) -> String {
        format!(
            "p50={:.3}ms p95={:.3}ms p99={:.3}ms max={:.3}ms (n={})",
            self.quantile(0.50) as f64 / 1e6,
            self.quantile(0.95) as f64 / 1e6,
            self.quantile(0.99) as f64 / 1e6,
            self.max as f64 / 1e6,
            self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 / 5_000.0 - 1.0).abs() < 0.15, "p50 = {p50}");
        assert!((p99 / 9_900.0 - 1.0).abs() < 0.15, "p99 = {p99}");
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn heavy_tail_visible_in_p99_not_p50() {
        let mut h = LatencyHistogram::new();
        for _ in 0..990 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000); // 1 ms stalls
        }
        assert!(h.quantile(0.5) < 2_000);
        assert!(
            h.quantile(0.995) >= 900_000,
            "tail captured: {}",
            h.quantile(0.995)
        );
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(100);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(a.min(), 100);
    }

    #[test]
    fn bucket_monotonicity() {
        // Bucket index is non-decreasing in the value.
        let mut last = 0;
        for v in [0u64, 1, 2, 3, 7, 8, 9, 100, 1_000, 1 << 20, u64::MAX / 2] {
            let b = LatencyHistogram::bucket_of(v);
            assert!(b >= last, "bucket({v}) = {b} < {last}");
            last = b;
        }
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) > 0);
    }
}
