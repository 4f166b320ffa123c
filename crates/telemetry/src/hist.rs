//! Lock-free log₂-bucketed latency histograms.
//!
//! The paper evaluates OpenEmbedding almost entirely through latency
//! distributions (Table I, Fig. 11): a p99 pull stall delays the whole
//! synchronous batch because every worker waits at the barrier. This is
//! the workspace's one latency histogram: 8 sub-buckets per power of
//! two (≤ 12.5 % relative error), every cell an [`AtomicU64`] so hot
//! paths record through a shared reference with no lock and no `&mut`.
//!
//! Values are nanoseconds. Both time bases work: wall-clock
//! (`Instant::elapsed().as_nanos()`) and the discrete-event simulator's
//! virtual [`Cost`](../../oe_simdevice/struct.Cost.html) deltas.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two (8 ⇒ ≤ 12.5 % relative error).
const SUBBUCKETS: usize = 8;
/// Powers of two covered: 1 ns … ~1.2 × 10¹⁸ ns.
const BUCKETS: usize = 60;
/// Total bucket cells.
const SLOTS: usize = BUCKETS * SUBBUCKETS;

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    let pow = 63 - v.leading_zeros() as usize; // floor(log2 v)
    let sub = if pow == 0 {
        0
    } else {
        // Position within the power-of-two range, in SUBBUCKETS steps
        // (u128 to avoid overflow at the top of the range).
        (((v - (1u64 << pow)) as u128 * SUBBUCKETS as u128) >> pow) as usize
    };
    (pow * SUBBUCKETS + sub).min(SLOTS - 1)
}

/// Representative (upper-edge) value of a bucket.
fn bucket_value(idx: usize) -> u64 {
    let pow = idx / SUBBUCKETS;
    let sub = idx % SUBBUCKETS;
    (1u64 << pow) + (((sub as u64 + 1) << pow) / SUBBUCKETS as u64)
}

/// A fixed-size, lock-free histogram of nanosecond values.
///
/// All methods take `&self`; recording is three `Relaxed` atomic RMWs
/// (cell, count, sum) plus one for each extreme the value beats.
/// Readers take a [`snapshot`](Histogram::snapshot) and
/// query quantiles on the immutable copy. A snapshot racing with
/// writers may lag individual cells, but once writers quiesce the
/// totals are exact — no samples are ever lost.
#[derive(Debug)]
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: (0..SLOTS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one nanosecond value. Lock-free; safe from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        // `min` only falls and `max` only rises, so a stale load can
        // only send a value to a redundant RMW, never skip a needed one:
        // the extremes stay exact under any interleaving, and a value
        // that beats neither costs two loads instead of two RMWs.
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Point-in-time copy for quantile queries and merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        // Derive the total from the cells so the quantile walk is
        // internally consistent even when racing writers have bumped
        // `total` before their cell store became visible.
        let total = counts.iter().sum();
        HistogramSnapshot {
            counts,
            total,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`Histogram`]; quantile queries live here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        Self {
            counts: vec![0; SLOTS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded values (ns).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (ns), or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.total).unwrap_or(0)
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest recorded value (exact), or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `q` ∈ [0, 1], within bucket resolution and
    /// clamped to the exact observed `[min, max]` range.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= target {
                return bucket_value(i).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Merge another snapshot into this one (cross-thread aggregation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The window between `base` (an earlier snapshot of the same
    /// histogram) and `self`: cellwise count difference, so quantiles
    /// over just the samples recorded since `base` — how a controller
    /// watches a *recent* p99 on a cumulative histogram. `min`/`max`
    /// are carried from the cumulative snapshot (exact window extrema
    /// are not recoverable from two snapshots), so they bound the
    /// window loosely; the bucket-resolution quantiles are exact for
    /// the window.
    pub fn delta_since(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .zip(&base.counts)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let total = counts.iter().sum();
        HistogramSnapshot {
            counts,
            total,
            sum: self.sum.saturating_sub(base.sum),
            min: self.min,
            max: self.max,
        }
    }

    /// `p50/p95/p99/max` summary line in milliseconds.
    pub fn summary_ms(&self) -> String {
        format!(
            "p50={:.3}ms p95={:.3}ms p99={:.3}ms max={:.3}ms (n={})",
            self.p50() as f64 / 1e6,
            self.p95() as f64 / 1e6,
            self.p99() as f64 / 1e6,
            self.max as f64 / 1e6,
            self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.p50() as f64;
        let p99 = s.p99() as f64;
        assert!((p50 / 5_000.0 - 1.0).abs() < 0.15, "p50 = {p50}");
        assert!((p99 / 9_900.0 - 1.0).abs() < 0.15, "p99 = {p99}");
        assert_eq!(s.max(), 10_000);
        assert_eq!(s.min(), 1);
        assert_eq!(s.sum(), (1 + 10_000) * 10_000 / 2);
    }

    #[test]
    fn heavy_tail_visible_in_p99_not_p50() {
        let h = Histogram::new();
        for _ in 0..990 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000); // 1 ms stalls
        }
        let s = h.snapshot();
        assert!(s.p50() < 2_000);
        assert!(s.quantile(0.995) >= 900_000, "tail: {}", s.quantile(0.995));
    }

    #[test]
    fn merge_combines() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(100);
        b.record(1_000_000);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        assert_eq!(sa.count(), 2);
        assert_eq!(sa.max(), 1_000_000);
        assert_eq!(sa.min(), 100);
        assert_eq!(sa.sum(), 1_000_100);
    }

    #[test]
    fn delta_since_isolates_the_window() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(1_000); // old regime: fast
        }
        let base = h.snapshot();
        for _ in 0..50 {
            h.record(1_000_000); // new regime: 1 ms stalls
        }
        let delta = h.snapshot().delta_since(&base);
        assert_eq!(delta.count(), 50, "only window samples");
        assert_eq!(delta.sum(), 50 * 1_000_000);
        assert!(
            delta.p50() >= 900_000,
            "window median sees the stalls: {}",
            delta.p50()
        );
        // The cumulative snapshot's median still reflects the old regime.
        assert!(h.snapshot().p50() < 2_000);
        // Identical snapshots produce an empty window.
        let s = h.snapshot();
        let empty = s.delta_since(&s);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.quantile(0.99), 0);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert!(s.quantile(1.0) > 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 20_000;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // Spread values over [1, 1e6].
                        h.record(1 + (t * PER_THREAD + i) * 999_999 / (THREADS * PER_THREAD));
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), THREADS * PER_THREAD, "no sample lost");
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            let v = s.quantile(q);
            assert!(
                (s.min()..=s.max()).contains(&v),
                "quantile({q}) = {v} outside [{}, {}]",
                s.min(),
                s.max()
            );
        }
    }

    /// Count, sum (wrapping, as the atomic adds wrap), min and max of
    /// what was recorded, folded directly.
    fn reference_fold(values: &[u64]) -> (u64, u64, u64, u64) {
        values
            .iter()
            .fold((0, 0, u64::MAX, 0), |(n, sum, lo, hi), &v| {
                (n + 1, sum.wrapping_add(v), lo.min(v), hi.max(v))
            })
    }

    /// A seeded sequence over the whole `u64` range and small values,
    /// with 0 and `u64::MAX` in the middle so neither is the first
    /// value a guard sees.
    fn seeded_values() -> Vec<u64> {
        let mut x = 0x5EED_u64;
        let mut values: Vec<u64> = (0..40_000u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 3 == 0 {
                    x >> (x % 64)
                } else {
                    x % 100_000 + 1
                }
            })
            .collect();
        values[17_321] = 0;
        values[23_456] = u64::MAX;
        values
    }

    #[test]
    fn guarded_extremes_match_a_reference_fold() {
        let values = seeded_values();
        let (n, sum, lo, hi) = reference_fold(&values);
        assert_eq!((lo, hi), (0, u64::MAX), "the sequence holds both ends");
        let check = |s: &HistogramSnapshot, arm: &str| {
            assert_eq!(s.count(), n, "{arm}: count");
            assert_eq!(s.sum(), sum, "{arm}: sum");
            assert_eq!(s.min(), lo, "{arm}: min");
            assert_eq!(s.max(), hi, "{arm}: max");
        };

        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        check(&h.snapshot(), "one thread");

        const THREADS: usize = 4;
        let h = Arc::new(Histogram::new());
        let values = Arc::new(values);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (h, values) = (Arc::clone(&h), Arc::clone(&values));
                // Interleaved shares: every thread races on the extremes.
                std::thread::spawn(move || {
                    for &v in values.iter().skip(t).step_by(THREADS) {
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        check(&h.snapshot(), "4 threads");
    }

    #[test]
    fn snapshot_while_racing_is_sane() {
        let h = Arc::new(Histogram::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let h = Arc::clone(&h);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    h.record(v % 1_000_000 + 1);
                    v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
            })
        };
        for _ in 0..200 {
            let s = h.snapshot();
            if s.count() > 0 {
                let p99 = s.p99();
                assert!((1..=1_125_000).contains(&p99), "p99 = {p99}");
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn bucket_monotonicity() {
        let mut last = 0;
        for v in [0u64, 1, 2, 3, 7, 8, 9, 100, 1_000, 1 << 20, u64::MAX / 2] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket({v}) = {b} < {last}");
            last = b;
        }
    }
}
