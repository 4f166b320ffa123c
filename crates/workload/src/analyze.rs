//! Trace analysis: Table II statistics, Fig. 10 rank-frequency curves,
//! and Che's approximation for LRU miss rates.

/// Fraction of total accesses landing on the hottest `frac` of keys,
/// measured from empirical per-key counts (Table II methodology).
pub fn top_share_empirical(counts: &[u64], frac: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = counts.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let k = ((counts.len() as f64 * frac).round() as usize).clamp(1, counts.len());
    let top: u64 = sorted[..k].iter().sum();
    top as f64 / total as f64
}

/// Rank-frequency series for Fig. 10: (rank, accesses) sorted descending,
/// downsampled to at most `points` rows for plotting.
#[derive(Debug, Clone)]
pub struct RankFrequency {
    /// (rank, access count) pairs, rank ascending.
    pub points: Vec<(u64, u64)>,
    /// Total accesses.
    pub total: u64,
}

impl RankFrequency {
    /// Build from per-key counts.
    pub fn from_counts(counts: &[u64], points: usize) -> Self {
        let mut sorted: Vec<u64> = counts.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total = sorted.iter().sum();
        let n = sorted.len().max(1);
        let step = (n / points.max(1)).max(1);
        let pts = (0..n)
            .step_by(step)
            .map(|r| (r as u64, sorted[r]))
            .collect();
        Self { points: pts, total }
    }

    /// Least-squares fit of log(freq) = log(A) − λ·(rank/n) over the
    /// non-zero head — the exponential fit the paper draws in Fig. 10.
    /// Returns (A, λ_normalized).
    pub fn fit_exponential(&self, n_keys: u64) -> (f64, f64) {
        let pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter(|&&(_, c)| c > 0)
            .map(|&(r, c)| (r as f64 / n_keys as f64, (c as f64).ln()))
            .collect();
        if pts.len() < 2 {
            return (0.0, 0.0);
        }
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        let intercept = (sy - slope * sx) / n;
        (intercept.exp(), -slope)
    }
}

/// Che's approximation for the miss rate of an LRU cache of `cache_size`
/// entries under independent-reference accesses with per-key
/// probabilities `probs` (need not be normalized).
///
/// Solves `Σᵢ (1 − e^{−pᵢ·T}) = cache_size` for the characteristic time
/// `T` by bisection, then `hit(i) = 1 − e^{−pᵢ·T}`; overall miss rate is
/// the access-weighted complement. The standard analytic tool for
/// cache-size sweeps (Fig. 8) without running a simulation.
pub fn che_miss_rate(probs: &[f64], cache_size: usize) -> f64 {
    let total: f64 = probs.iter().sum();
    if total <= 0.0 || probs.is_empty() {
        return 0.0;
    }
    if cache_size >= probs.len() {
        return 0.0;
    }
    let p: Vec<f64> = probs.iter().map(|&x| x / total).collect();
    let occupancy = |t: f64| -> f64 { p.iter().map(|&pi| 1.0 - (-pi * t).exp()).sum() };
    // Bisection for T on a generous bracket.
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while occupancy(hi) < cache_size as f64 {
        hi *= 2.0;
        if hi > 1e18 {
            break;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if occupancy(mid) < cache_size as f64 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = 0.5 * (lo + hi);
    let hit_rate: f64 = p.iter().map(|&pi| pi * (1.0 - (-pi * t).exp())).sum();
    (1.0 - hit_rate).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadGen, WorkloadSpec};
    use crate::skew::SkewModel;

    #[test]
    fn top_share_basic() {
        // 4 keys: counts 70, 20, 9, 1.
        let counts = [9, 70, 1, 20];
        assert!((top_share_empirical(&counts, 0.25) - 0.70).abs() < 1e-12);
        assert!((top_share_empirical(&counts, 0.5) - 0.90).abs() < 1e-12);
        assert!((top_share_empirical(&counts, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn generated_workload_matches_table2_shape() {
        let mut spec = WorkloadSpec::small();
        spec.num_keys = 200_000;
        spec.batch_size = 512;
        let g = WorkloadGen::new(spec);
        let counts = g.access_counts(60);
        // With finite sampling the measured share of the top 1% should be
        // near the analytic 95.7%.
        let s = top_share_empirical(&counts, 0.01);
        assert!((s - 0.957).abs() < 0.03, "top-1% share = {s}");
    }

    #[test]
    fn rank_frequency_is_descending_and_fits() {
        let mut spec = WorkloadSpec::small();
        spec.num_keys = 50_000;
        spec.skew = SkewModel::exponential(300.0);
        let g = WorkloadGen::new(spec);
        let counts = g.access_counts(80);
        let rf = RankFrequency::from_counts(&counts, 200);
        for w in rf.points.windows(2) {
            assert!(w[0].1 >= w[1].1, "descending");
        }
        let (_a, lambda) = rf.fit_exponential(50_000);
        // The fitted decay constant is positive and within an order of
        // magnitude of the generator's λ (tail zeros bias it down).
        assert!(lambda > 50.0, "λ = {lambda}");
    }

    #[test]
    fn che_extremes() {
        let probs = vec![1.0; 100];
        assert_eq!(che_miss_rate(&probs, 100), 0.0);
        assert!(che_miss_rate(&probs, 0) > 0.99);
        // Uniform: miss rate ≈ 1 - cache/n.
        let m = che_miss_rate(&probs, 50);
        assert!((m - 0.5).abs() < 0.1, "uniform m={m}");
    }

    #[test]
    fn che_skew_lowers_miss_rate() {
        let n = 10_000usize;
        let uni = vec![1.0; n];
        let skewed: Vec<f64> = (0..n).map(|i| (-(i as f64) / 200.0).exp() + 1e-9).collect();
        let c = 500;
        assert!(che_miss_rate(&skewed, c) < che_miss_rate(&uni, c) / 2.0);
    }

    #[test]
    fn che_monotone_in_cache_size() {
        let probs: Vec<f64> = (0..5000).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut prev = 1.0;
        for c in [10, 50, 250, 1000, 4000] {
            let m = che_miss_rate(&probs, c);
            assert!(m <= prev + 1e-9, "miss rate decreasing in cache size");
            prev = m;
        }
    }
}
