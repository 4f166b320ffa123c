//! Hot-key storm workloads for placement/rebalancing studies.
//!
//! A *flash crowd* — a small set of keys suddenly absorbing most of the
//! traffic (a viral item, a trending ad campaign) — is the adversarial
//! case for static hash placement: when the crowd's keys happen to hash
//! onto one PS node, that shard melts while the rest idle. The storm
//! generator layers a transient zipf-weighted crowd over a stationary
//! background [`SkewModel`], deterministically, so two engines can
//! replay the identical storm.

use crate::skew::SkewModel;
use oe_simdevice::rng::Rng;

/// Embedding key.
pub type Key = u64;

/// Description of a hot-key storm overlaid on a background workload.
#[derive(Debug, Clone)]
pub struct StormSpec {
    /// Total distinct keys in the model.
    pub num_keys: u64,
    /// Key references per batch (before any dedup).
    pub keys_per_batch: usize,
    /// The flash-crowd key set, hottest first (zipf-weighted within).
    pub hot_keys: Vec<Key>,
    /// Fraction of references hitting the crowd during the storm.
    pub hot_share: f64,
    /// Storm batch window `[storm_start, storm_end)`.
    pub storm_start: u64,
    /// Exclusive end of the storm window.
    pub storm_end: u64,
    /// Background access skew (outside and underneath the storm).
    pub base: SkewModel,
    /// RNG seed; batches are a pure function of `(spec, batch)`.
    pub seed: u64,
}

impl StormSpec {
    /// True if `batch` lies inside the storm window.
    pub fn in_storm(&self, batch: u64) -> bool {
        (self.storm_start..self.storm_end).contains(&batch)
    }
}

/// Deterministic batch generator for a [`StormSpec`].
pub struct StormGen {
    spec: StormSpec,
}

impl StormGen {
    /// Build a generator; the crowd must be non-empty and in range.
    pub fn new(spec: StormSpec) -> Self {
        assert!(spec.num_keys > 0 && spec.keys_per_batch > 0);
        assert!(!spec.hot_keys.is_empty(), "storm needs a crowd");
        assert!((0.0..=1.0).contains(&spec.hot_share));
        assert!(spec.storm_start <= spec.storm_end);
        assert!(
            spec.hot_keys.iter().all(|&k| k < spec.num_keys),
            "crowd keys in range"
        );
        Self { spec }
    }

    /// The spec.
    pub fn spec(&self) -> &StormSpec {
        &self.spec
    }

    /// Zipf-ish rank sampler over `[0, n)` from a uniform `u ∈ [0, 1)`:
    /// `rank = exp(u · ln(n+1)) − 1`, so rank 0 draws ~`1/ln(n+1)` of
    /// the mass and the tail thins harmonically — the classic crowd
    /// shape without a per-`n` normalization table.
    pub fn zipf_rank(u: f64, n: u64) -> u64 {
        debug_assert!(n > 0);
        let r = ((u.clamp(0.0, 1.0) * ((n + 1) as f64).ln()).exp() - 1.0) as u64;
        r.min(n - 1)
    }

    /// Key references of `batch`, in reference order (duplicates kept).
    /// Inside the storm window, each reference hits the crowd with
    /// probability `hot_share` (zipf-weighted within the crowd);
    /// otherwise it samples the background skew.
    pub fn batch_keys(&self, batch: u64) -> Vec<Key> {
        let s = &self.spec;
        let mut rng =
            Rng::seed_from_u64(s.seed ^ batch.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5702);
        let storming = s.in_storm(batch);
        let mut keys = Vec::with_capacity(s.keys_per_batch);
        for _ in 0..s.keys_per_batch {
            if storming && rng.chance(s.hot_share) {
                let rank = Self::zipf_rank(rng.f64(), s.hot_keys.len() as u64);
                keys.push(s.hot_keys[rank as usize]);
            } else {
                keys.push(s.base.sample_rank(&mut rng, s.num_keys));
            }
        }
        keys
    }

    /// One key for open-loop request `req` — the serving-side sampler.
    ///
    /// A QPS driver replays requests as an unbounded stream, not in
    /// training batches; each request is a pure function of
    /// `(spec, req)` so N reader threads can partition the stream
    /// (`req = thread + i·threads`) and still replay the identical
    /// global workload. The storm window is interpreted in *request*
    /// units scaled by `keys_per_batch`: request `req` storms iff
    /// batch `req / keys_per_batch` storms, so a serving replay sees
    /// the same flash crowd the trainer saw.
    pub fn request_key(&self, req: u64) -> Key {
        let s = &self.spec;
        let mut rng = Rng::seed_from_u64(s.seed ^ req.wrapping_mul(0xD134_2543_DE82_EF95) ^ 0x0E5E);
        let batch = req / s.keys_per_batch as u64;
        if s.in_storm(batch) && rng.chance(s.hot_share) {
            let rank = Self::zipf_rank(rng.f64(), s.hot_keys.len() as u64);
            s.hot_keys[rank as usize]
        } else {
            s.base.sample_rank(&mut rng, s.num_keys)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The storm stream feeds the serving stages of the benchmark and
    /// the rebalance bench: pinned to what the parent commit (`ac0ac0c`,
    /// the benchmark's stand-in generator) produced for this spec.
    #[test]
    fn batch_and_request_streams_are_pinned() {
        let gen = StormGen::new(StormSpec {
            num_keys: 100_000,
            keys_per_batch: 16,
            hot_keys: (0..32u64).map(|i| i * 3_001 % 100_000).collect(),
            hot_share: 0.7,
            storm_start: 2,
            storm_end: 5,
            base: SkewModel::paper_fit(),
            seed: 0x5EED,
        });
        assert_eq!(
            gen.batch_keys(3),
            [
                13, 1, 6002, 1, 5, 9003, 33011, 8, 3001, 12004, 11, 3001, 42014, 30010, 12004,
                60020
            ]
        );
        assert_eq!(
            gen.batch_keys(0),
            [8, 4, 0, 22, 11, 3, 57, 15, 4, 4, 0, 5, 0, 132, 1, 8]
        );
        let requests: Vec<Key> = (40..56).map(|r| gen.request_key(r)).collect();
        assert_eq!(
            requests,
            [
                12004, 45015, 78026, 0, 3001, 15005, 12004, 0, 3001, 3, 24008, 48016, 3001, 11, 0,
                77823
            ]
        );
    }

    fn spec() -> StormSpec {
        StormSpec {
            num_keys: 10_000,
            keys_per_batch: 2_000,
            hot_keys: (9_000..9_064).collect(),
            hot_share: 0.8,
            storm_start: 5,
            storm_end: 10,
            base: SkewModel::paper_fit(),
            seed: 42,
        }
    }

    #[test]
    fn deterministic_replay() {
        let g = StormGen::new(spec());
        assert_eq!(g.batch_keys(7), g.batch_keys(7));
        assert_ne!(g.batch_keys(7), g.batch_keys(8));
    }

    #[test]
    fn storm_concentrates_on_the_crowd() {
        let g = StormGen::new(spec());
        let crowd: HashSet<Key> = g.spec().hot_keys.iter().copied().collect();
        let share = |batch: u64| {
            let keys = g.batch_keys(batch);
            keys.iter().filter(|k| crowd.contains(k)).count() as f64 / keys.len() as f64
        };
        // During the storm ~hot_share of references hit the crowd …
        let during = share(7);
        assert!((during - 0.8).abs() < 0.05, "storm share = {during}");
        // … outside it, background skew rarely touches those cold ranks.
        let before = share(2);
        let after = share(12);
        assert!(before < 0.05, "pre-storm share = {before}");
        assert!(after < 0.05, "post-storm share = {after}");
    }

    #[test]
    fn crowd_is_zipf_weighted_within() {
        let g = StormGen::new(spec());
        let mut counts = vec![0u64; 64];
        for b in 5..10 {
            for k in g.batch_keys(b) {
                if (9_000..9_064).contains(&k) {
                    counts[(k - 9_000) as usize] += 1;
                }
            }
        }
        assert!(
            counts[0] > counts[32] && counts[0] > counts[63],
            "crowd head outdraws its tail: {} vs {} / {}",
            counts[0],
            counts[32],
            counts[63]
        );
    }

    #[test]
    fn zipf_rank_bounds_and_monotonicity() {
        for n in [1u64, 2, 64, 1_000_000] {
            assert_eq!(StormGen::zipf_rank(0.0, n), 0);
            assert!(StormGen::zipf_rank(1.0, n) < n);
            let mut last = 0;
            for i in 0..=100 {
                let r = StormGen::zipf_rank(i as f64 / 100.0, n);
                assert!(r >= last, "monotone in u");
                last = r;
            }
        }
    }

    #[test]
    fn keys_stay_in_range() {
        let g = StormGen::new(spec());
        for b in [0u64, 5, 9, 20] {
            assert!(g.batch_keys(b).iter().all(|&k| k < 10_000));
        }
    }

    #[test]
    fn request_stream_is_deterministic_and_skewed() {
        let g = StormGen::new(spec());
        // Pure function of (spec, req): thread-partitionable.
        assert_eq!(g.request_key(12_345), g.request_key(12_345));
        let crowd: HashSet<Key> = g.spec().hot_keys.iter().copied().collect();
        let share = |reqs: std::ops::Range<u64>| {
            let n = reqs.end - reqs.start;
            reqs.filter(|&r| crowd.contains(&g.request_key(r))).count() as f64 / n as f64
        };
        // Request-unit storm window: batches 5..10 → requests
        // 10_000..20_000 at 2_000 keys per batch.
        let during = share(10_000..20_000);
        assert!((during - 0.8).abs() < 0.05, "storm share = {during}");
        let before = share(0..10_000);
        assert!(before < 0.05, "pre-storm share = {before}");
        // All in range.
        assert!((0..5_000).all(|r| g.request_key(r) < 10_000));
    }
}
