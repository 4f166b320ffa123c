//! Per-key access-frequency tracking: the heat sketch of the prefetch
//! cache and the placer's view of the hot head.
//!
//! The placement plane (`oe-cluster`) needs to know *which* keys are
//! hot right now — not the long-run stationary skew (that is
//! `oe-workload`'s `SkewModel`), but the empirical counts of the recent
//! window, because a flash crowd is exactly a deviation from the
//! stationary model. The tracker is a plain count map with exponential
//! decay: `decay()` halves every count, so a storm that ended a few
//! rebalance windows ago stops dominating `top_hot` without any
//! timestamp bookkeeping.
//!
//! The pipelined trainer keeps a second tracker as the heat sketch of
//! its [`PrefetchCache`] and decays it on its own cadence — every
//! `PipelineConfig::heat_decay_every` training windows, not per
//! rebalance window. Between two decays a count only rises, which is
//! what lets the cache keep its victim index lazily
//! ([`PrefetchCache::rerank`] after each decay).
//!
//! [`PrefetchCache`]: crate::PrefetchCache
//! [`PrefetchCache::rerank`]: crate::PrefetchCache::rerank

use crate::Key;
use std::collections::HashMap;

/// Decayed per-key access counters.
#[derive(Debug, Default)]
pub struct FreqTracker {
    counts: HashMap<Key, u64>,
    total: u64,
}

impl FreqTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` accesses of `key`.
    pub fn observe(&mut self, key: Key, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
        self.total += n;
    }

    /// Total accesses observed (post-decay mass).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys currently tracked.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Current count for `key` (0 if never seen or fully decayed).
    pub fn count(&self, key: Key) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// The `limit` hottest keys with their counts, hottest first.
    /// Ties break on ascending key so the ordering — and therefore every
    /// placement decision downstream — is deterministic.
    pub fn top_hot(&self, limit: usize) -> Vec<(Key, u64)> {
        let mut v: Vec<(Key, u64)> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(limit);
        v
    }

    /// Halve every count, dropping keys that reach zero. Call once per
    /// rebalance window (or trainer decay period) to age out finished
    /// storms; it is the only call that lowers a count.
    pub fn decay(&mut self) {
        self.total = 0;
        self.counts.retain(|_, c| {
            *c /= 2;
            self.total += *c;
            *c > 0
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_hot_is_sorted_and_deterministic() {
        let mut f = FreqTracker::new();
        f.observe(5, 10);
        f.observe(3, 10); // tie with 5 → key order
        f.observe(9, 100);
        f.observe(1, 1);
        assert_eq!(f.top_hot(3), vec![(9, 100), (3, 10), (5, 10)]);
        assert_eq!(f.total(), 121);
        assert_eq!(f.distinct(), 4);
    }

    #[test]
    fn heat_sketch_view_matches_counts() {
        // The prefetch cache ranks by `count`, before and after a decay.
        let mut f = FreqTracker::new();
        f.observe(4, 6);
        f.observe(5, 5);
        let mut c = crate::PrefetchCache::new(1, 1);
        assert!(c.insert(5, &[0.5], &f));
        assert!(c.insert(4, &[0.4], &f), "6 beats 5");
        f.decay();
        assert_eq!((f.count(4), f.count(5), f.count(999)), (3, 2, 0));
        c.rerank(&f);
        assert!(!c.admissible(5, &f), "2 loses to 3 after the decay");
        f.observe(5, 2);
        assert!(c.admissible(5, &f), "4 beats 3");
    }

    #[test]
    fn decay_halves_and_forgets() {
        let mut f = FreqTracker::new();
        f.observe(1, 1);
        f.observe(2, 8);
        f.decay();
        assert_eq!(f.count(1), 0, "count 1 decays to zero and is dropped");
        assert_eq!(f.count(2), 4);
        assert_eq!(f.distinct(), 1);
        assert_eq!(f.total(), 4);
    }
}
