//! Skew-aware prefetch cache for pipelined training.
//!
//! The pipelined trainer issues batch *t+1*'s pulls during batch *t*'s
//! GPU compute and parks the weights here until they are served. The
//! cache is *coherent with the applied-push watermark*: whenever an
//! out-of-band push applies to the parameter server, the trainer
//! invalidates the touched keys, so a lookup never returns a value that
//! differs from what a direct pull at serve time would have returned.
//!
//! Residency is skew-aware: admission and eviction are ranked by the
//! decaying [`FreqTracker`] the trainer feeds with its pulls, so hot
//! entries stay resident across batches while cold entries stream
//! through — the RecNMP observation that the zipf head is worth
//! pinning. Ties break on ascending key, so
//! every decision is deterministic.
//!
//! The coldest resident `(heat, key)` comes from an ordered index of
//! recorded heats, repaired lazily at its front; it is exact while no
//! heat falls between two [`PrefetchCache::rerank`] calls.
//!
//! Accounting invariant (checked by tests and the e2e suite): every
//! serve-time lookup is classified as exactly one of hit or miss, so
//! `hits + misses == lookups` always; `evictions` and `invalidations`
//! count capacity and coherence drops separately.

use crate::freq::FreqTracker;
use crate::keymap::{KeyMap, KeyState};
use crate::Key;
use std::collections::BTreeSet;

/// Counter snapshot of one cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Serve-time lookups answered from the cache.
    pub hits: u64,
    /// Serve-time lookups that fell through to a synchronous pull.
    pub misses: u64,
    /// Entries dropped to make room for hotter keys.
    pub evictions: u64,
    /// Entries dropped because an applied push made them stale.
    pub invalidations: u64,
    /// Entries inserted by the prefetcher.
    pub inserts: u64,
    /// Prefetch offers refused because the key was colder than the
    /// coldest resident entry of a full cache.
    pub admission_rejects: u64,
}

impl PrefetchStats {
    /// Total serve-time lookups; always `hits + misses`.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Fixed-capacity, heat-ranked store of prefetched embedding rows.
#[derive(Debug)]
pub struct PrefetchCache {
    capacity: usize,
    dim: usize,
    /// Resident keys: the heat each is filed under in `by_heat`, and
    /// its row in `rows`.
    entries: KeyMap<(u64, usize)>,
    /// The row slab, `capacity × dim` f32s; row `r` is
    /// `rows[r * dim..][..dim]`. Zeroed on allocation, so the pages of
    /// rows never used are never touched.
    rows: Vec<f32>,
    /// Rows once used and now vacant. Rows `0..entries.len() +
    /// free.len()` have been handed out; the rest never were.
    free: Vec<usize>,
    /// `(recorded heat, key)` of every resident entry, coldest first.
    by_heat: BTreeSet<(u64, Key)>,
    stats: PrefetchStats,
}

impl PrefetchCache {
    /// A cache holding at most `capacity` entries of `dim` f32s each.
    pub fn new(capacity: usize, dim: usize) -> Self {
        Self::with_hasher(capacity, dim, KeyState::new())
    }

    /// [`PrefetchCache::new`] with its key map hashed under `state`
    /// (tests that show no decision depends on the hash function).
    pub fn with_hasher(capacity: usize, dim: usize, state: KeyState) -> Self {
        let slab = capacity
            .checked_mul(dim)
            .expect("prefetch slab size fits in usize");
        Self {
            capacity,
            dim,
            entries: KeyMap::with_hasher(state),
            rows: vec![0.0; slab],
            free: Vec::new(),
            by_heat: BTreeSet::new(),
            stats: PrefetchStats::default(),
        }
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if `key` is resident (no counter side effects — serve-time
    /// classification goes through [`PrefetchCache::lookup`]).
    pub fn contains(&self, key: Key) -> bool {
        self.entries.contains_key(&key)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    fn row(&self, r: usize) -> &[f32] {
        &self.rows[r * self.dim..][..self.dim]
    }

    fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.rows[r * self.dim..][..self.dim]
    }

    /// Serve-time lookup: append the cached row to `out` and count a
    /// hit, or count a miss and leave `out` untouched. Exactly one
    /// counter moves per call, preserving `hits + misses == lookups`.
    pub fn lookup(&mut self, key: Key, out: &mut Vec<f32>) -> bool {
        match self.entries.get(&key) {
            Some(&(_, r)) => {
                out.extend_from_slice(self.row(r));
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Preview of [`PrefetchCache::insert`]'s admission decision, with
    /// no observable side effect (it may repair the victim index): would
    /// this key be retained right now? The prefetcher uses it to avoid
    /// spending pull bandwidth on rows the cache would immediately
    /// refuse — refused (cold) keys stream through the demand path
    /// instead.
    pub fn admissible(&mut self, key: Key, sketch: &FreqTracker) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if self.entries.contains_key(&key) || self.entries.len() < self.capacity {
            return true;
        }
        (sketch.count(key), key) > self.coldest(sketch)
    }

    /// Prefetch insert: admit `key`'s freshly pulled row, evicting the
    /// coldest resident entry if the cache is full and `key` is hotter
    /// (ties break on ascending key — the resident entry wins an exact
    /// tie, so a churning tail cannot thrash the head). Returns true if
    /// the row was admitted.
    pub fn insert(&mut self, key: Key, row: &[f32], sketch: &FreqTracker) -> bool {
        debug_assert_eq!(row.len(), self.dim, "row shape");
        if self.capacity == 0 {
            self.stats.admission_rejects += 1;
            return false;
        }
        if let Some(&(_, r)) = self.entries.get(&key) {
            self.row_mut(r).copy_from_slice(row);
            self.stats.inserts += 1;
            return true;
        }
        let heat = sketch.count(key);
        if self.entries.len() >= self.capacity {
            let victim = self.coldest(sketch);
            if (heat, key) <= victim {
                self.stats.admission_rejects += 1;
                return false;
            }
            self.by_heat.remove(&victim);
            let (_, r) = self
                .entries
                .remove(&victim.1)
                .expect("indexed keys are resident");
            self.free.push(r);
            self.stats.evictions += 1;
        }
        // With no vacant row, rows `0..len` are all resident.
        let r = self.free.pop().unwrap_or(self.entries.len());
        self.row_mut(r).copy_from_slice(row);
        self.entries.insert(key, (heat, r));
        self.by_heat.insert((heat, key));
        self.stats.inserts += 1;
        true
    }

    /// Re-file every resident entry under its current heat. Call after
    /// every sketch update that can lower a heat (a decay); between two
    /// calls the victim index relies on heats only rising.
    pub fn rerank(&mut self, sketch: &FreqTracker) {
        self.by_heat.clear();
        for (&k, (heat, _)) in &mut self.entries {
            *heat = sketch.count(k);
            self.by_heat.insert((*heat, k));
        }
    }

    /// The coldest resident `(heat, key)` at the sketch's current
    /// heats. A recorded heat never exceeds the current one, so once
    /// the front entry's is current no other entry can be colder; until
    /// then the front is re-filed under its current heat.
    fn coldest(&mut self, sketch: &FreqTracker) -> (u64, Key) {
        loop {
            let (recorded, k) = *self.by_heat.first().expect("cache is non-empty when full");
            let heat = sketch.count(k);
            if heat == recorded {
                return (heat, k);
            }
            debug_assert!(heat > recorded, "heat of key {k} fell without a rerank");
            self.by_heat.pop_first();
            self.by_heat.insert((heat, k));
            self.entries
                .get_mut(&k)
                .expect("indexed keys are resident")
                .0 = heat;
        }
    }

    /// Coherence fence: drop every resident entry in `keys` (an applied
    /// push made them stale). Returns how many entries were actually
    /// dropped — a key with no resident entry costs nothing, so a
    /// second fence over the same keys is a no-op and the caller can
    /// assert exactly-once invalidation.
    pub fn invalidate(&mut self, keys: &[Key]) -> u64 {
        let mut dropped = 0;
        for &k in keys {
            if let Some((heat, r)) = self.entries.remove(&k) {
                self.by_heat.remove(&(heat, k));
                self.free.push(r);
                dropped += 1;
            }
        }
        self.stats.invalidations += dropped;
        dropped
    }

    /// Drop everything (the failover rewind, tests).
    pub fn clear(&mut self) {
        let n = self.entries.len() as u64;
        self.stats.invalidations += n;
        self.entries.clear();
        self.free.clear();
        self.by_heat.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(pairs: &[(Key, u64)]) -> FreqTracker {
        let mut f = FreqTracker::new();
        for &(k, heat) in pairs {
            f.observe(k, heat);
        }
        f
    }

    #[test]
    fn lookup_classifies_every_access_exactly_once() {
        let s = sketch(&[(1, 10), (2, 5)]);
        let mut c = PrefetchCache::new(4, 2);
        assert!(c.insert(1, &[1.0, 2.0], &s));
        let mut out = Vec::new();
        assert!(c.lookup(1, &mut out));
        assert!(!c.lookup(2, &mut out));
        assert!(!c.lookup(3, &mut out));
        let st = c.stats();
        assert_eq!((st.hits, st.misses), (1, 2));
        assert_eq!(st.lookups(), 3);
        assert_eq!(out, vec![1.0, 2.0]);
    }

    #[test]
    fn full_cache_evicts_coldest_for_hotter_key() {
        let s = sketch(&[(1, 100), (2, 1), (3, 50)]);
        let mut c = PrefetchCache::new(2, 1);
        assert!(c.insert(1, &[0.1], &s));
        assert!(c.insert(2, &[0.2], &s));
        // 3 is hotter than resident 2 → 2 evicted.
        assert!(c.insert(3, &[0.3], &s));
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
        assert_eq!(c.stats().evictions, 1);
        // 2 is colder than both residents → rejected, nothing evicted.
        assert!(!c.insert(2, &[0.2], &s));
        assert_eq!(c.stats().admission_rejects, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn exact_heat_tie_keeps_the_resident_entry() {
        let s = sketch(&[(7, 5), (9, 5)]);
        let mut c = PrefetchCache::new(1, 1);
        assert!(c.insert(7, &[0.7], &s));
        // Same heat, higher key: (5, 9) > (5, 7) → admitted. Lower key
        // at the same heat would lose and be rejected.
        assert!(c.insert(9, &[0.9], &s));
        assert!(!c.insert(7, &[0.7], &s), "tie resolves to the resident");
        assert!(c.contains(9));
    }

    #[test]
    fn invalidation_is_exactly_once() {
        let s = sketch(&[(1, 1), (2, 2), (3, 3)]);
        let mut c = PrefetchCache::new(4, 1);
        for k in 1..=3u64 {
            c.insert(k, &[k as f32], &s);
        }
        assert_eq!(c.invalidate(&[1, 2, 99]), 2, "only resident keys drop");
        assert_eq!(c.invalidate(&[1, 2, 99]), 0, "second fence is a no-op");
        assert_eq!(c.stats().invalidations, 2);
        let mut out = Vec::new();
        assert!(!c.lookup(1, &mut out));
        assert!(c.lookup(3, &mut out));
    }

    #[test]
    fn reinsert_refreshes_in_place_without_eviction() {
        let s = sketch(&[(1, 1)]);
        let mut c = PrefetchCache::new(1, 2);
        assert!(c.insert(1, &[1.0, 1.0], &s));
        assert!(c.insert(1, &[2.0, 2.0], &s));
        let mut out = Vec::new();
        assert!(c.lookup(1, &mut out));
        assert_eq!(out, vec![2.0, 2.0]);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().inserts, 2);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let s = sketch(&[]);
        let mut c = PrefetchCache::new(0, 1);
        assert!(!c.insert(1, &[0.0], &s));
        assert!(c.is_empty());
        assert_eq!(c.stats().admission_rejects, 1);
    }

    #[test]
    fn admissible_previews_insert_exactly() {
        let mut s = FreqTracker::new();
        for k in 0..64 {
            s.observe(k, (k * 11) % 17);
        }
        let mut c = PrefetchCache::new(4, 1);
        for k in 0..64u64 {
            let preview = c.admissible(k, &s);
            let admitted = c.insert(k, &[k as f32], &s);
            assert_eq!(preview, admitted, "key {k}");
        }
    }

    #[test]
    fn counter_sum_invariant_across_seeded_traffic() {
        // Deterministic pseudo-random traffic: the sum invariant
        // hits + misses == lookups must hold at every step, for any
        // interleaving of inserts, invalidations, and lookups.
        for seed in [1u64, 7, 42, 1234] {
            let mut x = seed;
            let mut step = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut s = FreqTracker::new();
            for k in 0..32 {
                s.observe(k, (k * 7) % 13);
            }
            let mut c = PrefetchCache::new(8, 1);
            let mut lookups = 0u64;
            for _ in 0..500 {
                let k = step() % 32;
                match step() % 3 {
                    0 => {
                        c.insert(k, &[k as f32], &s);
                    }
                    1 => {
                        let mut out = Vec::new();
                        c.lookup(k, &mut out);
                        lookups += 1;
                    }
                    _ => {
                        c.invalidate(&[k]);
                    }
                }
                let st = c.stats();
                assert_eq!(st.hits + st.misses, lookups, "seed {seed}");
                assert!(c.len() <= 8, "capacity respected");
            }
        }
    }
}
