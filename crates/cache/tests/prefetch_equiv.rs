//! The heat-indexed prefetch cache against the full scan it replaced.
//!
//! [`Oracle`] is the retired victim search, kept here as the reference:
//! every admission check and every eviction scans all resident entries
//! for the coldest `(heat, key)`. [`PrefetchCache`] must return the same
//! value from every call, count the same [`PrefetchStats`] and hold the
//! same keys, under heats that rise on resident and absent keys, exact
//! heat ties, and a halving of every heat followed by `rerank`.

use oe_cache::{HeatSketch, PrefetchCache, PrefetchStats};
use oe_simdevice::rng::Rng;
use std::collections::HashMap;

type Key = u64;

/// The retired cache: rows in a map, the victim found by a scan.
struct Oracle {
    capacity: usize,
    entries: HashMap<Key, Vec<f32>>,
    stats: PrefetchStats,
}

impl Oracle {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: HashMap::new(),
            stats: PrefetchStats::default(),
        }
    }

    fn victim(&self, sketch: &dyn HeatSketch) -> (u64, Key) {
        self.entries
            .keys()
            .map(|&k| (sketch.heat(k), k))
            .min()
            .expect("cache is non-empty when full")
    }

    fn admissible(&self, key: Key, sketch: &dyn HeatSketch) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if self.entries.contains_key(&key) || self.entries.len() < self.capacity {
            return true;
        }
        (sketch.heat(key), key) > self.victim(sketch)
    }

    fn insert(&mut self, key: Key, row: &[f32], sketch: &dyn HeatSketch) -> bool {
        if self.capacity == 0 {
            self.stats.admission_rejects += 1;
            return false;
        }
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let victim = self.victim(sketch);
            if (sketch.heat(key), key) <= victim {
                self.stats.admission_rejects += 1;
                return false;
            }
            self.entries.remove(&victim.1);
            self.stats.evictions += 1;
        }
        self.entries.insert(key, row.to_vec());
        self.stats.inserts += 1;
        true
    }

    fn lookup(&mut self, key: Key, out: &mut Vec<f32>) -> bool {
        match self.entries.get(&key) {
            Some(row) => {
                out.extend_from_slice(row);
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    fn invalidate(&mut self, keys: &[Key]) -> u64 {
        let dropped = keys
            .iter()
            .filter(|k| self.entries.remove(k).is_some())
            .count() as u64;
        self.stats.invalidations += dropped;
        dropped
    }

    fn clear(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
    }
}

const CAPACITIES: [usize; 5] = [0, 1, 2, 7, 64];
const DIM: usize = 2;

/// A key of the case's universe, 30 % of the time one that is resident
/// (so heat bumps, refreshes and invalidations hit entries often).
fn pick(rng: &mut Rng, oracle: &Oracle, universe: u64) -> Key {
    if !oracle.entries.is_empty() && rng.chance(0.3) {
        let mut resident: Vec<Key> = oracle.entries.keys().copied().collect();
        resident.sort_unstable();
        resident[rng.below(resident.len() as u64) as usize]
    } else {
        rng.below(universe)
    }
}

#[test]
fn indexed_victim_matches_full_scan() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x5eed_0000 + case);
        let capacity = CAPACITIES[case as usize % CAPACITIES.len()];
        let universe = 4 * capacity as u64 + 5;
        // Small heats over a small universe: exact ties are common.
        let mut sketch: HashMap<Key, u64> = HashMap::new();
        for k in 0..universe {
            if rng.chance(0.7) {
                sketch.insert(k, rng.below(4));
            }
        }
        let mut cache = PrefetchCache::new(capacity, DIM);
        let mut oracle = Oracle::new(capacity);

        for step in 0..200 + 40 * capacity {
            let key = pick(&mut rng, &oracle, universe);
            let what = match rng.below(1000) {
                0..=249 => {
                    *sketch.entry(key).or_insert(0) += 1 + rng.below(3);
                    "heat"
                }
                250..=419 => {
                    let got = cache.admissible(key, &sketch);
                    let want = oracle.admissible(key, &sketch);
                    assert_eq!(got, want, "case {case} step {step}: admissible({key})");
                    "admissible"
                }
                420..=789 => {
                    let row = [rng.f32(), key as f32];
                    let got = cache.insert(key, &row, &sketch);
                    let want = oracle.insert(key, &row, &sketch);
                    assert_eq!(got, want, "case {case} step {step}: insert({key})");
                    "insert"
                }
                790..=879 => {
                    let (mut got_row, mut want_row) = (Vec::new(), Vec::new());
                    let got = cache.lookup(key, &mut got_row);
                    let want = oracle.lookup(key, &mut want_row);
                    assert_eq!(got, want, "case {case} step {step}: lookup({key})");
                    assert_eq!(got_row, want_row, "case {case} step {step}: row of {key}");
                    "lookup"
                }
                880..=899 => {
                    let other = rng.below(universe);
                    let keys = [key, other, key];
                    let got = cache.invalidate(&keys);
                    let want = oracle.invalidate(&keys);
                    assert_eq!(got, want, "case {case} step {step}: invalidate({keys:?})");
                    "invalidate"
                }
                900 => {
                    cache.clear();
                    oracle.clear();
                    "clear"
                }
                _ => {
                    for heat in sketch.values_mut() {
                        *heat /= 2;
                    }
                    cache.rerank(&sketch);
                    "halve + rerank"
                }
            };
            assert_eq!(
                cache.stats(),
                oracle.stats,
                "case {case} step {step} ({what}): stats"
            );
            assert_eq!(
                cache.len(),
                oracle.entries.len(),
                "case {case} step {step} ({what}): resident count"
            );
            for &k in oracle.entries.keys() {
                assert!(
                    cache.contains(k),
                    "case {case} step {step} ({what}): {k} is not resident"
                );
            }
        }
        if capacity > 0 {
            let st = oracle.stats;
            assert!(
                st.evictions > 0 && st.admission_rejects > 0,
                "case {case}: the cache must run full ({st:?})"
            );
        }
    }
}
