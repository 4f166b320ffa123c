//! No decision of the per-key structures depends on the key hasher.
//!
//! [`KeyMap`](oe_cache::KeyMap) draws its hash function once per
//! process, so its iteration order differs from run to run. The prefetch
//! cache and the heat sketch must not let that order reach a result:
//! under three hash states (two fixed seeds and the process's own) the
//! same operations must give the same hits, misses, rows, evictions,
//! admission rejects, invalidations, resident sets and sketch counts
//! at every step.

use oe_cache::{FreqTracker, KeyState, PrefetchCache};
use oe_simdevice::rng::Rng;

type Key = u64;

const DIM: usize = 3;

/// One cache and the sketch that ranks it, both under one hash state.
struct Arm {
    cache: PrefetchCache,
    sketch: FreqTracker,
}

impl Arm {
    fn new(capacity: usize, state: KeyState) -> Self {
        Self {
            cache: PrefetchCache::with_hasher(capacity, DIM, state),
            sketch: FreqTracker::with_hasher(state),
        }
    }
}

#[test]
fn three_hash_states_make_the_same_decisions() {
    let mut seen = [0u64; 5];
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0x4a54_0000 + case);
        let capacity = [0usize, 1, 3, 8, 32][case as usize % 5];
        let universe = 4 * capacity as u64 + 9;
        let mut arms = [
            Arm::new(capacity, KeyState::with_seed(case)),
            Arm::new(capacity, KeyState::with_seed(!case)),
            Arm::new(capacity, KeyState::new()),
        ];
        for step in 0..300 + 30 * capacity {
            let key = rng.below(universe);
            let op = rng.below(1000);
            let n = 1 + rng.below(3);
            let row = [rng.f32(), key as f32, step as f32];
            let other = rng.below(universe);
            let outcomes: Vec<(u64, Vec<f32>)> = arms
                .iter_mut()
                .map(|a| match op {
                    0..=299 => {
                        a.sketch.observe(key, n);
                        (0, Vec::new())
                    }
                    300..=449 => (a.cache.admissible(key, &a.sketch) as u64, Vec::new()),
                    450..=799 => (a.cache.insert(key, &row, &a.sketch) as u64, Vec::new()),
                    800..=899 => {
                        let mut out = Vec::new();
                        (a.cache.lookup(key, &mut out) as u64, out)
                    }
                    900..=979 => (a.cache.invalidate(&[key, other, key]), Vec::new()),
                    980 => {
                        a.cache.clear();
                        (0, Vec::new())
                    }
                    _ => {
                        a.sketch.decay();
                        a.cache.rerank(&a.sketch);
                        (0, Vec::new())
                    }
                })
                .collect();
            let at = format!("case {case} step {step} op {op} key {key}");
            let first = &arms[0];
            let resident =
                |a: &Arm| -> Vec<Key> { (0..universe).filter(|&k| a.cache.contains(k)).collect() };
            let counts =
                |a: &Arm| -> Vec<u64> { (0..universe).map(|k| a.sketch.count(k)).collect() };
            for (i, arm) in arms.iter().enumerate().skip(1) {
                assert_eq!(outcomes[i], outcomes[0], "{at}: outcome, state {i}");
                assert_eq!(
                    arm.cache.stats(),
                    first.cache.stats(),
                    "{at}: stats, state {i}"
                );
                assert_eq!(resident(arm), resident(first), "{at}: residents, state {i}");
                assert_eq!(counts(arm), counts(first), "{at}: counts, state {i}");
                assert_eq!(
                    arm.sketch.total(),
                    first.sketch.total(),
                    "{at}: total, state {i}"
                );
            }
        }
        let st = arms[0].cache.stats();
        for (sum, n) in seen.iter_mut().zip([
            st.hits,
            st.misses,
            st.evictions,
            st.admission_rejects,
            st.invalidations,
        ]) {
            *sum += n;
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "every decision must be exercised: hits, misses, evictions, rejects, invalidations = {seen:?}"
    );
}
