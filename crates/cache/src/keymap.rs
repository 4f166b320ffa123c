//! The one hasher for maps and sets keyed by an embedding key.
//!
//! Every batch touches the per-key structures once per unique key: the
//! node's hash index, the trainer's prefetch cache and heat counts, the
//! request plan's dedup. std's default hasher is SipHash-1-3, built to
//! digest arbitrary bytes; a [`Key`] is one `u64`, so [`KeyHasher`]
//! folds it with a single 64×64→128-bit multiply instead.
//!
//! The hash stays *keyed*. Keys arrive from the wire, and an unkeyed
//! fast hash would let a client craft keys that collide into one bucket
//! chain. [`KeyState::new`] draws its two words once per process from
//! std's [`RandomState`], so nobody outside the process knows the
//! function. As with `RandomState`, iteration order therefore differs
//! between processes: no result may depend on it — sort, or keep an
//! ordered index beside the map, wherever order reaches an output.

use crate::Key;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed by an embedding key, hashed by [`KeyHasher`].
pub type KeyMap<V> = HashMap<Key, V, KeyState>;

/// A `HashSet` of embedding keys, hashed by [`KeyHasher`].
pub type KeySet = HashSet<Key, KeyState>;

/// The [`BuildHasher`] of [`KeyMap`] and [`KeySet`]: two secret words,
/// the process's by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyState {
    /// Mixed into the key before the multiply.
    seed: u64,
    /// The multiplier; odd, so the low half of the product depends on
    /// every key bit.
    mul: u64,
}

impl KeyState {
    /// The process's state: drawn from [`RandomState`] on first use and
    /// the same for every map of the process after that.
    pub fn new() -> Self {
        static PROCESS: OnceLock<KeyState> = OnceLock::new();
        *PROCESS.get_or_init(|| {
            let random = RandomState::new();
            Self::from_words(random.hash_one(0u64), random.hash_one(1u64))
        })
    }

    /// A state derived from `seed` alone, for tests that must show a
    /// result does not depend on the hash function.
    pub fn with_seed(seed: u64) -> Self {
        let mut s = seed;
        let seed = oe_simdevice::rng::splitmix64_next(&mut s);
        Self::from_words(seed, oe_simdevice::rng::splitmix64_next(&mut s))
    }

    fn from_words(seed: u64, mul: u64) -> Self {
        Self { seed, mul: mul | 1 }
    }
}

impl Default for KeyState {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for KeyState {
    type Hasher = KeyHasher;

    #[inline]
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher {
            state: self.seed,
            mul: self.mul,
        }
    }
}

/// Folds each `u64` written into its state with one widening multiply:
/// the high and low halves of `(state ^ word) × mul` are xored together.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
    mul: u64,
}

impl KeyHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.mul);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.fold(word);
    }

    /// Any other input folds in 8-byte little-endian words, the last
    /// one zero-padded (a `Key` never takes this path).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_seeds_hash_one_key_differently() {
        let (a, b) = (KeyState::with_seed(1), KeyState::with_seed(2));
        for key in [0u64, 1, 42, u64::MAX] {
            assert_ne!(a.hash_one(key), b.hash_one(key), "key {key}");
        }
        assert_eq!(a.hash_one(42u64), KeyState::with_seed(1).hash_one(42u64));
    }

    #[test]
    fn the_process_state_is_drawn_once_and_not_a_fixed_seed() {
        assert_eq!(KeyState::new(), KeyState::default());
        assert_ne!(KeyState::new(), KeyState::with_seed(0));
        assert_eq!(KeyState::new().mul & 1, 1, "odd multiplier");
    }

    #[test]
    fn the_hash_spreads_sequential_keys_over_buckets() {
        // A 1 024-bucket table indexed by the low bits, as hashbrown
        // does: sequential keys must not pile into a few buckets.
        let s = KeyState::with_seed(7);
        let mut buckets = vec![0u32; 1024];
        for key in 0..16_384u64 {
            buckets[(s.hash_one(key) & 1023) as usize] += 1;
        }
        let max = *buckets.iter().max().expect("non-empty");
        assert!(max <= 40, "fullest bucket holds {max} of an average 16");
    }

    #[test]
    fn maps_and_sets_work_under_any_state() {
        let mut m: KeyMap<u32> = KeyMap::with_hasher(KeyState::with_seed(3));
        let mut s = KeySet::default();
        for k in 0..1000u64 {
            m.insert(k * 7919, k as u32);
            s.insert(k * 7919);
        }
        assert!((0..1000u64).all(|k| m[&(k * 7919)] == k as u32 && s.contains(&(k * 7919))));
        assert_eq!((m.len(), s.len()), (1000, 1000));
    }
}
