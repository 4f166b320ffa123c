//! The epoch-versioned placement table.
//!
//! Routing is a two-level lookup: an explicit key→node override map for
//! the (tiny) set of relocated keys, and the static hash placement
//! ([`oe_core::hash_node_of`]) as the fallback for everything else —
//! RecShard's observation that only the hot head needs individual
//! placement, the cold tail can stay hashed. Every change to the
//! overrides bumps the **epoch**; a `(table, epoch)` pair therefore
//! fully determines routing, which is what lets servers fence stale
//! clients (`oe-net`'s placement-epoch check) and lets tests assert
//! *same epoch ⇒ same routing* as a property.

use oe_core::{hash_node_of, Key};
use std::collections::HashMap;

/// Epoch-numbered key→node indirection with hash fallback.
#[derive(Debug, Clone)]
pub struct PlacementTable {
    nodes: usize,
    epoch: u64,
    overrides: HashMap<Key, usize>,
}

impl PlacementTable {
    /// A fresh table over `nodes` PS nodes: epoch 0, pure hash routing.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "placement needs at least one node");
        Self {
            nodes,
            epoch: 0,
            overrides: HashMap::new(),
        }
    }

    /// Number of nodes routed over.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Current placement epoch. Bumped exactly once per [`apply`].
    ///
    /// [`apply`]: PlacementTable::apply
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of keys with an explicit override.
    pub fn overrides_len(&self) -> usize {
        self.overrides.len()
    }

    /// True if `key` routes through an explicit override.
    pub fn is_overridden(&self, key: Key) -> bool {
        self.overrides.contains_key(&key)
    }

    /// Route `key`: override if present, hash fallback otherwise.
    #[inline]
    pub fn node_of(&self, key: Key) -> usize {
        match self.overrides.get(&key) {
            Some(&n) => n,
            None => hash_node_of(key, self.nodes),
        }
    }

    /// Apply a batch of placement moves atomically and bump the epoch.
    /// A move back to a key's hash home removes its override (the table
    /// stays minimal). Returns the new epoch.
    pub fn apply(&mut self, moves: &[(Key, usize)]) -> u64 {
        for &(key, dest) in moves {
            assert!(dest < self.nodes, "destination {dest} out of range");
            if dest == hash_node_of(key, self.nodes) {
                self.overrides.remove(&key);
            } else {
                self.overrides.insert(key, dest);
            }
        }
        self.epoch += 1;
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_simdevice::rng::Rng;

    #[test]
    fn fresh_table_is_pure_hash() {
        let t = PlacementTable::new(4);
        assert_eq!(t.epoch(), 0);
        assert_eq!(t.overrides_len(), 0);
        for k in 0..256u64 {
            assert_eq!(t.node_of(k), hash_node_of(k, 4));
        }
    }

    #[test]
    fn apply_moves_only_listed_keys_and_bumps_epoch() {
        let mut t = PlacementTable::new(4);
        let k = (0..64u64).find(|&k| hash_node_of(k, 4) != 2).unwrap();
        let e = t.apply(&[(k, 2)]);
        assert_eq!(e, 1);
        assert_eq!(t.node_of(k), 2);
        assert!(t.is_overridden(k));
        for other in 0..64u64 {
            if other != k {
                assert_eq!(t.node_of(other), hash_node_of(other, 4), "key {other}");
            }
        }
    }

    #[test]
    fn moving_home_clears_the_override() {
        let mut t = PlacementTable::new(4);
        let k = 7u64;
        let home = hash_node_of(k, 4);
        let away = (home + 1) % 4;
        t.apply(&[(k, away)]);
        assert_eq!(t.overrides_len(), 1);
        t.apply(&[(k, home)]);
        assert_eq!(t.overrides_len(), 0, "table stays minimal");
        assert_eq!(t.node_of(k), home);
        assert_eq!(t.epoch(), 2, "both applies bumped");
    }

    /// Same epoch ⇒ same routing: a table and its clone (same state,
    /// same epoch) route every key identically, and routing is a
    /// pure function (repeat lookups agree). 256 generated cases; a
    /// failure names the case seed, which replays it alone.
    #[test]
    fn same_epoch_same_routing() {
        for case in 0..256u64 {
            let mut rng = Rng::seed_from_u64(0x91AC_0000 + case);
            let nodes = 1 + rng.below(7) as usize;
            let moves: Vec<(u64, usize)> = (0..rng.below(32))
                .map(|_| (rng.below(500), rng.below(nodes as u64) as usize))
                .collect();
            let mut t = PlacementTable::new(nodes);
            t.apply(&moves);
            let clone = t.clone();
            assert_eq!(t.epoch(), clone.epoch(), "case {case}");
            for _ in 0..1 + rng.below(63) {
                let k = rng.below(1000);
                let n = t.node_of(k);
                assert!(n < nodes, "case {case}: key {k}");
                assert_eq!(
                    n,
                    clone.node_of(k),
                    "case {case}: clone diverged on key {k}"
                );
                assert_eq!(n, t.node_of(k), "case {case}: routing not pure on key {k}");
            }
        }
    }

    /// Epochs are strictly monotonic over applies (every shorter run is
    /// a prefix of this one).
    #[test]
    fn epoch_monotonic() {
        let mut t = PlacementTable::new(3);
        let mut last = t.epoch();
        for i in 0..16usize {
            let e = t.apply(&[(i as u64, i % 3)]);
            assert!(e > last, "apply {i}");
            last = e;
        }
    }
}
