//! The DRAM hash index mapping keys to tagged locations.
//!
//! One [`IndexEntry`] per known key: where the entry lives right now
//! (DRAM slot or newest PMem slot, via [`TaggedLoc`]), its version, and
//! the retained PMem [`VersionChain`]. The index is the structure
//! rebuilt by recovery (paper §V-C step 2).

use crate::chain::VersionChain;
use crate::keymap::{KeyMap, KeyState};
use crate::tagged::TaggedLoc;
use crate::{BatchId, Key};
use oe_pmem::SlotId;

/// Index record for one embedding key.
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// Current authoritative location of the weights.
    pub loc: TaggedLoc,
    /// Batch id of the last access/update (mirrors the arena version when
    /// cached; equals the newest PMem version when not).
    pub version: BatchId,
    /// PMem slots still retained for this key (checkpoint protection).
    pub chain: VersionChain,
}

/// Hash index over embedding keys. Wrapped in the node lock by `oe-core`;
/// not internally synchronized.
#[derive(Default)]
pub struct HashIndex {
    map: KeyMap<IndexEntry>,
}

impl HashIndex {
    /// An empty index with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            map: KeyMap::with_capacity_and_hasher(capacity, KeyState::new()),
        }
    }

    /// Number of known keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no key is known.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up a key.
    #[inline]
    pub fn get(&self, key: Key) -> Option<&IndexEntry> {
        self.map.get(&key)
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, key: Key) -> Option<&mut IndexEntry> {
        self.map.get_mut(&key)
    }

    /// Insert a brand-new key living in DRAM (Algorithm 1 lines 6-12).
    pub fn insert_new_dram(&mut self, key: Key, dram_slot: u32, version: BatchId) {
        let prev = self.map.insert(
            key,
            IndexEntry {
                loc: TaggedLoc::dram(dram_slot),
                version,
                chain: VersionChain::new(),
            },
        );
        debug_assert!(prev.is_none(), "key {key} already indexed");
    }

    /// Insert a key recovered from a PMem slot (recovery rebuild).
    pub fn insert_recovered(&mut self, key: Key, slot: SlotId, version: BatchId) {
        let mut chain = VersionChain::new();
        chain.push(slot, version);
        self.map.insert(
            key,
            IndexEntry {
                loc: TaggedLoc::pmem(slot),
                version,
                chain,
            },
        );
    }

    /// Iterate all entries (reporting / invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &IndexEntry)> {
        self.map.iter()
    }

    /// Mutable iteration (checkpoint drain).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&Key, &mut IndexEntry)> {
        self.map.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_dram_key() {
        let mut idx = HashIndex::with_capacity(4);
        idx.insert_new_dram(42, 7, 1);
        let e = idx.get(42).unwrap();
        assert_eq!(e.loc.as_dram(), Some(7));
        assert_eq!(e.version, 1);
        assert!(e.chain.is_empty());
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn recovered_key_points_to_pmem_with_chain() {
        let mut idx = HashIndex::default();
        idx.insert_recovered(9, SlotId(3), 5);
        let e = idx.get(9).unwrap();
        assert_eq!(e.loc.as_pmem(), Some(SlotId(3)));
        assert_eq!(e.chain.newest(), Some((SlotId(3), 5)));
    }

    #[test]
    fn missing_key_is_none() {
        let idx = HashIndex::default();
        assert!(idx.get(1).is_none());
        assert!(idx.is_empty());
    }

    #[test]
    fn get_mut_allows_relocation() {
        let mut idx = HashIndex::default();
        idx.insert_new_dram(1, 0, 0);
        {
            let e = idx.get_mut(1).unwrap();
            e.loc = TaggedLoc::pmem(SlotId(11));
            e.version = 3;
            e.chain.push(SlotId(11), 3);
        }
        let e = idx.get(1).unwrap();
        assert!(!e.loc.is_dram());
        assert_eq!(e.version, 3);
    }
}
