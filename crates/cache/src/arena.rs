//! Fixed-capacity DRAM slab holding the hot embedding entries.
//!
//! Storage is columnar: one flat `f32` buffer for all payloads plus
//! parallel `key`/`version` columns, so a cache of N entries costs exactly
//! `N * (payload + 16)` bytes with zero per-entry allocation — the cache
//! size knob in Fig. 8 maps directly to arena capacity.

use crate::{BatchId, Key};

const NIL: u32 = u32::MAX;

/// A slab of embedding entries in DRAM. Not internally synchronized:
/// the owning node wraps it in its lock (paper Algorithm 1/2 use a
/// reader-writer lock around the whole cache).
pub struct DramArena {
    payload_f32s: usize,
    payloads: Vec<f32>,
    keys: Vec<Key>,
    versions: Vec<BatchId>,
    /// Entry payload differs from its newest PMem copy (write-back
    /// cache: only dirty victims need a flush on eviction).
    dirty: Vec<bool>,
    /// Slot occupancy, for live-slot iteration (checkpoint drain).
    occupied: Vec<bool>,
    /// Intrusive free list threaded through `keys` storage is avoided for
    /// clarity: a simple stack of free slots.
    free: Vec<u32>,
    live: usize,
}

impl DramArena {
    /// An arena with room for `capacity` entries of `payload_f32s` floats.
    pub fn new(capacity: usize, payload_f32s: usize) -> Self {
        assert!(capacity > 0, "cache must hold at least one entry");
        assert!(capacity < NIL as usize, "capacity overflows slot index");
        Self {
            payload_f32s,
            payloads: vec![0.0; capacity * payload_f32s],
            keys: vec![0; capacity],
            versions: vec![0; capacity],
            dirty: vec![false; capacity],
            occupied: vec![false; capacity],
            free: (0..capacity as u32).rev().collect(),
            live: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// True when every slot is occupied (an insert requires an eviction).
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Payload length in `f32`s.
    pub fn payload_f32s(&self) -> usize {
        self.payload_f32s
    }

    /// DRAM bytes consumed by this arena (for cost/size reporting).
    pub fn bytes(&self) -> usize {
        self.payloads.len() * 4 + self.keys.len() * 16
    }

    /// Allocate a slot for `key` at `version`; payload is zeroed.
    /// Returns `None` when full (caller must evict first).
    pub fn insert(&mut self, key: Key, version: BatchId) -> Option<u32> {
        let slot = self.free.pop()?;
        self.keys[slot as usize] = key;
        self.versions[slot as usize] = version;
        self.dirty[slot as usize] = true; // nothing persisted yet
        self.occupied[slot as usize] = true;
        self.payload_mut(slot).fill(0.0);
        self.live += 1;
        Some(slot)
    }

    /// Iterate the currently occupied slots (checkpoint drain pass).
    pub fn iter_live(&self) -> impl Iterator<Item = u32> + '_ {
        self.occupied
            .iter()
            .enumerate()
            .filter(|(_, &o)| o)
            .map(|(i, _)| i as u32)
    }

    /// Whether the slot's payload has unpersisted changes.
    #[inline]
    pub fn is_dirty(&self, slot: u32) -> bool {
        self.dirty[slot as usize]
    }

    /// Mark the slot dirty (after a gradient update) or clean (after a
    /// flush to PMem or a load from PMem).
    #[inline]
    pub fn set_dirty(&mut self, slot: u32, dirty: bool) {
        self.dirty[slot as usize] = dirty;
    }

    /// Release a slot.
    pub fn remove(&mut self, slot: u32) {
        debug_assert!(!self.free.contains(&slot), "double free of arena slot");
        self.free.push(slot);
        self.occupied[slot as usize] = false;
        self.live -= 1;
    }

    /// Entry key at `slot`.
    #[inline]
    pub fn key(&self, slot: u32) -> Key {
        self.keys[slot as usize]
    }

    /// Entry version at `slot`.
    #[inline]
    pub fn version(&self, slot: u32) -> BatchId {
        self.versions[slot as usize]
    }

    /// Bump the entry version (maintainer sets it to the current batch).
    #[inline]
    pub fn set_version(&mut self, slot: u32, version: BatchId) {
        self.versions[slot as usize] = version;
    }

    /// Immutable payload view.
    #[inline]
    pub fn payload(&self, slot: u32) -> &[f32] {
        let s = slot as usize * self.payload_f32s;
        &self.payloads[s..s + self.payload_f32s]
    }

    /// Mutable payload view.
    #[inline]
    pub fn payload_mut(&mut self, slot: u32) -> &mut [f32] {
        let s = slot as usize * self.payload_f32s;
        &mut self.payloads[s..s + self.payload_f32s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_fill_and_exhaust() {
        let mut a = DramArena::new(2, 4);
        let s0 = a.insert(10, 1).unwrap();
        let s1 = a.insert(20, 2).unwrap();
        assert_ne!(s0, s1);
        assert!(a.insert(30, 3).is_none(), "full arena rejects inserts");
        assert!(a.is_full());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn payload_isolation() {
        let mut a = DramArena::new(3, 2);
        let s0 = a.insert(1, 0).unwrap();
        let s1 = a.insert(2, 0).unwrap();
        a.payload_mut(s0).copy_from_slice(&[1.0, 2.0]);
        a.payload_mut(s1).copy_from_slice(&[3.0, 4.0]);
        assert_eq!(a.payload(s0), &[1.0, 2.0]);
        assert_eq!(a.payload(s1), &[3.0, 4.0]);
    }

    #[test]
    fn remove_recycles_and_zeroes_on_reuse() {
        let mut a = DramArena::new(1, 2);
        let s = a.insert(7, 3).unwrap();
        a.payload_mut(s).copy_from_slice(&[9.0, 9.0]);
        a.remove(s);
        assert!(a.is_empty());
        let s2 = a.insert(8, 4).unwrap();
        assert_eq!(s2, s);
        assert_eq!(a.payload(s2), &[0.0, 0.0], "reused slot starts zeroed");
        assert_eq!(a.key(s2), 8);
        assert_eq!(a.version(s2), 4);
    }

    #[test]
    fn version_updates() {
        let mut a = DramArena::new(1, 1);
        let s = a.insert(1, 5).unwrap();
        a.set_version(s, 9);
        assert_eq!(a.version(s), 9);
    }

    #[test]
    fn bytes_accounting() {
        let a = DramArena::new(100, 64);
        assert_eq!(a.bytes(), 100 * 64 * 4 + 100 * 16);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        DramArena::new(0, 4);
    }
}
