//! Pooled per-request scratch arenas for the pull/push hot paths.
//!
//! Every request needs a handful of buffers: the decoded key and
//! gradient vectors on the server, the request plan, the pulled rows and
//! a payload-sized row on the node. A [`Scratch`] bundles all of them
//! into one arena; a [`ScratchPool`] is one bounded shelf of arenas, so
//! a request takes the arena the last one returned and allocates only
//! when it is larger than any before it (the `Vec`s keep their
//! capacity across uses — `clear()` is free). Arenas are not sorted by
//! request size: a server burst's key count changes from call to call,
//! and an arena grown for one size serves every smaller one.
//!
//! The shelf sits behind one mutex: acquire and release are two short
//! critical sections per request, far from contended next to the work
//! a request performs. The bound keeps a burst of concurrent requests
//! from parking more arenas than steady state reuses.

use crate::plan::ShardPlan;
use crate::storage::StorageBackend;
use crate::Key;
use oe_pmem::SlotId;
use oe_simdevice::sync::Mutex;
use oe_simdevice::Cost;
use std::ops::{Deref, DerefMut};

/// Arenas the shelf keeps; one more returned is dropped.
const MAX_PARKED: usize = 32;

/// One request's worth of reusable buffers. All start empty; users
/// extend/resize them. Which fields a code path uses is up to it —
/// unused fields cost nothing.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Decoded request keys.
    pub keys: Vec<Key>,
    /// Large f32 buffer: decoded gradients, or pulled weights (one row
    /// per unique key of a planned pull).
    pub rows: Vec<f32>,
    /// One payload-sized (`dim + state`) read/write scratch row.
    pub payload: Vec<f32>,
    /// One dim-sized gradient accumulator (duplicate coalescing).
    pub acc: Vec<f32>,
    /// Per-unique outcome tags (a planned pull records hit/miss codes
    /// here).
    pub tags: Vec<u8>,
    /// The slots a planned request or maintenance run reads, read ahead in
    /// one batch.
    pub ahead: ReadAhead,
    /// A planned request's plan; [`ShardPlan::rebuild`] reuses
    /// its buffers and dedup map, so it is not cleared here.
    pub plan: ShardPlan,
}

impl Scratch {
    fn clear(&mut self) {
        self.keys.clear();
        self.rows.clear();
        self.payload.clear();
        self.acc.clear();
        self.tags.clear();
        self.ahead.clear();
    }
}

/// Slot reads made ahead of their use: every slot a planned request or a
/// maintenance run will certainly read goes out in one
/// [`StorageBackend::read_slots`], and the rows are handed out in
/// position order. A row is handed out only to the position and the
/// slot it was read for, so a caller whose key has moved since reads
/// for itself. Each slot is read at most once per round, for the first
/// position that plans it: a read ahead is charged like any other, so
/// it must be one the caller would have made.
#[derive(Debug, Default)]
pub struct ReadAhead {
    /// Position (unique or run index) each slot is read for, ascending.
    at: Vec<u32>,
    /// The slots, in the same order.
    ids: Vec<SlotId>,
    /// One payload row per slot.
    rows: Vec<f32>,
    /// One bit per slot id planned this round.
    planned: Vec<u64>,
    /// Payload `f32`s per row.
    stride: usize,
    /// Next entry to hand out.
    next: usize,
}

impl ReadAhead {
    /// Forget the round: nothing planned, nothing to hand out.
    pub fn clear(&mut self) {
        for id in &self.ids {
            self.planned[(id.0 / 64) as usize] = 0;
        }
        self.at.clear();
        self.ids.clear();
        self.rows.clear();
        self.next = 0;
    }

    /// True if the round plans no read.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Read `slot` for position `at` (positions ascend within a round),
    /// unless the round already reads it.
    pub fn plan(&mut self, at: u32, slot: SlotId) {
        let (word, bit) = ((slot.0 / 64) as usize, 1u64 << (slot.0 % 64));
        if self.planned.len() <= word {
            self.planned.resize(word + 1, 0);
        }
        if self.planned[word] & bit == 0 {
            self.planned[word] |= bit;
            self.at.push(at);
            self.ids.push(slot);
        }
    }

    /// Read every planned slot in one batch. Panics if one is not
    /// valid: only indexed slots are planned.
    pub fn read(&mut self, store: &dyn StorageBackend, cost: &mut Cost) {
        self.stride = store.pool().payload_f32s();
        if self.ids.is_empty() {
            return;
        }
        self.rows.resize(self.ids.len() * self.stride, 0.0);
        if let Err(i) = store.read_slots(&self.ids, &mut self.rows, cost) {
            panic!("indexed slot {:?} is not valid", self.ids[i]);
        }
    }

    /// Every row read, with the position it was read for (after
    /// [`Self::read`]).
    pub fn rows(&self) -> impl Iterator<Item = (u32, &[f32])> {
        self.at
            .iter()
            .copied()
            .zip(self.rows.chunks_exact(self.stride))
    }

    /// The row read for position `at` from `slot`, if there is one.
    /// Calls come in ascending position order.
    pub fn take(&mut self, at: u32, slot: SlotId) -> Option<&[f32]> {
        while self.at.get(self.next).is_some_and(|&a| a < at) {
            self.next += 1;
        }
        let i = self.next;
        if self.at.get(i) != Some(&at) || self.ids[i] != slot {
            return None;
        }
        self.next += 1;
        Some(&self.rows[i * self.stride..(i + 1) * self.stride])
    }
}

/// A [`Scratch`] checked out of a [`ScratchPool`]; returns itself to
/// the pool (cleared, capacity intact) on drop.
pub struct PooledScratch<'a> {
    pool: &'a ScratchPool,
    inner: Option<Scratch>,
}

impl Deref for PooledScratch<'_> {
    type Target = Scratch;
    fn deref(&self) -> &Scratch {
        self.inner.as_ref().expect("live until drop")
    }
}

impl DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut Scratch {
        self.inner.as_mut().expect("live until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(mut s) = self.inner.take() {
            s.clear();
            self.pool.release(s);
        }
    }
}

/// A bounded shelf of recycled [`Scratch`] arenas.
#[derive(Debug, Default)]
pub struct ScratchPool {
    shelf: Mutex<Vec<Scratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out an arena: the one returned last if any is parked,
    /// freshly default-constructed otherwise.
    pub fn acquire(&self) -> PooledScratch<'_> {
        let recycled = self.shelf.lock().pop();
        PooledScratch {
            pool: self,
            inner: Some(recycled.unwrap_or_default()),
        }
    }

    fn release(&self, scratch: Scratch) {
        let mut shelf = self.shelf.lock();
        if shelf.len() < MAX_PARKED {
            shelf.push(scratch);
        }
    }

    /// Arenas currently parked (test/diagnostic visibility).
    pub fn parked(&self) -> usize {
        self.shelf.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::LocalPmem;
    use oe_pmem::PoolConfig;
    use oe_simdevice::CostKind;

    #[test]
    fn read_ahead_hands_each_row_to_its_position_and_slot_once() {
        let mut cost = Cost::new();
        let cfg = PoolConfig {
            payload_bytes: 8,
            capacity: 1 << 12,
        };
        let store = LocalPmem::create(cfg, &mut cost);
        let ids: Vec<SlotId> = (0..4u64)
            .map(|k| {
                let id = store.alloc(&mut cost);
                store.write_slot(id, k, 1, &[k as f32, -(k as f32)], &mut cost);
                id
            })
            .collect();
        let mut ahead = ReadAhead::default();
        ahead.plan(0, ids[2]);
        ahead.plan(1, ids[0]);
        ahead.plan(3, ids[2]); // read this round already: not again
        ahead.plan(5, ids[3]);
        let mut reads = Cost::new();
        ahead.read(&store, &mut reads);
        assert_eq!(reads.ops(CostKind::PmemRead), 3);
        assert_eq!(ahead.take(0, ids[2]), Some(&[2.0, -2.0][..]));
        assert_eq!(ahead.take(1, ids[1]), None, "read from another slot");
        assert_eq!(ahead.take(3, ids[2]), None, "read for position 0 only");
        assert_eq!(ahead.take(5, ids[3]), Some(&[3.0, -3.0][..]));
        assert_eq!(ahead.take(5, ids[3]), None, "handed out once");

        ahead.clear();
        ahead.plan(0, ids[2]);
        let mut reads = Cost::new();
        ahead.read(&store, &mut reads);
        assert_eq!(reads.ops(CostKind::PmemRead), 1, "a new round reads again");
        assert_eq!(ahead.rows().collect::<Vec<_>>(), [(0, &[2.0, -2.0][..])]);
    }

    #[test]
    fn capacity_survives_the_pool() {
        let pool = ScratchPool::new();
        let keys_ptr;
        {
            let mut s = pool.acquire();
            s.keys.extend(0..128u64);
            s.rows.resize(4096, 0.0);
            keys_ptr = s.keys.as_ptr();
        }
        assert_eq!(pool.parked(), 1);
        let s = pool.acquire();
        assert!(s.keys.is_empty() && s.rows.is_empty(), "cleared on return");
        assert!(s.keys.capacity() >= 128, "capacity retained");
        assert_eq!(s.keys.as_ptr(), keys_ptr, "same allocation reused");
    }

    /// A server burst's key count changes from call to call: requests
    /// of many sizes, one at a time, keep reusing one arena.
    #[test]
    fn one_arena_serves_every_request_size() {
        let pool = ScratchPool::new();
        let (keys_ptr, rows_ptr) = {
            let mut s = pool.acquire();
            s.keys.reserve(64);
            s.rows.reserve(64 * 8);
            (s.keys.as_ptr(), s.rows.as_ptr())
        };
        for n in 1..=40u64 {
            let mut s = pool.acquire();
            assert_eq!(s.keys.as_ptr(), keys_ptr, "request of {n} keys");
            assert_eq!(s.rows.as_ptr(), rows_ptr, "request of {n} keys");
            s.keys.extend(0..n);
            s.rows.resize(n as usize * 8, 1.0);
        }
        assert_eq!(pool.parked(), 1);
    }

    #[test]
    fn parked_arenas_are_bounded() {
        let pool = ScratchPool::new();
        let held: Vec<_> = (0..2 * MAX_PARKED).map(|_| pool.acquire()).collect();
        assert_eq!(pool.parked(), 0, "every arena is out");
        drop(held);
        assert_eq!(pool.parked(), MAX_PARKED);
    }
}
