//! Pooled per-request scratch arenas for the pull/push hot paths.
//!
//! Steady-state training issues millions of identically-shaped requests
//! (fixed batch size, fixed embedding dimension). Before this module,
//! every request paid a handful of heap allocations: the decoded key and
//! gradient vectors on the server, and one payload-sized scratch buffer
//! plus one gradient accumulator *per lane* on the node. A [`Scratch`]
//! bundles all of those per-request buffers into one arena; a
//! [`ScratchPool`] recycles arenas keyed by request shape so a shape
//! seen twice never allocates again (the `Vec`s keep their capacity
//! across uses — `clear()` is free).
//!
//! The pool is a small sharded-by-shape shelf behind one mutex: acquire
//! and release are two short critical sections per request (or per
//! lane), far from contended next to the work a request performs.
//! Bounded shelves keep a pathological shape churn from hoarding memory.

use crate::plan::ShardPlan;
use crate::storage::StorageBackend;
use crate::Key;
use oe_pmem::SlotId;
use oe_simdevice::sync::Mutex;
use oe_simdevice::Cost;
use std::ops::{Deref, DerefMut};

/// Most-distinct request shapes the pool remembers.
const MAX_SHAPES: usize = 16;
/// Arenas kept per shape (≥ the lane count of a planned request).
const MAX_PER_SHAPE: usize = 32;

/// The shape of a request, used as the pool key: how many keys it
/// carries and how many f32s ride along (gradients, payloads, output
/// rows). Shapes only key the shelf — an arena acquired under one shape
/// may be grown freely; its capacity survives back into the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Keys in the request (0 for lane-local scratch).
    pub keys: usize,
    /// f32 payload of the request (grads, weights out, …).
    pub f32s: usize,
}

impl Shape {
    /// Shape of a wire request: `keys` keys and `f32s` gradient/weight
    /// f32s.
    pub fn request(keys: usize, f32s: usize) -> Self {
        Self { keys, f32s }
    }

    /// Shape of one execution lane's scratch on a node with the given
    /// payload width (keys don't key lane scratch; every lane of every
    /// request reuses the same shelf).
    pub fn lane(payload_f32s: usize) -> Self {
        Self {
            keys: 0,
            f32s: payload_f32s,
        }
    }
}

/// One request's (or one lane's) worth of reusable buffers. All start
/// empty; users `clear()`-free extend/resize them. Which fields a code
/// path uses is up to it — unused fields cost nothing.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Decoded request keys.
    pub keys: Vec<Key>,
    /// Large f32 buffer: decoded gradients, pulled weights, or the
    /// batched-kernel payload rows of a contiguous PMem run.
    pub rows: Vec<f32>,
    /// Second large f32 buffer: gathered gradient rows for the batched
    /// kernel (lives beside `rows` so one arena serves both sides).
    pub grad_rows: Vec<f32>,
    /// One payload-sized (`dim + state`) read/write scratch row.
    pub payload: Vec<f32>,
    /// One dim-sized gradient accumulator (duplicate coalescing).
    pub acc: Vec<f32>,
    /// Per-unique outcome tags (pull lanes record hit/miss codes here).
    pub tags: Vec<u8>,
    /// Unique-key indices of the current batched-kernel run (push lanes
    /// collect contiguous PMem-resident rows here, then apply one
    /// multi-row kernel and flush in order).
    pub run: Vec<u32>,
    /// The slots a shard group or maintenance run reads, read ahead in
    /// one batch.
    pub ahead: ReadAhead,
    /// A planned request's shard plan; [`ShardPlan::rebuild`] reuses
    /// its buffers and dedup map, so it is not cleared here.
    pub plan: ShardPlan,
}

impl Scratch {
    fn clear(&mut self) {
        self.keys.clear();
        self.rows.clear();
        self.grad_rows.clear();
        self.payload.clear();
        self.acc.clear();
        self.tags.clear();
        self.run.clear();
        self.ahead.clear();
    }
}

/// Slot reads made ahead of their use: every slot a shard group or a
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
    shape: Shape,
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
            self.pool.release(self.shape, s);
        }
    }
}

/// Shape-keyed recycling pool of [`Scratch`] arenas.
#[derive(Debug, Default)]
pub struct ScratchPool {
    shelves: Mutex<Vec<(Shape, Vec<Scratch>)>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out an arena for `shape`: recycled if this shape has been
    /// seen (zero allocations), freshly default-constructed otherwise.
    pub fn acquire(&self, shape: Shape) -> PooledScratch<'_> {
        let recycled = {
            let mut shelves = self.shelves.lock();
            shelves
                .iter_mut()
                .find(|(s, _)| *s == shape)
                .and_then(|(_, v)| v.pop())
        };
        PooledScratch {
            pool: self,
            shape,
            inner: Some(recycled.unwrap_or_default()),
        }
    }

    fn release(&self, shape: Shape, scratch: Scratch) {
        let mut shelves = self.shelves.lock();
        if let Some((_, v)) = shelves.iter_mut().find(|(s, _)| *s == shape) {
            if v.len() < MAX_PER_SHAPE {
                v.push(scratch);
            }
            return;
        }
        if shelves.len() < MAX_SHAPES {
            shelves.push((shape, vec![scratch]));
        }
        // Shape table full: let the arena drop. A workload cycling
        // through more than MAX_SHAPES shapes is not steady-state.
    }

    /// Arenas currently parked (test/diagnostic visibility).
    pub fn parked(&self) -> usize {
        self.shelves.lock().iter().map(|(_, v)| v.len()).sum()
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
        let shape = Shape::request(128, 4096);
        let keys_ptr;
        {
            let mut s = pool.acquire(shape);
            s.keys.extend(0..128u64);
            s.rows.resize(4096, 0.0);
            keys_ptr = s.keys.as_ptr();
        }
        assert_eq!(pool.parked(), 1);
        let s = pool.acquire(shape);
        assert!(s.keys.is_empty() && s.rows.is_empty(), "cleared on return");
        assert!(s.keys.capacity() >= 128, "capacity retained");
        assert_eq!(s.keys.as_ptr(), keys_ptr, "same allocation reused");
    }

    #[test]
    fn shapes_do_not_mix() {
        let pool = ScratchPool::new();
        {
            let mut a = pool.acquire(Shape::request(8, 64));
            a.rows.resize(64, 1.0);
        }
        // A different shape gets a fresh arena; the first stays parked.
        let b = pool.acquire(Shape::lane(40));
        assert!(b.rows.is_empty());
        assert_eq!(pool.parked(), 1);
    }

    #[test]
    fn shelves_are_bounded() {
        let pool = ScratchPool::new();
        for i in 0..2 * MAX_SHAPES {
            let _ = pool.acquire(Shape::request(i, i));
        }
        assert!(pool.parked() <= MAX_SHAPES * MAX_PER_SHAPE);
        // A shape arriving after the table is full is simply dropped.
        assert!(pool
            .shelves
            .lock()
            .iter()
            .all(|(s, _)| *s != Shape::lane(8)));
        // Same shape many times in flight at once: shelf caps at
        // MAX_PER_SHAPE on the way back.
        let pool = ScratchPool::new();
        let held: Vec<_> = (0..2 * MAX_PER_SHAPE)
            .map(|_| pool.acquire(Shape::lane(8)))
            .collect();
        drop(held);
        let lane_parked = pool
            .shelves
            .lock()
            .iter()
            .find(|(s, _)| *s == Shape::lane(8))
            .map(|(_, v)| v.len())
            .unwrap();
        assert_eq!(lane_parked, MAX_PER_SHAPE);
    }
}
