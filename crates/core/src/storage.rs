//! The storage-backend seam: where a [`PsNode`]'s durable slots live.
//!
//! The paper's Table V price-performance argument — and TrainingCXL's
//! disaggregated extension of it — hinge on *where* embedding state
//! physically resides. [`StorageBackend`] makes that a pluggable axis:
//! the node charges every slot operation through the trait, so a media
//! topology is one impl, not a node rewrite.
//!
//! Three arms ship:
//!
//! - [`LocalPmem`]: today's path — a [`PmemPool`] over local Optane
//!   media. The trait methods delegate straight to the pool, so this
//!   arm is **bit-identical** to the pre-trait node (the crashmc sweep
//!   runs unchanged against it).
//! - [`DramStore`]: the volatile baseline — the same pool layout over
//!   DRAM media. Fast, but a crash loses everything (the recovery
//!   tests demonstrate exactly that).
//! - `RemotePool` (in the `oe-pool` crate): the pool layout over
//!   fabric-attached PMem shared by many nodes, with every operation
//!   paying a fabric surcharge and recovery running *near the pool*.
//!
//! Recovery follows the same axis. A dead node's durable bytes have a
//! [`DurableHome`] — [`LocalMedia`] for the local arm, the pool partition
//! for the remote one — and one routine, [`restore`], settles, scans and
//! rebuilds from either; the home decides only where the scan runs and
//! which backend the recovered node writes through. DRAM has no home:
//! its bytes die with the node.
//!
//! [`PsNode`]: crate::node::PsNode
//! [`DurableHome`]: crate::recovery::DurableHome
//! [`LocalMedia`]: crate::recovery::LocalMedia
//! [`restore`]: crate::recovery::restore

use oe_pmem::{PmemPool, PoolConfig, SlotHeader, SlotId};
use oe_simdevice::{Cost, Media, MediaConfig};
use std::sync::Arc;

/// Where a node's durable slots live. Every slot operation the node
/// performs goes through these methods; the default bodies delegate to
/// the wrapped [`PmemPool`] unchanged, so an arm that adds no transport
/// cost (local PMem, DRAM) is charge-for-charge identical to calling
/// the pool directly.
///
/// Arms that interpose a transport (the remote pool) override the five
/// slot ops to add their surcharges *around* the delegated call — the
/// pool's own media events stay identical, which is what keeps
/// recovery and crash enumeration honest across arms.
pub trait StorageBackend: Send + Sync {
    /// The slot pool this backend wraps. Crash tooling, recovery and
    /// telemetry reach the media through here.
    fn pool(&self) -> &PmemPool;

    /// Stable short name for reports ("pmem", "dram", "pool").
    fn label(&self) -> &'static str;

    /// Allocate a slot.
    fn alloc(&self, cost: &mut Cost) -> SlotId {
        self.pool().alloc(cost)
    }

    /// Durably mark a slot free.
    fn free(&self, id: SlotId, cost: &mut Cost) {
        self.pool().free(id, cost)
    }

    /// Two-phase durable slot write (payload then valid-flip).
    fn write_slot(&self, id: SlotId, key: u64, version: u64, payload: &[f32], cost: &mut Cost) {
        self.pool().write_slot(id, key, version, payload, cost)
    }

    /// Read a slot's payload; `None` if the slot is not valid.
    fn read_slot(&self, id: SlotId, out: &mut [f32], cost: &mut Cost) -> Option<SlotHeader> {
        self.pool().read_slot(id, out, cost)
    }

    /// Durably advance the Checkpointed Batch ID in the pool root.
    fn set_checkpoint_id(&self, id: u64, cost: &mut Cost) {
        self.pool().set_checkpoint_id(id, cost)
    }

    /// [`Self::read_slot`] of every slot of `ids`, the i-th payload into
    /// the i-th payload-sized row of `rows`. Every slot is read and
    /// charged whatever its verdict; a row whose slot is not valid is
    /// left as it was, and the first such index is the error.
    ///
    /// The default is that loop, through `self`: an arm or decorator
    /// that overrides only the five per-slot ops keeps every charge it
    /// adds to a read. Arms whose reads batch override it.
    fn read_slots(&self, ids: &[SlotId], rows: &mut [f32], cost: &mut Cost) -> Result<(), usize> {
        let stride = self.pool().payload_f32s();
        assert_eq!(rows.len(), ids.len() * stride);
        let mut first_bad = None;
        for (i, (&id, row)) in ids.iter().zip(rows.chunks_exact_mut(stride)).enumerate() {
            if self.read_slot(id, row, cost).is_none() {
                first_bad.get_or_insert(i);
            }
        }
        first_bad.map_or(Ok(()), Err)
    }
}

/// Local Optane PMem — the paper's configuration and the bit-identical
/// default. Delegation only: the one override sends a batched read to
/// the pool's one-lock [`PmemPool::read_slots`].
pub struct LocalPmem {
    pool: PmemPool,
}

impl LocalPmem {
    /// Wrap an existing pool (freshly created or recovered).
    pub fn new(pool: PmemPool) -> Self {
        Self { pool }
    }

    /// Create a fresh pool on new PMem media.
    pub fn create(cfg: PoolConfig, cost: &mut Cost) -> Self {
        Self::new(PmemPool::create(cfg, cost))
    }
}

impl StorageBackend for LocalPmem {
    fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn label(&self) -> &'static str {
        "pmem"
    }

    fn read_slots(&self, ids: &[SlotId], rows: &mut [f32], cost: &mut Cost) -> Result<(), usize> {
        self.pool.read_slots(ids, rows, cost)
    }
}

/// Volatile DRAM baseline: the same slot layout over DRAM media.
/// Stores apply directly (no flush events), reads charge DRAM time —
/// and a crash wipes the lot, so "recovery" restores an empty node.
pub struct DramStore {
    pool: PmemPool,
}

impl DramStore {
    /// Create a fresh pool over new DRAM media sized like `cfg`.
    pub fn create(cfg: PoolConfig, cost: &mut Cost) -> Self {
        let media = Arc::new(Media::new(MediaConfig::dram(cfg.capacity)));
        Self {
            pool: PmemPool::create_on(media, cfg.payload_bytes, cost),
        }
    }
}

impl StorageBackend for DramStore {
    fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn label(&self) -> &'static str {
        "dram"
    }

    fn read_slots(&self, ids: &[SlotId], rows: &mut [f32], cost: &mut Cost) -> Result<(), usize> {
        self.pool.read_slots(ids, rows, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_simdevice::{CostKind, DeviceKind};

    fn cfg() -> PoolConfig {
        PoolConfig {
            payload_bytes: 32,
            capacity: 64,
        }
    }

    /// The local arm's charge stream is the pool's own, untouched:
    /// same ops, same nanoseconds, same media event count.
    #[test]
    fn local_arm_is_bit_identical_to_direct_pool_use() {
        let mut direct_cost = Cost::new();
        let direct = PmemPool::create(cfg(), &mut direct_cost);
        let mut trait_cost = Cost::new();
        let backend = LocalPmem::create(cfg(), &mut trait_cost);
        assert_eq!(direct_cost, trait_cost);

        let mut a = Cost::new();
        let id = direct.alloc(&mut a);
        direct.write_slot(id, 7, 3, &[1.0; 8], &mut a);
        let mut out = [0f32; 8];
        direct.read_slot(id, &mut out, &mut a).unwrap();
        direct.set_checkpoint_id(3, &mut a);
        direct.free(id, &mut a);

        let mut b = Cost::new();
        let tid = backend.alloc(&mut b);
        backend.write_slot(tid, 7, 3, &[1.0; 8], &mut b);
        let mut tout = [0f32; 8];
        backend.read_slot(tid, &mut tout, &mut b).unwrap();
        backend.set_checkpoint_id(3, &mut b);
        backend.free(tid, &mut b);

        assert_eq!(id, tid);
        assert_eq!(out, tout);
        assert_eq!(a, b);
        assert_eq!(
            direct.media().persistence_events(),
            backend.pool().media().persistence_events()
        );
    }

    /// DRAM arm: correct reads while up, zero PMem charges, nothing
    /// durable after a crash.
    #[test]
    fn dram_arm_is_volatile_and_charges_dram() {
        let mut cost = Cost::new();
        let backend = DramStore::create(cfg(), &mut cost);
        assert_eq!(backend.pool().media().timing().kind, DeviceKind::Dram);

        let id = backend.alloc(&mut cost);
        backend.write_slot(id, 42, 1, &[2.5; 8], &mut cost);
        let mut out = [0f32; 8];
        let h = backend.read_slot(id, &mut out, &mut cost).unwrap();
        assert_eq!(h.key, 42);
        assert_eq!(out, [2.5; 8]);
        assert_eq!(cost.ns(CostKind::PmemWrite), 0);
        assert_eq!(cost.ns(CostKind::PmemRead), 0);
        assert!(cost.ns(CostKind::DramTransfer) > 0);

        let image = backend.pool().media().crash(1);
        assert!(image.bytes().iter().all(|&b| b == 0), "DRAM crash wipes");
    }
}
