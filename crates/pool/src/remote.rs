//! The shared pool and the per-node [`StorageBackend`] arm over it.
//!
//! A [`SharedPool`] owns one PMem partition per attached node. The
//! partitions keep the exact slot layout and persistence-event protocol
//! of the local arm — `PmemPool` neither knows nor cares that its media
//! sits behind a fabric — so crash plans, torn-write resolution and the
//! recovery scan all behave identically. What changes is the *charge
//! stream*: [`RemotePool`] wraps every slot operation and adds the
//! fabric time for the bytes that crossed the link, inflated by a
//! congestion factor that grows with the number of attached nodes
//! (they share one link into the pool; see
//! [`DeviceTiming::concurrency_efficiency`]).

use oe_core::StorageBackend;
use oe_pmem::{PmemPool, PoolConfig, SlotHeader, SlotId, HEADER_BYTES, ROOT_BYTES};
use oe_simdevice::sync::Mutex;
use oe_simdevice::{Cost, CostKind, DeviceTiming, Media, MediaConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Fabric parameters shared by everything attached to one pool.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Link timing (latency/bandwidth/congestion curve). Defaults to
    /// [`DeviceTiming::cxl_fabric`].
    pub link: DeviceTiming,
    /// Compute threads adjacent to the pool that checkpoint decode /
    /// recovery scans parallelize over (the near-pool offload).
    pub near_pool_threads: u32,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            link: DeviceTiming::cxl_fabric(),
            near_pool_threads: 4,
        }
    }
}

/// A disaggregated PMem pool: one durable partition per attached node,
/// all reached over the same fabric link. The pool outlives any node —
/// that is the entire point — so partitions are owned here, not by the
/// `RemotePool` handles carved out of it.
pub struct SharedPool {
    fabric: FabricConfig,
    partitions: Mutex<HashMap<u64, Arc<Media>>>,
    /// Nodes currently attached; drives link-congestion inflation.
    attached: AtomicU32,
}

impl SharedPool {
    /// A fresh, empty pool.
    pub fn new(fabric: FabricConfig) -> Arc<Self> {
        Arc::new(Self {
            fabric,
            partitions: Mutex::new(HashMap::new()),
            attached: AtomicU32::new(0),
        })
    }

    /// The pool's fabric parameters.
    pub fn fabric(&self) -> &FabricConfig {
        &self.fabric
    }

    /// Nodes currently attached to the pool.
    pub fn attached(&self) -> u32 {
        self.attached.load(Ordering::Relaxed)
    }

    /// Congestion inflation on one node's exclusive-access link charge:
    /// the reciprocal of the link's efficiency at the current number of
    /// attached streams (1.0 when a single node owns the link).
    fn congestion(&self) -> f64 {
        1.0 / self
            .fabric
            .link
            .concurrency_efficiency(self.attached().max(1))
    }

    /// Charge a fabric read of `bytes` (one round trip).
    pub(crate) fn charge_read(&self, bytes: u64, cost: &mut Cost) {
        let ns = (self.fabric.link.read_ns(bytes) as f64 * self.congestion()) as u64;
        cost.charge(CostKind::FabricTransfer, ns);
    }

    /// Charge a fabric write of `bytes` (posted write + completion).
    pub(crate) fn charge_write(&self, bytes: u64, cost: &mut Cost) {
        let ns = (self.fabric.link.write_ns(bytes) as f64 * self.congestion()) as u64;
        cost.charge(CostKind::FabricTransfer, ns);
    }

    /// Create a fresh partition for `node_id` and attach to it. The
    /// partition media is PMem — same torn-write crash semantics as the
    /// local arm — and the pool-format root write crosses the fabric.
    ///
    /// Panics if the node already has a partition.
    pub fn create_partition(
        self: &Arc<Self>,
        node_id: u64,
        cfg: PoolConfig,
        cost: &mut Cost,
    ) -> RemotePool {
        let media = Arc::new(Media::new(MediaConfig::pmem(cfg.capacity)));
        {
            let mut g = self.partitions.lock();
            assert!(
                g.insert(node_id, Arc::clone(&media)).is_none(),
                "node {node_id} already owns a pool partition"
            );
        }
        self.attached.fetch_add(1, Ordering::Relaxed);
        let inner = PmemPool::create_on(media, cfg.payload_bytes, cost);
        self.charge_write(ROOT_BYTES, cost);
        RemotePool {
            shared: Arc::clone(self),
            node_id,
            inner,
        }
    }

    /// The durable media behind `node_id`'s partition, if any. This is
    /// what survives the node: standbys recover from it.
    pub fn partition_media(&self, node_id: u64) -> Option<Arc<Media>> {
        self.partitions.lock().get(&node_id).cloned()
    }

    /// Swap `node_id`'s partition for `media` (promotion installs the
    /// post-crash-resolution bytes here before re-attaching).
    pub(crate) fn replace_partition(&self, node_id: u64, media: Arc<Media>) {
        self.partitions.lock().insert(node_id, media);
    }

    /// Rewrap a recovered pool for `node_id` as a fresh attachment
    /// (promotion re-attaches; the dead node's handle releases its own
    /// attachment whenever it is finally dropped).
    pub(crate) fn adopt(self: &Arc<Self>, node_id: u64, inner: PmemPool) -> RemotePool {
        self.attached.fetch_add(1, Ordering::Relaxed);
        RemotePool {
            shared: Arc::clone(self),
            node_id,
            inner,
        }
    }
}

/// One node's view of the shared pool: the [`StorageBackend`] arm whose
/// slot operations traverse the fabric. Delegation first (identical
/// durable layout and media events), fabric surcharge second.
pub struct RemotePool {
    shared: Arc<SharedPool>,
    node_id: u64,
    inner: PmemPool,
}

impl RemotePool {
    /// The shared pool this partition belongs to.
    pub fn shared(&self) -> &Arc<SharedPool> {
        &self.shared
    }

    /// The owning node's id within the pool.
    pub fn node_id(&self) -> u64 {
        self.node_id
    }

    /// On-media footprint of one slot (what a slot read moves across
    /// the fabric).
    pub fn slot_bytes(&self) -> u64 {
        self.inner.slot_bytes()
    }
}

impl Drop for RemotePool {
    fn drop(&mut self) {
        let _ = self
            .shared
            .attached
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(1))
            });
    }
}

impl StorageBackend for RemotePool {
    fn pool(&self) -> &PmemPool {
        &self.inner
    }

    fn label(&self) -> &'static str {
        "pool"
    }

    /// Volatile bookkeeping stays node-local and free; only the durable
    /// high-water extension (detected by the PMem-write op delta)
    /// crosses the fabric.
    fn alloc(&self, cost: &mut Cost) -> SlotId {
        let writes_before = cost.ops(CostKind::PmemWrite);
        let id = self.inner.alloc(cost);
        if cost.ops(CostKind::PmemWrite) > writes_before {
            self.shared.charge_write(8, cost);
        }
        id
    }

    /// The durable free mark is one small fabric write.
    fn free(&self, id: SlotId, cost: &mut Cost) {
        self.inner.free(id, cost);
        self.shared.charge_write(4, cost);
    }

    /// Two-phase slot write = payload transfer + the 4-byte valid flip,
    /// each a fabric round trip (the flip cannot be posted behind the
    /// payload: its durability ordering is the crash-safety protocol).
    fn write_slot(&self, id: SlotId, key: u64, version: u64, payload: &[f32], cost: &mut Cost) {
        self.inner.write_slot(id, key, version, payload, cost);
        self.shared
            .charge_write(HEADER_BYTES + payload.len() as u64 * 4, cost);
        self.shared.charge_write(4, cost);
    }

    /// A slot read pulls the whole slot across the link.
    fn read_slot(&self, id: SlotId, out: &mut [f32], cost: &mut Cost) -> Option<SlotHeader> {
        let h = self.inner.read_slot(id, out, cost);
        self.shared.charge_read(self.inner.slot_bytes(), cost);
        h
    }

    /// Checkpoint commit: one 8-byte durable fabric write.
    fn set_checkpoint_id(&self, id: u64, cost: &mut Cost) {
        self.inner.set_checkpoint_id(id, cost);
        self.shared.charge_write(8, cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_cfg() -> PoolConfig {
        PoolConfig {
            payload_bytes: 32,
            capacity: 1 << 16,
        }
    }

    #[test]
    fn every_slot_op_charges_the_fabric() {
        let shared = SharedPool::new(FabricConfig::default());
        let mut cost = Cost::new();
        let store = shared.create_partition(1, pool_cfg(), &mut cost);
        let create_ops = cost.ops(CostKind::FabricTransfer);
        assert!(create_ops > 0, "pool format crosses the fabric");

        let id = store.alloc(&mut cost); // first alloc extends high water
        store.write_slot(id, 9, 1, &[1.5; 8], &mut cost);
        let mut out = [0f32; 8];
        store.read_slot(id, &mut out, &mut cost).unwrap();
        store.set_checkpoint_id(1, &mut cost);
        store.free(id, &mut cost);
        assert_eq!(out, [1.5; 8]);
        // create + hw-extend + (payload + flip) + read + ckpt + free
        assert_eq!(cost.ops(CostKind::FabricTransfer), create_ops + 6);
        assert!(cost.ns(CostKind::FabricTransfer) > 0);
    }

    #[test]
    fn delegated_media_stream_is_identical_to_local() {
        // The durable protocol under the fabric is byte-for-byte the
        // local one: same persistence events, same media bytes.
        let shared = SharedPool::new(FabricConfig::default());
        let mut rc = Cost::new();
        let remote = shared.create_partition(1, pool_cfg(), &mut rc);
        let mut lc = Cost::new();
        let local = PmemPool::create(pool_cfg(), &mut lc);

        let mut a = Cost::new();
        let mut b = Cost::new();
        let rid = remote.alloc(&mut a);
        let lid = local.alloc(&mut b);
        remote.write_slot(rid, 3, 2, &[0.5; 8], &mut a);
        local.write_slot(lid, 3, 2, &[0.5; 8], &mut b);
        assert_eq!(rid, lid);
        assert_eq!(
            remote.pool().media().persistence_events(),
            local.media().persistence_events()
        );
        // Non-fabric charges match exactly; fabric rides on top.
        for kind in [CostKind::PmemWrite, CostKind::PmemRead, CostKind::Cpu] {
            assert_eq!(a.ns(kind), b.ns(kind), "{kind:?}");
        }
        assert!(a.ns(CostKind::FabricTransfer) > 0);
        assert_eq!(b.ns(CostKind::FabricTransfer), 0);
    }

    #[test]
    fn congestion_inflates_with_attached_nodes() {
        let shared = SharedPool::new(FabricConfig::default());
        let mut cost = Cost::new();
        let solo = shared.create_partition(1, pool_cfg(), &mut cost);
        let mut one = Cost::new();
        solo.shared().charge_read(4096, &mut one);

        let _others: Vec<RemotePool> = (2..=8)
            .map(|i| shared.create_partition(i, pool_cfg(), &mut cost))
            .collect();
        let mut crowded = Cost::new();
        solo.shared().charge_read(4096, &mut crowded);
        assert!(
            crowded.ns(CostKind::FabricTransfer) > one.ns(CostKind::FabricTransfer),
            "8 attached nodes congest the link: {} vs {}",
            crowded.ns(CostKind::FabricTransfer),
            one.ns(CostKind::FabricTransfer)
        );
    }

    #[test]
    fn detach_releases_the_link() {
        let shared = SharedPool::new(FabricConfig::default());
        let mut cost = Cost::new();
        let a = shared.create_partition(1, pool_cfg(), &mut cost);
        let b = shared.create_partition(2, pool_cfg(), &mut cost);
        assert_eq!(shared.attached(), 2);
        drop(b);
        assert_eq!(shared.attached(), 1);
        // The partition itself survives detach: the pool owns it.
        assert!(shared.partition_media(2).is_some());
        drop(a);
        assert_eq!(shared.attached(), 0);
    }
}
