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
//!
//! A [`PoolPartition`] is the partition seen as the home of a dead
//! node's durable bytes, for `core::recovery::restore`.

use oe_core::recovery::{scan_media, DurableHome, Settled};
use oe_core::StorageBackend;
use oe_pmem::{PmemPool, PoolConfig, SlotHeader, SlotId, HEADER_BYTES, ROOT_BYTES};
use oe_simdevice::sync::Mutex;
use oe_simdevice::{Cost, CostKind, DeviceTiming, Media, MediaConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// The fabric link into every pool (latency/bandwidth/congestion curve):
/// the same [`DeviceTiming::cxl_fabric`] that bounds a burst's fabric
/// bandwidth in `ContentionModel`.
const LINK: DeviceTiming = DeviceTiming::cxl_fabric();

/// Fabric parameters shared by everything attached to one pool.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Compute threads adjacent to the pool that checkpoint decode /
    /// recovery scans parallelize over (the near-pool offload).
    pub near_pool_threads: u32,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
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
        1.0 / LINK.concurrency_efficiency(self.attached().max(1))
    }

    /// Charge a fabric read of `bytes` (one round trip).
    fn charge_read(&self, bytes: u64, cost: &mut Cost) {
        let ns = (LINK.read_ns(bytes) as f64 * self.congestion()) as u64;
        cost.charge(CostKind::FabricTransfer, ns);
    }

    /// Charge a fabric write of `bytes` (posted write + completion).
    fn charge_write(&self, bytes: u64, cost: &mut Cost) {
        let ns = (LINK.write_ns(bytes) as f64 * self.congestion()) as u64;
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
}

/// Bytes shipped per recovered entry when the near-pool scan hands the
/// rebuilt index to the promoted node: key (8) + slot id (8).
const INDEX_SUMMARY_BYTES_PER_ENTRY: u64 = 16;

/// One node's partition of a [`SharedPool`] as the home of its durable
/// bytes. With local PMem a standby must hold the dead primary's media —
/// operationally, a crash image crosses the network before recovery
/// begins. Here the partition is *already* durable on the far side of
/// the fabric, so settling it:
///
/// 1. resolves the partition's in-flight fabric writes exactly like a
///    power cut (flushed-but-unfenced lines land torn, seeded);
/// 2. runs the scan + index rebuild **near the pool** on
///    [`FabricConfig::near_pool_threads`] — no per-slot fabric traffic
///    (the checkpoint-decode offload);
/// 3. ships only the rebuilt index summary (16 bytes per live entry) to
///    the promoted node over the fabric;
/// 4. installs the settled bytes as the partition and attaches the
///    promoted node to it as a [`RemotePool`].
///
/// A refusal — no such partition, no pool on it, a layout that does not
/// fit the config — happens before step 4 and leaves the pool as it was.
pub struct PoolPartition {
    shared: Arc<SharedPool>,
    node_id: u64,
}

impl PoolPartition {
    /// `node_id`'s partition of `shared`.
    pub fn new(shared: Arc<SharedPool>, node_id: u64) -> Self {
        Self { shared, node_id }
    }
}

impl DurableHome for PoolPartition {
    fn settle(&self, crash_seed: u64, payload_bytes: usize) -> Result<Settled, String> {
        let (shared, node_id) = (&self.shared, self.node_id);
        let partition = shared
            .partition_media(node_id)
            .ok_or_else(|| format!("the pool holds no partition {node_id}"))?;
        let media = Arc::new(Media::from_crash(partition.crash(crash_seed)));
        let mut cost = Cost::new();
        let (inner, scan) = scan_media(Arc::clone(&media), payload_bytes, &mut cost)?
            .ok_or_else(|| format!("pool partition {node_id} holds no initialized pool"))?;
        let summary_bytes = (INDEX_SUMMARY_BYTES_PER_ENTRY * scan.live.len() as u64).max(64);
        let mut ship = Cost::new();
        shared.charge_read(summary_bytes, &mut ship);

        shared.partitions.lock().insert(node_id, media);
        shared.attached.fetch_add(1, Ordering::Relaxed);
        let store = Arc::new(RemotePool {
            shared: Arc::clone(shared),
            node_id,
            inner,
        });
        let mut settled = Settled::new(store, scan, &cost, shared.fabric.near_pool_threads);
        settled.recovery_ns += ship.ns(CostKind::FabricTransfer);
        Ok(settled)
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

    /// A batched read is the pool's one-lock read plus one whole-slot
    /// fabric read per slot, as a `read_slot` loop charges.
    fn read_slots(&self, ids: &[SlotId], rows: &mut [f32], cost: &mut Cost) -> Result<(), usize> {
        let verdict = self.inner.read_slots(ids, rows, cost);
        for _ in ids {
            self.shared.charge_read(self.inner.slot_bytes(), cost);
        }
        verdict
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
    use oe_core::recovery::restore;
    use oe_core::{NodeConfig, OptimizerKind, PsEngine, PsNode};

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

    fn node_cfg() -> NodeConfig {
        let mut c = NodeConfig::small(4);
        c.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        c
    }

    fn pool_node(shared: &Arc<SharedPool>, node_id: u64) -> PsNode {
        let mut cost = Cost::new();
        let c = node_cfg();
        let store = shared.create_partition(
            node_id,
            PoolConfig {
                payload_bytes: c.payload_bytes(),
                capacity: c.pmem_capacity,
            },
            &mut cost,
        );
        PsNode::with_storage(c, Arc::new(store))
    }

    fn step(n: &PsNode, keys: &[u64], b: u64) {
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(keys, b, &mut out, &mut cost);
        n.end_pull_phase(b);
        n.push(keys, &vec![0.5; keys.len() * 4], b, &mut cost);
    }

    /// A partition trained over `keys` past committed checkpoint 1,
    /// whose node has died.
    fn orphaned_partition(shared: &Arc<SharedPool>, node_id: u64, keys: &[u64]) {
        let primary = pool_node(shared, node_id);
        step(&primary, keys, 1);
        primary.request_checkpoint(1);
        step(&primary, keys, 2); // commits 1 during maintenance
        step(&primary, keys, 3); // uncommitted, lost with the node
    }

    #[test]
    fn promotes_from_pool_resident_bytes_to_committed_checkpoint() {
        let shared = SharedPool::new(FabricConfig::default());
        orphaned_partition(&shared, 7, &(0..16).collect::<Vec<_>>());
        let home = PoolPartition::new(Arc::clone(&shared), 7);
        let r = restore(&home, node_cfg(), 99).expect("restores from the pool");
        // Pinned at the commit before the two standbys became one.
        assert_eq!(r.recovery_ns, 11_701);
        assert_eq!(r.report.resume_batch, 1);
        assert_eq!(r.report.scan.live.len(), 16);
        // The pool carries exactly one attachment: the restored node's.
        assert_eq!(shared.attached(), 1);
    }

    #[test]
    fn unknown_partition_refuses_promotion() {
        let shared = SharedPool::new(FabricConfig::default());
        let err = restore(&PoolPartition::new(shared, 42), node_cfg(), 0)
            .err()
            .expect("refused");
        assert!(err.contains("partition 42"), "{err}");
    }

    #[test]
    fn a_refused_layout_leaves_the_pool_untouched() {
        let shared = SharedPool::new(FabricConfig::default());
        orphaned_partition(&shared, 3, &[1, 2, 3]);
        let before = shared.partition_media(3).unwrap();
        let mut wrong = node_cfg();
        wrong.dim = 8;
        let err = restore(&PoolPartition::new(Arc::clone(&shared), 3), wrong, 5)
            .err()
            .expect("refused");
        assert!(err.contains("16-byte") && err.contains("32-byte"), "{err}");
        assert_eq!(shared.attached(), 0, "nothing attached");
        assert!(Arc::ptr_eq(&before, &shared.partition_media(3).unwrap()));
    }

    #[test]
    fn near_pool_recovery_beats_shipping_every_slot() {
        // The recovery charge must not scale with fabric-per-slot
        // traffic: it is a near-pool scan plus one summary ship.
        let shared = SharedPool::new(FabricConfig::default());
        orphaned_partition(&shared, 1, &(0..200).collect::<Vec<_>>());
        let r = restore(&PoolPartition::new(Arc::clone(&shared), 1), node_cfg(), 3).unwrap();
        // Upper bound: what shipping every live slot would charge on
        // the fabric alone (exclusive link), ignoring the scan.
        let slot_bytes = 64u64; // ≥ header+payload rounded for dim 4
        let ship_all: u64 = (0..r.report.scan.live.len())
            .map(|_| LINK.read_ns(slot_bytes))
            .sum();
        assert!(
            r.recovery_ns < ship_all * 4,
            "near-pool recovery {} should not look like per-slot shipping {}",
            r.recovery_ns,
            ship_all
        );
    }
}
