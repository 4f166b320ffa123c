//! Replica promotion across the pool: recovery from pool-resident
//! durable bytes, no crash image shipped.
//!
//! With local PMem, a standby ([`oe_net::CheckpointReplica`]) must hold
//! (a handle to) the dead primary's media — operationally that means a
//! crash image crosses the network before recovery can even begin.
//! With the pool, the dead node's partition is *already* durable on the
//! other side of the fabric. Promotion therefore:
//!
//! 1. resolves the partition's in-flight fabric writes exactly like a
//!    power cut (flushed-but-unfenced lines land torn, seeded);
//! 2. runs the recovery scan + index rebuild **near the pool** on
//!    [`FabricConfig::near_pool_threads`] — zero per-slot fabric
//!    traffic (this is the checkpoint-decode offload);
//! 3. ships only the rebuilt index summary (16 bytes per live entry:
//!    key + slot) to the promoted node over the fabric;
//! 4. re-attaches the partition as a [`RemotePool`] backend and spawns
//!    the promoted server.
//!
//! The trainer-visible contract is identical to checkpoint-replica
//! failover: the timeline rewinds to the committed checkpoint and
//! replays bit-identically.

use crate::remote::{RemotePool, SharedPool};
use oe_core::{NodeConfig, PsNode};
use oe_net::failover::{recovery_burst_ns, spawn_promoted, Promotion, Standby};
use oe_net::{Error, ServerHandle};
use oe_pmem::scan::recover as pmem_recover;
use oe_simdevice::sync::Mutex;
use oe_simdevice::{Cost, CostKind, Media};
use std::sync::Arc;

/// Bytes shipped per recovered entry when the near-pool scan hands the
/// rebuilt index to the promoted node: key (8) + slot id (8).
const INDEX_SUMMARY_BYTES_PER_ENTRY: u64 = 16;

/// A standby whose state *is* the pool partition: promotes a dead
/// pool-backed PS by recovering near the pool and re-attaching.
pub struct PoolStandby {
    shared: Arc<SharedPool>,
    node_id: u64,
    cfg: NodeConfig,
    /// Server worker threads for the promoted node.
    service_threads: usize,
    /// Seed resolving the partition's torn in-flight lines.
    crash_seed: u64,
    /// Keeps the promoted server's workers alive.
    handle: Mutex<Option<ServerHandle>>,
}

impl PoolStandby {
    /// Build a standby for `node_id`'s partition of `shared`. `cfg`
    /// must match the primary's pool layout, as any recovery must.
    pub fn new(
        shared: Arc<SharedPool>,
        node_id: u64,
        cfg: NodeConfig,
        service_threads: usize,
        crash_seed: u64,
    ) -> Self {
        Self {
            shared,
            node_id,
            cfg,
            service_threads,
            crash_seed,
            handle: Mutex::new(None),
        }
    }
}

impl Standby for PoolStandby {
    fn promote(&self) -> Result<Promotion, Error> {
        let media = self
            .shared
            .partition_media(self.node_id)
            .ok_or_else(|| Error::rejected("node owns no pool partition"))?;
        // The node died mid-flight: writes it had pushed into the
        // fabric/pool buffers but not fenced resolve as torn lines,
        // exactly as local PMem resolves a power cut.
        let media = Arc::new(Media::from_crash(media.crash(self.crash_seed)));

        // Near-pool recovery: scan + prune + index rebuild execute on
        // compute adjacent to the pool, so nothing here crosses the
        // fabric per slot.
        let mut cost = Cost::new();
        let (pool, scan) = pmem_recover(Arc::clone(&media), &mut cost)
            .ok_or_else(|| Error::rejected("pool partition holds no initialized pool"))?;
        let mut recovery_ns = recovery_burst_ns(&cost, self.shared.fabric().near_pool_threads);

        // Only the rebuilt index summary crosses the link.
        let summary_bytes = (INDEX_SUMMARY_BYTES_PER_ENTRY * scan.live.len() as u64).max(64);
        let mut ship = Cost::new();
        self.shared.charge_read(summary_bytes, &mut ship);
        recovery_ns += ship.ns(CostKind::FabricTransfer);

        // Re-attach: the post-resolution bytes become the partition,
        // and the promoted node adopts the dead node's attachment.
        self.shared.replace_partition(self.node_id, media);
        let store: Arc<RemotePool> = Arc::new(self.shared.adopt(self.node_id, pool));
        let resume_batch = scan.checkpoint_id;
        let recovered_keys = scan.live.len();
        let node = PsNode::from_recovered_storage(self.cfg.clone(), store, &scan);

        let (transport, handle) = spawn_promoted(Arc::new(node), self.service_threads);
        *self.handle.lock() = Some(handle);
        Ok(Promotion {
            transport,
            resume_batch,
            recovery_ns,
            recovered_keys,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::FabricConfig;
    use oe_core::engine::PsEngine;
    use oe_core::OptimizerKind;
    use oe_pmem::PoolConfig;

    fn cfg() -> NodeConfig {
        let mut c = NodeConfig::small(4);
        c.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        c
    }

    fn pool_node(shared: &Arc<SharedPool>, node_id: u64) -> PsNode {
        let mut cost = Cost::new();
        let c = cfg();
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

    #[test]
    fn promotes_from_pool_resident_bytes_to_committed_checkpoint() {
        let shared = SharedPool::new(FabricConfig::default());
        let primary = pool_node(&shared, 7);
        let keys: Vec<u64> = (0..16).collect();
        step(&primary, &keys, 1);
        primary.request_checkpoint(1);
        step(&primary, &keys, 2); // commits 1 during maintenance
        step(&primary, &keys, 3); // uncommitted, lost with the node
        drop(primary); // node dies; partition survives in the pool

        let standby = PoolStandby::new(Arc::clone(&shared), 7, cfg(), 2, 99);
        let promo = standby.promote().expect("promotes from the pool");
        assert_eq!(promo.resume_batch, 1);
        assert_eq!(promo.recovered_keys, 16);
        assert!(promo.recovery_ns > 0);
        // The pool still carries exactly one attachment (adopted).
        assert_eq!(shared.attached(), 1);
    }

    #[test]
    fn unknown_partition_refuses_promotion() {
        let shared = SharedPool::new(FabricConfig::default());
        let standby = PoolStandby::new(shared, 42, cfg(), 1, 0);
        let err = standby.promote().unwrap_err();
        assert!(!err.is_retryable());
    }

    #[test]
    fn near_pool_recovery_beats_shipping_every_slot() {
        // The recovery charge must not scale with fabric-per-slot
        // traffic: it is a near-pool scan plus one summary ship.
        let shared = SharedPool::new(FabricConfig::default());
        let primary = pool_node(&shared, 1);
        let keys: Vec<u64> = (0..200).collect();
        step(&primary, &keys, 1);
        primary.request_checkpoint(1);
        step(&primary, &keys, 2);
        drop(primary);

        let standby = PoolStandby::new(Arc::clone(&shared), 1, cfg(), 1, 3);
        let promo = standby.promote().unwrap();
        // Upper bound: what shipping every live slot would charge on
        // the fabric alone (exclusive link), ignoring the scan.
        let link = shared.fabric().link;
        let slot_bytes = 64u64; // ≥ header+payload rounded for dim 4
        let ship_all: u64 = (0..promo.recovered_keys)
            .map(|_| link.read_ns(slot_bytes))
            .sum();
        assert!(
            promo.recovery_ns < ship_all * 4,
            "near-pool recovery {} should not look like per-slot shipping {}",
            promo.recovery_ns,
            ship_all
        );
    }
}
