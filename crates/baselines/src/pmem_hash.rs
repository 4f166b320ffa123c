//! PMem-Hash: a persistent concurrent hash map used directly as the
//! parameter-server store (paper §III-B / Fig. 3/15, built there from
//! Intel's `libpmemobj-cpp`). Every pull is a PMem read, every push a
//! PMem read-modify-write with full flush — plus the software overhead
//! of a PMem-aware data structure (allocator transactions, fenced
//! metadata). No DRAM cache, no pipeline.
//!
//! This is the configuration the paper uses to show that naively
//! swapping DRAM for PMem costs 1.16×–3.17× at 4–16 GPUs (Fig. 3).

use oe_cache::KeyMap;
use oe_core::config::{HASH_PROBE_NS, INIT_ENTRY_NS, INIT_SCALE, OPT_FLOP_NS_PER_F32};
use oe_core::engine::{MaintenanceReport, PsEngine};
use oe_core::init::init_payload;
use oe_core::optimizer::Optimizer;
use oe_core::stats::{EngineStats, StatsSnapshot};
use oe_core::{BatchId, Key, NodeConfig};
use oe_pmem::{PmemPool, PoolConfig, SlotId};
use oe_simdevice::sync::RwLock;
use oe_simdevice::{Cost, CostKind};
use std::sync::atomic::{AtomicU64, Ordering};

/// Extra per-operation CPU cost of the PMem-aware structure (allocator
/// transaction bookkeeping, persistent metadata fences) relative to a
/// plain DRAM hash (ns).
const PMEM_STRUCT_OVERHEAD_NS: u64 = 180;

/// Dependent PMem reads per lookup beyond the slot itself: a
/// `libpmemobj`-style hash walks persistent bucket metadata and chain
/// nodes (pointer chasing in PMem), unlike OpenEmbedding's DRAM index
/// which resolves the exact slot offset in one hop.
const CHAIN_HOPS: u64 = 3;

/// The PMem-native hash-store baseline.
pub struct PmemHash {
    cfg: NodeConfig,
    opt: Optimizer,
    pool: PmemPool,
    index: RwLock<KeyMap<SlotId>>,
    committed: AtomicU64,
    stats: EngineStats,
}

impl PmemHash {
    /// Create an empty store.
    pub fn new(cfg: NodeConfig) -> Self {
        cfg.validate();
        let mut cost = Cost::new();
        let pool = PmemPool::create(
            PoolConfig {
                payload_bytes: cfg.payload_bytes(),
                capacity: cfg.pmem_capacity,
            },
            &mut cost,
        );
        Self {
            opt: cfg.optimizer.build(),
            pool,
            index: RwLock::new(KeyMap::default()),
            committed: AtomicU64::new(0),
            stats: EngineStats::default(),
            cfg,
        }
    }

    /// The backing pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }
}

impl PsEngine for PmemHash {
    fn name(&self) -> &'static str {
        "PMem-Hash"
    }

    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn pull(&self, keys: &[Key], batch: BatchId, out: &mut Vec<f32>, cost: &mut Cost) {
        let dim = self.cfg.dim;
        out.reserve(keys.len() * dim);
        let mut scratch = vec![0f32; self.cfg.payload_f32s()];
        let pmem = oe_simdevice::DeviceTiming::pmem();
        for &key in keys {
            cost.charge(CostKind::Cpu, HASH_PROBE_NS + PMEM_STRUCT_OVERHEAD_NS);
            // Bucket walk: dependent small reads through PMem.
            cost.charge(CostKind::PmemRead, CHAIN_HOPS * pmem.read_ns(64));
            let slot = self.index.read().get(&key).copied();
            match slot {
                Some(slot) => {
                    self.pool
                        .read_slot(slot, &mut scratch, cost)
                        .expect("indexed slot valid");
                    out.extend_from_slice(&scratch[..dim]);
                    EngineStats::add(&self.stats.misses, 1); // every read hits PMem
                }
                None => {
                    init_payload(self.cfg.seed, key, INIT_SCALE, dim, &mut scratch);
                    let slot = self.pool.alloc(cost);
                    self.pool.write_slot(slot, key, batch, &scratch, cost);
                    self.index.write().insert(key, slot);
                    out.extend_from_slice(&scratch[..dim]);
                    cost.charge(CostKind::Serialized, INIT_ENTRY_NS);
                    EngineStats::add(&self.stats.new_entries, 1);
                }
            }
            EngineStats::add(&self.stats.pulls, 1);
        }
    }

    fn end_pull_phase(&self, _batch: BatchId) -> MaintenanceReport {
        MaintenanceReport::default()
    }

    fn push(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost) {
        assert_eq!(grads.len(), keys.len() * self.cfg.dim);
        let dim = self.cfg.dim;
        let mut scratch = vec![0f32; self.cfg.payload_f32s()];
        let pmem = oe_simdevice::DeviceTiming::pmem();
        for (i, &key) in keys.iter().enumerate() {
            cost.charge(
                CostKind::Cpu,
                HASH_PROBE_NS + PMEM_STRUCT_OVERHEAD_NS + dim as u64 * OPT_FLOP_NS_PER_F32,
            );
            cost.charge(CostKind::PmemRead, CHAIN_HOPS * pmem.read_ns(64));
            let slot = *self.index.read().get(&key).expect("pushed key exists");
            self.pool
                .read_slot(slot, &mut scratch, cost)
                .expect("valid slot");
            self.opt
                .apply(dim, &mut scratch, &grads[i * dim..(i + 1) * dim]);
            // Transactional in-place update: the undo log persists the
            // old payload before the new one lands (libpmemobj tx).
            cost.charge(
                CostKind::PmemWrite,
                pmem.write_ns(self.cfg.payload_bytes() as u64),
            );
            self.pool.write_slot(slot, key, batch, &scratch, cost);
            EngineStats::add(&self.stats.pushes, 1);
            EngineStats::add(&self.stats.flushes, 1);
        }
    }

    fn request_checkpoint(&self, batch: BatchId) -> Cost {
        // The store is always durable, but *not* batch-atomic: in-place
        // updates mean a crash mid-batch recovers a mixed state. We mark
        // the id for reporting; the checkpoint experiments exclude this
        // engine for exactly this reason (paper Observation 2).
        self.committed.store(batch, Ordering::Release);
        let mut cost = Cost::new();
        cost.charge(CostKind::Cpu, 100);
        cost
    }

    fn committed_checkpoint(&self) -> BatchId {
        self.committed.load(Ordering::Acquire)
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn read_weights(&self, key: Key) -> Option<Vec<f32>> {
        let slot = *self.index.read().get(&key)?;
        let mut scratch = vec![0f32; self.cfg.payload_f32s()];
        let mut cost = Cost::new();
        self.pool.read_slot(slot, &mut scratch, &mut cost)?;
        scratch.truncate(self.cfg.dim);
        Some(scratch)
    }

    fn num_keys(&self) -> usize {
        self.index.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_core::OptimizerKind;

    fn cfg() -> NodeConfig {
        let mut c = NodeConfig::small(4);
        c.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        c
    }

    #[test]
    fn roundtrip_and_persistence_cost() {
        let ps = PmemHash::new(cfg());
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[1], 1, &mut out, &mut cost);
        assert!(cost.ns(CostKind::PmemWrite) > 0, "init persists");
        let mut push_cost = Cost::new();
        ps.push(&[1], &[1.0; 4], 1, &mut push_cost);
        assert!(push_cost.ns(CostKind::PmemRead) > 0);
        assert!(push_cost.ns(CostKind::PmemWrite) > 0, "in-place RMW");
        let w = ps.read_weights(1).unwrap();
        assert!((w[0] - (out[0] - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn every_warm_read_is_a_pmem_read() {
        let ps = PmemHash::new(cfg());
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[1], 1, &mut out, &mut cost);
        out.clear();
        let mut c2 = Cost::new();
        ps.pull(&[1], 2, &mut out, &mut c2);
        assert!(c2.ns(CostKind::PmemRead) >= 305);
        assert_eq!(ps.stats().hits, 0, "there is no cache to hit");
    }

    #[test]
    fn init_parity() {
        let ps = PmemHash::new(cfg());
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[77], 1, &mut out, &mut cost);
        let expect: Vec<f32> = (0..4)
            .map(|i| oe_core::init::init_weight(42, 77, i, 0.01))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn state_survives_crash_but_not_batch_atomic() {
        use oe_simdevice::Media;
        use std::sync::Arc;
        let ps = PmemHash::new(cfg());
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[1, 2], 1, &mut out, &mut cost);
        ps.push(&[1, 2], &[0.5; 8], 1, &mut cost);
        // All writes are fenced: a crash keeps the latest values (this is
        // durability, not batch-consistency — versions may straddle a
        // batch boundary in a mid-push crash).
        let media = Arc::new(Media::from_crash(ps.pool().media().crash(9)));
        let mut rcost = Cost::new();
        let (_pool, report) = oe_pmem::scan::recover(media, &mut rcost).unwrap();
        // checkpoint id was never durably advanced → scan keeps nothing
        // newer than 0. This documents WHY the paper calls it unsuitable.
        assert_eq!(report.checkpoint_id, 0);
    }
}
