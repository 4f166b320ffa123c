//! DRAM-PS: the classic pure-DRAM parameter server (paper Table III),
//! "a pure DRAM version of OpenEmbedding … implemented according to the
//! classic parameter server's standards".
//!
//! All entries live in sharded DRAM hash maps; reads and writes run at
//! DRAM speed with no persistence. Reliability comes from CheckFreq-style
//! incremental checkpointing to a checkpoint device ([`CkptLog`]): dirty
//! entries are dumped synchronously, pausing training — the overhead
//! DRAM-PS pays in Figs. 6/12 and the recovery path measured in Fig. 14.

use crate::ckpt_log::{CkptDevice, CkptLog};
use oe_core::config::{HASH_PROBE_NS, INIT_ENTRY_NS, OPT_FLOP_NS_PER_F32};
use oe_core::engine::{MaintenanceReport, PsEngine};
use oe_core::init::init_payload;
use oe_core::optimizer::Optimizer;
use oe_core::stats::{EngineStats, StatsSnapshot};
use oe_core::{BatchId, Key, NodeConfig};
use oe_simdevice::sync::{Mutex, RwLock};
use oe_simdevice::{Cost, CostKind, DeviceTiming};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

const SHARDS: usize = 16;

/// Pure-DRAM parameter server with incremental checkpointing.
pub struct DramPs {
    cfg: NodeConfig,
    opt: Optimizer,
    shards: Vec<RwLock<HashMap<Key, Box<[f32]>>>>,
    dirty: Mutex<HashSet<Key>>,
    log: CkptLog,
    latest_batch: AtomicU64,
    stats: EngineStats,
    dram: DeviceTiming,
}

impl DramPs {
    /// Create a DRAM-PS with its checkpoint log on `device`.
    pub fn new(cfg: NodeConfig, device: CkptDevice) -> Self {
        cfg.validate();
        let log = CkptLog::create(device, cfg.payload_f32s(), 1 << 20);
        Self {
            opt: cfg.optimizer.build(),
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            dirty: Mutex::new(HashSet::new()),
            log,
            latest_batch: AtomicU64::new(0),
            stats: EngineStats::default(),
            dram: DeviceTiming::dram(),
            cfg,
        }
    }

    /// The checkpoint log (to simulate recovery in tests / Fig. 14).
    pub fn ckpt_log(&self) -> &CkptLog {
        &self.log
    }

    #[inline]
    fn shard_of(&self, key: Key) -> usize {
        (oe_core::init::splitmix64(key) % SHARDS as u64) as usize
    }

    /// Rebuild a DRAM-PS from its surviving checkpoint log: replay the
    /// log into DRAM (the transfer + insert cost dominating Fig. 14's
    /// DRAM-PS bars). Returns the node and the batch to resume after.
    pub fn recover(
        media: &std::sync::Arc<oe_simdevice::Media>,
        cfg: NodeConfig,
        device: CkptDevice,
        cost: &mut Cost,
    ) -> Option<(Self, BatchId)> {
        // Per-entry cost of rebuilding the DRAM store: allocation, hash
        // insert, and payload copy (~0.36 µs/entry, the term that
        // dominates the paper's Fig. 14 DRAM-PS recovery bars).
        const RECOVERY_INSERT_NS: u64 = 270;
        let (committed, entries) = CkptLog::replay(media, cost)?;
        let node = Self::new(cfg, device);
        for (key, payload) in entries {
            // Per-entry DRAM insert + copy cost.
            cost.charge(CostKind::Cpu, RECOVERY_INSERT_NS);
            cost.charge(
                CostKind::DramTransfer,
                node.dram.write_ns((payload.len() * 4) as u64),
            );
            let sid = node.shard_of(key);
            node.shards[sid]
                .write()
                .insert(key, payload.into_boxed_slice());
        }
        node.latest_batch.store(committed, Ordering::Release);
        Some((node, committed))
    }
}

impl PsEngine for DramPs {
    fn name(&self) -> &'static str {
        "DRAM-PS"
    }

    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn pull(&self, keys: &[Key], batch: BatchId, out: &mut Vec<f32>, cost: &mut Cost) {
        let dim = self.cfg.dim;
        out.reserve(keys.len() * dim);
        for &key in keys {
            cost.charge(CostKind::Cpu, HASH_PROBE_NS);
            cost.charge(CostKind::DramTransfer, self.dram.read_ns((dim * 4) as u64));
            let sid = self.shard_of(key);
            let found = {
                let g = self.shards[sid].read();
                g.get(&key).map(|p| {
                    out.extend_from_slice(&p[..dim]);
                })
            };
            if found.is_none() {
                let mut payload = vec![0f32; self.cfg.payload_f32s()];
                init_payload(self.cfg.seed, key, self.cfg.init_scale, dim, &mut payload);
                out.extend_from_slice(&payload[..dim]);
                cost.charge(CostKind::Serialized, INIT_ENTRY_NS);
                self.shards[sid]
                    .write()
                    .insert(key, payload.into_boxed_slice());
                EngineStats::add(&self.stats.new_entries, 1);
                self.dirty.lock().insert(key);
            } else {
                EngineStats::add(&self.stats.hits, 1);
            }
            EngineStats::add(&self.stats.pulls, 1);
        }
        self.latest_batch.fetch_max(batch, Ordering::AcqRel);
    }

    fn end_pull_phase(&self, _batch: BatchId) -> MaintenanceReport {
        MaintenanceReport::default() // nothing deferred: DRAM is the store
    }

    fn push(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost) {
        assert_eq!(grads.len(), keys.len() * self.cfg.dim);
        let dim = self.cfg.dim;
        for (i, &key) in keys.iter().enumerate() {
            cost.charge(
                CostKind::Cpu,
                HASH_PROBE_NS + dim as u64 * OPT_FLOP_NS_PER_F32,
            );
            cost.charge(CostKind::DramTransfer, self.dram.write_ns((dim * 4) as u64));
            let sid = self.shard_of(key);
            let mut g = self.shards[sid].write();
            let payload = g.get_mut(&key).expect("pushed key must exist");
            self.opt.apply(dim, payload, &grads[i * dim..(i + 1) * dim]);
            EngineStats::add(&self.stats.pushes, 1);
        }
        {
            let mut d = self.dirty.lock();
            d.extend(keys.iter().copied());
        }
        self.latest_batch.fetch_max(batch, Ordering::AcqRel);
    }

    fn request_checkpoint(&self, batch: BatchId) -> Cost {
        // Synchronous incremental checkpoint: dump every dirty entry.
        let mut cost = Cost::new();
        let dirty: Vec<Key> = {
            let mut d = self.dirty.lock();
            d.drain().collect()
        };
        let mut staged: Vec<(Key, Box<[f32]>)> = Vec::with_capacity(dirty.len());
        for key in dirty {
            let sid = self.shard_of(key);
            if let Some(p) = self.shards[sid].read().get(&key) {
                cost.charge(
                    CostKind::DramTransfer,
                    self.dram.read_ns((p.len() * 4) as u64),
                );
                staged.push((key, p.clone()));
            }
        }
        let n = self
            .log
            .dump(staged.iter().map(|(k, p)| (*k, &p[..])), batch, &mut cost);
        EngineStats::add(&self.stats.ckpt_entries_written, n);
        EngineStats::add(&self.stats.ckpt_commits, 1);
        cost
    }

    fn committed_checkpoint(&self) -> BatchId {
        self.log.committed()
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn read_weights(&self, key: Key) -> Option<Vec<f32>> {
        let sid = self.shard_of(key);
        let g = self.shards[sid].read();
        g.get(&key).map(|p| p[..self.cfg.dim].to_vec())
    }

    fn num_keys(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
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
    fn pull_push_roundtrip() {
        let ps = DramPs::new(cfg(), CkptDevice::Ssd);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[1, 2], 1, &mut out, &mut cost);
        assert_eq!(out.len(), 8);
        ps.push(&[1], &[1.0; 4], 1, &mut cost);
        let w = ps.read_weights(1).unwrap();
        assert!((w[0] - (out[0] - 1.0)).abs() < 1e-6);
        assert_eq!(ps.num_keys(), 2);
    }

    #[test]
    fn init_matches_oe_core() {
        // Same seed → same initial weights as any other engine.
        let ps = DramPs::new(cfg(), CkptDevice::Ssd);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[99], 1, &mut out, &mut cost);
        let expect: Vec<f32> = (0..4)
            .map(|i| oe_core::init::init_weight(42, 99, i, 0.01))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn checkpoint_dumps_only_dirty() {
        let ps = DramPs::new(cfg(), CkptDevice::Pmem);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[1, 2, 3], 1, &mut out, &mut cost);
        ps.push(&[1, 2, 3], &[0.1; 12], 1, &mut cost);
        let c1 = ps.request_checkpoint(1);
        assert!(c1.total_ns() > 0);
        assert_eq!(ps.stats().ckpt_entries_written, 3);
        // Nothing dirtied since: next dump writes zero entries.
        ps.request_checkpoint(2);
        assert_eq!(ps.stats().ckpt_entries_written, 3);
        assert_eq!(ps.committed_checkpoint(), 2);
    }

    #[test]
    fn recovery_from_ckpt_log_restores_weights() {
        let ps = DramPs::new(cfg(), CkptDevice::Ssd);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        let keys = [5u64, 6, 7];
        ps.pull(&keys, 1, &mut out, &mut cost);
        ps.push(&keys, &[0.5; 12], 1, &mut cost);
        ps.request_checkpoint(1);
        // Post-checkpoint updates are lost (crash semantics).
        ps.push(&keys, &[9.0; 12], 2, &mut cost);
        let expect: Vec<Vec<f32>> = keys
            .iter()
            .map(|&k| {
                (0..4)
                    .map(|i| oe_core::init::init_weight(42, k, i, 0.01) - 0.5)
                    .collect()
            })
            .collect();
        let media = std::sync::Arc::clone(ps.ckpt_log().media());
        let mut rcost = Cost::new();
        let (r, resume) = DramPs::recover(&media, cfg(), CkptDevice::Ssd, &mut rcost).unwrap();
        assert_eq!(resume, 1);
        for (i, &k) in keys.iter().enumerate() {
            let w = r.read_weights(k).unwrap();
            for d in 0..4 {
                assert!((w[d] - expect[i][d]).abs() < 1e-6);
            }
        }
        assert!(
            rcost.ns(CostKind::SsdTransfer) > 0,
            "recovery reads the log"
        );
    }

    #[test]
    fn dram_engine_charges_no_pmem() {
        let ps = DramPs::new(cfg(), CkptDevice::Ssd);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[1], 1, &mut out, &mut cost);
        ps.push(&[1], &[0.1; 4], 1, &mut cost);
        assert_eq!(cost.ns(CostKind::PmemRead), 0);
        assert_eq!(cost.ns(CostKind::PmemWrite), 0);
        assert!(cost.ns(CostKind::DramTransfer) > 0);
    }
}
