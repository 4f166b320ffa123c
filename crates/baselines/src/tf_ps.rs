//! TF-PS: the framework-default parameter server used as the sanity-check
//! reference in the paper's Fig. 15 ("Tensorflow").
//!
//! Characteristics modelled from the paper's description:
//! - single-process, DRAM-resident embedding variables;
//! - per-lookup framework op-dispatch overhead much higher than a
//!   purpose-built PS;
//! - a global variable lock serializing sparse updates (no sharding) —
//!   which is why its relative performance degrades as GPUs are added;
//! - no distributed synchronous-training support (the reason the paper
//!   could not run it on the 500 GB model, §VI-F).

use crate::ckpt_log::{CkptDevice, CkptLog};
use oe_cache::KeyMap;
use oe_core::config::{HASH_PROBE_NS, INIT_ENTRY_NS, INIT_SCALE, OPT_FLOP_NS_PER_F32};
use oe_core::engine::{MaintenanceReport, PsEngine};
use oe_core::init::init_payload;
use oe_core::optimizer::Optimizer;
use oe_core::stats::{EngineStats, StatsSnapshot};
use oe_core::{BatchId, Key, NodeConfig};
use oe_simdevice::sync::Mutex;
use oe_simdevice::{Cost, CostKind, DeviceTiming};

/// Framework op-dispatch overhead per embedding lookup/update (ns):
/// graph-op scheduling, tensor wrapping, kernel launch bookkeeping.
const FRAMEWORK_OP_NS: u64 = 220;
/// Fixed per-op work inside the global variable lock (ns).
const VARIABLE_LOCK_NS: u64 = 90;
/// Additional lock-held time per payload byte (ns/B): the gather/scatter
/// copies through the framework's tensor buffers happen under the
/// variable lock, so bigger embedding dims hold the lock longer — the
/// reason the paper's TF gap widens from dim 16 to dim 64 (Fig. 15).
const VARIABLE_LOCK_NS_PER_BYTE: f64 = 3.0;

fn lock_held_ns(dim: usize) -> u64 {
    VARIABLE_LOCK_NS + (dim as f64 * 4.0 * VARIABLE_LOCK_NS_PER_BYTE) as u64
}

/// The framework-default single-server baseline.
pub struct TfPs {
    cfg: NodeConfig,
    opt: Optimizer,
    table: Mutex<KeyMap<Box<[f32]>>>,
    log: CkptLog,
    stats: EngineStats,
    dram: DeviceTiming,
}

impl TfPs {
    /// Create the server; full-model checkpoints go to `device`.
    pub fn new(cfg: NodeConfig, device: CkptDevice) -> Self {
        cfg.validate();
        let log = CkptLog::create(device, cfg.payload_f32s(), 1 << 20);
        Self {
            opt: cfg.optimizer.build(),
            table: Mutex::new(KeyMap::default()),
            log,
            stats: EngineStats::default(),
            dram: DeviceTiming::dram(),
            cfg,
        }
    }
}

impl PsEngine for TfPs {
    fn name(&self) -> &'static str {
        "Tensorflow"
    }

    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn pull(&self, keys: &[Key], batch: BatchId, out: &mut Vec<f32>, cost: &mut Cost) {
        let dim = self.cfg.dim;
        out.reserve(keys.len() * dim);
        let mut g = self.table.lock();
        for &key in keys {
            cost.charge(CostKind::Cpu, HASH_PROBE_NS + FRAMEWORK_OP_NS);
            cost.charge(CostKind::Serialized, lock_held_ns(dim));
            cost.charge(CostKind::DramTransfer, self.dram.read_ns((dim * 4) as u64));
            match g.get(&key) {
                Some(p) => {
                    out.extend_from_slice(&p[..dim]);
                    EngineStats::add(&self.stats.hits, 1);
                }
                None => {
                    let mut payload = vec![0f32; self.cfg.payload_f32s()];
                    init_payload(self.cfg.seed, key, INIT_SCALE, dim, &mut payload);
                    out.extend_from_slice(&payload[..dim]);
                    g.insert(key, payload.into_boxed_slice());
                    cost.charge(CostKind::Serialized, INIT_ENTRY_NS);
                    EngineStats::add(&self.stats.new_entries, 1);
                }
            }
            EngineStats::add(&self.stats.pulls, 1);
        }
        let _ = batch;
    }

    fn end_pull_phase(&self, _batch: BatchId) -> MaintenanceReport {
        MaintenanceReport::default()
    }

    fn push(&self, keys: &[Key], grads: &[f32], _batch: BatchId, cost: &mut Cost) {
        assert_eq!(grads.len(), keys.len() * self.cfg.dim);
        let dim = self.cfg.dim;
        let mut g = self.table.lock();
        for (i, &key) in keys.iter().enumerate() {
            cost.charge(
                CostKind::Cpu,
                HASH_PROBE_NS + FRAMEWORK_OP_NS + dim as u64 * OPT_FLOP_NS_PER_F32,
            );
            // Sparse updates serialize on the variable lock.
            cost.charge(CostKind::Serialized, lock_held_ns(dim));
            cost.charge(CostKind::DramTransfer, self.dram.write_ns((dim * 4) as u64));
            let payload = g.get_mut(&key).expect("pushed key exists");
            self.opt.apply(dim, payload, &grads[i * dim..(i + 1) * dim]);
            EngineStats::add(&self.stats.pushes, 1);
        }
    }

    fn request_checkpoint(&self, batch: BatchId) -> Cost {
        // TF default: full variable dump (not incremental).
        let mut cost = Cost::new();
        let g = self.table.lock();
        let n = self
            .log
            .dump(g.iter().map(|(k, p)| (*k, &p[..])), batch, &mut cost);
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
        self.table
            .lock()
            .get(&key)
            .map(|p| p[..self.cfg.dim].to_vec())
    }

    fn num_keys(&self) -> usize {
        self.table.lock().len()
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
    fn roundtrip_with_framework_overhead() {
        let ps = TfPs::new(cfg(), CkptDevice::Ssd);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[1], 1, &mut out, &mut cost);
        assert!(cost.ns(CostKind::Cpu) >= HASH_PROBE_NS + FRAMEWORK_OP_NS);
        assert!(cost.ns(CostKind::Serialized) > 0);
        ps.push(&[1], &[2.0; 4], 1, &mut cost);
        let w = ps.read_weights(1).unwrap();
        assert!((w[0] - (out[0] - 2.0)).abs() < 1e-6);
    }

    #[test]
    fn full_dump_checkpoint_writes_everything() {
        let ps = TfPs::new(cfg(), CkptDevice::Ssd);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[1, 2, 3], 1, &mut out, &mut cost);
        ps.request_checkpoint(1);
        ps.request_checkpoint(2);
        // Full (not incremental): 3 entries dumped both times.
        assert_eq!(ps.stats().ckpt_entries_written, 6);
    }

    #[test]
    fn per_op_cost_higher_than_dram_ps() {
        use crate::dram_ps::DramPs;
        let tf = TfPs::new(cfg(), CkptDevice::Ssd);
        let dram = DramPs::new(cfg(), CkptDevice::Ssd);
        let keys: Vec<u64> = (0..100).collect();
        let mut out = Vec::new();
        let (mut ct, mut cd) = (Cost::new(), Cost::new());
        tf.pull(&keys, 1, &mut out, &mut ct);
        out.clear();
        dram.pull(&keys, 1, &mut out, &mut cd);
        assert!(
            ct.total_ns() > cd.total_ns(),
            "tf={} dram={}",
            ct.total_ns(),
            cd.total_ns()
        );
    }
}
