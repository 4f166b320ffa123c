//! Generic incremental-checkpoint wrapper: bolts CheckFreq-style dirty-
//! set dumping onto *any* engine, overriding its native checkpointing.
//!
//! Used for the paper's "PMem-OE (Incremental Checkpoint)" configuration
//! (Fig. 12): the OpenEmbedding engine runs normally, but instead of the
//! batch-aware co-designed checkpoint, a synchronous incremental dump to
//! the checkpoint device runs at every interval — whose PMem writes
//! interfere with training I/O and pause the trainer.

use crate::ckpt_log::{CkptDevice, CkptLog};
use oe_cache::KeySet;
use oe_core::engine::{MaintenanceReport, PsEngine};
use oe_core::stats::{EngineStats, StatsSnapshot};
use oe_core::{BatchId, Key};
use oe_simdevice::sync::Mutex;
use oe_simdevice::Cost;

/// Wraps an engine, replacing its checkpoint path with incremental
/// dumps of dirty keys.
pub struct IncrementalCkpt<E: PsEngine> {
    inner: E,
    dirty: Mutex<KeySet>,
    log: CkptLog,
    stats: EngineStats,
}

impl<E: PsEngine> IncrementalCkpt<E> {
    /// Wrap `inner`; dumps go to `device`.
    pub fn new(inner: E, device: CkptDevice) -> Self {
        let log = CkptLog::create(device, inner.dim(), 1 << 20);
        Self {
            inner,
            dirty: Mutex::new(KeySet::default()),
            log,
            stats: EngineStats::default(),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The checkpoint log.
    pub fn ckpt_log(&self) -> &CkptLog {
        &self.log
    }
}

impl<E: PsEngine> PsEngine for IncrementalCkpt<E> {
    fn name(&self) -> &'static str {
        "Incremental"
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn pull(&self, keys: &[Key], batch: BatchId, out: &mut Vec<f32>, cost: &mut Cost) {
        self.inner.pull(keys, batch, out, cost);
    }

    fn end_pull_phase(&self, batch: BatchId) -> MaintenanceReport {
        self.inner.end_pull_phase(batch)
    }

    fn push(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost) {
        self.inner.push(keys, grads, batch, cost);
        self.dirty.lock().extend(keys.iter().copied());
    }

    fn request_checkpoint(&self, batch: BatchId) -> Cost {
        let mut cost = Cost::new();
        let dirty: Vec<Key> = {
            let mut d = self.dirty.lock();
            d.drain().collect()
        };
        let mut staged = Vec::with_capacity(dirty.len());
        for key in dirty {
            if let Some(w) = self.inner.read_weights(key) {
                staged.push((key, w));
            }
        }
        let n = self.log.dump(
            staged.iter().map(|(k, w)| (*k, w.as_slice())),
            batch,
            &mut cost,
        );
        EngineStats::add(&self.stats.ckpt_entries_written, n);
        EngineStats::add(&self.stats.ckpt_commits, 1);
        cost
    }

    fn committed_checkpoint(&self) -> BatchId {
        self.log.committed()
    }

    fn stats(&self) -> StatsSnapshot {
        let mut s = self.inner.stats();
        let own = self.stats.snapshot();
        s.ckpt_entries_written += own.ckpt_entries_written;
        s.ckpt_commits += own.ckpt_commits;
        s
    }

    fn read_weights(&self, key: Key) -> Option<Vec<f32>> {
        self.inner.read_weights(key)
    }

    fn num_keys(&self) -> usize {
        self.inner.num_keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_core::{NodeConfig, OptimizerKind, PsNode};
    use oe_simdevice::CostKind;

    fn wrapped() -> IncrementalCkpt<PsNode> {
        let mut cfg = NodeConfig::small(4);
        cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        IncrementalCkpt::new(PsNode::new(cfg), CkptDevice::Pmem)
    }

    #[test]
    fn checkpoint_dumps_dirty_and_costs_pmem_writes() {
        let e = wrapped();
        let mut out = Vec::new();
        let mut cost = Cost::new();
        e.pull(&[1, 2, 3], 1, &mut out, &mut cost);
        e.end_pull_phase(1);
        e.push(&[1, 2, 3], &[0.1; 12], 1, &mut cost);
        let c = e.request_checkpoint(1);
        assert!(c.ns(CostKind::PmemWrite) > 0, "dump interferes with PMem");
        assert_eq!(e.committed_checkpoint(), 1);
        assert_eq!(e.stats().ckpt_entries_written, 3);
    }

    #[test]
    fn much_more_expensive_than_batch_aware() {
        let e = wrapped();
        let mut out = Vec::new();
        let mut cost = Cost::new();
        let keys: Vec<u64> = (0..2000).collect();
        e.pull(&keys, 1, &mut out, &mut cost);
        e.end_pull_phase(1);
        e.push(&keys, &vec![0.1; 2000 * 4], 1, &mut cost);
        let incr = e.request_checkpoint(1).total_ns();
        // The batch-aware native request is near-free.
        let native = e.inner().request_checkpoint(1).total_ns();
        assert!(
            incr > native * 10,
            "incremental {incr} vs batch-aware {native}"
        );
    }

    #[test]
    fn training_behaviour_is_unchanged() {
        let e = wrapped();
        let mut out = Vec::new();
        let mut cost = Cost::new();
        e.pull(&[9], 1, &mut out, &mut cost);
        e.push(&[9], &[1.0; 4], 1, &mut cost);
        let w = e.read_weights(9).unwrap();
        assert!((w[0] - (out[0] - 1.0)).abs() < 1e-6);
    }
}
