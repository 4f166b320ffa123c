//! The storage-engine interface shared by OpenEmbedding and every
//! baseline, consumed by the synchronous-training simulator.
//!
//! The phase split mirrors the paper's batch anatomy (Fig. 2/5):
//!
//! ```text
//!  pull burst → [maintenance ∥ GPU compute] → push burst → (checkpoint?)
//! ```
//!
//! `pull`/`push` charge their costs to the caller's [`Cost`] sink — they
//! are on the critical path. [`PsEngine::end_pull_phase`] performs the
//! engine's deferred work (cache replacement, flush-backs, checkpoint
//! commits) and returns its cost *separately*, so the trainer can overlap
//! it with the simulated GPU compute for pipelined engines, or add it to
//! the critical path for engines that do the work inline (in which case
//! the report is empty because the cost was already charged during pull).

use crate::stats::StatsSnapshot;
use crate::{BatchId, Key};
use oe_simdevice::Cost;

/// Outcome of the deferred (pipelined) phase of a batch.
#[derive(Debug, Default, Clone)]
pub struct MaintenanceReport {
    /// Virtual-time cost of the deferred work (overlappable with compute).
    pub cost: Cost,
    /// Access-queue records processed.
    pub entries_processed: u64,
    /// Checkpoints committed during this maintenance pass.
    pub ckpt_commits: u64,
}

/// A parameter-server storage engine.
pub trait PsEngine: Send + Sync {
    /// Short stable name used in figures ("PMem-OE", "DRAM-PS", …).
    fn name(&self) -> &'static str;

    /// Embedding dimension served.
    fn dim(&self) -> usize;

    /// Serve a pull burst: append `dim` weights per key to `out`.
    /// `batch` is the batch about to train on these weights.
    fn pull(&self, keys: &[Key], batch: BatchId, out: &mut Vec<f32>, cost: &mut Cost);

    /// All pulls of `batch` are done: run the engine's deferred work.
    /// Pipelined engines do cache replacement + checkpoint work here;
    /// inline engines return an empty report.
    fn end_pull_phase(&self, batch: BatchId) -> MaintenanceReport;

    /// Apply a gradient burst: `grads` is `keys.len() * dim` values,
    /// pre-aggregated per key.
    fn push(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost);

    /// Out-of-band gradient apply for the pipelined training path:
    /// byte-for-byte the same state transition as [`PsEngine::push`]
    /// (the weights must not care *when* a gradient lands), but the
    /// caller is signalling that this burst runs off the training
    /// critical path — during a later batch's GPU compute — so engines
    /// may account it separately (telemetry, service-lane scheduling).
    /// The default simply delegates, which is always correct.
    fn push_async(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost) {
        self.push(keys, grads, batch, cost);
    }

    /// Request a checkpoint covering everything up to and including
    /// `batch`. Returns the *inline* cost that pauses training
    /// (near-zero for batch-aware checkpointing; the full dump for
    /// synchronous incremental checkpointing).
    fn request_checkpoint(&self, batch: BatchId) -> Cost;

    /// Batch id of the newest durably committed checkpoint.
    fn committed_checkpoint(&self) -> BatchId;

    /// Counter snapshot.
    fn stats(&self) -> StatsSnapshot;

    /// Current weights of `key` (None if never initialized). For tests,
    /// verification and weight export — not a hot path.
    fn read_weights(&self, key: Key) -> Option<Vec<f32>>;

    /// Number of distinct keys the engine knows.
    fn num_keys(&self) -> usize;

    /// Prometheus-style text exposition of the engine's telemetry
    /// registry. Engines without one (simple baselines) return an
    /// empty string.
    fn metrics_text(&self) -> String {
        String::new()
    }

    // ---- entry export (refusing defaults only) ----
    //
    // No engine in this workspace overrides these and nothing calls
    // them. The refusing defaults remain only because
    // `e2e/src/seams.rs` forwards them through its engine decorator;
    // ROADMAP item 7 deletes them.

    /// Export `key`'s full entry (weights and optimizer state). Always
    /// `None`.
    fn export_entry(&self, key: Key, cost: &mut Cost) -> Option<(BatchId, Vec<f32>)> {
        let _ = (key, cost);
        None
    }

    /// Install a full entry exported from another engine. Always
    /// refuses (`false`).
    fn import_entry(&self, key: Key, version: BatchId, payload: &[f32], cost: &mut Cost) -> bool {
        let _ = (key, version, payload, cost);
        false
    }

    /// Drop `key`'s entry entirely. Always refuses (`false`).
    fn discard_entry(&self, key: Key, cost: &mut Cost) -> bool {
        let _ = (key, cost);
        false
    }
}
