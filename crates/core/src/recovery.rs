//! Failure recovery (paper §V-C / §VI-E).
//!
//! `PMem-OE` recovery: (1) scan all embedding slots in PMem, discarding
//! versions newer than the Checkpointed Batch ID, (2) rebuild the DRAM
//! hash index. Entries stay in PMem — no payload copy — which is why the
//! paper measures 380 s vs 751–1513 s for checkpoint-file reload
//! (Fig. 14). The DRAM cache starts cold.
//!
//! A dead node is restored the same way wherever its durable bytes live:
//! [`restore`] asks the bytes' [`DurableHome`] to settle them as a power
//! cut would leave them and scan them in place, then rebuilds the node
//! over the backend the home hands back. Two homes ship: [`LocalMedia`]
//! (the node's own PMem, scanned on the standby's threads) here, and the
//! `SharedPool` partition in `oe-pool` (scanned near the pool, index
//! summary shipped over the fabric, partition re-attached).

use crate::config::NodeConfig;
use crate::node::PsNode;
use crate::storage::{LocalPmem, StorageBackend};
use crate::BatchId;
use oe_pmem::scan::{recover as pmem_recover, ScanReport};
use oe_pmem::PmemPool;
use oe_simdevice::{ContentionModel, Cost, Media, Nanos};
use std::sync::Arc;

/// Outcome of a node recovery.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The underlying pool scan outcome.
    pub scan: ScanReport,
    /// Batch id training resumes after (the committed checkpoint).
    pub resume_batch: BatchId,
}

/// Open crashed media and scan it in place as a pool of
/// `payload_bytes`-wide slots — the one call of the PMem recovery scan
/// behind every recovery. `Ok(None)` if the media holds no initialized
/// pool; `Err` names both widths if the pool's slots are not
/// `payload_bytes` wide (another dim or optimizer), before anything can
/// write through the pool.
pub fn scan_media(
    media: Arc<Media>,
    payload_bytes: usize,
    cost: &mut Cost,
) -> Result<Option<(PmemPool, ScanReport)>, String> {
    let Some((pool, scan)) = pmem_recover(media, cost) else {
        return Ok(None);
    };
    if pool.payload_bytes() != payload_bytes {
        return Err(format!(
            "recovery config must match the pool layout: the pool holds {}-byte payloads, \
             the config expects {payload_bytes}-byte payloads (dim/optimizer)",
            pool.payload_bytes()
        ));
    }
    Ok(Some((pool, scan)))
}

/// Recover a [`PsNode`] from crashed PMem media. Returns `None` if the
/// media holds no initialized pool; panics if `cfg` does not match the
/// pool layout. The recovery cost (scan + index rebuild) is charged to
/// `cost`.
pub fn recover_node(
    media: Arc<Media>,
    cfg: NodeConfig,
    cost: &mut Cost,
) -> Option<(PsNode, RecoveryReport)> {
    cfg.validate();
    let (pool, scan) =
        scan_media(media, cfg.payload_bytes(), cost).unwrap_or_else(|e| panic!("{e}"))?;
    let node = PsNode::from_recovered_storage(cfg, Arc::new(LocalPmem::new(pool)), &scan);
    let resume_batch = scan.checkpoint_id;
    Some((node, RecoveryReport { scan, resume_batch }))
}

/// A dead node's durable bytes, settled and scanned by their home.
pub struct Settled {
    /// The backend the recovered node writes through.
    pub store: Arc<dyn StorageBackend>,
    /// What the scan kept and discarded.
    pub scan: ScanReport,
    /// Virtual recovery time: the scan and index rebuild under the
    /// recovery contention model, plus whatever the home adds.
    pub recovery_ns: Nanos,
}

impl Settled {
    /// Bytes whose scan + index rebuild cost `scan_cost`, run on
    /// `threads` partitions (recovery parallelizes by partitioning,
    /// §VI-E).
    pub fn new(
        store: Arc<dyn StorageBackend>,
        scan: ScanReport,
        scan_cost: &Cost,
        threads: u32,
    ) -> Self {
        let recovery_ns = ContentionModel::new(threads.max(1), 1).burst_ns(scan_cost);
        Self {
            store,
            scan,
            recovery_ns,
        }
    }
}

/// Where a dead node's durable bytes live.
pub trait DurableHome: Send + Sync {
    /// Settle the bytes as a power cut at this instant leaves them
    /// (unfenced lines land torn under `crash_seed`), scan them in place
    /// through [`scan_media`] as `payload_bytes`-wide slots, and hand
    /// back the backend the recovered node will write through. An `Err`
    /// says why there is nothing to restore and leaves the home as it
    /// was.
    fn settle(&self, crash_seed: u64, payload_bytes: usize) -> Result<Settled, String>;
}

/// The node's own PMem: settling takes a crash image of the media, and
/// the scan runs on the recovering machine's `scan_threads`.
pub struct LocalMedia {
    media: Arc<Media>,
    scan_threads: u32,
}

impl LocalMedia {
    /// The dead node's media, scanned on `scan_threads` partitions.
    pub fn new(media: Arc<Media>, scan_threads: u32) -> Self {
        Self {
            media,
            scan_threads,
        }
    }
}

impl DurableHome for LocalMedia {
    fn settle(&self, crash_seed: u64, payload_bytes: usize) -> Result<Settled, String> {
        let media = Arc::new(Media::from_crash(self.media.crash(crash_seed)));
        let mut cost = Cost::new();
        let (pool, scan) = scan_media(media, payload_bytes, &mut cost)?
            .ok_or("media holds no initialized pool (nothing ever flushed)")?;
        let store = Arc::new(LocalPmem::new(pool));
        Ok(Settled::new(store, scan, &cost, self.scan_threads))
    }
}

/// A node restored from a dead node's durable bytes.
pub struct Restored {
    /// The rebuilt node: cold cache, committed checkpoint restored.
    pub node: PsNode,
    /// What the scan found and where training resumes.
    pub report: RecoveryReport,
    /// Virtual recovery time to charge on the clock.
    pub recovery_ns: Nanos,
}

/// Restore a node from the durable bytes `home` holds, settled under
/// `crash_seed`: the one recovery routine behind every standby
/// promotion and every in-process crash drill. A refusal — nothing to
/// restore, or a `cfg` that does not fit the bytes — is an `Err` naming
/// the reason, and nothing was attached.
pub fn restore(
    home: &dyn DurableHome,
    cfg: NodeConfig,
    crash_seed: u64,
) -> Result<Restored, String> {
    cfg.validate();
    let Settled {
        store,
        scan,
        recovery_ns,
    } = home.settle(crash_seed, cfg.payload_bytes())?;
    let node = PsNode::from_recovered_storage(cfg, store, &scan);
    let resume_batch = scan.checkpoint_id;
    Ok(Restored {
        node,
        report: RecoveryReport { scan, resume_batch },
        recovery_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PsEngine;
    use crate::optimizer::OptimizerKind;
    use oe_simdevice::Media;

    fn cfg() -> NodeConfig {
        let mut c = NodeConfig::small(4);
        c.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        c
    }

    fn train_step(n: &PsNode, keys: &[u64], batch: u64, grad: f32) {
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(keys, batch, &mut out, &mut cost);
        n.end_pull_phase(batch);
        let grads = vec![grad; keys.len() * 4];
        n.push(keys, &grads, batch, &mut cost);
    }

    #[test]
    fn recover_restores_exact_checkpoint_state() {
        let n = PsNode::new(cfg());
        let keys: Vec<u64> = (0..20).collect();
        // Batches 1..=3, checkpoint at 3.
        for b in 1..=3 {
            train_step(&n, &keys, b, 0.5);
        }
        n.request_checkpoint(3);
        train_step(&n, &keys, 4, 0.5); // commits ckpt 3 during maintenance
        assert_eq!(n.committed_checkpoint(), 3);
        let expected: Vec<Vec<f32>> = {
            // State at end of batch 3 = init - 3*0.5 per weight (SGD lr=1).
            keys.iter()
                .map(|&k| {
                    (0..4)
                        .map(|i| crate::init::init_weight(42, k, i, 0.01) - 1.5)
                        .collect()
                })
                .collect()
        };
        // Keep training past the checkpoint, then crash.
        train_step(&n, &keys, 5, 0.5);
        let media = Arc::new(Media::from_crash(n.pool().media().crash(11)));
        let mut cost = Cost::new();
        let (r, report) = recover_node(media, cfg(), &mut cost).expect("recoverable");
        assert_eq!(report.resume_batch, 3);
        assert_eq!(r.num_keys(), 20);
        for (i, &k) in keys.iter().enumerate() {
            let w = r.read_weights(k).expect("recovered key");
            for d in 0..4 {
                assert!(
                    (w[d] - expected[i][d]).abs() < 1e-5,
                    "key {k} dim {d}: {} vs {}",
                    w[d],
                    expected[i][d]
                );
            }
        }
        assert!(cost.total_ns() > 0, "recovery charges time");
    }

    #[test]
    fn recover_then_resume_training() {
        let n = PsNode::new(cfg());
        let keys: Vec<u64> = (0..8).collect();
        train_step(&n, &keys, 1, 0.25);
        n.request_checkpoint(1);
        train_step(&n, &keys, 2, 0.25);
        let media = Arc::new(Media::from_crash(n.pool().media().crash(5)));
        let mut cost = Cost::new();
        let (r, report) = recover_node(media, cfg(), &mut cost).unwrap();
        // Resume from batch 2 (redo it), then continue.
        for b in (report.resume_batch + 1)..=4 {
            train_step(&r, &keys, b, 0.25);
        }
        r.request_checkpoint(4);
        train_step(&r, &keys, 5, 0.25);
        assert_eq!(r.committed_checkpoint(), 4);
        // Final state: init - 5 * 0.25 (batches 1..=5 each applied once
        // in the surviving timeline).
        let w = r.read_weights(3).unwrap();
        let expect = crate::init::init_weight(42, 3, 0, 0.01) - 1.25;
        assert!((w[0] - expect).abs() < 1e-5, "{} vs {expect}", w[0]);
    }

    #[test]
    fn uninitialized_media_is_unrecoverable() {
        let media = Arc::new(Media::new(oe_simdevice::MediaConfig::pmem(1024)));
        let mut cost = Cost::new();
        assert!(recover_node(media, cfg(), &mut cost).is_none());
    }

    #[test]
    #[should_panic(expected = "recovery config must match")]
    fn mismatched_config_rejected() {
        let n = PsNode::new(cfg());
        train_step(&n, &[1], 1, 0.1);
        let media = Arc::new(Media::from_crash(n.pool().media().crash(1)));
        let mut wrong = cfg();
        wrong.dim = 8;
        let mut cost = Cost::new();
        let _ = recover_node(media, wrong, &mut cost);
    }

    /// Batches 1–3 over `keys` at SGD lr 0.5, checkpoint 1 committed,
    /// batch 3's progress past it.
    fn trained_past_checkpoint(keys: &[u64]) -> PsNode {
        let mut c = cfg();
        c.optimizer = OptimizerKind::Sgd { lr: 0.5 };
        let n = PsNode::new(c);
        train_step(&n, keys, 1, 0.1);
        n.request_checkpoint(1);
        train_step(&n, keys, 2, 0.1); // commits 1
        train_step(&n, keys, 3, 0.1); // uncommitted progress
        n
    }

    #[test]
    fn outcome_reports_checkpoint_state() {
        let keys: Vec<u64> = (0..30).collect();
        let n = trained_past_checkpoint(&keys);
        let home = LocalMedia::new(Arc::clone(n.pool().media()), 1);
        let r = restore(&home, n.config().clone(), 9).expect("restores");
        // Pinned at the commit before local and pool recovery became one
        // routine: the same scan, charged the same way.
        assert_eq!(r.recovery_ns, 46_853);
        assert_eq!(r.report.resume_batch, 1);
        assert_eq!(r.report.scan.live.len(), 30);
        assert_eq!(r.node.committed_checkpoint(), 1);
    }

    #[test]
    fn a_config_that_does_not_fit_the_bytes_is_refused() {
        let n = trained_past_checkpoint(&[1, 2, 3]);
        let home = LocalMedia::new(Arc::clone(n.pool().media()), 1);
        let mut wrong = n.config().clone();
        wrong.dim = 8;
        let err = restore(&home, wrong, 1).err().expect("refused");
        assert!(err.contains("16-byte") && err.contains("32-byte"), "{err}");
        let blank = LocalMedia::new(
            Arc::new(Media::new(oe_simdevice::MediaConfig::pmem(1024))),
            1,
        );
        let err = restore(&blank, cfg(), 1).err().expect("refused");
        assert!(err.contains("no initialized pool"), "{err}");
    }
}
