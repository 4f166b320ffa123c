//! Failure injection & recovery timing (paper §VI-E, Fig. 14).
//!
//! Crashes the PMem media at an arbitrary point, recovers a fresh node
//! from the surviving image, and reports the virtual recovery time
//! composed from the scan/rebuild costs.

use oe_core::config::NodeConfig;
use oe_core::recovery::{recover_node, RecoveryReport};
use oe_core::{BatchId, PsNode};
use oe_simdevice::{ContentionModel, Cost, Media, Nanos};
use std::sync::Arc;

/// Outcome of a crash + recovery cycle.
#[derive(Debug)]
pub struct FailureOutcome {
    /// Batch id training resumes after.
    pub resume_batch: BatchId,
    /// Entries recovered.
    pub recovered_keys: usize,
    /// Uncommitted (post-checkpoint) slots discarded.
    pub discarded_future: u64,
    /// Virtual recovery time.
    pub recovery_ns: Nanos,
}

/// Crash the node's PMem at this instant (seeded torn writes) and
/// recover a fresh node. `recovery_threads` parallelizes the scan/
/// rebuild (the paper notes recovery can be parallelized by
/// partitioning, §VI-E).
pub fn crash_and_recover(
    node: &PsNode,
    cfg: NodeConfig,
    seed: u64,
    recovery_threads: u32,
) -> (PsNode, FailureOutcome) {
    let media = Arc::new(Media::from_crash(node.pool().media().crash(seed)));
    let mut cost = Cost::new();
    let (recovered, report) =
        recover_node(media, cfg, &mut cost).expect("initialized pool is always recoverable");
    let outcome = outcome_from(&report, &cost, recovery_threads);
    (recovered, outcome)
}

fn outcome_from(report: &RecoveryReport, cost: &Cost, threads: u32) -> FailureOutcome {
    let model = ContentionModel::new(threads.max(1), 1);
    FailureOutcome {
        resume_batch: report.resume_batch,
        recovered_keys: report.scan.live.len(),
        discarded_future: report.scan.discarded_future,
        recovery_ns: model.burst_ns(cost),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_core::engine::PsEngine;
    use oe_core::OptimizerKind;
    use oe_simdevice::Cost;

    fn cfg() -> NodeConfig {
        let mut c = NodeConfig::small(4);
        c.optimizer = OptimizerKind::Sgd { lr: 0.5 };
        c
    }

    fn step(n: &PsNode, keys: &[u64], b: u64) {
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(keys, b, &mut out, &mut cost);
        n.end_pull_phase(b);
        n.push(keys, &vec![0.1; keys.len() * 4], b, &mut cost);
    }

    #[test]
    fn outcome_reports_checkpoint_state() {
        let n = PsNode::new(cfg());
        let keys: Vec<u64> = (0..30).collect();
        step(&n, &keys, 1);
        n.request_checkpoint(1);
        step(&n, &keys, 2); // commits 1
        step(&n, &keys, 3); // uncommitted progress
        let (recovered, out) = crash_and_recover(&n, cfg(), 9, 1);
        assert_eq!(out.resume_batch, 1);
        assert_eq!(out.recovered_keys, 30);
        assert!(out.recovery_ns > 0);
        assert_eq!(recovered.committed_checkpoint(), 1);
    }

    #[test]
    fn parallel_recovery_is_faster() {
        let n = PsNode::new(cfg());
        let keys: Vec<u64> = (0..500).collect();
        step(&n, &keys, 1);
        n.request_checkpoint(1);
        step(&n, &keys, 2);
        let (_, serial) = crash_and_recover(&n, cfg(), 4, 1);
        let (_, parallel) = crash_and_recover(&n, cfg(), 4, 8);
        assert!(
            parallel.recovery_ns < serial.recovery_ns,
            "{} vs {}",
            parallel.recovery_ns,
            serial.recovery_ns
        );
    }
}
