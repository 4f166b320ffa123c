//! Checkpoint/recovery equivalence: recovering after a crash yields
//! *bit-identical* state to an independent reference run stopped at the
//! committed checkpoint — the batch-level consistency guarantee of
//! §V-B/C, end to end through the trainer.

use openembedding::core::recovery::{restore, Restored};
use openembedding::prelude::*;
use std::sync::Arc;

const DIM: usize = 8;

fn node_cfg(cache_entries: usize) -> NodeConfig {
    let mut cfg = NodeConfig::small(DIM);
    cfg.optimizer = OptimizerKind::Adagrad {
        lr: 0.05,
        eps: 1e-8,
    };
    cfg.cache_bytes = cache_entries * cfg.bytes_per_cached_entry();
    cfg
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        num_keys: 3_000,
        fields: 5,
        batch_size: 64,
        workers: 2,
        skew: SkewModel::paper_fit(),
        seed: 77,
        drift_keys_per_batch: 0,
    }
}

/// The synchronous (k = 0) trainer over any backend.
fn trainer(ps: &dyn PsClient) -> PipelinedTrainer<'_> {
    let mut cfg = TrainerConfig::paper(2);
    cfg.mode = TrainMode::Synthetic { grad_scale: 0.02 };
    PipelinedTrainer::with_client(ps, spec(), cfg, PipelineConfig::sync())
}

/// Train batches [from, to], requesting a checkpoint after `ckpt_at`.
fn train(node: &PsNode, from: u64, to: u64, ckpt_at: Option<u64>) {
    let mut t = trainer(node);
    for b in from..=to {
        t.run(b, 1);
        if ckpt_at == Some(b) {
            node.request_checkpoint(b);
        }
    }
}

/// Crash `node` at this instant (torn unfenced lines under `seed`) and
/// restore it from its media on two scan threads.
fn crash_and_restore(node: &PsNode, cache_entries: usize, seed: u64) -> Restored {
    let home = LocalMedia::new(Arc::clone(node.pool().media()), 2);
    restore(&home, node_cfg(cache_entries), seed).expect("checkpointed media restores")
}

fn assert_state_equals_reference(recovered: &PsNode, upto_batch: u64, cache_entries: usize) {
    let reference = PsNode::new(node_cfg(cache_entries));
    train(&reference, 1, upto_batch, None);
    let mut checked = 0;
    for key in 0..spec().num_keys {
        let (a, b) = (recovered.read_weights(key), reference.read_weights(key));
        assert_eq!(a, b, "key {key}");
        if a.is_some() {
            checked += 1;
        }
    }
    assert!(checked > 100, "nontrivial state compared: {checked}");
}

#[test]
fn recovery_is_bit_exact_with_large_cache() {
    // Large cache: few evictions, commit relies on the drain pass.
    let cache = 4_000;
    let node = PsNode::new(node_cfg(cache));
    train(&node, 1, 12, Some(8));
    train(&node, 13, 20, None); // progress past the checkpoint
    assert_eq!(node.committed_checkpoint(), 8);
    for seed in [1, 2, 3] {
        let Restored {
            node: recovered,
            report,
            ..
        } = crash_and_restore(&node, cache, seed);
        assert_eq!(report.resume_batch, 8);
        assert_state_equals_reference(&recovered, 8, cache);
    }
}

#[test]
fn recovery_is_bit_exact_with_tiny_cache() {
    // Tiny cache: constant evictions + version-chain churn; commits
    // happen on the eviction path (Alg. 2 lines 24-27).
    let cache = 48;
    let node = PsNode::new(node_cfg(cache));
    train(&node, 1, 10, Some(7));
    train(&node, 11, 15, None);
    assert_eq!(node.committed_checkpoint(), 7);
    let Restored {
        node: recovered,
        report,
        ..
    } = crash_and_restore(&node, cache, 9);
    assert_eq!(report.resume_batch, 7);
    assert_state_equals_reference(&recovered, 7, cache);
}

#[test]
fn multiple_sequential_checkpoints_recover_to_the_last() {
    let cache = 1_000;
    let node = PsNode::new(node_cfg(cache));
    for (upto, cp) in [(5u64, 5u64), (10, 10), (15, 15)] {
        train(&node, upto.saturating_sub(4), upto, Some(cp));
    }
    train(&node, 16, 18, None); // commits cp=15 during maintenance
    assert_eq!(node.committed_checkpoint(), 15);
    let Restored {
        node: recovered,
        report,
        ..
    } = crash_and_restore(&node, cache, 4);
    assert_eq!(report.resume_batch, 15);
    assert_state_equals_reference(&recovered, 15, cache);
}

#[test]
fn resume_after_recovery_matches_uninterrupted_run() {
    // Crash + recover + retrain the lost batches == never crashing,
    // because batches are deterministic. The strongest end-to-end claim.
    let cache = 800;
    let node = PsNode::new(node_cfg(cache));
    train(&node, 1, 10, Some(10));
    train(&node, 11, 11, None); // commit 10
    let Restored {
        node: recovered,
        report,
        ..
    } = crash_and_restore(&node, cache, 31);
    assert_eq!(report.resume_batch, 10);
    // Redo batch 11 and continue to 16 on the recovered node.
    train(&recovered, 11, 16, None);

    let uninterrupted = PsNode::new(node_cfg(cache));
    train(&uninterrupted, 1, 16, None);
    for key in 0..spec().num_keys {
        assert_eq!(
            recovered.read_weights(key),
            uninterrupted.read_weights(key),
            "key {key}"
        );
    }
}

#[test]
fn dram_ps_recovery_loses_post_checkpoint_progress_too() {
    // The incremental-checkpoint baseline recovers to its last dump —
    // engine-parity for the recovery contract.
    use openembedding::baselines::DramPs;
    let dram = DramPs::new(node_cfg(100), CkptDevice::Ssd);
    let mut t = trainer(&dram);
    t.run(1, 6);
    dram.request_checkpoint(6);
    t.run(7, 4); // lost progress
    let media = std::sync::Arc::clone(dram.ckpt_log().media());
    let mut cost = Cost::new();
    let (recovered, resume) =
        DramPs::recover(&media, node_cfg(100), CkptDevice::Ssd, &mut cost).unwrap();
    assert_eq!(resume, 6);

    let reference = DramPs::new(node_cfg(100), CkptDevice::Ssd);
    trainer(&reference).run(1, 6);
    for key in 0..spec().num_keys {
        assert_eq!(recovered.read_weights(key), reference.read_weights(key));
    }
}
