//! Seeded-case crash consistency at the PS-node level: whatever the
//! training history, cache pressure, checkpoint cadence, and crash seed,
//! recovery always reconstructs exactly the committed checkpoint's
//! state.

use openembedding::core::recovery::recover_node;
use openembedding::prelude::*;
use openembedding::simdevice::rng::Rng;
use openembedding::simdevice::Media;
use std::sync::Arc;

const DIM: usize = 4;
/// Generated cases per property; a failure names the case seed, which
/// replays it alone.
const CASES: u64 = 24;

fn node_cfg(cache_entries: usize) -> NodeConfig {
    let mut cfg = NodeConfig::small(DIM);
    cfg.optimizer = OptimizerKind::Sgd { lr: 0.25 };
    cfg.cache_bytes = cache_entries * cfg.bytes_per_cached_entry();
    cfg
}

/// Deterministic key set for a batch: a few hot keys plus rotating cold
/// ones, so both the cache hit path and the eviction path are exercised.
fn batch_keys(b: u64, width: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..4).collect(); // hot head
    keys.extend((0..width).map(|i| 10 + ((b * 7 + i * 13) % 50)));
    keys.sort_unstable();
    keys.dedup();
    keys
}

fn train_batch(node: &PsNode, b: u64, width: u64) {
    let keys = batch_keys(b, width);
    let mut out = Vec::new();
    let mut cost = Cost::new();
    node.pull(&keys, b, &mut out, &mut cost);
    node.end_pull_phase(b);
    let grads = vec![0.125f32; keys.len() * DIM];
    node.push(&keys, &grads, b, &mut cost);
}

/// For any cache size, checkpoint cadence, history length, and crash
/// seed: recovery lands on the last committed checkpoint and its
/// state equals a reference run stopped there.
#[test]
fn recovered_state_equals_reference() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0A5_0000 + case);
        let cache_entries = 4 + rng.below(60) as usize;
        let ckpt_every = 1 + rng.below(5);
        let batches = 4 + rng.below(16);
        let width = 4 + rng.below(16);
        let crash_seed = rng.below(500);

        let node = PsNode::new(node_cfg(cache_entries));
        for b in 1..=batches {
            train_batch(&node, b, width);
            if b % ckpt_every == 0 {
                node.request_checkpoint(b);
            }
        }
        // One more batch so pending checkpoints can commit.
        train_batch(&node, batches + 1, width);
        let committed = node.committed_checkpoint();

        let media = Arc::new(Media::from_crash(node.pool().media().crash(crash_seed)));
        let mut cost = Cost::new();
        let (recovered, report) =
            recover_node(media, node_cfg(cache_entries), &mut cost).expect("recoverable");
        assert_eq!(report.resume_batch, committed, "case {case}");
        assert_eq!(report.scan.corrupt, 0, "case {case}: protocol never tears");

        // Reference run stopped at the committed batch.
        let reference = PsNode::new(node_cfg(cache_entries));
        for b in 1..=committed {
            train_batch(&reference, b, width);
        }
        for key in 0..60u64 {
            assert_eq!(
                recovered.read_weights(key),
                reference.read_weights(key),
                "case {case}: key {key}"
            );
        }
    }
}

/// Crashing *before any checkpoint* recovers an empty model — no
/// partial training state ever leaks.
#[test]
fn no_checkpoint_recovers_empty() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xE3B7_0000 + case);
        let batches = 1 + rng.below(7);
        let crash_seed = rng.below(100);

        let node = PsNode::new(node_cfg(16));
        for b in 1..=batches {
            train_batch(&node, b, 8);
        }
        let media = Arc::new(Media::from_crash(node.pool().media().crash(crash_seed)));
        let mut cost = Cost::new();
        let (recovered, report) =
            recover_node(media, node_cfg(16), &mut cost).expect("recoverable");
        assert_eq!(report.resume_batch, 0, "case {case}");
        assert_eq!(
            recovered.num_keys(),
            0,
            "case {case}: nothing committed, nothing recovered"
        );
    }
}
