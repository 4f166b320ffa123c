//! Fault tolerance demo: batch-level checkpoint consistency under
//! crashes (paper §V-C, §VI-E).
//!
//! Trains with periodic lightweight checkpoints, kills the machine at a
//! random point, recovers, and *proves* batch-level consistency: the
//! recovered weights are bit-identical to an independent reference run
//! stopped exactly at the committed checkpoint.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use openembedding::core::recovery::restore;
use openembedding::prelude::*;
use std::sync::Arc;

const DIM: usize = 8;

fn node_cfg() -> NodeConfig {
    let mut cfg = NodeConfig::small(DIM);
    cfg.optimizer = OptimizerKind::Adagrad {
        lr: 0.05,
        eps: 1e-8,
    };
    cfg.cache_bytes = 64 << 10;
    cfg
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        num_keys: 5_000,
        fields: 6,
        batch_size: 128,
        workers: 2,
        skew: SkewModel::paper_fit(),
        seed: 99,
        drift_keys_per_batch: 0,
    }
}

/// Train `node` for batches [from, to] with synthetic gradients,
/// requesting a checkpoint after every `ckpt_every` batches.
fn train(node: &PsNode, from: u64, to: u64, ckpt_every: u64) {
    let mut cfg = TrainerConfig::paper(2);
    cfg.mode = TrainMode::Synthetic { grad_scale: 0.02 };
    let mut t = PipelinedTrainer::with_client(node, spec(), cfg, PipelineConfig::sync());
    for b in from..=to {
        t.run(b, 1);
        if ckpt_every > 0 && b % ckpt_every == 0 {
            node.request_checkpoint(b);
        }
    }
}

fn main() {
    println!("== Fault tolerance / batch-level consistency demo ==\n");

    // Run A: train 25 batches, checkpoint every 5.
    let node = PsNode::new(node_cfg());
    train(&node, 1, 25, 5);
    let committed = node.committed_checkpoint();
    println!("trained 25 batches; committed checkpoint = {committed}");

    // CRASH at an arbitrary instant (torn unfenced lines, seeded) and
    // restore from the node's media, scanned on 4 threads — the routine
    // a standby runs when it is promoted.
    let home = LocalMedia::new(Arc::clone(node.pool().media()), 4);
    let restored = restore(&home, node_cfg(), 0xBADC0FFE).expect("checkpointed media restores");
    let (recovered, scan) = (restored.node, &restored.report.scan);
    let resume_batch = restored.report.resume_batch;
    println!(
        "crash! recovered {} keys to batch {resume_batch} in {:.1} ms (virtual), discarded {} uncommitted slots",
        scan.live.len(),
        restored.recovery_ns as f64 / 1e6,
        scan.discarded_future
    );

    // Reference: an independent run stopped exactly at the checkpoint.
    let reference = PsNode::new(node_cfg());
    train(&reference, 1, resume_batch, 0);

    // Verify bit-identical weights for every recovered key.
    let mut checked = 0u64;
    let mut max_dev = 0.0f32;
    for key in 0..spec().num_keys {
        match (recovered.read_weights(key), reference.read_weights(key)) {
            (Some(a), Some(b)) => {
                for (x, y) in a.iter().zip(&b) {
                    max_dev = max_dev.max((x - y).abs());
                }
                checked += 1;
            }
            (None, None) => {}
            (a, b) => panic!(
                "key {key}: presence mismatch (recovered {:?}, reference {:?})",
                a.is_some(),
                b.is_some()
            ),
        }
    }
    println!("verified {checked} keys: max weight deviation = {max_dev:e}");
    assert_eq!(max_dev, 0.0, "batch-level consistency is bit-exact");

    // Resume and finish the epoch on the recovered node.
    train(&recovered, resume_batch + 1, 30, 5);
    println!(
        "resumed and trained to batch 30; committed checkpoint = {}",
        recovered.committed_checkpoint()
    );
    println!("\nfault-tolerance demo complete: recovery is exact and fast.");
}
