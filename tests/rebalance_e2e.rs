//! End-to-end live migration: a forced mid-epoch shard migration under
//! the trainer's synchronous (k = 0) schedule must be invisible to training — final
//! weights, logical counters and checkpoints bit-identical to a run
//! that never migrated, with zero double-applied gradients.

pub mod support;

use openembedding::cluster::{hash_node_of, MigrationStats};
use openembedding::prelude::*;
use support::rebalance::{self, RebalanceBenchConfig};

const DIM: usize = 8;
const NODES: usize = 3;
const BATCHES: u64 = 30;
const MIGRATE_AFTER: u64 = 10;
const WINDOW: u64 = 4;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        num_keys: 6_000,
        fields: 6,
        batch_size: 128,
        workers: 2,
        skew: SkewModel::paper_fit(),
        seed: 77,
        drift_keys_per_batch: 0,
    }
}

fn cluster() -> PlacedCluster<PsNode> {
    let mut cfg = NodeConfig::small(DIM);
    cfg.optimizer = OptimizerKind::Adagrad {
        lr: 0.05,
        eps: 1e-8,
    };
    cfg.cache_bytes = 400 * cfg.bytes_per_cached_entry();
    PlacedCluster::new((0..NODES).map(|_| PsNode::new(cfg.clone())).collect())
}

fn trainer_config() -> TrainerConfig {
    let mut cfg = TrainerConfig::paper(2);
    // Batch-boundary cadence: the migrated arm pays extra virtual time
    // for its seed copies and double-writes, so a wall-clock scheduler
    // would fire at different batches in the two arms.
    cfg.ckpt = CheckpointScheduler::every(1);
    cfg
}

#[test]
fn forced_mid_epoch_migration_is_bit_identical() {
    let migrated = cluster();
    let reference = cluster();
    let sync_trainer =
        |c| PipelinedTrainer::with_client(c, spec(), trainer_config(), PipelineConfig::sync());

    // Drain every key that hashes onto node 0 — seeded immediately if it
    // exists by MIGRATE_AFTER, late-seeded on first push otherwise.
    let moves: Vec<(u64, usize)> = (0..spec().num_keys)
        .filter(|&k| migrated.node_of(k) == 0)
        .map(|k| (k, 1 + (k as usize % (NODES - 1))))
        .collect();
    assert!(moves.len() > 100, "plenty of keys to move: {}", moves.len());

    let report_m = sync_trainer(&migrated)
        .try_run_with_hook(1, BATCHES, |b| {
            if b == MIGRATE_AFTER {
                let n = migrated.start_migration(
                    MigrationSpec {
                        moves: moves.clone(),
                        double_write_batches: WINDOW,
                    },
                    MIGRATE_AFTER,
                    &mut Cost::new(),
                );
                assert!(n > 0, "migration accepted mid-epoch");
            }
        })
        .unwrap()
        .train;
    let report_r = sync_trainer(&reference).run(1, BATCHES).train;

    // The migration actually happened …
    assert_eq!(migrated.placement_epoch(), 1, "cutover bumped the epoch");
    assert_eq!(reference.placement_epoch(), 0);
    assert!(!migrated.migration_active(), "window closed before the end");
    let ms: MigrationStats = migrated.migration_stats();
    assert_eq!(ms.migrations, 1);
    assert!(ms.keys_moved > 0);
    assert!(
        ms.double_write_pushes > 0,
        "pushes were in flight through the window"
    );
    assert_eq!(ms.double_write_batches, WINDOW);
    for &(k, _) in &moves {
        assert_ne!(migrated.node_of(k), 0, "key {k} rerouted off node 0");
        assert!(
            migrated.node(0).read_weights(k).is_none(),
            "source forgot key {k}"
        );
    }

    // … and training never noticed: bitwise-equal weights everywhere
    // (any double-applied gradient would diverge Adagrad immediately),
    assert_eq!(report_m.batches, report_r.batches);
    for k in 0..spec().num_keys {
        assert_eq!(
            migrated.read_weights(k),
            reference.read_weights(k),
            "key {k} diverged across the migration"
        );
    }
    // … logical counters placement-invariant (double-writes subtracted),
    let (sm, sr) = (migrated.stats(), reference.stats());
    assert_eq!(sm.pulls, sr.pulls);
    assert_eq!(sm.pushes, sr.pushes);
    assert_eq!(sm.new_entries, sr.new_entries);
    assert_eq!(migrated.num_keys(), reference.num_keys());
    // … and checkpointing marched through the migration undisturbed.
    assert_eq!(report_m.checkpoints_taken, report_r.checkpoints_taken);
    assert_eq!(
        migrated.committed_checkpoint(),
        reference.committed_checkpoint()
    );
    assert!(migrated.committed_checkpoint() > 0);
}

/// The rebalancing storm's smoke shape: the late-storm p99 batch time
/// of the static arm and of the rebalanced arm, and their ratio, all
/// virtual time; the two arms end bit-identical.
#[test]
fn smoke_shape_p99_improvement_is_pinned() {
    let r = rebalance::run(&RebalanceBenchConfig::smoke());
    assert!(r.bit_identical, "migration must be invisible to training");
    assert_eq!(r.static_arm.storm_late_p99_ns, 171_017, "static late p99");
    assert_eq!(
        r.rebalanced_arm.storm_late_p99_ns, 74_350,
        "rebalanced late p99"
    );
    assert_eq!(r.p99_improvement, 2.300161398789509, "p99 improvement");
}

// The storm at a smaller shape than the pinned one.

fn tiny() -> RebalanceBenchConfig {
    RebalanceBenchConfig {
        num_keys: 2_000,
        keys_per_batch: 512,
        crowd_size: 48,
        batches: 24,
        storm_start: 5,
        storm_end: 21,
        cache_entries_per_node: 36,
        min_window_keys: 96,
        // The tiny storm dedups to ~200 distinct keys, so the hot
        // head must cover a large fraction of them to reach the
        // whole 48-key crowd.
        hot_fraction: 0.4,
        ..RebalanceBenchConfig::smoke()
    }
}

#[test]
fn rebalancer_restores_tail_latency_bit_identically() {
    let r = rebalance::run(&tiny());
    assert!(r.bit_identical, "migration must be invisible to training");
    assert_eq!(r.static_arm.placement_epoch, 0);
    assert!(
        r.rebalanced_arm.placement_epoch >= 1,
        "storm must trigger the controller"
    );
    assert!(r.migration.keys_moved > 0);
    assert!(
        r.crowd_left_on_melted < r.config.crowd_size,
        "crowd drained off the melted node: {} left",
        r.crowd_left_on_melted
    );
    assert!(
        r.p99_improvement > 1.0,
        "rebalanced late-storm p99 must beat static: {:.3}×",
        r.p99_improvement
    );
}

#[test]
fn crowd_is_adversarial_for_the_hash() {
    let cfg = tiny();
    let crowd = cfg.crowd();
    assert_eq!(crowd.len(), cfg.crowd_size);
    assert!(crowd.iter().all(|&k| hash_node_of(k, cfg.num_nodes) == 0));
}
