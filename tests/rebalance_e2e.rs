//! End-to-end live migration: a forced mid-epoch shard migration under
//! the trainer's synchronous (k = 0) schedule must be invisible to training — final
//! weights, logical counters and checkpoints bit-identical to a run
//! that never migrated, with zero double-applied gradients.

use openembedding::cluster::MigrationStats;
use openembedding::prelude::*;

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
