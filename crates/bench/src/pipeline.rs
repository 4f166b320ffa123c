//! Checks of the sync-vs-bounded-async frontier on DeepFM-lite, kept
//! from the retired `pipeline` scenario (its numbers: EXPERIMENTS.md,
//! "Retired bench scenarios"). `e2e/` `pool-pipe` measures this path end
//! to end.

#[cfg(test)]
mod tests {
    use oe_core::{NodeConfig, OptimizerKind, PsNode};
    use oe_train::model::DeepFmConfig;
    use oe_train::{
        GpuModel, PipelineConfig, PipelineReport, PipelinedTrainer, TrainMode, TrainerConfig,
    };
    use oe_workload::{SkewModel, WorkloadSpec};

    // The scenario's test shape: a pull/push-heavy DeepFM-lite (fast
    // dense part, fat embedding traffic), two epochs of eight batches,
    // each epoch ending in a drain barrier.
    const DIM: usize = 16;
    const FIELDS: usize = 6;
    const EPOCHS: u64 = 2;
    const BATCHES_PER_EPOCH: u64 = 8;

    struct Arm {
        total_ns: u64,
        /// Cumulative virtual ns and held-out accuracy after each epoch.
        curve: Vec<(u64, f64)>,
        last: PipelineReport,
    }

    fn run_arm(k: usize) -> Arm {
        let mut nc = NodeConfig::small(DIM);
        nc.optimizer = OptimizerKind::Adagrad {
            lr: 0.02,
            eps: 1e-8,
        };
        nc.cache_bytes = 512 * nc.bytes_per_cached_entry();
        nc.pmem_capacity = 1 << 28;
        let node = PsNode::new(nc);
        let spec = WorkloadSpec {
            num_keys: 6_000,
            fields: FIELDS,
            batch_size: 128,
            workers: 2,
            skew: SkewModel::paper_fit(),
            seed: 0x91de,
            drift_keys_per_batch: 0,
        };
        let mut cfg = TrainerConfig::paper(2);
        cfg.gpu = GpuModel {
            batch_overhead_ns: 80_000,
            ns_per_input_dim: 18.0,
            allreduce_ns: 100_000,
        };
        cfg.mode = TrainMode::DeepFm(DeepFmConfig {
            dim: DIM,
            fields: FIELDS,
            dense_features: 0,
            hidden: vec![32, 16],
            dense_lr: 0.004,
            seed: 99,
        });
        let pcfg = match k {
            0 => PipelineConfig::sync(),
            k => PipelineConfig::bounded(k, 1_024),
        };
        let mut t = PipelinedTrainer::with_client(&node, spec, cfg, pcfg);
        let mut curve = Vec::new();
        let mut last = None;
        for e in 0..EPOCHS {
            let r = t.run(1 + e * BATCHES_PER_EPOCH, BATCHES_PER_EPOCH);
            let accuracy = t.eval_accuracy(0xEE1, 2).expect("DeepFM mode");
            curve.push((r.train.total_ns, accuracy));
            last = Some(r);
        }
        Arm {
            total_ns: curve[curve.len() - 1].0,
            curve,
            last: last.expect("epochs >= 1"),
        }
    }

    #[test]
    fn frontier_is_anchored_at_zero_and_faster_at_two() {
        let (k0, k2) = (run_arm(0), run_arm(2));
        assert_eq!(k0.last.stale_read_occurrences, 0);
        assert_eq!(k0.last.async_applied_batches, 0);
        let speedup = k0.total_ns as f64 / k2.total_ns as f64;
        assert!(speedup > 1.0, "overlap must help: {speedup:.3}×");
        assert!(k2.last.prefetch_hit_rate > 0.0);
        assert_eq!(k2.curve.len(), 2, "one convergence point per epoch");
        assert!(k2.curve[1].0 > k2.curve[0].0);
    }

    /// What a gate may hold is what replays exactly: virtual time,
    /// prefetch counts and held-out accuracy, at k = 0 and k = 2.
    #[test]
    fn gated_subset_is_deterministic_metrics_plus_wall_geomean() {
        for k in [0, 2] {
            let (a, b) = (run_arm(k), run_arm(k));
            assert_eq!(a.total_ns, b.total_ns, "k = {k}");
            assert_eq!(a.curve, b.curve, "k = {k}");
            assert_eq!(a.last.prefetch_hits, b.last.prefetch_hits, "k = {k}");
            assert_eq!(a.last.prefetch_misses, b.last.prefetch_misses, "k = {k}");
        }
    }
}
