//! Sync-vs-bounded-async pipelining frontier on DeepFM-lite, JSON
//! artifact `BENCH_pipeline.json`.
//!
//! One arm per staleness bound `k ∈ {0, 1, 2, 4}` replays the identical
//! zipf-skewed DeepFM-lite workload through the trainer:
//!
//! - **k = 0** is the synchronous schedule and the reference every
//!   speedup is measured against (that it still produces what the
//!   former synchronous trainer did is pinned by the golden tests in
//!   `tests/pipeline_e2e.rs`, not re-derived here).
//! - **k ≥ 1** overlaps the PS lane (due applies + next-batch prefetch)
//!   with GPU compute, so the epoch's virtual time shrinks toward the
//!   compute critical path. The workload is pull/push-heavy (lite dense
//!   part, fat embedding traffic), the shape where pipelining pays.
//!
//! Reported per arm: epoch virtual time, wall time of the simulation
//! itself, prefetch hit-rate, stale-read conflict counts, and the
//! accuracy-vs-virtual-time convergence curve (one point per epoch,
//! scored against the synthetic teacher on a held-out seed). Epoch
//! boundaries are barriers: each epoch drains the push queue, so every
//! arm ends an epoch with the same gradients applied.

use oe_core::{NodeConfig, OptimizerKind, PsNode};
use oe_train::model::DeepFmConfig;
use oe_train::{
    GpuModel, PipelineConfig, PipelineReport, PipelinedTrainer, TrainMode, TrainerConfig,
};
use oe_workload::{SkewModel, WorkloadSpec};
use std::time::Instant;

/// Workload + model + pipeline shape for one bench run.
#[derive(Debug, Clone)]
pub struct PipelineBenchConfig {
    /// Embedding table size (distinct keys).
    pub num_keys: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// Sparse fields per example.
    pub fields: usize,
    /// Global batch size (split across workers).
    pub batch_size: usize,
    /// GPU workers.
    pub workers: u32,
    /// Epochs per arm (each epoch ends in a drain barrier).
    pub epochs: u64,
    /// Batches per epoch.
    pub batches_per_epoch: u64,
    /// Staleness bounds to sweep; starts at 0, the synchronous
    /// reference arm.
    pub staleness_arms: Vec<usize>,
    /// Prefetch-cache capacity in entries — deliberately below the
    /// epoch's working set so the cold tail streams through the demand
    /// path and the hit-rate is a real skew measurement.
    pub prefetch_capacity: usize,
    /// PS-node DRAM cache budget in entries.
    pub cache_entries_per_node: usize,
    /// DeepFM-lite GPU time per input×dim (the lite dense part computes
    /// quickly, which is exactly when PS time dominates and overlap
    /// pays).
    pub gpu_ns_per_input_dim: f64,
    /// Per-batch allreduce of the lite dense part.
    pub gpu_allreduce_ns: u64,
    /// Fixed kernel-launch overhead per batch.
    pub gpu_batch_overhead_ns: u64,
    /// MLP hidden widths of the lite model.
    pub hidden: Vec<usize>,
    /// Held-out batches scored per convergence point.
    pub eval_batches: u64,
    /// Seed shift for the held-out eval workload.
    pub eval_seed: u64,
    /// Workload seed.
    pub seed: u64,
}

impl PipelineBenchConfig {
    /// Paper-shaped run.
    pub fn paper() -> Self {
        Self {
            num_keys: 120_000,
            dim: 64,
            fields: 16,
            batch_size: 1_024,
            workers: 4,
            epochs: 4,
            batches_per_epoch: 30,
            staleness_arms: vec![0, 1, 2, 4],
            prefetch_capacity: 12_288,
            cache_entries_per_node: 8_192,
            gpu_ns_per_input_dim: 18.0,
            gpu_allreduce_ns: 100_000,
            gpu_batch_overhead_ns: 80_000,
            hidden: vec![32, 16],
            eval_batches: 6,
            eval_seed: 0xEE1,
            seed: 0x91de,
        }
    }

    /// Smoke-test run for CI: same shape, a fraction of the work.
    pub fn smoke() -> Self {
        Self {
            num_keys: 40_000,
            dim: 32,
            fields: 12,
            batch_size: 512,
            workers: 2,
            epochs: 2,
            batches_per_epoch: 20,
            staleness_arms: vec![0, 1, 2, 4],
            prefetch_capacity: 6_144,
            cache_entries_per_node: 4_096,
            gpu_ns_per_input_dim: 18.0,
            gpu_allreduce_ns: 100_000,
            gpu_batch_overhead_ns: 80_000,
            hidden: vec![32, 16],
            eval_batches: 4,
            eval_seed: 0xEE1,
            seed: 0x91de,
        }
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            num_keys: self.num_keys,
            fields: self.fields,
            batch_size: self.batch_size,
            workers: self.workers as usize,
            skew: SkewModel::paper_fit(),
            seed: self.seed,
            drift_keys_per_batch: 0,
        }
    }

    fn trainer_cfg(&self) -> TrainerConfig {
        let mut cfg = TrainerConfig::paper(self.workers);
        cfg.gpu = GpuModel {
            batch_overhead_ns: self.gpu_batch_overhead_ns,
            ns_per_input_dim: self.gpu_ns_per_input_dim,
            allreduce_ns: self.gpu_allreduce_ns,
        };
        cfg.mode = TrainMode::DeepFm(DeepFmConfig {
            dim: self.dim,
            fields: self.fields,
            dense_features: 0,
            hidden: self.hidden.clone(),
            dense_lr: 0.004,
            seed: 99,
        });
        cfg
    }

    fn node(&self) -> PsNode {
        let mut cfg = NodeConfig::small(self.dim);
        cfg.optimizer = OptimizerKind::Adagrad {
            lr: 0.02,
            eps: 1e-8,
        };
        cfg.cache_bytes = self.cache_entries_per_node * cfg.bytes_per_cached_entry();
        cfg.pmem_capacity = 1 << 28;
        PsNode::new(cfg)
    }
}

/// One point on an arm's convergence curve.
#[derive(Debug, Clone)]
pub struct EpochPoint {
    /// Epoch index (1-based).
    pub epoch: u64,
    /// Virtual time of this epoch alone.
    pub epoch_virtual_ns: u64,
    /// Cumulative virtual time at the end of this epoch — the x-axis
    /// of the accuracy-vs-epoch-time curve.
    pub cum_virtual_ns: u64,
    /// Mean training loss over the epoch.
    pub avg_loss: f64,
    /// Held-out accuracy against the synthetic teacher.
    pub accuracy: f64,
}

/// One staleness arm of the frontier.
#[derive(Debug, Clone)]
pub struct StalenessArm {
    /// Staleness bound `k`.
    pub staleness: usize,
    /// End-to-end virtual time across all epochs.
    pub total_virtual_ns: u64,
    /// Wall-clock time of the simulated training itself (eval excluded).
    pub wall_ms: f64,
    /// k = 0 arm's virtual time / this arm's (>1 == overlap wins).
    pub virtual_speedup_vs_sync: f64,
    /// Wall-clock ratio vs the k = 0 arm (noisy; geomean-gated only).
    pub wall_speedup_vs_sync: f64,
    /// Fraction of serve-time lookups answered from the prefetch cache.
    pub prefetch_hit_rate: f64,
    /// Serve-time cache hits.
    pub prefetch_hits: u64,
    /// Serve-time demand pulls.
    pub prefetch_misses: u64,
    /// Pulled key occurrences with a pending unapplied push (0 at k=0).
    pub stale_read_occurrences: u64,
    /// Distinct keys ever read stale.
    pub stale_read_keys: u64,
    /// Push batches applied out-of-band on the overlapped lane.
    pub async_applied_batches: u64,
    /// Virtual time hidden under the GPU lane.
    pub hidden_ns: u64,
    /// Serial drain time (epoch barriers + epilogues).
    pub drain_ns: u64,
    /// Held-out accuracy after the final epoch.
    pub final_accuracy: f64,
    /// Accuracy-vs-virtual-time convergence curve, one point per epoch.
    pub curve: Vec<EpochPoint>,
}

/// Full bench artifact (serialized to `BENCH_pipeline.json` by ci.sh).
#[derive(Debug, Clone)]
pub struct PipelineBenchReport {
    /// The configuration measured.
    pub config: PipelineBenchConfig,
    /// One arm per staleness bound; `arms[0]` is the k = 0 reference.
    pub arms: Vec<StalenessArm>,
    /// Best virtual speedup across the k ≥ 1 arms.
    pub best_virtual_speedup: f64,
    /// Geometric mean of the k ≥ 1 arms' wall speedups.
    pub wall_speedup_geomean: f64,
}

struct ArmRun {
    total_ns: u64,
    wall_ms: f64,
    last: Option<PipelineReport>,
    curve: Vec<EpochPoint>,
}

fn run_arm(cfg: &PipelineBenchConfig, k: usize) -> ArmRun {
    let node = cfg.node();
    let mut t = PipelinedTrainer::with_client(
        &node,
        cfg.spec(),
        cfg.trainer_cfg(),
        if k == 0 {
            PipelineConfig::sync()
        } else {
            PipelineConfig::bounded(k, cfg.prefetch_capacity)
        },
    );
    let mut wall = std::time::Duration::ZERO;
    let mut curve = Vec::with_capacity(cfg.epochs as usize);
    let mut last = None;
    let mut prev_ns = 0u64;
    for e in 0..cfg.epochs {
        let start = Instant::now();
        let r = t.run(1 + e * cfg.batches_per_epoch, cfg.batches_per_epoch);
        wall += start.elapsed();
        let cum = r.train.total_ns;
        curve.push(EpochPoint {
            epoch: e + 1,
            epoch_virtual_ns: cum - prev_ns,
            cum_virtual_ns: cum,
            avg_loss: r.train.avg_loss.unwrap_or(f64::NAN),
            accuracy: t
                .eval_accuracy(cfg.eval_seed, cfg.eval_batches)
                .unwrap_or(0.0),
        });
        prev_ns = cum;
        last = Some(r);
    }
    ArmRun {
        total_ns: prev_ns,
        wall_ms: wall.as_secs_f64() * 1e3,
        last,
        curve,
    }
}

/// Run the frontier: one arm per staleness bound over the identical
/// workload, each measured against the k = 0 arm that leads the sweep.
pub fn run(cfg: &PipelineBenchConfig) -> PipelineBenchReport {
    assert_eq!(cfg.staleness_arms.first(), Some(&0), "k = 0 leads");
    let runs: Vec<ArmRun> = cfg
        .staleness_arms
        .iter()
        .map(|&k| run_arm(cfg, k))
        .collect();
    let (sync_ns, sync_wall_ms) = (runs[0].total_ns, runs[0].wall_ms);
    let mut arms: Vec<StalenessArm> = Vec::with_capacity(runs.len());
    let mut best_virtual_speedup = 0.0f64;
    let mut wall_log_sum = 0.0f64;
    let mut wall_n = 0usize;
    for (&k, a) in cfg.staleness_arms.iter().zip(runs) {
        let virtual_speedup = sync_ns as f64 / a.total_ns.max(1) as f64;
        let wall_speedup = sync_wall_ms / a.wall_ms.max(1e-9);
        if k >= 1 {
            best_virtual_speedup = best_virtual_speedup.max(virtual_speedup);
            wall_log_sum += wall_speedup.ln();
            wall_n += 1;
        }
        let r = a.last.as_ref().expect("epochs >= 1");
        arms.push(StalenessArm {
            staleness: k,
            total_virtual_ns: a.total_ns,
            wall_ms: a.wall_ms,
            virtual_speedup_vs_sync: virtual_speedup,
            wall_speedup_vs_sync: wall_speedup,
            prefetch_hit_rate: r.prefetch_hit_rate,
            prefetch_hits: r.prefetch_hits,
            prefetch_misses: r.prefetch_misses,
            stale_read_occurrences: r.stale_read_occurrences,
            stale_read_keys: r.stale_read_keys,
            async_applied_batches: r.async_applied_batches,
            hidden_ns: r.hidden_ns,
            drain_ns: r.drain_ns,
            final_accuracy: a.curve.last().map_or(0.0, |p| p.accuracy),
            curve: a.curve,
        });
    }

    PipelineBenchReport {
        config: cfg.clone(),
        arms,
        best_virtual_speedup,
        wall_speedup_geomean: if wall_n > 0 {
            (wall_log_sum / wall_n as f64).exp()
        } else {
            0.0
        },
    }
}

/// All recorded metrics (higher-is-better). The gated subset is chosen
/// by the `pipeline` binary: the deterministic virtual-time metrics
/// absolutely, the noisy wall-clock ratio only as a geomean.
pub fn metrics(r: &PipelineBenchReport) -> Vec<(String, f64)> {
    let cfg = &r.config;
    let mut m = vec![
        (
            "sync_epochs_per_vsec".to_string(),
            cfg.epochs as f64 * 1e9 / r.arms[0].total_virtual_ns.max(1) as f64,
        ),
        ("best_virtual_speedup".to_string(), r.best_virtual_speedup),
        ("wall_speedup_geomean".to_string(), r.wall_speedup_geomean),
    ];
    for a in &r.arms {
        if a.staleness >= 1 {
            m.push((
                format!("virtual_speedup_s{}", a.staleness),
                a.virtual_speedup_vs_sync,
            ));
            m.push((
                format!("prefetch_hit_rate_s{}", a.staleness),
                a.prefetch_hit_rate,
            ));
        }
        m.push((format!("final_accuracy_s{}", a.staleness), a.final_accuracy));
    }
    m
}

/// The deterministic subset the gate enforces: virtual-time metrics
/// (absolute), plus the wall-clock geomean (30% slack absorbs machine
/// noise). Per-arm wall ratios and accuracies are recorded but never
/// gated.
pub fn gated_metrics(r: &PipelineBenchReport) -> Vec<(String, f64)> {
    metrics(r)
        .into_iter()
        .filter(|(k, _)| {
            k == "sync_epochs_per_vsec"
                || k == "wall_speedup_geomean"
                || k.starts_with("virtual_speedup_s")
                || k.starts_with("prefetch_hit_rate_s")
        })
        .collect()
}

/// Human-readable frontier table, printed by `figures -- pipeline`.
pub fn print_report(r: &PipelineBenchReport) {
    let c = &r.config;
    println!(
        "DeepFM-lite: {} keys, dim {}, {} fields, batch {} × {} workers, {} epochs × {} batches, prefetch cap {}",
        c.num_keys, c.dim, c.fields, c.batch_size, c.workers, c.epochs, c.batches_per_epoch,
        c.prefetch_capacity
    );
    let sync = &r.arms[0];
    println!(
        "sync reference (k=0): {:.3} ms virtual / epoch, {:.1} ms wall, final loss {:.4}",
        sync.total_virtual_ns as f64 / 1e6 / c.epochs as f64,
        sync.wall_ms,
        sync.curve.last().map_or(f64::NAN, |p| p.avg_loss)
    );
    println!(
        "{:<10} {:>14} {:>9} {:>9} {:>8} {:>12} {:>10} {:>8}",
        "staleness",
        "epoch ms(virt)",
        "v-speedup",
        "hit rate",
        "stale",
        "hidden ms",
        "drain ms",
        "acc"
    );
    for a in &r.arms {
        println!(
            "{:<10} {:>14.3} {:>8.2}× {:>8.1}% {:>8} {:>12.3} {:>10.3} {:>7.1}%",
            a.staleness,
            a.total_virtual_ns as f64 / 1e6 / c.epochs as f64,
            a.virtual_speedup_vs_sync,
            a.prefetch_hit_rate * 100.0,
            a.stale_read_occurrences,
            a.hidden_ns as f64 / 1e6,
            a.drain_ns as f64 / 1e6,
            a.final_accuracy * 100.0,
        );
    }
    println!("convergence (cumulative virtual ms → held-out accuracy):");
    for a in &r.arms {
        let pts: Vec<String> = a
            .curve
            .iter()
            .map(|p| {
                format!(
                    "{:.1}ms→{:.1}%",
                    p.cum_virtual_ns as f64 / 1e6,
                    p.accuracy * 100.0
                )
            })
            .collect();
        println!("  k={}: {}", a.staleness, pts.join("  "));
    }
    println!(
        "best virtual speedup: {:.2}×   wall geomean: {:.2}×",
        r.best_virtual_speedup, r.wall_speedup_geomean
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PipelineBenchConfig {
        PipelineBenchConfig {
            num_keys: 6_000,
            dim: 16,
            fields: 6,
            batch_size: 128,
            workers: 2,
            epochs: 2,
            batches_per_epoch: 8,
            staleness_arms: vec![0, 2],
            prefetch_capacity: 1_024,
            cache_entries_per_node: 512,
            eval_batches: 2,
            ..PipelineBenchConfig::smoke()
        }
    }

    #[test]
    fn frontier_is_anchored_at_zero_and_faster_at_two() {
        let r = run(&tiny());
        assert_eq!(r.arms.len(), 2);
        assert_eq!(r.arms[0].staleness, 0);
        assert_eq!(r.arms[0].virtual_speedup_vs_sync, 1.0, "its own reference");
        assert_eq!(r.arms[0].stale_read_occurrences, 0);
        assert_eq!(r.arms[0].async_applied_batches, 0);
        let k2 = &r.arms[1];
        assert!(
            k2.virtual_speedup_vs_sync > 1.0,
            "overlap must help: {:.3}×",
            k2.virtual_speedup_vs_sync
        );
        assert!(k2.prefetch_hit_rate > 0.0);
        assert_eq!(k2.curve.len(), 2, "one convergence point per epoch");
        assert!(k2.curve[1].cum_virtual_ns > k2.curve[0].cum_virtual_ns);
    }

    #[test]
    fn gated_subset_is_deterministic_metrics_plus_wall_geomean() {
        let r = run(&tiny());
        let gated = gated_metrics(&r);
        assert!(gated.iter().any(|(k, _)| k == "sync_epochs_per_vsec"));
        assert!(gated.iter().any(|(k, _)| k == "virtual_speedup_s2"));
        assert!(gated.iter().any(|(k, _)| k == "wall_speedup_geomean"));
        assert!(
            !gated.iter().any(|(k, _)| k.starts_with("final_accuracy")),
            "accuracy is recorded, never gated"
        );
        // Virtual metrics replay deterministically.
        let r2 = run(&tiny());
        assert_eq!(r.arms[0].total_virtual_ns, r2.arms[0].total_virtual_ns);
        assert_eq!(r.arms[1].total_virtual_ns, r2.arms[1].total_virtual_ns);
    }
}
