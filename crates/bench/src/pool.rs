//! Disaggregated-PMem bench: local vs DRAM vs remote-pool storage arms
//! at equal simulated cost, fabric congestion scaling, and pool-resident
//! vs crash-image recovery, JSON artifact `BENCH_pool.json`.
//!
//! Three measurements against the same scaled workload:
//!
//! - **backend sweep** — train the identical batch schedule on the
//!   three [`StorageBackend`] arms (local PMem, volatile DRAM, shared
//!   remote pool over the CXL-style fabric) and report epoch virtual
//!   time per arm. Every arm must end **bit-identical**: the backend
//!   moves charges, never values.
//! - **congestion sweep** — re-run the pool arm with extra nodes
//!   attached to the shared fabric link; the contention model inflates
//!   every transfer, quantifying what "shared" costs.
//! - **recovery** — promote the same trained, checkpointed state from
//!   its two homes with one [`Standby`]: [`LocalMedia`] (crash image,
//!   scanned on the standby) vs a [`PoolPartition`] (scanned near the
//!   pool, only the index summary shipped), at equal scan parallelism.
//!   The local/pool latency ratio is the gated headline: pool-resident
//!   recovery must not regress toward image shipping.
//!
//! [`StorageBackend`]: oe_core::StorageBackend

use oe_core::engine::PsEngine;
use oe_core::recovery::{DurableHome, LocalMedia};
use oe_core::{CheckpointScheduler, DramStore, NodeConfig, OptimizerKind, PsNode};
use oe_net::Standby;
use oe_pmem::PoolConfig;
use oe_pool::{FabricConfig, PoolPartition, RemotePool, SharedPool};
use oe_simdevice::Cost;
use oe_train::{GpuModel, PipelineConfig, PipelinedTrainer, TrainerConfig};
use oe_workload::{SkewModel, WorkloadSpec};
use std::sync::Arc;
use std::time::Instant;

/// Workload shape for one bench run.
#[derive(Debug, Clone)]
pub struct PoolBenchConfig {
    /// Embedding table size (distinct keys).
    pub num_keys: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// Sparse fields per example.
    pub fields: usize,
    /// Examples per global batch.
    pub batch_size: usize,
    /// Synchronous trainer workers (GPUs).
    pub workers: u32,
    /// Batches per measured run.
    pub batches: u64,
    /// Attached-node counts for the congestion sweep (1 = exclusive).
    pub attached_sweep: Vec<u32>,
    /// Workload / torn-write seed.
    pub seed: u64,
}

impl PoolBenchConfig {
    /// Paper-shaped run.
    pub fn paper() -> Self {
        Self {
            num_keys: 20_000,
            dim: 16,
            fields: 8,
            batch_size: 256,
            workers: 4,
            batches: 40,
            attached_sweep: vec![1, 4, 8],
            seed: 0xB007,
        }
    }

    /// Smoke-test run for CI: same shape, a fraction of the work.
    pub fn smoke() -> Self {
        Self {
            num_keys: 3_000,
            dim: 8,
            fields: 5,
            batch_size: 64,
            workers: 2,
            batches: 16,
            attached_sweep: vec![1, 4, 8],
            seed: 0xB007,
        }
    }

    fn workload(&self) -> WorkloadSpec {
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

    fn node_config(&self) -> NodeConfig {
        let mut cfg = NodeConfig::small(self.dim);
        cfg.optimizer = OptimizerKind::Adagrad {
            lr: 0.05,
            eps: 1e-8,
        };
        cfg.cache_bytes = (self.num_keys as usize / 10).max(64) * cfg.bytes_per_cached_entry();
        cfg.pmem_capacity = 1 << 26;
        cfg
    }

    fn pool_config(&self) -> PoolConfig {
        let cfg = self.node_config();
        PoolConfig {
            payload_bytes: cfg.payload_bytes(),
            capacity: cfg.pmem_capacity,
        }
    }

    fn trainer_config(&self) -> TrainerConfig {
        let mut cfg = TrainerConfig::paper(self.workers);
        // Checkpoint every batch so both recovery arms promote from the
        // same recent consistent point.
        cfg.ckpt = CheckpointScheduler::every(1);
        // PS-bound regime: with the calibrated GPU model, deferred
        // maintenance (where every flush/evict — and thus the entire
        // fabric surcharge — lands) hides completely in the compute
        // shadow and all backends report the same epoch time. A storage
        // bench must expose the storage plane, so the GPU contributes
        // zero and epoch time is pull + maintenance + push + ckpt.
        cfg.gpu = GpuModel {
            batch_overhead_ns: 0,
            ns_per_input_dim: 0.0,
            allreduce_ns: 0,
        };
        cfg
    }
}

/// One storage-backend arm of the epoch sweep.
#[derive(Debug, Clone)]
pub struct BackendArm {
    /// Backend label ("pmem", "dram", "pool").
    pub label: &'static str,
    /// End-to-end virtual training time.
    pub total_ns: u64,
    /// Wall-clock time for the same run (host noise; geomean-gated).
    pub wall_ns: u64,
    /// Virtual overhead vs the local-PMem arm (0.05 == +5%).
    pub overhead_vs_local: f64,
    /// Final weights bit-identical to the local-PMem arm.
    pub bit_identical: bool,
}

/// One attached-count arm of the fabric congestion sweep.
#[derive(Debug, Clone)]
pub struct CongestionArm {
    /// Nodes attached to the shared pool during the run.
    pub attached: u32,
    /// End-to-end virtual training time of the measured node.
    pub total_ns: u64,
    /// Virtual overhead vs the exclusive (attached = 1) pool arm.
    pub overhead_vs_exclusive: f64,
}

/// The recovery comparison at equal simulated cost: same trained state,
/// same scan parallelism, two topologies.
#[derive(Debug, Clone)]
pub struct RecoveryComparison {
    /// Crash-image promotion latency (local PMem, `LocalMedia`).
    pub local_recovery_ns: u64,
    /// Pool-resident promotion latency (near-pool scan + summary ship).
    pub pool_recovery_ns: u64,
    /// local / pool — the gated headline; > 1 means the pool wins.
    pub local_over_pool: f64,
    /// Batch both arms resume from (must agree).
    pub resume_batch: u64,
    /// Keys both arms restore (must agree).
    pub recovered_keys: usize,
}

/// Full bench artifact (serialized to `BENCH_pool.json` by ci.sh).
#[derive(Debug, Clone)]
pub struct PoolBenchReport {
    /// The configuration measured.
    pub config: PoolBenchConfig,
    /// Epoch time per storage backend.
    pub backends: Vec<BackendArm>,
    /// Fabric congestion scaling of the pool arm.
    pub congestion: Vec<CongestionArm>,
    /// Local crash-image vs pool-resident recovery.
    pub recovery: RecoveryComparison,
}

/// Train `node` over the standard schedule; returns (virtual ns, wall ns).
fn train(cfg: &PoolBenchConfig, node: &PsNode) -> (u64, u64) {
    let start = Instant::now();
    let sync = PipelineConfig::sync();
    let report = PipelinedTrainer::with_client(node, cfg.workload(), cfg.trainer_config(), sync)
        .run(1, cfg.batches);
    (report.train.total_ns, start.elapsed().as_nanos() as u64)
}

/// A PS node over a fresh partition of `shared`.
fn pool_node(cfg: &PoolBenchConfig, shared: &Arc<SharedPool>, node_id: u64) -> PsNode {
    let mut cost = Cost::new();
    let store = shared.create_partition(node_id, cfg.pool_config(), &mut cost);
    PsNode::with_storage(cfg.node_config(), Arc::new(store))
}

fn weights_match(a: &PsNode, b: &PsNode, num_keys: u64) -> bool {
    (0..num_keys).all(|k| a.read_weights(k) == b.read_weights(k))
}

/// Run the full comparison: backend sweep, congestion sweep, recovery.
pub fn run(cfg: &PoolBenchConfig) -> PoolBenchReport {
    // Backend sweep. The local arm is the reference for both time and
    // bit-identity.
    let local = PsNode::new(cfg.node_config());
    let (local_ns, local_wall) = train(cfg, &local);

    let dram = PsNode::with_storage(cfg.node_config(), {
        let mut cost = Cost::new();
        Arc::new(DramStore::create(cfg.pool_config(), &mut cost))
    });
    let (dram_ns, dram_wall) = train(cfg, &dram);

    let shared = SharedPool::new(FabricConfig::default());
    let pooled = pool_node(cfg, &shared, 0);
    let (pool_ns, pool_wall) = train(cfg, &pooled);

    let arm = |label, total_ns: u64, wall_ns, node: &PsNode| BackendArm {
        label,
        total_ns,
        wall_ns,
        overhead_vs_local: total_ns as f64 / local_ns as f64 - 1.0,
        bit_identical: weights_match(&local, node, cfg.num_keys),
    };
    let backends = vec![
        arm("pmem", local_ns, local_wall, &local),
        arm("dram", dram_ns, dram_wall, &dram),
        arm("pool", pool_ns, pool_wall, &pooled),
    ];

    // Congestion sweep: same pool run with extra attachments sharing
    // the fabric link. Idle attachments still shrink everyone's share
    // (the concurrency-efficiency model is population-based, matching
    // `ContentionModel`'s treatment of a shared device).
    let mut congestion = Vec::new();
    let mut exclusive_ns = pool_ns;
    for &attached in &cfg.attached_sweep {
        let shared = SharedPool::new(FabricConfig::default());
        let mut ballast: Vec<RemotePool> = Vec::new();
        let mut cost = Cost::new();
        for extra in 1..attached {
            ballast.push(shared.create_partition(
                1_000 + extra as u64,
                cfg.pool_config(),
                &mut cost,
            ));
        }
        let node = pool_node(cfg, &shared, 0);
        let (total_ns, _) = train(cfg, &node);
        if attached == 1 {
            exclusive_ns = total_ns;
        }
        congestion.push(CongestionArm {
            attached,
            total_ns,
            overhead_vs_exclusive: total_ns as f64 / exclusive_ns as f64 - 1.0,
        });
    }

    // Recovery at equal simulated cost: the local arm scans its crash
    // image on as many threads as the pool runs near-pool scanners; the
    // pool arm also ships the index summary.
    drop(pooled); // the pool node dies; its partition outlives it
    let scan_threads = shared.fabric().near_pool_threads;
    let homes: [Arc<dyn DurableHome>; 2] = [
        Arc::new(LocalMedia::new(
            Arc::clone(local.pool().media()),
            scan_threads,
        )),
        Arc::new(PoolPartition::new(Arc::clone(&shared), 0)),
    ];
    let [local_promo, pool_promo] = homes.map(|home| {
        let standby = Standby::new(home, cfg.node_config(), 1, cfg.seed);
        standby.promote().expect("trained bytes promote").event
    });
    assert_eq!(
        local_promo.resume_batch, pool_promo.resume_batch,
        "both arms promote the same committed checkpoint"
    );
    assert_eq!(local_promo.recovered_keys, pool_promo.recovered_keys);
    let recovery = RecoveryComparison {
        local_recovery_ns: local_promo.recovery_ns,
        pool_recovery_ns: pool_promo.recovery_ns,
        local_over_pool: local_promo.recovery_ns as f64 / pool_promo.recovery_ns.max(1) as f64,
        resume_batch: local_promo.resume_batch,
        recovered_keys: local_promo.recovered_keys,
    };

    PoolBenchReport {
        config: cfg.clone(),
        backends,
        congestion,
        recovery,
    }
}

/// Gated metrics: virtual inverse epoch times per backend, the
/// bit-identity bit, and the recovery ratio are deterministic and gate
/// absolutely; wall time gates only as one inverse geomean.
pub fn metrics(r: &PoolBenchReport) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    for b in &r.backends {
        m.push((
            format!("epoch_virtual_inv_{}", b.label),
            1e9 / b.total_ns.max(1) as f64,
        ));
    }
    m.push((
        "bit_identical".to_string(),
        if r.backends.iter().all(|b| b.bit_identical) {
            1.0
        } else {
            0.0
        },
    ));
    m.push((
        "recovery_local_over_pool".to_string(),
        r.recovery.local_over_pool,
    ));
    let wall = r
        .backends
        .iter()
        .map(|b| 1e9 / b.wall_ns.max(1) as f64)
        .collect::<Vec<_>>();
    let geomean = wall.iter().map(|v| v.ln()).sum::<f64>() / wall.len() as f64;
    m.push(("wall_inv_geomean".to_string(), geomean.exp()));
    m
}

/// Human-readable table, printed by the `pool` binary.
pub fn print_report(r: &PoolBenchReport) {
    println!(
        "workload: {} batches × {} examples, {} keys dim {}, {} workers",
        r.config.batches, r.config.batch_size, r.config.num_keys, r.config.dim, r.config.workers
    );
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>10}",
        "backend", "virtual ms", "wall ms", "overhead", "identical"
    );
    for b in &r.backends {
        println!(
            "{:<8} {:>12.3} {:>12.3} {:>9.2}% {:>10}",
            b.label,
            b.total_ns as f64 / 1e6,
            b.wall_ns as f64 / 1e6,
            b.overhead_vs_local * 100.0,
            b.bit_identical
        );
    }
    for c in &r.congestion {
        println!(
            "fabric ×{:<3} attached: {:>12.3} ms  (+{:.2}% vs exclusive)",
            c.attached,
            c.total_ns as f64 / 1e6,
            c.overhead_vs_exclusive * 100.0
        );
    }
    println!(
        "recovery: local crash-image {:.3} ms vs pool-resident {:.3} ms \
         (ratio {:.2}×, {} keys @ batch {})",
        r.recovery.local_recovery_ns as f64 / 1e6,
        r.recovery.pool_recovery_ns as f64 / 1e6,
        r.recovery.local_over_pool,
        r.recovery.recovered_keys,
        r.recovery.resume_batch
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PoolBenchConfig {
        PoolBenchConfig {
            num_keys: 1_000,
            batches: 8,
            attached_sweep: vec![1, 8],
            ..PoolBenchConfig::smoke()
        }
    }

    #[test]
    fn backends_agree_and_fabric_costs_show() {
        let r = run(&tiny());
        for b in &r.backends {
            assert!(b.bit_identical, "{} arm diverged", b.label);
        }
        let by = |l: &str| r.backends.iter().find(|b| b.label == l).unwrap();
        assert!(
            by("pool").total_ns > by("pmem").total_ns,
            "fabric surcharge must show: pool {} vs pmem {}",
            by("pool").total_ns,
            by("pmem").total_ns
        );
        assert!(
            by("dram").total_ns < by("pmem").total_ns,
            "volatile DRAM must be the cheapest arm"
        );
    }

    #[test]
    fn congestion_inflates_and_recovery_agrees() {
        let r = run(&tiny());
        assert_eq!(r.congestion.len(), 2);
        assert!(
            r.congestion[1].total_ns > r.congestion[0].total_ns,
            "8 attached nodes must cost more than an exclusive link"
        );
        assert!(r.recovery.resume_batch > 0);
        assert!(r.recovery.recovered_keys > 0);
        assert!(r.recovery.local_recovery_ns > 0);
        assert!(r.recovery.pool_recovery_ns > 0);
    }
}
