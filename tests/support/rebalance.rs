//! Skew-aware rebalancing storm: a zipf hot-key storm melts one shard
//! and the controller drains it live.
//!
//! Two arms replay the identical deterministic storm ([`StormGen`]):
//!
//! - **static** — a [`PlacedCluster`] with no controller: the flash
//!   crowd's keys all hash onto one node, its DRAM cache thrashes, and
//!   every batch pays that shard's melted burst latency (the cluster
//!   burst is the max over parallel shards, so one hot node gates all).
//! - **rebalanced** — the same cluster with telemetry-driven
//!   rebalancing: the controller spots the runaway node from windowed
//!   per-shard load/p99, seed-copies the hot entries to the cool nodes,
//!   double-writes through the window, and cuts over mid-epoch without
//!   stopping the run.
//!
//! Reported: per-batch p99 in the late storm window (after the
//! controller has had time to act) for both arms, the improvement
//! ratio, and the migration bill (keys moved, seed copies, double-write
//! pushes). The arms must end **bit-identical** — live migration is
//! pure mechanism, invisible to training. `tests/rebalance_e2e.rs` pins
//! the [`RebalanceBenchConfig::smoke`] shape's numbers.

use openembedding::cluster::{
    hash_node_of, MigrationStats, PlacedCluster, PlacerConfig, RebalanceConfig,
};
use openembedding::core::{NodeConfig, OptimizerKind, PsEngine, PsNode};
use openembedding::simdevice::Cost;
use openembedding::workload::{SkewModel, StormGen, StormSpec};

/// Workload + storm + controller shape for one run.
#[derive(Debug, Clone)]
pub struct RebalanceBenchConfig {
    /// PS nodes in the cluster.
    pub num_nodes: usize,
    /// Embedding table size (distinct keys).
    pub num_keys: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// Key references per batch (before dedup).
    pub keys_per_batch: usize,
    /// Flash-crowd size; every crowd key hashes onto the melted node.
    pub crowd_size: usize,
    /// Fraction of in-storm references hitting the crowd.
    pub hot_share: f64,
    /// Batches per arm.
    pub batches: u64,
    /// Storm window `[storm_start, storm_end)`.
    pub storm_start: u64,
    /// Exclusive end of the storm window.
    pub storm_end: u64,
    /// Per-node DRAM cache budget in entries — sized so one node cannot
    /// hold the crowd but the cluster together can.
    pub cache_entries_per_node: usize,
    /// Controller cadence in batches.
    pub check_every_batches: u64,
    /// Double-write window length in batches.
    pub double_write_batches: u64,
    /// Controller evidence floor: total window keys below this never
    /// trigger (scaled with `keys_per_batch` so short windows count).
    pub min_window_keys: u64,
    /// Placer hot-head fraction (of distinct keys observed).
    pub hot_fraction: f64,
    /// Placer per-migration move cap.
    pub max_moves: usize,
    /// Workload seed.
    pub seed: u64,
}

impl RebalanceBenchConfig {
    /// The pinned shape: four nodes, a 64-key crowd storming batches
    /// `[8, 32)` of 36.
    pub fn smoke() -> Self {
        Self {
            num_nodes: 4,
            num_keys: 4_000,
            dim: 8,
            keys_per_batch: 1_024,
            crowd_size: 64,
            hot_share: 0.85,
            batches: 36,
            storm_start: 8,
            storm_end: 32,
            cache_entries_per_node: 48,
            check_every_batches: 4,
            double_write_batches: 2,
            min_window_keys: 192,
            hot_fraction: 0.35,
            max_moves: 256,
            seed: 0x5702,
        }
    }

    /// The crowd: the first `crowd_size` keys that static-hash onto
    /// node 0 — the adversarial flash crowd for hash placement.
    pub fn crowd(&self) -> Vec<u64> {
        (0..self.num_keys)
            .filter(|&k| hash_node_of(k, self.num_nodes) == 0)
            .take(self.crowd_size)
            .collect()
    }

    fn storm(&self) -> StormSpec {
        StormSpec {
            num_keys: self.num_keys,
            keys_per_batch: self.keys_per_batch,
            hot_keys: self.crowd(),
            hot_share: self.hot_share,
            storm_start: self.storm_start,
            storm_end: self.storm_end,
            base: SkewModel::paper_fit(),
            seed: self.seed,
        }
    }

    fn node_config(&self) -> NodeConfig {
        let mut cfg = NodeConfig::small(self.dim);
        cfg.optimizer = OptimizerKind::Adagrad {
            lr: 0.05,
            eps: 1e-8,
        };
        cfg.cache_bytes = self.cache_entries_per_node * cfg.bytes_per_cached_entry();
        cfg.pmem_capacity = 1 << 26;
        cfg
    }

    fn nodes(&self) -> Vec<PsNode> {
        (0..self.num_nodes)
            .map(|_| PsNode::new(self.node_config()))
            .collect()
    }

    fn controller(&self) -> RebalanceConfig {
        RebalanceConfig {
            check_every_batches: self.check_every_batches,
            double_write_batches: self.double_write_batches,
            min_window_keys: self.min_window_keys,
            placer: PlacerConfig {
                hot_fraction: self.hot_fraction,
                max_moves: self.max_moves,
            },
        }
    }

    /// Late-storm window start: the second half of the storm, after the
    /// controller has had time to notice, drain and cut over.
    fn late_start(&self) -> u64 {
        (self.storm_start + self.storm_end) / 2
    }
}

/// Virtual-time outcome of one arm.
#[derive(Debug, Clone)]
pub struct ArmResult {
    /// p99 batch time in the storm's second half (rebalanced arm has
    /// cut over by now).
    pub storm_late_p99_ns: u64,
    /// Final placement epoch (0 == never migrated).
    pub placement_epoch: u64,
}

/// Outcome of both arms.
#[derive(Debug, Clone)]
pub struct RebalanceReport {
    /// The configuration measured.
    pub config: RebalanceBenchConfig,
    /// Static hash placement, storm absorbed head-on.
    pub static_arm: ArmResult,
    /// Telemetry-driven rebalancing, hot head drained live.
    pub rebalanced_arm: ArmResult,
    /// Late-storm p99 ratio static/rebalanced (>1 == rebalancer wins).
    pub p99_improvement: f64,
    /// Crowd keys still on the melted node after the run.
    pub crowd_left_on_melted: usize,
    /// Migration bill of the rebalanced arm.
    pub migration: MigrationStats,
    /// Final weights of every key identical across the two arms.
    pub bit_identical: bool,
}

/// Nearest-rank p99 of `samples` (0 for an empty window).
fn p99(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    let idx = ((samples.len() as f64 - 1.0) * 0.99).round() as usize;
    samples.get(idx).copied().unwrap_or(0)
}

/// Deterministic synthetic gradients: a pure function of `(batch, i)`,
/// identical across arms so final weights can be compared bitwise.
fn grads_for(keys: &[u64], batch: u64, dim: usize) -> Vec<f32> {
    let mut grads = vec![0.0f32; keys.len() * dim];
    for (i, g) in grads.iter_mut().enumerate() {
        *g = ((i % 13) as f32 - 6.0) * 0.01 + (batch % 31) as f32 * 0.001;
    }
    grads
}

fn run_arm(cfg: &RebalanceBenchConfig, cluster: &PlacedCluster<PsNode>) -> ArmResult {
    let gen = StormGen::new(cfg.storm());
    let mut late = Vec::new();
    for batch in 1..=cfg.batches {
        let keys = gen.batch_keys(batch);
        let mut cost = Cost::new();
        let mut out = Vec::new();
        cluster.pull(&keys, batch, &mut out, &mut cost);
        cost.merge(&cluster.end_pull_phase(batch).cost);
        let grads = grads_for(&keys, batch, cfg.dim);
        cluster.push(&keys, &grads, batch, &mut cost);
        if (cfg.late_start()..cfg.storm_end).contains(&batch) {
            late.push(cost.total_ns());
        }
    }
    ArmResult {
        storm_late_p99_ns: p99(&mut late),
        placement_epoch: cluster.placement_epoch(),
    }
}

/// Run the comparison: identical storm into a static and a rebalancing
/// cluster, late-storm tail latency side by side.
pub fn run(cfg: &RebalanceBenchConfig) -> RebalanceReport {
    let static_cluster = PlacedCluster::new(cfg.nodes());
    let auto_cluster =
        PlacedCluster::with_auto_rebalance(cfg.nodes(), cfg.controller(), Vec::new());

    let static_arm = run_arm(cfg, &static_cluster);
    let rebalanced_arm = run_arm(cfg, &auto_cluster);

    let crowd = cfg.crowd();
    let crowd_left_on_melted = crowd
        .iter()
        .filter(|&&k| auto_cluster.node_of(k) == 0)
        .count();
    let bit_identical =
        (0..cfg.num_keys).all(|k| static_cluster.read_weights(k) == auto_cluster.read_weights(k));

    RebalanceReport {
        config: cfg.clone(),
        p99_improvement: static_arm.storm_late_p99_ns as f64
            / rebalanced_arm.storm_late_p99_ns.max(1) as f64,
        static_arm,
        rebalanced_arm,
        crowd_left_on_melted,
        migration: auto_cluster.migration_stats(),
        bit_identical,
    }
}
