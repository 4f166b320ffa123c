//! Skew-aware rebalancing bench: a zipf hot-key storm melts one shard,
//! the controller drains it live, JSON artifact `BENCH_rebalance.json`.
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
//! pure mechanism, invisible to training.

use oe_cluster::{MigrationStats, PlacedCluster, PlacerConfig, RebalanceConfig};
use oe_core::{hash_node_of, NodeConfig, OptimizerKind, PsEngine, PsNode};
use oe_simdevice::Cost;
use oe_workload::{SkewModel, StormGen, StormSpec};

/// Workload + storm + controller shape for one bench run.
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
    /// Paper-shaped run.
    pub fn paper() -> Self {
        Self {
            num_nodes: 4,
            num_keys: 20_000,
            dim: 16,
            keys_per_batch: 4_096,
            crowd_size: 192,
            hot_share: 0.85,
            batches: 72,
            storm_start: 12,
            storm_end: 64,
            cache_entries_per_node: 144,
            check_every_batches: 4,
            double_write_batches: 2,
            min_window_keys: 384,
            hot_fraction: 0.3,
            max_moves: 512,
            seed: 0x5702,
        }
    }

    /// Smoke-test run for CI: same shape, a fraction of the work.
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
            ..RebalanceConfig::default()
        }
    }

    /// Late-storm window start: the second half of the storm, after the
    /// controller has had time to notice, drain and cut over.
    fn late_start(&self) -> u64 {
        (self.storm_start + self.storm_end) / 2
    }
}

/// Per-batch virtual-time profile of one arm.
#[derive(Debug, Clone)]
pub struct ArmResult {
    /// Mean batch time before the storm hits.
    pub pre_storm_mean_ns: u64,
    /// p99 batch time in the storm's first half (both arms melted).
    pub storm_early_p99_ns: u64,
    /// p99 batch time in the storm's second half (rebalanced arm has
    /// cut over by now).
    pub storm_late_p99_ns: u64,
    /// Mean batch time in the storm's second half.
    pub storm_late_mean_ns: u64,
    /// End-to-end virtual time of the arm.
    pub total_ns: u64,
    /// Final placement epoch (0 == never migrated).
    pub placement_epoch: u64,
}

/// Full bench artifact (serialized to `BENCH_rebalance.json` by ci.sh).
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

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn window_stats(samples: &[u64]) -> (u64, u64) {
    let mut s = samples.to_vec();
    s.sort_unstable();
    let mean = if s.is_empty() {
        0
    } else {
        s.iter().sum::<u64>() / s.len() as u64
    };
    (percentile(&s, 0.99), mean)
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
    let late_start = cfg.late_start();
    let mut pre = Vec::new();
    let mut early = Vec::new();
    let mut late = Vec::new();
    let mut total_ns = 0u64;
    for batch in 1..=cfg.batches {
        let keys = gen.batch_keys(batch);
        let mut cost = Cost::new();
        let mut out = Vec::new();
        cluster.pull(&keys, batch, &mut out, &mut cost);
        cost.merge(&cluster.end_pull_phase(batch).cost);
        let grads = grads_for(&keys, batch, cfg.dim);
        cluster.push(&keys, &grads, batch, &mut cost);
        let ns = cost.total_ns();
        total_ns += ns;
        if batch < cfg.storm_start {
            pre.push(ns);
        } else if batch < late_start {
            early.push(ns);
        } else if batch < cfg.storm_end {
            late.push(ns);
        }
    }
    let (_, pre_mean) = window_stats(&pre);
    let (early_p99, _) = window_stats(&early);
    let (late_p99, late_mean) = window_stats(&late);
    ArmResult {
        pre_storm_mean_ns: pre_mean,
        storm_early_p99_ns: early_p99,
        storm_late_p99_ns: late_p99,
        storm_late_mean_ns: late_mean,
        total_ns,
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

/// Trajectory/gate metrics (all deterministic virtual-time, all
/// higher-is-better): the headline p99 improvement, inverted
/// late-storm p99s (so latency regressions trip the gate), and
/// bit-identity as 1.0/0.0 — a baseline of 1.0 makes any non-identical
/// run an automatic gate failure.
pub fn metrics(r: &RebalanceReport) -> Vec<(String, f64)> {
    vec![
        ("p99_improvement".to_string(), r.p99_improvement),
        (
            "rebalanced_late_p99_inv_per_sec".to_string(),
            1e9 / r.rebalanced_arm.storm_late_p99_ns.max(1) as f64,
        ),
        (
            "static_late_p99_inv_per_sec".to_string(),
            1e9 / r.static_arm.storm_late_p99_ns.max(1) as f64,
        ),
        (
            "bit_identical".to_string(),
            if r.bit_identical { 1.0 } else { 0.0 },
        ),
    ]
}

/// Human-readable table, printed by `figures -- rebalance`.
pub fn print_report(r: &RebalanceReport) {
    let c = &r.config;
    println!(
        "storm: {} crowd keys on node 0/{} at {:.0}% share, batches [{}, {}) of {}, cache {} entries/node",
        c.crowd_size, c.num_nodes, c.hot_share * 100.0, c.storm_start, c.storm_end, c.batches,
        c.cache_entries_per_node
    );
    println!(
        "{:<12} {:>14} {:>16} {:>16} {:>8}",
        "arm", "pre mean ms", "early p99 ms", "late p99 ms", "epoch"
    );
    for (name, a) in [("static", &r.static_arm), ("rebalanced", &r.rebalanced_arm)] {
        println!(
            "{:<12} {:>14.3} {:>16.3} {:>16.3} {:>8}",
            name,
            a.pre_storm_mean_ns as f64 / 1e6,
            a.storm_early_p99_ns as f64 / 1e6,
            a.storm_late_p99_ns as f64 / 1e6,
            a.placement_epoch
        );
    }
    println!(
        "late-storm p99 improvement: {:.2}×  (crowd left on melted node: {}/{})",
        r.p99_improvement, r.crowd_left_on_melted, c.crowd_size
    );
    let m = &r.migration;
    println!(
        "migration bill: {} migration(s), {} keys moved, {} seed copies, {} double-write pushes over {} window batch(es)",
        m.migrations, m.keys_moved, m.seed_copies, m.double_write_pushes, m.double_write_batches
    );
    println!("bit-identical across arms: {}", r.bit_identical);
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let r = run(&tiny());
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
}
