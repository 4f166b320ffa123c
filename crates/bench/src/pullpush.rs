//! Pull/push throughput microbenchmark for the shard-plan hot path.
//!
//! Measures simulated (virtual-time) keys/sec of batched pulls and
//! pushes over a skewed workload, at several lane counts of the same
//! [`PsNode`]:
//!
//! - `plan-1-lane` (`parallelism = 1`): shard-bucketed, duplicate-
//!   coalesced, one lock acquisition per shard group, on one lane;
//! - `plan-4-lanes` / `plan-N-lanes`: shard groups execute on parallel
//!   lanes; parallelizable cost kinds (CPU, DRAM, PMem reads) take the
//!   max over lanes (`oe_simdevice::CostKind::lane_parallel`).
//!
//! The workload is 3-of-4 draws from a small hot set (heavy in-batch
//! duplication, DRAM-resident after warm-up) and 1-of-4 from a rotating
//! cold range (distinct, PMem-resident), mirroring the paper's Table II
//! skew. Every key is first-touched during warm-up and maintenance is
//! *not* run between measured requests, so measured pulls contain no
//! `Serialized` first-touch work and cache residency is frozen: the
//! comparison isolates the lane count.

use oe_core::engine::PsEngine;
use oe_core::init::splitmix64 as mix;
use oe_core::{NodeConfig, OptimizerKind, PsNode};
use oe_simdevice::{Cost, CostKind};
use std::collections::HashSet;

/// Workload + node shape for one bench run.
#[derive(Debug, Clone)]
pub struct PullPushConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Index/arena/LRU shards (also the widest lane count measured).
    pub shards: usize,
    /// Hot-set size; hot draws are spread uniformly over these keys.
    pub hot_keys: u64,
    /// Cold key range; measured batches consume it sequentially so a
    /// measured cold key is never cache-resident (the warm-up tail that
    /// ends up cached is never re-pulled).
    pub cold_pool: u64,
    /// Key occurrences per request (3/4 hot, 1/4 cold).
    pub batch: usize,
    /// Measured requests.
    pub batches: usize,
    /// DRAM cache capacity in entries (≥ 2× `hot_keys`, so the whole
    /// hot set stays resident across the measurement window).
    pub cache_entries: usize,
    /// Workload seed.
    pub seed: u64,
}

impl PullPushConfig {
    /// Paper-shaped run: 8 K-key requests against a 512-key hot set.
    pub fn paper() -> Self {
        Self {
            dim: 32,
            shards: 16,
            hot_keys: 512,
            cold_pool: 18_432,
            batch: 8192,
            batches: 8,
            cache_entries: 1024,
            seed: 20230101,
        }
    }

    /// Smoke-test run for CI: same shape, ~1/16 the work.
    pub fn smoke() -> Self {
        Self {
            dim: 32,
            shards: 16,
            hot_keys: 128,
            cold_pool: 3072,
            batch: 2048,
            batches: 4,
            cache_entries: 256,
            seed: 20230101,
        }
    }

    fn cold_per_batch(&self) -> usize {
        self.batch / 4
    }
}

/// One execution mode's measured throughput.
#[derive(Debug, Clone)]
pub struct ModeResult {
    /// Human label (`plan-1-lane`, `plan-4-lanes`, …).
    pub label: String,
    /// The `parallelism` knob value.
    pub parallelism: usize,
    /// Total virtual time of all measured pulls (ns).
    pub pull_ns: u64,
    /// Total virtual time of all measured pushes (ns).
    pub push_ns: u64,
    /// `Serialized` ns across the measurement — must be identical for
    /// every mode (here: zero, all keys are warmed).
    pub serialized_ns: u64,
    /// Pull throughput in key occurrences per simulated second.
    pub pull_keys_per_sec: f64,
    /// Push throughput in key occurrences per simulated second.
    pub push_keys_per_sec: f64,
    /// Cache hits over the measurement window.
    pub hits: u64,
    /// Cache misses (PMem reads) over the measurement window.
    pub misses: u64,
}

/// Full bench artifact (serialized to `BENCH_pullpush.json` by ci.sh).
#[derive(Debug, Clone)]
pub struct PullPushReport {
    /// The configuration measured.
    pub config: PullPushConfig,
    /// Occurrences per distinct key, averaged over measured batches.
    pub dedup_ratio: f64,
    /// One row per execution mode.
    pub modes: Vec<ModeResult>,
    /// Pull speedup of `plan-4-lanes` over `plan-1-lane`
    /// (lane parallelism only — acceptance floor 2×).
    pub pull_speedup_lanes4_vs_1: f64,
    /// Push speedup of `plan-4-lanes` over `plan-1-lane` (limited:
    /// PMem writes serialize on the device and never lane-merge).
    pub push_speedup_lanes4_vs_1: f64,
}

/// Measured request `b`: positions `i % 4 != 3` draw from the hot set,
/// the rest walk the cold range sequentially (never repeating across
/// the run, so cold keys are always PMem misses).
fn batch_keys(cfg: &PullPushConfig, b: usize) -> Vec<u64> {
    let mut cold_next = (b * cfg.cold_per_batch()) as u64;
    (0..cfg.batch)
        .map(|i| {
            if i % 4 == 3 {
                let k = cfg.hot_keys + cold_next;
                cold_next += 1;
                debug_assert!(cold_next <= cfg.cold_pool);
                k
            } else {
                mix(cfg.seed ^ ((b as u64) << 32) ^ i as u64) % cfg.hot_keys
            }
        })
        .collect()
}

fn grads_for(keys: &[u64], dim: usize, seed: u64) -> Vec<f32> {
    (0..keys.len() * dim)
        .map(|i| ((mix(seed ^ (i as u64) << 13) % 17) as f32 - 8.0) * 0.125)
        .collect()
}

fn build_node(cfg: &PullPushConfig, parallelism: usize) -> PsNode {
    let mut nc = NodeConfig::small(cfg.dim);
    nc.optimizer = OptimizerKind::Sgd { lr: 0.0625 };
    nc.shards = cfg.shards;
    nc.cache_bytes = cfg.cache_entries * nc.bytes_per_cached_entry();
    nc.pmem_capacity = 1 << 26;
    nc.parallelism = parallelism;
    PsNode::new(nc)
}

/// First-touch every key the measurement will see: the cold range in
/// ascending chunks, then the hot set last so it ends up cache-resident.
/// Returns the next free batch id.
fn warm(node: &PsNode, cfg: &PullPushConfig) -> u64 {
    let mut batch_id = 0u64;
    let mut cost = Cost::new();
    let cold: Vec<u64> = (0..cfg.cold_pool).map(|i| cfg.hot_keys + i).collect();
    for chunk in cold.chunks(cfg.batch) {
        batch_id += 1;
        let mut out = Vec::new();
        node.pull(chunk, batch_id, &mut out, &mut cost);
        node.end_pull_phase(batch_id);
    }
    let hot: Vec<u64> = (0..cfg.hot_keys).collect();
    batch_id += 1;
    let mut out = Vec::new();
    node.pull(&hot, batch_id, &mut out, &mut cost);
    node.end_pull_phase(batch_id);
    batch_id + 1
}

fn run_mode(cfg: &PullPushConfig, parallelism: usize) -> ModeResult {
    let node = build_node(cfg, parallelism);
    let first_batch = warm(&node, cfg);
    let warm_stats = node.stats();
    let mut pull_cost = Cost::new();
    let mut push_cost = Cost::new();
    for b in 0..cfg.batches {
        let keys = batch_keys(cfg, b);
        let grads = grads_for(&keys, cfg.dim, cfg.seed ^ b as u64);
        let bid = first_batch + b as u64;
        let mut out = Vec::new();
        node.pull(&keys, bid, &mut out, &mut pull_cost);
        node.push(&keys, &grads, bid, &mut push_cost);
    }
    let stats = node.stats();
    let occurrences = (cfg.batch * cfg.batches) as f64;
    ModeResult {
        label: format!(
            "plan-{parallelism}-lane{}",
            if parallelism == 1 { "" } else { "s" }
        ),
        parallelism,
        pull_ns: pull_cost.total_ns(),
        push_ns: push_cost.total_ns(),
        serialized_ns: pull_cost.ns(CostKind::Serialized) + push_cost.ns(CostKind::Serialized),
        pull_keys_per_sec: occurrences * 1e9 / pull_cost.total_ns().max(1) as f64,
        push_keys_per_sec: occurrences * 1e9 / push_cost.total_ns().max(1) as f64,
        hits: stats.hits - warm_stats.hits,
        misses: stats.misses - warm_stats.misses,
    }
}

/// Workload property, independent of execution mode: occurrences per
/// distinct key over the measured batches.
fn workload_dedup_ratio(cfg: &PullPushConfig) -> f64 {
    let (mut occ, mut uniq) = (0usize, 0usize);
    for b in 0..cfg.batches {
        let keys = batch_keys(cfg, b);
        occ += keys.len();
        uniq += keys.iter().collect::<HashSet<_>>().len();
    }
    occ as f64 / uniq.max(1) as f64
}

/// Run the lane sweep: one lane, 4 lanes, one lane per shard.
pub fn run(cfg: &PullPushConfig) -> PullPushReport {
    let modes: Vec<ModeResult> = [1, 4, cfg.shards]
        .into_iter()
        .map(|lanes| run_mode(cfg, lanes))
        .collect();
    let (p1, p4) = (&modes[0], &modes[1]);
    PullPushReport {
        config: cfg.clone(),
        dedup_ratio: workload_dedup_ratio(cfg),
        pull_speedup_lanes4_vs_1: p1.pull_ns as f64 / p4.pull_ns.max(1) as f64,
        push_speedup_lanes4_vs_1: p1.push_ns as f64 / p4.push_ns.max(1) as f64,
        modes,
    }
}

/// Trajectory/gate metrics. The virtual-time throughputs and speedups
/// are fully deterministic (cost-model arithmetic), so the gate holds
/// them to the 30% band with zero measurement noise.
pub fn metrics(r: &PullPushReport) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    for mode in &r.modes {
        m.push((
            format!("{}.pull_keys_per_sec", mode.label),
            mode.pull_keys_per_sec,
        ));
        m.push((
            format!("{}.push_keys_per_sec", mode.label),
            mode.push_keys_per_sec,
        ));
    }
    m.push((
        "pull_speedup_lanes4_vs_1".to_string(),
        r.pull_speedup_lanes4_vs_1,
    ));
    m
}

/// Human-readable table, printed by `figures -- pullpush`.
pub fn print_report(r: &PullPushReport) {
    println!(
        "workload: {} batches × {} keys, hot set {}, dedup ratio {:.2}",
        r.config.batches, r.config.batch, r.config.hot_keys, r.dedup_ratio
    );
    println!(
        "{:<16} {:>12} {:>14} {:>12} {:>14} {:>8} {:>8}",
        "mode", "pull ms", "pull keys/s", "push ms", "push keys/s", "hits", "misses"
    );
    for m in &r.modes {
        println!(
            "{:<16} {:>12.3} {:>14.0} {:>12.3} {:>14.0} {:>8} {:>8}",
            m.label,
            m.pull_ns as f64 / 1e6,
            m.pull_keys_per_sec,
            m.push_ns as f64 / 1e6,
            m.push_keys_per_sec,
            m.hits,
            m.misses
        );
    }
    println!(
        "4-lanes/1-lane speedups: pull {:.2}× (floor 2×), push {:.2}× (PMem writes don't lane-merge)",
        r.pull_speedup_lanes4_vs_1, r.push_speedup_lanes4_vs_1
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_meets_acceptance_floors() {
        let r = run(&PullPushConfig::smoke());
        assert!(r.dedup_ratio > 1.5, "dedup ratio {:.2}", r.dedup_ratio);
        assert!(
            r.pull_speedup_lanes4_vs_1 >= 2.0,
            "4-lane vs 1-lane pull speedup {:.3}",
            r.pull_speedup_lanes4_vs_1
        );
    }

    #[test]
    fn serialized_time_is_mode_independent() {
        let r = run(&PullPushConfig::smoke());
        // Every key is warmed: no first-touch Serialized work remains,
        // in any mode.
        for m in &r.modes {
            assert_eq!(m.serialized_ns, 0, "{}", m.label);
        }
    }

    #[test]
    fn hit_miss_accounting_is_mode_independent() {
        let r = run(&PullPushConfig::smoke());
        let first = &r.modes[0];
        let cfg = &r.config;
        for m in &r.modes {
            assert_eq!(m.hits, first.hits, "{}", m.label);
            assert_eq!(m.misses, first.misses, "{}", m.label);
        }
        // 3/4 of draws are warm hot keys (hits), 1/4 cold PMem (misses).
        let occ = (cfg.batch * cfg.batches) as u64;
        assert_eq!(first.hits + first.misses, occ);
        assert_eq!(first.misses, occ / 4);
    }

    #[test]
    fn metrics_are_gate_ready() {
        let r = run(&PullPushConfig::smoke());
        let m = metrics(&r);
        // 2 per mode + the lane speedup, all finite and positive.
        assert_eq!(m.len(), r.modes.len() * 2 + 1);
        for (k, v) in &m {
            assert!(v.is_finite() && *v > 0.0, "{k}");
        }
        assert!(m.iter().any(|(k, _)| k == "plan-4-lanes.pull_keys_per_sec"));
    }
}
