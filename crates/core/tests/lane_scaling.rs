//! Lane-parallel pull/push: more lanes buy pull time, and nothing else
//! moves — serialized time and hit/miss accounting are identical at 1,
//! 4 and 16 lanes. `e2e/` `hot-wire` measures this path end to end.

use oe_core::engine::PsEngine;
use oe_core::init::splitmix64 as mix;
use oe_core::{NodeConfig, OptimizerKind, PsNode};
use oe_simdevice::{Cost, CostKind};
use std::collections::HashSet;

// 3 of 4 draws from a small hot set (DRAM-resident after warm-up), 1 of
// 4 walking a cold range that is never re-pulled (PMem misses).
const DIM: usize = 32;
const SHARDS: usize = 16;
const HOT_KEYS: u64 = 128;
const COLD_POOL: u64 = 3072;
const BATCH: usize = 2048;
const BATCHES: usize = 4;
const CACHE_ENTRIES: usize = 256;
const SEED: u64 = 20230101;

struct Mode {
    pull_ns: u64,
    serialized_ns: u64,
    hits: u64,
    misses: u64,
}

fn batch_keys(b: usize) -> Vec<u64> {
    let mut cold_next = (b * BATCH / 4) as u64;
    (0..BATCH)
        .map(|i| {
            if i % 4 == 3 {
                cold_next += 1;
                HOT_KEYS + cold_next - 1
            } else {
                mix(SEED ^ ((b as u64) << 32) ^ i as u64) % HOT_KEYS
            }
        })
        .collect()
}

/// Warm every key first (cold range, then the hot set so it ends up
/// cached), then measure pull → push rounds with no maintenance in
/// between: no first-touch work, frozen residency, only the lane
/// count varies.
fn run_mode(parallelism: usize) -> Mode {
    let mut nc = NodeConfig::small(DIM);
    nc.optimizer = OptimizerKind::Sgd { lr: 0.0625 };
    nc.shards = SHARDS;
    nc.cache_bytes = CACHE_ENTRIES * nc.bytes_per_cached_entry();
    nc.pmem_capacity = 1 << 26;
    nc.parallelism = parallelism;
    let node = PsNode::new(nc);

    let mut bid = 0u64;
    let mut cost = Cost::new();
    let cold: Vec<u64> = (HOT_KEYS..HOT_KEYS + COLD_POOL).collect();
    let hot: Vec<u64> = (0..HOT_KEYS).collect();
    for chunk in cold.chunks(BATCH).chain([&hot[..]]) {
        bid += 1;
        node.pull(chunk, bid, &mut Vec::new(), &mut cost);
        node.end_pull_phase(bid);
    }
    let warm = node.stats();

    let (mut pull, mut push) = (Cost::new(), Cost::new());
    for b in 0..BATCHES {
        let keys = batch_keys(b);
        let grads: Vec<f32> = (0..keys.len() * DIM)
            .map(|i| ((mix(SEED ^ b as u64 ^ (i as u64) << 13) % 17) as f32 - 8.0) * 0.125)
            .collect();
        let id = bid + 1 + b as u64;
        node.pull(&keys, id, &mut Vec::new(), &mut pull);
        node.push(&keys, &grads, id, &mut push);
    }
    let stats = node.stats();
    Mode {
        pull_ns: pull.total_ns(),
        serialized_ns: pull.ns(CostKind::Serialized) + push.ns(CostKind::Serialized),
        hits: stats.hits - warm.hits,
        misses: stats.misses - warm.misses,
    }
}

fn modes() -> Vec<Mode> {
    [1, 4, SHARDS].into_iter().map(run_mode).collect()
}

#[test]
fn smoke_meets_acceptance_floors() {
    let (mut occ, mut uniq) = (0, 0);
    for b in 0..BATCHES {
        let keys = batch_keys(b);
        occ += keys.len();
        uniq += keys.iter().collect::<HashSet<_>>().len();
    }
    let dedup_ratio = occ as f64 / uniq as f64;
    assert!(dedup_ratio > 1.5, "dedup ratio {dedup_ratio:.2}");
    let (one, four) = (run_mode(1), run_mode(4));
    let speedup = one.pull_ns as f64 / four.pull_ns as f64;
    assert!(speedup >= 2.0, "4-lane vs 1-lane pull speedup {speedup:.3}");
}

#[test]
fn serialized_time_is_mode_independent() {
    // Every key is warmed: no first-touch Serialized work remains,
    // at any lane count.
    for (i, m) in modes().iter().enumerate() {
        assert_eq!(m.serialized_ns, 0, "mode {i}");
    }
}

#[test]
fn hit_miss_accounting_is_mode_independent() {
    let modes = modes();
    let first = &modes[0];
    for (i, m) in modes.iter().enumerate() {
        assert_eq!(m.hits, first.hits, "mode {i}");
        assert_eq!(m.misses, first.misses, "mode {i}");
    }
    // 3/4 of draws are warm hot keys (hits), 1/4 cold PMem (misses).
    let occ = (BATCH * BATCHES) as u64;
    assert_eq!(first.hits + first.misses, occ);
    assert_eq!(first.misses, occ / 4);
}
