//! Shard-parallel execution equivalence: the shard-plan pull/push path
//! must be a pure *performance* transform. These tests sweep
//! deterministic skewed workloads (splitmix64-derived, multiple seeds —
//! a property sweep without an external generator dependency) and
//! assert, for every parallelism level:
//!
//! - bit-identical weights after interleaved pull/maintain/push epochs;
//! - identical [`StatsSnapshot`]s (the occurrence-weighted accounting
//!   preserves `hits + misses + new_entries == pulls` exactly);
//! - identical `Serialized` virtual time (a global-lock critical
//!   section never parallelizes, whatever the lane count).
//!
//! Duplicate-key semantics get their own tests: SGD (linear in the
//! gradient) coalesces duplicates into one summed apply and must match
//! sequential applies bit-exactly on exactly-representable values;
//! AdaGrad (stateful) must fall back to per-occurrence applies and match
//! separate pushes bit-exactly on *arbitrary* values.

use oe_core::{NodeConfig, OptimizerKind, PsEngine, PsNode, StatsSnapshot};
use oe_simdevice::{integrity_hash, Cost, CostKind};

/// SplitMix64, the same mixer the node uses for sharding — reused here
/// as a tiny deterministic RNG so the sweep needs no external crate.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Skewed batch: ~50% of draws hit a small hot set (duplicates within
/// the batch guaranteed), the rest spread over a large cold range.
fn skewed_batch(seed: u64, len: usize, hot: u64, cold: u64) -> Vec<u64> {
    (0..len)
        .map(|i| {
            let r = mix(seed ^ (i as u64).wrapping_mul(0x9E37));
            if r.is_multiple_of(2) {
                r % hot
            } else {
                hot + (r / 2) % cold
            }
        })
        .collect()
}

fn grads_for(keys: &[u64], dim: usize, seed: u64) -> Vec<f32> {
    (0..keys.len() * dim)
        .map(|i| {
            // Exactly-representable small multiples of 2⁻⁴ keep SGD
            // coalescing comparisons meaningful but non-trivial.
            let r = mix(seed ^ (i as u64) << 17);
            ((r % 33) as f32 - 16.0) * 0.0625
        })
        .collect()
}

fn node_with(optimizer: OptimizerKind, parallelism: usize, cache_entries: usize) -> PsNode {
    let mut cfg = NodeConfig::small(8);
    cfg.optimizer = optimizer;
    cfg.shards = 8;
    cfg.cache_bytes = cache_entries * cfg.bytes_per_cached_entry();
    cfg.parallelism = parallelism;
    PsNode::new(cfg)
}

/// Drive `epochs` pull → maintain → push rounds of a skewed workload and
/// return (per-key weights, stats, total Serialized ns across requests).
fn run_epochs(node: &PsNode, seed: u64, epochs: u64) -> (Vec<(u64, Vec<f32>)>, u64) {
    let dim = node.config().dim;
    let mut serialized = 0;
    for e in 0..epochs {
        let keys = skewed_batch(seed.wrapping_add(e), 96, 12, 64);
        let grads = grads_for(&keys, dim, seed ^ e);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        node.pull(&keys, e + 1, &mut out, &mut cost);
        node.end_pull_phase(e + 1);
        node.push(&keys, &grads, e + 1, &mut cost);
        if e % 3 == 2 {
            node.request_checkpoint(e + 1);
        }
        serialized += cost.ns(CostKind::Serialized);
    }
    let mut weights: Vec<(u64, Vec<f32>)> = (0..76u64)
        .filter_map(|k| node.read_weights(k).map(|w| (k, w)))
        .collect();
    weights.sort_by_key(|(k, _)| *k);
    (weights, serialized)
}

#[test]
fn parallelism_levels_are_bit_identical_for_sgd() {
    for seed in [1u64, 99, 2024] {
        let reference = node_with(OptimizerKind::Sgd { lr: 0.5 }, 1, 24);
        let (ref_w, ref_ser) = run_epochs(&reference, seed, 6);
        for parallelism in [4usize, 8] {
            let n = node_with(OptimizerKind::Sgd { lr: 0.5 }, parallelism, 24);
            let (w, ser) = run_epochs(&n, seed, 6);
            assert_eq!(ref_w, w, "seed {seed} parallelism {parallelism}");
            assert_eq!(
                reference.stats(),
                n.stats(),
                "seed {seed} parallelism {parallelism}"
            );
            assert_eq!(
                ref_ser, ser,
                "Serialized time must not depend on lane count"
            );
        }
    }
}

#[test]
fn parallelism_levels_are_bit_identical_for_adagrad() {
    let opt = OptimizerKind::Adagrad { lr: 0.1, eps: 1e-8 };
    for seed in [7u64, 4242] {
        let reference = node_with(opt, 1, 24);
        let (ref_w, ref_ser) = run_epochs(&reference, seed, 5);
        for parallelism in [4usize, 8] {
            let n = node_with(opt, parallelism, 24);
            let (w, ser) = run_epochs(&n, seed, 5);
            assert_eq!(ref_w, w, "seed {seed} parallelism {parallelism}");
            assert_eq!(reference.stats(), n.stats());
            assert_eq!(ref_ser, ser);
        }
    }
}

/// What the per-key execution (`parallelism = 0`: one lock acquisition
/// and one payload access per key occurrence, deleted in PR 15) produced
/// for one duplicate-free workload: the weights digest, the full stats
/// snapshot and the summed `Serialized` ns. Measured at commit 6a68af9,
/// the last one that carried that arm; with no duplicates to coalesce
/// the plan path must reproduce every literal at any lane count.
struct PerKeyGolden {
    weights: u64,
    stats: StatsSnapshot,
    serialized_ns: u64,
}

/// [`integrity_hash`] over `key ‖ weights` (little-endian) of every
/// known key in `0..76`, in key order.
fn weights_digest(node: &PsNode) -> u64 {
    let mut bytes = Vec::new();
    for k in 0..76u64 {
        if let Some(w) = node.read_weights(k) {
            bytes.extend_from_slice(&k.to_le_bytes());
            for v in w {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    integrity_hash(&[&bytes])
}

fn assert_matches_per_key(node: &PsNode, serialized_ns: u64, want: &PerKeyGolden, what: &str) {
    assert_eq!(weights_digest(node), want.weights, "{what}: weights");
    assert_eq!(node.stats(), want.stats, "{what}: stats");
    assert_eq!(serialized_ns, want.serialized_ns, "{what}: Serialized ns");
}

#[test]
fn plan_path_reproduces_the_per_key_arm_on_duplicate_free_batches() {
    // Five epochs of sorted, deduplicated skewed batches: SGD lr 0.25,
    // dim 8, 8 shards, 24 cache entries.
    let goldens = [
        (
            3u64,
            PerKeyGolden {
                weights: 0xee80_7355_59ce_7069,
                stats: StatsSnapshot {
                    pulls: 203,
                    hits: 48,
                    misses: 85,
                    new_entries: 70,
                    pushes: 203,
                    evictions: 232,
                    flushes: 238,
                    loads: 186,
                    ckpt_commits: 0,
                    ckpt_entries_written: 0,
                    slots_recycled: 168,
                },
                serialized_ns: 10_500,
            },
        ),
        (
            77,
            PerKeyGolden {
                weights: 0xa628_ab61_8d62_ecb9,
                stats: StatsSnapshot {
                    pulls: 203,
                    hits: 51,
                    misses: 85,
                    new_entries: 67,
                    pushes: 203,
                    evictions: 215,
                    flushes: 220,
                    loads: 172,
                    ckpt_commits: 0,
                    ckpt_entries_written: 0,
                    slots_recycled: 154,
                },
                serialized_ns: 10_050,
            },
        ),
    ];
    for (seed, want) in &goldens {
        for parallelism in [1usize, 4, 8] {
            let n = node_with(OptimizerKind::Sgd { lr: 0.25 }, parallelism, 24);
            let mut serialized = 0;
            for e in 0..5u64 {
                let mut keys = skewed_batch(seed.wrapping_add(e), 96, 12, 64);
                keys.sort_unstable();
                keys.dedup();
                let grads = grads_for(&keys, 8, seed ^ e);
                let mut out = Vec::new();
                let mut cost = Cost::new();
                n.pull(&keys, e + 1, &mut out, &mut cost);
                n.end_pull_phase(e + 1);
                n.push(&keys, &grads, e + 1, &mut cost);
                serialized += cost.ns(CostKind::Serialized);
            }
            let what = format!("seed {seed} parallelism {parallelism}");
            assert_matches_per_key(&n, serialized, want, &what);
        }
    }
}

#[test]
fn plan_path_reproduces_the_per_key_arm_on_distinct_keys() {
    // One pull → maintain → push of keys 0..32 that overflow an 8-entry
    // cache: SGD lr 1.0, dim 4, 4 shards (8 lanes clamp to 4 groups).
    let want = PerKeyGolden {
        weights: 0xa4a6_b5c7_1063_5860,
        stats: StatsSnapshot {
            pulls: 32,
            hits: 0,
            misses: 0,
            new_entries: 32,
            pushes: 32,
            evictions: 56,
            flushes: 56,
            loads: 32,
            ckpt_commits: 0,
            ckpt_entries_written: 0,
            slots_recycled: 24,
        },
        serialized_ns: 4_800,
    };
    let keys: Vec<u64> = (0..32).collect();
    let grads: Vec<f32> = (0..32 * 4).map(|i| (i % 7) as f32 * 0.125).collect();
    for parallelism in [1usize, 4, 8] {
        let mut cfg = NodeConfig::small(4);
        cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        cfg.cache_bytes = 8 * cfg.bytes_per_cached_entry();
        cfg.shards = 4;
        cfg.parallelism = parallelism;
        let n = PsNode::new(cfg);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(&keys, 1, &mut out, &mut cost);
        n.end_pull_phase(1);
        n.push(&keys, &grads, 1, &mut cost);
        let what = format!("parallelism {parallelism}");
        assert_matches_per_key(&n, cost.ns(CostKind::Serialized), &want, &what);
    }
}

#[test]
fn sgd_coalescing_matches_sequential_applies() {
    // Power-of-two gradient values make f32 summation exact, so the
    // coalesced duplicate apply must be bit-identical to pushing each
    // occurrence separately.
    let coalesced = node_with(OptimizerKind::Sgd { lr: 1.0 }, 1, 24);
    let separate = node_with(OptimizerKind::Sgd { lr: 1.0 }, 1, 24);
    let dim = 8;
    let key = 5u64;
    let g1: Vec<f32> = (0..dim).map(|i| 0.25 * (i as f32 + 1.0)).collect();
    let g2: Vec<f32> = (0..dim).map(|i| -0.5 * (i as f32)).collect();
    let g3: Vec<f32> = (0..dim).map(|_| 0.125).collect();
    for n in [&coalesced, &separate] {
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(&[key], 1, &mut out, &mut cost);
        n.end_pull_phase(1);
        // Zero the weights exactly (SGD, lr = 1: w − w = 0), so every
        // later intermediate is an exact dyadic rational and f32
        // summation order cannot introduce rounding differences.
        n.push(&[key], &out, 1, &mut cost);
        assert_eq!(n.read_weights(key).unwrap(), vec![0.0; dim]);
    }
    let mut cost = Cost::new();
    // One request with the key three times → one summed apply...
    let batch_grads: Vec<f32> = [g1.clone(), g2.clone(), g3.clone()].concat();
    coalesced.push(&[key, key, key], &batch_grads, 1, &mut cost);
    // ...versus three single-occurrence pushes (no coalescing possible).
    separate.push(&[key], &g1, 1, &mut cost);
    separate.push(&[key], &g2, 1, &mut cost);
    separate.push(&[key], &g3, 1, &mut cost);
    assert_eq!(coalesced.read_weights(key), separate.read_weights(key));
    // Pushes count occurrences, not applies: 1 zeroing + 3 occurrences.
    assert_eq!(coalesced.stats().pushes, 4);
    assert_eq!(separate.stats().pushes, 4);
}

#[test]
fn stateful_optimizer_falls_back_to_sequential_applies() {
    // AdaGrad's accumulator updates between applies; the plan path must
    // NOT coalesce. Arbitrary (non-representable-sum) values: bit
    // equality holds only because both sides apply sequentially in
    // occurrence order.
    let opt = OptimizerKind::Adagrad { lr: 0.3, eps: 1e-8 };
    let duplicated = node_with(opt, 1, 24);
    let separate = node_with(opt, 1, 24);
    let dim = 8;
    let key = 11u64;
    let g1: Vec<f32> = (0..dim).map(|i| 0.1 + 0.017 * i as f32).collect();
    let g2: Vec<f32> = (0..dim).map(|i| -0.23 + 0.003 * i as f32).collect();
    for n in [&duplicated, &separate] {
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(&[key], 1, &mut out, &mut cost);
        n.end_pull_phase(1);
    }
    let mut cost = Cost::new();
    duplicated.push(
        &[key, key],
        &[g1.clone(), g2.clone()].concat(),
        1,
        &mut cost,
    );
    separate.push(&[key], &g1, 1, &mut cost);
    separate.push(&[key], &g2, 1, &mut cost);
    assert_eq!(duplicated.read_weights(key), separate.read_weights(key));
    // And the state (accumulator) matches too: one more identical
    // gradient must produce identical next steps.
    let g3: Vec<f32> = (0..dim).map(|_| 0.5).collect();
    duplicated.push(&[key], &g3, 2, &mut cost);
    separate.push(&[key], &g3, 2, &mut cost);
    assert_eq!(duplicated.read_weights(key), separate.read_weights(key));
}

#[test]
fn accounting_identity_holds_with_duplicates() {
    // hits + misses + new_entries == pulls, even with heavy duplication
    // and across parallelism levels.
    for parallelism in [1usize, 4, 8] {
        let n = node_with(OptimizerKind::Sgd { lr: 0.5 }, parallelism, 8);
        for e in 0..4u64 {
            let keys = skewed_batch(e, 128, 6, 40);
            let mut out = Vec::new();
            let mut cost = Cost::new();
            n.pull(&keys, e + 1, &mut out, &mut cost);
            n.end_pull_phase(e + 1);
        }
        let s = n.stats();
        assert_eq!(
            s.hits + s.misses + s.new_entries,
            s.pulls,
            "parallelism {parallelism}: {s:?}"
        );
        assert_eq!(s.pulls, 4 * 128);
    }
}
