//! Planned-execution equivalence: the planned pull/push path must be a
//! pure *performance* transform of the per-key execution it replaced.
//! These tests drive deterministic skewed workloads (splitmix64-derived,
//! multiple seeds — a property sweep without an external generator
//! dependency) through one node under its one lock and pin:
//!
//! - the weights, [`StatsSnapshot`]s and `Serialized` virtual time the
//!   retired per-key execution printed on duplicate-free batches;
//! - bit-identical results, virtual time included, whatever the ignored
//!   `NodeConfig::parallelism` holds;
//! - the commit-on-eviction rule and the cold-cache persistence stream.
//!
//! Duplicate-key semantics get their own tests: SGD (linear in the
//! gradient) coalesces duplicates into one summed apply and must match
//! sequential applies bit-exactly on exactly-representable values;
//! AdaGrad (stateful) must fall back to per-occurrence applies and match
//! separate pushes bit-exactly on *arbitrary* values.

use oe_core::{NodeConfig, OptimizerKind, PsEngine, PsNode, StatsSnapshot};
use oe_simdevice::{integrity_hash, Cost, CostKind};

/// SplitMix64 as a tiny deterministic RNG, so the sweep needs no
/// external crate.
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

fn node_with(optimizer: OptimizerKind, cache_entries: usize) -> PsNode {
    node_at(optimizer, 1, cache_entries)
}

/// [`node_with`], with `NodeConfig::parallelism` set: a field the node
/// ignores, kept only because the end-to-end benchmark assigns it.
fn node_at(optimizer: OptimizerKind, parallelism: usize, cache_entries: usize) -> PsNode {
    let mut cfg = NodeConfig::small(8);
    cfg.optimizer = optimizer;
    cfg.cache_bytes = cache_entries * cfg.bytes_per_cached_entry();
    cfg.parallelism = parallelism;
    PsNode::new(cfg)
}

/// Drive `epochs` pull → maintain → push rounds of a skewed workload and
/// return (per-key weights, total Serialized ns across requests, total
/// virtual ns of the pulls alone).
fn run_epochs(node: &PsNode, seed: u64, epochs: u64) -> (Vec<(u64, Vec<f32>)>, u64, u64) {
    let dim = node.config().dim;
    let (mut serialized, mut pull_ns) = (0, 0);
    for e in 0..epochs {
        let keys = skewed_batch(seed.wrapping_add(e), 96, 12, 64);
        let grads = grads_for(&keys, dim, seed ^ e);
        let mut out = Vec::new();
        let mut pull = Cost::new();
        let mut push = Cost::new();
        node.pull(&keys, e + 1, &mut out, &mut pull);
        node.end_pull_phase(e + 1);
        node.push(&keys, &grads, e + 1, &mut push);
        if e % 3 == 2 {
            node.request_checkpoint(e + 1);
        }
        serialized += pull.ns(CostKind::Serialized) + push.ns(CostKind::Serialized);
        pull_ns += pull.total_ns();
    }
    let mut weights: Vec<(u64, Vec<f32>)> = (0..76u64)
        .filter_map(|k| node.read_weights(k).map(|w| (k, w)))
        .collect();
    weights.sort_by_key(|(k, _)| *k);
    (weights, serialized, pull_ns)
}

/// The node runs each request as one group under its one lock, so
/// `NodeConfig::parallelism` changes nothing: weights, stats,
/// `Serialized` time and the virtual pull time are equal at 1, 4 and 8.
/// The pull total over the three seeds was printed at commit 2f65d02
/// with one shard and one lane.
#[test]
fn parallelism_levels_are_bit_identical_for_sgd() {
    const PULL_NS: u64 = 265_056;
    let mut pull_ns = 0;
    for seed in [1u64, 99, 2024] {
        let reference = node_at(OptimizerKind::Sgd { lr: 0.5 }, 1, 24);
        let want = run_epochs(&reference, seed, 6);
        pull_ns += want.2;
        for parallelism in [4usize, 8] {
            let n = node_at(OptimizerKind::Sgd { lr: 0.5 }, parallelism, 24);
            let what = format!("seed {seed} parallelism {parallelism}");
            assert_eq!(run_epochs(&n, seed, 6), want, "{what}");
            assert_eq!(reference.stats(), n.stats(), "{what}");
        }
    }
    assert_eq!(pull_ns, PULL_NS, "virtual pull ns");
}

#[test]
fn parallelism_levels_are_bit_identical_for_adagrad() {
    let opt = OptimizerKind::Adagrad { lr: 0.1, eps: 1e-8 };
    for seed in [7u64, 4242] {
        let reference = node_at(opt, 1, 24);
        let want = run_epochs(&reference, seed, 5);
        for parallelism in [4usize, 8] {
            let n = node_at(opt, parallelism, 24);
            let what = format!("seed {seed} parallelism {parallelism}");
            assert_eq!(run_epochs(&n, seed, 5), want, "{what}");
            assert_eq!(reference.stats(), n.stats(), "{what}");
        }
    }
}

/// What the per-key execution (`parallelism = 0`: one lock acquisition
/// and one payload access per key occurrence) produced for one
/// duplicate-free workload: the weights digest, the full stats snapshot
/// and the summed `Serialized` ns. With no duplicates to coalesce the
/// plan path must reproduce every literal.
///
/// Regenerated at one shard from commit 6a68af9, the last one that
/// carried the per-key arm: its tree, with the registry dependencies
/// pointed at `e2e/stubs` through a `[patch.crates-io]` table and the
/// `proptest` / `criterion` dev-dependencies dropped, runs these
/// workloads at `shards = 1, parallelism = 0` and prints the literals
/// below.
struct PerKeyGolden {
    weights: u64,
    stats: StatsSnapshot,
    serialized_ns: u64,
}

/// [`integrity_hash`] over `key ‖ weights` (little-endian) of every
/// known key in `0..keys`, in key order.
fn weights_digest(node: &PsNode, keys: u64) -> u64 {
    let mut bytes = Vec::new();
    for k in 0..keys {
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
    assert_eq!(weights_digest(node, 76), want.weights, "{what}: weights");
    assert_eq!(node.stats(), want.stats, "{what}: stats");
    assert_eq!(serialized_ns, want.serialized_ns, "{what}: Serialized ns");
}

#[test]
fn plan_path_reproduces_the_per_key_arm_on_duplicate_free_batches() {
    // Five epochs of sorted, deduplicated skewed batches: SGD lr 0.25,
    // dim 8, 24 cache entries.
    let goldens = [
        (
            3u64,
            PerKeyGolden {
                weights: 0xee80_7355_59ce_7069,
                stats: StatsSnapshot {
                    pulls: 203,
                    hits: 53,
                    misses: 80,
                    new_entries: 70,
                    pushes: 203,
                    evictions: 239,
                    flushes: 248,
                    loads: 193,
                    ckpt_commits: 0,
                    ckpt_entries_written: 0,
                    slots_recycled: 178,
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
                    hits: 48,
                    misses: 88,
                    new_entries: 67,
                    pushes: 203,
                    evictions: 237,
                    flushes: 245,
                    loads: 194,
                    ckpt_commits: 0,
                    ckpt_entries_written: 0,
                    slots_recycled: 179,
                },
                serialized_ns: 10_050,
            },
        ),
    ];
    for (seed, want) in &goldens {
        let n = node_with(OptimizerKind::Sgd { lr: 0.25 }, 24);
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
        assert_matches_per_key(&n, serialized, want, &format!("seed {seed}"));
    }
}

#[test]
fn plan_path_reproduces_the_per_key_arm_on_distinct_keys() {
    // One pull → maintain → push of keys 0..32 that overflow an 8-entry
    // cache: SGD lr 1.0, dim 4.
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
    let mut cfg = NodeConfig::small(4);
    cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
    cfg.cache_bytes = 8 * cfg.bytes_per_cached_entry();
    let n = PsNode::new(cfg);
    let mut out = Vec::new();
    let mut cost = Cost::new();
    n.pull(&keys, 1, &mut out, &mut cost);
    n.end_pull_phase(1);
    n.push(&keys, &grads, 1, &mut cost);
    assert_matches_per_key(&n, cost.ns(CostKind::Serialized), &want, "distinct keys");
}

/// Algorithm 2's commit on eviction (lines 24–27): a checkpoint commits
/// as soon as the LRU victim is newer than it, mid-maintenance, rather
/// than in the drain pass at the end. The two are only told apart when
/// the commit lands between two access-queue chunks (more than 1 024
/// uniques a batch) and a later chunk then evicts a dirty entry whose
/// version chain the commit lets it prune: here each batch's push lands
/// before its maintenance, as when the maintainer threads are still
/// draining the access queue when the gradients arrive, and the
/// 2 048-entry cache keeps the drained entries cached long enough for
/// that. Deferring every commit to the drain pass keeps the weights,
/// recycles 196 fewer slots (2 658) and reads 7 831 620 ns. Literals
/// printed at commit 2f65d02 with one shard; with a 1 024-entry cache
/// one shard cannot tell the two rules apart.
#[test]
fn commit_on_eviction_is_pinned() {
    let want = StatsSnapshot {
        pulls: 8_977,
        hits: 4_697,
        misses: 1_299,
        new_entries: 2_981,
        pushes: 8_977,
        evictions: 3_405,
        flushes: 8_189,
        loads: 2_472,
        ckpt_commits: 5,
        ckpt_entries_written: 0,
        slots_recycled: 2_854,
    };
    let n = node_with(OptimizerKind::Sgd { lr: 0.25 }, 2048);
    let mut total_ns = 0;
    for b in 1..=6u64 {
        let mut keys = skewed_batch(b, 4000, 64, 3000);
        keys.sort_unstable();
        keys.dedup();
        assert!(keys.len() > 1024, "batch {b}: two access-queue chunks");
        let grads = grads_for(&keys, 8, b);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(&keys, b, &mut out, &mut cost);
        n.push(&keys, &grads, b, &mut cost);
        cost.merge(&n.end_pull_phase(b).cost);
        cost.merge(&n.request_checkpoint(b));
        total_ns += cost.total_ns();
    }
    assert_eq!(n.stats(), want, "stats");
    assert_eq!(n.committed_checkpoint(), 5);
    assert_eq!(
        weights_digest(&n, 64 + 3000),
        0xe75b_2ad5_505e_6fea,
        "weights"
    );
    assert_eq!(total_ns, 7_842_154, "virtual ns");
}

/// The node's persistence stream on a cold cache. With 16 cache entries
/// against ~200 uniques a batch, almost every access evicts: each
/// eviction is an out-of-place slot write (two store-and-persist phases),
/// each prune a durable free, each checkpoint commit a root update, all
/// through the simulated PMem's store → CLWB → SFENCE path. The event
/// count, the stats, the virtual time and a crash image of the media pin
/// that path's exact behaviour. Literals printed at commit 2f65d02 with
/// one shard.
#[test]
fn cold_cache_persistence_stream_is_pinned() {
    let want = StatsSnapshot {
        pulls: 2_304,
        hits: 189,
        misses: 1_659,
        new_entries: 456,
        pushes: 2_304,
        evictions: 1_611,
        flushes: 1_611,
        loads: 1_171,
        ckpt_commits: 2,
        ckpt_entries_written: 0,
        slots_recycled: 867,
    };
    let n = node_with(OptimizerKind::Adagrad { lr: 0.1, eps: 1e-8 }, 16);
    let mut total_ns = 0;
    for b in 1..=9u64 {
        let keys = skewed_batch(b ^ 0x5EED, 256, 32, 480);
        let grads = grads_for(&keys, 8, b);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(&keys, b, &mut out, &mut cost);
        cost.merge(&n.end_pull_phase(b).cost);
        n.push(&keys, &grads, b, &mut cost);
        if b % 3 == 0 {
            cost.merge(&n.request_checkpoint(b));
        }
        total_ns += cost.total_ns();
    }
    let media = n.pool().media();
    let stats = n.stats();
    assert_eq!(media.persistence_events(), 8_186, "persistence events");
    assert_eq!(stats.slots_recycled, want.slots_recycled, "slots recycled");
    assert_eq!(stats, want, "stats");
    assert_eq!(total_ns, 2_080_684, "virtual ns");
    assert_eq!(
        integrity_hash(&[media.crash(0xC4A5).bytes()]),
        0x4f14_11e8_695b_acb6,
        "crash image"
    );
    assert_eq!(
        weights_digest(&n, 32 + 480),
        0x7f44_7534_5c53_7884,
        "weights"
    );
}

#[test]
fn sgd_coalescing_matches_sequential_applies() {
    // Power-of-two gradient values make f32 summation exact, so the
    // coalesced duplicate apply must be bit-identical to pushing each
    // occurrence separately.
    let coalesced = node_with(OptimizerKind::Sgd { lr: 1.0 }, 24);
    let separate = node_with(OptimizerKind::Sgd { lr: 1.0 }, 24);
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
    let duplicated = node_with(opt, 24);
    let separate = node_with(opt, 24);
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
    // hits + misses + new_entries == pulls, even with heavy duplication.
    let n = node_with(OptimizerKind::Sgd { lr: 0.5 }, 8);
    for e in 0..4u64 {
        let keys = skewed_batch(e, 128, 6, 40);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(&keys, e + 1, &mut out, &mut cost);
        n.end_pull_phase(e + 1);
    }
    let s = n.stats();
    assert_eq!(s.hits + s.misses + s.new_entries, s.pulls, "{s:?}");
    assert_eq!(s.pulls, 4 * 128);
}
