//! Property tests over the PS node's operational envelope: arbitrary
//! interleavings of pulls, pushes, maintenance, and checkpoint requests
//! must preserve the node's structural invariants regardless of cache
//! size, shard count, or policy.

use oe_cache::{AdmissionKind, PolicyKind};
use oe_core::engine::PsEngine;
use oe_core::{NodeConfig, OptimizerKind, PsNode};
use oe_simdevice::rng::Rng;
use oe_simdevice::Cost;

const DIM: usize = 4;
const CASES: u64 = 24;

#[derive(Debug, Clone)]
enum Op {
    Pull { keys: Vec<u64>, advance: bool },
    Push { keys: Vec<u64> },
    Maintain,
    Checkpoint,
}

/// Pulls, pushes, maintenance and checkpoints at weights 4 : 3 : 2 : 1.
fn gen_op(rng: &mut Rng) -> Op {
    let keys = |rng: &mut Rng| (0..1 + rng.below(11)).map(|_| rng.below(40)).collect();
    match rng.below(10) {
        0..=3 => Op::Pull {
            keys: keys(rng),
            advance: rng.chance(0.5),
        },
        4..=6 => Op::Push { keys: keys(rng) },
        7..=8 => Op::Maintain,
        _ => Op::Checkpoint,
    }
}

fn node_cfg(
    cache_entries: usize,
    shards: usize,
    policy: PolicyKind,
    adm: AdmissionKind,
) -> NodeConfig {
    let mut cfg = NodeConfig::small(DIM);
    cfg.optimizer = OptimizerKind::Sgd { lr: 0.1 };
    cfg.cache_bytes = cache_entries * cfg.bytes_per_cached_entry();
    cfg.shards = shards;
    cfg.replacement = policy;
    cfg.admission = adm;
    cfg
}

/// Invariants under arbitrary op interleavings:
/// - every pulled key becomes readable and stays finite,
/// - num_keys only grows and equals the distinct pulled set,
/// - the committed checkpoint never exceeds the latest batch,
/// - stats counters are internally consistent.
///
/// A failure names the case seed, which replays it alone.
#[test]
fn node_invariants_hold() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x40DE_0000 + case);
        let ops: Vec<Op> = (0..1 + rng.below(49)).map(|_| gen_op(&mut rng)).collect();
        let cache_entries = 2 + rng.below(30) as usize;
        let shards = 1 + rng.below(3) as usize;
        let policy = [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Clock][rng.below(3) as usize];
        let adm = if rng.chance(0.5) {
            AdmissionKind::SecondTouch
        } else {
            AdmissionKind::Always
        };
        let node = PsNode::new(node_cfg(cache_entries, shards, policy, adm));

        let mut batch = 1u64;
        let mut known = std::collections::BTreeSet::new();
        let mut cost = Cost::new();
        let mut out = Vec::new();

        for op in ops {
            match op {
                Op::Pull { mut keys, advance } => {
                    keys.sort_unstable();
                    keys.dedup();
                    out.clear();
                    node.pull(&keys, batch, &mut out, &mut cost);
                    assert_eq!(out.len(), keys.len() * DIM, "case {case}");
                    assert!(out.iter().all(|v| v.is_finite()), "case {case}");
                    known.extend(keys.iter().copied());
                    if advance {
                        node.end_pull_phase(batch);
                        batch += 1;
                    }
                }
                Op::Push { mut keys } => {
                    keys.sort_unstable();
                    keys.dedup();
                    // Only push keys that exist (the engine contract).
                    keys.retain(|k| known.contains(k));
                    if keys.is_empty() {
                        continue;
                    }
                    let grads = vec![0.01f32; keys.len() * DIM];
                    node.push(&keys, &grads, batch, &mut cost);
                }
                Op::Maintain => {
                    node.end_pull_phase(batch);
                }
                Op::Checkpoint => {
                    // Synchronous checkpointing contract: request at a
                    // batch boundary with the latest completed batch.
                    node.end_pull_phase(batch);
                    node.request_checkpoint(batch);
                    batch += 1;
                }
            }
            assert_eq!(node.num_keys(), known.len(), "case {case}");
            assert!(node.committed_checkpoint() <= batch, "case {case}");
        }
        // Final consistency: every known key is readable and finite.
        for &k in &known {
            let w = node.read_weights(k);
            assert!(w.is_some(), "case {case}: key {k} readable");
            assert!(w.unwrap().iter().all(|v| v.is_finite()), "case {case}");
        }
        let s = node.stats();
        assert!(
            s.hits + s.misses + s.new_entries == s.pulls,
            "case {case}: pull accounting: {} + {} + {} vs {}",
            s.hits,
            s.misses,
            s.new_entries,
            s.pulls
        );
    }
}
