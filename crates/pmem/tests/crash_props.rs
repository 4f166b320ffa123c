//! Property tests: the pool's crash-safety protocol guarantees that after
//! an arbitrary crash, recovery reconstructs exactly the newest
//! checkpoint-consistent version of every key.
//!
//! Each property runs [`CASES`] generated cases from a fixed seed; a
//! failure names the case seed, which replays it alone.

use oe_pmem::{pool::PoolConfig, scan::recover, PmemPool};
use oe_simdevice::rng::Rng;
use oe_simdevice::{Cost, Media};
use std::collections::HashMap;
use std::sync::Arc;

const CASES: u64 = 64;

#[derive(Debug, Clone)]
enum Op {
    /// Write key at version with a value derived from (key, version).
    Write { key: u64, version: u64 },
    /// Persist a new checkpoint id.
    Checkpoint { id: u64 },
}

/// Four writes to every checkpoint.
fn gen_op(rng: &mut Rng) -> Op {
    if rng.below(5) < 4 {
        Op::Write {
            key: rng.below(16),
            version: 1 + rng.below(31),
        }
    } else {
        Op::Checkpoint {
            id: 1 + rng.below(31),
        }
    }
}

fn payload_for(key: u64, version: u64) -> Vec<f32> {
    (0..4)
        .map(|i| (key * 100 + version * 10 + i) as f32)
        .collect()
}

/// After any op sequence and any crash seed:
/// - the recovered checkpoint id equals the last fenced checkpoint,
/// - every key's recovered version is the maximum written version that
///   is ≤ the recovered checkpoint id,
/// - recovered payloads are bit-exact,
/// - no corrupt slots are reported (the protocol always fences).
#[test]
fn recovery_is_checkpoint_consistent() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC4A5_0000 + case);
        let ops: Vec<Op> = (0..1 + rng.below(59)).map(|_| gen_op(&mut rng)).collect();
        let crash_seed = rng.below(1000);

        let mut cost = Cost::new();
        let pool = PmemPool::create(PoolConfig::for_embedding(4, 0, 1 << 20), &mut cost);

        // The model: committed checkpoint id and, per key, all written versions.
        let mut model_ckpt = 0u64;
        let mut writes: HashMap<u64, Vec<u64>> = HashMap::new();
        // Track a slot per (key, version): overwrites of the same version
        // replace content deterministically so payload is derivable.
        let mut slot_of: HashMap<(u64, u64), oe_pmem::SlotId> = HashMap::new();

        for op in &ops {
            match *op {
                Op::Write { key, version } => {
                    let id = *slot_of
                        .entry((key, version))
                        .or_insert_with(|| pool.alloc(&mut cost));
                    pool.write_slot(id, key, version, &payload_for(key, version), &mut cost);
                    let vs = writes.entry(key).or_default();
                    if !vs.contains(&version) {
                        vs.push(version);
                    }
                }
                Op::Checkpoint { id } => {
                    // Checkpoints only move forward in real use.
                    if id > model_ckpt {
                        pool.set_checkpoint_id(id, &mut cost);
                        model_ckpt = id;
                    }
                }
            }
        }

        let media = Arc::new(Media::from_crash(pool.media().crash(crash_seed)));
        let mut rcost = Cost::new();
        let (rpool, report) = recover(media, &mut rcost).expect("pool always recoverable");

        assert_eq!(
            report.corrupt, 0,
            "case {case}: fenced protocol never tears ({ops:?})"
        );
        assert_eq!(report.checkpoint_id, model_ckpt, "case {case}: {ops:?}");

        // Expected survivors.
        let mut expect: HashMap<u64, u64> = HashMap::new();
        for (key, versions) in &writes {
            if let Some(&v) = versions.iter().filter(|&&v| v <= model_ckpt).max() {
                expect.insert(*key, v);
            }
        }
        let recovered: HashMap<u64, u64> = report.live.iter().map(|r| (r.key, r.version)).collect();
        assert_eq!(recovered, expect, "case {case}: {ops:?}");

        // Payload integrity.
        let mut out = vec![0f32; 4];
        for r in &report.live {
            let h = rpool
                .read_slot(r.id, &mut out, &mut rcost)
                .expect("live slot readable");
            assert_eq!(h.key, r.key, "case {case}");
            assert_eq!(out, payload_for(r.key, r.version), "case {case}");
        }
    }
}

/// Allocator safety under arbitrary alloc/free interleavings: no
/// double allocation of a live slot.
#[test]
fn allocator_never_double_allocates() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xA110_0000 + case);
        let mut cost = Cost::new();
        let pool = PmemPool::create(PoolConfig::for_embedding(2, 0, 1 << 16), &mut cost);
        let mut live = Vec::new();
        for _ in 0..1 + rng.below(199) {
            if rng.chance(0.5) || live.is_empty() {
                let id = pool.alloc(&mut cost);
                assert!(
                    !live.contains(&id),
                    "case {case}: slot {id:?} double-allocated"
                );
                live.push(id);
            } else {
                let id = live.swap_remove(live.len() / 2);
                pool.free(id, &mut cost);
            }
        }
    }
}
