//! The flat shard plan against the nested coalesce it replaced.
//!
//! [`reference`] is the retired plan, kept here as the oracle: bucket
//! `(position, key)` pairs per shard, then deduplicate each bucket
//! through its own map into one `Vec` of positions per unique key.
//! [`ShardPlan`] must give the same groups, the same first-occurrence
//! unique order and the same occurrence lists, fresh or rebuilt over a
//! previous request, under any key-hash state.

use oe_cache::KeyState;
use oe_core::plan::ShardPlan;
use oe_simdevice::rng::{splitmix64, Rng};
use std::collections::HashMap;

type Key = u64;

/// One reference group: shard, uniques, one position list per unique.
type Group = (usize, Vec<Key>, Vec<Vec<u32>>);

/// The retired two-stage plan: bucket, then coalesce each bucket.
fn reference(keys: &[Key], shards: usize, shard_of: impl Fn(Key) -> usize) -> Vec<Group> {
    let mut buckets: Vec<Vec<(u32, Key)>> = vec![Vec::new(); shards];
    for (pos, &key) in keys.iter().enumerate() {
        buckets[shard_of(key)].push((pos as u32, key));
    }
    let mut groups = Vec::new();
    for (shard, bucket) in buckets.into_iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let mut uniques: Vec<Key> = Vec::new();
        let mut occs: Vec<Vec<u32>> = Vec::new();
        let mut seen: HashMap<Key, usize> = HashMap::new();
        for (pos, key) in bucket {
            match seen.get(&key) {
                Some(&ui) => occs[ui].push(pos),
                None => {
                    seen.insert(key, uniques.len());
                    uniques.push(key);
                    occs.push(vec![pos]);
                }
            }
        }
        groups.push((shard, uniques, occs));
    }
    groups
}

fn assert_matches(plan: &ShardPlan, keys: &[Key], want: &[Group], at: &str) {
    assert_eq!(plan.total_keys(), keys.len(), "{at}: total keys");
    let uniques: usize = want.iter().map(|g| g.1.len()).sum();
    assert_eq!(plan.total_uniques(), uniques, "{at}: total uniques");
    assert_eq!(plan.group_count(), want.len(), "{at}: groups");
    let mut flat: Vec<Key> = Vec::new();
    for (g, (shard, uniques, occs)) in want.iter().enumerate() {
        let got = plan.group(g);
        assert_eq!(got.shard, *shard, "{at}: group {g} shard");
        assert_eq!(got.uniques, &uniques[..], "{at}: group {g} uniques");
        for (ui, occ) in occs.iter().enumerate() {
            assert_eq!(got.occs(ui), &occ[..], "{at}: group {g} unique {ui}");
            assert_eq!(plan.occs(flat.len() + ui), &occ[..], "{at}: flat occs");
        }
        flat.extend(uniques);
    }
    assert_eq!(plan.uniques(), &flat[..], "{at}: flat uniques");
}

/// A request of the case's shape: skewed (a small hot set repeats),
/// uniform, all-duplicate, or all on one shard.
fn request(rng: &mut Rng, case: u64, shards: usize) -> Vec<Key> {
    let len = rng.below(400) as usize;
    match case % 4 {
        0 => (0..len)
            .map(|_| {
                if rng.chance(0.6) {
                    rng.below(8)
                } else {
                    rng.below(1 << 40)
                }
            })
            .collect(),
        1 => (0..len).map(|_| rng.below(3 * len as u64 + 1)).collect(),
        2 => vec![rng.next_u64(); len],
        _ => (0..len)
            .map(|_| rng.below(64) * shards as u64 + 1)
            .collect(),
    }
}

#[test]
fn flat_plan_matches_the_reference_coalesce() {
    let states = [
        KeyState::with_seed(1),
        KeyState::with_seed(2),
        KeyState::new(),
    ];
    let mut reused: Vec<ShardPlan> = states.iter().map(|&s| ShardPlan::with_hasher(s)).collect();
    for case in 0..400u64 {
        let mut rng = Rng::seed_from_u64(0x91a0_0000 + case);
        let shards = 1 + rng.below(12) as usize;
        let keys = request(&mut rng, case, shards);
        // The all-one-shard shape routes by residue; the others hash.
        let by_residue = case % 4 == 3;
        let shard_of = |k: Key| {
            let h = if by_residue { k } else { splitmix64(k) };
            (h % shards as u64) as usize
        };
        let want = reference(&keys, shards, shard_of);
        let at = format!("case {case} ({} keys, {shards} shards)", keys.len());
        assert_matches(
            &ShardPlan::build(&keys, shards, shard_of),
            &keys,
            &want,
            &at,
        );
        for (i, plan) in reused.iter_mut().enumerate() {
            plan.rebuild(&keys, shards, shard_of);
            assert_matches(
                plan,
                &keys,
                &want,
                &format!("{at}, rebuilt under state {i}"),
            );
        }
    }
}

#[test]
fn edge_requests_match_the_reference() {
    let cases: [(&str, Vec<Key>, usize); 5] = [
        ("empty", Vec::new(), 4),
        ("one key", vec![7], 4),
        ("all one shard", (0..50).map(|i| i * 4).collect(), 4),
        ("all duplicates", vec![9; 33], 4),
        ("one shard in all", vec![3, 1, 3, 2, 1], 1),
    ];
    for (name, keys, shards) in cases {
        let shard_of = |k: Key| (k % shards as u64) as usize;
        let want = reference(&keys, shards, shard_of);
        assert_matches(
            &ShardPlan::build(&keys, shards, shard_of),
            &keys,
            &want,
            name,
        );
    }
}
