//! Per-request shard plans for the pull/push hot path.
//!
//! DLRM batches are heavily skewed (paper Table II: the top 0.1 % of
//! keys take ~90 % of accesses), so a request's key list contains the
//! same hot keys many times and scatters the rest across shards.
//! Executing it key by key would pay one lock acquisition and one
//! payload access per *occurrence*. A [`ShardPlan`] restructures the
//! request once up front:
//!
//! 1. **bucket** — group the keys by shard, preserving request order
//!    within each group;
//! 2. **coalesce** — deduplicate within each group, remembering every
//!    occurrence position so pulls fan one payload read out to all
//!    positions and pushes can sum duplicate gradients (when the
//!    optimizer is linear in the gradient, see
//!    [`crate::OptimizerKind::coalescible`]);
//! 3. **partition** — split the groups into contiguous lane ranges
//!    balanced by unique-key count, for parallel execution with one
//!    lock acquisition per shard per request.
//!
//! The plan is pure data: the node executes it (`PsNode::pull`/`push`)
//! and the cost model prices it (`oe_simdevice::Cost::merge_parallel`).

use crate::Key;
use std::collections::HashMap;
use std::ops::Range;

/// One shard's slice of a request after duplicate coalescing.
#[derive(Debug)]
pub struct ShardGroup {
    /// Shard index in the node's shard vector.
    pub shard: usize,
    /// Distinct keys of this group, in first-occurrence order.
    pub uniques: Vec<Key>,
    /// For each unique key, the positions it occupies in the original
    /// request, in request order (`occs[i]` is never empty).
    pub occs: Vec<Vec<u32>>,
}

impl ShardGroup {
    /// Flatten the group back to its `(position, key)` occurrence list
    /// in original request order — the inverse of coalescing. Used when
    /// a router buckets a request but must keep per-occurrence payloads
    /// on the wire (e.g. gradient pushes whose coalescibility only the
    /// owning node's optimizer can decide).
    pub fn occurrences_in_request_order(&self) -> Vec<(u32, Key)> {
        let mut v: Vec<(u32, Key)> = Vec::with_capacity(self.occs.iter().map(Vec::len).sum());
        for (ui, occ) in self.occs.iter().enumerate() {
            for &pos in occ {
                v.push((pos, self.uniques[ui]));
            }
        }
        v.sort_unstable_by_key(|&(pos, _)| pos);
        v
    }
}

/// A batched request bucketed by shard and coalesced per group.
#[derive(Debug)]
pub struct ShardPlan {
    /// Non-empty shard groups, ascending by shard index.
    pub groups: Vec<ShardGroup>,
    /// Total key occurrences in the request.
    pub total_keys: usize,
    /// Total distinct keys across all groups.
    pub total_uniques: usize,
}

/// Intermediate result of the bucketing stage, before coalescing.
#[derive(Debug)]
pub struct ShardBuckets {
    /// `(position, key)` pairs per shard, request order preserved.
    buckets: Vec<Vec<(u32, Key)>>,
    total_keys: usize,
}

impl ShardBuckets {
    /// Stage 1: bucket `keys` by shard. `shard_of` must be a pure
    /// function of the key.
    pub fn bucket(keys: &[Key], shards: usize, shard_of: impl Fn(Key) -> usize) -> Self {
        Self::bucket_from(keys.iter().copied(), shards, shard_of)
    }

    /// Stage 1 over any key producer: scatter keys straight into shard
    /// buckets without requiring a materialized slice. This is the
    /// zero-copy entry point — a borrowed wire view (e.g.
    /// `oe_net::codec` key slices over the frame bytes) can feed the
    /// plan directly, so the only copy a request's keys ever take is
    /// wire → per-shard scratch.
    pub fn bucket_from(
        keys: impl Iterator<Item = Key>,
        shards: usize,
        shard_of: impl Fn(Key) -> usize,
    ) -> Self {
        let mut buckets: Vec<Vec<(u32, Key)>> = vec![Vec::new(); shards];
        let mut total_keys = 0usize;
        for (pos, key) in keys.enumerate() {
            buckets[shard_of(key)].push((pos as u32, key));
            total_keys += 1;
        }
        Self {
            buckets,
            total_keys,
        }
    }

    /// Stage 2: coalesce duplicates within each bucket into a
    /// [`ShardPlan`].
    pub fn coalesce(self) -> ShardPlan {
        let mut groups = Vec::new();
        let mut total_uniques = 0;
        for (shard, bucket) in self.buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut uniques: Vec<Key> = Vec::new();
            let mut occs: Vec<Vec<u32>> = Vec::new();
            let mut seen: HashMap<Key, usize> = HashMap::with_capacity(bucket.len());
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
            total_uniques += uniques.len();
            groups.push(ShardGroup {
                shard,
                uniques,
                occs,
            });
        }
        ShardPlan {
            groups,
            total_keys: self.total_keys,
            total_uniques,
        }
    }
}

impl ShardPlan {
    /// Duplicate-key coalescing ratio: occurrences per unique key.
    pub fn dedup_ratio(&self) -> f64 {
        if self.total_uniques == 0 {
            1.0
        } else {
            self.total_keys as f64 / self.total_uniques as f64
        }
    }

    /// Stage 3: split the groups into at most `lanes` contiguous,
    /// non-empty ranges, balanced by unique-key count. Deterministic in
    /// the plan alone, so lane assignment (and therefore the per-lane
    /// simulated cost) is reproducible.
    pub fn partition(&self, lanes: usize) -> Vec<Range<usize>> {
        let lanes = lanes.max(1).min(self.groups.len().max(1));
        if self.groups.is_empty() {
            return Vec::new();
        }
        let total: usize = self.groups.iter().map(|g| g.uniques.len()).sum();
        let mut ranges = Vec::with_capacity(lanes);
        let mut start = 0usize;
        let mut remaining = total;
        for lane in 0..lanes {
            let lanes_left = lanes - lane;
            // Leave at least one group for each remaining lane.
            let max_end = self.groups.len() - (lanes_left - 1);
            let target = remaining.div_ceil(lanes_left);
            let mut end = start;
            let mut acc = 0usize;
            while end < max_end && (acc < target || end == start) {
                acc += self.groups[end].uniques.len();
                end += 1;
            }
            remaining -= acc;
            ranges.push(start..end);
            start = end;
        }
        debug_assert_eq!(start, self.groups.len());
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(keys: &[Key], shards: usize) -> ShardPlan {
        ShardBuckets::bucket(keys, shards, |k| (k % shards as u64) as usize).coalesce()
    }

    #[test]
    fn buckets_preserve_order_and_coalesce_duplicates() {
        // Shard 0: 4, 2, 4, 2, 4 · shard 1: 7, 7.
        let p = plan(&[4, 7, 2, 4, 2, 7, 4], 2);
        assert_eq!(p.total_keys, 7);
        assert_eq!(p.total_uniques, 3);
        assert_eq!(p.groups.len(), 2);
        let g0 = &p.groups[0];
        assert_eq!(g0.shard, 0);
        assert_eq!(g0.uniques, vec![4, 2]);
        assert_eq!(g0.occs, vec![vec![0, 3, 6], vec![2, 4]]);
        let g1 = &p.groups[1];
        assert_eq!(g1.uniques, vec![7]);
        assert_eq!(g1.occs, vec![vec![1, 5]]);
        assert!((p.dedup_ratio() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn occurrences_round_trip_through_coalescing() {
        let keys = [4u64, 7, 2, 4, 2, 7, 4];
        let p = plan(&keys, 2);
        // Group 0 holds positions {0,2,3,4,6}, group 1 holds {1,5};
        // flattening each group reproduces the original (pos, key)
        // pairs in request order.
        let g0 = p.groups[0].occurrences_in_request_order();
        assert_eq!(g0, vec![(0, 4), (2, 2), (3, 4), (4, 2), (6, 4)]);
        let g1 = p.groups[1].occurrences_in_request_order();
        assert_eq!(g1, vec![(1, 7), (5, 7)]);
        let mut all: Vec<(u32, u64)> = p
            .groups
            .iter()
            .flat_map(|g| g.occurrences_in_request_order())
            .collect();
        all.sort_unstable_by_key(|&(pos, _)| pos);
        let rebuilt: Vec<u64> = all.iter().map(|&(_, k)| k).collect();
        assert_eq!(rebuilt, keys);
    }

    #[test]
    fn empty_shards_are_skipped() {
        let p = plan(&[8, 8, 8], 4); // all land on shard 0
        assert_eq!(p.groups.len(), 1);
        assert_eq!(p.groups[0].uniques, vec![8]);
    }

    #[test]
    fn partition_covers_all_groups_exactly_once() {
        let p = plan(&(0..97u64).collect::<Vec<_>>(), 16);
        for lanes in [1usize, 2, 3, 4, 16, 100] {
            let ranges = p.partition(lanes);
            assert!(ranges.len() <= lanes.min(p.groups.len()));
            let mut covered = 0;
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "contiguous");
                assert!(!r.is_empty(), "no empty lane");
                covered += r.len();
                next = r.end;
            }
            assert_eq!(covered, p.groups.len(), "lanes={lanes}");
        }
    }

    #[test]
    fn partition_balances_by_uniques() {
        // One huge group + 7 tiny ones: the huge group must not drag
        // every other group into its lane.
        let mut keys: Vec<u64> = (0..800u64).map(|i| i * 8).collect(); // shard 0
        keys.extend(1..8u64); // shards 1..7, one key each
        let p = plan(&keys, 8);
        let ranges = p.partition(4);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..1, "hot shard gets its own lane");
    }

    #[test]
    fn bucket_from_iterator_matches_slice_bucketing() {
        let keys = [4u64, 7, 2, 4, 2, 7, 4, 9, 0];
        let a = ShardBuckets::bucket(&keys, 3, |k| (k % 3) as usize).coalesce();
        let b = ShardBuckets::bucket_from(keys.iter().copied(), 3, |k| (k % 3) as usize).coalesce();
        assert_eq!(a.total_keys, b.total_keys);
        assert_eq!(a.total_uniques, b.total_uniques);
        for (ga, gb) in a.groups.iter().zip(&b.groups) {
            assert_eq!(ga.shard, gb.shard);
            assert_eq!(ga.uniques, gb.uniques);
            assert_eq!(ga.occs, gb.occs);
        }
    }

    #[test]
    fn empty_request_yields_empty_plan() {
        let p = plan(&[], 4);
        assert!(p.groups.is_empty());
        assert_eq!(p.dedup_ratio(), 1.0);
        assert!(p.partition(4).is_empty());
    }
}
