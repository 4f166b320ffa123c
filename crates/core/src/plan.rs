//! Per-request plans for the pull/push hot path.
//!
//! DLRM batches are heavily skewed (paper Table II: the top 0.1 % of
//! keys take ~90 % of accesses), so a request's key list contains the
//! same hot keys many times. Executing it key by key would pay one
//! payload access per *occurrence*. A [`ShardPlan`] restructures the
//! request once up front: it buckets the keys by owner and
//! deduplicates within each group, remembering every occurrence
//! position so pulls fan one payload read out to all positions and
//! pushes can sum duplicate gradients (when the optimizer is linear in
//! the gradient, see [`crate::OptimizerKind::coalescible`]).
//!
//! A node plans each request as one group, under its one lock; a
//! cluster router plans a request with one group per node. The plan is
//! flat (DESIGN.md, "The flat shard plan"): three arrays for the whole
//! request, deduplicated through one [`KeyMap`], so a unique key costs
//! no allocation of its own. A router that forwards every occurrence
//! instead buckets alone ([`ShardBuckets`]).
//!
//! The plan is pure data: the node executes it (`PsNode::pull`/`push`)
//! and the router fans it out (`oe_cluster::PlacedCluster`).

use crate::Key;
use oe_cache::{KeyMap, KeyState};

/// One shard's slice of a planned request, borrowed from its
/// [`ShardPlan`].
#[derive(Debug, Clone, Copy)]
pub struct ShardGroup<'p> {
    /// Shard index in the node's shard vector.
    pub shard: usize,
    /// Distinct keys of this group, in first-occurrence order.
    pub uniques: &'p [Key],
    /// `occ_start[ui]..occ_start[ui + 1]` indexes `occ_pos`: one more
    /// entry than `uniques`.
    occ_start: &'p [u32],
    occ_pos: &'p [u32],
}

impl<'p> ShardGroup<'p> {
    /// The positions unique `ui` occupies in the original request, in
    /// request order (never empty).
    #[inline]
    pub fn occs(&self, ui: usize) -> &'p [u32] {
        &self.occ_pos[self.occ_start[ui] as usize..self.occ_start[ui + 1] as usize]
    }
}

/// A batched request bucketed by shard and coalesced per group, kept
/// flat: the request's distinct keys in one array ordered by group, and
/// each unique's occurrence positions as one range of a second array
/// (compressed sparse rows). A group is a range of uniques.
///
/// A plan is reusable: [`ShardPlan::rebuild`] keeps every buffer's
/// capacity and its dedup map, so a node that pools its plans plans a
/// steady-state request without allocating.
#[derive(Debug, Default)]
pub struct ShardPlan {
    /// `(shard, end of its uniques)` of each non-empty group, ascending
    /// by shard; a group's uniques start where the previous one's end.
    groups: Vec<(usize, u32)>,
    /// Distinct keys: group by group, first-occurrence order within one.
    uniques: Vec<Key>,
    /// `occ_start[u]..occ_start[u + 1]` indexes `occ_pos`; one more
    /// entry than `uniques` (or none for an empty request).
    occ_start: Vec<u32>,
    /// Request positions of every unique's occurrences, unique by
    /// unique, request order within one.
    occ_pos: Vec<u32>,
    total_keys: usize,
    /// Build scratch, kept for reuse: first-occurrence id of each key…
    seen: KeyMap<u32>,
    /// …and of each request position; each first-occurrence id's key,
    /// shard, occurrence count and final unique index.
    pos_id: Vec<u32>,
    first_key: Vec<Key>,
    first_shard: Vec<u32>,
    first_count: Vec<u32>,
    first_rank: Vec<u32>,
    /// Per shard: uniques, then the next free unique index.
    shard_next: Vec<u32>,
}

impl ShardPlan {
    /// Plan `keys` over `shards` shards. `shard_of` must be a pure
    /// function of the key below `shards`.
    pub fn build(keys: &[Key], shards: usize, shard_of: impl Fn(Key) -> usize) -> Self {
        let mut plan = Self::default();
        plan.rebuild(keys, shards, shard_of);
        plan
    }

    /// An empty plan whose dedup map hashes under `state` (tests that
    /// show no plan depends on the hash function).
    pub fn with_hasher(state: KeyState) -> Self {
        Self {
            seen: KeyMap::with_hasher(state),
            ..Self::default()
        }
    }

    /// Replace this plan with the plan of `keys`, reusing its buffers.
    /// Groups ascend by shard; uniques keep first-occurrence order
    /// within a group, and occurrences keep request order within a
    /// unique.
    pub fn rebuild(&mut self, keys: &[Key], shards: usize, shard_of: impl Fn(Key) -> usize) {
        assert!(
            u32::try_from(keys.len()).is_ok(),
            "a request holds fewer than 2^32 keys"
        );
        self.total_keys = keys.len();
        // Pass 1: number distinct keys in first-occurrence order.
        self.seen.clear();
        self.seen.reserve(keys.len());
        self.pos_id.clear();
        self.first_key.clear();
        self.first_shard.clear();
        self.first_count.clear();
        for &key in keys {
            let next = self.first_key.len() as u32;
            let id = *self.seen.entry(key).or_insert(next);
            if id == next {
                let shard = shard_of(key);
                debug_assert!(shard < shards, "shard {shard} of key {key} out of range");
                self.first_key.push(key);
                self.first_shard.push(shard as u32);
                self.first_count.push(0);
            }
            self.first_count[id as usize] += 1;
            self.pos_id.push(id);
        }
        // Pass 2: a stable counting sort of the uniques by shard, which
        // keeps first-occurrence order within each group.
        self.shard_next.clear();
        self.shard_next.resize(shards, 0);
        for &shard in &self.first_shard {
            self.shard_next[shard as usize] += 1;
        }
        self.groups.clear();
        let mut end = 0u32;
        for (shard, next) in self.shard_next.iter_mut().enumerate() {
            let n = *next;
            *next = end;
            if n > 0 {
                end += n;
                self.groups.push((shard, end));
            }
        }
        let n = self.first_key.len();
        self.uniques.clear();
        self.uniques.resize(n, 0);
        self.first_rank.clear();
        self.occ_start.clear();
        self.occ_start.resize(if n == 0 { 0 } else { n + 1 }, 0);
        for (id, (&key, &shard)) in self.first_key.iter().zip(&self.first_shard).enumerate() {
            let next = &mut self.shard_next[shard as usize];
            let u = *next as usize;
            *next += 1;
            self.uniques[u] = key;
            self.first_rank.push(u as u32);
            self.occ_start[u + 1] = self.first_count[id];
        }
        for u in 1..self.occ_start.len() {
            self.occ_start[u] += self.occ_start[u - 1];
        }
        // Pass 3: file each position under its unique, in request order,
        // with the last pass's counts as cursors.
        self.occ_pos.clear();
        self.occ_pos.resize(keys.len(), 0);
        let cursor = &mut self.first_count;
        for (id, &u) in self.first_rank.iter().enumerate() {
            cursor[id] = self.occ_start[u as usize];
        }
        for (pos, &id) in self.pos_id.iter().enumerate() {
            let c = &mut cursor[id as usize];
            self.occ_pos[*c as usize] = pos as u32;
            *c += 1;
        }
    }

    /// Number of non-empty shard groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Group `g`, groups ascending by shard index.
    pub fn group(&self, g: usize) -> ShardGroup<'_> {
        let start = match g {
            0 => 0,
            g => self.groups[g - 1].1 as usize,
        };
        let (shard, end) = self.groups[g];
        let end = end as usize;
        ShardGroup {
            shard,
            uniques: &self.uniques[start..end],
            occ_start: &self.occ_start[start..=end],
            occ_pos: &self.occ_pos,
        }
    }

    /// Every group, ascending by shard index.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = ShardGroup<'_>> + '_ {
        (0..self.groups.len()).map(|g| self.group(g))
    }

    /// The request's distinct keys, group by group.
    pub fn uniques(&self) -> &[Key] {
        &self.uniques
    }

    /// The request positions of unique `u` (an index into
    /// [`ShardPlan::uniques`]), in request order.
    #[inline]
    pub fn occs(&self, u: usize) -> &[u32] {
        &self.occ_pos[self.occ_start[u] as usize..self.occ_start[u + 1] as usize]
    }

    /// Total key occurrences in the request.
    pub fn total_keys(&self) -> usize {
        self.total_keys
    }

    /// Total distinct keys across all groups.
    pub fn total_uniques(&self) -> usize {
        self.uniques.len()
    }

    /// Duplicate-key coalescing ratio: occurrences per unique key.
    pub fn dedup_ratio(&self) -> f64 {
        if self.uniques.is_empty() {
            1.0
        } else {
            self.total_keys as f64 / self.uniques.len() as f64
        }
    }
}

/// A request's `(position, key)` pairs bucketed by shard, request order
/// kept within each bucket: what a router forwards when each owner must
/// see every occurrence (gradient pushes, whose coalescibility only the
/// owning node's optimizer can decide).
#[derive(Debug)]
pub struct ShardBuckets {
    buckets: Vec<Vec<(u32, Key)>>,
}

impl ShardBuckets {
    /// Bucket `keys` by shard. `shard_of` must be a pure function of
    /// the key below `shards`.
    pub fn bucket(keys: &[Key], shards: usize, shard_of: impl Fn(Key) -> usize) -> Self {
        let mut buckets: Vec<Vec<(u32, Key)>> = vec![Vec::new(); shards];
        for (pos, &key) in keys.iter().enumerate() {
            buckets[shard_of(key)].push((pos as u32, key));
        }
        Self { buckets }
    }

    /// Each non-empty bucket as `(shard, occurrences)`, ascending by
    /// shard, occurrences in request order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[(u32, Key)])> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(shard, b)| (shard, b.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(keys: &[Key], shards: usize) -> ShardPlan {
        ShardPlan::build(keys, shards, |k| (k % shards as u64) as usize)
    }

    fn occs(g: ShardGroup<'_>) -> Vec<&[u32]> {
        (0..g.uniques.len()).map(|ui| g.occs(ui)).collect()
    }

    #[test]
    fn buckets_preserve_order_and_coalesce_duplicates() {
        // Shard 0: 4, 2, 4, 2, 4 · shard 1: 7, 7.
        let p = plan(&[4, 7, 2, 4, 2, 7, 4], 2);
        assert_eq!(p.total_keys(), 7);
        assert_eq!(p.total_uniques(), 3);
        assert_eq!(p.group_count(), 2);
        let g0 = p.group(0);
        assert_eq!(g0.shard, 0);
        assert_eq!(g0.uniques, [4, 2]);
        assert_eq!(occs(g0), [&[0, 3, 6][..], &[2, 4]]);
        let g1 = p.group(1);
        assert_eq!(g1.uniques, [7]);
        assert_eq!(occs(g1), [&[1, 5]]);
        assert_eq!(p.uniques(), [4, 2, 7]);
        assert_eq!(p.occs(2), [1, 5]);
        assert!((p.dedup_ratio() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn buckets_list_each_shards_positions_in_request_order() {
        let keys = [4u64, 7, 2, 4, 2, 7, 4];
        let b = ShardBuckets::bucket(&keys, 3, |k| (k % 2) as usize);
        let buckets: Vec<(usize, Vec<(u32, Key)>)> =
            b.iter().map(|(s, occ)| (s, occ.to_vec())).collect();
        assert_eq!(
            buckets,
            vec![
                (0, vec![(0, 4), (2, 2), (3, 4), (4, 2), (6, 4)]),
                (1, vec![(1, 7), (5, 7)]),
            ],
            "shard 2 is empty and skipped"
        );
    }

    #[test]
    fn empty_shards_are_skipped() {
        let p = plan(&[8, 8, 8], 4); // all land on shard 0
        assert_eq!(p.group_count(), 1);
        assert_eq!(p.group(0).uniques, [8]);
        assert_eq!(p.group(0).occs(0), [0, 1, 2]);
    }

    #[test]
    fn a_rebuilt_plan_equals_a_fresh_one() {
        let mut p = plan(&(0..300u64).map(|i| i * i % 97).collect::<Vec<_>>(), 5);
        let keys = [4u64, 7, 2, 4, 2, 7, 4, 9, 0];
        p.rebuild(&keys, 3, |k| (k % 3) as usize);
        let fresh = plan(&keys, 3);
        assert_eq!(p.total_keys(), fresh.total_keys());
        assert_eq!(p.uniques(), fresh.uniques());
        assert_eq!(p.group_count(), fresh.group_count());
        for (ga, gb) in p.groups().zip(fresh.groups()) {
            assert_eq!(ga.shard, gb.shard);
            assert_eq!(ga.uniques, gb.uniques);
            assert_eq!(occs(ga), occs(gb));
        }
        p.rebuild(&[], 3, |k| (k % 3) as usize);
        assert_eq!(
            (p.group_count(), p.total_uniques(), p.total_keys()),
            (0, 0, 0)
        );
    }

    #[test]
    fn empty_request_yields_empty_plan() {
        let p = plan(&[], 4);
        assert_eq!(p.group_count(), 0);
        assert_eq!(p.dedup_ratio(), 1.0);
    }
}
