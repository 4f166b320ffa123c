//! The skew-aware placer: turns frequency telemetry into placement moves.
//!
//! The paper's Table II skew (top 0.05 % of keys → 85.7 % of accesses)
//! means a tiny override map captures most of the traffic: pinning just
//! the hot head onto DRAM-rich nodes moves the bulk of the load, while
//! the cold tail stays on its static hash home for free. The placer
//! therefore takes the [`FreqTracker`]'s hot head (sized by
//! `hot_fraction`, default the paper's 0.05 %), orders candidate
//! destinations by recent load (coolest first), and deals hot keys
//! round-robin across them — skipping keys already well placed so the
//! move list, and with it the double-write window, stays minimal.

use crate::placement::PlacementTable;
use oe_cache::FreqTracker;
use oe_core::Key;

/// How a node's memory is provisioned, for placement eligibility.
///
/// Hot keys only pay off on nodes whose DRAM cache can actually hold
/// them; a PMem-heavy node serves the cold tail fine but would thrash
/// on the crowd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeClass {
    /// Large DRAM cache — eligible destination for hot keys.
    DramRich,
    /// Mostly PMem — kept out of the hot-key destination rotation.
    PmemHeavy,
    /// Slots live in a disaggregated remote pool (`oe-pool`): every
    /// miss pays fabric latency on top of PMem, so like [`PmemHeavy`]
    /// it serves the cold tail and never receives hot keys.
    ///
    /// [`PmemHeavy`]: NodeClass::PmemHeavy
    PoolBacked,
}

/// Placer tuning knobs.
#[derive(Debug, Clone)]
pub struct PlacerConfig {
    /// Fraction of tracked keys treated as the hot head. Default is the
    /// paper's 0.05 % (which Table II credits with 85.7 % of accesses).
    pub hot_fraction: f64,
    /// Hard cap on moves per migration (bounds the double-write set).
    pub max_moves: usize,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self {
            hot_fraction: 0.0005,
            max_moves: 4096,
        }
    }
}

/// Plans hot-key moves from frequency telemetry.
#[derive(Debug, Clone, Default)]
pub struct SkewAwarePlacer {
    /// Tuning knobs.
    pub cfg: PlacerConfig,
}

impl SkewAwarePlacer {
    /// A placer with the given config.
    pub fn new(cfg: PlacerConfig) -> Self {
        Self { cfg }
    }

    /// Plan placement moves.
    ///
    /// * `freq` — recent access counts (the hot head comes from here).
    /// * `table` — current routing; keys already at their target stay.
    /// * `loads` — recent per-node load (keys served); coolest nodes are
    ///   preferred destinations.
    /// * `classes` — per-node memory class; only [`NodeClass::DramRich`]
    ///   nodes receive hot keys. Pass `&[]` to treat all as DRAM-rich.
    /// * `avoid` — the overloaded node, if any. When set, only keys
    ///   currently routed *to* it are moved (drain the melted shard);
    ///   when `None`, the whole hot head is spread.
    ///
    /// Returns `(key, destination)` moves, deterministic for identical
    /// inputs. Never returns a move to the key's current node.
    pub fn plan_moves(
        &self,
        freq: &FreqTracker,
        table: &PlacementTable,
        loads: &[u64],
        classes: &[NodeClass],
        avoid: Option<usize>,
    ) -> Vec<(Key, usize)> {
        let nodes = table.num_nodes();
        assert!(loads.len() == nodes, "one load figure per node");
        assert!(
            classes.is_empty() || classes.len() == nodes,
            "one class per node, or empty for all-DRAM"
        );

        // Candidate destinations: DRAM-rich, not the melted node,
        // coolest first (ties on index for determinism).
        let mut dests: Vec<usize> = (0..nodes)
            .filter(|&i| Some(i) != avoid)
            .filter(|&i| classes.is_empty() || classes[i] == NodeClass::DramRich)
            .collect();
        dests.sort_by_key(|&i| (loads[i], i));
        if dests.is_empty() {
            return Vec::new();
        }

        let hot = ((freq.distinct() as f64 * self.cfg.hot_fraction).ceil() as usize)
            .clamp(1, self.cfg.max_moves);
        let mut moves = Vec::new();
        let mut next = 0usize;
        for (key, _count) in freq.top_hot(hot) {
            let cur = table.node_of(key);
            if let Some(melted) = avoid {
                if cur != melted {
                    continue; // already off the hot shard
                }
            }
            let dest = dests[next % dests.len()];
            next += 1;
            if dest != cur {
                moves.push((key, dest));
            }
            if moves.len() >= self.cfg.max_moves {
                break;
            }
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_tracker(keys: &[Key]) -> FreqTracker {
        let mut f = FreqTracker::new();
        for (i, &k) in keys.iter().enumerate() {
            // Descending counts so `keys` order == hotness order.
            f.observe(k, 1_000 - i as u64);
        }
        // Cold tail so hot_fraction has a denominator to bite on.
        for k in 10_000..11_000u64 {
            f.observe(k, 1);
        }
        f
    }

    #[test]
    fn drains_only_the_melted_node_onto_cool_peers() {
        let table = PlacementTable::new(4);
        let hot: Vec<Key> = (0..200u64)
            .filter(|&k| table.node_of(k) == 1)
            .take(8)
            .collect();
        let freq = loaded_tracker(&hot);
        let placer = SkewAwarePlacer::new(PlacerConfig {
            hot_fraction: 0.01,
            max_moves: 64,
        });
        let moves = placer.plan_moves(&freq, &table, &[10, 900, 20, 30], &[], Some(1));
        assert!(!moves.is_empty());
        for &(k, dest) in &moves {
            assert_eq!(table.node_of(k), 1, "only melted-node keys move");
            assert_ne!(dest, 1, "never back onto the melted node");
        }
        // Round-robin over the three cool nodes → spread, not a pile-up.
        let spread: std::collections::HashSet<usize> = moves.iter().map(|&(_, d)| d).collect();
        assert!(spread.len() >= 2, "moves spread over peers: {moves:?}");
    }

    #[test]
    fn pmem_heavy_nodes_receive_no_hot_keys() {
        let table = PlacementTable::new(3);
        let hot: Vec<Key> = (0..100u64)
            .filter(|&k| table.node_of(k) == 0)
            .take(6)
            .collect();
        let freq = loaded_tracker(&hot);
        let placer = SkewAwarePlacer::new(PlacerConfig {
            hot_fraction: 0.01,
            max_moves: 64,
        });
        let classes = [
            NodeClass::DramRich,
            NodeClass::PmemHeavy,
            NodeClass::DramRich,
        ];
        let moves = placer.plan_moves(&freq, &table, &[500, 0, 0], &classes, Some(0));
        assert!(!moves.is_empty());
        assert!(
            moves.iter().all(|&(_, d)| d == 2),
            "only the DRAM-rich peer"
        );
    }

    #[test]
    fn pool_backed_nodes_receive_no_hot_keys() {
        // A pool-backed shard is even worse than PMem-heavy for the hot
        // head: every miss adds a fabric round trip. It must stay out
        // of the destination rotation exactly like PmemHeavy.
        let table = PlacementTable::new(3);
        let hot: Vec<Key> = (0..100u64)
            .filter(|&k| table.node_of(k) == 0)
            .take(6)
            .collect();
        let freq = loaded_tracker(&hot);
        let placer = SkewAwarePlacer::new(PlacerConfig {
            hot_fraction: 0.01,
            max_moves: 64,
        });
        let classes = [
            NodeClass::DramRich,
            NodeClass::PoolBacked,
            NodeClass::DramRich,
        ];
        let moves = placer.plan_moves(&freq, &table, &[500, 0, 0], &classes, Some(0));
        assert!(!moves.is_empty());
        assert!(
            moves.iter().all(|&(_, d)| d == 2),
            "hot keys skip the pool-backed node: {moves:?}"
        );
    }

    #[test]
    fn planning_is_deterministic_and_skips_well_placed_keys() {
        let mut table = PlacementTable::new(4);
        let hot: Vec<Key> = (0..200u64)
            .filter(|&k| table.node_of(k) == 2)
            .take(4)
            .collect();
        // Pre-place the hottest key on the coolest node: no move for it.
        table.apply(&[(hot[0], 3)]);
        let freq = loaded_tracker(&hot);
        let placer = SkewAwarePlacer::new(PlacerConfig {
            hot_fraction: 0.005,
            max_moves: 64,
        });
        let a = placer.plan_moves(&freq, &table, &[5, 6, 900, 0], &[], Some(2));
        let b = placer.plan_moves(&freq, &table, &[5, 6, 900, 0], &[], Some(2));
        assert_eq!(a, b, "same inputs, same plan");
        assert!(
            a.iter().all(|&(k, _)| k != hot[0]),
            "hot[0] already off node 2"
        );
    }
}
