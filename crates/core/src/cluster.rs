//! The two pure functions a sharded PS cluster is built from (paper
//! §IV: entries are partitioned across PS nodes by hashing the entry
//! id, and a burst completes when the slowest node does). The cluster
//! type itself is `oe-cluster`'s `PlacedCluster`, which uses
//! [`hash_node_of`] as its placement fallback — at placement epoch 0 it
//! *is* the static-hash cluster — and [`merge_node_parallel`] for burst
//! pricing.

use crate::Key;
use oe_simdevice::{Cost, CostKind};

/// The static hash placement: which of `nodes` owns `key` when no
/// placement override applies. Salted so node routing decorrelates from
/// the in-node shard hash (`splitmix64(key)`).
#[inline]
pub fn hash_node_of(key: Key, nodes: usize) -> usize {
    (crate::init::splitmix64(key ^ 0xC1u64) % nodes as u64) as usize
}

/// Merge per-node burst costs for nodes serving in parallel: the
/// elementwise max of device/serialized charges (each node's hardware
/// works concurrently) and the sum of CPU/NET/fabric (the client still
/// pays per-request work, and pool-backed nodes share one fabric link,
/// so their transfers queue rather than overlap). A simple,
/// conservative merge for multi-node bursts.
pub fn merge_node_parallel(costs: &[Cost], out: &mut Cost) {
    for kind in CostKind::ALL {
        let ns = match kind {
            CostKind::Cpu | CostKind::Net | CostKind::FabricTransfer => {
                costs.iter().map(|c| c.ns(kind)).sum()
            }
            _ => costs.iter().map(|c| c.ns(kind)).max().unwrap_or(0),
        };
        out.charge_ns_only(kind, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_cost_merge_takes_max_of_device_time() {
        let mut costs = vec![Cost::new(), Cost::new()];
        costs[0].charge(CostKind::PmemWrite, 100);
        costs[1].charge(CostKind::PmemWrite, 300);
        costs[0].charge(CostKind::Cpu, 10);
        costs[1].charge(CostKind::Cpu, 20);
        let mut out = Cost::new();
        merge_node_parallel(&costs, &mut out);
        assert_eq!(out.ns(CostKind::PmemWrite), 300);
        assert_eq!(out.ns(CostKind::Cpu), 30);
    }
}
