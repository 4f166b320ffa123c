//! # oe-cluster — the skew-aware placement plane
//!
//! Sharding embedding keys across PS nodes by a static hash (paper
//! §IV) is simple, stateless, and exactly wrong under the paper's access
//! skew (Table II: the top 0.05 % of keys absorb 85.7 % of accesses).
//! When a flash crowd's keys hash onto one node, that shard's DRAM cache
//! thrashes and its p99 melts while the rest of the cluster idles.
//!
//! This crate layers a placement plane over any [`oe_core::PsEngine`]:
//!
//! * [`PlacementTable`] — epoch-versioned key→node overrides for the hot
//!   head, the static hash ([`hash_node_of`]) for the cold tail. Same
//!   epoch ⇒ same routing.
//! * [`SkewAwarePlacer`] — recent access counts (`oe-cache`'s
//!   [`oe_cache::FreqTracker`]) turned into minimal hot-key move lists
//!   onto the coolest DRAM-rich nodes.
//! * [`PlacedCluster`] — routes pull/push bursts through the table and
//!   performs **live migration**: seed-copy of full entries (weights +
//!   optimizer state), a double-write window keeping both replicas in
//!   deterministic lockstep, and a cutover fence at `end_pull_phase`
//!   that bumps the placement epoch with no push in flight. Training
//!   never pauses, and final weights are bit-identical to a run that
//!   never migrated.
//! * [`RebalanceController`] — watches windowed per-node load and p99
//!   burst-latency histograms (`oe-telemetry` deltas) and triggers a
//!   drain when one node runs away from its peers.
//!
//! Placement is in-process: a `PlacedCluster` holds its nodes as
//! `PsEngine`s and routes every burst through its own table, so no
//! router can hold a stale copy and nothing needs fencing on a wire.
//! (`oe-net`'s `RemotePs` is a `PsClient`, not a `PsEngine`; a cluster
//! of remote nodes is not built.)

#![warn(missing_docs)]

pub mod migration;
pub mod placed;
pub mod placement;
pub mod placer;
pub mod rebalance;

pub use migration::{MigrationSpec, MigrationStats};
pub use placed::PlacedCluster;
pub use placement::{hash_node_of, PlacementTable};
pub use placer::{NodeClass, PlacerConfig, SkewAwarePlacer};
pub use rebalance::{NodeWindow, RebalanceConfig, RebalanceController};
