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
//!   head, hash fallback for the cold tail. Same epoch ⇒ same routing.
//! * [`FreqTracker`] + [`SkewAwarePlacer`] — recent access counts turned
//!   into minimal hot-key move lists onto the coolest DRAM-rich nodes.
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
//! Retry safety across a migration epoch is inherited from the RPC
//! layer: `oe-net` servers fence stale placement epochs the same way
//! they fence stale sequence numbers, and the replay cache still
//! answers retries of already-applied mutations, so a push retried
//! across a cutover is never applied twice.

#![warn(missing_docs)]

pub mod freq;
pub mod migration;
pub mod placed;
pub mod placement;
pub mod placer;
pub mod rebalance;

pub use freq::FreqTracker;
pub use migration::{MigrationSpec, MigrationStats};
pub use placed::PlacedCluster;
pub use placement::PlacementTable;
pub use placer::{NodeClass, PlacerConfig, SkewAwarePlacer};
pub use rebalance::{NodeWindow, RebalanceConfig, RebalanceController};
