//! # oe-cluster — static hash routing over PS nodes
//!
//! The paper shards embedding keys across PS servers by a static hash
//! (§IV). [`PlacedCluster`] is that cluster: it holds its nodes as
//! [`oe_core::PsEngine`]s, sends each key to [`hash_node_of`], dedups a
//! burst per node, gathers the replies back in request order, prices a
//! burst as its nodes serving in parallel, fans checkpoints out to every
//! node and reports the minimum committed checkpoint.
//!
//! Routing is in-process and stateless: a key's node is a pure function
//! of the key and the node count, so no router can hold a stale copy.
//! (`oe-net`'s `RemotePs` is a `PsClient`, not a `PsEngine`; a cluster
//! of remote nodes is not built.)

#![warn(missing_docs)]

pub mod placed;

pub use placed::{hash_node_of, MigrationStats, PlacedCluster};
