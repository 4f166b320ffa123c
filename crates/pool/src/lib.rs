//! # oe-pool — disaggregated PMem behind a CXL-style fabric
//!
//! The TrainingCXL direction (PAPERS.md): instead of each parameter
//! server owning local Optane DIMMs, persistent memory lives in a
//! *shared remote pool* reached over a load/store fabric. Three things
//! change relative to the paper's local topology, and this crate models
//! all of them on the simulated clock:
//!
//! 1. **Every slot operation pays the fabric.** [`RemotePool`]
//!    implements `oe_core`'s [`StorageBackend`] seam by delegating to
//!    the ordinary [`PmemPool`] slot protocol (so the durable layout
//!    and persistence-event stream are *identical* to the local arm)
//!    and then charging [`CostKind::FabricTransfer`] time for the bytes
//!    that crossed the link — latency + bandwidth from
//!    [`DeviceTiming::cxl_fabric`], inflated by link congestion as more
//!    nodes attach to the same [`SharedPool`].
//! 2. **Checkpoint decode runs near the pool.** Recovery does not drag
//!    every slot across the fabric: the scan + index rebuild execute on
//!    compute adjacent to the pool ([`FabricConfig::near_pool_threads`])
//!    and only the rebuilt index summary ships to the promoted node.
//! 3. **A dead PS's state survives in the pool.** [`PoolPartition`] is
//!    the pool's home for `oe_core::recovery`: an `oe_net::Standby` over
//!    it resolves the partition's in-flight fabric writes exactly like a
//!    power cut (torn-line semantics), recovers near the pool, ships the
//!    index summary, re-attaches the partition and spawns the promoted
//!    server — no crash image is ever shipped. The same standby over the
//!    local home (`LocalMedia`) differs only in those steps, which is the
//!    disaggregated recovery win (`tests/pool_failover_e2e.rs` restores
//!    one checkpoint from both homes).
//!
//! [`StorageBackend`]: oe_core::StorageBackend
//! [`PmemPool`]: oe_pmem::PmemPool
//! [`CostKind::FabricTransfer`]: oe_simdevice::CostKind
//! [`DeviceTiming::cxl_fabric`]: oe_simdevice::DeviceTiming::cxl_fabric

pub mod remote;

pub use remote::{FabricConfig, PoolPartition, RemotePool, SharedPool};
