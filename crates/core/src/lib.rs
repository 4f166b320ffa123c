//! # oe-core — the OpenEmbedding parameter server
//!
//! The paper's primary contribution: a PMem-backed parameter server for
//! synchronous DLRM training with
//!
//! - **pull handling via a DRAM cache** ([`node::PsNode::pull`],
//!   Algorithm 1): lock-light reads from DRAM or PMem, first-touch
//!   initialization, access-queue append;
//! - **pipelined cache maintenance co-designed with lightweight
//!   batch-aware checkpointing** ([`node::PsNode::run_maintenance`],
//!   Algorithm 2): deferred LRU reordering, flush-before-version-bump,
//!   eviction write-back, and checkpoint commit by atomically advancing
//!   the Checkpointed Batch ID in PMem;
//! - **gradient application on the server** with pluggable
//!   [`optimizer`]s (SGD / AdaGrad / Adam), optimizer state co-located
//!   with the weights so checkpoints capture training state exactly;
//! - **recovery** ([`recovery`]): scan PMem, discard post-checkpoint
//!   versions, rebuild the DRAM hash index — no data copy;
//! - a **planned hot path** ([`plan`]): a request's duplicate keys are
//!   coalesced and its uniques executed in order under one acquisition
//!   of the node's one reader-writer lock (the only pull/push execution
//!   there is).
//!
//! Engines (this one and the baselines in `oe-baselines`) implement the
//! [`engine::PsEngine`] trait consumed by the training simulator.

pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod init;
pub mod node;
pub mod optimizer;
pub mod plan;
pub mod recovery;
pub mod scratch;
pub mod stats;
pub mod storage;

pub use checkpoint::CheckpointScheduler;
pub use config::{NodeConfig, CACHE_ENTRY_OVERHEAD_BYTES};
pub use engine::{MaintenanceReport, PsEngine};
pub use node::PsNode;
pub use optimizer::{Optimizer, OptimizerKind};
pub use plan::{ShardBuckets, ShardGroup, ShardPlan};
pub use scratch::{PooledScratch, ScratchPool};
pub use stats::{EngineStats, StatsSnapshot};
pub use storage::{DramStore, LocalPmem, StorageBackend};

/// Embedding key (re-exported from `oe-cache`).
pub type Key = oe_cache::Key;
/// Batch identifier (re-exported from `oe-cache`).
pub type BatchId = oe_cache::BatchId;
