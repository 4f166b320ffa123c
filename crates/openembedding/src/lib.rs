//! # OpenEmbedding-RS
//!
//! A from-scratch Rust reproduction of **OpenEmbedding** (Chen et al.,
//! ICDE 2023): a distributed parameter server for deep learning
//! recommendation models (DLRM) using persistent memory.
//!
//! ```text
//!  GPU workers ──pull──▶ ┌────────────── PS node ──────────────┐
//!   (DeepFM)   ◀─weights─│ DRAM hash index ── DRAM cache (LRU) │
//!              ──push───▶│        │   pipelined maintenance    │
//!                        │        ▼            ▼               │
//!                        │   PMem pool  ◀─ flush/evict/ckpt    │
//!                        └─────── Checkpointed Batch ID ───────┘
//! ```
//!
//! ## Quick start
//!
//! ```
//! use openembedding::prelude::*;
//!
//! // A PMem-backed PS node with a 1 MiB DRAM cache, dim-8 embeddings.
//! let node = PsNode::new(NodeConfig::small(8));
//! let mut weights = Vec::new();
//! let mut cost = Cost::new();
//!
//! // Batch 1: pull two embeddings (initialized on first touch)…
//! node.pull(&[42, 7], 1, &mut weights, &mut cost);
//! node.end_pull_phase(1); // pipelined cache maintenance
//! // …train… then push the gradients back.
//! let grads = vec![0.01_f32; 2 * 8];
//! node.push(&[42, 7], &grads, 1, &mut cost);
//!
//! // Lightweight batch-aware checkpoint: near-zero cost to request,
//! // committed during the next batch's cache maintenance.
//! node.request_checkpoint(1);
//! node.pull(&[42], 2, &mut weights, &mut cost);
//! node.end_pull_phase(2);
//! assert_eq!(node.committed_checkpoint(), 1);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`simdevice`] | simulated DRAM/PMem/SSD: timing models, crash-consistent media |
//! | [`pmem`] | PMDK-style pool: slot allocator, persistent root, recovery scan |
//! | [`cache`] | DRAM cache primitives: arena, tagged pointers, LRU, version chains |
//! | [`core`] | the PS node (Algorithms 1 & 2), checkpointing, recovery, optimizers |
//! | [`cluster`] | skew-aware placement plane: epoch-versioned routing, live shard migration, rebalancing |
//! | [`baselines`] | DRAM-PS, Ori-Cache, PMem-Hash, TF-PS, incremental checkpointing |
//! | [`workload`] | skew models fitted to the paper's trace, Criteo synth, analysis |
//! | [`train`] | the training simulator (one trainer; k = 0 is the paper's synchronous batch), DeepFM, failure injection, cost model |
//! | [`net`] | wire protocol, fault-injecting transports, retry/deadline, checkpoint failover |
//! | [`pool`] | disaggregated PMem: shared remote pool, fabric cost model, pool-resident failover |
//! | [`telemetry`] | lock-free latency histograms, metric registry, phase spans, text exposition |

pub mod layer;

pub use oe_baselines as baselines;
pub use oe_cache as cache;
pub use oe_cluster as cluster;
pub use oe_core as core;
pub use oe_net as net;
pub use oe_pmem as pmem;
pub use oe_pool as pool;
pub use oe_serve as serve;
pub use oe_simdevice as simdevice;
pub use oe_telemetry as telemetry;
pub use oe_train as train;
pub use oe_workload as workload;

/// The most common imports, one `use` away.
pub mod prelude {
    pub use crate::layer::{EmbeddingActivation, EmbeddingLayer};
    pub use oe_baselines::{CkptDevice, DramPs, IncrementalCkpt, OriCache, PmemHash, TfPs};
    pub use oe_cluster::{
        MigrationSpec, NodeClass, PlacedCluster, PlacementTable, RebalanceConfig,
    };
    pub use oe_core::engine::PsEngine;
    pub use oe_core::{
        BatchId, CheckpointScheduler, DramStore, Key, LocalPmem, NodeConfig, Optimizer,
        OptimizerKind, PsNode, StorageBackend,
    };
    pub use oe_net::{
        loopback, CheckpointReplica, EngineClient, FaultInjector, FaultSpec, NetConfig, PsClient,
        PsServer, RemotePs, RetryPolicy,
    };
    pub use oe_pool::{FabricConfig, PoolStandby, RemotePool, SharedPool};
    pub use oe_serve::{
        load_image, recall_at_k, save_image, AnnConfig, CheckpointPublisher, ExactScan,
        LshRetriever, Retriever, ServingNode, Snapshot, SnapshotHandle, SnapshotReader,
    };
    pub use oe_simdevice::{Cost, CostKind, DeviceTiming, Media, MediaConfig, VirtualClock};
    pub use oe_telemetry::{Histogram, HistogramSnapshot, Phase, PhaseTimes, Registry};
    pub use oe_train::model::{DeepFm, DeepFmConfig};
    pub use oe_train::{
        CloudCostModel, CoherenceSource, GpuModel, NetModel, PipelineConfig, PipelineReport,
        PipelinedTrainer, PsDeployment, TrainMode, TrainReport, TrainerConfig,
    };
    pub use oe_workload::{CriteoSynth, SkewModel, WorkloadGen, WorkloadSpec};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let node = PsNode::new(NodeConfig::small(4));
        let mut out = Vec::new();
        let mut cost = Cost::new();
        node.pull(&[1], 1, &mut out, &mut cost);
        assert_eq!(out.len(), 4);
        assert_eq!(node.name(), "PMem-OE");
    }
}
