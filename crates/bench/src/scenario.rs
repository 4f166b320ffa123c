//! The scaled evaluation scenario and the standard run harness.
//!
//! The paper's testbed is a 500 GB / 2.1 B-entry model trained by 4–16
//! V100s. The simulator preserves every *ratio* that drives the results:
//! cache size as a fraction of model bytes, the access-skew curve, batch
//! geometry, and the device speed ratios — while scaling the key count
//! down so a full figure regenerates in seconds.

use oe_baselines::{CkptDevice, DramPs, IncrementalCkpt, OriCache, PmemHash, TfPs};
use oe_core::engine::PsEngine;
use oe_core::{CheckpointScheduler, NodeConfig, OptimizerKind, PsNode};
use oe_net::EngineClient;
use oe_simdevice::clock::Nanos;
use oe_simdevice::DeviceTiming;
use oe_train::{PipelineConfig, PipelinedTrainer, TrainMode, TrainReport, TrainerConfig};
use oe_workload::{SkewModel, WorkloadSpec};
use std::sync::Arc;

/// Scaled workload + system parameters.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Distinct embedding keys (paper: 2.1 B).
    pub num_keys: u64,
    /// Embedding dimension (paper: 64).
    pub dim: usize,
    /// Sparse fields per input.
    pub fields: usize,
    /// Global batch size (paper: 4096).
    pub batch_size: usize,
    /// Skew multiplier: 1.0 = the paper-fit distribution.
    pub skew_scale: f64,
    /// DRAM cache as a fraction of model bytes (paper default:
    /// 2 GB / 500 GB = 0.4 %).
    pub cache_frac: f64,
    /// Warm-up batches before measurement.
    pub warm_batches: u64,
    /// Measured batches.
    pub measure_batches: u64,
    /// Workload seed.
    pub seed: u64,
    /// Popularity drift (keys/batch) — item churn over a long trace.
    pub drift_keys_per_batch: u64,
}

impl Scenario {
    /// Default scaled scenario.
    pub fn default_paper() -> Self {
        Self {
            num_keys: 1_000_000,
            dim: 64,
            fields: 8,
            batch_size: 2048,
            skew_scale: 1.0,
            cache_frac: 0.004,
            warm_batches: 40,
            measure_batches: 40,
            seed: 20230101,
            drift_keys_per_batch: 0,
        }
    }

    /// A much faster variant for smoke tests (`--quick`).
    pub fn quick() -> Self {
        Self {
            num_keys: 30_000,
            dim: 16,
            fields: 8,
            batch_size: 512,
            warm_batches: 10,
            measure_batches: 15,
            ..Self::default_paper()
        }
    }

    /// Node configuration implied by the scenario.
    pub fn node_config(&self) -> NodeConfig {
        let mut cfg = NodeConfig::small(self.dim);
        cfg.optimizer = OptimizerKind::Adagrad {
            lr: 0.05,
            eps: 1e-8,
        };
        cfg.cache_bytes = self.cache_bytes();
        cfg.pmem_capacity = (self.model_bytes() * 2).max(1 << 22);
        cfg
    }

    /// Simulated model footprint in bytes.
    pub fn model_bytes(&self) -> usize {
        let cfg = NodeConfig::small(self.dim); // payload math only
        self.num_keys as usize * cfg.payload_bytes()
    }

    /// DRAM cache bytes implied by `cache_frac`.
    pub fn cache_bytes(&self) -> usize {
        ((self.model_bytes() as f64 * self.cache_frac) as usize).max(1 << 14)
    }

    /// Workload spec for `workers` GPUs.
    pub fn workload(&self, workers: u32) -> WorkloadSpec {
        WorkloadSpec {
            num_keys: self.num_keys,
            fields: self.fields,
            batch_size: self.batch_size,
            workers: workers as usize,
            skew: SkewModel::paper_fit().scaled(self.skew_scale),
            seed: self.seed,
            drift_keys_per_batch: self.drift_keys_per_batch,
        }
    }
}

/// Which engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// PMem-OE: the full OpenEmbedding node.
    Oe,
    /// PMem-OE with the cache and/or pipeline ablated (Fig. 9).
    OeAblation {
        /// DRAM cache enabled.
        cache: bool,
        /// Pipelined maintenance enabled.
        pipeline: bool,
    },
    /// PMem-OE wrapped with incremental checkpointing (Fig. 12).
    OeIncremental,
    /// Classic DRAM parameter server.
    DramPs,
    /// Fine-grained hybrid cache, synchronous maintenance.
    OriCache,
    /// PMem-native hash store.
    PmemHash,
    /// Framework-default PS (Fig. 15).
    TfPs,
    /// PMem-OE with custom cache policies (ablations beyond the paper).
    OeCustom {
        /// Replacement policy.
        replacement: oe_cache::PolicyKind,
        /// Admission policy.
        admission: oe_cache::AdmissionKind,
        /// Shard count.
        shards: usize,
    },
}

impl EngineKind {
    /// Instantiate the engine for a scenario, as the client the trainer
    /// drives.
    pub fn build(self, sc: &Scenario) -> EngineClient {
        let cfg = sc.node_config();
        let engine: Arc<dyn PsEngine> = match self {
            EngineKind::Oe => Arc::new(PsNode::new(cfg)),
            EngineKind::OeAblation { cache, pipeline } => {
                let mut cfg = cfg;
                cfg.enable_cache = cache;
                cfg.enable_pipeline = pipeline;
                Arc::new(PsNode::new(cfg))
            }
            EngineKind::OeIncremental => {
                Arc::new(IncrementalCkpt::new(PsNode::new(cfg), CkptDevice::Pmem))
            }
            EngineKind::DramPs => Arc::new(DramPs::new(cfg, CkptDevice::Pmem)),
            EngineKind::OriCache => Arc::new(OriCache::new(cfg, CkptDevice::Pmem)),
            EngineKind::PmemHash => Arc::new(PmemHash::new(cfg)),
            EngineKind::TfPs => Arc::new(TfPs::new(cfg, CkptDevice::Ssd)),
            EngineKind::OeCustom {
                replacement,
                admission,
                shards,
            } => {
                let mut cfg = cfg;
                cfg.replacement = replacement;
                cfg.admission = admission;
                cfg.shards = shards;
                Arc::new(PsNode::new(cfg))
            }
        };
        EngineClient::new(engine)
    }

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Oe => "PMem-OE",
            EngineKind::OeAblation { cache, pipeline } => match (cache, pipeline) {
                (false, false) => "OE(-cache,-pipe)",
                (true, false) => "OE(+cache,-pipe)",
                (false, true) => "OE(-cache,+pipe)",
                (true, true) => "OE(+cache,+pipe)",
            },
            EngineKind::OeIncremental => "PMem-OE(Incr)",
            EngineKind::DramPs => "DRAM-PS",
            EngineKind::OriCache => "Ori-Cache",
            EngineKind::PmemHash => "PMem-Hash",
            EngineKind::TfPs => "Tensorflow",
            EngineKind::OeCustom { .. } => "PMem-OE(custom)",
        }
    }
}

/// Checkpoint configuration for a run (Table IV variants).
#[derive(Debug, Clone, Copy)]
pub enum CkptSetup {
    /// No checkpoints.
    None,
    /// Batch-aware sparse checkpoint + TF dense checkpoint ("Proposed").
    Proposed {
        /// Virtual-time interval.
        interval_ns: Nanos,
    },
    /// Batch-aware sparse only, no dense dump ("Sparse Only").
    SparseOnly {
        /// Virtual-time interval.
        interval_ns: Nanos,
    },
    /// Engine-native incremental dump + dense checkpoint
    /// ("Incremental Checkpoint").
    Incremental {
        /// Virtual-time interval.
        interval_ns: Nanos,
    },
}

impl CkptSetup {
    fn scheduler(&self) -> CheckpointScheduler {
        match self {
            CkptSetup::None => CheckpointScheduler::disabled(),
            CkptSetup::Proposed { interval_ns }
            | CkptSetup::SparseOnly { interval_ns }
            | CkptSetup::Incremental { interval_ns } => CheckpointScheduler::every(*interval_ns),
        }
    }

    /// Dense-model dump pause: the dense part (~1 % of the model) is
    /// written to SSD by the framework's own checkpoint path.
    fn dense_pause(&self, sc: &Scenario) -> Nanos {
        match self {
            CkptSetup::None | CkptSetup::SparseOnly { .. } => 0,
            CkptSetup::Proposed { .. } | CkptSetup::Incremental { .. } => {
                let dense_bytes = (sc.model_bytes() / 1000) as u64;
                DeviceTiming::flash_ssd().write_ns(dense_bytes)
            }
        }
    }
}

/// Run `engine` under the standard harness: warm up (untimed, builds
/// the cache working set) and measure.
pub fn run_scenario(kind: EngineKind, sc: &Scenario, workers: u32, ckpt: CkptSetup) -> TrainReport {
    let engine = kind.build(sc);
    let trainer = |cfg| {
        PipelinedTrainer::with_client(&engine, sc.workload(workers), cfg, PipelineConfig::sync())
    };

    // Warm-up pass: first-touch initialization + cache warming.
    let mut warm_cfg = TrainerConfig::paper(workers);
    warm_cfg.mode = TrainMode::Synthetic { grad_scale: 0.01 };
    trainer(warm_cfg).run(1, sc.warm_batches);

    // Measured pass (a fresh trainer: its clock starts at zero).
    let mut cfg = TrainerConfig::paper(workers);
    cfg.mode = TrainMode::Synthetic { grad_scale: 0.01 };
    cfg.ckpt = ckpt.scheduler();
    cfg.dense_ckpt_pause_ns = ckpt.dense_pause(sc);
    let mut t = trainer(cfg);
    t.run(sc.warm_batches + 1, sc.measure_batches).train
}

/// Format a normalized-comparison row.
pub fn norm_row(label: &str, value: f64, paper: Option<f64>) -> String {
    match paper {
        Some(p) => format!("{label:<22} measured {value:>7.3}   (paper ≈ {p:.3})"),
        None => format!("{label:<22} measured {value:>7.3}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_math() {
        let sc = Scenario::default_paper();
        // dim 64 + adagrad state = 512 B payload.
        assert_eq!(sc.model_bytes(), 1_000_000 * 512);
        assert!((sc.cache_bytes() as f64 / sc.model_bytes() as f64 - 0.004).abs() < 1e-3);
    }

    #[test]
    fn engines_build_and_run_quick() {
        let sc = Scenario {
            num_keys: 2_000,
            batch_size: 64,
            warm_batches: 2,
            measure_batches: 3,
            dim: 8,
            fields: 4,
            ..Scenario::quick()
        };
        for kind in [
            EngineKind::Oe,
            EngineKind::DramPs,
            EngineKind::OriCache,
            EngineKind::PmemHash,
            EngineKind::TfPs,
        ] {
            let r = run_scenario(kind, &sc, 2, CkptSetup::None);
            assert_eq!(r.batches, 3, "{}", kind.label());
            assert!(r.total_ns > 0);
        }
    }

    #[test]
    fn checkpoint_setups_configure_pauses() {
        let sc = Scenario::quick();
        assert_eq!(CkptSetup::None.dense_pause(&sc), 0);
        assert_eq!(CkptSetup::SparseOnly { interval_ns: 1 }.dense_pause(&sc), 0);
        assert!(CkptSetup::Proposed { interval_ns: 1 }.dense_pause(&sc) > 0);
    }
}
