//! What every training run shares: the trainer configuration, the
//! gradient modes, and the per-run context/accumulators the window loop
//! in [`crate::pipeline`] composes virtual time from.

use crate::gpu::GpuModel;
use crate::model::{DeepFm, DeepFmConfig};
use crate::phases::PhaseBreakdown;
use oe_core::init::init_rows;
use oe_core::{BatchId, CheckpointScheduler};
use oe_simdevice::clock::Nanos;
use oe_simdevice::ContentionModel;
use oe_telemetry::Histogram;
use oe_workload::WorkloadSpec;

/// How gradients are produced.
pub enum TrainMode {
    /// Deterministic pseudo-gradients (cheap; used for performance
    /// studies where only the I/O pattern matters).
    Synthetic {
        /// Gradient magnitude.
        grad_scale: f32,
    },
    /// A real DeepFM with full backprop; labels come from a synthetic
    /// teacher keyed by the hottest field key (self-contained signal).
    DeepFm(DeepFmConfig),
}

/// Service threads on the PS node.
const PS_SERVICE_THREADS: u32 = 16;
/// Cache-maintainer threads (pipelined engines).
const MAINTAINER_THREADS: u32 = 8;
/// Concurrent request streams each worker opens during a burst.
const STREAMS_PER_WORKER: u32 = 2;

/// Trainer configuration. The network is [`oe_net::NetCharge`], the
/// wire's one cost model.
pub struct TrainerConfig {
    /// GPU workers (the paper's 4/8/16-GPU axis).
    pub workers: u32,
    /// GPU compute model.
    pub gpu: GpuModel,
    /// Gradient mode.
    pub mode: TrainMode,
    /// Checkpoint scheduler (virtual-time driven).
    pub ckpt: CheckpointScheduler,
    /// Pause per checkpoint for dumping the *dense* model from the GPU
    /// (TensorFlow's own checkpoint path in Table IV). Zero reproduces
    /// the paper's "Sparse Only" configuration.
    pub dense_ckpt_pause_ns: Nanos,
    /// Record a Fig. 2-style trace of request arrivals.
    pub record_trace: bool,
}

impl TrainerConfig {
    /// Paper-shaped defaults for `workers` GPUs, checkpointing disabled.
    pub fn paper(workers: u32) -> Self {
        Self {
            workers,
            gpu: GpuModel::paper_default(),
            mode: TrainMode::Synthetic { grad_scale: 0.01 },
            ckpt: CheckpointScheduler::disabled(),
            dense_ckpt_pause_ns: 0,
            record_trace: false,
        }
    }

    fn burst_streams(&self) -> u32 {
        (self.workers * STREAMS_PER_WORKER).max(1)
    }
}

/// Immutable per-run context shared by every window.
pub(crate) struct BatchCtx {
    pub(crate) dim: usize,
    pub(crate) spec: WorkloadSpec,
    pub(crate) pull_model: ContentionModel,
    pub(crate) maint_model: ContentionModel,
    pub(crate) ckpt_model: ContentionModel,
}

impl BatchCtx {
    pub(crate) fn new(dim: usize, spec: WorkloadSpec, cfg: &TrainerConfig) -> Self {
        Self {
            dim,
            spec,
            pull_model: ContentionModel::new(PS_SERVICE_THREADS, cfg.burst_streams()),
            maint_model: ContentionModel::new(MAINTAINER_THREADS, MAINTAINER_THREADS),
            ckpt_model: ContentionModel::new(PS_SERVICE_THREADS, 1),
        }
    }
}

/// Mutable per-run accumulators.
pub(crate) struct RunAcc {
    pub(crate) phases: PhaseBreakdown,
    pub(crate) loss_sum: f64,
    pub(crate) loss_count: u64,
    pub(crate) ckpts_taken: u64,
    pub(crate) pull_hist: Histogram,
    pub(crate) maintain_hist: Histogram,
    pub(crate) push_hist: Histogram,
    pub(crate) batch_hist: Histogram,
}

impl RunAcc {
    pub(crate) fn new() -> Self {
        Self {
            phases: PhaseBreakdown::default(),
            loss_sum: 0.0,
            loss_count: 0,
            ckpts_taken: 0,
            pull_hist: Histogram::new(),
            maintain_hist: Histogram::new(),
            push_hist: Histogram::new(),
            batch_hist: Histogram::new(),
        }
    }
}

/// Synthetic teacher label: depends on the hottest key of the input
/// so the DeepFM has learnable signal.
pub(crate) fn teacher_label(keys: &[u64], batch: u64, input: usize) -> f32 {
    let hot = keys.iter().copied().min().unwrap_or(0);
    let h = oe_core::init::splitmix64(hot.wrapping_mul(0x9E37) ^ 0xF00D);
    let noise = oe_core::init::splitmix64(batch ^ (input as u64) << 20 ^ hot);
    // ~70% determined by the key, 30% noise.
    let p = if h & 1 == 0 { 0.8 } else { 0.2 };
    if ((noise >> 16) as f64 / (1u64 << 48) as f64) < p {
        1.0
    } else {
        0.0
    }
}

/// One worker's gradient burst for batch `b` from its pulled weights
/// (and the loss accounting that goes with it).
#[allow(clippy::too_many_arguments)]
pub(crate) fn worker_grads(
    mode: &TrainMode,
    model: &mut Option<DeepFm>,
    wb: &oe_workload::Batch,
    weights: &[f32],
    b: BatchId,
    dim: usize,
    fields: usize,
    acc: &mut RunAcc,
) -> Vec<f32> {
    let keys = &wb.unique_keys;
    let mut grads = vec![0.0f32; keys.len() * dim];
    match mode {
        TrainMode::Synthetic { grad_scale } => init_rows(b ^ 0x5A5A, keys, *grad_scale, &mut grads),
        TrainMode::DeepFm(_) => {
            let model = model.as_mut().expect("model built");
            let mut emb = vec![0.0f32; fields * dim];
            for (ii, input) in wb.input_keys().enumerate() {
                for (f, k) in input.iter().enumerate() {
                    let idx = keys.binary_search(k).expect("key pulled");
                    emb[f * dim..(f + 1) * dim]
                        .copy_from_slice(&weights[idx * dim..(idx + 1) * dim]);
                }
                let label = teacher_label(input, b, ii);
                let (loss, d_emb) = model.train_example(&emb, &[], label);
                acc.loss_sum += loss as f64;
                acc.loss_count += 1;
                for (f, k) in input.iter().enumerate() {
                    let idx = keys.binary_search(k).expect("key pulled");
                    for d in 0..dim {
                        grads[idx * dim + d] += d_emb[f * dim + d];
                    }
                }
            }
        }
    }
    grads
}
