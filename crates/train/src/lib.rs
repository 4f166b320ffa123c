//! # oe-train
//!
//! The DLRM training simulator: one trainer ([`PipelinedTrainer`]) over one
//! fallible client seam ([`oe_net::PsClient`]). Its staleness-0 schedule
//! ([`PipelineConfig::sync`]) is the paper's synchronous batch; `k ≥ 1`
//! overlaps pushes and prefetch with compute (see [`pipeline`]).
//!
//! Two layers, matching the reproduction strategy in `DESIGN.md`:
//!
//! - **Functional**: every batch really pulls weights from the engine,
//!   computes gradients (either a synthetic rule or a real pure-Rust
//!   DeepFM with full backprop — [`model::DeepFm`]), and pushes them
//!   back; checkpoints, crashes, and recovery operate on real state.
//! - **Performance**: storage operations charge virtual time
//!   ([`oe_simdevice::Cost`]); the driver composes the charges per phase
//!   with calibrated GPU ([`gpu::GpuModel`]) and network
//!   ([`oe_net::NetCharge`]) models and a burst-contention model,
//!   reproducing the paper's batch anatomy (shown at `k = 0`):
//!
//! ```text
//! ── pull burst ──┬── GPU compute ────────────┬── push burst ── (ckpt?)
//!                 └── cache maintenance ‖ ────┘        (pipelined: hidden)
//! ```
//!
//! The spill of maintenance past compute, the synchronous checkpoint
//! pause, and PMem bandwidth interference are exactly the effects the
//! paper's Figs. 6/7/9/12/13 measure.

pub mod cost;
pub mod crashmc;
pub mod gpu;
pub mod model;
pub mod phases;
pub mod pipeline;
pub mod report;
pub mod trainer;

pub use cost::{CloudCostModel, PsDeployment};
pub use crashmc::{CrashMcConfig, RecoverySweepReport, SweepReport};
pub use gpu::GpuModel;
pub use phases::PhaseBreakdown;
pub use pipeline::{CoherenceSource, PipelineConfig, PipelineReport, PipelinedTrainer};
pub use report::TrainReport;
pub use trainer::{TrainMode, TrainerConfig};
