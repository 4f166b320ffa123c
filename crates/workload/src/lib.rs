//! # oe-workload
//!
//! Workload generation and analysis for the OpenEmbedding reproduction.
//!
//! The paper's evaluation workload is a production trace (2.1 B embedding
//! entries, 147 days, a top retailer) that is not available. Everything
//! the paper's results depend on, however, is the *access-frequency
//! distribution*, which the paper publishes: Table II (top 0.05 % of
//! entries receive 85.7 % of accesses, top 0.1 % → 89.5 %, top 1 % →
//! 95.7 %) and Fig. 10 (exponential-decay rank-frequency fit).
//!
//! [`skew::SkewModel::paper_fit`] is a two-exponential + uniform mixture
//! fitted to those three published points (max error < 0.01 %), with
//! [`skew::SkewModel::scaled`] producing the paper's "more skew" / "less
//! skew" variants (Fig. 10/11). The [`generator`] samples synchronous
//! training batches from the model; [`trace`] reproduces the Fig. 2
//! burst analysis; [`analyze`] measures empirical top-k shares and
//! rank-frequency curves; [`criteo`] is the
//! synthetic stand-in for the Criteo Kaggle dataset (Fig. 15).

pub mod analyze;
pub mod criteo;
pub mod generator;
pub mod lookahead;
pub mod skew;
pub mod storm;
pub mod trace;

pub use analyze::{top_share_empirical, RankFrequency};
pub use criteo::{CriteoSample, CriteoSynth};
pub use generator::{Batch, UniformStream, WorkloadGen, WorkloadSpec};
pub use lookahead::LookaheadGen;
pub use skew::SkewModel;
pub use storm::{StormGen, StormSpec};
pub use trace::{TraceEvent, TraceKind, TraceRecorder};
