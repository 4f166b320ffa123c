//! # oe-bench
//!
//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures on the simulator. Training, serving, the fabric
//! lane and the hot path are measured end to end by `e2e/`, not here;
//! the exact numbers of the durability, failover and rebalancing
//! scenarios are literals in the integration tests beside them, whose
//! drivers live in the root package's `tests/support/`.
//!
//! - [`scenario`] — the scaled default workload (model size, skew, cache
//!   fraction all preserved as *ratios* of the paper's 500 GB setup),
//!   the engine factory, and the standard warm-up + measure runner.
//! - [`figures`] — one function per paper artifact (`table1` … `fig15`),
//!   each printing the measured series next to the paper's published
//!   values.
//!
//! Run `cargo run --release -p oe-bench --bin figures -- all` (or a
//! single id, or `--quick` for a fast pass).

pub mod figures;
pub mod scenario;

pub use scenario::{CkptSetup, EngineKind, Scenario};
