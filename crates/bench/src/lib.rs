//! # oe-bench
//!
//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures on the simulator, plus four scenarios no
//! end-to-end workload isolates. Training, serving, the fabric lane and
//! the hot path are measured end to end by `e2e/`, not here.
//!
//! - [`scenario`] — the scaled default workload (model size, skew, cache
//!   fraction all preserved as *ratios* of the paper's 500 GB setup),
//!   the engine factory, and the standard warm-up + measure runner.
//! - [`figures`] — one function per paper artifact (`table1` … `fig15`),
//!   each printing the measured series next to the paper's published
//!   values.
//! - [`kernels`] — wall-clock microbench of the vectorized optimizer
//!   kernels (scalar reference vs SIMD-shaped vs batched) and the
//!   zero-copy burst codec (absolute encode/decode rates), emitted as
//!   `BENCH_kernels.json` by the `kernels` binary.
//! - [`failover`] — fault-tolerance bench: retry overhead at 0/1/5%
//!   frame loss and checkpoint-failover recovery latency, emitted as
//!   `BENCH_failover.json` by the `failover` binary.
//! - [`crashmc`] — crash-point enumeration sweep: every persistence
//!   event of a reference run is crashed, recovered, and checked
//!   against the durability invariants, emitted as `BENCH_crashmc.json`
//!   by the `crashmc` binary.
//! - [`rebalance`] — skew-aware placement bench: a zipf hot-key storm
//!   melts one shard; the telemetry-driven rebalancer drains it live
//!   and restores tail latency, emitted as `BENCH_rebalance.json` by
//!   the `rebalance` binary.
//! - [`trajectory`] — the one `main` the four scenario binaries share:
//!   exact metrics (virtual time, counts, bits) held to
//!   `BENCH_baseline.json` at equality, wall metrics recorded ungated;
//!   and the workspace's one JSON writer.
//!
//! Run `cargo run --release -p oe-bench --bin figures -- all` (or a
//! single id, or `--quick` for a fast pass).

pub mod crashmc;
pub mod failover;
pub mod figures;
pub mod kernels;
pub mod rebalance;
pub mod scenario;
pub mod trajectory;

pub use crashmc::{CrashMcBenchConfig, CrashMcReport};
pub use failover::{FailoverConfig, FailoverReport};
pub use kernels::{KernelsConfig, KernelsReport};
pub use rebalance::{RebalanceBenchConfig, RebalanceReport};
pub use scenario::{CkptSetup, EngineKind, Scenario};
pub use trajectory::GateOutcome;

// The checks the retired `pipeline`, `pool`, `pullpush` and `serve`
// scenarios made, kept as tests of the library paths they measured.
#[cfg(test)]
mod pipeline;
#[cfg(test)]
mod pool;
#[cfg(test)]
mod pullpush;
#[cfg(test)]
mod serve;
