//! # oe-bench
//!
//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures on the simulator.
//!
//! - [`scenario`] — the scaled default workload (model size, skew, cache
//!   fraction all preserved as *ratios* of the paper's 500 GB setup),
//!   the engine factory, and the standard warm-up + measure runner.
//! - [`figures`] — one function per paper artifact (`table1` … `fig15`),
//!   each printing the measured series next to the paper's published
//!   values.
//! - [`pullpush`] — shard-plan hot-path throughput microbenchmark
//!   (1 vs 4 vs one-per-shard execution lanes), emitted as
//!   `BENCH_pullpush.json` by the `pullpush` binary.
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
//! - [`pipeline`] — sync-vs-bounded-async pipelining frontier: epoch
//!   virtual time and wall time vs the staleness bound on a zipf
//!   DeepFM-lite workload, with prefetch hit-rates and the
//!   accuracy-vs-epoch-time convergence curve, emitted as
//!   `BENCH_pipeline.json` by the `pipeline` binary.
//! - [`kernels`] — wall-clock microbench of the vectorized optimizer
//!   kernels (scalar reference vs SIMD-shaped vs batched) and the
//!   zero-copy burst codec (absolute encode/decode rates), emitted as
//!   `BENCH_kernels.json` by the `kernels` binary.
//! - [`pool`] — disaggregated-PMem bench: local vs DRAM vs remote-pool
//!   storage arms at equal simulated cost, fabric congestion scaling,
//!   and pool-resident vs crash-image recovery, emitted as
//!   `BENCH_pool.json` by the `pool` binary.
//! - [`serve`] — serving-plane bench: exact-vs-LSH recall/latency
//!   tradeoff plus an open-loop QPS replay with a mid-traffic snapshot
//!   flip, emitted as `BENCH_serve.json` by the `serve` binary.
//! - [`trajectory`] — persistent perf trajectory: appends each gated
//!   run's metrics to `BENCH_trajectory.json` keyed by git commit and
//!   fails CI when a metric regresses >30% below
//!   `BENCH_baseline.json` or silently leaves it; also the one `main`
//!   the eight scenario binaries share.
//!
//! Run `cargo run --release -p oe-bench --bin figures -- all` (or a
//! single id, or `--quick` for a fast pass).

pub mod crashmc;
pub mod failover;
pub mod figures;
pub mod kernels;
pub mod pipeline;
pub mod pool;
pub mod pullpush;
pub mod rebalance;
pub mod scenario;
pub mod serve;
pub mod trajectory;

pub use crashmc::{CrashMcBenchConfig, CrashMcReport};
pub use failover::{FailoverConfig, FailoverReport};
pub use kernels::{KernelsConfig, KernelsReport};
pub use pipeline::{PipelineBenchConfig, PipelineBenchReport};
pub use pool::{PoolBenchConfig, PoolBenchReport};
pub use pullpush::{PullPushConfig, PullPushReport};
pub use rebalance::{RebalanceBenchConfig, RebalanceReport};
pub use scenario::{CkptSetup, EngineKind, Scenario};
pub use serve::{ServeBenchConfig, ServeReport};
pub use trajectory::{GateOutcome, DEFAULT_THRESHOLD};
