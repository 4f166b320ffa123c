//! Skew-aware rebalancing bench: hot-key storm vs live shard drain,
//! JSON artifact emitter, trajectory recorder, and perf-regression
//! gate.
//!
//! ```sh
//! cargo run --release -p oe-bench --bin rebalance            # paper shape
//! cargo run --release -p oe-bench --bin rebalance -- --smoke # CI shape
//! cargo run --release -p oe-bench --bin rebalance -- --smoke \
//!     --out BENCH_rebalance.json \
//!     --record BENCH_trajectory.json \
//!     --gate BENCH_baseline.json          # CI: fail on >30% regression
//! ```
//!
//! All gated metrics are virtual-time (deterministic); the baseline
//! also pins `bit_identical` at 1.0, so a run whose arms diverge
//! fails the gate outright.

use oe_bench::rebalance::{metrics, print_report, run, RebalanceBenchConfig};
use oe_bench::trajectory::gated_main;

fn main() {
    gated_main(
        "rebalance",
        RebalanceBenchConfig::smoke,
        RebalanceBenchConfig::paper,
        run,
        print_report,
        metrics,
        metrics,
    );
}
