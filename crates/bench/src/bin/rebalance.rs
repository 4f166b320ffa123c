//! Skew-aware rebalancing bench: hot-key storm vs live shard drain,
//! JSON artifact emitter and exact-metric gate.
//!
//! ```sh
//! cargo run --release -p oe-bench --bin rebalance            # paper shape
//! cargo run --release -p oe-bench --bin rebalance -- --smoke \
//!     --out BENCH_rebalance.json --gate BENCH_baseline.json
//! ```
//!
//! Every metric is virtual time (deterministic); the baseline pins
//! `bit_identical` at 1, so a run whose arms diverge fails the gate.

use oe_bench::rebalance::{exact_metrics, print_report, run, RebalanceBenchConfig};
use oe_bench::trajectory::gated_main;

fn main() {
    gated_main(
        "rebalance",
        RebalanceBenchConfig::smoke,
        RebalanceBenchConfig::paper,
        run,
        print_report,
        exact_metrics,
        |_| Vec::new(),
    );
}
