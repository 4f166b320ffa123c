//! Pipelined-training frontier bench, JSON artifact emitter, trajectory
//! recorder, and perf-regression gate.
//!
//! ```sh
//! cargo run --release -p oe-bench --bin pipeline              # paper shape
//! cargo run --release -p oe-bench --bin pipeline -- --smoke \
//!     --out BENCH_pipeline.json \
//!     --record BENCH_trajectory.json \
//!     --gate BENCH_baseline.json          # CI: fail on >30% regression
//! cargo run --release -p oe-bench --bin pipeline -- --smoke \
//!     --gate BENCH_baseline.json --update-baseline   # accept new numbers
//! ```
//!
//! The gate holds the deterministic virtual-time metrics absolutely
//! (`sync_epochs_per_vsec` is the k = 0 arm, the reference of every
//! speedup) and the noisy wall-clock ratios only through their
//! geometric mean. Per-arm wall times and held-out accuracies are
//! recorded for the trajectory but never gated.

use oe_bench::pipeline::{gated_metrics, metrics, print_report, run, PipelineBenchConfig};
use oe_bench::trajectory::gated_main;

fn main() {
    gated_main(
        "pipeline",
        PipelineBenchConfig::smoke,
        PipelineBenchConfig::paper,
        run,
        print_report,
        metrics,
        gated_metrics,
    );
}
