//! Serving-plane bench: recall/latency tradeoff sweep plus open-loop
//! QPS replay with a mid-traffic snapshot flip, JSON artifact emitter,
//! trajectory recorder, and perf-regression gate.
//!
//! ```sh
//! cargo run --release -p oe-bench --bin serve            # paper shape
//! cargo run --release -p oe-bench --bin serve -- --smoke # CI shape
//! cargo run --release -p oe-bench --bin serve -- --smoke \
//!     --out BENCH_serve.json \
//!     --record BENCH_trajectory.json \
//!     --gate BENCH_baseline.json          # CI: fail on >30% regression
//! ```
//!
//! Recall, virtual speedups, and the consistency bit are deterministic
//! and gated absolutely; wall-clock latency enters the gate only as one
//! geomean.

use oe_bench::serve::{metrics, print_report, run, ServeBenchConfig};
use oe_bench::trajectory::gated_main;

fn main() {
    gated_main(
        "serve",
        ServeBenchConfig::smoke,
        ServeBenchConfig::paper,
        run,
        print_report,
        metrics,
        metrics,
    );
}
