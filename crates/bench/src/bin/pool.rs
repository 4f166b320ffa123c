//! Disaggregated-PMem bench: local vs DRAM vs remote-pool storage arms
//! at equal simulated cost, fabric congestion scaling, pool-resident vs
//! crash-image recovery, JSON artifact emitter, trajectory recorder,
//! and perf-regression gate.
//!
//! ```sh
//! cargo run --release -p oe-bench --bin pool            # paper shape
//! cargo run --release -p oe-bench --bin pool -- --smoke # CI shape
//! cargo run --release -p oe-bench --bin pool -- --smoke \
//!     --out BENCH_pool.json \
//!     --record BENCH_trajectory.json \
//!     --gate BENCH_baseline.json          # CI: fail on >30% regression
//! ```
//!
//! Virtual epoch times, the bit-identity bit, and the recovery ratio
//! are deterministic and gated absolutely; wall-clock time enters the
//! gate only as one geomean.

use oe_bench::pool::{metrics, print_report, run, PoolBenchConfig};
use oe_bench::trajectory::gated_main;

fn main() {
    gated_main(
        "pool",
        PoolBenchConfig::smoke,
        PoolBenchConfig::paper,
        run,
        print_report,
        metrics,
        metrics,
    );
}
