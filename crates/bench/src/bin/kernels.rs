//! Optimizer-kernel and codec wall-clock microbench, JSON artifact
//! emitter, trajectory recorder, and perf-regression gate.
//!
//! ```sh
//! cargo run --release -p oe-bench --bin kernels              # full sweep
//! cargo run --release -p oe-bench --bin kernels -- --smoke \
//!     --out BENCH_kernels.json \
//!     --record BENCH_trajectory.json \
//!     --gate BENCH_baseline.json          # CI: fail on >30% regression
//! cargo run --release -p oe-bench --bin kernels -- --smoke \
//!     --gate BENCH_baseline.json --update-baseline   # accept new numbers
//! ```
//!
//! Only the sweep-wide geomeans of the kernel speedup *ratios*
//! (vector/reference, batch/reference) are gated for this bench —
//! absolute Mf32/s and MB/s rates are machine-dependent and recorded
//! for the trajectory only.

use oe_bench::kernels::{gated_metrics, metrics, print_report, run, KernelsConfig};
use oe_bench::trajectory::gated_main;

fn main() {
    gated_main(
        "kernels",
        KernelsConfig::smoke,
        KernelsConfig::paper,
        run,
        print_report,
        metrics,
        gated_metrics,
    );
}
