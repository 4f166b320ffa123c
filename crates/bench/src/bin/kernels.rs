//! Optimizer-kernel and codec wall-clock microbench, JSON artifact
//! emitter.
//!
//! ```sh
//! cargo run --release -p oe-bench --bin kernels              # full sweep
//! cargo run --release -p oe-bench --bin kernels -- --smoke \
//!     --out BENCH_kernels.json --gate BENCH_baseline.json
//! ```
//!
//! Every metric is host time — Mf32/s, MB/s and the speedup ratios
//! derived from them — so the bench has no exact metric and the gate
//! checks only that the baseline holds no `kernels.*` key.

use oe_bench::kernels::{print_report, run, wall_metrics, KernelsConfig};
use oe_bench::trajectory::gated_main;

fn main() {
    gated_main(
        "kernels",
        KernelsConfig::smoke,
        KernelsConfig::paper,
        run,
        print_report,
        |_| Vec::new(),
        wall_metrics,
    );
}
