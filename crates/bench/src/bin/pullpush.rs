//! Shard-plan pull/push throughput bench, JSON artifact emitter,
//! trajectory recorder, and perf-regression gate.
//!
//! ```sh
//! cargo run --release -p oe-bench --bin pullpush            # paper shape
//! cargo run --release -p oe-bench --bin pullpush -- --smoke # CI shape
//! cargo run --release -p oe-bench --bin pullpush -- --smoke \
//!     --out BENCH_pullpush.json \
//!     --record BENCH_trajectory.json \
//!     --gate BENCH_baseline.json          # CI: fail on >30% regression
//! ```
//!
//! All gated pullpush metrics are *virtual-time* throughputs and
//! speedups — deterministic cost-model arithmetic, identical on every
//! machine — so a gate failure here is always a real code change, not
//! noise.

use oe_bench::pullpush::{metrics, print_report, run, PullPushConfig};
use oe_bench::trajectory::gated_main;

fn main() {
    gated_main(
        "pullpush",
        PullPushConfig::smoke,
        PullPushConfig::paper,
        run,
        print_report,
        metrics,
        metrics,
    );
}
