//! Fault-tolerance bench: retry overhead + failover recovery latency,
//! JSON artifact emitter.
//!
//! ```sh
//! cargo run --release -p oe-bench --bin failover            # paper shape
//! cargo run --release -p oe-bench --bin failover -- --smoke \
//!     --out BENCH_failover.json --gate BENCH_baseline.json
//! ```

use oe_bench::failover::{exact_metrics, print_report, run, FailoverConfig};
use oe_bench::trajectory::gated_main;

fn main() {
    gated_main(
        "failover",
        FailoverConfig::smoke,
        FailoverConfig::paper,
        run,
        print_report,
        exact_metrics,
        |_| Vec::new(),
    );
}
