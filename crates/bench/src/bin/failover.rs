//! Fault-tolerance bench: retry overhead + failover recovery latency,
//! JSON artifact emitter.
//!
//! ```sh
//! cargo run --release -p oe-bench --bin failover            # paper shape
//! cargo run --release -p oe-bench --bin failover -- --smoke # CI shape
//! cargo run --release -p oe-bench --bin failover -- --smoke --out BENCH_failover.json
//! ```

use oe_bench::failover::{metrics, print_report, run, FailoverConfig};
use oe_bench::trajectory::gated_main;

fn main() {
    gated_main(
        "failover",
        FailoverConfig::smoke,
        FailoverConfig::paper,
        run,
        print_report,
        metrics,
        |_| Vec::new(), // overheads are lower-is-better: recorded, never gated
    );
}
