//! Crash-point enumeration bench: durability coverage JSON artifact.
//!
//! ```sh
//! cargo run --release -p oe-bench --bin crashmc            # exhaustive
//! cargo run --release -p oe-bench --bin crashmc -- --smoke # CI shape
//! cargo run --release -p oe-bench --bin crashmc -- --smoke --out BENCH_crashmc.json
//! ```

use oe_bench::crashmc::{metrics, print_report, run, CrashMcBenchConfig};
use oe_bench::trajectory::gated_main;

fn main() {
    let report = gated_main(
        "crashmc",
        CrashMcBenchConfig::smoke,
        CrashMcBenchConfig::paper,
        run,
        print_report,
        metrics,
        |_| Vec::new(), // counts and wall time: recorded, never gated
    );
    if report.violations_found > 0 {
        eprintln!(
            "FAIL: {} durability violations at enumerated crash points",
            report.violations_found
        );
        std::process::exit(1);
    }
}
