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
use oe_bench::trajectory::record_and_gate;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut record: Option<String> = None;
    let mut gate: Option<String> = None;
    let mut update = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut path_arg = |flag: &str| match it.next() {
            Some(p) => p.clone(),
            None => {
                eprintln!("{flag} requires a path");
                std::process::exit(2);
            }
        };
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(path_arg("--out")),
            "--record" => record = Some(path_arg("--record")),
            "--gate" => gate = Some(path_arg("--gate")),
            "--update-baseline" => update = true,
            other => {
                eprintln!(
                    "usage: pipeline [--smoke] [--out PATH] [--record TRAJECTORY] \
                     [--gate BASELINE] [--update-baseline]   (unknown arg: {other})"
                );
                std::process::exit(2);
            }
        }
    }
    let cfg = if smoke {
        PipelineBenchConfig::smoke()
    } else {
        PipelineBenchConfig::paper()
    };
    let report = run(&cfg);
    print_report(&report);
    if let Some(path) = &out {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(path, json + "\n").expect("write bench artifact");
        println!("wrote {path}");
    }
    let all = metrics(&report);
    if let Some(p) = &record {
        if !record_and_gate("pipeline", &all, Some(p), None, false) {
            std::process::exit(1);
        }
    }
    if !record_and_gate(
        "pipeline",
        &gated_metrics(&report),
        None,
        gate.as_deref(),
        update,
    ) {
        std::process::exit(1);
    }
}
