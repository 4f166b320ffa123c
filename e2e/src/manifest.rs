//! `BENCHMARK.json`, written from the tables this crate runs by
//! (`workloads::all`, `metrics::END_TO_END`, `metrics::PER_LAYER`), so the
//! file at the root of the repository cannot drift from the code:
//! `oe-e2e manifest > BENCHMARK.json`, and a test compares the two.

use crate::json::{array, Obj};
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::workloads::{self, RUN_SECONDS};
use std::io;

/// The directory that holds the benchmark and nothing else.
pub const PATH: &str = "e2e";

/// What the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "e2e/Cargo.toml",
    "--",
];

fn quoted(s: &str) -> String {
    let mut out = String::new();
    crate::json::escape(s, &mut out);
    out
}

fn metric(d: &Def, bounded: bool) -> io::Result<String> {
    let mut o = Obj::new();
    o.str("name", d.name)
        .str("unit", d.unit)
        .str("better", d.better.name());
    if bounded {
        o.num("bound", d.bound)?;
    }
    Ok(o.finish())
}

/// One entry per line, so a diff of the file shows the metric that moved.
fn lines(items: Vec<String>) -> String {
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

pub fn benchmark_json() -> io::Result<String> {
    let command: Vec<String> = COMMAND.iter().map(|s| quoted(s)).collect();
    let workloads = workloads::all()
        .iter()
        .map(|s| Obj::new().str("name", s.name).str("why", s.why).finish())
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|d| metric(d, true))
        .collect::<io::Result<_>>()?;
    let per_layer = PER_LAYER
        .iter()
        .map(|d| metric(d, false))
        .collect::<io::Result<_>>()?;
    Ok(format!(
        "{{\n  \"command\": {},\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        array(&command),
        quoted(PATH),
        RUN_SECONDS,
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    ))
}
