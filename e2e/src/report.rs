//! Execute a workload in one of the two modes and render what it
//! measured: `name value unit` lines, the one-line JSON result, and the
//! commit-stamped result file.

use crate::json::{self, Obj};
use crate::metrics::{self, Def, Value, END_TO_END, PER_LAYER};
use crate::seams::{Plain, Traced};
use crate::stages::{self, Check, Raw, GENERATOR_CHECK};
use crate::trace::{percentile, write_jsonl, Tracer};
use crate::workloads::{Shape, POINT_LIMIT_US};
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Share of the train stage's wall time the span tree may fail to add
/// back to.
const MAX_UNATTRIBUTED: f64 = 0.05;

pub struct RunResult {
    pub shape: Shape,
    pub seed: u64,
    pub traced: bool,
    pub raw: Raw,
    pub values: Vec<Value>,
    pub trace_file: Option<PathBuf>,
}

impl RunResult {
    pub fn defs(&self) -> &'static [Def] {
        if self.traced {
            PER_LAYER
        } else {
            &END_TO_END
        }
    }

    pub fn correct(&self) -> bool {
        self.raw.correct()
    }
}

fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("e2e")
        .join(format!("trace-{workload}.jsonl"))
}

/// The open loop is only a measurement of the system if its generator
/// kept to the schedule whenever the reader was free to.
fn generator_check(raw: &Raw) -> Check {
    let mut late = raw.open.gen_late_ns.clone();
    late.sort_unstable();
    let p = percentile(&late, 0.99);
    Check {
        name: GENERATOR_CHECK,
        // With no idle starts to judge there is no generator lateness:
        // the reader was saturated, which `serve_slo_share` shows.
        ok: p.samples < 11 || p.value < POINT_LIMIT_US * 1_000,
        detail: format!(
            "gen_late p{:.2} = {} ns over {} idle starts (limit {} us)",
            p.used * 100.0,
            p.value,
            p.samples,
            POINT_LIMIT_US
        ),
    }
}

pub fn execute(shape: &Shape, seed: u64, traced: bool) -> Result<RunResult, String> {
    if !traced {
        let mut raw = stages::run(&Plain, shape, seed, false)?;
        raw.checks.push(generator_check(&raw));
        let values = metrics::end_to_end(&raw, shape);
        return Ok(RunResult {
            shape: shape.clone(),
            seed,
            traced,
            raw,
            values,
            trace_file: None,
        });
    }
    // Room for every span of the run: per batch a handful per seam
    // plus leaf aggregates, per serving request at most one.
    let capacity = shape.train_batches as usize * 48
        + shape.lookup_blocks as usize
        + shape.topk_queries as usize
        + shape.open_requests as usize / shape.open_topk_every.max(1) as usize
        + 1024;
    let tracer = Arc::new(Tracer::new(capacity));
    let mut raw = stages::run(&Traced(tracer.clone()), shape, seed, false)?;
    let spans = tracer.take_spans();
    let untraced = stages::run(&Plain, shape, seed, true)?;
    let untraced_sps = metrics::train_samples_per_s(&untraced, shape);
    let values = metrics::per_layer(&raw, shape, &tracer, &spans, untraced_sps);

    raw.checks.push(generator_check(&raw));
    let (by_kind, total) = tracer.booked_cost();
    let kinds: u64 = by_kind.iter().sum();
    raw.checks.push(Check {
        name: "cost_kinds_sum_to_total",
        ok: kinds == total && total > 0,
        detail: format!("kinds {kinds} ns, Cost::total_ns summed {total} ns"),
    });
    let unattributed = values
        .iter()
        .find(|v| v.name == "trace.unattributed_share")
        .map_or(1.0, |v| v.value);
    raw.checks.push(Check {
        name: "trace_self_times_add_back",
        ok: unattributed <= MAX_UNATTRIBUTED,
        detail: format!("unattributed share {unattributed:.4} (limit {MAX_UNATTRIBUTED})"),
    });
    raw.checks.push(Check {
        name: "tracing_leaves_virtual_time_unchanged",
        ok: untraced.v_total_ns == raw.v_total_ns,
        detail: format!(
            "virtual train time traced {} ns, untraced {} ns",
            raw.v_total_ns, untraced.v_total_ns
        ),
    });
    let path = trace_path(shape.name);
    write_jsonl(&spans, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(RunResult {
        shape: shape.clone(),
        seed,
        traced,
        raw,
        values,
        trace_file: Some(path),
    })
}

fn def_of(defs: &'static [Def], name: &str) -> &'static Def {
    defs.iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` has no definition"))
}

/// Every metric as `name value unit`, then counts, checks and notes.
pub fn print_text(r: &RunResult) {
    println!(
        "# workload {} seed {} trace {} nproc {}",
        r.shape.name,
        r.seed,
        r.traced as u8,
        nproc()
    );
    for v in &r.values {
        let d = def_of(r.defs(), v.name);
        match &v.note {
            Some(note) => println!(
                "{} {} {} ({}; {note})",
                v.name,
                v.value,
                d.unit,
                d.domain.name()
            ),
            None => println!("{} {} {} ({})", v.name, v.value, d.unit, d.domain.name()),
        }
    }
    println!("ops_attempted {} count", r.raw.ops_attempted);
    println!("ops_failed {} count", r.raw.ops_failed);
    println!("weights_fnv {:016x} hash", r.raw.weights_fnv);
    if !r.traced {
        // The traced run reports these among its per-layer metrics.
        let names = ["train", "publish", "serve", "recover"];
        for (name, secs) in names.iter().zip(r.raw.stage_secs) {
            println!("stage.{name}_s {secs} s (host)");
        }
    }
    for c in &r.raw.checks {
        let verdict = match (c.ok, c.name == GENERATOR_CHECK) {
            (true, _) => "ok",
            (false, true) => "INVALID (serve.open.* and serve_slo_share measured the host)",
            (false, false) => "FAILED",
        };
        println!("check {} {verdict} — {}", c.name, c.detail);
    }
    if let Some(p) = &r.trace_file {
        println!("trace {}", p.display());
    }
}

fn metrics_obj(r: &RunResult, full: bool) -> io::Result<String> {
    let mut o = Obj::new();
    for v in &r.values {
        let d = def_of(r.defs(), v.name);
        let mut m = Obj::new();
        m.num("value", v.value)
            .map_err(|_| json::number(v.name, v.value).unwrap_err())?
            .str("unit", d.unit);
        if full {
            m.str("domain", d.domain.name())
                .str("better", d.better.name());
            if d.bound > 0.0 {
                m.num("bound", d.bound)?;
            }
            if let Some(note) = &v.note {
                m.str("note", note);
            }
        }
        o.raw(v.name, &m.finish());
    }
    Ok(o.finish())
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn contract_line(r: &RunResult) -> io::Result<String> {
    let mut o = Obj::new();
    o.bool("correct", r.correct())
        .uint("attempted", r.raw.ops_attempted.max(1))
        .uint("failed", r.raw.ops_failed)
        .raw("metrics", &metrics_obj(r, false)?);
    Ok(o.finish())
}

/// CPUs the process may run on, as first asked: `main` asks before it
/// pins the process to one of them.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One run as a record of a result file: one JSON object on one line,
/// complete in itself, so a file is appended to run by run. `commit`
/// has been validated by the caller.
pub fn record_json(commit: &str, seconds: u32, r: &RunResult) -> io::Result<String> {
    let s = &r.shape;
    let mut counts = Obj::new();
    counts
        .uint("num_keys", s.num_keys)
        .uint("dim", s.dim as u64)
        .uint("batch_size", s.batch_size as u64)
        .uint("fields", s.fields as u64)
        .uint("workers", s.workers as u64)
        .uint("warm_batches", s.warm_batches)
        .uint("train_batches", s.train_batches)
        .uint("lookup_blocks", s.lookup_blocks)
        .uint("topk_queries", s.topk_queries)
        .uint("open_rate_rps", s.open_rate_rps)
        .uint("open_requests", s.open_requests)
        .uint("open_topk_every", s.open_topk_every)
        .uint("flip_period_ms", s.flip_period_ms);
    let checks: Vec<String> = r
        .raw
        .checks
        .iter()
        .map(|c| {
            Obj::new()
                .str("name", c.name)
                .bool("ok", c.ok)
                .str("detail", &c.detail)
                .finish()
        })
        .collect();
    let mut o = Obj::new();
    o.str("benchmark", "oe-e2e")
        .str("commit", commit)
        .uint("seed", r.seed)
        .uint("seconds", seconds as u64)
        .uint("nproc", nproc() as u64)
        .str("workload", s.name)
        .bool("trace", r.traced)
        .bool("correct", r.correct())
        .uint("ops_attempted", r.raw.ops_attempted)
        .uint("ops_failed", r.raw.ops_failed)
        .str("weights_fnv", &format!("{:016x}", r.raw.weights_fnv))
        .raw("counts", &counts.finish())
        .raw("checks", &json::array(&checks))
        .raw("metrics", &metrics_obj(r, true)?);
    Ok(o.finish())
}
