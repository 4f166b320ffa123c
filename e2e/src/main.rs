//! `oe-e2e` command line. See `README.md` next to this crate.

use oe_e2e::{compare, manifest, pin, report, workloads};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: oe-e2e --workload <name> | --all  [--seed <n>] [--seconds <s>] [--trace [0|1]]
              [--commit <sha> --out <file.jsonl>]
       oe-e2e compare <a.jsonl> <b.jsonl> [--bounds <BENCHMARK.json>]
       oe-e2e manifest        (prints BENCHMARK.json)
workloads: hot-wire cold-pmem pool-pipe serve-flip";

enum Which {
    One(workloads::Shape),
    /// Every workload, each in a process of its own: what a run costs
    /// (memory high-water mark, allocator and page state) must not
    /// depend on which workload ran before it.
    All,
}

struct Args {
    which: Which,
    seed: u64,
    seconds: u32,
    trace: bool,
    commit: Option<String>,
    out: Option<PathBuf>,
}

fn parse(mut argv: std::iter::Peekable<impl Iterator<Item = String>>) -> Result<Args, String> {
    let mut which = None;
    let mut args = Args {
        which: Which::All,
        seed: workloads::DEFAULT_SEED,
        seconds: workloads::RUN_SECONDS,
        trace: false,
        commit: None,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" | "--all" if which.is_some() => {
                return Err("one --workload, or --all: a process runs one workload".into())
            }
            "--workload" => {
                let name = value("a workload name")?;
                let shape =
                    workloads::by_name(&name).ok_or(format!("unknown workload `{name}`"))?;
                which = Some(Which::One(shape));
            }
            "--all" => which = Some(Which::All),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds: a whole number from 1 to 600")?
            }
            "--trace" => {
                // `--trace` alone, or `--trace 0|1`.
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            "--commit" => args.commit = Some(value("a commit id")?),
            "--out" => args.out = Some(value("a file")?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.which = which.ok_or("name a workload with --workload, or --all")?;
    if args.out.is_some() {
        match args.commit.as_deref() {
            None => return Err("--out needs --commit <sha>: results are commit-stamped".into()),
            Some("unknown") | Some("") => {
                return Err("--commit unknown is refused: stamp results with a real commit".into())
            }
            Some(_) => {}
        }
    }
    Ok(args)
}

/// Run this program once per workload with the same options, one after
/// the other; each child appends its own record to `--out`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut all_correct = true;
    for shape in workloads::all() {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", shape.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let (Some(commit), Some(out)) = (&args.commit, &args.out) {
            child.args(["--commit", commit]).arg("--out").arg(out);
        }
        let status = child
            .status()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        match status.code() {
            Some(0) => {}
            Some(1) => all_correct = false,
            _ => return Err(format!("{}: run ended with {status}", shape.name)),
        }
    }
    Ok(all_correct)
}

fn run(args: Args) -> Result<bool, String> {
    let shape = match &args.which {
        Which::All => return run_all(&args),
        Which::One(shape) => shape.clone(),
    };
    // The last CPU: CPU 0 takes most of the box's interrupts.
    let cpu = report::nproc() - 1;
    if !pin::pin_to_cpu(cpu) {
        eprintln!("oe-e2e: could not pin to CPU {cpu}; host numbers will be noisier");
    }
    let shape = shape.scaled_to(args.seconds).for_seed(args.seed);
    let result = report::execute(&shape, args.seed, args.trace)
        .map_err(|e| format!("{}: {e}", shape.name))?;
    report::print_text(&result);
    if let (Some(out), Some(commit)) = (&args.out, &args.commit) {
        let record =
            report::record_json(commit, args.seconds, &result).map_err(|e| e.to_string())?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        writeln!(file, "{record}").map_err(|e| format!("{}: {e}", out.display()))?;
    }
    // Last line of the run: the one-object result.
    println!(
        "{}",
        report::contract_line(&result).map_err(|e| e.to_string())?
    );
    Ok(result.correct())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        argv.next();
        let rest: Vec<String> = argv.collect();
        let (files, bounds) = match rest.as_slice() {
            [a, b] => ((a, b), "BENCHMARK.json".to_string()),
            [a, b, flag, path] if flag == "--bounds" => ((a, b), path.clone()),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        };
        return match compare::run(files.0.as_ref(), files.1.as_ref(), bounds.as_ref()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("oe-e2e compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    if argv.peek().map(String::as_str) == Some("manifest") {
        return match manifest::benchmark_json() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("oe-e2e manifest: {e}");
                ExitCode::from(2)
            }
        };
    }
    match parse(argv).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("oe-e2e: a correctness check failed (see `check` lines)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("oe-e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
