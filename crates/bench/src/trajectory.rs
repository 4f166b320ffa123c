//! Persistent perf trajectory: every gated bench run appends its
//! metrics to `BENCH_trajectory.json`, keyed by git commit, and is
//! checked against `BENCH_baseline.json` — a flat `"bench.metric":
//! value` object. All gated metrics are higher-is-better
//! (throughputs and speedup ratios); the gate fails when a metric
//! drops more than [`DEFAULT_THRESHOLD`] below its baseline, or when
//! the baseline holds a key of this bench that the run no longer emits.
//! [`gated_main`] is the whole `main` of every scenario bench binary.
//!
//! The workspace is std-only, so JSON is hand-rolled here: the
//! trajectory file is appended to by text-splicing its trailing `]`, the
//! baseline is parsed with a tiny flat-object scanner, and every other
//! artifact (`--out`, `figures latency`, the baseline itself) is a flat
//! object written by [`write_flat_json`]. All of it is plain pretty JSON
//! that real tooling can consume.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Fraction a higher-is-better metric may fall below its baseline
/// before the gate fails: 30%, loose enough for wall-clock jitter on
/// best-of-k ratios, tight enough to catch a disabled fast path.
pub const DEFAULT_THRESHOLD: f64 = 0.30;

/// Entries kept per bench in the trajectory file. The file is an
/// append-only log committed to the repo; without a cap every CI run
/// grows it forever. Twenty runs is enough history to eyeball a trend
/// while keeping the artifact diff-sized.
pub const MAX_HISTORY_PER_BENCH: usize = 20;

/// `git rev-parse --short HEAD`, or `"unknown"` outside a work tree.
pub fn current_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn unix_time() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn entry_json(commit: &str, bench: &str, when: u64, metrics: &[(String, f64)]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "  {{\n    \"commit\": \"{}\",\n    \"bench\": \"{}\",\n    \"unix_time\": {},\n    \"metrics\": {{",
        escape(commit),
        escape(bench),
        when
    );
    for (i, (k, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}\n      \"{}\": {v}", escape(k));
    }
    if metrics.is_empty() {
        s.push_str("}\n  }");
    } else {
        s.push_str("\n    }\n  }");
    }
    s
}

/// Append one run to the trajectory file, creating it as a fresh JSON
/// array if absent. Entries carry the commit ([`current_commit`]), bench
/// name, unix time, and a flat metric map. History is capped: only the
/// newest [`MAX_HISTORY_PER_BENCH`] entries of each bench survive an
/// append. A commit of `"unknown"` is refused: the row could not be tied
/// to the code that produced it.
pub fn record(path: &Path, commit: &str, bench: &str, metrics: &[(String, f64)]) -> io::Result<()> {
    if commit == "unknown" {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "no git commit to stamp the run with; refusing to record it as \"unknown\"",
        ));
    }
    let entry = entry_json(commit, bench, unix_time(), metrics);
    let existing = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let trimmed = existing.trim_end();
    let out = if let Some(head) = trimmed.strip_suffix(']') {
        let head = head.trim_end();
        if head.trim_start() == "[" {
            // Existing but empty array.
            format!("[\n{entry}\n]\n")
        } else {
            format!("{head},\n{entry}\n]\n")
        }
    } else if trimmed.is_empty() {
        format!("[\n{entry}\n]\n")
    } else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a JSON array; refusing to append", path.display()),
        ));
    };
    fs::write(path, cap_history(&out).unwrap_or(out))
}

/// Split the text of a JSON array into its top-level object entries
/// (string-aware brace matching). `None` when the text is not a
/// well-formed array of objects.
fn top_level_entries(text: &str) -> Option<Vec<&str>> {
    let body = text.trim().strip_prefix('[')?.strip_suffix(']')?;
    let mut entries = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    let (mut in_str, mut esc) = (false, false);
    for (i, c) in body.char_indices() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' if !in_str => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' if !in_str => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    entries.push(&body[start..=i]);
                }
            }
            _ => {}
        }
    }
    (depth == 0 && !in_str).then_some(entries)
}

/// The `"bench"` field of one trajectory entry.
fn bench_of(entry: &str) -> Option<&str> {
    let rest = &entry[entry.find("\"bench\"")? + "\"bench\"".len()..];
    let rest = rest[rest.find(':')? + 1..].trim_start().strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Drop each bench's oldest entries beyond [`MAX_HISTORY_PER_BENCH`],
/// preserving order. `None` (caller keeps the uncapped text) when the
/// array cannot be split — better an oversized log than a corrupted
/// one.
fn cap_history(text: &str) -> Option<String> {
    let entries = top_level_entries(text)?;
    let mut per_bench: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for e in &entries {
        *per_bench.entry(bench_of(e).unwrap_or("")).or_insert(0) += 1;
    }
    if per_bench.values().all(|&n| n <= MAX_HISTORY_PER_BENCH) {
        return None; // nothing to drop; keep the spliced text verbatim
    }
    let mut kept: Vec<&str> = Vec::with_capacity(entries.len());
    for e in &entries {
        let n = per_bench
            .get_mut(bench_of(e).unwrap_or(""))
            .expect("counted above");
        if *n > MAX_HISTORY_PER_BENCH {
            *n -= 1; // this bench still has too many: drop this (older) one
        } else {
            kept.push(e);
        }
    }
    let mut out = String::from("[\n");
    for (i, e) in kept.iter().enumerate() {
        let sep = if i + 1 == kept.len() { "\n" } else { ",\n" };
        out.push_str("  ");
        out.push_str(e);
        out.push_str(sep);
    }
    out.push_str("]\n");
    Some(out)
}

/// Parse a flat JSON object of `"name": number` pairs (the baseline
/// format). Tolerates arbitrary whitespace; rejects nesting, strings,
/// and anything else a baseline should not contain.
pub fn parse_flat_json(text: &str) -> Result<Vec<(String, f64)>, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("baseline must be a JSON object")?;
    let mut out = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        rest = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a quoted key at: {:.40}…", rest))?;
        let end = rest.find('"').ok_or("unterminated key")?;
        let key = rest[..end].to_string();
        rest = rest[end + 1..].trim_start();
        rest = rest
            .strip_prefix(':')
            .ok_or_else(|| format!("expected ':' after key {key:?}"))?
            .trim_start();
        let num_len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '+' | '-' | '.' | 'e' | 'E'))
            .unwrap_or(rest.len());
        let value: f64 = rest[..num_len]
            .parse()
            .map_err(|_| format!("bad number for key {key:?}: {:?}", &rest[..num_len]))?;
        out.push((key, value));
        rest = rest[num_len..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(out)
}

/// Write a flat `"name": number` JSON object, one pair per line.
pub fn write_flat_json(mut out: impl io::Write, entries: &[(String, f64)]) -> io::Result<()> {
    let mut s = String::from("{");
    for (i, (k, v)) in entries.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}\n  \"{}\": {v}", escape(k));
    }
    s.push_str(if entries.is_empty() { "}\n" } else { "\n}\n" });
    out.write_all(s.as_bytes())
}

/// Gate outcome for one run.
#[derive(Debug, Clone, PartialEq)]
pub enum GateOutcome {
    /// Every baselined metric is within the threshold.
    Pass {
        /// Metrics compared against a baseline entry.
        checked: usize,
        /// Current metrics with no baseline entry yet (not failures).
        unbaselined: usize,
    },
    /// The baseline file does not exist yet — advisory, not a failure;
    /// run with `--update-baseline` to create it.
    NoBaseline,
    /// At least one metric regressed past the threshold.
    Fail(Vec<String>),
}

/// Compare `metrics` for `bench` against the flat baseline at `path`.
/// Baseline keys are `"{bench}.{metric}"`; metrics missing from the
/// baseline are counted but never fail (new metrics appear before
/// their baseline does). The converse fails: a `"{bench}.…"` baseline
/// key the run did not emit would otherwise be skipped forever, and the
/// fast path it guarded could vanish unnoticed — a retired metric
/// leaves the baseline explicitly. All metrics are higher-is-better.
pub fn gate(
    path: &Path,
    bench: &str,
    metrics: &[(String, f64)],
    threshold: f64,
) -> Result<GateOutcome, String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(GateOutcome::NoBaseline),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let baseline = parse_flat_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let prefix = format!("{bench}.");
    let mut failures: Vec<String> = baseline
        .iter()
        .filter(|(k, _)| {
            k.strip_prefix(&prefix)
                .is_some_and(|name| !metrics.iter().any(|(m, _)| m == name))
        })
        .map(|(k, _)| {
            format!("{k}: in the baseline but not emitted by this run (retired? delete the key)")
        })
        .collect();
    let mut checked = 0usize;
    let mut unbaselined = 0usize;
    for (name, current) in metrics {
        let key = format!("{bench}.{name}");
        match baseline.iter().find(|(k, _)| *k == key) {
            None => unbaselined += 1,
            Some((_, base)) => {
                checked += 1;
                let floor = base * (1.0 - threshold);
                if *current < floor {
                    failures.push(format!(
                        "{key}: {current:.4} < floor {floor:.4} (baseline {base:.4}, \
                         -{:.0}% allowed)",
                        threshold * 100.0
                    ));
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(GateOutcome::Pass {
            checked,
            unbaselined,
        })
    } else {
        Ok(GateOutcome::Fail(failures))
    }
}

/// Rewrite this bench's entries in the baseline with the current
/// metrics, preserving other benches' entries and sorting keys.
pub fn update_baseline(path: &Path, bench: &str, metrics: &[(String, f64)]) -> io::Result<()> {
    let mut entries = match fs::read_to_string(path) {
        Ok(text) => {
            parse_flat_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let prefix = format!("{bench}.");
    entries.retain(|(k, _)| !k.starts_with(&prefix));
    entries.extend(metrics.iter().map(|(k, v)| (format!("{bench}.{k}"), *v)));
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    write_flat_json(fs::File::create(path)?, &entries)
}

/// Apply `--gate BASE` (and `--update-baseline`) to one bench's gated
/// metrics, printing the verdict. `false` when the gate failed.
fn hold_to_baseline(bench: &str, metrics: &[(String, f64)], gp: &str, do_update: bool) -> bool {
    let gp_path = Path::new(gp);
    if do_update {
        return match update_baseline(gp_path, bench, metrics) {
            Ok(()) => {
                println!("baseline: rewrote {bench}.* in {gp}");
                true
            }
            Err(e) => {
                eprintln!("baseline: failed to update {gp}: {e}");
                false
            }
        };
    }
    match gate(gp_path, bench, metrics, DEFAULT_THRESHOLD) {
        Ok(GateOutcome::Pass {
            checked,
            unbaselined,
        }) => {
            println!(
                "gate: PASS — {checked} metrics within {:.0}% of {gp}\
                 {}",
                DEFAULT_THRESHOLD * 100.0,
                if unbaselined > 0 {
                    format!(" ({unbaselined} not yet baselined)")
                } else {
                    String::new()
                }
            );
            true
        }
        Ok(GateOutcome::NoBaseline) => {
            println!("gate: no baseline at {gp}; run with --update-baseline to create it");
            true
        }
        Ok(GateOutcome::Fail(failures)) => {
            eprintln!("gate: FAIL — perf regression vs {gp}:");
            for f in &failures {
                eprintln!("  {f}");
            }
            eprintln!("  (intentional? re-run with --update-baseline to accept the new numbers)");
            false
        }
        Err(e) => {
            eprintln!("gate: cannot evaluate {gp}: {e}");
            false
        }
    }
}

/// The whole `main` of a gated bench binary: parse `[--smoke]
/// [--out PATH] [--record TRAJECTORY] [--gate BASELINE]
/// [--update-baseline]`, run the smoke or paper shape, print the report,
/// write `all_metrics` as the flat JSON artifact, append them to the
/// trajectory and hold `gated_metrics` (the noise-robust subset; the same
/// function when everything is gated) to the baseline. Exits 2 on a bad
/// argument, 1 on a failed write, record or gate; otherwise hands the
/// report back for a verdict the gate cannot express.
pub fn gated_main<C, R>(
    bench: &str,
    smoke_cfg: fn() -> C,
    paper_cfg: fn() -> C,
    run: fn(&C) -> R,
    print_report: fn(&R),
    all_metrics: fn(&R) -> Vec<(String, f64)>,
    gated_metrics: fn(&R) -> Vec<(String, f64)>,
) -> R {
    let (mut smoke, mut update) = (false, false);
    let (mut out, mut record_to, mut gate_on) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let path = match a.as_str() {
            "--smoke" => {
                smoke = true;
                continue;
            }
            "--update-baseline" => {
                update = true;
                continue;
            }
            "--out" => &mut out,
            "--record" => &mut record_to,
            "--gate" => &mut gate_on,
            other => {
                eprintln!(
                    "usage: {bench} [--smoke] [--out PATH] [--record TRAJECTORY] \
                     [--gate BASELINE] [--update-baseline]   (unknown arg: {other})"
                );
                std::process::exit(2);
            }
        };
        *path = Some(args.next().unwrap_or_else(|| {
            eprintln!("{a} requires a path");
            std::process::exit(2);
        }));
    }
    let report = run(&if smoke { smoke_cfg() } else { paper_cfg() });
    print_report(&report);
    let all = all_metrics(&report);
    if let Some(path) = &out {
        if let Err(e) = fs::File::create(path).and_then(|f| write_flat_json(f, &all)) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if let Some(p) = &record_to {
        if let Err(e) = record(Path::new(p), &current_commit(), bench, &all) {
            eprintln!("trajectory: failed to append to {p}: {e}");
            std::process::exit(1);
        }
        println!(
            "trajectory: appended {bench} ({} metrics) to {p}",
            all.len()
        );
    }
    if let Some(gp) = &gate_on {
        if !hold_to_baseline(bench, &gated_metrics(&report), gp, update) {
            std::process::exit(1);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "oe_traj_{}_{}_{name}",
            std::process::id(),
            unix_time()
        ));
        let _ = fs::remove_file(&p);
        p
    }

    fn m(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn record_appends_and_stays_an_array() {
        let p = tmp("record.json");
        record(&p, "abc1234", "alpha", &m(&[("x", 1.5), ("y", 2.0)])).unwrap();
        record(&p, "abc1234", "beta", &m(&[("z", 3.0)])).unwrap();
        let text = fs::read_to_string(&p).unwrap();
        assert!(text.trim_start().starts_with('['), "{text}");
        assert!(text.trim_end().ends_with(']'), "{text}");
        assert_eq!(text.matches("\"bench\"").count(), 2, "{text}");
        assert!(
            text.contains("\"alpha\"") && text.contains("\"beta\""),
            "{text}"
        );
        // Appending twice more keeps splicing cleanly.
        record(&p, "abc1235", "alpha", &m(&[("x", 1.6)])).unwrap();
        let text = fs::read_to_string(&p).unwrap();
        assert_eq!(text.matches("\"commit\"").count(), 3, "{text}");
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn record_caps_history_per_bench() {
        let p = tmp("cap.json");
        for i in 0..(MAX_HISTORY_PER_BENCH + 5) {
            record(&p, "abc1234", "hot", &m(&[("x", i as f64)])).unwrap();
            if i % 3 == 0 {
                record(&p, "abc1234", "cold", &m(&[("y", i as f64)])).unwrap();
            }
        }
        let text = fs::read_to_string(&p).unwrap();
        let hot = text.matches("\"hot\"").count();
        assert_eq!(hot, MAX_HISTORY_PER_BENCH, "{text}");
        // The oldest "hot" runs were dropped, the newest kept.
        assert!(!text.contains("\"x\": 0\n"), "{text}");
        assert!(text.contains(&format!("\"x\": {}", MAX_HISTORY_PER_BENCH + 4)));
        // The under-cap bench kept its full history.
        assert_eq!(text.matches("\"cold\"").count(), 9, "{text}");
        // Still a well-formed array that future appends splice into.
        record(&p, "abc1234", "hot", &m(&[("x", 999.0)])).unwrap();
        let text = fs::read_to_string(&p).unwrap();
        assert!(text.contains("\"x\": 999"));
        assert_eq!(text.matches("\"hot\"").count(), MAX_HISTORY_PER_BENCH);
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn gate_failure_names_metric_observed_and_allowed_in_one_line() {
        let p = tmp("gatemsg.json");
        update_baseline(&p, "pipe", &m(&[("speedup", 2.0)])).unwrap();
        let bad = gate(&p, "pipe", &m(&[("speedup", 1.0)]), 0.30).unwrap();
        let GateOutcome::Fail(msgs) = bad else {
            panic!("expected failure");
        };
        assert_eq!(msgs.len(), 1);
        let msg = &msgs[0];
        assert!(!msg.contains('\n'), "one line: {msg:?}");
        assert!(msg.contains("pipe.speedup"), "names the metric: {msg}");
        assert!(msg.contains("1.0000"), "observed value: {msg}");
        assert!(msg.contains("1.4000"), "allowed floor: {msg}");
        assert!(msg.contains("2.0000"), "baseline: {msg}");
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn record_refuses_non_array_files() {
        let p = tmp("notarray.json");
        fs::write(&p, "{\"oops\": 1}").unwrap();
        assert!(record(&p, "abc1234", "x", &[]).is_err());
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn record_refuses_an_unknown_commit() {
        let p = tmp("unknown.json");
        let err = record(&p, "unknown", "x", &m(&[("y", 1.0)])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!p.exists(), "nothing written");
    }

    #[test]
    fn flat_parser_handles_pretty_and_compact() {
        let pretty = "{\n  \"a.b\": 1.5,\n  \"c.d\": -2e3\n}\n";
        assert_eq!(
            parse_flat_json(pretty).unwrap(),
            vec![("a.b".to_string(), 1.5), ("c.d".to_string(), -2e3)]
        );
        assert_eq!(
            parse_flat_json("{\"k\":2}").unwrap(),
            vec![("k".to_string(), 2.0)]
        );
        assert_eq!(parse_flat_json("{}").unwrap(), vec![]);
        assert!(parse_flat_json("[1,2]").is_err());
        assert!(parse_flat_json("{\"k\": \"str\"}").is_err());
    }

    #[test]
    fn baseline_roundtrips_through_update() {
        let p = tmp("base.json");
        update_baseline(&p, "pullpush", &m(&[("pull", 100.0), ("push", 50.0)])).unwrap();
        update_baseline(&p, "kernels", &m(&[("speedup", 3.0)])).unwrap();
        let back = parse_flat_json(&fs::read_to_string(&p).unwrap()).unwrap();
        assert_eq!(
            back,
            vec![
                ("kernels.speedup".to_string(), 3.0),
                ("pullpush.pull".to_string(), 100.0),
                ("pullpush.push".to_string(), 50.0),
            ]
        );
        // Updating one bench leaves the other untouched.
        update_baseline(&p, "kernels", &m(&[("speedup", 4.0)])).unwrap();
        let back = parse_flat_json(&fs::read_to_string(&p).unwrap()).unwrap();
        assert!(back.contains(&("kernels.speedup".to_string(), 4.0)));
        assert!(back.contains(&("pullpush.pull".to_string(), 100.0)));
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn gate_passes_within_threshold_and_fails_beyond() {
        let p = tmp("gate.json");
        update_baseline(&p, "b", &m(&[("fast", 100.0), ("ratio", 2.0)])).unwrap();
        // 25% drop: inside the 30% threshold.
        let ok = gate(&p, "b", &m(&[("fast", 75.0), ("ratio", 2.1)]), 0.30).unwrap();
        assert_eq!(
            ok,
            GateOutcome::Pass {
                checked: 2,
                unbaselined: 0
            }
        );
        // 40% drop on one metric: fail, and the message names it.
        let bad = gate(&p, "b", &m(&[("fast", 60.0), ("ratio", 2.0)]), 0.30).unwrap();
        let GateOutcome::Fail(msgs) = bad else {
            panic!("expected failure");
        };
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("b.fast"), "{msgs:?}");
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn gate_tolerates_missing_baseline_and_new_metrics() {
        let p = tmp("nogate.json");
        assert_eq!(
            gate(&p, "b", &m(&[("x", 1.0)]), 0.30).unwrap(),
            GateOutcome::NoBaseline
        );
        update_baseline(&p, "b", &m(&[("x", 1.0)])).unwrap();
        let out = gate(&p, "b", &m(&[("x", 1.0), ("brand_new", 9.0)]), 0.30).unwrap();
        assert_eq!(
            out,
            GateOutcome::Pass {
                checked: 1,
                unbaselined: 1
            }
        );
        // The converse is a failure: a baselined metric this bench no
        // longer emits is named, whatever the surviving metrics do;
        // another bench's keys ("bb.…") are not this bench's business.
        update_baseline(&p, "bb", &m(&[("other", 5.0)])).unwrap();
        let stale = gate(&p, "b", &m(&[("brand_new", 9.0)]), 0.30).unwrap();
        let GateOutcome::Fail(msgs) = stale else {
            panic!("a stale baseline key must fail the gate: {stale:?}");
        };
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].starts_with("b.x:"), "names the key: {msgs:?}");
        assert!(msgs[0].contains("not emitted"), "{msgs:?}");
        fs::remove_file(&p).unwrap();
    }
}
