//! The gate of the scenario binaries, and the workspace's one JSON
//! writer. [`gated_main`] is the whole `main` of every scenario binary.
//!
//! A scenario reports its metrics in two lists, by time domain:
//!
//! - **exact** — virtual time, counts and bits: cost-model arithmetic
//!   that reproduces digit for digit on any machine;
//! - **wall** — host-clock values, which mean nothing on another box.
//!
//! `--out` writes both. `--gate` holds every exact key to
//! `BENCH_baseline.json` — a flat `"bench.metric": value` object — at
//! equality, both ways: a value that differs, a key the run emits that
//! the baseline lacks, a `"bench.…"` baseline key the run no longer
//! emits, and a missing baseline file all fail. A wall key is never
//! gated; the end-to-end benchmark in `e2e/` is where host time is
//! compared.
//!
//! The workspace is std-only, so JSON is hand-rolled here: every
//! artifact (`--out`, `figures latency`, the baseline itself) is a flat
//! object written by [`write_flat_json`] and read back by
//! [`parse_flat_json`]. Both are plain pretty JSON that real tooling can
//! consume.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

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

/// The text of a flat `"name": number` JSON object, one pair per line.
/// A non-finite value is refused with `InvalidData` naming its key: JSON
/// has no literal for it, and [`parse_flat_json`] would reject the
/// `NaN` / `inf` that `{v}` prints.
fn flat_json(entries: &[(String, f64)]) -> io::Result<String> {
    let mut s = String::from("{");
    for (i, (k, v)) in entries.iter().enumerate() {
        if !v.is_finite() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{k}: {v} is not a JSON number"),
            ));
        }
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}\n  \"{}\": {v}", escape(k));
    }
    s.push_str(if entries.is_empty() { "}\n" } else { "\n}\n" });
    Ok(s)
}

/// Write a flat `"name": number` JSON object, one pair per line; nothing
/// is written when a value is non-finite.
pub fn write_flat_json(mut out: impl io::Write, entries: &[(String, f64)]) -> io::Result<()> {
    out.write_all(flat_json(entries)?.as_bytes())
}

/// Gate outcome for one run.
#[derive(Debug, Clone, PartialEq)]
pub enum GateOutcome {
    /// Every exact metric equals its baseline entry, and every baseline
    /// entry of this bench was emitted.
    Pass {
        /// Metrics compared against a baseline entry.
        checked: usize,
    },
    /// One line per key that differs or is missing on either side.
    Fail(Vec<String>),
}

/// Hold the `exact` metrics of `bench` to the flat baseline at `path`
/// (keys `"{bench}.{metric}"`) at equality. A key on one side only fails
/// as surely as a value that moved: a new metric enters the baseline
/// with `--update-baseline`, a retired one leaves it by deletion.
/// `Err` when the baseline cannot be read or parsed, a missing file
/// included.
pub fn gate(path: &Path, bench: &str, exact: &[(String, f64)]) -> Result<GateOutcome, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let baseline = parse_flat_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let prefix = format!("{bench}.");
    let mut failures: Vec<String> = baseline
        .iter()
        .filter(|(k, _)| {
            k.strip_prefix(&prefix)
                .is_some_and(|name| !exact.iter().any(|(m, _)| m == name))
        })
        .map(|(k, _)| {
            format!("{k}: in the baseline but not emitted by this run (retired? delete the key)")
        })
        .collect();
    for (name, current) in exact {
        let key = format!("{bench}.{name}");
        match baseline.iter().find(|(k, _)| *k == key) {
            None => failures.push(format!(
                "{key}: {current} emitted by this run but not in the baseline \
                 (new? add it with --update-baseline)"
            )),
            Some((_, base)) if current != base => {
                failures.push(format!("{key}: {current} != baseline {base}"))
            }
            Some(_) => {}
        }
    }
    if failures.is_empty() {
        Ok(GateOutcome::Pass {
            checked: exact.len(),
        })
    } else {
        Ok(GateOutcome::Fail(failures))
    }
}

/// Rewrite this bench's entries in the baseline with the current exact
/// metrics, preserving other benches' entries and sorting keys. The new
/// text is complete before the file is opened, so a refused value leaves
/// the baseline byte for byte as it was.
pub fn update_baseline(path: &Path, bench: &str, exact: &[(String, f64)]) -> io::Result<()> {
    let mut entries = match fs::read_to_string(path) {
        Ok(text) => {
            parse_flat_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let prefix = format!("{bench}.");
    entries.retain(|(k, _)| !k.starts_with(&prefix));
    entries.extend(exact.iter().map(|(k, v)| (format!("{bench}.{k}"), *v)));
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let text = flat_json(&entries)?;
    fs::write(path, text)
}

/// Apply `--gate BASE` (and `--update-baseline`) to one bench's exact
/// metrics, printing the verdict. `false` when the gate failed.
fn hold_to_baseline(bench: &str, exact: &[(String, f64)], gp: &str, do_update: bool) -> bool {
    let gp_path = Path::new(gp);
    if do_update {
        return match update_baseline(gp_path, bench, exact) {
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
    match gate(gp_path, bench, exact) {
        Ok(GateOutcome::Pass { checked }) => {
            println!("gate: PASS — {checked} exact metrics equal to {gp}");
            true
        }
        Ok(GateOutcome::Fail(failures)) => {
            eprintln!("gate: FAIL — exact metrics differ from {gp}:");
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

/// The whole `main` of a scenario binary: parse `[--smoke] [--out PATH]
/// [--gate BASELINE] [--update-baseline]`, run the smoke or paper shape,
/// print the report, write the `exact` and `wall` metrics as the flat
/// JSON artifact and hold the `exact` ones to the baseline. Exits 2 on a
/// bad argument, 1 on a failed write or gate; otherwise hands the report
/// back for a verdict the gate cannot express.
pub fn gated_main<C, R>(
    bench: &str,
    smoke_cfg: fn() -> C,
    paper_cfg: fn() -> C,
    run: fn(&C) -> R,
    print_report: fn(&R),
    exact: fn(&R) -> Vec<(String, f64)>,
    wall: fn(&R) -> Vec<(String, f64)>,
) -> R {
    let (mut smoke, mut update) = (false, false);
    let (mut out, mut gate_on) = (None, None);
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
            "--gate" => &mut gate_on,
            other => {
                eprintln!(
                    "usage: {bench} [--smoke] [--out PATH] [--gate BASELINE] \
                     [--update-baseline]   (unknown arg: {other})"
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
    let exact = exact(&report);
    if let Some(path) = &out {
        let mut all = exact.clone();
        all.extend(wall(&report));
        if let Err(e) = flat_json(&all).and_then(|text| fs::write(path, text)) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if let Some(gp) = &gate_on {
        if !hold_to_baseline(bench, &exact, gp, update) {
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
        let p = std::env::temp_dir().join(format!("oe_gate_{}_{name}", std::process::id()));
        let _ = fs::remove_file(&p);
        p
    }

    fn m(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn gate_failure_names_metric_observed_and_allowed_in_one_line() {
        let p = tmp("gatemsg.json");
        update_baseline(&p, "pipe", &m(&[("speedup", 2.0)])).unwrap();
        let bad = gate(&p, "pipe", &m(&[("speedup", 1.5)])).unwrap();
        let GateOutcome::Fail(msgs) = bad else {
            panic!("expected failure");
        };
        assert_eq!(msgs, ["pipe.speedup: 1.5 != baseline 2"]);
        fs::remove_file(&p).unwrap();
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
        update_baseline(&p, "crashmc", &m(&[("pull", 100.0), ("push", 50.0)])).unwrap();
        update_baseline(&p, "kernels", &m(&[("speedup", 3.0)])).unwrap();
        let back = parse_flat_json(&fs::read_to_string(&p).unwrap()).unwrap();
        assert_eq!(
            back,
            vec![
                ("crashmc.pull".to_string(), 100.0),
                ("crashmc.push".to_string(), 50.0),
                ("kernels.speedup".to_string(), 3.0),
            ]
        );
        // Updating one bench leaves the other untouched.
        update_baseline(&p, "kernels", &m(&[("speedup", 4.0)])).unwrap();
        let back = parse_flat_json(&fs::read_to_string(&p).unwrap()).unwrap();
        assert!(back.contains(&("kernels.speedup".to_string(), 4.0)));
        assert!(back.contains(&("crashmc.pull".to_string(), 100.0)));
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn values_round_trip_bit_identical() {
        let p = tmp("bits.json");
        let values = [0.1, 1e-300, 2.300161398789509];
        let named: Vec<(String, f64)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("v{i}"), *v))
            .collect();
        update_baseline(&p, "b", &named).unwrap();
        let back = parse_flat_json(&fs::read_to_string(&p).unwrap()).unwrap();
        for ((_, want), (_, got)) in named.iter().zip(&back) {
            assert_eq!(want.to_bits(), got.to_bits(), "{want} read back as {got}");
        }
        assert_eq!(
            gate(&p, "b", &named).unwrap(),
            GateOutcome::Pass { checked: 3 }
        );
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn a_non_finite_update_leaves_the_baseline_byte_identical() {
        let p = tmp("nan.json");
        update_baseline(&p, "b", &m(&[("x", 1.0)])).unwrap();
        let before = fs::read(&p).unwrap();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = update_baseline(&p, "b", &m(&[("x", 2.0), ("y", v)])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("b.y"), "names the key: {err}");
            assert_eq!(fs::read(&p).unwrap(), before, "{v} left the file alone");
        }
        let mut sink = Vec::new();
        assert!(write_flat_json(&mut sink, &m(&[("y", f64::NAN)])).is_err());
        assert!(sink.is_empty(), "nothing written");
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn gate_holds_exact_keys_at_equality() {
        let p = tmp("gate.json");
        let base = 2.300161398789509f64;
        update_baseline(&p, "b", &m(&[("p99", base), ("bit", 1.0)])).unwrap();
        let ok = gate(&p, "b", &m(&[("p99", base), ("bit", 1.0)])).unwrap();
        assert_eq!(ok, GateOutcome::Pass { checked: 2 });
        // One ulp either way fails, naming the key and nothing else.
        for moved in [
            f64::from_bits(base.to_bits() + 1),
            f64::from_bits(base.to_bits() - 1),
        ] {
            let bad = gate(&p, "b", &m(&[("p99", moved), ("bit", 1.0)])).unwrap();
            let GateOutcome::Fail(msgs) = bad else {
                panic!("a 1-ulp move must fail the gate");
            };
            assert_eq!(msgs.len(), 1, "{msgs:?}");
            assert!(msgs[0].starts_with("b.p99:"), "names the key: {msgs:?}");
        }
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn gate_fails_on_a_key_missing_on_either_side() {
        let p = tmp("nogate.json");
        assert!(
            gate(&p, "b", &m(&[("x", 1.0)])).is_err(),
            "no baseline file is a failure"
        );
        update_baseline(&p, "b", &m(&[("x", 1.0)])).unwrap();
        let new = gate(&p, "b", &m(&[("x", 1.0), ("brand_new", 9.0)])).unwrap();
        let GateOutcome::Fail(msgs) = new else {
            panic!("an unbaselined key must fail the gate: {new:?}");
        };
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].starts_with("b.brand_new:"), "{msgs:?}");
        // The converse fails too: a baselined metric this bench no longer
        // emits is named; another bench's keys ("bb.…") are not this
        // bench's business.
        update_baseline(&p, "bb", &m(&[("other", 5.0)])).unwrap();
        let stale = gate(&p, "b", &m(&[])).unwrap();
        let GateOutcome::Fail(msgs) = stale else {
            panic!("a stale baseline key must fail the gate: {stale:?}");
        };
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].starts_with("b.x:"), "names the key: {msgs:?}");
        assert!(msgs[0].contains("not emitted"), "{msgs:?}");
        fs::remove_file(&p).unwrap();
    }
}
