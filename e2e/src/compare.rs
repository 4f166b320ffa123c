//! `oe-e2e compare <a.jsonl> <b.jsonl>`: apply the per-metric bounds of
//! `BENCHMARK.json` to two result files, one row per metric × workload,
//! every ratio printed with its base.
//!
//! Two result files of the same seed are compared. Virtual and exact
//! metrics are deterministic for a seed, so they are held two-sided to
//! [`SAME_SEED_BOUND`] whatever `BENCHMARK.json` allows across seeds;
//! host metrics are one-sided (only getting worse can fail) at the
//! bound of `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::metrics::{Better, Domain, END_TO_END};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// How far a virtual or exact metric may move, either way, between two
/// runs of one seed.
pub const SAME_SEED_BOUND: f64 = 0.01;

#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// Host metric worse than the bound allows.
    Regressed,
    /// Virtual/exact metric moved beyond the bound.
    Changed,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

impl Row {
    pub fn ratio(&self) -> f64 {
        self.new / self.base
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `name → bound` of the end-to-end metrics in `BENCHMARK.json`.
pub fn bounds_from(benchmark_json: &str) -> io::Result<BTreeMap<String, f64>> {
    let v = json::parse(benchmark_json)?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| bad("BENCHMARK.json has no `end_to_end` list".into()))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err(bad("an `end_to_end` entry lacks `name` or `bound`".into())),
            }
        })
        .collect()
}

/// `workload → metric → (value, unit)` of the untraced records of a
/// result file (one JSON object per line).
type Runs = BTreeMap<String, BTreeMap<String, (f64, String)>>;

fn runs_of(text: &str) -> io::Result<Runs> {
    let mut out = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let r = json::parse(line)?;
        if r.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload = r
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("a record lacks `workload`".into()))?;
        let metrics = r
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| bad(format!("record `{workload}` lacks `metrics`")))?;
        let mut entry = BTreeMap::new();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad(format!("metric `{name}` lacks `value`")))?;
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            entry.insert(name.clone(), (value, unit.to_string()));
        }
        if out.insert(workload.to_string(), entry).is_some() {
            return Err(bad(format!(
                "`{workload}` has two untraced records: compare one set of runs with one"
            )));
        }
    }
    Ok(out)
}

fn judge(name: &str, base: f64, new: f64, bound: f64) -> Verdict {
    let def = END_TO_END.iter().find(|d| d.name == name);
    let better = def.map_or(Better::Lower, |d| d.better);
    let domain = def.map_or(Domain::Host, |d| d.domain);
    // How much worse `new` is, as a share of the base (negative: better).
    let worse = match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    };
    match domain {
        Domain::Host if worse > bound => Verdict::Regressed,
        Domain::Virtual | Domain::Exact if worse.abs() > bound.min(SAME_SEED_BOUND) => {
            Verdict::Changed
        }
        _ => Verdict::Ok,
    }
}

pub fn compare(a: &str, b: &str, bounds: &BTreeMap<String, f64>) -> io::Result<Vec<Row>> {
    let (a, b) = (runs_of(a)?, runs_of(b)?);
    let mut rows = Vec::new();
    for (workload, base_metrics) in &a {
        let Some(new_metrics) = b.get(workload) else {
            continue;
        };
        for (metric, bound) in bounds {
            let (Some((base, unit)), Some((new, _))) =
                (base_metrics.get(metric), new_metrics.get(metric))
            else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                unit: unit.clone(),
                base: *base,
                new: *new,
                bound: *bound,
                verdict: judge(metric, *base, *new, *bound),
            });
        }
    }
    if rows.is_empty() {
        return Err(bad("the two files share no workload and metric".into()));
    }
    Ok(rows)
}

/// Print the table; returns whether every row is within its bound.
pub fn run(a: &Path, b: &Path, benchmark: &Path) -> io::Result<bool> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", p.display())))
    };
    let bounds = bounds_from(&read(benchmark)?)?;
    let rows = compare(&read(a)?, &read(b)?, &bounds)?;
    println!(
        "{:<11} {:<22} {:>16} {:>16} {:>8} {:>6}  verdict (base = {}, new = {})",
        "workload",
        "metric",
        "base",
        "new",
        "new/base",
        "bound",
        a.display(),
        b.display()
    );
    let mut all_ok = true;
    for r in &rows {
        all_ok &= r.verdict == Verdict::Ok;
        println!(
            "{:<11} {:<22} {:>16.6} {:>16.6} {:>8.4} {:>6.3}  {} [{}]",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.ratio(),
            r.bound,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Changed => "CHANGED",
            },
            r.unit
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(train: f64, vtrain: f64) -> String {
        format!(
            r#"{{"commit": "abc", "workload": "hot-wire", "trace": false, "metrics": {{"train_samples_per_s": {{"value": {train}, "unit": "1/s"}}, "train_vsamples_per_s": {{"value": {vtrain}, "unit": "1/s"}}}}}}
{{"commit": "abc", "workload": "hot-wire", "trace": true, "metrics": {{"train.self_ms": {{"value": 1, "unit": "ms"}}}}}}
"#
        )
    }

    fn bounds() -> BTreeMap<String, f64> {
        bounds_from(
            r#"{"end_to_end": [
              {"name": "train_samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
              {"name": "train_vsamples_per_s", "unit": "1/s", "better": "higher", "bound": 0.01}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn host_is_one_sided_virtual_two_sided() {
        let rows = compare(&file(1000.0, 500.0), &file(1500.0, 500.0), &bounds()).unwrap();
        assert_eq!(rows.len(), 2, "traced runs are not compared");
        assert!(
            rows.iter().all(|r| r.verdict == Verdict::Ok),
            "a host gain is not a failure"
        );

        let rows = compare(&file(1000.0, 500.0), &file(880.0, 510.0), &bounds()).unwrap();
        let by = |m: &str| rows.iter().find(|r| r.metric == m).unwrap();
        assert_eq!(by("train_samples_per_s").verdict, Verdict::Regressed);
        assert_eq!(by("train_samples_per_s").ratio(), 0.88);
        assert_eq!(by("train_samples_per_s").base, 1000.0);
        // A virtual metric that *improves* by 2 % still moved: reported.
        assert_eq!(by("train_vsamples_per_s").verdict, Verdict::Changed);
    }

    #[test]
    fn disjoint_files_are_an_error() {
        let other = file(1.0, 1.0).replace("hot-wire", "cold-pmem");
        assert!(compare(&file(1.0, 1.0), &other, &bounds()).is_err());
        let twice = file(1.0, 1.0) + &file(2.0, 1.0);
        assert!(compare(&twice, &file(1.0, 1.0), &bounds()).is_err());
        assert!(bounds_from("{}").is_err());
    }
}
