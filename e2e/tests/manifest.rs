//! `BENCHMARK.json` at the root of the repository is exactly what the
//! tables in this crate say, and is inside the limits of the contract it
//! is read under.

use oe_e2e::json::{self, Value};
use oe_e2e::manifest;

fn well_formed(name: &str, extra: &str, max: usize) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn benchmark_json_is_generated_and_within_limits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let generated = manifest::benchmark_json().unwrap();
    assert_eq!(
        committed, generated,
        "regenerate with `oe-e2e manifest > BENCHMARK.json`"
    );
    assert!(generated.len() <= 64 << 10);

    let v = json::parse(&generated).unwrap();
    let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let list = |k: &str| v.get(k).and_then(Value::as_arr).unwrap();
    assert!(list("command").len() <= 32);
    assert_eq!(list("paths").len(), 1);
    assert!((2..=8).contains(&list("workloads").len()));
    assert!((1..=16).contains(&list("end_to_end").len()));
    assert!((1..=128).contains(&list("per_layer").len()));
    let secs = v.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);

    let mut names = std::collections::BTreeSet::new();
    for w in list("workloads") {
        let name = w.get("name").and_then(Value::as_str).unwrap();
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(
            well_formed(name, "_.-", 64) && names.insert(name.to_string()),
            "{name}"
        );
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        assert_eq!(w.as_obj().unwrap().len(), 2);
    }
    for (key, fields) in [("end_to_end", 4), ("per_layer", 3)] {
        for m in list(key) {
            let name = m.get("name").and_then(Value::as_str).unwrap();
            let unit = m.get("unit").and_then(Value::as_str).unwrap();
            let better = m.get("better").and_then(Value::as_str).unwrap();
            assert!(
                well_formed(name, "_.-", 64) && names.insert(name.to_string()),
                "{name}"
            );
            assert!(well_formed(unit, "_/%.-", 16), "{name}: unit {unit}");
            assert!(better == "higher" || better == "lower", "{name}");
            assert_eq!(m.as_obj().unwrap().len(), fields, "{name}");
            if key == "end_to_end" {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{name}");
            }
        }
    }
    let setup = list("end_to_end")
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
}
