//! Every workload at a tiny shape: the virtual metrics, the counts and
//! the final weights are a pure function of the seed, the traced run
//! reports every per-layer metric, and every output check passes.

use oe_e2e::metrics::{Domain, END_TO_END, PER_LAYER};
use oe_e2e::report::{self, RunResult};
use oe_e2e::workloads;

const NAMES: [&str; 4] = ["hot-wire", "cold-pmem", "pool-pipe", "serve-flip"];

fn run(name: &str, seed: u64, traced: bool) -> RunResult {
    let shape = workloads::tiny(name)
        .expect("known workload")
        .for_seed(seed);
    report::execute(&shape, seed, traced).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn assert_checks_pass(r: &RunResult) {
    for c in &r.raw.checks {
        // A loaded test host can hold the open-loop reader off its
        // schedule; that check judges the host, not the code.
        if c.name != oe_e2e::stages::GENERATOR_CHECK {
            assert!(
                c.ok,
                "{}: check {} failed: {}",
                r.shape.name, c.name, c.detail
            );
        }
    }
    assert_eq!(r.raw.ops_failed, 0, "{}", r.shape.name);
}

/// The seed-determined part of a run: virtual and exact metrics,
/// counts, hashes.
fn fingerprint(r: &RunResult) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = r
        .values
        .iter()
        .filter(|v| {
            let def = r.defs().iter().find(|d| d.name == v.name).unwrap();
            def.domain != Domain::Host
        })
        .map(|v| (v.name.to_string(), v.value.to_bits()))
        .collect();
    let raw = &r.raw;
    out.extend([
        ("ops_attempted".to_string(), raw.ops_attempted),
        ("weights_fnv".to_string(), raw.weights_fnv),
        ("v_total_ns".to_string(), raw.v_total_ns),
        ("checkpoints".to_string(), raw.checkpoints),
        ("pulls".to_string(), raw.stats.pulls),
        ("pushes".to_string(), raw.stats.pushes),
        ("flushes".to_string(), raw.stats.flushes),
        ("evictions".to_string(), raw.stats.evictions),
        ("persist_events".to_string(), raw.persist_events),
        ("build_vns".to_string(), raw.build_vns),
        ("recover_keys".to_string(), raw.recover_keys),
    ]);
    out
}

#[test]
fn same_seed_same_virtual_numbers_other_seed_other_weights() {
    for name in NAMES {
        let a = run(name, 7, false);
        let b = run(name, 7, false);
        assert_checks_pass(&a);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name}: same seed must repeat exactly"
        );
        assert_eq!(a.values.len(), END_TO_END.len());
        for v in &a.values {
            assert!(
                v.value.is_finite() && v.value > 0.0,
                "{name}: {} = {}",
                v.name,
                v.value
            );
        }
        let c = run(name, 8, false);
        assert_ne!(
            a.raw.weights_fnv, c.raw.weights_fnv,
            "{name}: the seed must reach the weights"
        );
    }
}

#[test]
fn traced_run_reports_every_layer_and_isolates_them() {
    let mut fabric = Vec::new();
    for name in NAMES {
        let untraced = run(name, 7, false);
        let traced = run(name, 7, true);
        assert_checks_pass(&traced);
        let names: Vec<&str> = traced.values.iter().map(|v| v.name).collect();
        let defined: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, defined, "{name}: per-layer metrics, in table order");
        assert!(traced.values.iter().all(|v| v.value.is_finite()), "{name}");
        assert_eq!(
            traced.raw.weights_fnv, untraced.raw.weights_fnv,
            "{name}: decorators must not change what is computed"
        );
        assert_eq!(traced.raw.v_total_ns, untraced.raw.v_total_ns, "{name}");

        let get = |metric: &str| {
            traced
                .values
                .iter()
                .find(|v| v.name == metric)
                .unwrap()
                .value
        };
        let wire = matches!(name, "hot-wire" | "cold-pmem");
        assert_eq!(
            get("net.transport.calls") > 0.0,
            wire,
            "{name}: net spans only on the wire"
        );
        assert_eq!(get("net.client.pull.calls") > 0.0, wire, "{name}");
        assert_eq!(get("cluster.route.self_ms") > 0.0, !wire, "{name}");
        assert_eq!(
            get("cache.prefetch.inserts") > 0.0,
            name == "pool-pipe",
            "{name}"
        );
        assert!(
            get("core.node.pull.calls") > 0.0 && get("train.run.wall_ms") > 0.0,
            "{name}"
        );
        assert!(get("trace.spans") > 0.0, "{name}");
        fabric.push((name, get("cost.fabric_vms")));
        let file = traced
            .trace_file
            .as_ref()
            .expect("traced run writes its spans");
        let text = std::fs::read_to_string(file).unwrap();
        assert_eq!(text.lines().count() as f64, get("trace.spans"));
    }
    for (name, vms) in fabric {
        assert_eq!(
            vms > 0.0,
            name == "pool-pipe",
            "{name}: fabric cost only on the pool"
        );
    }
}
