//! Fault-injection suite: training over a seeded lossy wire (dropped
//! frames, bit flips, duplicated deliveries) must finish with weights
//! **bit-identical** to a fault-free run — retries with per-request
//! idempotence tokens plus the server's replay cache make every logical
//! request apply exactly once, and the frame checksum turns every bit
//! flip into a retryable structured error instead of silent weight
//! corruption.

use openembedding::net::{ErrorKind, FaultInjector, FaultSpec, NetConfig};
use openembedding::prelude::*;
use std::sync::Arc;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        num_keys: 3_000,
        fields: 5,
        batch_size: 64,
        workers: 2,
        skew: SkewModel::paper_fit(),
        seed: 55,
        drift_keys_per_batch: 0,
    }
}

fn node_cfg() -> NodeConfig {
    let mut cfg = NodeConfig::small(8);
    cfg.optimizer = OptimizerKind::Adagrad {
        lr: 0.05,
        eps: 1e-8,
    };
    cfg.cache_bytes = 200 * cfg.bytes_per_cached_entry();
    cfg
}

/// Remote PS behind a fault-injected loopback wire.
fn faulty_remote(fault: FaultSpec) -> (RemotePs, openembedding::net::ServerHandle) {
    let engine: Arc<dyn PsEngine> = Arc::new(PsNode::new(node_cfg()));
    let (ct, st) = loopback(32);
    let handle = PsServer::spawn(engine, st, 4);
    let injector = Arc::new(FaultInjector::new(Arc::new(ct), fault));
    let remote = RemotePs::try_connect(injector, NetConfig::paper_default());
    (remote.expect("handshake survives the schedule"), handle)
}

/// One synchronous (k = 0) run over any backend.
fn train(ps: &dyn PsClient, batches: u64) -> TrainReport {
    let cfg = TrainerConfig::paper(2);
    PipelinedTrainer::with_client(ps, spec(), cfg, PipelineConfig::sync())
        .try_run(1, batches)
        .expect("lossy wire must be survivable")
        .train
}

fn train_local(batches: u64) -> (PsNode, TrainReport) {
    let node = PsNode::new(node_cfg());
    let r = train(&node, batches);
    (node, r)
}

/// Reads retry like every other RPC; past the budget the test fails.
fn remote_weights(remote: &RemotePs, key: u64) -> Option<Vec<f32>> {
    remote.weights_of(key).expect("read survives the schedule")
}

/// The acceptance schedule: 5% frame loss + 1% bit flips (+ occasional
/// duplicate deliveries), seeded. Training completes and the final
/// weights are bit-identical to a fault-free run.
#[test]
fn lossy_wire_training_is_bit_identical_to_fault_free() {
    let (local, clean) = train_local(30);
    let (remote, _h) = faulty_remote(FaultSpec::lossy(0xFA17, 0.05, 0.01));
    let report = train(&remote, 30);

    assert_eq!(report.failovers, 0, "lossy ≠ dead: no failover");
    for key in 0..spec().num_keys {
        assert_eq!(
            local.read_weights(key),
            remote_weights(&remote, key),
            "key {key}: faults must not perturb training state"
        );
    }
    // Exactly-once all the way down: the server-side counters agree
    // with the fault-free run — replayed/duplicated requests were
    // cache hits, not re-executions.
    assert_eq!(
        local.stats(),
        remote.snapshot_stats().unwrap(),
        "same effective counters"
    );

    // The faults were real and visible in telemetry.
    let snap = remote.registry().snapshot();
    let retries = snap.counter("client_rpc_retries_total").unwrap_or(0);
    let timeouts = snap.counter("client_rpc_timeouts_total").unwrap_or(0);
    let corrupt = snap.counter("client_rpc_corrupt_total").unwrap_or(0);
    assert!(retries > 0, "a 5% drop schedule must force retries");
    assert!(timeouts > 0, "dropped frames surface as timeouts");
    assert!(corrupt > 0, "bit flips surface as corrupt frames");
    let text = remote.metrics().unwrap();
    assert!(text.contains("rpc_replay_hits_total"), "{text}");
    assert!(
        text.contains("client_rpc_retries_total"),
        "client counters lead the exposition:\n{text}"
    );

    // Retries are not free: backoff waits are charged in virtual time.
    assert!(
        report.total_ns > clean.total_ns,
        "lossy {} vs clean {}",
        report.total_ns,
        clean.total_ns
    );
}

/// Control arm: a fault spec with all probabilities at zero behaves
/// exactly like a clean wire — no retries, no injected faults.
#[test]
fn control_arm_injects_nothing() {
    let (local, _) = train_local(10);
    let (remote, _h) = faulty_remote(FaultSpec::none(1));
    train(&remote, 10);
    for key in 0..spec().num_keys {
        assert_eq!(local.read_weights(key), remote_weights(&remote, key));
    }
    let snap = remote.registry().snapshot();
    assert_eq!(snap.counter("client_rpc_retries_total").unwrap_or(0), 0);
    assert_eq!(snap.counter("client_rpc_failovers_total").unwrap_or(0), 0);
}

/// The same seed reproduces the same fault schedule and therefore the
/// same virtual-time outcome — determinism is what makes bit-identity
/// a meaningful assertion.
#[test]
fn fault_schedule_is_deterministic_end_to_end() {
    let run = || {
        let (remote, _h) = faulty_remote(FaultSpec::lossy(77, 0.10, 0.02));
        let r = train(&remote, 12);
        let snap = remote.registry().snapshot();
        (r.total_ns, snap.counter("client_rpc_retries_total"))
    };
    assert_eq!(run(), run());
}

/// A hostile wire (every frame corrupted) exhausts the retry budget
/// with a structured, classified error — never a panic, never a hang.
#[test]
fn hopeless_wire_fails_structurally() {
    let engine: Arc<dyn PsEngine> = Arc::new(PsNode::new(node_cfg()));
    let (ct, st) = loopback(32);
    let _h = PsServer::spawn(engine, st, 2);
    let spec = FaultSpec {
        corrupt_response: 1.0,
        ..FaultSpec::none(5)
    };
    let injector = Arc::new(FaultInjector::new(Arc::new(ct), spec));
    let err = RemotePs::try_connect(injector, NetConfig::paper_default())
        .expect_err("all-corrupt wire cannot handshake");
    assert_eq!(err.kind(), ErrorKind::Corrupt);
    assert!(err.context().contains("retry budget"), "{err}");
}
