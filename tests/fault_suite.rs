//! Fault-injection suite: training over a seeded lossy wire (dropped
//! frames, bit flips, duplicated deliveries) must finish with weights
//! **bit-identical** to a fault-free run — retries with per-request
//! idempotence tokens plus the server's replay cache make every logical
//! request apply exactly once, and the frame checksum turns every bit
//! flip into a retryable structured error instead of silent weight
//! corruption.

pub mod support;

use bytes::Bytes;
use openembedding::net::{ErrorKind, NetConfig, Transport};
use openembedding::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use support::fault::{FaultInjector, FaultSpec};

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

// The injector on its own, over an echo server.

fn echo_server() -> (Arc<dyn Transport>, std::thread::JoinHandle<()>) {
    let (client, server) = loopback(16);
    let h = std::thread::spawn(move || {
        while let Some((req, reply)) = server.recv() {
            let _ = reply.send(req);
        }
    });
    (Arc::new(client), h)
}

#[test]
fn passthrough_when_no_faults() {
    let (inner, h) = echo_server();
    let inj = FaultInjector::new(Arc::clone(&inner), FaultSpec::none(1));
    for i in 0..50u8 {
        let r = inj.call(Bytes::copy_from_slice(&[i]), None).unwrap();
        assert_eq!(&r[..], &[i]);
    }
    assert_eq!(inj.injected(), 0);
    assert_eq!(inj.calls(), 50);
    drop(inj);
    drop(inner);
    h.join().unwrap();
}

#[test]
fn drop_schedule_is_deterministic() {
    let run = || {
        let (inner, h) = echo_server();
        let inj = FaultInjector::new(Arc::clone(&inner), FaultSpec::drops(42, 0.3));
        let outcomes: Vec<bool> = (0..200u8)
            .map(|i| inj.call(Bytes::copy_from_slice(&[i]), None).is_ok())
            .collect();
        drop(inj);
        drop(inner);
        h.join().unwrap();
        outcomes
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, same schedule");
    let drops = a.iter().filter(|ok| !**ok).count();
    assert!((30..90).contains(&drops), "~30% of 200: {drops}");
}

#[test]
fn dropped_calls_surface_as_timeouts() {
    let (inner, h) = echo_server();
    let inj = FaultInjector::new(Arc::clone(&inner), FaultSpec::drops(7, 1.0));
    let err = inj.call(Bytes::from_static(b"x"), None).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Timeout);
    assert!(err.is_retryable());
    drop(inj);
    drop(inner);
    h.join().unwrap();
}

#[test]
fn corruption_flips_exactly_one_bit() {
    let (inner, h) = echo_server();
    let spec = FaultSpec {
        corrupt_response: 1.0,
        ..FaultSpec::none(3)
    };
    let inj = FaultInjector::new(Arc::clone(&inner), spec);
    let sent = Bytes::from_static(b"hello world");
    let got = inj.call(sent.clone(), None).unwrap();
    let diff: u32 = sent
        .iter()
        .zip(got.iter())
        .map(|(a, b)| (a ^ b).count_ones())
        .sum();
    assert_eq!(diff, 1, "exactly one bit flipped");
    drop(inj);
    drop(inner);
    h.join().unwrap();
}

#[test]
fn kill_after_n_calls_disconnects_forever() {
    let (inner, h) = echo_server();
    let inj = FaultInjector::new(Arc::clone(&inner), FaultSpec::kill_after(1, 3));
    for i in 0..3u8 {
        assert!(inj.call(Bytes::copy_from_slice(&[i]), None).is_ok());
    }
    for _ in 0..2 {
        let err = inj.call(Bytes::from_static(b"x"), None).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Disconnected);
        assert!(!err.is_retryable());
    }
    // The injector dropped its inner handle; once the test's own
    // handle goes too, the server drains and exits.
    drop(inner);
    h.join().unwrap();
}

#[test]
fn duplicate_delivers_twice() {
    let (client, server) = loopback(16);
    let served = Arc::new(AtomicU64::new(0));
    let served2 = Arc::clone(&served);
    let h = std::thread::spawn(move || {
        while let Some((req, reply)) = server.recv() {
            served2.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(req);
        }
    });
    let spec = FaultSpec {
        duplicate: 1.0,
        ..FaultSpec::none(9)
    };
    let client: Arc<dyn Transport> = Arc::new(client);
    let inj = FaultInjector::new(Arc::clone(&client), spec);
    let r = inj.call(Bytes::from_static(b"q"), None).unwrap();
    assert_eq!(&r[..], b"q");
    assert_eq!(served.load(Ordering::Relaxed), 2, "delivered twice");
    drop(inj);
    drop(client);
    h.join().unwrap();
}

// `RemotePs` over the injector at the smallest shapes.

#[test]
fn retries_survive_a_lossy_wire() {
    let mut cfg = NodeConfig::small(4);
    cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
    let engine: Arc<dyn PsEngine> = Arc::new(PsNode::new(cfg));
    let (client_t, server_t) = loopback(32);
    let _handle = PsServer::spawn(engine, server_t, 2);
    let faulty = Arc::new(FaultInjector::new(
        Arc::new(client_t),
        FaultSpec::lossy(21, 0.20, 0.05),
    ));
    let remote = RemotePs::try_connect(faulty, NetConfig::paper_default()).unwrap();
    let keys: Vec<u64> = (0..8).collect();
    let mut cost = Cost::new();
    for b in 1..=20 {
        let mut out = Vec::new();
        remote
            .pull_batch(&keys, b, &mut out, &mut cost)
            .expect("pull survives retries");
        assert_eq!(out.len(), 32);
        remote.flush_batch(b).expect("flush survives");
        remote
            .push_batch(&keys, &[0.1; 32], b, &mut cost)
            .expect("push survives");
    }
    let snap = remote.registry().snapshot();
    let retried = snap.counter("client_rpc_retries_total").unwrap_or(0);
    assert!(retried > 0, "a 20% drop schedule must force retries");
    assert!(
        cost.ns(CostKind::Net) > 0,
        "backoff waits charged to virtual time"
    );
    // Exactly-once despite the storm: every batch's push applied
    // exactly once (SGD lr=1, grad 0.1 × 20 batches).
    let w = remote.weights_of(0).unwrap().expect("key exists");
    let expect = openembedding::core::init::init_weight(42, 0, 0, 0.01) - 0.1 * 20.0;
    assert!(
        (w[0] - expect).abs() < 1e-5,
        "{} vs {expect} — retries must not double-apply",
        w[0]
    );
}

#[test]
fn control_rpcs_without_a_standby_return_structured_errors() {
    let mut cfg = NodeConfig::small(4);
    cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
    let engine: Arc<dyn PsEngine> = Arc::new(PsNode::new(cfg));
    let (client_t, server_t) = loopback(32);
    let _handle = PsServer::spawn(engine, server_t, 2);
    let inj = Arc::new(FaultInjector::new(Arc::new(client_t), FaultSpec::none(11)));
    let remote = RemotePs::try_connect(
        Arc::clone(&inj) as Arc<dyn Transport>,
        NetConfig::paper_default(),
    )
    .unwrap();
    assert_eq!(remote.committed().unwrap(), 0);

    // Primary dies with no standby configured: a structured verdict
    // on the control path, and again on the next call.
    inj.kill();
    let err = remote.committed().unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Disconnected);
    assert!(err.to_string().contains("no standby"), "{err}");
    let err = remote.checkpoint(1).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Disconnected);
}
