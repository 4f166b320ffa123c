//! Integration: the RPC boundary is transparent — a `RemotePs` behaves
//! exactly like the engine it fronts, including under the full trainer,
//! checkpointing, and concurrent access. Over a clean loopback every
//! call succeeds, so the `Result`s are unwrapped.

use openembedding::net::NetConfig;
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

fn remote_over(engine: Arc<dyn PsEngine>) -> (RemotePs, openembedding::net::ServerHandle) {
    let (ct, st) = loopback(32);
    let handle = PsServer::spawn(engine, st, 4);
    let remote = RemotePs::try_connect(Arc::new(ct), NetConfig::paper_default());
    (remote.expect("clean loopback"), handle)
}

/// The synchronous (k = 0) trainer over any backend.
fn sync_trainer(ps: &dyn PsClient) -> PipelinedTrainer<'_> {
    let cfg = TrainerConfig::paper(2);
    PipelinedTrainer::with_client(ps, spec(), cfg, PipelineConfig::sync())
}

#[test]
fn trainer_over_rpc_matches_local_bitwise() {
    let local = PsNode::new(node_cfg());
    let (remote, _h) = remote_over(Arc::new(PsNode::new(node_cfg())));

    sync_trainer(&local).run(1, 10);
    let r = sync_trainer(&remote).run(1, 10);

    for key in 0..spec().num_keys {
        assert_eq!(
            local.read_weights(key),
            remote.weights_of(key).unwrap(),
            "key {key}"
        );
    }
    assert_eq!(
        local.stats(),
        remote.snapshot_stats().unwrap(),
        "same counters"
    );
    assert!(r.train.total_ns > 0);
}

#[test]
fn rpc_adds_network_time_but_nothing_else() {
    let local = PsNode::new(node_cfg());
    let (remote, _h) = remote_over(Arc::new(PsNode::new(node_cfg())));
    let rl = sync_trainer(&local).run(1, 8).train;
    let rr = sync_trainer(&remote).run(1, 8).train;
    // The remote run is strictly slower in virtual time (wire cost)…
    assert!(rr.total_ns > rl.total_ns);
    // …but not unreasonably so at this scale (< 2×).
    assert!(
        rr.total_ns < rl.total_ns * 2,
        "{} vs {}",
        rr.total_ns,
        rl.total_ns
    );
}

#[test]
fn remote_checkpoint_and_recovery_roundtrip() {
    // Checkpoint through the wire, crash the backing PMem, recover, and
    // serve the recovered node through a fresh server.
    use openembedding::core::recovery::recover_node;
    use openembedding::simdevice::Media;

    let node = Arc::new(PsNode::new(node_cfg()));
    let (remote, _h) = remote_over(node.clone() as Arc<dyn PsEngine>);
    let mut t = sync_trainer(&remote);
    t.run(1, 6);
    remote.checkpoint(6).unwrap();
    // Snapshot the exact end-of-batch-6 state: this IS the checkpoint.
    let reference: Vec<Option<Vec<f32>>> = (0..spec().num_keys)
        .map(|k| remote.weights_of(k).unwrap())
        .collect();
    t.run(7, 2); // commit rides maintenance; also trains new batches
    assert_eq!(remote.committed().unwrap(), 6);

    let media = Arc::new(Media::from_crash(node.pool().media().crash(3)));
    let mut cost = Cost::new();
    let (recovered, report) = recover_node(media, node_cfg(), &mut cost).expect("recover");
    assert_eq!(report.resume_batch, 6);

    let (remote2, _h2) = remote_over(Arc::new(recovered));
    for (k, expect) in reference.iter().enumerate() {
        let got = remote2.weights_of(k as u64).unwrap();
        assert_eq!(
            expect, &got,
            "key {k}: recovered state equals the checkpoint snapshot"
        );
    }
    assert_eq!(remote2.committed().unwrap(), 6);
}

#[test]
fn many_clients_share_one_server() {
    let engine: Arc<dyn PsEngine> = Arc::new(PsNode::new(node_cfg()));
    let (ct, st) = loopback(64);
    let _h = PsServer::spawn(engine, st, 8);
    let ct = Arc::new(ct);

    // Warm via one client.
    let first = RemotePs::try_connect(ct.clone(), NetConfig::paper_default()).unwrap();
    let keys: Vec<u64> = (0..128).collect();
    let mut out = Vec::new();
    let mut cost = Cost::new();
    first.pull_batch(&keys, 1, &mut out, &mut cost).unwrap();
    first.flush_batch(1).unwrap();
    let expected = out.clone();

    let handles: Vec<_> = (0..6)
        .map(|_| {
            let ct = ct.clone();
            let keys = keys.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let client = RemotePs::try_connect(ct, NetConfig::paper_default()).unwrap();
                let mut out = Vec::new();
                let mut cost = Cost::new();
                for b in 2..10 {
                    out.clear();
                    client.pull_batch(&keys, b, &mut out, &mut cost).unwrap();
                    assert_eq!(out, expected);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
