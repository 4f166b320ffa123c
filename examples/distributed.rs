//! Distributed deployment: the parameter server behind a real RPC
//! boundary (binary wire protocol + multi-threaded server event loop),
//! with training driven through `RemotePs` — the reproduction of the
//! paper's TensorFlow-operator → PS-node architecture (§V-C).
//!
//! ```sh
//! cargo run --release --example distributed
//! ```

use openembedding::net::NetConfig;
use openembedding::prelude::*;
use std::sync::Arc;

fn main() {
    println!("== Distributed PS over the wire ==\n");

    // 1. Boot a PS node behind a server with 8 service threads
    //    (paper Fig. 5: pre-allocated threads handling network pulls).
    let mut cfg = NodeConfig::small(16);
    cfg.cache_bytes = 256 << 10;
    let engine: Arc<dyn PsEngine> = Arc::new(PsNode::new(cfg));
    let (client_transport, server_transport) = loopback(64);
    let server = PsServer::spawn(engine, server_transport, 8);
    println!("server: 8 worker threads, loopback transport (queue depth 64)");

    // 2. Connect a remote client: the handshake discovers the engine
    //    identity; after this the wire is invisible to the trainer.
    //    Every `RemotePs` call returns a `Result` — the caller decides
    //    what a failure means; a demo over a clean loopback unwraps.
    let remote = RemotePs::try_connect(Arc::new(client_transport), NetConfig::paper_default())
        .expect("PS handshake");
    println!(
        "client: connected to \"{}\" serving dim-{} embeddings\n",
        remote.backend_name(),
        remote.embed_dim()
    );

    // 3. Train through the wire, with checkpoints.
    let spec = WorkloadSpec {
        num_keys: 20_000,
        fields: 8,
        batch_size: 256,
        workers: 4,
        skew: SkewModel::paper_fit(),
        seed: 3,
        drift_keys_per_batch: 0,
    };
    let mut tcfg = TrainerConfig::paper(4);
    tcfg.ckpt = CheckpointScheduler::every(50_000_000);
    let sync = PipelineConfig::sync; // k = 0: the paper's synchronous batch
    let report = PipelinedTrainer::with_client(&remote, spec.clone(), tcfg, sync())
        .try_run(1, 40)
        .expect("clean wire")
        .train;
    println!("trained 40 batches over RPC: {}", report.summary());
    println!(
        "committed checkpoint: {}  ({} checkpoints requested)",
        report.committed_checkpoint, report.checkpoints_taken
    );

    // 4. Verify the remote state agrees with a local replica of the
    //    same run (the wire adds cost, never drift).
    let mut cfg = NodeConfig::small(16);
    cfg.cache_bytes = 256 << 10;
    let local = PsNode::new(cfg);
    PipelinedTrainer::with_client(&local, spec, TrainerConfig::paper(4), sync()).run(1, 40);
    let mut checked = 0;
    for key in 0..20_000u64 {
        match (
            remote.weights_of(key).expect("clean wire"),
            local.read_weights(key),
        ) {
            (Some(a), Some(b)) => {
                assert_eq!(a, b, "key {key}");
                checked += 1;
            }
            (None, None) => {}
            _ => panic!("presence mismatch at key {key}"),
        }
    }
    println!("verified {checked} keys bit-identical to a local replica");

    // 5. Clean shutdown: drop the client, join the workers.
    drop(remote);
    let served = server.join();
    println!("server exited cleanly after serving {served} requests");
}
