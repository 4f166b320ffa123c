//! Engine parity: every storage engine — OpenEmbedding (all ablation
//! configurations), DRAM-PS, Ori-Cache, PMem-Hash, TF-PS, and clusters
//! thereof — produces *bit-identical* weights on the same deterministic
//! workload. The engines differ only in where bytes live and what they
//! cost; the training math is shared, so any divergence is a bug.

use openembedding::prelude::*;
use std::sync::Arc;

const DIM: usize = 8;

fn node_cfg(cache_entries: usize) -> NodeConfig {
    let mut cfg = NodeConfig::small(DIM);
    cfg.optimizer = OptimizerKind::Adagrad {
        lr: 0.05,
        eps: 1e-8,
    };
    cfg.cache_bytes = cache_entries * cfg.bytes_per_cached_entry();
    cfg
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        num_keys: 2_000,
        fields: 5,
        batch_size: 64,
        workers: 2,
        skew: SkewModel::paper_fit(),
        seed: 31,
        drift_keys_per_batch: 0,
    }
}

/// The synchronous (k = 0) trainer over any backend.
fn trainer(ps: &dyn PsClient) -> PipelinedTrainer<'_> {
    let mut cfg = TrainerConfig::paper(2);
    cfg.mode = TrainMode::Synthetic { grad_scale: 0.03 };
    PipelinedTrainer::with_client(ps, spec(), cfg, PipelineConfig::sync())
}

fn train(ps: &dyn PsClient, batches: u64) {
    trainer(ps).run(1, batches);
}

fn weights_of(ps: &dyn PsClient) -> Vec<(u64, Vec<f32>)> {
    (0..spec().num_keys)
        .filter_map(|k| ps.weights_of(k).unwrap().map(|w| (k, w)))
        .collect()
}

/// An engine picked at run time, as the client the trainer drives.
fn client(engine: impl PsEngine + 'static) -> EngineClient {
    EngineClient::new(Arc::new(engine))
}

#[test]
fn all_engines_converge_to_identical_weights() {
    let reference = DramPs::new(node_cfg(100), CkptDevice::Ssd);
    train(&reference, 12);
    let expect = weights_of(&reference);
    assert!(expect.len() > 100, "nontrivial key set: {}", expect.len());

    // OE at several cache sizes (heavy eviction ↔ no eviction), plus
    // ablation configs, plus every baseline.
    let mut engines: Vec<EngineClient> = vec![
        client(PsNode::new(node_cfg(16))),
        client(PsNode::new(node_cfg(200))),
        client(PsNode::new(node_cfg(5_000))),
        client(OriCache::new(node_cfg(64), CkptDevice::Pmem)),
        client(PmemHash::new(node_cfg(64))),
        client(TfPs::new(node_cfg(64), CkptDevice::Ssd)),
        client(IncrementalCkpt::new(
            PsNode::new(node_cfg(64)),
            CkptDevice::Pmem,
        )),
    ];
    {
        let mut no_cache = node_cfg(64);
        no_cache.enable_cache = false;
        engines.push(client(PsNode::new(no_cache)));
        let mut no_pipe = node_cfg(64);
        no_pipe.enable_pipeline = false;
        engines.push(client(PsNode::new(no_pipe)));
        let mut sharded = node_cfg(256);
        sharded.shards = 8;
        engines.push(client(PsNode::new(sharded)));
        // Alternative cache policies change locality, never weights.
        use openembedding::cache::{AdmissionKind, PolicyKind};
        let mut fifo = node_cfg(64);
        fifo.replacement = PolicyKind::Fifo;
        engines.push(client(PsNode::new(fifo)));
        let mut clock = node_cfg(64);
        clock.replacement = PolicyKind::Clock;
        engines.push(client(PsNode::new(clock)));
        let mut doorkeeper = node_cfg(64);
        doorkeeper.admission = AdmissionKind::SecondTouch;
        engines.push(client(PsNode::new(doorkeeper)));
    }

    for engine in &engines {
        train(engine, 12);
        let got = weights_of(engine);
        let name = engine.backend_name();
        assert_eq!(got.len(), expect.len(), "{name}: key count mismatch");
        for ((k1, w1), (k2, w2)) in got.iter().zip(&expect) {
            assert_eq!(k1, k2, "{name}");
            assert_eq!(w1, w2, "{name}: weights diverge at key {k1}");
        }
    }
}

#[test]
fn cluster_parity_with_checkpointing_enabled() {
    let single = PsNode::new(node_cfg(128));
    train(&single, 8);
    single.request_checkpoint(8);
    trainer(&single).run(9, 4);

    // Static hash routing: a placed cluster at placement epoch 0.
    let cluster = PlacedCluster::new((0..4).map(|_| PsNode::new(node_cfg(32))).collect());
    train(&cluster, 8);
    cluster.request_checkpoint(8);
    trainer(&cluster).run(9, 4);

    assert_eq!(
        single.committed_checkpoint(),
        cluster.committed_checkpoint()
    );
    for key in 0..spec().num_keys {
        assert_eq!(single.read_weights(key), cluster.read_weights(key));
    }
}

#[test]
fn checkpointing_never_perturbs_training_state() {
    // Same run with and without aggressive checkpointing: identical
    // weights (checkpoints are pure persistence, zero training effect).
    let quiet = PsNode::new(node_cfg(64));
    train(&quiet, 12);

    let noisy = PsNode::new(node_cfg(64));
    let mut t = trainer(&noisy);
    for b in 1..=12 {
        t.run(b, 1);
        noisy.request_checkpoint(b);
    }
    assert!(noisy.committed_checkpoint() >= 11);
    for key in 0..spec().num_keys {
        assert_eq!(quiet.read_weights(key), noisy.read_weights(key));
    }
}
