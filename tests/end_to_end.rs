//! End-to-end integration: the full pipeline (workload → pull → DeepFM →
//! push → checkpoint) across crates.

use openembedding::prelude::*;

fn spec(workers: usize) -> WorkloadSpec {
    WorkloadSpec {
        num_keys: 8_000,
        fields: 6,
        batch_size: 128,
        workers,
        skew: SkewModel::paper_fit(),
        seed: 21,
        drift_keys_per_batch: 0,
    }
}

/// The synchronous (k = 0) trainer over any backend.
fn sync_trainer(ps: &dyn PsClient, workers: usize, cfg: TrainerConfig) -> PipelinedTrainer<'_> {
    PipelinedTrainer::with_client(ps, spec(workers), cfg, PipelineConfig::sync())
}

fn oe_node(dim: usize, cache_entries: usize) -> PsNode {
    let mut cfg = NodeConfig::small(dim);
    cfg.optimizer = OptimizerKind::Adagrad {
        lr: 0.05,
        eps: 1e-8,
    };
    cfg.cache_bytes = cache_entries * cfg.bytes_per_cached_entry();
    PsNode::new(cfg)
}

#[test]
fn deepfm_on_oe_converges() {
    let node = oe_node(8, 2_000);
    let mut cfg = TrainerConfig::paper(2);
    cfg.mode = TrainMode::DeepFm(DeepFmConfig {
        dim: 8,
        fields: 6,
        dense_features: 0,
        hidden: vec![16],
        dense_lr: 0.02,
        seed: 4,
    });
    let mut t = sync_trainer(&node, 2, cfg);
    // The very first batch is untrained (≈ chance); convergence to the
    // teacher's structure happens within a few batches.
    let first = t.run(1, 1).train.avg_loss.unwrap();
    let last = t.run(2, 40).train.avg_loss.unwrap();
    assert!(last < first - 0.05, "loss fell: {first} → {last}");
    assert!(last < 0.62, "beats chance comfortably: {last}");
}

#[test]
fn cache_hit_rate_reflects_skew() {
    // A cache holding ~2% of keys catches the hot head. The key stream
    // is a pure function of the spec seed (splitmix64 inside
    // `WorkloadGen`), so the miss rate is an exact replayable number
    // (0.3225 here). An ideal LRU of the same capacity on this exact stream
    // gives 0.3245 (misses are per *deduped* key per worker batch, so
    // the cold tail weighs far more than its per-access share), which
    // pins both sides: well under it means the PS cache at least
    // matches ideal LRU; well over zero means the cold tail still
    // churns.
    let node = oe_node(8, 160);
    let mut t = sync_trainer(&node, 2, TrainerConfig::paper(2));
    t.run(1, 5); // warm up
    let r = t.run(6, 30).train;
    let miss = r.miss_rate();
    assert!(miss < 0.33, "hot head cached: miss = {miss}");
    assert!(
        miss > 0.30,
        "cold tail misses deterministically: miss = {miss}"
    );
}

#[test]
fn periodic_checkpoints_commit_and_are_cheap() {
    let node = oe_node(8, 2_000);
    let mut cfg = TrainerConfig::paper(2);
    // Checkpoint roughly every few batches of virtual time (batches run
    // ~2 ms virtual at this scale).
    cfg.ckpt = CheckpointScheduler::every(6_000_000);
    let r = sync_trainer(&node, 2, cfg).run(1, 30).train;
    assert!(
        r.checkpoints_taken >= 3,
        "{} checkpoints",
        r.checkpoints_taken
    );
    assert!(r.committed_checkpoint > 0);
    // Batch-aware checkpointing costs ~nothing inline.
    let pause_frac = r.phases.ckpt_pause_ns as f64 / r.total_ns as f64;
    assert!(pause_frac < 0.01, "pause fraction {pause_frac}");
}

#[test]
fn all_engines_run_the_same_pipeline() {
    let mut node_cfg = NodeConfig::small(8);
    node_cfg.optimizer = OptimizerKind::Sgd { lr: 0.1 };
    node_cfg.cache_bytes = 500 * node_cfg.bytes_per_cached_entry();

    let oe = PsNode::new(node_cfg.clone());
    let dram = DramPs::new(node_cfg.clone(), CkptDevice::Ssd);
    let ori = OriCache::new(node_cfg.clone(), CkptDevice::Pmem);
    let hash = PmemHash::new(node_cfg.clone());
    let tf = TfPs::new(node_cfg.clone(), CkptDevice::Ssd);
    // Every engine is a client: one trainer drives them all.
    let engines: Vec<&dyn PsClient> = vec![&oe, &dram, &ori, &hash, &tf];
    let mut times = Vec::new();
    for e in engines {
        let r = sync_trainer(e, 2, TrainerConfig::paper(2)).run(1, 10).train;
        assert_eq!(r.stats.pulls, r.stats.pushes, "{}", r.engine);
        times.push((r.engine, r.total_ns));
    }
    // Sanity ordering at low worker count: DRAM fastest, PMem-Hash slowest.
    let t_of = |n: &str| times.iter().find(|(name, _)| name == n).unwrap().1;
    assert!(t_of("DRAM-PS") < t_of("PMem-Hash"));
    assert!(t_of("PMem-OE") < t_of("PMem-Hash"));
}

/// A 3-node cluster trains exactly like one node under the synchronous
/// schedule and under a pipelined, prefetching one (k = 2, the
/// `pool-pipe` shape): same weights bit for bit, and the same prefetch
/// and stale-read accounting.
#[test]
fn cluster_of_nodes_trains_identically_to_single_node() {
    let mk_cfg = || {
        let mut c = NodeConfig::small(4);
        c.optimizer = OptimizerKind::Sgd { lr: 0.5 };
        c.cache_bytes = 1000 * c.bytes_per_cached_entry();
        c
    };
    let bits = |w: Option<Vec<f32>>| w.map(|w| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    for pcfg in [PipelineConfig::sync(), PipelineConfig::bounded(2, 2048)] {
        let k = pcfg.staleness;
        let single = PsNode::new(mk_cfg());
        // The paper's static hash routing over three nodes.
        let cluster = PlacedCluster::new((0..3).map(|_| PsNode::new(mk_cfg())).collect());
        let run = |ps: &dyn PsClient| {
            PipelinedTrainer::with_client(ps, spec(1), TrainerConfig::paper(1), pcfg.clone())
                .run(1, 10)
        };
        let (r1, r3) = (run(&single), run(&cluster));

        for key in 0..200u64 {
            assert_eq!(
                bits(single.read_weights(key)),
                bits(cluster.read_weights(key)),
                "k = {k}: key {key}"
            );
        }
        let counters = |r: &PipelineReport| {
            [
                r.prefetch_hits,
                r.prefetch_misses,
                r.prefetch_inserts,
                r.prefetch_evictions,
                r.prefetch_invalidations,
                r.prefetch_admission_rejects,
                r.stale_read_occurrences,
            ]
        };
        assert_eq!(counters(&r1), counters(&r3), "k = {k}");
        if k > 0 {
            assert!(r3.prefetch_hits > 0, "k = {k}: the prefetch cache served");
        }
    }
}
