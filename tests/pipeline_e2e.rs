//! End-to-end training schedules: the staleness-0 schedule must
//! reproduce, to the unit, what the former synchronous trainer produced
//! — same weights, same engine counters, same virtual nanoseconds, for
//! every optimizer (pinned below as golden literals); bounded staleness
//! must strictly improve virtual time while keeping the conflict
//! accounting honest.

use openembedding::core::stats::StatsSnapshot;
use openembedding::net::NetConfig;
use openembedding::prelude::*;
use openembedding::simdevice::integrity_hash;
use openembedding::train::PhaseBreakdown;
use std::sync::Arc;

const DIM: usize = 8;

fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        num_keys: 4_000,
        fields: 6,
        batch_size: 128,
        workers: 2,
        skew: SkewModel::paper_fit(),
        seed,
        drift_keys_per_batch: 0,
    }
}

fn node_with(opt: OptimizerKind) -> PsNode {
    let mut cfg = NodeConfig::small(DIM);
    cfg.optimizer = opt;
    cfg.cache_bytes = 400 * cfg.bytes_per_cached_entry();
    PsNode::new(cfg)
}

fn optimizers() -> Vec<(&'static str, OptimizerKind)> {
    vec![
        ("sgd", OptimizerKind::Sgd { lr: 0.1 }),
        (
            "adagrad",
            OptimizerKind::Adagrad {
                lr: 0.05,
                eps: 1e-8,
            },
        ),
        (
            "adam",
            OptimizerKind::Adam {
                lr: 0.01,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
        ),
    ]
}

/// What the separate synchronous trainer produced for one run. The
/// literals below were printed by its `new(&node, &gen, cfg).run(1,
/// batches)` at commit 1861765 — the last commit that had it — in
/// synthetic-gradient mode, where the key stream and the gradients are
/// pure functions of `(spec, batch, worker)`. `PipelineConfig::sync()`
/// must reproduce every quantity to the unit.
struct Golden {
    total_ns: u64,
    phases: PhaseBreakdown,
    stats: StatsSnapshot,
    checkpoints_taken: u64,
    committed_checkpoint: u64,
    /// [`weights_hash`] over every key of the table.
    weights: u64,
}

/// One hash over all weights: `(key, f32 bits…)` of every key the PS
/// knows, ascending, little-endian.
fn weights_hash(ps: &dyn PsClient, num_keys: u64) -> u64 {
    let mut bytes = Vec::new();
    for k in 0..num_keys {
        if let Some(w) = ps.weights_of(k).unwrap() {
            bytes.extend_from_slice(&k.to_le_bytes());
            for v in w {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    integrity_hash(&[&bytes])
}

/// Run the k = 0 schedule in process and over a clean loopback wire and
/// hold both against the golden: everything for the in-process run, the
/// engine-side quantities (weights, counters, checkpoints) for the wire
/// run, whose virtual time additionally carries network charges.
fn assert_sync_schedule_reproduces(
    name: &str,
    opt: OptimizerKind,
    seed: u64,
    cfg: fn() -> TrainerConfig,
    batches: u64,
    want: &Golden,
) {
    let local = node_with(opt);
    let r = PipelinedTrainer::with_client(&local, spec(seed), cfg(), PipelineConfig::sync())
        .run(1, batches);
    assert_eq!(r.train.total_ns, want.total_ns, "{name}: virtual time");
    assert_eq!(r.train.phases, want.phases, "{name}: phase breakdown");
    assert_eq!(r.stale_read_occurrences, 0, "{name}: nothing in flight");
    assert_eq!(r.prefetch_hits + r.prefetch_misses, 0, "{name}: no cache");

    let (ct, st) = loopback(32);
    let _server = PsServer::spawn(Arc::new(node_with(opt)), st, 4);
    let remote = RemotePs::try_connect(Arc::new(ct), NetConfig::paper_default()).unwrap();
    let w = PipelinedTrainer::with_client(&remote, spec(seed), cfg(), PipelineConfig::sync())
        .try_run(1, batches)
        .expect("clean loopback");
    assert!(
        w.train.total_ns > want.total_ns,
        "{name}: the wire costs time"
    );

    let sides = [
        ("local", &local as &dyn PsClient, &r),
        ("wire", &remote as &dyn PsClient, &w),
    ];
    for (side, ps, r) in sides {
        assert_eq!(r.train.stats, want.stats, "{name}/{side}: engine counters");
        assert_eq!(
            r.train.checkpoints_taken, want.checkpoints_taken,
            "{name}/{side}"
        );
        assert_eq!(
            r.train.committed_checkpoint, want.committed_checkpoint,
            "{name}/{side}"
        );
        assert_eq!(
            weights_hash(ps, spec(seed).num_keys),
            want.weights,
            "{name}/{side}: weights"
        );
    }
}

/// staleness = 0 reproduces the synchronous trainer to the unit —
/// weights, logical counters, phases and the virtual clock — for every
/// optimizer (optimizer state is the part an out-of-order or
/// double-applied gradient would corrupt first).
#[test]
fn staleness_zero_bit_identical_to_sync_across_optimizers() {
    // 20 batches of seed 21: SGD's pull burst is one nanosecond cheaper
    // (no optimizer state crosses the DRAM bus); the access pattern, and
    // so every counter, is optimizer-independent.
    let golden = |total_ns, pull_ns, weights| Golden {
        total_ns,
        phases: PhaseBreakdown {
            pull_ns,
            maintain_ns: 11_008,
            spill_ns: 0,
            compute_ns: 29_654_140,
            push_ns: 319_392,
            ckpt_pause_ns: 0,
        },
        stats: StatsSnapshot {
            pulls: 1_259,
            hits: 857,
            new_entries: 402,
            pushes: 1_259,
            evictions: 2,
            flushes: 2,
            ..StatsSnapshot::default()
        },
        checkpoints_taken: 0,
        committed_checkpoint: 0,
        weights,
    };
    let pinned = [
        golden(30_355_012, 381_480, 0x8d86_a05b_37e5_3e84),
        golden(30_355_013, 381_481, 0x7401_eb26_5805_02a9),
        golden(30_355_013, 381_481, 0x204c_7836_f0f0_4a6a),
    ];
    for ((name, opt), want) in optimizers().into_iter().zip(&pinned) {
        assert_sync_schedule_reproduces(name, opt, 21, || TrainerConfig::paper(2), 20, want);
    }
}

/// The checkpointed variant: barriers drain the queue, so a committed
/// checkpoint never misses a gradient, and at staleness 0 the entire
/// checkpoint schedule is the sync trainer's, batch for batch.
#[test]
fn staleness_zero_checkpoint_schedule_matches_sync() {
    let cfg = || {
        let mut cfg = TrainerConfig::paper(2);
        cfg.ckpt = CheckpointScheduler::every(2);
        cfg
    };
    let want = Golden {
        total_ns: 18_207_893,
        phases: PhaseBreakdown {
            pull_ns: 224_105,
            maintain_ns: 67_230,
            spill_ns: 0,
            compute_ns: 17_792_484,
            push_ns: 191_232,
            ckpt_pause_ns: 72,
        },
        stats: StatsSnapshot {
            pulls: 735,
            hits: 522,
            new_entries: 213,
            pushes: 735,
            flushes: 558,
            ckpt_commits: 11,
            slots_recycled: 207,
            ..StatsSnapshot::default()
        },
        checkpoints_taken: 12,
        committed_checkpoint: 11,
        weights: 0x1cc2_8959_fc62_dc40,
    };
    assert_sync_schedule_reproduces("ckpt", OptimizerKind::Sgd { lr: 0.1 }, 9, cfg, 12, &want);
}

/// Bounded staleness strictly improves virtual time on this
/// pull/push-heavy shape, hides work under the GPU lane, reports a
/// real prefetch hit rate, and counts its stale reads. The same holds
/// with DeepFM computing the gradients, whose held-out accuracy against
/// the synthetic teacher is pinned at k = 0 and k = 2 (printed at
/// commit 35907ce).
#[test]
fn bounded_staleness_improves_virtual_time() {
    let node = || {
        node_with(OptimizerKind::Adagrad {
            lr: 0.05,
            eps: 1e-8,
        })
    };
    let run = |pcfg: PipelineConfig| {
        PipelinedTrainer::with_client(&node(), spec(33), TrainerConfig::paper(2), pcfg).run(1, 40)
    };
    let deepfm = |pcfg: PipelineConfig| {
        let mut cfg = TrainerConfig::paper(2);
        cfg.mode = TrainMode::DeepFm(DeepFmConfig {
            dim: DIM,
            fields: 6,
            dense_features: 0,
            hidden: vec![16],
            dense_lr: 0.02,
            seed: 4,
        });
        let n = node();
        let mut t = PipelinedTrainer::with_client(&n, spec(33), cfg, pcfg);
        let total_ns = t.run(1, 40).train.total_ns;
        (total_ns, t.eval_accuracy(0xEE1, 4).expect("DeepFM mode"))
    };
    let (sync_ns, sync_accuracy) = deepfm(PipelineConfig::sync());
    let (k2_ns, k2_accuracy) = deepfm(PipelineConfig::bounded(2, 8192));
    assert!(k2_ns < sync_ns, "DeepFM: {k2_ns} vs {sync_ns}");
    assert_eq!(
        (sync_accuracy, k2_accuracy),
        (0.8186274509803921, 0.8186274509803921),
        "held-out accuracy"
    );

    let sync = run(PipelineConfig::sync());
    for k in [1usize, 2, 4] {
        let r = run(PipelineConfig::bounded(k, 8192));
        assert!(
            r.train.total_ns < sync.train.total_ns,
            "staleness {k} beats sync: {} vs {}",
            r.train.total_ns,
            sync.train.total_ns
        );
        assert!(
            r.prefetch_hit_rate > 0.5,
            "staleness {k}: {}",
            r.prefetch_hit_rate
        );
        assert!(
            r.stale_read_occurrences > 0,
            "staleness {k} admits staleness"
        );
        assert!(r.hidden_ns > 0);
    }
}

/// Prefetch-cache accounting across seeds: every served key occurrence
/// is classified as exactly one of hit or miss (their sum equals the
/// number of unique keys served per worker per batch), and residency
/// never exceeds capacity.
#[test]
fn prefetch_counters_sum_to_total_accesses_across_seeds() {
    for seed in [3u64, 21, 777] {
        let n = node_with(OptimizerKind::Sgd { lr: 0.1 });
        let mut t = PipelinedTrainer::with_client(
            &n,
            spec(seed),
            TrainerConfig::paper(2),
            PipelineConfig::bounded(2, 1024),
        );
        let r = t.run(1, 25);

        let gen = WorkloadGen::new(spec(seed));
        let expected: u64 = (1..=25u64)
            .flat_map(|b| (0..2usize).map(move |w| (b, w)))
            .map(|(b, w)| gen.worker_batch(b, w).unique_keys.len() as u64)
            .sum();
        assert_eq!(
            r.prefetch_hits + r.prefetch_misses,
            expected,
            "seed {seed}: every access is exactly one of hit/miss"
        );
        assert!(r.prefetch_hits > 0, "seed {seed}");
        assert!(r.prefetch_misses > 0, "seed {seed}: the cold tail streams");
    }
}

/// Which rows the prefetch cache admits, refuses and evicts, pinned: a
/// 64-entry cache runs full, so the victim is searched for on every
/// admission check and eviction, and a decay every 4 windows halves the
/// sketch nine times in 40 windows, so the cache reranks nine times.
/// The literals were printed at commit 297c9ca, whose cache found every
/// victim by scanning all resident entries.
#[test]
fn prefetch_eviction_decisions_are_pinned() {
    const BATCHES: u64 = 40;
    let pcfg = PipelineConfig {
        staleness: 2,
        prefetch_capacity: 64,
        heat_decay_every: 4,
    };
    // Window i (0-based) decays first when i is a positive multiple of
    // the cadence.
    assert!((BATCHES - 1) / pcfg.heat_decay_every >= 9, "nine decays");
    // [hits, misses, inserts, evictions, invalidations,
    //  admission_rejects, total_ns, weights_hash]
    let pinned: [(u64, [u64; 8]); 2] = [
        (
            3,
            [
                1_702,
                729,
                1_838,
                665,
                1_173,
                40,
                59_944_914,
                0x8bed_6a1c_b299_7469,
            ],
        ),
        (
            21,
            [
                1_827,
                703,
                1_813,
                613,
                1_200,
                57,
                59_899_146,
                0x0939_fdb5_b8f1_f8d3,
            ],
        ),
    ];
    for (seed, want) in pinned {
        let n = node_with(OptimizerKind::Sgd { lr: 0.1 });
        let r =
            PipelinedTrainer::with_client(&n, spec(seed), TrainerConfig::paper(2), pcfg.clone())
                .run(1, BATCHES);
        let got = [
            r.prefetch_hits,
            r.prefetch_misses,
            r.prefetch_inserts,
            r.prefetch_evictions,
            r.prefetch_invalidations,
            r.prefetch_admission_rejects,
            r.train.total_ns,
            weights_hash(&n, spec(seed).num_keys),
        ];
        assert_eq!(got, want, "seed {seed}");
        assert!(r.prefetch_evictions > 0, "seed {seed}: the cache ran full");
    }
}
