//! End-to-end failover over the disaggregated pool: kill a pool-backed
//! parameter server mid-epoch, promote a [`Standby`] whose home is the
//! dead node's [`PoolPartition`] (it recovers from the pool-resident
//! durable bytes; no crash image crosses the network), rewind to the
//! committed checkpoint, and finish training — with final weights
//! bit-identical to a local fault-free run. The
//! second half sweeps crash points *during* pool-resident recovery
//! itself, crashmc-style: the recovery scan's durable frees are
//! enumerable persistence events, and interrupting any of them must
//! leave the partition recoverable to the identical state.

pub mod support;

use openembedding::core::recovery::restore;
use openembedding::net::{NetConfig, PsServer};
use openembedding::pmem::scan::recover as pmem_recover;
use openembedding::pmem::PoolConfig;
use openembedding::prelude::*;
use openembedding::simdevice::{CrashPlan, Media};
use std::collections::BTreeSet;
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

/// The synchronous (k = 0) trainer, checkpointing at every batch.
fn sync_trainer(ps: &dyn PsClient) -> PipelinedTrainer<'_> {
    let mut cfg = TrainerConfig::paper(2);
    cfg.ckpt = CheckpointScheduler::every(1);
    PipelinedTrainer::with_client(ps, spec(), cfg, PipelineConfig::sync())
}

/// A PS node whose slots live in `shared`'s partition `node_id`.
fn pool_node(shared: &Arc<SharedPool>, node_id: u64) -> PsNode {
    let mut cost = Cost::new();
    let cfg = node_cfg();
    let store = shared.create_partition(
        node_id,
        PoolConfig {
            payload_bytes: cfg.payload_bytes(),
            capacity: cfg.pmem_capacity,
        },
        &mut cost,
    );
    PsNode::with_storage(cfg, Arc::new(store))
}

/// A standby for `shared`'s partition `node_id`.
fn partition_standby(shared: &Arc<SharedPool>, node_id: u64, crash_seed: u64) -> Standby {
    let home = Arc::new(PoolPartition::new(Arc::clone(shared), node_id));
    Standby::new(home, node_cfg(), 4, crash_seed)
}

/// A pool-backed primary behind a kill-scheduled wire, with a standby
/// on its partition ready to promote across the pool.
fn doomed_remote(shared: &Arc<SharedPool>, kill_after_calls: u64) -> RemotePs {
    let primary = pool_node(shared, 7);
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
        .with_standby(partition_standby(shared, 7, 0xE2E))
}

#[test]
fn kill_mid_epoch_promotes_across_the_pool_bit_identical() {
    const BATCHES: u64 = 24;

    // Fault-free reference on *local* PMem: passing this comparison
    // also re-proves the RemotePool storage arm is value-identical to
    // the local arm (the fabric charges live purely in virtual time).
    let reference = PsNode::new(node_cfg());
    let clean = sync_trainer(&reference).run(1, BATCHES).train;

    // Same call schedule as the local-media failover e2e: 6 RPCs per
    // batch after the handshake + opening stats, so call 116 is the
    // first pull of batch 20 — before the flush where batch 19's
    // pending checkpoint would commit, forcing a rewind + replay.
    let shared = SharedPool::new(FabricConfig::default());
    let remote = doomed_remote(&shared, 116);
    let report = sync_trainer(&remote)
        .try_run(1, BATCHES)
        .expect("pool failover absorbs the kill")
        .train;

    assert_eq!(report.failovers, 1, "exactly one promotion");
    assert!(
        report.rewound_batches >= 1,
        "the commit lag forces a rewind: {}",
        report.rewound_batches
    );
    assert_eq!(report.batches, BATCHES, "requested batches, not replays");

    // The promoted node finished the epoch bit-identical to the
    // fault-free local run: the pool-resident bytes restored the
    // committed checkpoint exactly and the deterministic replay
    // regenerated the rest.
    for key in 0..spec().num_keys {
        assert_eq!(
            reference.read_weights(key),
            remote.weights_of(key).unwrap(),
            "key {key}: pool failover must not perturb training state"
        );
    }

    // Failure is not free, and neither is the fabric: recovery pause,
    // replayed batches, and per-op fabric charges all land in virtual
    // time.
    assert!(
        report.total_ns > clean.total_ns,
        "pool failover {} vs clean local {}",
        report.total_ns,
        clean.total_ns
    );

    let snap = remote.registry().snapshot();
    assert_eq!(snap.counter("client_rpc_failovers_total"), Some(1));
    assert!(remote.failover_resume().is_none(), "event already consumed");
}

#[test]
fn standby_for_a_foreign_partition_never_promotes() {
    // The standby names partition 13; the primary owns partition 7. A
    // misconfigured standby must fail promotion cleanly (structured
    // disconnect after the standby list is exhausted), never serve
    // another node's bytes.
    let shared = SharedPool::new(FabricConfig::default());
    let primary = pool_node(&shared, 7);
    let engine: Arc<dyn PsEngine> = Arc::new(primary);
    let (ct, st) = loopback(64);
    drop(PsServer::spawn(engine, st, 2));
    let injector = Arc::new(FaultInjector::new(
        Arc::new(ct),
        FaultSpec::kill_after(3, 30),
    ));
    let remote = RemotePs::try_connect(injector, NetConfig::paper_default())
        .unwrap()
        .with_standby(partition_standby(&shared, 13, 3));
    let err = sync_trainer(&remote)
        .try_run(1, 24)
        .expect_err("foreign partition refuses");
    assert!(err.context().contains("no standby"), "{err}");
    // The refusal's reason survives the exhausted standby list.
    assert!(err.context().contains("no partition 13"), "{err}");
}

/// The recovered durable state, as comparable facts: committed id plus
/// the live `(key, version)` set.
fn recovered_facts(media: Arc<Media>) -> Option<(u64, BTreeSet<(u64, u64)>)> {
    let mut cost = Cost::new();
    let (_pool, scan) = pmem_recover(media, &mut cost)?;
    assert_eq!(scan.corrupt, 0, "no live slot fails its checksum");
    Some((
        scan.checkpoint_id,
        scan.live.iter().map(|s| (s.key, s.version)).collect(),
    ))
}

#[test]
fn crash_points_during_pool_resident_recovery_are_idempotent() {
    // Train a pool-backed node past a committed checkpoint so the
    // recovery scan has future slots to discard — each durable free it
    // issues is itself a crash point on the pool media.
    let shared = SharedPool::new(FabricConfig::default());
    let primary = pool_node(&shared, 7);
    sync_trainer(&primary).run(1, 6);
    let partition = shared.partition_media(7).expect("partition exists");
    drop(primary); // the node dies; its partition outlives it

    // The death itself: in-flight fabric writes resolve as torn lines.
    let death = partition.crash(0xDEAD);

    // Uninterrupted recovery baseline (counts recovery's own events).
    let base_media = Arc::new(Media::from_crash(death.clone()));
    let (base_ckpt, base_live) =
        recovered_facts(Arc::clone(&base_media)).expect("pool bytes recover");
    let recovery_events = base_media.persistence_events();
    assert!(
        recovery_events > 0,
        "post-checkpoint progress must make recovery issue durable frees"
    );
    assert!(base_ckpt > 0, "a checkpoint committed before the death");

    // Crash recovery at every one of its persistence events and
    // re-recover: committed id and live set must never move.
    for j in 0..recovery_events {
        let media = Arc::new(Media::from_crash(death.clone()));
        media.arm_crash_plan(CrashPlan {
            at_event: j,
            seed: 0xBEEF_u64.wrapping_mul(31).wrapping_add(j),
        });
        // First recovery runs to completion (the capture is taken on
        // the fly); the interrupted-at-j image is what the next
        // promotion attempt would see.
        let _ = recovered_facts(Arc::clone(&media));
        let crashed = media
            .take_crash_capture()
            .expect("recovery event index in range");
        let (ckpt, live) = recovered_facts(Arc::new(Media::from_crash(crashed)))
            .unwrap_or_else(|| panic!("recovery event {j}: unrecoverable media"));
        assert_eq!(ckpt, base_ckpt, "recovery event {j}: committed id moved");
        assert_eq!(live, base_live, "recovery event {j}: live set diverged");
    }

    // And the real promotion path still works on the original bytes:
    // the sweep above never touched the pool's authoritative partition.
    let promo = partition_standby(&shared, 7, 0xDEAD)
        .promote()
        .expect("partition promotes")
        .event;
    assert_eq!(promo.resume_batch, base_ckpt);
    assert_eq!(promo.recovered_keys, base_live.len());
}

/// The same schedule trained on local PMem and on a pool partition, then
/// restored from each home: one routine, so the two agree on where
/// training resumes, how many keys survive and every key's weights.
#[test]
fn both_homes_restore_the_same_checkpoint() {
    let local = PsNode::new(node_cfg());
    sync_trainer(&local).run(1, 9);
    let shared = SharedPool::new(FabricConfig::default());
    let pooled = pool_node(&shared, 7);
    sync_trainer(&pooled).run(1, 9);
    let local_home = LocalMedia::new(Arc::clone(local.pool().media()), 4);
    drop(pooled); // the pool node dies; its partition outlives it

    let restored = [
        restore(&local_home, node_cfg(), 5).expect("local media restores"),
        restore(&PoolPartition::new(shared, 7), node_cfg(), 5).expect("partition restores"),
    ];
    let [a, b] = &restored;
    assert!(a.report.resume_batch > 0, "a checkpoint committed");
    assert_eq!(a.report.resume_batch, b.report.resume_batch);
    assert_eq!(a.report.scan.live.len(), b.report.scan.live.len());
    for key in 0..spec().num_keys {
        assert_eq!(
            a.node.read_weights(key),
            b.node.read_weights(key),
            "key {key}: the homes disagree"
        );
    }
}
