//! `StorageBackend::read_slots` is a `read_slot` loop, charge for
//! charge, on every arm: the local pool's one-lock batch, the DRAM
//! arm's, and the remote pool's, which adds one fabric read per slot.
//! Free, never-written and torn slots in a batch get the loop's
//! verdict, and no read is a persistence event.
//!
//! The trait's default `read_slots` is the loop through `self`, so a
//! decorator that overrides only the five per-slot ops sees — and keeps
//! — every charge a batched read makes. A `PsNode` over such a decorator
//! on a remote pool charges exactly what the undecorated node charges,
//! through pulls, maintenance and pushes that read PMem.

use openembedding::core::StorageBackend;
use openembedding::pmem::{PmemPool, PoolConfig, SlotHeader, SlotId, HEADER_BYTES, ROOT_BYTES};
use openembedding::prelude::*;
use openembedding::simdevice::rng::Rng;
use std::sync::Arc;

const DIM: usize = 4;
/// Weights plus one AdaGrad state vector.
const PAYLOAD_F32S: usize = 2 * DIM;
/// A row value no slot holds: what a row of an unreadable slot keeps.
const UNTOUCHED: f32 = -7.25;

fn pool_cfg() -> PoolConfig {
    PoolConfig::for_embedding(DIM, 1, 1 << 16)
}

/// One of each arm, freshly created.
fn arms() -> Vec<Arc<dyn StorageBackend>> {
    let mut cost = Cost::new();
    let shared = SharedPool::new(FabricConfig::default());
    vec![
        Arc::new(LocalPmem::create(pool_cfg(), &mut cost)),
        Arc::new(DramStore::create(pool_cfg(), &mut cost)),
        Arc::new(shared.create_partition(7, pool_cfg(), &mut cost)),
    ]
}

/// Sixteen slots: twelve written, one freed after its write, one torn
/// (a payload byte flipped under its checksum) and two never written.
fn fill(store: &dyn StorageBackend) -> Vec<SlotId> {
    let mut cost = Cost::new();
    let ids: Vec<SlotId> = (0..16).map(|_| store.alloc(&mut cost)).collect();
    for (k, &id) in ids[..14].iter().enumerate() {
        let payload: Vec<f32> = (0..PAYLOAD_F32S)
            .map(|j| (k * 10 + j) as f32 * 0.5)
            .collect();
        store.write_slot(id, 100 + k as u64, 3, &payload, &mut cost);
    }
    store.free(ids[12], &mut cost);
    let pool = store.pool();
    let torn_byte = ROOT_BYTES + ids[13].0 * pool.slot_bytes() + HEADER_BYTES + 1;
    pool.media().write_persist(torn_byte, &[0xA5], &mut cost);
    ids
}

/// Every row, verdict and charge of one batch, batched and as a loop.
fn check_batch(store: &dyn StorageBackend, batch: &[SlotId], what: &str) {
    let events = store.pool().media().persistence_events();

    let mut rows = vec![UNTOUCHED; batch.len() * PAYLOAD_F32S];
    let mut batched = Cost::new();
    let verdict = store.read_slots(batch, &mut rows, &mut batched);

    let mut loop_rows = vec![UNTOUCHED; batch.len() * PAYLOAD_F32S];
    let mut looped = Cost::new();
    let headers: Vec<Option<SlotHeader>> = batch
        .iter()
        .zip(loop_rows.chunks_exact_mut(PAYLOAD_F32S))
        .map(|(&id, row)| store.read_slot(id, row, &mut looped))
        .collect();
    let loop_verdict = headers.iter().position(Option::is_none).map_or(Ok(()), Err);

    assert_eq!(verdict, loop_verdict, "{what}: verdict");
    assert!(rows == loop_rows, "{what}: rows");
    assert_eq!(batched, looped, "{what}: cost");
    for kind in CostKind::ALL {
        assert_eq!(
            batched.ops(kind),
            looped.ops(kind),
            "{what}: {} ops",
            kind.name()
        );
    }
    assert_eq!(
        store.pool().media().persistence_events(),
        events,
        "{what}: a read is not a persistence event"
    );
}

#[test]
fn batched_reads_equal_per_slot_reads_on_every_arm() {
    for store in arms() {
        let label = store.label();
        let ids = fill(&*store);
        let sound: Vec<SlotId> = ids[..12].to_vec();
        check_batch(&*store, &[], &format!("{label}: empty"));
        check_batch(&*store, &sound, &format!("{label}: sound"));
        let mut rows = vec![UNTOUCHED; sound.len() * PAYLOAD_F32S];
        assert_eq!(
            store.read_slots(&sound, &mut rows, &mut Cost::new()),
            Ok(())
        );
        assert!(
            rows.iter().all(|&v| v != UNTOUCHED),
            "{label}: every row decoded"
        );

        // The freed, the torn and the never-written slot, each on its
        // own and at every position of a batch of sound slots.
        for bad in [ids[12], ids[13], ids[14]] {
            check_batch(&*store, &[bad], &format!("{label}: lone {bad:?}"));
            for at in 0..=4 {
                let mut batch = sound[..4].to_vec();
                batch.insert(at, bad);
                let mut rows = vec![UNTOUCHED; batch.len() * PAYLOAD_F32S];
                let verdict = store.read_slots(&batch, &mut rows, &mut Cost::new());
                assert_eq!(verdict, Err(at), "{label}: {bad:?} at {at}");
                check_batch(&*store, &batch, &format!("{label}: {bad:?} at {at}"));
            }
        }

        // Longer than one locked copy of the pool's batch (256 slots),
        // with the torn slot past the first.
        let mut long: Vec<SlotId> = (0..600).map(|i| sound[i % sound.len()]).collect();
        long[300] = ids[13];
        let mut rows = vec![UNTOUCHED; long.len() * PAYLOAD_F32S];
        assert_eq!(
            store.read_slots(&long, &mut rows, &mut Cost::new()),
            Err(300)
        );
        check_batch(&*store, &long, &format!("{label}: long"));

        // Seeded batches of every slot, repeats included.
        let mut rng = Rng::seed_from_u64(0xBA7C);
        for case in 0..32 {
            let n = rng.below(24) as usize;
            let batch: Vec<SlotId> = (0..n)
                .map(|_| ids[rng.below(ids.len() as u64) as usize])
                .collect();
            check_batch(&*store, &batch, &format!("{label}: case {case}"));
        }
    }
}

/// Forwards the five per-slot ops and nothing else: `read_slots` is the
/// trait's default, as it is for any decorator written before it.
struct Forwarding(Arc<dyn StorageBackend>);

impl StorageBackend for Forwarding {
    fn pool(&self) -> &PmemPool {
        self.0.pool()
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn alloc(&self, cost: &mut Cost) -> SlotId {
        self.0.alloc(cost)
    }

    fn free(&self, id: SlotId, cost: &mut Cost) {
        self.0.free(id, cost)
    }

    fn write_slot(&self, id: SlotId, key: u64, version: u64, payload: &[f32], cost: &mut Cost) {
        self.0.write_slot(id, key, version, payload, cost)
    }

    fn read_slot(&self, id: SlotId, out: &mut [f32], cost: &mut Cost) -> Option<SlotHeader> {
        self.0.read_slot(id, out, cost)
    }

    fn set_checkpoint_id(&self, id: u64, cost: &mut Cost) {
        self.0.set_checkpoint_id(id, cost)
    }
}

/// A node over a fresh remote pool partition, its store wrapped or not.
fn remote_node(wrap: bool) -> PsNode {
    let mut cfg = NodeConfig::small(DIM);
    cfg.cache_bytes = 24 * cfg.bytes_per_cached_entry();
    let shared = SharedPool::new(FabricConfig::default());
    let remote: Arc<dyn StorageBackend> =
        Arc::new(shared.create_partition(0, pool_cfg(), &mut Cost::new()));
    let store = if wrap {
        Arc::new(Forwarding(remote))
    } else {
        remote
    };
    PsNode::with_storage(cfg, store)
}

/// Ten batches of pull → maintain → push over 200 keys and a 24-entry
/// cache, a checkpoint every third batch: each step's cost.
fn run(node: &PsNode) -> Vec<Cost> {
    let mut rng = Rng::seed_from_u64(0x5107);
    let mut costs = Vec::new();
    for batch in 1..=10u64 {
        let keys: Vec<u64> = (0..48).map(|_| rng.below(200)).collect();
        let mut out = Vec::new();
        let mut pull = Cost::new();
        node.pull(&keys, batch, &mut out, &mut pull);
        let mut maintain = Cost::new();
        node.run_maintenance(batch, &mut maintain);
        let grads: Vec<f32> = out.iter().map(|w| w * 0.25 - 0.01).collect();
        let mut push = Cost::new();
        node.push(&keys, &grads, batch, &mut push);
        if batch % 3 == 0 {
            costs.push(node.request_checkpoint(batch));
        }
        costs.extend([pull, maintain, push]);
    }
    costs
}

#[test]
fn a_decorator_of_the_per_slot_ops_keeps_every_read_charge() {
    let (plain, wrapped) = (remote_node(false), remote_node(true));
    let (a, b) = (run(&plain), run(&wrapped));
    let mut total = Cost::new();
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "step {i}");
        total.merge(x);
    }
    assert_eq!(a.len(), b.len());
    // The run reads PMem on every path: pull misses, loads and pushes.
    assert!(total.ops(CostKind::PmemRead) > 100, "{total}");
    assert!(total.ops(CostKind::FabricTransfer) > total.ops(CostKind::PmemRead));
    for key in 0..200 {
        assert_eq!(
            plain.read_weights(key),
            wrapped.read_weights(key),
            "key {key}"
        );
    }
}
