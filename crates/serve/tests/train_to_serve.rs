//! Training → snapshot flip → serving: a node trains through two
//! checkpoints, the serving plane answers from the first while the
//! publisher flips the second in mid-traffic, and every read comes
//! whole from one of the two. `e2e/` `serve-flip` measures this path end
//! to end.

use oe_core::{BatchCadence, NodeConfig, OptimizerKind, PsEngine, PsNode};
use oe_serve::{
    recall_at_k, AnnConfig, CheckpointPublisher, ExactScan, LshRetriever, Retriever, Snapshot,
    SnapshotHandle,
};
use oe_simdevice::{Cost, CrashImage};
use oe_workload::{SkewModel, StormGen, StormSpec};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// Checkpoint A at batch 3, B at batch 6.
const NUM_KEYS: u64 = 1_500;
const DIM: usize = 8;
const CKPT_A: u64 = 3;
const CKPT_B: u64 = 6;
const K: usize = 5;
const READERS: usize = 2;
const TOPK_EVERY: u64 = 16;

fn storm() -> StormGen {
    StormGen::new(StormSpec {
        num_keys: NUM_KEYS,
        keys_per_batch: 256,
        hot_keys: (0..64).collect(),
        hot_share: 0.2,
        storm_start: 0,
        storm_end: u64::MAX,
        base: SkewModel::paper_fit(),
        seed: 0x5E1A,
    })
}

/// Train through both checkpoints (batch 1 touches the whole table,
/// the rest replay the skewed stream). Returns the live node, whose
/// committed checkpoint B the publisher captures, and A's image.
fn train() -> (PsNode, CrashImage) {
    let mut nc = NodeConfig::small(DIM);
    nc.optimizer = OptimizerKind::Sgd { lr: 0.05 };
    nc.pmem_capacity = (NUM_KEYS as usize * (DIM * 4 + 64) * 8)
        .next_power_of_two()
        .max(1 << 22);
    let node = PsNode::new(nc);
    let gen = storm();
    let mut cadence = BatchCadence::every(CKPT_A);
    let mut cost = Cost::new();
    let mut image_a = None;
    for b in 1..=CKPT_B {
        let keys = if b == 1 {
            (0..NUM_KEYS).collect()
        } else {
            gen.batch_keys(b)
        };
        node.pull(&keys, b, &mut Vec::new(), &mut cost);
        node.end_pull_phase(b);
        // The previous boundary's checkpoint commits during this
        // pull phase; capture A's image the moment it lands.
        if image_a.is_none() && node.committed_checkpoint() == CKPT_A {
            image_a = Some(node.pool().media().crash(CKPT_A));
        }
        let grads: Vec<f32> = (0..keys.len() * DIM)
            .map(|i| ((i % 17) as f32 - 8.0) * 0.02 + (b % 29) as f32 * 0.001)
            .collect();
        node.push(&keys, &grads, b, &mut cost);
        if cadence.due(b) {
            node.request_checkpoint(b);
        }
    }
    // One more pull phase commits checkpoint B.
    node.pull(&[0], CKPT_B + 1, &mut Vec::new(), &mut cost);
    node.end_pull_phase(CKPT_B + 1);
    (
        node,
        image_a.expect("checkpoint A committed during training"),
    )
}

#[test]
fn serve_bench_flips_mid_traffic_and_stays_consistent() {
    let (node, image_a) = train();
    let gen = storm();

    // Exact vs one LSH shape on checkpoint B.
    let image_b = node.pool().media().crash(CKPT_B);
    let exact = Snapshot::build(image_b.clone(), DIM, None).expect("checkpoint B snapshot");
    let ann = AnnConfig::shaped(8, 8, 6);
    let lsh = Snapshot::build(image_b, DIM, Some(&ann)).expect("ANN snapshot");
    let (mut recall, mut exact_ns, mut lsh_ns) = (0.0, 0, 0);
    let queries = 40;
    for r in 0..queries {
        let key = gen.request_key(r + (1 << 40));
        let q = exact.lookup(key).0.expect("trained key").to_vec();
        let (truth, c) = ExactScan.top_k(&exact, &q, K);
        exact_ns += c.total_ns();
        let (top, c) = LshRetriever.top_k(&lsh, &q, K);
        lsh_ns += c.total_ns();
        recall += recall_at_k(&truth, &top);
    }
    assert!(recall / queries as f64 > 0.5, "recall {recall}");
    assert!(
        exact_ns > lsh_ns,
        "ANN must be cheaper: {lsh_ns} vs {exact_ns}"
    );

    // Readers serve from A while the publisher flips B in through the
    // training → serving wiring; every read must come whole from one
    // of the two checkpoints, and both must be seen.
    let snap_a = Snapshot::build(image_a, DIM, Some(&AnnConfig::paper_default()));
    let handle = Arc::new(SnapshotHandle::new(Arc::new(snap_a.expect("A snapshot"))));
    let mut publisher =
        CheckpointPublisher::new(Arc::clone(&handle), DIM, Some(AnnConfig::paper_default()));
    assert_eq!(publisher.last_published(), CKPT_A);
    let (started, flipped) = (AtomicUsize::new(0), AtomicBool::new(false));
    let (epoch, served) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|t| {
                let (handle, gen) = (&handle, &gen);
                let (started, flipped) = (&started, &flipped);
                s.spawn(move || {
                    let mut reader = handle.reader();
                    let (mut on_a, mut on_b, mut consistent) = (0u64, 0u64, true);
                    let mut after_flip = 0;
                    let mut req = t as u64;
                    while after_flip < 200 {
                        after_flip += u32::from(flipped.load(Ordering::Acquire));
                        let key = gen.request_key(req);
                        let snap = reader.acquire();
                        match (snap.checkpoint(), snap.lookup(key).0) {
                            (CKPT_A, Some(_)) => on_a += 1,
                            (CKPT_B, Some(_)) => on_b += 1,
                            _ => consistent = false,
                        }
                        if req.is_multiple_of(TOPK_EVERY) {
                            let q = snap.lookup(key).0.unwrap_or(&[]).to_vec();
                            consistent &= !reader.retrieve(&q, K, &LshRetriever).0.is_empty();
                        }
                        if req < READERS as u64 {
                            started.fetch_add(1, Ordering::Release);
                        }
                        req += READERS as u64;
                    }
                    (on_a, on_b, consistent)
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while started.load(Ordering::Acquire) < READERS && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let epoch = publisher.maybe_publish(&node);
        flipped.store(true, Ordering::Release);
        let served: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
        (epoch, served)
    });
    assert_eq!(epoch, Some(2), "exactly one mid-run flip");
    assert_eq!(handle.epoch(), 2);
    for (t, &(on_a, on_b, consistent)) in served.iter().enumerate() {
        assert!(consistent, "reader {t}: every read from checkpoint A or B");
        assert!(on_a > 0 && on_b > 0, "reader {t}: flip landed mid-traffic");
    }
}

#[test]
fn training_commits_both_checkpoints() {
    let (node, _image_a) = train();
    assert_eq!(node.committed_checkpoint(), CKPT_B);
}
