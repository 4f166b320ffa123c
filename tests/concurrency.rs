//! Real-thread concurrency tests: the engines' internal locking must
//! keep state consistent when hammered in parallel (the functional layer
//! of the two-layer evaluation strategy).

use openembedding::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const DIM: usize = 4;

fn oe(cache_entries: usize) -> PsNode {
    let mut cfg = NodeConfig::small(DIM);
    cfg.optimizer = OptimizerKind::Sgd { lr: 0.1 };
    cfg.cache_bytes = cache_entries * cfg.bytes_per_cached_entry();
    PsNode::new(cfg)
}

#[test]
fn parallel_pulls_return_stable_weights() {
    let node = Arc::new(oe(256));
    // Warm 128 keys at batch 1, maintain so they're versioned.
    let keys: Vec<u64> = (0..128).collect();
    let mut out = Vec::new();
    let mut cost = Cost::new();
    node.pull(&keys, 1, &mut out, &mut cost);
    node.end_pull_phase(1);
    let expected = out.clone();

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let node = Arc::clone(&node);
            let keys = keys.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let mut cost = Cost::new();
                for round in 0..30 {
                    out.clear();
                    node.pull(&keys, 2 + round, &mut out, &mut cost);
                    assert_eq!(out, expected, "weights stable under read load");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn parallel_first_touch_initializes_each_key_once() {
    let node = Arc::new(oe(2048));
    let created = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let node = Arc::clone(&node);
            let created = Arc::clone(&created);
            std::thread::spawn(move || {
                // All threads race on the same 512 keys.
                let keys: Vec<u64> = (0..512).map(|i| (i + t * 64) % 512).collect();
                let mut out = Vec::new();
                let mut cost = Cost::new();
                node.pull(&keys, 1, &mut out, &mut cost);
                created.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(node.num_keys(), 512, "no duplicate inserts");
    assert_eq!(node.stats().new_entries, 512, "each key initialized once");
    // And every key reads back its deterministic init.
    for k in 0..512u64 {
        let w = node.read_weights(k).unwrap();
        let expect: Vec<f32> = (0..DIM)
            .map(|i| openembedding::core::init::init_weight(42, k, i, 0.01))
            .collect();
        assert_eq!(w, expect, "key {k}");
    }
}

#[test]
fn concurrent_pushes_to_disjoint_keys_all_apply() {
    let node = Arc::new(oe(4096));
    let n_threads = 8u64;
    let per = 128u64;
    // Warm all keys and run maintenance.
    let all: Vec<u64> = (0..n_threads * per).collect();
    let mut out = Vec::new();
    let mut cost = Cost::new();
    node.pull(&all, 1, &mut out, &mut cost);
    node.end_pull_phase(1);

    let handles: Vec<_> = (0..n_threads)
        .map(|t| {
            let node = Arc::clone(&node);
            std::thread::spawn(move || {
                let keys: Vec<u64> = (t * per..(t + 1) * per).collect();
                let grads = vec![1.0f32; keys.len() * DIM];
                let mut cost = Cost::new();
                node.push(&keys, &grads, 1, &mut cost);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // SGD lr=0.1: every weight moved by exactly -0.1.
    for k in 0..n_threads * per {
        let w = node.read_weights(k).unwrap();
        let init = openembedding::core::init::init_weight(42, k, 0, 0.01);
        assert!((w[0] - (init - 0.1)).abs() < 1e-6, "key {k}");
    }
}

#[test]
fn maintenance_races_with_pulls_without_corruption() {
    // Pulls of batch n+1 proceed while maintenance of batch n drains —
    // the pipeline overlap the paper's design hinges on.
    let node = Arc::new(oe(64));
    let keys: Vec<u64> = (0..256).collect();
    let mut out = Vec::new();
    let mut cost = Cost::new();
    node.pull(&keys, 1, &mut out, &mut cost);

    let n2 = Arc::clone(&node);
    let maint = std::thread::spawn(move || {
        let mut c = Cost::new();
        n2.run_maintenance(1, &mut c);
    });
    let n3 = Arc::clone(&node);
    let puller = std::thread::spawn(move || {
        let mut out = Vec::new();
        let mut c = Cost::new();
        for _ in 0..10 {
            out.clear();
            n3.pull(&(0..64u64).collect::<Vec<_>>(), 2, &mut out, &mut c);
            assert_eq!(out.len(), 64 * DIM);
            assert!(out.iter().all(|v| v.is_finite()));
        }
    });
    maint.join().unwrap();
    puller.join().unwrap();
    // Everything still readable and intact afterwards.
    for k in 0..256u64 {
        assert!(node.read_weights(k).is_some(), "key {k}");
    }
}

#[test]
fn telemetry_registry_consistent_under_writer_reader_race() {
    // N writer threads hammer counter and histogram handles while a
    // reader thread snapshots and renders the registry the whole time.
    // Once the writers join, the totals must be exact — the lock-free
    // recording path may not drop a single sample.
    let registry = Arc::new(Registry::new());
    let n_threads = 8u64;
    let per_thread = 10_000u64;
    let stop = Arc::new(std::sync::atomic::AtomicU64::new(0));

    let reader = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut renders = 0u64;
            while stop.load(Ordering::Relaxed) == 0 {
                let snap = registry.snapshot();
                if let Some(h) = snap.histogram("race_latency_ns") {
                    if h.count() > 0 {
                        // Mid-race quantiles stay inside the observed range.
                        let p99 = h.p99();
                        assert!((1..=1_000_000).contains(&p99), "p99 = {p99}");
                    }
                }
                let text = snap.render_text();
                if snap.counter("race_ops_total").is_some() {
                    assert!(text.contains("race_ops_total"), "text:\n{text}");
                }
                renders += 1;
            }
            renders
        })
    };

    let writers: Vec<_> = (0..n_threads)
        .map(|t| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                // Handles are cheap clones of shared atomics; each
                // thread grabs its own, all feeding the same metrics.
                let ops = registry.counter("race_ops_total");
                let hist = registry.histogram("race_latency_ns");
                for i in 0..per_thread {
                    ops.inc();
                    // Spread values over [1, 1e6].
                    hist.record(1 + (t * per_thread + i) * 999_999 / (n_threads * per_thread));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(1, Ordering::Relaxed);
    let renders = reader.join().unwrap();
    assert!(renders > 0, "reader made progress during the race");

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("race_ops_total"),
        Some(n_threads * per_thread),
        "counter increments all landed"
    );
    let h = snap.histogram("race_latency_ns").expect("histogram");
    assert_eq!(h.count(), n_threads * per_thread, "no sample lost");
    for q in [0.5, 0.95, 0.99, 0.999] {
        let v = h.quantile(q);
        assert!(
            (h.min()..=h.max()).contains(&v),
            "quantile({q}) = {v} outside [{}, {}]",
            h.min(),
            h.max()
        );
    }
}

#[test]
fn baselines_survive_parallel_access_too() {
    let mut cfg = NodeConfig::small(DIM);
    cfg.optimizer = OptimizerKind::Sgd { lr: 0.1 };
    cfg.cache_bytes = 256 * cfg.bytes_per_cached_entry();
    let engines: Vec<Arc<dyn PsEngine>> = vec![
        Arc::new(DramPs::new(cfg.clone(), CkptDevice::Ssd)),
        Arc::new(OriCache::new(cfg.clone(), CkptDevice::Pmem)),
        Arc::new(PmemHash::new(cfg.clone())),
        Arc::new(TfPs::new(cfg.clone(), CkptDevice::Ssd)),
    ];
    for engine in engines {
        let keys: Vec<u64> = (0..64).collect();
        let mut out = Vec::new();
        let mut cost = Cost::new();
        engine.pull(&keys, 1, &mut out, &mut cost);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let e = Arc::clone(&engine);
                let keys = keys.clone();
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    let mut cost = Cost::new();
                    for b in 2..12 {
                        out.clear();
                        e.pull(&keys, b, &mut out, &mut cost);
                        assert_eq!(out.len(), 64 * DIM, "{}", e.name());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(engine.num_keys(), 64, "{}", engine.name());
    }
}
