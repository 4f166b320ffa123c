//! CTR prediction on the synthetic Criteo-like dataset (the paper's
//! Fig. 15 scenario): a DeepFM over 26 categorical fields + 13 dense
//! features, sparse embeddings on the PMem parameter server.
//!
//! Prints logloss and cache behaviour as training progresses; logloss
//! should fall well below the chance baseline (ln 2 ≈ 0.693).
//!
//! ```sh
//! cargo run --release --example ctr_training
//! ```

use openembedding::prelude::*;
use openembedding::workload::criteo::{CAT_FIELDS, DENSE_FEATURES};

const DIM: usize = 16;
const BATCH: usize = 256;
const BATCHES: u64 = 150;

fn main() {
    println!("== CTR training on synthetic Criteo ==\n");
    let data = CriteoSynth::new(2024);
    println!(
        "dataset: {} categorical fields, {} dense features, {} total keys",
        CAT_FIELDS,
        DENSE_FEATURES,
        data.total_keys()
    );

    // PS node: cache sized at ~6% of the embedding table (the paper uses
    // 128 MB ≈ 6.4% for dim 16).
    let mut cfg = NodeConfig::small(DIM);
    cfg.optimizer = OptimizerKind::Adagrad {
        lr: 0.08,
        eps: 1e-8,
    };
    let table_bytes = data.total_keys() as usize * cfg.payload_bytes();
    cfg.cache_bytes = table_bytes / 16;
    cfg.pmem_capacity = table_bytes * 2;
    let node = PsNode::new(cfg);

    let mut model = DeepFm::new(DeepFmConfig {
        dim: DIM,
        fields: CAT_FIELDS,
        dense_features: DENSE_FEATURES,
        hidden: vec![64, 32],
        dense_lr: 0.01,
        seed: 5,
    });

    // The framework-facing layer: PullWeights + gather on the way in,
    // scatter-add + PushGradients on the way out.
    let layer = EmbeddingLayer::new(&node, CAT_FIELDS);
    let mut cost = Cost::new();
    let mut window_loss = 0.0f64;
    let mut window_n = 0u64;
    println!(
        "\n{:>6} {:>10} {:>10} {:>12}",
        "batch", "logloss", "miss%", "PS keys"
    );
    for b in 1..=BATCHES {
        let samples = data.batch((b - 1) * BATCH as u64, BATCH);
        let sample_keys: Vec<Vec<u64>> = samples.iter().map(|s| s.cat_keys.clone()).collect();
        let act = layer.forward(b, &sample_keys, &mut cost);

        // Train, collecting each sample's embedding gradients in order.
        let mut d_emb = Vec::with_capacity(act.embeddings.len());
        for (i, s) in samples.iter().enumerate() {
            let (loss, d) = model.train_example(act.sample(i), &s.dense, s.label);
            window_loss += loss as f64;
            window_n += 1;
            d_emb.extend_from_slice(&d);
        }
        model.step_dense();
        layer.backward(&act, &d_emb, &mut cost);

        if b % 10 == 0 {
            let s = node.stats();
            println!(
                "{:>6} {:>10.4} {:>9.2}% {:>12}",
                b,
                window_loss / window_n as f64,
                s.miss_rate() * 100.0,
                node.num_keys()
            );
            window_loss = 0.0;
            window_n = 0;
        }
    }

    let s = node.stats();
    println!(
        "\nfinal: {} distinct keys on the PS, {} pulls ({} hits / {} misses / {} new)",
        node.num_keys(),
        s.pulls,
        s.hits,
        s.misses,
        s.new_entries
    );
    println!("virtual storage cost charged: {cost}");
    println!("\nCTR example complete — logloss should be well under 0.693 (chance).");
}
