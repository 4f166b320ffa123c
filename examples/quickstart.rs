//! Quickstart: train a DeepFM against the PMem-backed parameter server
//! on a skewed synthetic workload, take a lightweight checkpoint, crash
//! the machine, recover, and keep training.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use openembedding::core::recovery::recover_node;
use openembedding::prelude::*;
use openembedding::simdevice::Media;
use std::sync::Arc;

fn main() {
    println!("== OpenEmbedding-RS quickstart ==\n");

    // 1. A PS node: dim-16 embeddings, AdaGrad, 256 KiB DRAM cache on
    //    top of simulated PMem.
    let mut node_cfg = NodeConfig::small(16);
    node_cfg.cache_bytes = 256 << 10;
    let node = PsNode::new(node_cfg.clone());
    println!("PS node: {}", node.pool().describe());

    // 2. A skewed workload shaped like the paper's production trace.
    let spec = WorkloadSpec {
        num_keys: 50_000,
        fields: 8,
        batch_size: 256,
        workers: 2,
        skew: SkewModel::paper_fit(),
        seed: 7,
        drift_keys_per_batch: 0,
    };

    // 3. Train a real DeepFM for 30 batches on the synchronous (k = 0)
    //    schedule — the paper's batch: pull → compute ∥ maintenance → push.
    let mut tcfg = TrainerConfig::paper(2);
    tcfg.mode = TrainMode::DeepFm(DeepFmConfig {
        dim: 16,
        fields: 8,
        dense_features: 0,
        hidden: vec![32, 16],
        dense_lr: 0.02,
        seed: 1,
    });
    let mut trainer =
        PipelinedTrainer::with_client(&node, spec.clone(), tcfg, PipelineConfig::sync());
    let r1 = trainer.run(1, 30).train;
    println!("\nafter 30 batches : {}", r1.summary());
    println!("  avg logloss    : {:.4}", r1.avg_loss.unwrap());
    println!("  virtual time   : {:.2} s", r1.total_secs());

    // 4. Lightweight batch-aware checkpoint at batch 30.
    let req_cost = node.request_checkpoint(30);
    println!("\ncheckpoint request cost: {req_cost} (near-zero: just an enqueue)");
    trainer.run(31, 10); // the commit rides the next maintenance
    println!(
        "after 10 more    : committed checkpoint = {}",
        node.committed_checkpoint()
    );

    // 5. Power failure! The DRAM cache is gone; PMem survives (with
    //    torn unfenced lines).
    let probe_key = 42u64;
    let before = node.read_weights(probe_key);
    let media = Arc::new(Media::from_crash(node.pool().media().crash(0xDEAD)));
    let mut rec_cost = Cost::new();
    let (recovered, report) =
        recover_node(media, node_cfg, &mut rec_cost).expect("pool is recoverable");
    println!(
        "\nrecovered {} entries to batch {} (scanned {} slots, {:.1} MB, discarded {} uncommitted)",
        report.scan.live.len(),
        report.resume_batch,
        report.scan.scanned_slots,
        report.scan.scan_bytes as f64 / 1e6,
        report.scan.discarded_future,
    );
    let after = recovered.read_weights(probe_key);
    println!(
        "key {probe_key}: pre-crash weight[0] = {:?}, recovered = {:?} (checkpoint-time state)",
        before.map(|w| w[0]),
        after.map(|w| w[0])
    );

    // 6. Resume training from the checkpoint.
    let mut tcfg = TrainerConfig::paper(2);
    tcfg.mode = TrainMode::Synthetic { grad_scale: 0.01 };
    let mut trainer = PipelinedTrainer::with_client(&recovered, spec, tcfg, PipelineConfig::sync());
    let resume_from = report.resume_batch + 1;
    let r3 = trainer.run(resume_from, 10).train;
    println!("\nresumed at batch {resume_from}: {}", r3.summary());
    println!("\nquickstart complete.");
}
