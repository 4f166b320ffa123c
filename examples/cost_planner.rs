//! Cost planner: the paper's Table V argument, as a tool.
//!
//! Given a model size, sizes the cheapest feasible deployment per
//! engine, runs a short simulated training segment to estimate epoch
//! time, and prints $/epoch — reproducing the "PMem saves 42% storage
//! cost over pure DRAM" headline.
//!
//! ```sh
//! cargo run --release --example cost_planner
//! ```

use openembedding::prelude::*;

fn main() {
    println!("== PS deployment cost planner (Table V methodology) ==\n");
    let model_gb = 500.0;
    println!("model size: {model_gb} GB of embeddings\n");

    // Feasibility: DRAM-PS needs enough DRAM across servers; PMem
    // engines need enough PMem on one server.
    let costs = CloudCostModel::paper();
    let dram_dep = PsDeployment::DramServers { count: 2 }; // 2 × 384 GB
    let pmem_dep = PsDeployment::PmemServers { count: 1 }; // 756 GB PMem
    assert!(costs.dram_gb(dram_dep) as f64 >= model_gb);
    assert!(costs.pmem_gb(pmem_dep) as f64 >= model_gb);

    // Short DES segment per engine on the scaled workload; the ratio of
    // per-batch times stands in for the ratio of epoch times.
    let spec = WorkloadSpec {
        num_keys: 100_000,
        fields: 16,
        batch_size: 1024,
        workers: 4,
        skew: SkewModel::paper_fit(),
        seed: 11,
        drift_keys_per_batch: 0,
    };
    let mut node_cfg = NodeConfig::small(32);
    node_cfg.cache_bytes = (spec.num_keys as usize * node_cfg.payload_bytes()) / 250;
    node_cfg.pmem_capacity = 1 << 28;

    // Every engine is a `PsClient`; k = 0 is the paper's synchronous batch.
    let run = |engine: &dyn PsClient| -> f64 {
        let mut cfg = TrainerConfig::paper(4);
        cfg.ckpt = CheckpointScheduler::disabled();
        let mut t =
            PipelinedTrainer::with_client(engine, spec.clone(), cfg, PipelineConfig::sync());
        // Warm one pass over the hot set, then measure.
        t.run(1, 10);
        t.run(11, 30).train.ns_per_batch()
    };

    let oe = PsNode::new(node_cfg.clone());
    let dram = DramPs::new(node_cfg.clone(), CkptDevice::Ssd);
    let ori = OriCache::new(node_cfg.clone(), CkptDevice::Pmem);
    let t_oe = run(&oe);
    let t_dram = run(&dram);
    let t_ori = run(&ori);

    // Anchor: the paper's DRAM-PS epoch is 5.75 h; scale others by the
    // simulated per-batch ratios.
    let dram_epoch_h = 5.75;
    let oe_epoch_h = dram_epoch_h * t_oe / t_dram;
    let ori_epoch_h = dram_epoch_h * t_ori / t_dram;

    println!(
        "{:<10} {:>12} {:>10} {:>12} {:>12}",
        "engine", "deployment", "$/hour", "epoch (h)", "$/epoch"
    );
    let mut rows = Vec::new();
    for (name, dep, hours) in [
        ("DRAM-PS", dram_dep, dram_epoch_h),
        ("PMem-OE", pmem_dep, oe_epoch_h),
        ("Ori-Cache", pmem_dep, ori_epoch_h),
    ] {
        let per_hour = costs.per_hour(dep);
        let per_epoch = costs.per_epoch(dep, hours);
        println!(
            "{:<10} {:>12} {:>10.2} {:>12.2} {:>12.2}",
            name,
            match dep {
                PsDeployment::DramServers { count } => format!("{count}×DRAM"),
                PsDeployment::PmemServers { count } => format!("{count}×PMem"),
            },
            per_hour,
            hours,
            per_epoch
        );
        rows.push((name, per_epoch));
    }
    let dram_cost = rows[0].1;
    let oe_cost = rows[1].1;
    println!(
        "\nPMem-OE saves {:.0}% per epoch vs DRAM-PS (paper: 42%)",
        (1.0 - oe_cost / dram_cost) * 100.0
    );
}
