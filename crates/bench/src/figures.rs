//! One generator per paper artifact. Each prints the measured series
//! alongside the paper's published values so shape agreement is
//! inspectable at a glance. EXPERIMENTS.md records the comparison.

use crate::scenario::{run_scenario, CkptSetup, EngineKind, Scenario};
use oe_baselines::{CkptDevice, DramPs};
use oe_core::engine::PsEngine;
use oe_core::{NodeConfig, PsNode};
use oe_simdevice::clock::secs;
use oe_simdevice::{Cost, CostKind, DeviceKind, DeviceTiming, Media, MediaConfig};
use oe_train::failure::crash_and_recover;
use oe_train::{PipelineConfig, PipelinedTrainer, TrainMode, TrainerConfig};
use oe_workload::analyze::{top_share_empirical, RankFrequency};
use oe_workload::{SkewModel, WorkloadGen};

fn hr(title: &str) {
    println!("\n==== {title} ====");
}

/// Table I: device bandwidth/latency — configured model vs a measured
/// microbenchmark on the simulated media (1 MiB streaming transfer and
/// single-line random access, in virtual time).
pub fn table1(_sc: &Scenario) {
    hr("Table I — device performance (GB/s, ns)");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10}   {:>12} {:>12}",
        "device", "R bw", "W bw", "R lat", "W lat", "meas R GB/s", "meas W GB/s"
    );
    for kind in [DeviceKind::Dram, DeviceKind::Pmem, DeviceKind::FlashSsd] {
        let t = DeviceTiming::of(kind);
        // Measured: stream 1 MiB through a media instance.
        let media = Media::new(MediaConfig {
            device: kind,
            capacity: 1 << 21,
        });
        let mut c = Cost::new();
        let buf = vec![0u8; 1 << 20];
        media.write(0, &buf, &mut c);
        media.persist(0, 1 << 20, &mut c);
        let w_ns = c
            .ns(t.write_cost_kind())
            .max(c.ns(CostKind::DramTransfer))
            .max(1);
        let mut c2 = Cost::new();
        let mut rbuf = vec![0u8; 1 << 20];
        media.read(0, &mut rbuf, &mut c2);
        let r_ns = c2.ns(t.read_cost_kind()).max(1);
        println!(
            "{:<10} {:>10.1} {:>10.1} {:>10} {:>10}   {:>12.1} {:>12.1}",
            format!("{kind:?}"),
            t.read_bw_bytes_per_ns,
            t.write_bw_bytes_per_ns,
            t.read_lat_ns,
            t.write_lat_ns,
            (1u64 << 20) as f64 / r_ns as f64,
            (1u64 << 20) as f64 / w_ns as f64,
        );
    }
    println!("paper Table I: DRAM 115/79 GB/s 81/86 ns · PMem 39/14 GB/s 305/94 ns · SSD 2-3/1-2 GB/s >10000 ns");
}

/// Table II: top-k% access share of the generated workload.
pub fn table2(sc: &Scenario) {
    hr("Table II — access skew of the workload");
    let gen = WorkloadGen::new(sc.workload(4));
    let counts = gen.access_counts(40);
    let model = SkewModel::paper_fit().scaled(sc.skew_scale);
    println!(
        "{:<12} {:>12} {:>12} {:>10}",
        "top-k%", "measured", "analytic", "paper"
    );
    for (frac, paper) in [(0.0005, 85.7), (0.001, 89.5), (0.01, 95.7)] {
        println!(
            "{:<12} {:>11.1}% {:>11.1}% {:>9.1}%",
            format!("top {:.2}%", frac * 100.0),
            top_share_empirical(&counts, frac) * 100.0,
            model.share_top(frac) * 100.0,
            paper
        );
    }
}

/// Fig. 2: per-millisecond pull/update arrivals over two batches.
pub fn fig2(sc: &Scenario) {
    hr("Fig. 2 — access pattern in two batches (requests per ms)");
    let engine = EngineKind::Oe.build(sc);
    let trainer =
        |cfg| PipelinedTrainer::with_client(&engine, sc.workload(8), cfg, PipelineConfig::sync());
    let mut cfg = TrainerConfig::paper(8);
    cfg.mode = TrainMode::Synthetic { grad_scale: 0.01 };
    trainer(cfg).run(1, 5);
    let mut cfg = TrainerConfig::paper(8);
    cfg.record_trace = true;
    let r = trainer(cfg).run(6, 2).train;
    let trace = r.trace_per_ms.expect("trace");
    let (p, u): (u64, u64) = trace
        .iter()
        .fold((0, 0), |(p, u), b| (p + b.pulls, u + b.updates));
    println!("{:<6} {:>10} {:>10}", "ms", "pulls", "updates");
    for b in &trace {
        if b.pulls + b.updates > 0 {
            println!("{:<6} {:>10} {:>10}", b.ms, b.pulls, b.updates);
        }
    }
    println!("totals: pulls={p} updates={u} (paper: pull/update pairs, equal totals)");
    println!("bursts at batch edges with an idle compute gap in between — matches Fig. 2.");
}

fn norm_sweep(
    title: &str,
    sc: &Scenario,
    rows: &[(EngineKind, CkptSetup)],
    workers: &[u32],
    paper: &[(&str, &[f64])],
) {
    hr(title);
    // Baseline: first row at the first worker count.
    let base = run_scenario(rows[0].0, sc, workers[0], rows[0].1).total_ns as f64;
    print!("{:<18}", "engine");
    for w in workers {
        print!(" {:>8}", format!("{w} GPU"));
    }
    println!();
    for &(kind, ckpt) in rows {
        print!("{:<18}", kind.label());
        for &w in workers {
            let r = run_scenario(kind, sc, w, ckpt);
            print!(" {:>8.3}", r.total_ns as f64 / base);
        }
        println!();
    }
    for (label, vals) in paper {
        print!("paper {label:<12}");
        for v in *vals {
            print!(" {v:>8.3}");
        }
        println!();
    }
}

/// Fig. 3: penalty of the fine-grained hybrid & PMem-Hash vs DRAM-PS.
pub fn fig3(sc: &Scenario) {
    norm_sweep(
        "Fig. 3 — fine-grained hybrid / PMem-Hash penalty (normalized to DRAM-PS @ 4 GPUs)",
        sc,
        &[
            (EngineKind::DramPs, CkptSetup::None),
            (EngineKind::OriCache, CkptSetup::None),
            (EngineKind::PmemHash, CkptSetup::None),
        ],
        &[4, 8, 16],
        &[
            ("DRAM-PS", &[1.0, 0.60, 0.35]),
            ("Ori-Cache", &[1.24, 0.936, 0.795]),
            ("PMem-Hash", &[1.16, 1.11, 1.11]),
        ],
    );
    println!("(paper rows derived from: Ori +24%/55.8%/+127%, PMem-Hash 1.16/1.85/3.17× relative to same-GPU DRAM-PS)");
}

/// Fig. 6: end-to-end with checkpoints every interval.
pub fn fig6(sc: &Scenario, interval_ns: u64) {
    norm_sweep(
        "Fig. 6 — end-to-end training time with checkpoints (normalized to DRAM-PS @ 4 GPUs)",
        sc,
        &[
            (EngineKind::DramPs, CkptSetup::Incremental { interval_ns }),
            (EngineKind::Oe, CkptSetup::Proposed { interval_ns }),
            (EngineKind::OriCache, CkptSetup::Incremental { interval_ns }),
        ],
        &[4, 8, 16],
        &[
            ("DRAM-PS", &[1.0, 0.60, 0.35]),
            ("PMem-OE", &[0.928, 0.562, 0.330]),
            ("Ori-Cache", &[1.218, 0.890, 0.714]),
        ],
    );
    println!(
        "(paper: PMem-OE 7.2/6.4/5.6% faster than DRAM-PS; 23.8/36.9/53.8% faster than Ori-Cache)"
    );
}

/// Fig. 7: pipelined cache, no checkpoints.
pub fn fig7(sc: &Scenario) {
    norm_sweep(
        "Fig. 7 — pipelined cache performance, no checkpoints (normalized to DRAM-PS @ 4 GPUs)",
        sc,
        &[
            (EngineKind::DramPs, CkptSetup::None),
            (EngineKind::Oe, CkptSetup::None),
            (EngineKind::OriCache, CkptSetup::None),
        ],
        &[4, 8, 16],
        &[
            ("DRAM-PS", &[1.0, 0.60, 0.35]),
            ("PMem-OE", &[1.012, 0.626, 0.380]),
            ("Ori-Cache", &[1.24, 0.936, 0.795]),
        ],
    );
    println!("(paper: OE within 1.2%/4.3%/8.7% of DRAM-PS; 18.4%/33%/52.1% faster than Ori-Cache)");
}

/// Fig. 8: DRAM cache size sweep at 16 GPUs.
pub fn fig8(sc: &Scenario) {
    hr("Fig. 8 — impact of DRAM cache size @ 16 GPUs (normalized to the smallest cache)");
    // The paper sweeps 10 MB → 20 GB against a 500 GB model. What drives
    // the curve is the ratio of cache entries to the per-batch working
    // set (10 MB ≈ 0.22× of it, 2 GB ≈ 46×), so we sweep that ratio —
    // sweeping raw byte fractions on the scaled key space would place
    // every small point deep in the thrash regime.
    let unique_per_batch = {
        let gen = WorkloadGen::new(sc.workload(16));
        let batch = gen.global_batch(3);
        let mut all: Vec<u64> = batch.iter().flat_map(|b| b.unique_keys.clone()).collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    };
    let ratios: &[(f64, &str, Option<f64>)] = &[
        (0.22, "10MB≙", Some(1.0)),
        (0.45, "20MB≙", Some(0.856)),
        (0.90, "40MB≙", Some(0.820)),
        (2.25, "100MB≙", Some(0.751)),
        (9.0, "400MB≙", Some(0.678)),
        (46.0, "2GB≙", Some(0.618)),
        (460.0, "20GB≙", Some(0.612)),
    ];
    let mut base = None;
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>10}",
        "cache", "entries", "miss%", "norm time", "paper"
    );
    for &(ratio, label, paper) in ratios {
        let mut s = sc.clone();
        let entries = (ratio * unique_per_batch as f64).max(4.0);
        s.cache_frac =
            entries * s.node_config().bytes_per_cached_entry() as f64 / s.model_bytes() as f64;
        let r = run_scenario(EngineKind::Oe, &s, 16, CkptSetup::None);
        let b = *base.get_or_insert(r.total_ns as f64);
        println!(
            "{:<10} {:>12} {:>9.2}% {:>10.3} {:>10}",
            label,
            s.node_config().cache_entries(),
            r.miss_rate() * 100.0,
            r.total_ns as f64 / b,
            paper.map_or("-".into(), |p| format!("{p:.3}")),
        );
    }
    println!("(paper: −14.4/−18/−24.9/−32.2/−38.2% vs 10 MB; 20 GB only ~1% better than 2 GB)");
}

/// Fig. 9: cache × pipeline ablation at 16 GPUs.
pub fn fig9(sc: &Scenario) {
    hr("Fig. 9 — individual improvement of cache and pipeline @ 16 GPUs");
    let configs = [
        (
            EngineKind::OeAblation {
                cache: false,
                pipeline: false,
            },
            Some(1.0),
        ),
        (
            EngineKind::OeAblation {
                cache: true,
                pipeline: false,
            },
            Some(0.579),
        ),
        (
            EngineKind::OeAblation {
                cache: true,
                pipeline: true,
            },
            Some(0.261),
        ),
    ];
    let mut base = None;
    println!("{:<20} {:>10} {:>10}", "config", "norm time", "paper");
    for (kind, paper) in configs {
        let r = run_scenario(kind, sc, 16, CkptSetup::None);
        let b = *base.get_or_insert(r.total_ns as f64);
        println!(
            "{:<20} {:>10.3} {:>10}",
            kind.label(),
            r.total_ns as f64 / b,
            paper.map_or("-".into(), |p: f64| format!("{p:.3}")),
        );
    }
    println!("(paper: cache −42.1%, pipeline −54.9%, both −73.9%)");
}

/// Fig. 10: rank-frequency distributions and exponential fits.
pub fn fig10(sc: &Scenario) {
    hr("Fig. 10 — workload rank-frequency fits (original / more / less skew)");
    for (scale, name) in [(1.0, "original"), (3.0, "more skew"), (0.3, "less skew")] {
        let mut s = sc.clone();
        s.skew_scale = scale;
        let gen = WorkloadGen::new(s.workload(4));
        let counts = gen.access_counts(30);
        let rf = RankFrequency::from_counts(&counts, 400);
        let (a, lambda) = rf.fit_exponential(s.num_keys);
        let model = SkewModel::paper_fit().scaled(scale);
        println!(
            "{:<10} fit: freq ≈ {:8.1}·e^(−{:.0}·rank/n)   top0.1%: {:.1}%   top1%: {:.1}%",
            name,
            a,
            lambda,
            model.share_top(0.001) * 100.0,
            model.share_top(0.01) * 100.0,
        );
    }
    println!(
        "(paper: exponential-decay fits; adjusted parameters give the more/less-skew variants)"
    );
}

/// Fig. 11: training time & miss rate under different skews @ 16 GPUs.
pub fn fig11(sc: &Scenario) {
    hr("Fig. 11 — training time & miss rate vs skew @ 16 GPUs (normalized to DRAM-PS per skew)");
    println!(
        "{:<12} {:<12} {:>10} {:>10}",
        "skew", "engine", "norm time", "miss%"
    );
    for (scale, name, paper_miss) in [
        (3.0, "more", 10.04),
        (1.0, "original", 13.63),
        (0.3, "less", 17.08),
    ] {
        let mut s = sc.clone();
        s.skew_scale = scale;
        let base = run_scenario(EngineKind::DramPs, &s, 16, CkptSetup::None);
        for kind in [EngineKind::DramPs, EngineKind::Oe, EngineKind::OriCache] {
            let r = run_scenario(kind, &s, 16, CkptSetup::None);
            println!(
                "{:<12} {:<12} {:>10.3} {:>9.2}%",
                name,
                kind.label(),
                r.total_ns as f64 / base.total_ns as f64,
                r.miss_rate() * 100.0
            );
        }
        println!("  (paper miss rate at this skew: {paper_miss}%)");
    }
    println!("(paper: OE degrades <5% from original→less skew while Ori-Cache degrades >20%)");
}

/// Fig. 12: checkpoint-interval sweep @ 16 GPUs.
pub fn fig12(sc: &Scenario, base_interval_ns: u64) {
    hr("Fig. 12 — training time vs checkpoint interval @ 16 GPUs (normalized to No-Checkpoint)");
    let no_ckpt = run_scenario(EngineKind::Oe, sc, 16, CkptSetup::None).total_ns as f64;
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8}",
        "variant", "1×", "2×", "3×", "4×"
    );
    type SetupFn = fn(u64) -> CkptSetup;
    let variants: [(&str, EngineKind, SetupFn); 3] = [
        ("PMem-OE (Proposed)", EngineKind::Oe, |i| {
            CkptSetup::Proposed { interval_ns: i }
        }),
        ("PMem-OE (SparseOnly)", EngineKind::Oe, |i| {
            CkptSetup::SparseOnly { interval_ns: i }
        }),
        ("PMem-OE (Incremental)", EngineKind::OeIncremental, |i| {
            CkptSetup::Incremental { interval_ns: i }
        }),
    ];
    for (name, kind, setup) in variants {
        print!("{name:<22}");
        for mult in 1..=4u64 {
            let r = run_scenario(kind, sc, 16, setup(base_interval_ns * mult));
            print!(" {:>8.3}", r.total_ns as f64 / no_ckpt);
        }
        println!();
    }
    println!("paper @10/20/30/40min: Proposed 1.024/1.012/1.008/1.006 · SparseOnly ≈1.000 · Incremental ≈1.24/1.21/1.19/1.17");
}

/// Fig. 13: checkpoint overhead vs GPU count at the default interval.
pub fn fig13(sc: &Scenario, interval_ns: u64) {
    hr("Fig. 13 — checkpoint overhead vs #GPUs (overhead % over No-Checkpoint at same GPUs)");
    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "GPUs", "Proposed", "SparseOnly", "paper"
    );
    for w in [4u32, 8, 16] {
        let none = run_scenario(EngineKind::Oe, sc, w, CkptSetup::None).total_ns as f64;
        let prop = run_scenario(EngineKind::Oe, sc, w, CkptSetup::Proposed { interval_ns }).total_ns
            as f64;
        let sparse = run_scenario(EngineKind::Oe, sc, w, CkptSetup::SparseOnly { interval_ns })
            .total_ns as f64;
        println!(
            "{:<12} {:>11.2}% {:>11.2}% {:>12}",
            w,
            (prop / none - 1.0) * 100.0,
            (sparse / none - 1.0) * 100.0,
            "+1.2% / ~0%"
        );
    }
    println!(
        "(paper: Proposed ≈ +1.2% at every GPU count — all from the dense dump; SparseOnly ≈ 0%)"
    );
}

/// Fig. 14: recovery time comparison.
pub fn fig14(sc: &Scenario) {
    hr("Fig. 14 — recovery time (virtual seconds, scaled model)");
    let workers = 4u32;
    // Build comparable trained+checkpointed state per engine.
    let build_dram = |device: CkptDevice| -> (DramPs, NodeConfig) {
        let cfg = sc.node_config();
        let engine = DramPs::new(cfg.clone(), device);
        let mut tc = TrainerConfig::paper(workers);
        tc.mode = TrainMode::Synthetic { grad_scale: 0.01 };
        PipelinedTrainer::with_client(&engine, sc.workload(workers), tc, PipelineConfig::sync())
            .run(1, sc.warm_batches);
        engine.request_checkpoint(sc.warm_batches);
        (engine, cfg)
    };

    let mut results: Vec<(String, f64, usize)> = Vec::new();
    for (device, label) in [
        (CkptDevice::Ssd, "DRAM-PS (ckpt on SSD)"),
        (CkptDevice::Pmem, "DRAM-PS (ckpt on PMem)"),
    ] {
        let (engine, cfg) = build_dram(device);
        let media = std::sync::Arc::clone(engine.ckpt_log().media());
        let mut cost = Cost::new();
        let (node, _resume) = DramPs::recover(&media, cfg, device, &mut cost).expect("recover");
        let model = oe_simdevice::ContentionModel::new(1, 1);
        results.push((
            label.to_string(),
            model.burst_ns(&cost) as f64 / 1e9,
            node.num_keys(),
        ));
    }
    {
        let cfg = sc.node_config();
        let engine = PsNode::new(cfg.clone());
        let mut tc = TrainerConfig::paper(workers);
        tc.mode = TrainMode::Synthetic { grad_scale: 0.01 };
        let mut t = PipelinedTrainer::with_client(
            &engine,
            sc.workload(workers),
            tc,
            PipelineConfig::sync(),
        );
        t.run(1, sc.warm_batches);
        engine.request_checkpoint(sc.warm_batches);
        t.run(sc.warm_batches + 1, 2); // commit
        drop(t);
        let (node, outcome) = crash_and_recover(&engine, cfg, 7, 1);
        results.push((
            "PMem-OE (in-place scan)".to_string(),
            outcome.recovery_ns as f64 / 1e9,
            node.num_keys(),
        ));
    }
    let oe_time = results.last().unwrap().1;
    println!(
        "{:<26} {:>12} {:>10} {:>10}",
        "system", "recovery (s)", "keys", "vs OE"
    );
    for (label, secs, keys) in &results {
        println!(
            "{label:<26} {:>12.4} {keys:>10} {:>9.2}×",
            secs,
            secs / oe_time
        );
    }
    println!("(paper: 1512.8 s SSD / 751.1 s PMem-file / 380.2 s OE → 3.97× / 1.98× vs OE)");
}

/// Fig. 15: Criteo-scale comparison with the framework PS.
pub fn fig15(sc: &Scenario) {
    hr("Fig. 15 — Criteo comparison (normalized to Tensorflow, dim 16, 1 GPU)");
    let mut base = None;
    println!(
        "{:<12} {:<12} {:>8} {:>8} {:>8}",
        "dim", "engine", "1 GPU", "2 GPU", "4 GPU"
    );
    for dim in [16usize, 64] {
        let mut s = sc.clone();
        s.dim = dim;
        s.fields = 26;
        // Paper: 128 MB cache = 6.4% (dim 16) / 1.6% (dim 64) of table.
        s.cache_frac = if dim == 16 { 0.064 } else { 0.016 };
        for kind in [
            EngineKind::TfPs,
            EngineKind::DramPs,
            EngineKind::Oe,
            EngineKind::PmemHash,
        ] {
            print!("{:<12} {:<12}", dim, kind.label());
            for w in [1u32, 2, 4] {
                let r = run_scenario(kind, &s, w, CkptSetup::None);
                let b = *base.get_or_insert(r.total_ns as f64);
                print!(" {:>8.3}", r.total_ns as f64 / b);
            }
            println!();
        }
    }
    println!("(paper: OE beats TF by 6.3/19.5/30.1% at dim 16 and 6.4/34.2/52% at dim 64; DRAM-PS fastest; PMem-Hash up to 4.3× TF)");
}

/// Table V: PS deployment cost.
pub fn table5(sc: &Scenario) {
    hr("Table V — price of parameter servers");
    use oe_train::{CloudCostModel, PsDeployment};
    let costs = CloudCostModel::paper();
    let interval = secs(0.025);
    let dram = run_scenario(
        EngineKind::DramPs,
        sc,
        4,
        CkptSetup::Incremental {
            interval_ns: interval,
        },
    );
    let oe = run_scenario(
        EngineKind::Oe,
        sc,
        4,
        CkptSetup::Proposed {
            interval_ns: interval,
        },
    );
    let ori = run_scenario(
        EngineKind::OriCache,
        sc,
        4,
        CkptSetup::Incremental {
            interval_ns: interval,
        },
    );
    // Anchor: paper's DRAM-PS epoch = 5.75 h; scale the others by the
    // measured per-batch ratio.
    let anchor = 5.75;
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "system", "$/hour", "epoch (h)", "$/epoch", "paper $/ep", "paper (h)"
    );
    for (name, dep, r, paper_cost, paper_h) in [
        (
            "DRAM-PS",
            PsDeployment::DramServers { count: 2 },
            &dram,
            34.9,
            5.75,
        ),
        (
            "PMem-OE",
            PsDeployment::PmemServers { count: 1 },
            &oe,
            20.3,
            5.33,
        ),
        (
            "Ori-Cache",
            PsDeployment::PmemServers { count: 1 },
            &ori,
            26.6,
            7.01,
        ),
    ] {
        let hours = anchor * r.total_ns as f64 / dram.total_ns as f64;
        println!(
            "{:<12} {:>10.2} {:>10.2} {:>12.2} {:>12.1} {:>10.2}",
            name,
            costs.per_hour(dep),
            hours,
            costs.per_epoch(dep, hours),
            paper_cost,
            paper_h
        );
    }
    println!("(paper headline: PMem-OE saves 42% storage cost vs DRAM-PS, 24% vs Ori-Cache)");
}

/// Ablations beyond the paper: cache replacement policy, admission
/// control, and shard count — the design axes the paper fixes (LRU,
/// admit-always, one lock) or defers to future work.
pub fn ablations(sc: &Scenario) {
    use oe_cache::{AdmissionKind, PolicyKind};

    hr("Ablation A — replacement policy @ 16 GPUs (cache = paper default)");
    println!("{:<10} {:>10} {:>10}", "policy", "miss%", "norm time");
    let mut base = None;
    for (kind, name) in [
        (PolicyKind::Lru, "LRU"),
        (PolicyKind::Clock, "CLOCK"),
        (PolicyKind::Fifo, "FIFO"),
    ] {
        let r = run_scenario(
            EngineKind::OeCustom {
                replacement: kind,
                admission: AdmissionKind::Always,
                shards: 1,
            },
            sc,
            16,
            CkptSetup::None,
        );
        let b = *base.get_or_insert(r.total_ns as f64);
        println!(
            "{:<10} {:>9.2}% {:>10.3}",
            name,
            r.miss_rate() * 100.0,
            r.total_ns as f64 / b
        );
    }
    println!("(expected: CLOCK ≈ LRU, FIFO worse — and all three gaps are small next to the pipeline's effect, supporting the paper's choice to not chase policies)");

    hr("Ablation B — admission control @ 16 GPUs, small cache (¼ of default)");
    println!(
        "{:<14} {:>10} {:>12} {:>10}",
        "admission", "miss%", "evictions", "norm time"
    );
    let mut small = sc.clone();
    small.cache_frac = sc.cache_frac / 4.0;
    let mut base = None;
    for (kind, name) in [
        (AdmissionKind::Always, "always"),
        (AdmissionKind::SecondTouch, "doorkeeper"),
    ] {
        let r = run_scenario(
            EngineKind::OeCustom {
                replacement: PolicyKind::Lru,
                admission: kind,
                shards: 1,
            },
            &small,
            16,
            CkptSetup::None,
        );
        let b = *base.get_or_insert(r.total_ns as f64);
        println!(
            "{:<14} {:>9.2}% {:>12} {:>10.3}",
            name,
            r.miss_rate() * 100.0,
            r.stats.evictions,
            r.total_ns as f64 / b
        );
    }
    println!("(the doorkeeper keeps one-hit wonders out of a pressured cache: fewer evictions, lower churn)");

    hr("Ablation C — shard count @ 16 GPUs (the paper uses one RW lock)");
    println!("{:<10} {:>10} {:>12}", "shards", "norm time", "maintain ms");
    let mut base = None;
    for shards in [1usize, 4, 16] {
        let r = run_scenario(
            EngineKind::OeCustom {
                replacement: PolicyKind::Lru,
                admission: AdmissionKind::Always,
                shards,
            },
            sc,
            16,
            CkptSetup::None,
        );
        let b = *base.get_or_insert(r.total_ns as f64);
        println!(
            "{:<10} {:>10.3} {:>12.3}",
            shards,
            r.total_ns as f64 / b,
            r.phases.maintain_ns as f64 / r.batches as f64 / 1e6
        );
    }
    println!("(sharding is a scalability reserve: with the pipeline hiding maintenance, one lock is already enough at this scale — the paper's design point)");

    hr("Ablation D — popularity drift @ 16 GPUs (item churn over the 147-day trace)");
    println!(
        "{:<16} {:>10} {:>10}",
        "drift keys/batch", "miss%", "norm time"
    );
    let mut base = None;
    for drift in [0u64, 10, 100, 1_000] {
        let mut s = sc.clone();
        s.drift_keys_per_batch = drift;
        let r = run_scenario(EngineKind::Oe, &s, 16, CkptSetup::None);
        let b = *base.get_or_insert(r.total_ns as f64);
        println!(
            "{:<16} {:>9.2}% {:>10.3}",
            drift,
            r.miss_rate() * 100.0,
            r.total_ns as f64 / b
        );
    }
    println!("(the LRU cache tracks a sliding hot set at moderate churn; extreme churn degrades toward the cold-miss regime)");
}

/// `latency` artifact: per-engine batch-phase latency distributions as
/// JSON — the tail-latency view behind the paper's barrier argument (a
/// p99 pull stall delays the whole synchronous batch). Dumped as JSON
/// so plots and regression checks can consume it directly.
pub fn latency(sc: &Scenario) {
    hr("latency — per-engine pull/batch latency quantiles @ 8 GPUs (virtual ns)");
    let mut rows = Vec::new();
    for kind in [EngineKind::Oe, EngineKind::DramPs, EngineKind::OriCache] {
        let r = run_scenario(kind, sc, 8, CkptSetup::None);
        println!("{:<12} pull {}", kind.label(), r.pull_hist.summary_ms());
        for (name, v) in [
            ("batches", r.batches as f64),
            ("miss_rate", r.miss_rate()),
            ("pull_p50_ns", r.pull_hist.p50() as f64),
            ("pull_p95_ns", r.pull_hist.p95() as f64),
            ("pull_p99_ns", r.pull_hist.p99() as f64),
            ("pull_max_ns", r.pull_hist.max() as f64),
            ("batch_p99_ns", r.batch_hist.p99() as f64),
        ] {
            rows.push((format!("latency.{}.{name}", kind.label()), v));
        }
    }
    crate::trajectory::write_flat_json(std::io::stdout(), &rows).expect("stdout is writable");
    println!("(expect: PMem-OE pull tails within a few % of DRAM-PS; Ori-Cache inflated by inline maintenance)");
}

/// Shard-plan hot-path throughput: the lane sweep on a skewed batch
/// (see [`crate::pullpush`]).
pub fn pullpush(sc: &Scenario) {
    hr("pullpush — shard-plan batched pull/push throughput");
    let cfg = if sc.batch_size < 1024 {
        crate::pullpush::PullPushConfig::smoke()
    } else {
        crate::pullpush::PullPushConfig::paper()
    };
    let r = crate::pullpush::run(&cfg);
    crate::pullpush::print_report(&r);
}

/// Optimizer-kernel and codec wall-clock microbench: scalar reference
/// vs vectorized vs batched applies, burst codec rates (see
/// [`crate::kernels`]).
pub fn kernels(sc: &Scenario) {
    hr("kernels — optimizer kernel & zero-copy codec wall-clock microbench");
    let cfg = if sc.batch_size < 1024 {
        crate::kernels::KernelsConfig::smoke()
    } else {
        crate::kernels::KernelsConfig::paper()
    };
    let r = crate::kernels::run(&cfg);
    crate::kernels::print_report(&r);
}

/// Fault tolerance: retry overhead on a lossy wire and checkpoint-
/// failover recovery latency (see [`crate::failover`]).
pub fn failover(sc: &Scenario) {
    hr("failover — retry overhead and checkpoint-failover recovery");
    let cfg = if sc.batch_size < 1024 {
        crate::failover::FailoverConfig::smoke()
    } else {
        crate::failover::FailoverConfig::paper()
    };
    let r = crate::failover::run(&cfg);
    crate::failover::print_report(&r);
}

/// crashmc — exhaustive crash-point enumeration coverage.
pub fn crashmc(sc: &Scenario) {
    hr("crashmc — crash-point enumeration of the persistence protocol");
    let cfg = if sc.batch_size < 1024 {
        crate::crashmc::CrashMcBenchConfig::smoke()
    } else {
        crate::crashmc::CrashMcBenchConfig::paper()
    };
    let r = crate::crashmc::run(&cfg);
    crate::crashmc::print_report(&r);
}

/// rebalance — hot-key storm vs telemetry-driven live shard drain
/// (see [`crate::rebalance`]).
pub fn rebalance(sc: &Scenario) {
    hr("rebalance — skew-aware placement under a hot-key storm");
    let cfg = if sc.batch_size < 1024 {
        crate::rebalance::RebalanceBenchConfig::smoke()
    } else {
        crate::rebalance::RebalanceBenchConfig::paper()
    };
    let r = crate::rebalance::run(&cfg);
    crate::rebalance::print_report(&r);
}

/// pipeline — sync-vs-bounded-async pipelining frontier on DeepFM-lite
/// (see [`crate::pipeline`]).
pub fn pipeline(sc: &Scenario) {
    hr("pipeline — overlapped training vs staleness bound");
    let cfg = if sc.batch_size < 1024 {
        crate::pipeline::PipelineBenchConfig::smoke()
    } else {
        crate::pipeline::PipelineBenchConfig::paper()
    };
    let r = crate::pipeline::run(&cfg);
    crate::pipeline::print_report(&r);
}

/// serve — exact-vs-LSH recall/latency tradeoff and the open-loop QPS
/// replay with a mid-traffic snapshot flip (see [`crate::serve`]).
pub fn serve(sc: &Scenario) {
    hr("serve — snapshot-flip serving and ANN retrieval under load");
    let cfg = if sc.batch_size < 1024 {
        crate::serve::ServeBenchConfig::smoke()
    } else {
        crate::serve::ServeBenchConfig::paper()
    };
    let r = crate::serve::run(&cfg);
    crate::serve::print_report(&r);
}

/// Run everything.
pub fn all(sc: &Scenario, ckpt_interval_ns: u64) {
    table1(sc);
    table2(sc);
    fig2(sc);
    fig3(sc);
    table5(sc);
    fig6(sc, ckpt_interval_ns);
    fig7(sc);
    fig8(sc);
    fig9(sc);
    fig10(sc);
    fig11(sc);
    fig12(sc, ckpt_interval_ns);
    fig13(sc, ckpt_interval_ns);
    fig14(sc);
    fig15(sc);
    latency(sc);
    ablations(sc);
    pullpush(sc);
    kernels(sc);
    failover(sc);
    crashmc(sc);
    rebalance(sc);
    pipeline(sc);
    serve(sc);
}
