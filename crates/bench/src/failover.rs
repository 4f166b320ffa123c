//! Fault-tolerance bench: retry overhead on a lossy wire and failover
//! recovery latency, JSON artifact `BENCH_failover.json`.
//!
//! Three measurements against the same scaled workload:
//!
//! - **drop sweep** — train over a seeded fault-injected wire at 0%,
//!   1% and 5% frame loss; report virtual-time overhead vs the 0% arm
//!   and the retry/timeout counters that paid for it. Every arm must
//!   end bit-identical to a fault-free local run (exactly-once
//!   delivery via idempotence tokens + the server replay cache).
//! - **recovery** — promote a [`Standby`] over a trained,
//!   checkpointed primary's local media and report the virtual recovery
//!   latency (crash image + slot scan + index rebuild under the
//!   recovery contention model) — the RPC-layer analogue of Fig. 14.
//! - **kill run** — kill the primary mid-epoch through the fault
//!   injector, fail over to the standby, rewind to the committed
//!   checkpoint, and finish; report the end-to-end overhead of the
//!   absorbed failure.

use oe_core::engine::PsEngine;
use oe_core::recovery::LocalMedia;
use oe_core::{CheckpointScheduler, NodeConfig, OptimizerKind, PsNode};
use oe_net::{
    loopback, Error, FaultInjector, FaultSpec, NetConfig, PsClient, PsServer, RemotePs, Standby,
};
use oe_train::{PipelineConfig, PipelinedTrainer, TrainReport, TrainerConfig};
use oe_workload::{SkewModel, WorkloadSpec};
use std::sync::Arc;

/// Workload + fault shape for one bench run.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Embedding table size (distinct keys).
    pub num_keys: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// Sparse fields per example.
    pub fields: usize,
    /// Examples per global batch.
    pub batch_size: usize,
    /// Synchronous trainer workers (GPUs).
    pub workers: u32,
    /// Batches per measured run.
    pub batches: u64,
    /// Frame-drop probabilities for the retry-overhead sweep.
    pub drop_rates: Vec<f64>,
    /// Fault-schedule / workload seed.
    pub seed: u64,
}

impl FailoverConfig {
    /// Paper-shaped run.
    pub fn paper() -> Self {
        Self {
            num_keys: 20_000,
            dim: 16,
            fields: 8,
            batch_size: 256,
            workers: 4,
            batches: 40,
            drop_rates: vec![0.0, 0.01, 0.05],
            seed: 0xFA17,
        }
    }

    /// Smoke-test run for CI: same shape, a fraction of the work.
    pub fn smoke() -> Self {
        Self {
            num_keys: 3_000,
            dim: 8,
            fields: 5,
            batch_size: 64,
            workers: 2,
            batches: 16,
            drop_rates: vec![0.0, 0.01, 0.05],
            seed: 0xFA17,
        }
    }

    fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            num_keys: self.num_keys,
            fields: self.fields,
            batch_size: self.batch_size,
            workers: self.workers as usize,
            skew: SkewModel::paper_fit(),
            seed: self.seed,
            drift_keys_per_batch: 0,
        }
    }

    fn node_config(&self) -> NodeConfig {
        let mut cfg = NodeConfig::small(self.dim);
        cfg.optimizer = OptimizerKind::Adagrad {
            lr: 0.05,
            eps: 1e-8,
        };
        cfg.cache_bytes = (self.num_keys as usize / 10).max(64) * cfg.bytes_per_cached_entry();
        cfg.pmem_capacity = 1 << 26;
        cfg
    }

    fn trainer_config(&self) -> TrainerConfig {
        let mut cfg = TrainerConfig::paper(self.workers);
        // Checkpoint every batch so a kill always has a recent
        // consistent point to promote from (bounded rewind).
        cfg.ckpt = CheckpointScheduler::every(1);
        cfg
    }

    /// RPCs per batch on the wire: one pull per worker, one flush, one
    /// push per worker, one checkpoint request.
    fn calls_per_batch(&self) -> u64 {
        2 * self.workers as u64 + 2
    }

    /// Kill the primary two thirds of the way through the run, on a
    /// pull — before that batch's flush commits the previous pending
    /// checkpoint, so the failover always pays a rewind (calls 0–1 are
    /// the connect handshake and the trainer's opening stats snapshot).
    fn kill_after_calls(&self) -> u64 {
        2 + self.calls_per_batch() * (self.batches * 2 / 3) + 1
    }
}

/// One arm of the drop-rate sweep.
#[derive(Debug, Clone)]
pub struct DropArm {
    /// Injected frame-drop probability (each direction).
    pub drop_rate: f64,
    /// End-to-end virtual training time.
    pub total_ns: u64,
    /// Client retries forced by the schedule.
    pub retries: u64,
    /// Deadline expiries (dropped frames surface as timeouts).
    pub timeouts: u64,
    /// Virtual-time overhead vs the 0% arm (0.05 == +5%).
    pub overhead_vs_clean: f64,
    /// Final weights bit-identical to a fault-free local run.
    pub bit_identical: bool,
}

/// Standby promotion cost, measured directly.
#[derive(Debug, Clone)]
pub struct RecoveryResult {
    /// Batch the committed checkpoint ends at (training resumes at +1).
    pub resume_batch: u64,
    /// Virtual recovery latency: crash image, slot scan, index rebuild.
    pub recovery_ns: u64,
    /// Keys restored from the checkpoint.
    pub recovered_keys: usize,
    /// Recovery-scan partitions (threads).
    pub recovery_threads: u32,
}

/// Kill-mid-epoch failover run.
#[derive(Debug, Clone)]
pub struct KillRun {
    /// Call index the primary died at.
    pub kill_after_calls: u64,
    /// Promotions the run absorbed.
    pub failovers: u64,
    /// Completed batches discarded by the checkpoint rewind.
    pub rewound_batches: u64,
    /// End-to-end virtual training time, recovery pause included.
    pub total_ns: u64,
    /// Virtual-time overhead vs a fault-free run.
    pub overhead_vs_clean: f64,
    /// Final weights bit-identical to a fault-free local run.
    pub bit_identical: bool,
}

/// Full bench report ([`exact_metrics`] is what `--out` writes).
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The configuration measured.
    pub config: FailoverConfig,
    /// Fault-free local baseline, virtual ns.
    pub clean_total_ns: u64,
    /// Retry overhead at each drop rate.
    pub drops: Vec<DropArm>,
    /// Standby promotion latency.
    pub recovery: RecoveryResult,
    /// Kill-mid-epoch end-to-end failover.
    pub kill: KillRun,
}

/// The bench's one training run: the synchronous (k = 0) schedule over
/// whatever client the arm provides.
fn train(client: &dyn PsClient, cfg: &FailoverConfig) -> Result<TrainReport, Error> {
    let sync = PipelineConfig::sync();
    PipelinedTrainer::with_client(client, cfg.workload(), cfg.trainer_config(), sync)
        .try_run(1, cfg.batches)
        .map(|r| r.train)
}

/// Remote PS behind a fault-injected loopback wire. Returns the client;
/// server workers detach and drain when the transport closes.
fn faulty_remote(cfg: &FailoverConfig, fault: FaultSpec, standby: bool) -> RemotePs {
    let primary = PsNode::new(cfg.node_config());
    let media = Arc::clone(primary.pool().media());
    let engine: Arc<dyn PsEngine> = Arc::new(primary);
    let (ct, st) = loopback(64);
    drop(PsServer::spawn(engine, st, 4));
    let injector = Arc::new(FaultInjector::new(Arc::new(ct), fault));
    let remote = RemotePs::try_connect(injector, NetConfig::paper_default())
        .expect("the handshake precedes every scheduled fault");
    if standby {
        remote.with_standby(Standby::new(
            Arc::new(LocalMedia::new(media, 4)),
            cfg.node_config(),
            4,
            cfg.seed,
        ))
    } else {
        remote
    }
}

fn weights_match(local: &PsNode, remote: &RemotePs, num_keys: u64) -> bool {
    (0..num_keys).all(|k| {
        remote
            .weights_of(k)
            .is_ok_and(|w| w == local.read_weights(k))
    })
}

/// Run the full comparison: drop sweep, direct promotion, kill run.
pub fn run(cfg: &FailoverConfig) -> FailoverReport {
    // Fault-free local run: the bit-identity reference and time baseline.
    let local = PsNode::new(cfg.node_config());
    let clean = train(&local, cfg).expect("in-process backends are infallible");

    let mut drops = Vec::new();
    let mut clean_wire_ns = clean.total_ns;
    for &rate in &cfg.drop_rates {
        let remote = faulty_remote(cfg, FaultSpec::drops(cfg.seed, rate), false);
        let report = train(&remote, cfg).expect("a lossy wire must be survivable");
        let snap = remote.registry().snapshot();
        if rate == 0.0 {
            clean_wire_ns = report.total_ns;
        }
        drops.push(DropArm {
            drop_rate: rate,
            total_ns: report.total_ns,
            retries: snap.counter("client_rpc_retries_total").unwrap_or(0),
            timeouts: snap.counter("client_rpc_timeouts_total").unwrap_or(0),
            overhead_vs_clean: report.total_ns as f64 / clean_wire_ns as f64 - 1.0,
            bit_identical: weights_match(&local, &remote, cfg.num_keys),
        });
    }

    // Direct promotion from the trained reference's media: the pure
    // recovery latency, isolated from the wire.
    let recovery_threads = 4u32;
    let home = LocalMedia::new(Arc::clone(local.pool().media()), recovery_threads);
    let promo = Standby::new(Arc::new(home), cfg.node_config(), 1, cfg.seed)
        .promote()
        .expect("trained media promotes")
        .event;
    let recovery = RecoveryResult {
        resume_batch: promo.resume_batch,
        recovery_ns: promo.recovery_ns,
        recovered_keys: promo.recovered_keys,
        recovery_threads,
    };

    // Kill mid-epoch, fail over, finish.
    let kill_at = cfg.kill_after_calls();
    let remote = faulty_remote(cfg, FaultSpec::kill_after(cfg.seed, kill_at), true);
    let report = train(&remote, cfg).expect("failover must absorb the kill");
    let kill = KillRun {
        kill_after_calls: kill_at,
        failovers: report.failovers,
        rewound_batches: report.rewound_batches,
        total_ns: report.total_ns,
        overhead_vs_clean: report.total_ns as f64 / clean_wire_ns as f64 - 1.0,
        bit_identical: weights_match(&local, &remote, cfg.num_keys),
    };

    FailoverReport {
        config: cfg.clone(),
        clean_total_ns: clean.total_ns,
        drops,
        recovery,
        kill,
    }
}

/// Human-readable table, printed by the `failover` binary.
pub fn print_report(r: &FailoverReport) {
    println!(
        "workload: {} batches × {} examples, {} keys dim {}, {} workers",
        r.config.batches, r.config.batch_size, r.config.num_keys, r.config.dim, r.config.workers
    );
    println!(
        "{:<10} {:>12} {:>9} {:>9} {:>10} {:>10}",
        "drop%", "total ms", "retries", "timeouts", "overhead", "identical"
    );
    for d in &r.drops {
        println!(
            "{:<10} {:>12.3} {:>9} {:>9} {:>9.2}% {:>10}",
            format!("{:.1}%", d.drop_rate * 100.0),
            d.total_ns as f64 / 1e6,
            d.retries,
            d.timeouts,
            d.overhead_vs_clean * 100.0,
            d.bit_identical
        );
    }
    println!(
        "recovery: {:.3} ms to restore {} keys (checkpoint @ batch {}, {} scan threads)",
        r.recovery.recovery_ns as f64 / 1e6,
        r.recovery.recovered_keys,
        r.recovery.resume_batch,
        r.recovery.recovery_threads
    );
    println!(
        "kill @ call {}: {} failover(s), {} batch(es) rewound, +{:.2}% vs clean, identical={}",
        r.kill.kill_after_calls,
        r.kill.failovers,
        r.kill.rewound_batches,
        r.kill.overhead_vs_clean * 100.0,
        r.kill.bit_identical
    );
}

/// The exact metrics, held to the baseline at equality: virtual times
/// and their ratios, retry counts and the bit-identity bit. The bench
/// has no wall metric.
pub fn exact_metrics(r: &FailoverReport) -> Vec<(String, f64)> {
    let mut m = vec![("clean_total_ns".to_string(), r.clean_total_ns as f64)];
    let mut identical = r.kill.bit_identical;
    for d in &r.drops {
        let arm = format!("drop_{:.0}pct", d.drop_rate * 100.0);
        m.push((format!("{arm}.retries"), d.retries as f64));
        m.push((format!("{arm}.overhead_vs_clean"), d.overhead_vs_clean));
        identical &= d.bit_identical;
    }
    m.push(("recovery_ns".into(), r.recovery.recovery_ns as f64));
    m.push(("kill.overhead_vs_clean".into(), r.kill.overhead_vs_clean));
    m.push(("bit_identical".into(), f64::from(u8::from(identical))));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FailoverConfig {
        FailoverConfig {
            num_keys: 1_000,
            batches: 9,
            drop_rates: vec![0.0, 0.05],
            ..FailoverConfig::smoke()
        }
    }

    #[test]
    fn bench_arms_stay_bit_identical() {
        let r = run(&tiny());
        for d in &r.drops {
            assert!(d.bit_identical, "drop rate {}", d.drop_rate);
        }
        assert!(r.kill.bit_identical, "failover perturbed training state");
        assert_eq!(r.kill.failovers, 1);
        assert!(r.recovery.recovery_ns > 0);
        assert!(r.recovery.recovered_keys > 0);
    }

    #[test]
    fn lossy_arm_pays_for_its_retries() {
        let r = run(&tiny());
        let lossy = r.drops.last().unwrap();
        assert!(lossy.retries > 0, "5% drop must force retries");
        assert!(
            lossy.overhead_vs_clean > 0.0,
            "retries charge virtual time: {}",
            lossy.overhead_vs_clean
        );
    }
}
