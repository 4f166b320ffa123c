//! Crash-point enumeration bench: sweep every (or every `stride`-th)
//! persistence event of the reference training schedule per optimizer,
//! count invariant checks, and report violations. The counts are exact
//! metrics held to the baseline (`--out` writes them as flat JSON,
//! `BENCH_crashmc.json` in `ci.sh`) — the repo's machine-checkable
//! durability coverage statement.

use oe_core::OptimizerKind;
use oe_train::crashmc::{recovery_crash_sweep, reference, sweep, CrashMcConfig};

/// Sweep shape for one bench run.
#[derive(Debug, Clone)]
pub struct CrashMcBenchConfig {
    /// Event-index stride (1 = exhaustive).
    pub stride: u64,
    /// Torn-write seeds per index.
    pub seeds_per_index: u64,
    /// Sweep one arm per optimizer.
    pub optimizers: Vec<OptimizerKind>,
    /// Source crash points (as fractions ×100 of the event stream) for
    /// the crash-during-recovery sweep.
    pub recovery_points_pct: Vec<u64>,
}

impl CrashMcBenchConfig {
    /// Exhaustive run: every event index, every optimizer.
    pub fn paper() -> Self {
        Self {
            stride: 1,
            seeds_per_index: 2,
            optimizers: vec![
                OptimizerKind::Sgd { lr: 0.5 },
                OptimizerKind::Adagrad {
                    lr: 0.05,
                    eps: 1e-8,
                },
                OptimizerKind::Adam {
                    lr: 0.01,
                    beta1: 0.9,
                    beta2: 0.999,
                    eps: 1e-8,
                },
            ],
            recovery_points_pct: vec![50, 75, 99],
        }
    }

    /// CI smoke shape: stride-sampled, single seed, two optimizers.
    pub fn smoke() -> Self {
        Self {
            stride: 7,
            seeds_per_index: 1,
            optimizers: vec![
                OptimizerKind::Sgd { lr: 0.5 },
                OptimizerKind::Adagrad {
                    lr: 0.05,
                    eps: 1e-8,
                },
            ],
            recovery_points_pct: vec![99],
        }
    }

    fn arm(&self, optimizer: OptimizerKind) -> CrashMcConfig {
        let mut cfg = CrashMcConfig::exhaustive(optimizer);
        cfg.stride = self.stride;
        cfg.seeds_per_index = self.seeds_per_index;
        cfg
    }
}

/// One optimizer's sweep outcome.
#[derive(Debug)]
pub struct CrashMcArm {
    /// Optimizer under test.
    pub optimizer: OptimizerKind,
    /// Persistence events in the reference run.
    pub total_events: u64,
    /// Event indices evaluated.
    pub indices_checked: u64,
    /// Invariant checks evaluated (training-crash sweep).
    pub invariant_checks: u64,
    /// Crash points inside the recovery scan evaluated.
    pub recovery_indices_checked: u64,
    /// Invariant checks evaluated in the recovery-crash sweep.
    pub recovery_invariant_checks: u64,
    /// All violations found (training + recovery sweeps).
    pub violations: Vec<String>,
    /// Wall-clock for this arm, ms.
    pub wall_ms: u64,
}

/// Full bench report ([`exact_metrics`] and [`wall_metrics`] are what
/// `--out` writes).
#[derive(Debug)]
pub struct CrashMcReport {
    /// The configuration swept.
    pub config: CrashMcBenchConfig,
    /// Per-optimizer arms.
    pub arms: Vec<CrashMcArm>,
    /// Events enumerated across all arms.
    pub events_enumerated: u64,
    /// Invariant checks evaluated across all arms and sweeps.
    pub invariant_checks: u64,
    /// Violations found across all arms (0 = the protocol held at
    /// every enumerated crash point).
    pub violations_found: u64,
}

/// Run every arm of the sweep.
pub fn run(cfg: &CrashMcBenchConfig) -> CrashMcReport {
    let mut arms = Vec::new();
    for &optimizer in &cfg.optimizers {
        let arm_cfg = cfg.arm(optimizer);
        let start = std::time::Instant::now();
        let s = sweep(&arm_cfg);
        let mut violations = s.violations.clone();

        // Crash inside the recovery scan at a few source crash points.
        let r = reference(&arm_cfg);
        let mut rec_indices = 0;
        let mut rec_checks = 0;
        for (i, pct) in cfg.recovery_points_pct.iter().enumerate() {
            let at_event = (r.total_events.saturating_sub(1)) * pct.min(&100) / 100;
            let rs = recovery_crash_sweep(&arm_cfg, at_event, 0xC4A5 + i as u64);
            rec_indices += rs.indices_checked;
            rec_checks += rs.invariant_checks;
            violations.extend(rs.violations);
        }

        arms.push(CrashMcArm {
            optimizer,
            total_events: s.total_events,
            indices_checked: s.indices_checked,
            invariant_checks: s.invariant_checks,
            recovery_indices_checked: rec_indices,
            recovery_invariant_checks: rec_checks,
            violations,
            wall_ms: start.elapsed().as_millis() as u64,
        });
    }
    CrashMcReport {
        events_enumerated: arms.iter().map(|a| a.indices_checked).sum(),
        invariant_checks: arms
            .iter()
            .map(|a| a.invariant_checks + a.recovery_invariant_checks)
            .sum(),
        violations_found: arms.iter().map(|a| a.violations.len() as u64).sum(),
        config: cfg.clone(),
        arms,
    }
}

fn optimizer_name(o: &OptimizerKind) -> &'static str {
    match o {
        OptimizerKind::Sgd { .. } => "sgd",
        OptimizerKind::Adagrad { .. } => "adagrad",
        OptimizerKind::Adam { .. } => "adam",
    }
}

/// Human-readable table, printed by the `crashmc` binary.
pub fn print_report(r: &CrashMcReport) {
    println!(
        "{:<22} {:>8} {:>9} {:>9} {:>11} {:>10} {:>9}",
        "optimizer", "events", "indices", "checks", "rec-indices", "violations", "wall ms"
    );
    for a in &r.arms {
        println!(
            "{:<22} {:>8} {:>9} {:>9} {:>11} {:>10} {:>9}",
            optimizer_name(&a.optimizer),
            a.total_events,
            a.indices_checked,
            a.invariant_checks + a.recovery_invariant_checks,
            a.recovery_indices_checked,
            a.violations.len(),
            a.wall_ms
        );
        for v in &a.violations {
            println!("  VIOLATION: {v}");
        }
    }
    println!(
        "total: {} crash points enumerated, {} invariant checks, {} violations",
        r.events_enumerated, r.invariant_checks, r.violations_found
    );
}

/// The exact metrics, held to the baseline at equality: the coverage
/// counts per optimizer arm and in total.
pub fn exact_metrics(r: &CrashMcReport) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    for a in &r.arms {
        let o = optimizer_name(&a.optimizer);
        m.push((format!("{o}.total_events"), a.total_events as f64));
        m.push((format!("{o}.indices_checked"), a.indices_checked as f64));
    }
    m.push(("events_enumerated".into(), r.events_enumerated as f64));
    m.push(("invariant_checks".into(), r.invariant_checks as f64));
    m.push(("violations_found".into(), r.violations_found as f64));
    m
}

/// The wall metrics: host time per optimizer arm.
pub fn wall_metrics(r: &CrashMcReport) -> Vec<(String, f64)> {
    r.arms
        .iter()
        .map(|a| {
            let o = optimizer_name(&a.optimizer);
            (format!("{o}.wall_ms"), a.wall_ms as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_clean() {
        let r = run(&CrashMcBenchConfig::smoke());
        assert_eq!(r.violations_found, 0, "{:#?}", r.arms);
        assert!(r.events_enumerated > 0);
        assert!(r.invariant_checks > r.events_enumerated);
        assert_eq!(r.arms.len(), 2);
    }
}
