//! Exhaustive crash-point enumeration for the persistence protocol
//! ("crashmc" — crash model checking).
//!
//! The paper's durability claims (§V-B/§V-C) are quantified over *every*
//! instant a power cut can strike, but ordinary crash tests sample a
//! handful of instants. This harness makes the claim checkable by
//! exhaustion: [`oe_simdevice::Media`] numbers every persistence event
//! (each CLWB-equivalent `flush` and each SFENCE-equivalent `fence`),
//! and a [`CrashPlan`] captures the torn-write crash image immediately
//! *before* event `k` applies. Because the training schedule here is
//! fully deterministic (fixed key sets, gradient rule, and checkpoint
//! cadence; single-lane execution; no iteration-order dependence on the
//! media path), the event stream is identical on every replay — so the
//! sweep can enumerate `k = 0 ..= E` and several torn-write seeds per
//! index and know it has covered every distinct durable state the
//! protocol can leave behind (stores between two events only become
//! durable *at* an event, so event boundaries are exactly the
//! distinguishable crash points).
//!
//! At every crash point the harness recovers via `core::recovery` and
//! checks five invariants:
//!
//! 1. **Committed id**: the recovered checkpoint id is one the run
//!    actually requested (or 0) and lies between the ids committed at
//!    the enclosing step boundaries.
//! 2. **Integrity**: no live slot fails its checksum (`corrupt == 0`) —
//!    the two-fence slot-write protocol never exposes a torn payload.
//! 3. **Accounting**: the recovered free list and live set partition
//!    `0..high_water` exactly — no leaked slots, no double-frees, no
//!    phantom ids.
//! 4. **Idempotence**: crashing again right after recovery and
//!    re-recovering yields the same committed id and live set.
//! 5. **Lossless rewind**: resuming the recovered node through the
//!    remaining batches reproduces the fault-free final weights
//!    *bit-identically*.
//!
//! [`recovery_crash_sweep`] closes the loop on invariant 4 by crashing
//! at every persistence event *of the recovery scan itself* (the
//! `free_no_list` stream) and re-recovering.

use oe_core::config::NodeConfig;
use oe_core::engine::PsEngine;
use oe_core::optimizer::OptimizerKind;
use oe_core::recovery::{recover_node, RecoveryReport};
use oe_core::{BatchId, Key, PsNode};
use oe_simdevice::{Cost, CrashPlan, Media, MediaConfig};
use std::sync::Arc;

/// Configuration of one enumeration sweep.
#[derive(Debug, Clone)]
pub struct CrashMcConfig {
    /// Base keys pulled every batch (`0..keys`).
    pub keys: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// Batches in the reference run.
    pub batches: u64,
    /// Request a checkpoint after every `ckpt_every`-th batch.
    pub ckpt_every: u64,
    /// Optimizer under test (its state rides in the slot payload, so
    /// every optimizer exercises a different payload layout).
    pub optimizer: OptimizerKind,
    /// Torn-write seeds evaluated per event index (flushed-but-unfenced
    /// lines land with p = ½ per seed).
    pub seeds_per_index: u64,
    /// Check every `stride`-th event index (1 = exhaustive).
    pub stride: u64,
    /// DRAM cache budget in entries; keep it below the touched key
    /// count so eviction/flush traffic (the interesting persistence
    /// activity) happens constantly.
    pub cache_entries: usize,
}

impl CrashMcConfig {
    /// The exhaustive default used by the `crashmc` integration test:
    /// every event index, three checkpoint commits, growth keys so the
    /// key population changes between checkpoints.
    pub fn exhaustive(optimizer: OptimizerKind) -> Self {
        Self {
            keys: 4,
            dim: 4,
            batches: 7,
            ckpt_every: 2,
            optimizer,
            seeds_per_index: 2,
            stride: 1,
            cache_entries: 3,
        }
    }

    /// The node configuration the harness drives. Single-lane and
    /// single-shard so the persistence-event stream is deterministic.
    pub fn node_config(&self) -> NodeConfig {
        let mut cfg = NodeConfig::small(self.dim);
        cfg.optimizer = self.optimizer;
        cfg.cache_bytes = self.cache_entries.max(1) * cfg.bytes_per_cached_entry();
        cfg.shards = 1;
        cfg.parallelism = 1;
        cfg.pmem_capacity = 1 << 22;
        cfg
    }

    /// Keys pulled at `batch`: the base working set plus one growth key
    /// per batch, so checkpoints cover a changing population.
    pub fn step_keys(&self, batch: BatchId) -> Vec<Key> {
        let mut keys: Vec<Key> = (0..self.keys).collect();
        keys.push(self.keys + batch);
        keys
    }

    /// Deterministic gradient for (`key`, `batch`, dim `d`): the replay
    /// after recovery must regenerate exactly these values.
    fn grad(&self, key: Key, batch: BatchId, d: usize) -> f32 {
        ((key.wrapping_mul(31) + batch.wrapping_mul(7) + d as u64) % 13) as f32 * 0.01 + 0.005
    }

    /// Every key the reference run ever touches, in a fixed order.
    pub fn all_keys(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = (0..self.keys).collect();
        keys.extend((1..=self.batches).map(|b| self.keys + b));
        keys
    }
}

/// One training step of the deterministic schedule.
fn step(cfg: &CrashMcConfig, node: &PsNode, batch: BatchId) {
    let keys = cfg.step_keys(batch);
    let mut out = Vec::new();
    let mut cost = Cost::new();
    node.pull(&keys, batch, &mut out, &mut cost);
    node.end_pull_phase(batch);
    let grads: Vec<f32> = keys
        .iter()
        .flat_map(|&k| (0..cfg.dim).map(move |d| (k, d)))
        .map(|(k, d)| cfg.grad(k, batch, d))
        .collect();
    node.push(&keys, &grads, batch, &mut cost);
    if batch.is_multiple_of(cfg.ckpt_every) {
        node.request_checkpoint(batch);
    }
}

/// State observed at one step boundary of the reference run: the event
/// counter brackets every crash index `k` between two boundaries whose
/// committed ids bound the legal recovery outcome.
#[derive(Debug, Clone, Copy)]
pub struct StepRecord {
    /// Completed batches (0 = right after node creation).
    pub batch: BatchId,
    /// Persistence events executed so far.
    pub events: u64,
    /// Committed checkpoint id at this boundary.
    pub committed: BatchId,
}

/// One full run of the deterministic schedule.
struct RunOut {
    media: Arc<Media>,
    node: PsNode,
    records: Vec<StepRecord>,
}

fn run(cfg: &CrashMcConfig, plan: Option<CrashPlan>) -> RunOut {
    let media = Arc::new(Media::new(MediaConfig::pmem(
        cfg.node_config().pmem_capacity,
    )));
    if let Some(p) = plan {
        media.arm_crash_plan(p);
    }
    let node = PsNode::on_media(cfg.node_config(), Arc::clone(&media));
    let mut records = vec![StepRecord {
        batch: 0,
        events: media.persistence_events(),
        committed: node.committed_checkpoint(),
    }];
    for b in 1..=cfg.batches {
        step(cfg, &node, b);
        records.push(StepRecord {
            batch: b,
            events: media.persistence_events(),
            committed: node.committed_checkpoint(),
        });
    }
    RunOut {
        media,
        node,
        records,
    }
}

/// The fault-free reference: step-boundary records plus the final
/// weights the rewind invariant compares against (as exact bit
/// patterns — "close enough" is not a durability guarantee).
pub struct Reference {
    /// Step-boundary observations.
    pub records: Vec<StepRecord>,
    /// Total persistence events in the run.
    pub total_events: u64,
    /// Checkpoint ids the schedule requested.
    pub requested: Vec<BatchId>,
    /// (key, weight bits) at the end of the fault-free run.
    pub final_weights: Vec<(Key, Vec<u32>)>,
}

/// Execute the fault-free reference run.
pub fn reference(cfg: &CrashMcConfig) -> Reference {
    let out = run(cfg, None);
    let final_weights = cfg
        .all_keys()
        .iter()
        .map(|&k| {
            let w = out.node.read_weights(k).expect("reference key exists");
            (k, w.iter().map(|v| v.to_bits()).collect())
        })
        .collect();
    Reference {
        total_events: out.media.persistence_events(),
        requested: (1..=cfg.batches)
            .filter(|b| b.is_multiple_of(cfg.ckpt_every))
            .collect(),
        records: out.records,
        final_weights,
    }
}

/// Verdict for one (event index, seed) crash point.
#[derive(Debug)]
pub struct CrashPointReport {
    /// Persistence-event index the crash struck at.
    pub event: u64,
    /// Torn-write resolution seed.
    pub seed: u64,
    /// Whether the media held a recoverable pool (false is legal only
    /// before the pool root's first fence).
    pub recovered: bool,
    /// Invariant checks evaluated.
    pub checks: u64,
    /// Invariant violations (empty = durable at this point).
    pub violations: Vec<String>,
}

fn live_set(report: &RecoveryReport) -> Vec<(Key, BatchId)> {
    let mut v: Vec<(Key, BatchId)> = report
        .scan
        .live
        .iter()
        .map(|r| (r.key, r.version))
        .collect();
    v.sort_unstable();
    v
}

/// Crash at persistence event `at_event` (resolving torn lines with
/// `seed`), recover, and evaluate all five invariants. `at_event ==
/// total_events` means a crash at quiescence after the last batch.
pub fn check_crash_point(
    cfg: &CrashMcConfig,
    reference: &Reference,
    at_event: u64,
    seed: u64,
) -> CrashPointReport {
    let mut rep = CrashPointReport {
        event: at_event,
        seed,
        recovered: false,
        checks: 0,
        violations: Vec::new(),
    };
    let fail = |rep: &mut CrashPointReport, msg: String| {
        rep.violations
            .push(format!("event {at_event} seed {seed}: {msg}"));
    };

    let image = if at_event >= reference.total_events {
        run(cfg, None).media.crash(seed)
    } else {
        let out = run(cfg, Some(CrashPlan { at_event, seed }));
        // The sweep's coverage claim rests on replay determinism.
        rep.checks += 1;
        if out.media.persistence_events() != reference.total_events {
            fail(
                &mut rep,
                format!(
                    "event stream nondeterministic: {} vs reference {}",
                    out.media.persistence_events(),
                    reference.total_events
                ),
            );
        }
        out.media
            .take_crash_capture()
            .expect("event index within the run")
    };

    let media = Arc::new(Media::from_crash(image));
    let mut cost = Cost::new();
    let recovery = recover_node(Arc::clone(&media), cfg.node_config(), &mut cost);
    let Some((node, report)) = recovery else {
        // Legal only while the pool root has never been fenced (events
        // 0 and 1 of a fresh run are the root flush + fence).
        rep.checks += 1;
        if at_event >= 2 {
            fail(&mut rep, "unrecoverable after the pool root fence".into());
        }
        return rep;
    };
    rep.recovered = true;

    // Invariant 1: the committed id is bounded by the enclosing step
    // boundaries and was actually requested.
    let c = report.resume_batch;
    let (lo, hi) = committed_bounds(reference, at_event);
    rep.checks += 1;
    if c < lo || c > hi {
        fail(&mut rep, format!("committed id {c} outside [{lo}, {hi}]"));
    }
    rep.checks += 1;
    if c != 0 && !reference.requested.contains(&c) {
        fail(&mut rep, format!("committed id {c} was never requested"));
    }

    // Invariant 2: no live slot with a bad checksum.
    rep.checks += 1;
    if report.scan.corrupt != 0 {
        fail(
            &mut rep,
            format!("{} corrupt slots survived as Valid", report.scan.corrupt),
        );
    }

    // Invariant 3: free ∪ live partitions 0..high_water exactly.
    let pool = node.pool();
    let hw = pool.high_water();
    let free = pool.free_list_ids();
    rep.checks += 1;
    if let Some(bad) = free.iter().find(|s| s.0 >= hw) {
        fail(&mut rep, format!("free slot {bad:?} at/beyond hw {hw}"));
    }
    let mut dedup: Vec<_> = free.clone();
    dedup.sort_unstable();
    dedup.dedup();
    rep.checks += 1;
    if dedup.len() != free.len() {
        fail(&mut rep, "duplicate ids in recovered free list".into());
    }
    rep.checks += 1;
    if free.len() as u64 + report.scan.live.len() as u64 != hw {
        fail(
            &mut rep,
            format!(
                "slot leak: {} free + {} live != {hw} high-water",
                free.len(),
                report.scan.live.len()
            ),
        );
    }
    rep.checks += 1;
    if report.scan.live.iter().any(|r| free.contains(&r.id)) {
        fail(&mut rep, "live slot also on the free list".into());
    }

    // Invariant 4: recovery is idempotent — crash immediately after it
    // and recover again (every recovery write is itself fenced).
    let recrash = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let media2 = Arc::new(Media::from_crash(media.crash(recrash)));
    let mut cost2 = Cost::new();
    rep.checks += 1;
    match recover_node(media2, cfg.node_config(), &mut cost2) {
        None => fail(&mut rep, "re-recovery after recovery failed".into()),
        Some((_, report2)) => {
            if report2.resume_batch != c {
                fail(
                    &mut rep,
                    format!(
                        "re-recovery committed {} != first recovery {c}",
                        report2.resume_batch
                    ),
                );
            }
            rep.checks += 1;
            if live_set(&report2) != live_set(&report) {
                fail(&mut rep, "re-recovery live set diverged".into());
            }
        }
    }

    // Invariant 5: resume the surviving timeline to the end; the final
    // weights must be bit-identical to the fault-free reference.
    for b in (c + 1)..=cfg.batches {
        step(cfg, &node, b);
    }
    rep.checks += 1;
    for (key, expect) in &reference.final_weights {
        let Some(w) = node.read_weights(*key) else {
            fail(&mut rep, format!("key {key} missing after resume"));
            continue;
        };
        let bits: Vec<u32> = w.iter().map(|v| v.to_bits()).collect();
        if &bits != expect {
            fail(
                &mut rep,
                format!("key {key} weights diverged after resume (not bit-identical)"),
            );
        }
    }
    rep
}

/// Aggregate outcome of a sweep (also the `BENCH_crashmc.json` shape).
#[derive(Debug)]
pub struct SweepReport {
    /// Persistence events in the reference run (coverage denominator).
    pub total_events: u64,
    /// Event indices evaluated (numerator; `total_events + 1` when
    /// `stride == 1`, including the quiescent end-state crash).
    pub indices_checked: u64,
    /// Torn-write seeds evaluated per index.
    pub seeds_per_index: u64,
    /// Invariant checks evaluated across all crash points.
    pub invariant_checks: u64,
    /// Crash points that left unrecoverable media legally (before the
    /// pool root fence).
    pub unrecoverable_fresh: u64,
    /// All invariant violations found (empty = the protocol held
    /// everywhere).
    pub violations: Vec<String>,
}

/// Sweep crash points `0, stride, 2·stride, ..` (plus the quiescent
/// end state) with `seeds_per_index` torn-write resolutions each.
pub fn sweep(cfg: &CrashMcConfig) -> SweepReport {
    let reference = reference(cfg);
    let mut out = SweepReport {
        total_events: reference.total_events,
        indices_checked: 0,
        seeds_per_index: cfg.seeds_per_index,
        invariant_checks: 0,
        unrecoverable_fresh: 0,
        violations: Vec::new(),
    };
    let stride = cfg.stride.max(1);
    let mut k = 0;
    while k <= reference.total_events {
        out.indices_checked += 1;
        for s in 0..cfg.seeds_per_index.max(1) {
            let seed = k.wrapping_mul(1_000_003).wrapping_add(s);
            let rep = check_crash_point(cfg, &reference, k, seed);
            out.invariant_checks += rep.checks;
            if !rep.recovered && rep.violations.is_empty() {
                out.unrecoverable_fresh += 1;
            }
            out.violations.extend(rep.violations);
        }
        k += stride;
    }
    out
}

/// Capture the crash image at `at_event` of the reference schedule —
/// e.g. to hand a `net::failover` standby a mid-run crash state and
/// drive promotion from an enumerated crash point.
pub fn capture_image(cfg: &CrashMcConfig, at_event: u64, seed: u64) -> oe_simdevice::CrashImage {
    let out = run(cfg, Some(CrashPlan { at_event, seed }));
    out.media
        .take_crash_capture()
        .expect("event index within the run")
}

/// Committed-checkpoint bounds `[lo, hi]` a recovery from a crash at
/// `at_event` may legally report, from the reference step boundaries.
pub fn committed_bounds(reference: &Reference, at_event: u64) -> (BatchId, BatchId) {
    let lo = reference
        .records
        .iter()
        .filter(|r| r.events <= at_event)
        .map(|r| r.committed)
        .max()
        .unwrap_or(0);
    let hi = reference
        .records
        .iter()
        .find(|r| r.events >= at_event)
        .map(|r| r.committed)
        .unwrap_or_else(|| reference.records.last().unwrap().committed);
    (lo, hi)
}

/// Outcome of crashing *inside* the recovery scan itself.
#[derive(Debug)]
pub struct RecoverySweepReport {
    /// Persistence events an uninterrupted recovery executes.
    pub recovery_events: u64,
    /// Crash points inside recovery evaluated (all of them).
    pub indices_checked: u64,
    /// Invariant checks evaluated.
    pub invariant_checks: u64,
    /// Violations found.
    pub violations: Vec<String>,
}

/// Crash the reference run at `at_event`, then crash the *recovery* of
/// that image at every persistence event recovery itself issues
/// (`free_no_list`'s durable frees), re-recover, and require the same
/// committed id and live set as an uninterrupted recovery — crash
/// during recovery must never lose or duplicate state.
pub fn recovery_crash_sweep(cfg: &CrashMcConfig, at_event: u64, seed: u64) -> RecoverySweepReport {
    let image = {
        let out = run(cfg, Some(CrashPlan { at_event, seed }));
        out.media
            .take_crash_capture()
            .expect("event index within the run")
    };

    // Uninterrupted recovery baseline (also counts recovery's events).
    let base_media = Arc::new(Media::from_crash(image.clone()));
    let mut cost = Cost::new();
    let base = recover_node(Arc::clone(&base_media), cfg.node_config(), &mut cost);
    let mut out = RecoverySweepReport {
        recovery_events: base_media.persistence_events(),
        indices_checked: 0,
        invariant_checks: 0,
        violations: Vec::new(),
    };
    let Some((_, base_report)) = base else {
        // Nothing recoverable at this crash point: nothing to sweep.
        return out;
    };
    let base_live = live_set(&base_report);

    for j in 0..out.recovery_events {
        out.indices_checked += 1;
        let jseed = seed.wrapping_mul(31).wrapping_add(j);
        let media = Arc::new(Media::from_crash(image.clone()));
        media.arm_crash_plan(CrashPlan {
            at_event: j,
            seed: jseed,
        });
        let mut c1 = Cost::new();
        // First recovery runs to completion (the capture is taken on the
        // fly); the interrupted-at-j image is what a second process sees.
        let _ = recover_node(Arc::clone(&media), cfg.node_config(), &mut c1);
        let crashed = media
            .take_crash_capture()
            .expect("recovery event index in range");
        let media2 = Arc::new(Media::from_crash(crashed));
        let mut c2 = Cost::new();
        out.invariant_checks += 1;
        match recover_node(media2, cfg.node_config(), &mut c2) {
            None => out.violations.push(format!(
                "recovery event {j}: interrupted recovery left unrecoverable media"
            )),
            Some((node2, report2)) => {
                if report2.resume_batch != base_report.resume_batch {
                    out.violations.push(format!(
                        "recovery event {j}: committed {} != baseline {}",
                        report2.resume_batch, base_report.resume_batch
                    ));
                }
                out.invariant_checks += 1;
                if live_set(&report2) != base_live {
                    out.violations
                        .push(format!("recovery event {j}: live set diverged"));
                }
                out.invariant_checks += 1;
                if report2.scan.corrupt != 0 {
                    out.violations.push(format!(
                        "recovery event {j}: {} corrupt slots",
                        report2.scan.corrupt
                    ));
                }
                out.invariant_checks += 1;
                let hw = node2.pool().high_water();
                let free = node2.pool().free_list_ids();
                if free.len() as u64 + report2.scan.live.len() as u64 != hw {
                    out.violations
                        .push(format!("recovery event {j}: slot accounting leak"));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sgd_cfg() -> CrashMcConfig {
        CrashMcConfig::exhaustive(OptimizerKind::Sgd { lr: 0.5 })
    }

    #[test]
    fn reference_run_is_deterministic() {
        let cfg = sgd_cfg();
        let a = reference(&cfg);
        let b = reference(&cfg);
        assert_eq!(a.total_events, b.total_events);
        assert!(a.total_events > 50, "schedule generates real traffic");
        assert_eq!(a.final_weights, b.final_weights, "bit-identical replays");
        assert_eq!(a.requested, vec![2, 4, 6]);
        // Three commits land in the reference (requests at 2, 4, 6
        // commit during the following batch's maintenance).
        assert_eq!(a.records.last().unwrap().committed, 6);
        // Boundary event counters never decrease (a batch with no
        // eviction or commit traffic legally issues zero events), and
        // the run as a whole generates traffic past creation.
        for w in a.records.windows(2) {
            assert!(w[0].events <= w[1].events);
        }
        let first = a.records.first().unwrap().events;
        let last = a.records.last().unwrap().events;
        assert!(last > first);
    }

    #[test]
    fn spot_crash_points_hold_all_invariants() {
        // The full sweep lives in tests/crashmc.rs; here a spot check at
        // characteristic indices (fresh pool, mid-run, quiescence).
        let cfg = sgd_cfg();
        let r = reference(&cfg);
        for k in [0, 1, 2, r.total_events / 2, r.total_events] {
            let rep = check_crash_point(&cfg, &r, k, 7);
            assert!(rep.violations.is_empty(), "{:?}", rep.violations);
            assert!(rep.checks > 0);
        }
    }

    #[test]
    fn sampled_sweep_is_clean_and_counts_coverage() {
        let mut cfg = sgd_cfg();
        cfg.stride = 29;
        cfg.seeds_per_index = 1;
        let rep = sweep(&cfg);
        assert!(rep.violations.is_empty(), "{:#?}", rep.violations);
        assert_eq!(
            rep.indices_checked,
            rep.total_events / 29 + 1,
            "stride covers the range"
        );
        assert!(rep.invariant_checks > rep.indices_checked * 5);
    }

    #[test]
    fn crash_during_recovery_recovers_again() {
        let cfg = sgd_cfg();
        let r = reference(&cfg);
        // Crash mid-run where uncommitted future slots exist, so the
        // recovery scan has durable frees to issue (and be crashed in).
        let rep = recovery_crash_sweep(&cfg, r.total_events - 3, 11);
        assert!(
            rep.recovery_events > 0,
            "recovery at this index issues durable frees"
        );
        assert_eq!(rep.indices_checked, rep.recovery_events);
        assert!(rep.violations.is_empty(), "{:#?}", rep.violations);
    }
}
