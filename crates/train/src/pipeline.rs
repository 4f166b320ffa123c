//! The training driver: one window loop for every schedule.
//!
//! A window is one batch. Its stages are the paper's batch anatomy
//! (Fig. 2), and the staleness bound `k` says how many batches of pushes
//! may still be in flight when the next window starts:
//!
//! ```text
//!            window t-1              window t                window t+1
//!  GPU    ───[compute t-1]────── ───[compute t]─────── ───[compute t+1]───
//!  PS lane   [apply ≤ t-1-k]       [apply ≤ t-k]          [apply ≤ t+1-k]
//!            [prefetch t]          [prefetch t+1]         [prefetch t+2]
//!  exposed  pull misses t-1 ──── pull misses t ──────── pull misses t+1
//! ```
//!
//! - **`k = 0` is the paper's synchronous batch**
//!   ([`PipelineConfig::sync`]): every key is demand-pulled, the
//!   window's own push applies serially after compute, and the window
//!   costs `pull + max(compute, maintain) + push`. Nothing is cached
//!   and nothing is in flight at a window boundary. What the former
//!   separate synchronous trainer produced for this schedule is pinned
//!   as golden literals in `tests/pipeline_e2e.rs`.
//! - **Prefetch** (`k ≥ 1`): batch `t+1`'s pull is issued during batch
//!   `t`'s compute (via the [`oe_net::PullTicket`] issue/complete
//!   split) and parked in a skew-aware [`PrefetchCache`] ranked by the
//!   decaying [`FreqTracker`] sketch — hot keys stay resident, cold keys
//!   stream through the demand path. Only cache *misses* stay on the
//!   critical path.
//! - **Async pushes** (`k ≥ 1`): gradients enqueue instead of applying
//!   inline; during window `t`, every pending push of batch `≤ t − k`
//!   is force-applied on the overlapped PS lane.
//! - **Cost composition**: each window pays the exposed pull, the max
//!   over its overlapped lanes (GPU compute, maintenance, PS lane) and
//!   any serial tail; the sum of the lanes minus that max is the time
//!   the overlap hid. Each worker's pull or push burst also pays one
//!   [`NetCharge`] round trip.
//!
//! Coherence: the cache is fenced on every out-of-band apply (applied
//! keys are invalidated before the next prefetch re-pulls them), so a
//! lookup never returns weights that differ from a demand pull at the
//! same point in the schedule. Keys never change nodes (the cluster
//! routes by the static hash), so nothing else can stale a row.
//!
//! Staleness semantics: the pull of batch `t` observes all applies
//! `≤ t − 1 − k`. Every pull of a key with a pending unapplied push is
//! counted ([`PipelineReport::stale_read_occurrences`]); at `k = 0`
//! that count is provably zero. Checkpoints and the end of a run are
//! barriers: the queue drains serially first, so a committed checkpoint
//! never misses an enqueued gradient.
//!
//! Failover (§VI-E), one rule for every `k`: when a call fails and the
//! client reports a completed failover ([`PsClient::failover_resume`]),
//! the trainer charges the recovery pause, drops the push queue and the
//! prefetch cache, and rewinds to the committed checkpoint's successor.
//! That is sound at `k ≥ 1` because the checkpoint was a drain barrier:
//! the promoted standby holds exactly the applies `≤ cp`, an empty
//! queue at `cp + 1` is the fault-free state right after that barrier,
//! the dropped gradients are regenerated by the replay, and a cached
//! row is indistinguishable from a demand pull. With deterministic
//! (synthetic) gradients the replay is bit-identical to a fault-free
//! run.

use crate::model::DeepFm;
use crate::phases::PhaseBreakdown;
use crate::report::TrainReport;
use crate::trainer::{teacher_label, worker_grads, BatchCtx, RunAcc};
use crate::{TrainMode, TrainerConfig};
use oe_cache::{FreqTracker, KeyMap, KeySet, PrefetchCache};
use oe_core::engine::PsEngine;
use oe_core::{BatchId, Key};
use oe_net::{Error as NetError, NetCharge, PsClient};
use oe_simdevice::clock::Nanos;
use oe_simdevice::{Cost, VirtualClock};
use oe_workload::trace::{TraceKind, TraceRecorder};
use oe_workload::{Batch, LookaheadGen, WorkloadGen, WorkloadSpec};
use std::collections::VecDeque;

/// Wire time of one worker's pull or push burst: a [`NetCharge`] round
/// trip carrying each key's id and its `dim` f32s (weights one way,
/// gradients the other).
fn burst_net_ns(keys: usize, dim: usize) -> Nanos {
    NetCharge::round_trip_ns(keys * (8 + 4 * dim))
}

/// A marker for engines [`PipelinedTrainer::set_coherence`] accepts.
/// Keys never change nodes, so it carries nothing. It stays only
/// because the end-to-end benchmark (`e2e/`) names it; ROADMAP item 7
/// deletes it.
pub trait CoherenceSource {}

impl<E: PsEngine> CoherenceSource for oe_cluster::PlacedCluster<E> {}

/// Pipeline knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Maximum batches of pushes allowed in flight. `0` is the paper's
    /// synchronous batch; `k ≥ 1` lets up to `k` batches of pushes
    /// complete out-of-band.
    pub staleness: usize,
    /// Prefetch-cache capacity in entries. `0` disables prefetching
    /// (every pull stays on the demand path).
    pub prefetch_capacity: usize,
    /// Decay the heat sketch every this many windows (`0` = never), so
    /// admission tracks the *current* hot set under popularity drift.
    pub heat_decay_every: u64,
}

impl PipelineConfig {
    /// Fully synchronous schedule: no overlap, no cache.
    pub fn sync() -> Self {
        Self {
            staleness: 0,
            prefetch_capacity: 0,
            heat_decay_every: 64,
        }
    }

    /// Bounded-staleness schedule.
    pub fn bounded(staleness: usize, prefetch_capacity: usize) -> Self {
        Self {
            staleness,
            prefetch_capacity,
            heat_decay_every: 64,
        }
    }
}

/// A batch's enqueued gradient bursts (one per worker), awaiting apply.
struct PendingPush {
    batch: BatchId,
    bursts: Vec<(Vec<Key>, Vec<f32>)>,
}

/// Outcome of a run: the [`TrainReport`] plus pipeline accounting.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The underlying training report (virtual time, phases, engine
    /// counter deltas, loss, checkpoints).
    pub train: TrainReport,
    /// Staleness bound the run used.
    pub staleness: usize,
    /// Prefetch-cache hits at serve time.
    pub prefetch_hits: u64,
    /// Serve-time lookups that fell through to a demand pull.
    pub prefetch_misses: u64,
    /// Cache entries dropped for hotter keys.
    pub prefetch_evictions: u64,
    /// Cache entries dropped by coherence fences (applied pushes).
    pub prefetch_invalidations: u64,
    /// Rows admitted by the prefetcher.
    pub prefetch_inserts: u64,
    /// Prefetch offers refused by skew-aware admission.
    pub prefetch_admission_rejects: u64,
    /// Fraction of serve-time lookups answered from the cache.
    pub prefetch_hit_rate: f64,
    /// Pulled key occurrences whose key had a pending unapplied push
    /// (always 0 at staleness 0).
    pub stale_read_occurrences: u64,
    /// Distinct keys ever pulled while a push to them was pending.
    pub stale_read_keys: u64,
    /// Push batches applied out-of-band on the overlapped lane.
    pub async_applied_batches: u64,
    /// Virtual time hidden by overlap (sum over windows of the lanes'
    /// total minus their max).
    pub hidden_ns: Nanos,
    /// Serial time spent draining the push queue at checkpoint barriers
    /// and the end-of-run epilogue.
    pub drain_ns: Nanos,
}

impl PipelineReport {
    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{} staleness={} time={:>10.3}ms/batch hit={:>5.1}% stale_reads={} hidden={:.3}ms",
            self.train.engine,
            self.staleness,
            self.train.ns_per_batch() / 1e6,
            self.prefetch_hit_rate * 100.0,
            self.stale_read_occurrences,
            self.hidden_ns as f64 / 1e6,
        )
    }
}

/// The trainer. Drives one [`PsClient`] — an in-process engine, an
/// [`oe_net::EngineClient`], or an [`oe_net::RemotePs`] with retries and
/// failover — over one workload. Owns its (pure, replayable) workload
/// generator so the lookahead memo can peek one batch ahead.
pub struct PipelinedTrainer<'a> {
    client: &'a dyn PsClient,
    gen: LookaheadGen,
    cfg: TrainerConfig,
    pcfg: PipelineConfig,
    clock: VirtualClock,
    model: Option<DeepFm>,
    cache: PrefetchCache,
    heat: FreqTracker,
    pending: VecDeque<PendingPush>,
    pending_refs: KeyMap<u32>,
    trace: TraceRecorder,
    windows_run: u64,
    stale_occurrences: u64,
    stale_keys: KeySet,
    async_applied_batches: u64,
    hidden_ns: Nanos,
    drain_ns: Nanos,
}

impl<'a> PipelinedTrainer<'a> {
    /// Build over any [`PsClient`] backend.
    pub fn with_client(
        client: &'a dyn PsClient,
        spec: WorkloadSpec,
        cfg: TrainerConfig,
        pcfg: PipelineConfig,
    ) -> Self {
        let dim = client.embed_dim();
        let model = match &cfg.mode {
            TrainMode::DeepFm(mcfg) => {
                assert_eq!(mcfg.dim, dim, "model dim must match PS");
                assert_eq!(mcfg.fields, spec.fields, "model fields must match workload");
                Some(DeepFm::new(mcfg.clone()))
            }
            TrainMode::Synthetic { .. } => None,
        };
        Self {
            client,
            gen: LookaheadGen::new(WorkloadGen::new(spec)),
            cfg,
            clock: VirtualClock::new(),
            model,
            cache: PrefetchCache::new(pcfg.prefetch_capacity, dim),
            pcfg,
            heat: FreqTracker::new(),
            pending: VecDeque::new(),
            pending_refs: KeyMap::default(),
            trace: TraceRecorder::new(),
            windows_run: 0,
            stale_occurrences: 0,
            stale_keys: KeySet::default(),
            async_applied_batches: 0,
            hidden_ns: 0,
            drain_ns: 0,
        }
    }

    /// Does nothing: keys never change nodes, so no placement event can
    /// stale a prefetched row. It stays only because the end-to-end
    /// benchmark (`e2e/`) calls it; ROADMAP item 7 deletes it.
    pub fn set_coherence(&mut self, src: &'a dyn CoherenceSource) {
        let _ = src;
    }

    /// Virtual clock (exposed for checkpoint-interval experiments).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Run `batches` windows starting at `start_batch` (1-based batch
    /// ids; pass the recovery resume point + 1 after a crash). Panics
    /// on backend failure — use [`PipelinedTrainer::try_run`] with
    /// remote backends.
    pub fn run(&mut self, start_batch: BatchId, batches: u64) -> PipelineReport {
        self.try_run(start_batch, batches)
            .unwrap_or_else(|e| panic!("training backend failed: {e}"))
    }

    /// Fallible run: absorbs failovers by the module-level rewind rule,
    /// propagates every other backend error.
    pub fn try_run(
        &mut self,
        start_batch: BatchId,
        batches: u64,
    ) -> Result<PipelineReport, NetError> {
        let ctx = BatchCtx::new(self.client.embed_dim(), self.gen.spec().clone(), &self.cfg);
        let stats0 = self.client.snapshot_stats()?;
        let mut acc = RunAcc::new();
        let (mut failovers, mut rewound_batches) = (0u64, 0u64);

        let end = start_batch + batches;
        let mut b = start_batch;
        while b < end {
            match self.run_window(b, end, &ctx, &mut acc) {
                Ok(()) => b += 1,
                Err(err) => {
                    let Some(ev) = self.client.failover_resume() else {
                        return Err(err);
                    };
                    // Batches already counted stay counted (acc keeps
                    // their phases) and the replay adds on top, so
                    // total_ns reflects the true cost of the failure.
                    let resume = ev.resume_batch + 1;
                    failovers += 1;
                    rewound_batches += b.saturating_sub(resume);
                    self.clock.advance(ev.recovery_ns);
                    self.pending.clear();
                    self.pending_refs.clear();
                    self.cache.clear();
                    b = resume;
                }
            }
        }

        let prefetch = self.cache.stats();
        Ok(PipelineReport {
            train: TrainReport {
                engine: self.client.backend_name(),
                workers: self.cfg.workers,
                batches,
                total_ns: self.clock.now(),
                phases: acc.phases,
                stats: self.client.snapshot_stats()?.delta_since(&stats0),
                avg_loss: if acc.loss_count > 0 {
                    Some(acc.loss_sum / acc.loss_count as f64)
                } else {
                    None
                },
                checkpoints_taken: acc.ckpts_taken,
                committed_checkpoint: self.client.committed()?,
                failovers,
                rewound_batches,
                trace_per_ms: self.cfg.record_trace.then(|| self.trace.per_ms()),
                pull_hist: acc.pull_hist.snapshot(),
                maintain_hist: acc.maintain_hist.snapshot(),
                push_hist: acc.push_hist.snapshot(),
                batch_hist: acc.batch_hist.snapshot(),
            },
            staleness: self.pcfg.staleness,
            prefetch_hits: prefetch.hits,
            prefetch_misses: prefetch.misses,
            prefetch_evictions: prefetch.evictions,
            prefetch_invalidations: prefetch.invalidations,
            prefetch_inserts: prefetch.inserts,
            prefetch_admission_rejects: prefetch.admission_rejects,
            prefetch_hit_rate: prefetch.hit_rate(),
            stale_read_occurrences: self.stale_occurrences,
            stale_read_keys: self.stale_keys.len() as u64,
            async_applied_batches: self.async_applied_batches,
            hidden_ns: self.hidden_ns,
            drain_ns: self.drain_ns,
        })
    }

    /// One window: serve pulls (cache + demand), overlap
    /// [maintenance ∥ compute ∥ due applies + prefetch], enqueue the
    /// window's own push, advance the clock by the composed cost. A
    /// mid-window error returns before the phase accumulators are
    /// touched (the failover rewind replays the whole batch).
    fn run_window(
        &mut self,
        b: BatchId,
        end: BatchId,
        ctx: &BatchCtx,
        acc: &mut RunAcc,
    ) -> Result<(), NetError> {
        let client = self.client;
        let dim = ctx.dim;
        let k = self.pcfg.staleness as u64;
        let caching = self.pcfg.staleness >= 1 && self.cache.capacity() > 0;
        let mut batch_phase = PhaseBreakdown::default();
        // At k = 0 each window's push applies before the window ends (an
        // error drops it), so no push is pending at a boundary and no
        // pull can read a stale key: the refcounts are not kept.
        debug_assert!(
            k >= 1 || self.pending.is_empty(),
            "k = 0 starts a window with no push pending"
        );

        // ---- heat decay (tracks the current hot set under drift) ----
        // The sketch's one reader is the cache: without one, it is not
        // fed. A decay lowers heats, so the cache re-files its entries.
        if caching
            && self.pcfg.heat_decay_every > 0
            && self.windows_run > 0
            && self.windows_run.is_multiple_of(self.pcfg.heat_decay_every)
        {
            self.heat.decay();
            self.cache.rerank(&self.heat);
        }
        self.windows_run += 1;

        // ---- serve pulls: cache hits + demand misses ----
        let global = self.gen.take_global_batch(b);
        let mut pull_cost = Cost::new();
        let mut net_pull: Nanos = 0;
        let mut demand_keys = 0usize;
        let mut worker_data: Vec<(Batch, Vec<f32>)> = Vec::with_capacity(global.len());
        for wb in global {
            if caching {
                for &key in &wb.unique_keys {
                    self.heat.observe(key, 1);
                }
            }
            if k >= 1 {
                for &key in &wb.unique_keys {
                    if self.pending_refs.contains_key(&key) {
                        self.stale_occurrences += 1;
                        self.stale_keys.insert(key);
                    }
                }
            }
            let mut weights = Vec::with_capacity(wb.unique_keys.len() * dim);
            if !caching {
                // Every key takes the demand path.
                client.pull_batch(&wb.unique_keys, b, &mut weights, &mut pull_cost)?;
                net_pull = net_pull.max(burst_net_ns(wb.unique_keys.len(), dim));
                demand_keys += wb.unique_keys.len();
            } else {
                let mut hit_rows: Vec<f32> = Vec::new();
                let mut kinds: Vec<bool> = Vec::with_capacity(wb.unique_keys.len());
                let mut miss_keys: Vec<Key> = Vec::new();
                for &key in &wb.unique_keys {
                    if self.cache.lookup(key, &mut hit_rows) {
                        kinds.push(true);
                    } else {
                        kinds.push(false);
                        miss_keys.push(key);
                    }
                }
                let mut miss_rows: Vec<f32> = Vec::new();
                if !miss_keys.is_empty() {
                    client.pull_batch(&miss_keys, b, &mut miss_rows, &mut pull_cost)?;
                    net_pull = net_pull.max(burst_net_ns(miss_keys.len(), dim));
                    demand_keys += miss_keys.len();
                }
                let (mut hi, mut mi) = (0usize, 0usize);
                for &is_hit in &kinds {
                    if is_hit {
                        weights.extend_from_slice(&hit_rows[hi * dim..(hi + 1) * dim]);
                        hi += 1;
                    } else {
                        weights.extend_from_slice(&miss_rows[mi * dim..(mi + 1) * dim]);
                        mi += 1;
                    }
                }
            }
            worker_data.push((wb, weights));
        }
        batch_phase.pull_ns = ctx.pull_model.burst_ns(&pull_cost) + net_pull;
        self.record(self.clock.now(), TraceKind::Pull, demand_keys);

        // ---- deferred maintenance ∥ GPU compute ----
        let m = client.flush_batch(b)?;
        batch_phase.maintain_ns = ctx.maint_model.burst_ns(&m.cost);
        batch_phase.compute_ns = self.cfg.gpu.compute_ns(
            ctx.spec.batch_size / self.cfg.workers.max(1) as usize,
            ctx.spec.fields,
            dim,
        );

        // ---- gradients (functional) ----
        let mut bursts: Vec<(Vec<Key>, Vec<f32>)> = Vec::with_capacity(worker_data.len());
        for (wb, weights) in worker_data {
            let grads = worker_grads(
                &self.cfg.mode,
                &mut self.model,
                &wb,
                &weights,
                b,
                dim,
                ctx.spec.fields,
                acc,
            );
            bursts.push((wb.unique_keys, grads));
        }
        if let Some(model) = self.model.as_mut() {
            model.step_dense(); // synchronous allreduce equivalent
        }

        // ---- enqueue this window's push ----
        if k >= 1 {
            for (keys, _) in &bursts {
                for &key in keys {
                    *self.pending_refs.entry(key).or_insert(0) += 1;
                }
            }
        }
        self.pending.push_back(PendingPush { batch: b, bursts });

        // ---- apply pushes past their staleness deadline ----
        // At k = 0 the deadline is this window's own push: it applies
        // here, serially, after compute — the paper's push burst. At
        // k ≥ 1 the due batch applies on the PS lane, beside compute.
        let overlapped = k >= 1;
        let mut ps_lane_at = self.clock.now() + batch_phase.pull_ns;
        if !overlapped {
            ps_lane_at += batch_phase.compute_ns;
        }
        let mut apply_ns: Nanos = 0;
        while self.pending.front().is_some_and(|p| p.batch + k <= b) {
            let p = self.pending.pop_front().expect("front checked");
            apply_ns += self.apply(&p, overlapped, ps_lane_at, ctx)?;
            self.async_applied_batches += overlapped as u64;
        }

        // ---- prefetch the next window's keys onto the PS lane ----
        // After the applies above, so the rows it parks reflect the
        // same watermark the next window's demand pulls will see.
        let mut prefetch_ns: Nanos = 0;
        if caching && b + 1 < end {
            let next = self.gen.unique_union(b + 1);
            let mut cand: Vec<Key> = Vec::new();
            for key in next {
                if !self.cache.contains(key) && self.cache.admissible(key, &self.heat) {
                    cand.push(key);
                }
            }
            if !cand.is_empty() {
                let mut c = Cost::new();
                let mut rows: Vec<f32> = Vec::new();
                let ticket = client.pull_issue(&cand, b + 1)?;
                client.pull_complete(ticket, &mut rows, &mut c)?;
                for (i, &key) in cand.iter().enumerate() {
                    self.cache
                        .insert(key, &rows[i * dim..(i + 1) * dim], &self.heat);
                }
                prefetch_ns = ctx.pull_model.burst_ns(&c) + burst_net_ns(cand.len(), dim);
                self.record(ps_lane_at, TraceKind::Pull, cand.len());
            }
        }

        // ---- compose the window's virtual time ----
        // The lanes run on their own resources (GPU, maintainer threads,
        // PS service threads), so the window pays the longest one and
        // the overlap hides the rest. At k = 0 the PS lane is empty and
        // the window's own push is the serial tail.
        let ps_lane_ns = if overlapped {
            apply_ns + prefetch_ns
        } else {
            batch_phase.push_ns = apply_ns;
            0
        };
        let lanes = [batch_phase.compute_ns, batch_phase.maintain_ns, ps_lane_ns];
        let critical = lanes.into_iter().fold(0, Nanos::max);
        self.hidden_ns += lanes.into_iter().sum::<Nanos>() - critical;
        batch_phase.spill_ns = critical.saturating_sub(batch_phase.compute_ns);
        self.clock
            .advance(batch_phase.pull_ns + critical + batch_phase.push_ns);

        // ---- barriers: a due checkpoint and the end of the run ----
        // Both drain the queue serially first: a committed checkpoint
        // never misses an enqueued gradient, and a run leaves the same
        // weights a synchronous run of the same gradients would.
        let due = self.cfg.ckpt.due(self.clock.now(), b);
        if due.is_some() || b + 1 == end {
            let mut drain: Nanos = 0;
            while let Some(p) = self.pending.pop_front() {
                drain += self.apply(&p, false, self.clock.now() + drain, ctx)?;
            }
            self.drain_ns += drain;
            self.clock.advance(drain);
        }
        if let Some(cp) = due {
            let inline = client.checkpoint(cp)?;
            let mut pause = ctx.ckpt_model.burst_ns(&inline);
            pause += self.cfg.dense_ckpt_pause_ns;
            batch_phase.ckpt_pause_ns = pause;
            self.clock.advance(pause);
            acc.ckpts_taken += 1;
        }

        acc.pull_hist.record(batch_phase.pull_ns);
        acc.maintain_hist.record(batch_phase.maintain_ns);
        acc.push_hist.record(batch_phase.push_ns);
        acc.batch_hist.record(batch_phase.total_ns());
        acc.phases.accumulate(&batch_phase);
        Ok(())
    }

    /// Apply one queued batch — on the overlapped PS lane or serially —
    /// releasing its keys' pending refs and fencing the prefetch cache
    /// (the cached rows predate the apply). Returns the burst's virtual
    /// time; `at` is when the burst reaches the PS (Fig. 2 trace).
    fn apply(
        &mut self,
        p: &PendingPush,
        overlapped: bool,
        at: Nanos,
        ctx: &BatchCtx,
    ) -> Result<Nanos, NetError> {
        let mut c = Cost::new();
        let mut net: Nanos = 0;
        for (keys, grads) in &p.bursts {
            if overlapped {
                self.client.push_batch_async(keys, grads, p.batch, &mut c)?;
            } else {
                self.client.push_batch(keys, grads, p.batch, &mut c)?;
            }
            net = net.max(burst_net_ns(keys.len(), ctx.dim));
            if self.pcfg.staleness >= 1 {
                for key in keys {
                    if let Some(n) = self.pending_refs.get_mut(key) {
                        *n -= 1;
                        if *n == 0 {
                            self.pending_refs.remove(key);
                        }
                    }
                }
            }
            if !self.cache.is_empty() {
                self.cache.invalidate(keys);
            }
            self.record(at, TraceKind::Update, keys.len());
        }
        Ok(ctx.pull_model.burst_ns(&c) + net)
    }

    /// Fig. 2 trace: `count` requests of `kind` reach the PS at `at`.
    fn record(&mut self, at: Nanos, kind: TraceKind, count: usize) {
        if self.cfg.record_trace {
            self.trace.record(at, kind, count as u64);
        }
    }

    /// Held-out accuracy of the DeepFM against the synthetic teacher:
    /// generates `eval_batches` batches from a seed-shifted copy of the
    /// workload (keys the trainer never saw as (batch, input) pairs),
    /// reads current weights through the costless diagnostic path, and
    /// scores `predict ≥ 0.5` against the teacher label. `None` in
    /// synthetic-gradient mode. Inputs touching keys the PS has never
    /// initialized are skipped (they carry no trained signal).
    pub fn eval_accuracy(&mut self, eval_seed: u64, eval_batches: u64) -> Option<f64> {
        self.model.as_ref()?;
        let client = self.client;
        let dim = client.embed_dim();
        let mut spec = self.gen.spec().clone();
        spec.seed ^= eval_seed;
        let fields = spec.fields;
        let gen = WorkloadGen::new(spec);
        let model = self.model.as_mut().expect("checked above");
        let (mut correct, mut total) = (0u64, 0u64);
        for b in 0..eval_batches {
            let wb = gen.worker_batch(b, 0);
            for (ii, input) in wb.input_keys().enumerate() {
                let mut emb = vec![0.0f32; fields * dim];
                let mut known = true;
                for (f, k) in input.iter().enumerate() {
                    match client.weights_of(*k).ok().flatten() {
                        Some(w) => emb[f * dim..(f + 1) * dim].copy_from_slice(&w[..dim]),
                        None => {
                            known = false;
                            break;
                        }
                    }
                }
                if !known {
                    continue;
                }
                let p = model.predict(&emb, &[]);
                let label = teacher_label(input, b, ii);
                if (p >= 0.5) == (label >= 0.5) {
                    correct += 1;
                }
                total += 1;
            }
        }
        if total == 0 {
            None
        } else {
            Some(correct as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DeepFmConfig;
    use crate::GpuModel;
    use oe_core::stats::StatsSnapshot;
    use oe_core::{CheckpointScheduler, NodeConfig, OptimizerKind, PsNode};
    use oe_net::EngineClient;
    use oe_workload::SkewModel;
    use std::sync::Arc;

    fn small_spec(workers: usize) -> WorkloadSpec {
        WorkloadSpec {
            num_keys: 2_000,
            fields: 4,
            batch_size: 64,
            workers,
            skew: SkewModel::paper_fit(),
            seed: 5,
            drift_keys_per_batch: 0,
        }
    }

    fn node() -> PsNode {
        let mut cfg = NodeConfig::small(8);
        cfg.optimizer = OptimizerKind::Adagrad {
            lr: 0.05,
            eps: 1e-8,
        };
        cfg.cache_bytes = 400 * cfg.bytes_per_cached_entry();
        PsNode::new(cfg)
    }

    fn sync_trainer(n: &PsNode, workers: usize, cfg: TrainerConfig) -> PipelinedTrainer<'_> {
        PipelinedTrainer::with_client(n, small_spec(workers), cfg, PipelineConfig::sync())
    }

    /// Golden: what the separate synchronous trainer produced for
    /// `(&node(), small_spec(2), TrainerConfig::paper(2)).run(1, 12)` at
    /// commit 1861765, the last one that had it. The k = 0
    /// schedule must reproduce every quantity to the unit.
    #[test]
    fn staleness_zero_reproduces_the_pinned_sync_run() {
        let n = node();
        let r = sync_trainer(&n, 2, TrainerConfig::paper(2)).run(1, 12);
        assert_eq!(r.train.total_ns, 17_512_920, "virtual time");
        assert_eq!(
            r.train.phases,
            PhaseBreakdown {
                pull_ns: 197_679,
                maintain_ns: 2_515,
                spill_ns: 0,
                compute_ns: 17_130_828,
                push_ns: 184_413,
                ckpt_pause_ns: 0,
            }
        );
        let stats = StatsSnapshot {
            pulls: 288,
            hits: 202,
            new_entries: 86,
            pushes: 288,
            ..StatsSnapshot::default()
        };
        assert_eq!(r.train.stats, stats, "engine counters");
        assert_eq!(r.stale_read_occurrences, 0);
        assert_eq!(r.async_applied_batches, 0);
        let mut bytes = Vec::new();
        for k in 0..small_spec(2).num_keys {
            if let Some(w) = n.read_weights(k) {
                bytes.extend_from_slice(&k.to_le_bytes());
                w.iter()
                    .for_each(|v| bytes.extend_from_slice(&v.to_bits().to_le_bytes()));
            }
        }
        assert_eq!(
            oe_simdevice::integrity_hash(&[&bytes]),
            0xe032_7b40_0d9c_baa3,
            "all weights"
        );
    }

    #[test]
    fn synthetic_run_produces_consistent_report() {
        let n = node();
        let r = sync_trainer(&n, 2, TrainerConfig::paper(2))
            .run(1, 10)
            .train;
        assert_eq!(r.batches, 10);
        assert!(r.total_ns > 0);
        assert_eq!(
            r.stats.pulls, r.stats.pushes,
            "every pulled key is pushed back"
        );
        assert!(r.phases.compute_ns > 0);
        assert!(r.avg_loss.is_none());
        assert_eq!(r.failovers, 0);
        assert_eq!(r.rewound_batches, 0);
        assert!(r.trace_per_ms.is_none(), "tracing is opt-in");
        // Every phase histogram carries one sample per batch.
        for (name, h) in [
            ("pull", &r.pull_hist),
            ("maintain", &r.maintain_hist),
            ("push", &r.push_hist),
            ("batch", &r.batch_hist),
        ] {
            assert_eq!(h.count(), 10, "{name} histogram");
        }
        assert!(r.batch_hist.p99() >= r.pull_hist.p50(), "batch ⊇ pull");
        assert!(r.latency_summary().contains("maintain"));
    }

    #[test]
    fn deterministic_virtual_time() {
        let run = || {
            let n = node();
            let r = sync_trainer(&n, 2, TrainerConfig::paper(2)).run(1, 8);
            r.train.total_ns
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wrapped_engine_matches_bare_engine() {
        let pcfg = || PipelineConfig::bounded(2, 512);
        let bare = node();
        let rb =
            PipelinedTrainer::with_client(&bare, small_spec(2), TrainerConfig::paper(2), pcfg())
                .try_run(1, 8)
                .expect("in-process backends are infallible");
        let wrapped = EngineClient::new(Arc::new(node()));
        let rw =
            PipelinedTrainer::with_client(&wrapped, small_spec(2), TrainerConfig::paper(2), pcfg())
                .run(1, 8);
        assert_eq!(rb.train.total_ns, rw.train.total_ns);
        assert_eq!(rb.train.stats, rw.train.stats);
        // The one difference: only the bare engine is told which of its
        // pushes were applied off the critical path.
        let async_keys = |c: &dyn PsClient| {
            let text = c.metrics().unwrap();
            text.lines()
                .any(|l| l.starts_with("oe_async_applied_keys_total") && !l.ends_with(" 0"))
        };
        assert!(async_keys(&bare));
        assert!(!async_keys(&wrapped));
    }

    #[test]
    fn deepfm_training_reduces_loss() {
        let n = node();
        let mut cfg = TrainerConfig::paper(1);
        cfg.mode = TrainMode::DeepFm(DeepFmConfig {
            dim: 8,
            fields: 4,
            dense_features: 0,
            hidden: vec![16],
            dense_lr: 0.02,
            seed: 3,
        });
        let mut t = sync_trainer(&n, 1, cfg);
        let early = t.run(1, 15).train.avg_loss.unwrap();
        let late = t.run(16, 15).train.avg_loss.unwrap();
        assert!(
            late < early,
            "loss should fall with training: {early} → {late}"
        );
        // Better than chance (ln 2 ≈ 0.693) by the second block.
        assert!(late < 0.67, "late loss {late}");
    }

    #[test]
    fn more_workers_less_total_time() {
        let time_for = |workers: usize| {
            let n = node();
            let r = sync_trainer(&n, workers, TrainerConfig::paper(workers as u32)).run(1, 10);
            r.train.total_ns
        };
        let w1 = time_for(1);
        let w4 = time_for(4);
        assert!(w4 < w1, "data parallel speedup: {w1} vs {w4}");
    }

    #[test]
    fn checkpointing_engine_commits_during_training() {
        let n = node();
        let mut cfg = TrainerConfig::paper(2);
        cfg.ckpt = CheckpointScheduler::every(1); // due at every boundary
        let r = sync_trainer(&n, 2, cfg).run(1, 6).train;
        assert!(r.checkpoints_taken >= 5);
        assert!(
            r.committed_checkpoint >= 4,
            "commits ride maintenance: {}",
            r.committed_checkpoint
        );
    }

    #[test]
    fn trace_records_pull_update_pairs_at_every_staleness() {
        for pcfg in [PipelineConfig::sync(), PipelineConfig::bounded(2, 512)] {
            let n = node();
            let mut cfg = TrainerConfig::paper(2);
            cfg.record_trace = true;
            let k = pcfg.staleness;
            let r = PipelinedTrainer::with_client(&n, small_spec(2), cfg, pcfg).run(1, 5);
            let trace = r.train.trace_per_ms.expect("trace recorded");
            let pulls: u64 = trace.iter().map(|b| b.pulls).sum();
            let updates: u64 = trace.iter().map(|b| b.updates).sum();
            // Requests that reached the PS: every key is updated once,
            // and pulled once unless a still-valid prefetched row served
            // it (k ≥ 1 only).
            assert_eq!(updates, r.train.stats.pushes, "k={k}");
            assert_eq!(pulls, r.train.stats.pulls, "k={k}");
            if k == 0 {
                assert_eq!(pulls, updates, "pull/update pairs");
            }
            assert!(pulls > 0);
        }
    }

    #[test]
    fn bounded_staleness_beats_sync_virtual_time() {
        let run = |pcfg: PipelineConfig| {
            let n = node();
            let mut t =
                PipelinedTrainer::with_client(&n, small_spec(2), TrainerConfig::paper(2), pcfg);
            t.run(1, 30)
        };
        let sync = run(PipelineConfig::sync());
        let async2 = run(PipelineConfig::bounded(2, 4096));
        assert!(
            async2.train.total_ns < sync.train.total_ns,
            "overlap must help: sync {} vs k=2 {}",
            sync.train.total_ns,
            async2.train.total_ns
        );
        assert!(
            async2.prefetch_hit_rate > 0.3,
            "{}",
            async2.prefetch_hit_rate
        );
        assert!(async2.stale_read_occurrences > 0, "conflicts tracked");
        assert!(async2.async_applied_batches > 0);
        assert!(async2.hidden_ns > 0);
    }

    #[test]
    fn checkpoint_is_a_barrier() {
        let n = node();
        let mut cfg = TrainerConfig::paper(2);
        cfg.ckpt = CheckpointScheduler::every(1);
        let mut t =
            PipelinedTrainer::with_client(&n, small_spec(2), cfg, PipelineConfig::bounded(3, 1024));
        let r = t.run(1, 8);
        assert!(r.train.checkpoints_taken >= 7);
        assert!(r.drain_ns > 0, "barriers drained the queue");
        // Every enqueued push applied by the end: no pending refs leak.
        assert_eq!(t.pending.len(), 0);
        assert!(t.pending_refs.is_empty());
    }

    #[test]
    fn end_of_run_drain_leaves_no_pending_pushes() {
        let n = node();
        let mut t = PipelinedTrainer::with_client(
            &n,
            small_spec(2),
            TrainerConfig::paper(2),
            PipelineConfig::bounded(4, 512),
        );
        let r = t.run(1, 10);
        assert!(t.pending.is_empty());
        assert!(t.pending_refs.is_empty());
        assert!(r.drain_ns > 0, "the last k batches drained at the end");
        assert!(r.train.stats.pulls >= 1, "engine served demand traffic");
    }

    // The sync-vs-bounded-async frontier on a pull/push-heavy
    // DeepFM-lite (fast dense part, fat embedding traffic): two epochs
    // of eight batches, each epoch ending in a drain barrier.
    const DIM: usize = 16;
    const FIELDS: usize = 6;
    const EPOCHS: u64 = 2;
    const BATCHES_PER_EPOCH: u64 = 8;

    struct Arm {
        total_ns: u64,
        /// Cumulative virtual ns and held-out accuracy after each epoch.
        curve: Vec<(u64, f64)>,
        last: PipelineReport,
    }

    fn run_arm(k: usize) -> Arm {
        let mut nc = NodeConfig::small(DIM);
        nc.optimizer = OptimizerKind::Adagrad {
            lr: 0.02,
            eps: 1e-8,
        };
        nc.cache_bytes = 512 * nc.bytes_per_cached_entry();
        nc.pmem_capacity = 1 << 28;
        let node = PsNode::new(nc);
        let spec = WorkloadSpec {
            num_keys: 6_000,
            fields: FIELDS,
            batch_size: 128,
            workers: 2,
            skew: SkewModel::paper_fit(),
            seed: 0x91de,
            drift_keys_per_batch: 0,
        };
        let mut cfg = TrainerConfig::paper(2);
        cfg.gpu = GpuModel {
            batch_overhead_ns: 80_000,
            ns_per_input_dim: 18.0,
            allreduce_ns: 100_000,
        };
        cfg.mode = TrainMode::DeepFm(DeepFmConfig {
            dim: DIM,
            fields: FIELDS,
            dense_features: 0,
            hidden: vec![32, 16],
            dense_lr: 0.004,
            seed: 99,
        });
        let pcfg = match k {
            0 => PipelineConfig::sync(),
            k => PipelineConfig::bounded(k, 1_024),
        };
        let mut t = PipelinedTrainer::with_client(&node, spec, cfg, pcfg);
        let mut curve = Vec::new();
        let mut last = None;
        for e in 0..EPOCHS {
            let r = t.run(1 + e * BATCHES_PER_EPOCH, BATCHES_PER_EPOCH);
            let accuracy = t.eval_accuracy(0xEE1, 2).expect("DeepFM mode");
            curve.push((r.train.total_ns, accuracy));
            last = Some(r);
        }
        Arm {
            total_ns: curve[curve.len() - 1].0,
            curve,
            last: last.expect("epochs >= 1"),
        }
    }

    #[test]
    fn frontier_is_anchored_at_zero_and_faster_at_two() {
        let (k0, k2) = (run_arm(0), run_arm(2));
        assert_eq!(k0.last.stale_read_occurrences, 0);
        assert_eq!(k0.last.async_applied_batches, 0);
        let speedup = k0.total_ns as f64 / k2.total_ns as f64;
        assert!(speedup > 1.0, "overlap must help: {speedup:.3}×");
        assert!(k2.last.prefetch_hit_rate > 0.0);
        assert_eq!(k2.curve.len(), 2, "one convergence point per epoch");
        assert!(k2.curve[1].0 > k2.curve[0].0);
    }

    /// Virtual time, prefetch counts and held-out accuracy replay
    /// exactly, at k = 0 and k = 2.
    #[test]
    fn gated_subset_is_deterministic_metrics_plus_wall_geomean() {
        for k in [0, 2] {
            let (a, b) = (run_arm(k), run_arm(k));
            assert_eq!(a.total_ns, b.total_ns, "k = {k}");
            assert_eq!(a.curve, b.curve, "k = {k}");
            assert_eq!(a.last.prefetch_hits, b.last.prefetch_hits, "k = {k}");
            assert_eq!(a.last.prefetch_misses, b.last.prefetch_misses, "k = {k}");
        }
    }
}
