//! The five stages every workload runs: set-up → train → publish →
//! serve → recover. One function, one scope: the trainer borrows the
//! client, the reader borrows the snapshot handle.
//!
//! Nothing here knows whether the run is traced; the seams decide.

use crate::seams::Seams;
use crate::stack::Stack;
use crate::trace::Tracer;
use crate::workloads::{
    mix64, Shape, Topology, LOOKUP_BLOCK, POINT_LIMIT_US, RECALL_SAMPLE, ROUNDS, TOPK_LIMIT_US,
    TOP_K,
};
use oe_core::recovery::recover_node;
use oe_core::stats::StatsSnapshot;
use oe_core::{CheckpointScheduler, Key, PsEngine};
use oe_net::PsClient;
use oe_serve::{recall_at_k, AnnConfig, ExactScan, Retriever, Snapshot, SnapshotHandle};
use oe_simdevice::{Cost, CrashImage, Media};
use oe_train::{
    PhaseBreakdown, PipelineConfig, PipelineReport, PipelinedTrainer, TrainMode, TrainerConfig,
};
use oe_workload::{SkewModel, StormGen, StormSpec, WorkloadGen, WorkloadSpec};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Keys first-touched per pull during set-up.
const TOUCH_CHUNK: usize = 8192;
/// One in this many served rows is compared with its reference row.
const VERIFY_EVERY: usize = 16;

/// A request is "in a flip window" if it was due within this long
/// after a flip.
const FLIP_WINDOW_NS: u64 = 1_000_000;

/// The check that the open-loop generator kept to its schedule.
pub const GENERATOR_CHECK: &str = "open_loop_generator_on_time";

/// One named pass/fail check of the run's outputs.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct PublishSample {
    pub capture_ns: u64,
    pub build_ns: u64,
    pub flip_ns: u64,
}

#[derive(Clone, Debug, Default)]
pub struct OpenLoop {
    pub rate_rps: u64,
    pub sent: u64,
    pub ok: u64,
    /// Latency from the due time, ns, in send order.
    pub latency_ns: Vec<u64>,
    /// Latency of requests due while a publish was in flight.
    pub flip_window_ns: Vec<u64>,
    /// How late the reader started a request it was idle for.
    pub gen_late_ns: Vec<u64>,
    pub flips: u64,
    pub wall_ns: u64,
}

/// Everything a run measured, before it is turned into named metrics.
#[derive(Clone, Debug, Default)]
pub struct Raw {
    pub setup_secs: Vec<f64>,
    pub chunk_secs: Vec<f64>,
    pub chunk_batches: Vec<u64>,
    pub v_total_ns: u64,
    pub phases: PhaseBreakdown,
    pub hidden_ns: u64,
    pub drain_ns: u64,
    pub checkpoints: u64,
    pub stale_reads: u64,
    pub prefetch: [u64; 6],
    pub stats: StatsSnapshot,
    pub persist_events: u64,
    pub publishes: Vec<PublishSample>,
    /// Builds without an ANN index (traced run only).
    pub plain_build_ns: Vec<u64>,
    pub build_vns: u64,
    pub snapshot_rows: u64,
    pub lookup_block_ns: Vec<u64>,
    pub lookups: u64,
    pub lookup_hits: u64,
    pub topk_ns: Vec<u64>,
    /// Per round: `(summed top-k time ns, queries)`.
    pub topk_rounds: Vec<(u64, u64)>,
    pub topk_vns: u64,
    pub recall_sum: f64,
    pub recall_n: u64,
    pub open: OpenLoop,
    pub recover_wall_ns: u64,
    pub recover_vns: u64,
    pub recover_keys: u64,
    pub recover_scan_vns: u64,
    pub weights_fnv: u64,
    pub node0_key_share: f64,
    pub cluster_state: (u64, u64),
    pub pool_attached: u32,
    pub client_retries: u64,
    pub server_counters: (u64, u64),
    /// Host seconds of train, publish, serve, recover.
    pub stage_secs: [f64; 4],
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub checks: Vec<Check>,
    /// Replay of the batch generator on the trained batch ids
    /// (traced run only): `(host ns, unique keys, key references)`.
    pub gen_replay: Option<(u64, u64, u64)>,
}

impl Raw {
    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    /// Whether the program's outputs were right. [`GENERATOR_CHECK`]
    /// judges the host, not the program: when it fails the open-loop
    /// numbers are reported invalid and the run still stands.
    pub fn correct(&self) -> bool {
        self.ops_failed == 0
            && self
                .checks
                .iter()
                .all(|c| c.ok || c.name == GENERATOR_CHECK)
    }
}

pub fn fnv1a(seed: u64, weights: &[f32]) -> u64 {
    let mut h = seed;
    for w in weights {
        for b in w.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn workload_spec(shape: &Shape, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        num_keys: shape.num_keys,
        fields: shape.fields,
        batch_size: shape.batch_size,
        workers: shape.workers,
        skew: SkewModel::paper_fit().scaled(shape.skew_scale),
        // `WorkloadGen` seeds batch b's stream with `seed ^ b·φ` and
        // steps it by φ, so under a seed with few bits set many
        // batches replay an earlier batch's draws: temporal locality
        // the skew model does not have, in an amount that depends on
        // the seed's low bits (hit rate 0.93 at seed 101, 0.65 at 102).
        // A mixed seed makes the coincidences equally rare for all.
        seed: mix64(seed),
        drift_keys_per_batch: shape.drift_keys_per_batch,
    }
}

fn trainer_config(shape: &Shape) -> TrainerConfig {
    let mut cfg = TrainerConfig::paper(shape.workers as u32);
    cfg.mode = TrainMode::Synthetic { grad_scale: 0.01 };
    cfg.ckpt = CheckpointScheduler::every(shape.ckpt_interval_vms * 1_000_000);
    cfg
}

fn pipeline_config(shape: &Shape) -> PipelineConfig {
    if shape.staleness == 0 {
        PipelineConfig::sync()
    } else {
        PipelineConfig::bounded(shape.staleness, shape.prefetch_capacity)
    }
}

/// Build the system, first-touch every key and warm the cache.
fn set_up<S: Seams>(seams: &S, shape: &Shape, seed: u64) -> Result<Stack<S>, String> {
    let stack = Stack::build(seams, shape, seed).map_err(|e| format!("set-up: {e}"))?;
    let keys: Vec<Key> = (0..shape.num_keys).collect();
    let mut out = Vec::new();
    let mut cost = Cost::new();
    for chunk in keys.chunks(TOUCH_CHUNK) {
        out.clear();
        stack
            .client
            .pull_batch(chunk, 0, &mut out, &mut cost)
            .and_then(|()| stack.client.flush_batch(0).map(|_| ()))
            .map_err(|e| format!("first touch: {e}"))?;
    }
    let mut cfg = trainer_config(shape);
    cfg.ckpt = CheckpointScheduler::disabled();
    let mut warm = PipelinedTrainer::with_client(
        &*stack.client,
        workload_spec(shape, seed),
        cfg,
        pipeline_config(shape),
    );
    warm.try_run(1, shape.warm_batches)
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok(stack)
}

/// All weights of keys `0..num_keys` through the in-process diagnostic
/// read, row-major, `dim` per key.
fn read_all<S: Seams>(stack: &Stack<S>, shape: &Shape) -> Result<Vec<f32>, String> {
    let mut rows = Vec::with_capacity(shape.num_keys as usize * shape.dim);
    for key in 0..shape.num_keys {
        let w = stack
            .read_weights(key)
            .ok_or_else(|| format!("key {key} unknown after set-up"))?;
        rows.extend_from_slice(&w[..shape.dim]);
    }
    Ok(rows)
}

/// Request a checkpoint at `batch` (everything up to it has applied)
/// and run the maintenance pass that commits it.
fn commit_now(client: &dyn PsClient, batch: u64) -> Result<(), String> {
    client
        .checkpoint(batch)
        .and_then(|_| client.flush_batch(batch + 1))
        .map_err(|e| format!("commit at {batch}: {e}"))?;
    match client.committed() {
        Ok(c) if c == batch => Ok(()),
        Ok(c) => Err(format!("committed {c}, expected {batch}")),
        Err(e) => Err(format!("committed(): {e}")),
    }
}

fn sum_reports(raw: &mut Raw, r: &PipelineReport) {
    raw.phases.accumulate(&r.train.phases);
    raw.checkpoints += r.train.checkpoints_taken;
    raw.v_total_ns = r.train.total_ns;
    // Cumulative over the trainer's life.
    raw.hidden_ns = r.hidden_ns;
    raw.drain_ns = r.drain_ns;
    raw.stale_reads = r.stale_read_occurrences;
    raw.prefetch = [
        r.prefetch_hits,
        r.prefetch_misses,
        r.prefetch_inserts,
        r.prefetch_evictions,
        r.prefetch_invalidations,
        r.prefetch_admission_rejects,
    ];
}

/// Spin until `due`; the reader is one of the two runnable threads the
/// box has cores for, so it may burn its core.
fn spin_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        std::hint::spin_loop();
    }
}

/// The request stream of the serving stages: `StormGen::request_key`
/// (zipf background plus an always-on crowd), restricted to keys node
/// 0 owns — its partition is the one published.
struct Requests<'a, S: Seams> {
    gen: StormGen,
    gen_seed: u64,
    stack: &'a Stack<S>,
    next: u64,
}

impl<'a, S: Seams> Requests<'a, S> {
    fn new(stack: &'a Stack<S>, shape: &Shape, seed: u64) -> Self {
        Requests {
            gen_seed: mix64(seed ^ 0x70B1C),
            gen: StormGen::new(StormSpec {
                num_keys: shape.num_keys,
                keys_per_batch: LOOKUP_BLOCK,
                hot_keys: (0..64.min(shape.num_keys)).collect(),
                hot_share: 0.2,
                storm_start: 0,
                storm_end: u64::MAX,
                base: SkewModel::paper_fit(),
                seed: mix64(seed ^ 0x5E57E),
            }),
            stack,
            next: 0,
        }
    }

    fn key(&mut self) -> Key {
        loop {
            let k = self.gen.request_key(self.next);
            self.next += 1;
            if self.stack.on_node0(k) {
                return k;
            }
        }
    }

    /// A key of node 0 drawn uniformly: the row it names is a top-k
    /// query. Point lookups follow the skewed stream because what they
    /// cost depends on which rows are hot; what a top-k costs depends on
    /// the query vector, and under the skewed stream a handful of hot
    /// rows would be nearly all of the sample.
    fn uniform_key(&mut self, num_keys: u64) -> Key {
        loop {
            let k = mix64(self.gen_seed ^ self.next) % num_keys;
            self.next += 1;
            if self.stack.on_node0(k) {
                return k;
            }
        }
    }

    fn fill(&mut self, out: &mut Vec<Key>, n: usize) {
        out.clear();
        out.extend((0..n).map(|_| self.key()));
    }
}

/// Reference rows of a published checkpoint: every key's weights as
/// read from the live engine when the checkpoint was requested.
struct Reference {
    checkpoint: u64,
    rows: Vec<f32>,
}

/// The two checkpoints a reader can be on: the latest and the one
/// before it.
struct References {
    dim: usize,
    prev: Option<Reference>,
    cur: Option<Reference>,
}

impl References {
    fn publish(&mut self, checkpoint: u64, rows: Vec<f32>) {
        self.prev = self.cur.take();
        self.cur = Some(Reference { checkpoint, rows });
    }

    /// `Some(true)` if `row` is exactly the reference row of `key` at
    /// `checkpoint`; `None` for a checkpoint that is not published.
    fn matches(&self, checkpoint: u64, key: Key, row: &[f32]) -> Option<bool> {
        let reference = [&self.cur, &self.prev]
            .into_iter()
            .flatten()
            .find(|r| r.checkpoint == checkpoint)?;
        let at = key as usize * self.dim;
        Some(
            reference.rows[at..at + self.dim]
                .iter()
                .zip(row)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        )
    }
}

fn build_snapshot(
    image: CrashImage,
    dim: usize,
    ann: Option<&AnnConfig>,
) -> Result<Snapshot, String> {
    Snapshot::build(image, dim, ann).ok_or_else(|| "image holds no initialized pool".to_string())
}

/// Sampled rows of `keys` against the reference of the checkpoint the
/// reader is on; returns how many differ.
fn verify_sample(
    reader: &mut oe_serve::SnapshotReader<'_>,
    refs: &References,
    keys: impl Iterator<Item = Key>,
) -> u64 {
    let snap = reader.acquire();
    keys.filter(|&k| {
        let ok = snap
            .lookup(k)
            .0
            .and_then(|row| refs.matches(snap.checkpoint(), k, row));
        ok != Some(true)
    })
    .count() as u64
}

/// This round's share of `total` operations.
fn share(total: u64, round: usize) -> u64 {
    let (r, n) = (round as u64, ROUNDS as u64);
    total * (r + 1) / n - total * r / n
}

/// Run one workload. Each of the [`ROUNDS`] rounds trains a chunk,
/// commits a checkpoint, publishes it and serves from it, so every
/// metric's samples are spread over the whole run: the reference box
/// has slow spells of a second or more, and a median only shrugs them
/// off if they cover less than half of its samples. The open loop and
/// the recovery follow the last round.
///
/// A traced `seams` also takes the measurements only the traced run
/// reports (generator replay, builds without ANN). `train_only` skips
/// publishing and serving: the traced run's untraced twin, for the
/// tracing overhead.
pub fn run<S: Seams>(seams: &S, shape: &Shape, seed: u64, train_only: bool) -> Result<Raw, String> {
    let tracer: Option<&Arc<Tracer>> = seams.tracer();
    let trace = |on: bool| {
        if let Some(t) = tracer {
            t.set_enabled(on);
        }
    };
    let mut raw = Raw::default();
    let dim = shape.dim;

    // ---- set-up, several times; the last one is used ----
    let mut stack = None;
    for _ in 0..SETUPS {
        if let Some(prev) = stack.take() {
            Stack::shutdown(prev);
        }
        let t0 = Instant::now();
        stack = Some(set_up(seams, shape, seed)?);
        raw.setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let stack = stack.expect("SETUPS ≥ 1");
    let client: &dyn PsClient = &*stack.client;
    let media = stack.node0().pool().media().clone();
    let node0_keys: Vec<Key> = (0..shape.num_keys).filter(|&k| stack.on_node0(k)).collect();
    raw.node0_key_share = node0_keys.len() as f64 / shape.num_keys as f64;

    // A snapshot to open the handle on; never served from.
    commit_now(client, shape.warm_batches)?;
    let handle = SnapshotHandle::new(Arc::new(build_snapshot(media.crash(seed), dim, None)?));
    let ann = AnnConfig::paper_default();
    let retriever = seams.retriever();
    let mut requests = Requests::new(&stack, shape, seed);
    let mut reader = handle.reader();
    let mut refs = References {
        dim,
        prev: None,
        cur: None,
    };
    let mut keys = Vec::with_capacity(LOOKUP_BLOCK);
    let mut query = Vec::with_capacity(dim);
    let mut mixed = 0u64;
    let mut snap_prev = handle.load();

    let stats0 = stack.stats();
    let events0 = media.persistence_events();
    let mut trainer = PipelinedTrainer::with_client(
        client,
        workload_spec(shape, seed),
        trainer_config(shape),
        pipeline_config(shape),
    );
    if let Some(src) = stack.coherence() {
        trainer.set_coherence(src);
    }
    let first = shape.warm_batches + 1;
    let per_chunk = shape.train_batches / ROUNDS as u64;
    // Wire transparency is checked on a 1/20-length prefix, so the
    // first chunk runs as two calls on the wire topology.
    let prefix = if shape.topology == Topology::Wire {
        (shape.train_batches / 20).clamp(1, per_chunk)
    } else {
        0
    };
    let mut prefix_fnv = None;
    let mut next = first;
    for round in 0..ROUNDS {
        // ---- train ----
        trace(true);
        let root = tracer.and_then(|t| t.enter("train.run"));
        let mut secs = 0.0;
        let parts: &[u64] = if round == 0 && prefix > 0 && prefix < per_chunk {
            &[prefix, per_chunk - prefix]
        } else {
            &[per_chunk]
        };
        for (i, &n) in parts.iter().enumerate() {
            let t0 = Instant::now();
            let report = trainer.try_run(next, n);
            secs += t0.elapsed().as_secs_f64();
            next += n;
            raw.ops_attempted += n;
            match report {
                Ok(r) => sum_reports(&mut raw, &r),
                Err(e) => return Err(format!("train failed before batch {next}: {e}")),
            }
            if round == 0 && i == 0 && prefix > 0 {
                trace(false);
                prefix_fnv = Some(fnv1a(FNV_OFFSET, &read_all(&stack, shape)?));
                trace(true);
            }
        }
        if let Some(t) = tracer {
            t.exit(root, per_chunk, 0);
        }
        trace(false);
        raw.chunk_secs.push(secs);
        raw.chunk_batches.push(per_chunk);
        raw.stage_secs[0] += secs;

        // ---- checkpoint: commit here, between chunks, so the image's
        // checkpoint id and its reference rows are known exactly ----
        let stage0 = Instant::now();
        let committed = next - 1;
        if !train_only {
            refs.publish(committed, read_all(&stack, shape)?);
        }
        commit_now(client, committed)?;
        if train_only {
            continue;
        }

        // ---- publish ----
        raw.ops_attempted += 1;
        let t0 = Instant::now();
        let image = media.crash(seed.wrapping_add(round as u64));
        let capture_ns = t0.elapsed().as_nanos() as u64;
        if tracer.is_some() {
            // A twin build without the ANN index, outside the publish
            // sample: the difference is what the index costs to build.
            // Copying the image is not part of either build.
            let copy = image.clone();
            let t0 = Instant::now();
            black_box(build_snapshot(copy, dim, None)?);
            raw.plain_build_ns.push(t0.elapsed().as_nanos() as u64);
        }
        let t1 = Instant::now();
        let snap = Arc::new(build_snapshot(image, dim, Some(&ann))?);
        let build_ns = t1.elapsed().as_nanos() as u64;
        // Retiring the snapshot before last frees its arena; that is
        // off the path from checkpoint to readable snapshot.
        let retiring = std::mem::replace(&mut snap_prev, handle.load());
        let t2 = Instant::now();
        handle.flip(snap.clone());
        raw.publishes.push(PublishSample {
            capture_ns,
            build_ns,
            flip_ns: t2.elapsed().as_nanos() as u64,
        });
        drop(retiring);
        raw.build_vns = snap.build_cost().total_ns();
        raw.snapshot_rows = snap.num_keys() as u64;
        if snap.checkpoint() != committed {
            raw.ops_failed += 1;
        }
        raw.stage_secs[1] += stage0.elapsed().as_secs_f64();

        // ---- serve, closed loop: one reader ----
        let stage0 = Instant::now();
        trace(true);
        let root = tracer.and_then(|t| t.enter("serve.closed"));
        for _ in 0..share(shape.lookup_blocks, round) {
            requests.fill(&mut keys, LOOKUP_BLOCK);
            let t0 = Instant::now();
            let mut hits = 0u64;
            for &k in &keys {
                let (row, _) = reader.lookup(k);
                if let Some(row) = row {
                    hits += 1;
                    black_box(row[0]);
                }
            }
            raw.lookup_block_ns.push(t0.elapsed().as_nanos() as u64);
            if let Some(t) = tracer {
                t.block("serve.lookup", t0, LOOKUP_BLOCK as u64, 0);
            }
            raw.lookups += LOOKUP_BLOCK as u64;
            raw.lookup_hits += hits;
            raw.ops_attempted += LOOKUP_BLOCK as u64;
            raw.ops_failed += LOOKUP_BLOCK as u64 - hits;
            mixed += verify_sample(
                &mut reader,
                &refs,
                keys.iter().copied().step_by(VERIFY_EVERY),
            );
        }
        let (mut round_ns, mut round_n) = (0u64, 0u64);
        for _ in 0..share(shape.topk_queries, round) {
            let k = requests.uniform_key(shape.num_keys);
            raw.ops_attempted += 1;
            query.clear();
            match reader.lookup(k).0 {
                Some(row) => query.extend_from_slice(row),
                None => {
                    raw.ops_failed += 1;
                    continue;
                }
            }
            let t0 = Instant::now();
            let (top, cost) = reader.retrieve(&query, TOP_K, &*retriever);
            let ns = t0.elapsed().as_nanos() as u64;
            raw.topk_ns.push(ns);
            round_ns += ns;
            round_n += 1;
            raw.topk_vns += cost.total_ns();
            if top.is_empty() {
                raw.ops_failed += 1;
            }
            if (raw.topk_ns.len() as u64).is_multiple_of(RECALL_SAMPLE) {
                let (exact, _) = ExactScan.top_k(reader.acquire(), &query, TOP_K);
                raw.recall_sum += recall_at_k(&exact, &top);
                raw.recall_n += 1;
            }
        }
        if round_n > 0 {
            raw.topk_rounds.push((round_ns, round_n));
        }
        if let Some(t) = tracer {
            t.exit(root, 0, 0);
        }
        trace(false);
        raw.stage_secs[2] += stage0.elapsed().as_secs_f64();
    }
    raw.stats = stack.stats().delta_since(&stats0);
    raw.persist_events = media.persistence_events() - events0;
    let phases_ns = raw.phases.pull_ns
        + raw.phases.compute_ns
        + raw.phases.spill_ns
        + raw.phases.push_ns
        + raw.phases.ckpt_pause_ns
        + raw.drain_ns;
    raw.check(
        "virtual_phases_sum_to_total",
        phases_ns == raw.v_total_ns,
        format!(
            "phases {phases_ns} ns, TrainReport.total_ns {}",
            raw.v_total_ns
        ),
    );
    if train_only {
        drop(reader);
        drop(trainer);
        stack.shutdown();
        return Ok(raw);
    }
    let last = next - 1;
    let final_rows = &refs.cur.as_ref().expect("a round ran").rows;
    raw.weights_fnv = fnv1a(FNV_OFFSET, final_rows);
    let node0_fnv = node0_keys.iter().fold(FNV_OFFSET, |h, &k| {
        let at = k as usize * dim;
        fnv1a(h, &final_rows[at..at + dim])
    });
    raw.check(
        "published_checkpoint_is_final",
        handle.load().checkpoint() == last,
        format!(
            "snapshot at {}, final commit {last}",
            handle.load().checkpoint()
        ),
    );

    // ---- wire transparency: the same prefix on an in-process node ----
    if let Some(wire_fnv) = prefix_fnv {
        let mut local = shape.clone();
        local.topology = Topology::Local;
        let reference = set_up(&crate::seams::Plain, &local, seed)?;
        commit_now(&*reference.client, shape.warm_batches)?;
        let mut t = PipelinedTrainer::with_client(
            &*reference.client,
            workload_spec(shape, seed),
            trainer_config(shape),
            pipeline_config(shape),
        );
        t.try_run(first, prefix)
            .map_err(|e| format!("in-process reference: {e}"))?;
        let local_fnv = fnv1a(FNV_OFFSET, &read_all(&reference, shape)?);
        raw.check(
            "wire_transparency",
            wire_fnv == local_fnv,
            format!(
                "prefix of {prefix} batches: wire {wire_fnv:016x}, in-process {local_fnv:016x}"
            ),
        );
        drop(t);
        reference.shutdown();
    }

    // ---- generator replay (traced run only) ----
    if tracer.is_some() {
        let gen = WorkloadGen::new(workload_spec(shape, seed));
        let (mut unique, mut refs_n) = (0u64, 0u64);
        let t0 = Instant::now();
        for b in first..=last {
            for w in 0..shape.workers {
                let batch = black_box(gen.worker_batch(b, w));
                unique += batch.unique_keys.len() as u64;
                refs_n += batch.total_refs() as u64;
            }
        }
        raw.gen_replay = Some((t0.elapsed().as_nanos() as u64, unique, refs_n));
    }

    // ---- serve, open loop: the reader on a schedule, a publisher
    // thread flipping A↔B beside it. The two snapshots are built
    // before the clock starts: on the reference box two busy threads
    // are throttled to one CPU in 4 ms slices, so a rebuild running
    // beside the reader would measure the hypervisor. What a rebuild
    // costs is the publish stage's number. ----
    let stage0 = Instant::now();
    trace(true);
    let root = tracer.and_then(|t| t.enter("serve.open"));
    let n = shape.open_requests as usize;
    let mut open_keys = Vec::with_capacity(n);
    requests.fill(&mut open_keys, n);
    if shape.open_topk_every > 0 {
        for k in open_keys.iter_mut().step_by(shape.open_topk_every as usize) {
            *k = requests.uniform_key(shape.num_keys);
        }
    }
    let (snap_a, snap_b) = (snap_prev, handle.load());
    let interval_ns = 1_000_000_000 / shape.open_rate_rps.max(1);
    let stop = AtomicBool::new(false);
    let period = Duration::from_millis(shape.flip_period_ms);
    let mut open = OpenLoop {
        rate_rps: shape.open_rate_rps,
        latency_ns: Vec::with_capacity(n),
        gen_late_ns: Vec::with_capacity(n),
        ..Default::default()
    };
    let mut due_ns: Vec<u64> = Vec::with_capacity(n);
    let start = Instant::now();
    let flips: Vec<u64> = std::thread::scope(|s| {
        let publisher = s.spawn(|| {
            let mut flips = Vec::new();
            let mut flip_at = start + period;
            let mut to_a = true;
            while !stop.load(Ordering::Acquire) {
                let now = Instant::now();
                if now < flip_at {
                    std::thread::sleep((flip_at - now).min(Duration::from_millis(5)));
                    continue;
                }
                handle.flip(if to_a { snap_a.clone() } else { snap_b.clone() });
                flips.push(start.elapsed().as_nanos() as u64);
                to_a = !to_a;
                flip_at += period;
            }
            flips
        });
        let mut free_at = start;
        for (i, &k) in open_keys.iter().enumerate() {
            let due = start + Duration::from_nanos(i as u64 * interval_ns);
            let began = spin_until(due);
            if free_at <= due {
                open.gen_late_ns.push((began - due).as_nanos() as u64);
            }
            let is_topk =
                shape.open_topk_every > 0 && (i as u64).is_multiple_of(shape.open_topk_every);
            let served = if is_topk {
                query.clear();
                match reader.lookup(k).0 {
                    Some(row) => {
                        query.extend_from_slice(row);
                        !reader.retrieve(&query, TOP_K, &*retriever).0.is_empty()
                    }
                    None => false,
                }
            } else {
                reader.lookup(k).0.map(|row| black_box(row[0])).is_some()
            };
            let done = Instant::now();
            free_at = done;
            let latency = (done - due).as_nanos() as u64;
            let limit_us = if is_topk {
                TOPK_LIMIT_US
            } else {
                POINT_LIMIT_US
            };
            open.sent += 1;
            if served && latency <= limit_us * 1_000 {
                open.ok += 1;
            }
            if !served {
                raw.ops_failed += 1;
            }
            open.latency_ns.push(latency);
            due_ns.push((due - start).as_nanos() as u64);
            if i % VERIFY_EVERY == 0 {
                mixed += verify_sample(&mut reader, &refs, std::iter::once(k));
                free_at = Instant::now();
            }
        }
        stop.store(true, Ordering::Release);
        publisher.join().expect("publisher thread panicked")
    });
    open.wall_ns = start.elapsed().as_nanos() as u64;
    open.flips = flips.len() as u64;
    // Requests due within FLIP_WINDOW after a flip; both lists ascend.
    let mut flip = flips.iter().peekable();
    for (&due, &lat) in due_ns.iter().zip(&open.latency_ns) {
        while flip.peek().is_some_and(|&&f| f + FLIP_WINDOW_NS < due) {
            flip.next();
        }
        if flip.peek().is_some_and(|&&f| f <= due) {
            open.flip_window_ns.push(lat);
        }
    }
    raw.ops_attempted += open.sent;
    if let Some(t) = tracer {
        t.exit(root, open.sent, 0);
    }
    trace(false);
    raw.check(
        "served_rows_match_one_checkpoint",
        mixed == 0,
        format!("{mixed} sampled rows differ from the reference of their snapshot's checkpoint"),
    );
    raw.open = open;
    raw.stage_secs[2] += stage0.elapsed().as_secs_f64();

    // ---- recover ----
    let stage0 = Instant::now();
    raw.ops_attempted += 1;
    let mut cost = Cost::new();
    let t0 = Instant::now();
    let crashed = Arc::new(Media::from_crash(media.crash(seed ^ 0xC0FFEE)));
    match recover_node(crashed, stack.node_cfg.clone(), &mut cost) {
        Some((node, report)) => {
            raw.recover_wall_ns = t0.elapsed().as_nanos() as u64;
            raw.recover_vns = cost.total_ns();
            raw.recover_keys = report.scan.live.len() as u64;
            raw.recover_scan_vns = cost.ns(oe_simdevice::CostKind::PmemRead);
            let mut fnv = FNV_OFFSET;
            let mut missing = 0u64;
            for &k in &node0_keys {
                match node.read_weights(k) {
                    Some(w) => fnv = fnv1a(fnv, &w[..dim]),
                    None => missing += 1,
                }
            }
            raw.check(
                "recovered_weights_equal_final_commit",
                missing == 0 && fnv == node0_fnv && report.resume_batch == last,
                format!(
                    "recovered {fnv:016x} at batch {}, committed {node0_fnv:016x} at batch {last}, {missing} keys missing",
                    report.resume_batch
                ),
            );
        }
        None => {
            raw.ops_failed += 1;
            raw.check(
                "recovered_weights_equal_final_commit",
                false,
                "no pool in the crash image".into(),
            );
        }
    }
    raw.stage_secs[3] = stage0.elapsed().as_secs_f64();

    raw.cluster_state = stack.cluster_state().unwrap_or((0, 0));
    raw.pool_attached = stack.pool_attached();
    raw.client_retries = stack.client_retries();
    raw.server_counters = stack.server_counters();
    drop(reader);
    drop(trainer);
    stack.shutdown();
    Ok(raw)
}
