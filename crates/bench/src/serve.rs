//! SLO-driven serving bench: closed training loop → snapshot flip →
//! open-loop QPS replay, JSON artifact `BENCH_serve.json`.
//!
//! Three phases, one report:
//!
//! 1. **Train** — a PsNode runs a zipf-skewed workload through two
//!    checkpoint commits (driven by [`BatchCadence`], the training
//!    side's checkpoint scheduler). Checkpoint A becomes the serving
//!    snapshot the QPS phase starts on; checkpoint B is published
//!    *mid-traffic* through [`CheckpointPublisher::maybe_publish`] —
//!    the real training→serving wiring, not a bench shortcut.
//! 2. **Recall/latency sweep** — exact top-k vs LSH shapes over the
//!    checkpoint-B snapshot on a zipf query stream: recall@k, virtual
//!    retrieval cost, and wall time per query for every arm.
//! 3. **Open-loop QPS replay** — N reader threads replay a zipf
//!    request stream ([`StormGen::request_key`]) against a
//!    [`SnapshotHandle`] under open-loop arrival (latency =
//!    completion − scheduled, so queueing counts). Mid-run the
//!    checkpoint-B flip fires; per-request latencies are split into a
//!    flip window vs steady state so the artifact shows exactly what a
//!    mid-traffic snapshot swap costs the tail.
//!
//! Gated metrics: recall and virtual speedup are deterministic and
//! gated absolutely; wall-clock latency enters only as one geomean
//! (the kernels-bench convention for noisy numbers).

use oe_core::{BatchCadence, NodeConfig, OptimizerKind, PsEngine, PsNode};
use oe_serve::{
    recall_at_k, AnnConfig, CheckpointPublisher, ExactScan, LshRetriever, Retriever, Snapshot,
    SnapshotHandle,
};
use oe_simdevice::{Cost, CrashImage};
use oe_workload::{SkewModel, StormGen, StormSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload, model, and driver shape for one serving-bench run.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Embedding table size (distinct keys).
    pub num_keys: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// Key references per training batch.
    pub keys_per_batch: usize,
    /// Checkpoint cadence in batches: A commits at `ckpt_every`,
    /// B at `2·ckpt_every` (end of training).
    pub ckpt_every: u64,
    /// ANN shapes swept against the exact arm.
    pub sweep: Vec<AnnShape>,
    /// Queries per sweep arm.
    pub recall_queries: u64,
    /// Top-k cut.
    pub k: usize,
    /// Reader threads in the QPS phase.
    pub readers: usize,
    /// Open-loop requests replayed.
    pub requests: u64,
    /// Open-loop arrival rate (requests/second, all readers together).
    pub target_qps: f64,
    /// Every Nth request is a top-k retrieval instead of a point read.
    pub topk_every: u64,
    /// Fraction of the request stream after which the flip fires.
    pub flip_at: f64,
    /// Workload seed.
    pub seed: u64,
}

/// One swept LSH shape (serializable mirror of [`AnnConfig`]).
#[derive(Debug, Clone)]
pub struct AnnShape {
    /// Hash tables.
    pub tables: usize,
    /// Signature bits per table.
    pub bits: usize,
    /// Multiprobe bit flips per table.
    pub probes: usize,
}

impl AnnShape {
    fn config(&self) -> AnnConfig {
        AnnConfig::shaped(self.tables, self.bits, self.probes)
    }
}

impl ServeBenchConfig {
    /// Paper-shaped run.
    pub fn paper() -> Self {
        Self {
            num_keys: 40_000,
            dim: 32,
            keys_per_batch: 4_096,
            ckpt_every: 16,
            sweep: vec![
                AnnShape {
                    tables: 4,
                    bits: 8,
                    probes: 2,
                },
                AnnShape {
                    tables: 8,
                    bits: 8,
                    probes: 6,
                },
                AnnShape {
                    tables: 16,
                    bits: 10,
                    probes: 8,
                },
            ],
            recall_queries: 300,
            k: 10,
            readers: 4,
            requests: 24_000,
            target_qps: 50_000.0,
            topk_every: 16,
            flip_at: 0.5,
            seed: 0x5E1A,
        }
    }

    /// Smoke-test run for CI: same shape, a fraction of the work.
    pub fn smoke() -> Self {
        Self {
            num_keys: 8_000,
            dim: 16,
            keys_per_batch: 1_024,
            ckpt_every: 6,
            sweep: vec![
                AnnShape {
                    tables: 4,
                    bits: 8,
                    probes: 2,
                },
                AnnShape {
                    tables: 8,
                    bits: 8,
                    probes: 6,
                },
            ],
            recall_queries: 120,
            k: 10,
            readers: 4,
            requests: 6_000,
            target_qps: 20_000.0,
            topk_every: 16,
            flip_at: 0.5,
            seed: 0x5E1A,
        }
    }

    fn storm(&self) -> StormSpec {
        StormSpec {
            num_keys: self.num_keys,
            keys_per_batch: self.keys_per_batch,
            // A mild always-on crowd: serving traffic is head-heavy.
            hot_keys: (0..64.min(self.num_keys)).collect(),
            hot_share: 0.2,
            storm_start: 0,
            storm_end: u64::MAX,
            base: SkewModel::paper_fit(),
            seed: self.seed,
        }
    }

    fn node_config(&self) -> NodeConfig {
        let mut cfg = NodeConfig::small(self.dim);
        cfg.optimizer = OptimizerKind::Sgd { lr: 0.05 };
        // Size the pool to the table (payload + header + version
        // slack), not a fixed budget: snapshot build scans the whole
        // pool, so oversizing it inflates every flip-publish.
        let slot_bytes = self.dim * 4 + 64;
        cfg.pmem_capacity = (self.num_keys as usize * slot_bytes * 8)
            .next_power_of_two()
            .max(1 << 22);
        cfg
    }

    fn ckpt_a(&self) -> u64 {
        self.ckpt_every
    }

    fn ckpt_b(&self) -> u64 {
        self.ckpt_every * 2
    }
}

/// One arm of the recall/latency tradeoff sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Arm label (`exact` or `lsh-TxBpP`).
    pub label: String,
    /// Mean recall@k against the exact arm (1.0 for exact itself).
    pub recall_at_k: f64,
    /// Mean virtual retrieval cost per query (deterministic).
    pub virtual_ns_per_query: u64,
    /// Virtual speedup over the exact arm (1.0 for exact).
    pub virtual_speedup: f64,
    /// Mean wall time per query (noisy; geomean-gated only).
    pub wall_ns_per_query: u64,
    /// Mean candidate fraction scored (1.0 for exact).
    pub candidate_fraction: f64,
}

/// Open-loop QPS phase results.
#[derive(Debug, Clone)]
pub struct QpsResult {
    /// Reader threads.
    pub readers: usize,
    /// Requests replayed.
    pub requests: u64,
    /// Open-loop target arrival rate.
    pub target_qps: f64,
    /// Completed requests / wall time of the phase.
    pub achieved_qps: f64,
    /// Scheduled→completion latency quantiles (wall, ns).
    pub p50_ns: u64,
    /// p99 wall latency.
    pub p99_ns: u64,
    /// p999 wall latency.
    pub p999_ns: u64,
    /// p999 restricted to steady state (outside the flip window).
    pub steady_p999_ns: u64,
    /// p999 restricted to the flip window — the spike the artifact is
    /// for. Bounded: the swap is an Arc exchange, not a pause.
    pub flip_window_p999_ns: u64,
    /// Requests that landed inside the flip window.
    pub flip_window_requests: u64,
    /// Wall time of building snapshot B + flipping it in (off-path).
    pub flip_publish_wall_ns: u64,
    /// Epoch after the mid-run flip (2 = exactly one flip happened).
    pub epoch_after: u64,
    /// Mean virtual cost per point lookup (deterministic).
    pub virtual_ns_per_lookup: u64,
    /// Every request served a known key from checkpoint A or B.
    pub consistent: bool,
}

/// Full bench artifact (serialized to `BENCH_serve.json` by ci.sh).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The configuration measured.
    pub config: ServeBenchConfig,
    /// Checkpoint A batch id (initial serving snapshot).
    pub ckpt_a: u64,
    /// Checkpoint B batch id (flipped in mid-traffic).
    pub ckpt_b: u64,
    /// Snapshot build virtual cost (scan + decode + ANN), checkpoint B
    /// with the default shape.
    pub snapshot_build_virtual_ns: u64,
    /// Exact vs ANN shapes on the checkpoint-B snapshot.
    pub sweep: Vec<SweepRow>,
    /// The open-loop replay with the mid-run flip.
    pub qps: QpsResult,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Wait until `deadline` without burning the core: sleep for the bulk
/// of the gap, yield across the last stretch. Open-loop arrival must
/// not starve the serving threads it is measuring (CI boxes can be
/// single-core).
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let gap = deadline - now;
        if gap > Duration::from_micros(500) {
            std::thread::sleep(gap - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Deterministic synthetic gradients, pure function of `(batch, i)`.
fn grads_for(keys: &[u64], batch: u64, dim: usize) -> Vec<f32> {
    let mut grads = vec![0.0f32; keys.len() * dim];
    for (i, g) in grads.iter_mut().enumerate() {
        *g = ((i % 17) as f32 - 8.0) * 0.02 + (batch % 29) as f32 * 0.001;
    }
    grads
}

/// Train through both checkpoints. Returns the node (kept alive so the
/// publisher can capture checkpoint B mid-traffic) and checkpoint A's
/// image.
fn train(cfg: &ServeBenchConfig) -> (PsNode, CrashImage) {
    let node = PsNode::new(cfg.node_config());
    let gen = StormGen::new(cfg.storm());
    let mut cadence = BatchCadence::every(cfg.ckpt_every);
    let mut cost = Cost::new();
    let mut out = Vec::new();
    let mut image_a = None;
    for b in 1..=cfg.ckpt_b() {
        // Batch 1 touches the whole table (day-0 initialization) so
        // both checkpoints serve every key the request stream can ask
        // about; the rest replay the skewed stream.
        let keys = if b == 1 {
            (0..cfg.num_keys).collect()
        } else {
            gen.batch_keys(b)
        };
        out.clear();
        node.pull(&keys, b, &mut out, &mut cost);
        node.end_pull_phase(b);
        // The previous boundary's checkpoint commits during this pull
        // phase; capture A's image the moment it lands.
        if image_a.is_none() && node.committed_checkpoint() == cfg.ckpt_a() {
            image_a = Some(node.pool().media().crash(cfg.ckpt_a()));
        }
        let grads = grads_for(&keys, b, cfg.dim);
        node.push(&keys, &grads, b, &mut cost);
        if cadence.due(b) {
            node.request_checkpoint(b);
        }
    }
    // One more pull phase commits checkpoint B.
    let tail = cfg.ckpt_b() + 1;
    out.clear();
    node.pull(&[0], tail, &mut out, &mut cost);
    node.end_pull_phase(tail);
    assert_eq!(node.committed_checkpoint(), cfg.ckpt_b());
    (
        node,
        image_a.expect("checkpoint A committed during training"),
    )
}

/// Zipf query keys for the sweep (offset into the request stream so
/// they differ from the QPS phase's prefix).
fn sweep_queries(cfg: &ServeBenchConfig, gen: &StormGen) -> Vec<u64> {
    (0..cfg.recall_queries)
        .map(|r| gen.request_key(r.wrapping_add(1 << 40)))
        .collect()
}

/// Recall/latency tradeoff: exact reference plus every swept shape.
fn run_sweep(cfg: &ServeBenchConfig, node: &PsNode, gen: &StormGen) -> (Vec<SweepRow>, u64) {
    let image_b = node.pool().media().crash(cfg.ckpt_b());
    let queries = sweep_queries(cfg, gen);

    // Exact arm: ground truth and reference costs.
    let exact_snap =
        Snapshot::build(image_b.clone(), cfg.dim, None).expect("checkpoint B snapshot");
    let mut truths = Vec::with_capacity(queries.len());
    let mut exact_virtual = 0u64;
    let wall0 = Instant::now();
    for &key in &queries {
        let q = exact_snap.lookup(key).0.expect("trained key").to_vec();
        let (top, c) = ExactScan.top_k(&exact_snap, &q, cfg.k);
        exact_virtual += c.total_ns();
        truths.push((q, top));
    }
    let exact_wall = wall0.elapsed().as_nanos() as u64 / queries.len() as u64;
    let exact_virtual = exact_virtual / queries.len() as u64;
    let mut rows = vec![SweepRow {
        label: "exact".to_string(),
        recall_at_k: 1.0,
        virtual_ns_per_query: exact_virtual,
        virtual_speedup: 1.0,
        wall_ns_per_query: exact_wall,
        candidate_fraction: 1.0,
    }];

    let mut build_virtual_default = 0u64;
    for shape in &cfg.sweep {
        let ann = shape.config();
        let snap = Snapshot::build(image_b.clone(), cfg.dim, Some(&ann)).expect("ANN snapshot");
        if ann == AnnConfig::paper_default() || build_virtual_default == 0 {
            build_virtual_default = snap.build_cost().total_ns();
        }
        let index = snap.ann_index().expect("index requested");
        let mut recall_sum = 0.0;
        let mut virt = 0u64;
        let mut cand = 0usize;
        let wall0 = Instant::now();
        for (q, truth) in &truths {
            let (top, c) = LshRetriever.top_k(&snap, q, cfg.k);
            virt += c.total_ns();
            recall_sum += recall_at_k(truth, &top);
            cand += index.candidates(q).len();
        }
        let wall = wall0.elapsed().as_nanos() as u64 / queries.len() as u64;
        let virt = virt / queries.len() as u64;
        rows.push(SweepRow {
            label: ann.label(),
            recall_at_k: recall_sum / queries.len() as f64,
            virtual_ns_per_query: virt,
            virtual_speedup: exact_virtual as f64 / virt.max(1) as f64,
            wall_ns_per_query: wall,
            candidate_fraction: cand as f64 / (queries.len() as f64 * snap.num_keys() as f64),
        });
    }
    (rows, build_virtual_default)
}

struct ReaderOutcome {
    /// `(scheduled_ns, latency_ns)` per request.
    samples: Vec<(u64, u64)>,
    virtual_ns: u64,
    lookups: u64,
    consistent: bool,
}

/// Open-loop replay against a [`SnapshotHandle`] with the checkpoint-B
/// flip mid-run, published through the real training→serving wiring.
fn run_qps(
    cfg: &ServeBenchConfig,
    node: &PsNode,
    image_a: CrashImage,
    gen: &StormGen,
) -> QpsResult {
    let ann = AnnConfig::paper_default();
    let snap_a =
        Arc::new(Snapshot::build(image_a, cfg.dim, Some(&ann)).expect("checkpoint A snapshot"));
    let handle = Arc::new(SnapshotHandle::new(snap_a));
    let mut publisher = CheckpointPublisher::new(Arc::clone(&handle), cfg.dim, Some(ann));
    assert_eq!(publisher.last_published(), cfg.ckpt_a());

    let interval_ns = 1e9 / cfg.target_qps;
    let flip_req = (cfg.requests as f64 * cfg.flip_at) as u64;
    let readers = cfg.readers;
    let (ckpt_a, ckpt_b) = (cfg.ckpt_a(), cfg.ckpt_b());
    let start = Instant::now();
    let mut flip_begin_ns = 0u64;
    let mut flip_publish_wall_ns = 0u64;

    let outcomes: Vec<ReaderOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|t| {
                let handle = &handle;
                s.spawn(move || {
                    let mut reader = handle.reader();
                    let mut out = ReaderOutcome {
                        samples: Vec::with_capacity((cfg.requests / readers as u64) as usize + 1),
                        virtual_ns: 0,
                        lookups: 0,
                        consistent: true,
                    };
                    let mut scratch: Vec<f32> = Vec::with_capacity(cfg.dim);
                    let mut req = t as u64;
                    while req < cfg.requests {
                        let sched_ns = (req as f64 * interval_ns) as u64;
                        let sched = start + Duration::from_nanos(sched_ns);
                        wait_until(sched);
                        let key = gen.request_key(req);
                        if req.is_multiple_of(cfg.topk_every) {
                            // Retrieval request: query = the key's own
                            // embedding, copied into one reused scratch
                            // buffer (no per-request allocation).
                            let known = {
                                let snap = reader.acquire();
                                let (q, _) = snap.lookup(key);
                                match q {
                                    Some(q) => {
                                        scratch.clear();
                                        scratch.extend_from_slice(q);
                                        true
                                    }
                                    None => false,
                                }
                            };
                            if known {
                                let (top, _) = reader.retrieve(&scratch, cfg.k, &LshRetriever);
                                if top.is_empty() {
                                    out.consistent = false;
                                }
                            } else {
                                out.consistent = false;
                            }
                        } else {
                            let snap = reader.acquire();
                            let ck = snap.checkpoint();
                            let (v, c) = snap.lookup(key);
                            out.virtual_ns += c.total_ns();
                            out.lookups += 1;
                            if v.is_none() || (ck != ckpt_a && ck != ckpt_b) {
                                out.consistent = false;
                            }
                        }
                        let done_ns = start.elapsed().as_nanos() as u64;
                        out.samples
                            .push((sched_ns, done_ns.saturating_sub(sched_ns)));
                        req += readers as u64;
                    }
                    out
                })
            })
            .collect();

        // Publisher: wait for the flip request's scheduled instant,
        // then publish checkpoint B mid-traffic (build + ANN + flip,
        // all off the read path).
        let flip_sched = start + Duration::from_nanos((flip_req as f64 * interval_ns) as u64);
        wait_until(flip_sched);
        flip_begin_ns = start.elapsed().as_nanos() as u64;
        let flip_t0 = Instant::now();
        let epoch = publisher.maybe_publish(node).expect("checkpoint B flips");
        flip_publish_wall_ns = flip_t0.elapsed().as_nanos() as u64;
        assert_eq!(epoch, 2, "exactly one mid-run flip");

        handles
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .collect()
    });
    let phase_wall_ns = start.elapsed().as_nanos() as u64;

    // The flip window: requests scheduled while the publish was in
    // flight, padded by the publish duration on both sides.
    let pad = flip_publish_wall_ns;
    let window = (flip_begin_ns.saturating_sub(pad))..=(flip_begin_ns + flip_publish_wall_ns + pad);
    let mut all = Vec::new();
    let mut steady = Vec::new();
    let mut spike = Vec::new();
    let mut virtual_ns = 0u64;
    let mut lookups = 0u64;
    let mut consistent = true;
    for o in &outcomes {
        virtual_ns += o.virtual_ns;
        lookups += o.lookups;
        consistent &= o.consistent;
        for &(sched_ns, lat_ns) in &o.samples {
            all.push(lat_ns);
            if window.contains(&sched_ns) {
                spike.push(lat_ns);
            } else {
                steady.push(lat_ns);
            }
        }
    }
    all.sort_unstable();
    steady.sort_unstable();
    spike.sort_unstable();

    QpsResult {
        readers,
        requests: cfg.requests,
        target_qps: cfg.target_qps,
        achieved_qps: cfg.requests as f64 / (phase_wall_ns as f64 / 1e9),
        p50_ns: percentile(&all, 0.50),
        p99_ns: percentile(&all, 0.99),
        p999_ns: percentile(&all, 0.999),
        steady_p999_ns: percentile(&steady, 0.999),
        flip_window_p999_ns: percentile(&spike, 0.999),
        flip_window_requests: spike.len() as u64,
        flip_publish_wall_ns,
        epoch_after: handle.epoch(),
        virtual_ns_per_lookup: virtual_ns / lookups.max(1),
        consistent,
    }
}

/// Run the full serving bench: train, sweep, open-loop replay.
pub fn run(cfg: &ServeBenchConfig) -> ServeReport {
    let (node, image_a) = train(cfg);
    let gen = StormGen::new(cfg.storm());
    let (sweep, snapshot_build_virtual_ns) = run_sweep(cfg, &node, &gen);
    let qps = run_qps(cfg, &node, image_a, &gen);
    ServeReport {
        config: cfg.clone(),
        ckpt_a: cfg.ckpt_a(),
        ckpt_b: cfg.ckpt_b(),
        snapshot_build_virtual_ns,
        sweep,
        qps,
    }
}

fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in vals {
        log_sum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Trajectory/gate metrics. Recall, virtual costs, and consistency are
/// deterministic → gated absolutely. Wall-clock latency is noisy →
/// only one geomean over {sweep wall inverses, QPS p50/p99 inverses}
/// enters the gate (the kernels-bench convention); the p999 spike is
/// reported in the artifact but not gated.
pub fn metrics(r: &ServeReport) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    for row in r.sweep.iter().filter(|row| row.label != "exact") {
        m.push((format!("recall_{}", row.label), row.recall_at_k));
        m.push((
            format!("virtual_speedup_{}", row.label),
            row.virtual_speedup,
        ));
    }
    m.push((
        "lookup_virtual_inv_per_sec".to_string(),
        1e9 / r.qps.virtual_ns_per_lookup.max(1) as f64,
    ));
    m.push((
        "consistent".to_string(),
        if r.qps.consistent { 1.0 } else { 0.0 },
    ));
    // Wall numbers gate only as one geomean (kernels convention), and
    // only over the stable components: retrieval scan costs and the
    // steady-state p50. Open-loop tail percentiles swing by integer
    // factors run-to-run under scheduler noise (the readers oversubscribe
    // the host), so p99/p999 are reported but never gated.
    let wall = [
        1e9 / r.sweep[0].wall_ns_per_query.max(1) as f64,
        1e9 / r
            .sweep
            .last()
            .map(|s| s.wall_ns_per_query)
            .unwrap_or(1)
            .max(1) as f64,
        1e9 / r.qps.p50_ns.max(1) as f64,
    ];
    m.push((
        "wall_inv_geomean".to_string(),
        geomean(wall.iter().copied()),
    ));
    m
}

/// Human-readable table, printed by `figures -- serve`.
pub fn print_report(r: &ServeReport) {
    let c = &r.config;
    println!(
        "serve: {} keys × dim {}, checkpoints A@{} / B@{}, snapshot build {:.2} ms virtual",
        c.num_keys,
        c.dim,
        r.ckpt_a,
        r.ckpt_b,
        r.snapshot_build_virtual_ns as f64 / 1e6
    );
    println!(
        "{:<12} {:>10} {:>16} {:>10} {:>14} {:>10}",
        "arm", "recall@k", "virtual ns/q", "speedup", "wall ns/q", "cand frac"
    );
    for s in &r.sweep {
        println!(
            "{:<12} {:>10.3} {:>16} {:>10.2} {:>14} {:>10.4}",
            s.label,
            s.recall_at_k,
            s.virtual_ns_per_query,
            s.virtual_speedup,
            s.wall_ns_per_query,
            s.candidate_fraction
        );
    }
    let q = &r.qps;
    println!(
        "open loop: {} readers × {} requests at {:.0} rps target ({:.0} achieved)",
        q.readers, q.requests, q.target_qps, q.achieved_qps
    );
    println!(
        "latency: p50 {} ns, p99 {} ns, p999 {} ns (steady p999 {} ns)",
        q.p50_ns, q.p99_ns, q.p999_ns, q.steady_p999_ns
    );
    println!(
        "mid-run flip: publish {:.2} ms wall, window p999 {} ns over {} requests, epoch → {}",
        q.flip_publish_wall_ns as f64 / 1e6,
        q.flip_window_p999_ns,
        q.flip_window_requests,
        q.epoch_after
    );
    println!(
        "consistent (every read from checkpoint A or B): {}",
        q.consistent
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeBenchConfig {
        ServeBenchConfig {
            num_keys: 1_500,
            dim: 8,
            keys_per_batch: 256,
            ckpt_every: 3,
            sweep: vec![AnnShape {
                tables: 8,
                bits: 8,
                probes: 6,
            }],
            recall_queries: 40,
            k: 5,
            readers: 2,
            requests: 1_000,
            target_qps: 200_000.0,
            topk_every: 16,
            flip_at: 0.5,
            seed: 0x5E1A,
        }
    }

    #[test]
    fn serve_bench_flips_mid_traffic_and_stays_consistent() {
        let r = run(&tiny());
        assert_eq!(r.qps.epoch_after, 2, "exactly one mid-run flip");
        assert!(r.qps.consistent, "every read from checkpoint A or B");
        assert!(r.qps.achieved_qps > 0.0);
        assert!(r.qps.flip_window_requests > 0, "flip landed mid-traffic");
        assert_eq!(r.sweep[0].label, "exact");
        assert!(r.sweep[1].recall_at_k > 0.5);
        assert!(r.sweep[1].virtual_speedup > 1.0, "ANN must be cheaper");
        let m = metrics(&r);
        assert!(m.iter().any(|(k, _)| k == "consistent"));
        assert!(m.iter().any(|(k, _)| k.starts_with("recall_lsh")));
        assert!(m.iter().any(|(k, _)| k == "wall_inv_geomean"));
    }

    #[test]
    fn training_commits_both_checkpoints() {
        let cfg = tiny();
        let (node, _image_a) = train(&cfg);
        assert_eq!(node.committed_checkpoint(), cfg.ckpt_b());
    }
}
