//! Metric definitions (the table `BENCHMARK.json` mirrors) and the
//! arithmetic from a run's raw measurements to named values.

use crate::stages::Raw;
use crate::trace::{median_f64, percentile, self_times, totals_by_name, NameTotals, Span, Tracer};
use crate::workloads::{Shape, LOOKUP_BLOCK};
use oe_simdevice::CostKind;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Domain {
    /// What the Rust code paths take on this CPU.
    Host,
    /// What the modelled PMem/fabric/GPU/network would take; exact for
    /// a fixed seed.
    Virtual,
    /// A ratio of counts; exact for a fixed seed.
    Exact,
}

impl Domain {
    pub fn name(self) -> &'static str {
        match self {
            Domain::Host => "host",
            Domain::Virtual => "virtual",
            Domain::Exact => "exact",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub domain: Domain,
    pub better: Better,
    /// Share of the base median a metric may worsen by before it is a
    /// regression (end-to-end metrics only; 0 for per-layer ones).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    domain: Domain,
    better: Better,
    bound: f64,
) -> Def {
    Def {
        name,
        unit,
        domain,
        better,
        bound,
    }
}

use Better::{Higher, Lower};
use Domain::{Exact, Host, Virtual};

/// The end-to-end metrics, defined on every workload.
///
/// A bound is what a metric may worsen by between two sets of ten runs
/// over ten seeds, as a share of the first set's median. The host bounds
/// are sized to the reference box, a shared 2-vCPU VM on which the
/// quartiles of ten runs lie 4–12 % apart: a bound is at least three
/// times the widest spread seen for its metric (README, "Steadiness").
/// The virtual and exact bounds cover how far the value moves with the
/// seed; with the seed held, `compare` holds them to 1 % both ways.
pub const END_TO_END: [Def; 11] = [
    e2e("setup_s", "s", Host, Lower, 0.25),
    e2e("train_samples_per_s", "1/s", Host, Higher, 0.25),
    e2e("train_vsamples_per_s", "1/s", Virtual, Higher, 0.01),
    e2e("publish_ms_p50", "ms", Host, Lower, 0.25),
    e2e("serve_lookups_per_s", "1/s", Host, Higher, 0.25),
    e2e("serve_topk_ms_p50", "ms", Host, Lower, 0.25),
    e2e("serve_topk_vus", "us", Virtual, Lower, 0.02),
    e2e("serve_recall_at_10", "ratio", Exact, Higher, 0.12),
    e2e("serve_slo_share", "ratio", Host, Higher, 0.20),
    e2e("recover_vms", "ms", Virtual, Lower, 0.02),
    e2e("peak_rss_mib", "MiB", Host, Lower, 0.10),
];

const fn layer(name: &'static str, unit: &'static str, domain: Domain, better: Better) -> Def {
    e2e(name, unit, domain, better, 0.0)
}

/// The per-layer metrics of the traced run; layer = crate/module name.
pub const PER_LAYER: &[Def] = &[
    layer("train.run.wall_ms", "ms", Host, Lower),
    layer("train.self_ms", "ms", Host, Lower),
    layer("train.v.pull_ms", "ms", Virtual, Lower),
    layer("train.v.compute_ms", "ms", Virtual, Lower),
    layer("train.v.maintain_ms", "ms", Virtual, Lower),
    layer("train.v.spill_ms", "ms", Virtual, Lower),
    layer("train.v.push_ms", "ms", Virtual, Lower),
    layer("train.v.ckpt_pause_ms", "ms", Virtual, Lower),
    layer("train.v.hidden_ms", "ms", Virtual, Higher),
    layer("train.v.drain_ms", "ms", Virtual, Lower),
    layer("train.vstall_share", "ratio", Virtual, Lower),
    layer("train.stale_read_share", "ratio", Exact, Lower),
    layer("train.checkpoints", "count", Exact, Lower),
    layer("workload.gen.self_ms", "ms", Host, Lower),
    layer("workload.unique_keys_per_batch", "count", Exact, Lower),
    layer("workload.dedup_ratio", "ratio", Exact, Higher),
    layer("net.client.pull.calls", "count", Exact, Lower),
    layer("net.client.pull.wall_ms", "ms", Host, Lower),
    layer("net.client.pull.self_ms", "ms", Host, Lower),
    layer("net.client.push.calls", "count", Exact, Lower),
    layer("net.client.push.wall_ms", "ms", Host, Lower),
    layer("net.client.push.self_ms", "ms", Host, Lower),
    layer("net.client.flush.wall_ms", "ms", Host, Lower),
    layer("net.client.flush.self_ms", "ms", Host, Lower),
    layer("net.client.checkpoint.wall_ms", "ms", Host, Lower),
    layer("net.client.checkpoint.self_ms", "ms", Host, Lower),
    layer("net.client.retries", "count", Host, Lower),
    layer("net.client.failed", "count", Host, Lower),
    layer("net.transport.calls", "count", Exact, Lower),
    layer("net.transport.bytes_out", "bytes", Exact, Lower),
    layer("net.transport.bytes_in", "bytes", Exact, Lower),
    layer("net.transport.wire_bytes_per_sample", "bytes", Exact, Lower),
    layer("net.server.self_ms", "ms", Host, Lower),
    layer("net.server.replay_hits", "count", Host, Lower),
    layer("net.server.decode_errors", "count", Host, Lower),
    layer("core.node.pull.calls", "count", Exact, Lower),
    layer("core.node.pull.keys", "count", Exact, Lower),
    layer("core.node.pull.wall_ms", "ms", Host, Lower),
    layer("core.node.pull.self_ms", "ms", Host, Lower),
    layer("core.node.push.calls", "count", Exact, Lower),
    layer("core.node.push.keys", "count", Exact, Lower),
    layer("core.node.push.wall_ms", "ms", Host, Lower),
    layer("core.node.push.self_ms", "ms", Host, Lower),
    layer("core.node.maintain.wall_ms", "ms", Host, Lower),
    layer("core.node.maintain.self_ms", "ms", Host, Lower),
    layer("core.node.checkpoint.wall_ms", "ms", Host, Lower),
    layer("core.node.hit_rate", "ratio", Exact, Higher),
    layer("core.node.evictions", "count", Exact, Lower),
    layer("core.node.flushes", "count", Exact, Lower),
    layer("core.node.loads", "count", Exact, Lower),
    layer("core.node.ckpt_commits", "count", Exact, Lower),
    layer("cost.cpu_vms", "ms", Virtual, Lower),
    layer("cost.dram_vms", "ms", Virtual, Lower),
    layer("cost.pmem_read_vms", "ms", Virtual, Lower),
    layer("cost.pmem_write_vms", "ms", Virtual, Lower),
    layer("cost.ssd_vms", "ms", Virtual, Lower),
    layer("cost.serialized_vms", "ms", Virtual, Lower),
    layer("cost.net_vms", "ms", Virtual, Lower),
    layer("cost.fabric_vms", "ms", Virtual, Lower),
    layer("storage.read_slot.calls", "count", Exact, Lower),
    layer("storage.read_slot.wall_ms", "ms", Host, Lower),
    layer("storage.write_slot.calls", "count", Exact, Lower),
    layer("storage.write_slot.wall_ms", "ms", Host, Lower),
    layer("storage.alloc.calls", "count", Exact, Lower),
    layer("storage.free.calls", "count", Exact, Lower),
    layer("storage.set_checkpoint_id.calls", "count", Exact, Lower),
    layer("storage.other.wall_ms", "ms", Host, Lower),
    layer("storage.bytes_read", "bytes", Exact, Lower),
    layer("storage.bytes_written", "bytes", Exact, Lower),
    layer("storage.write_amp", "ratio", Exact, Lower),
    layer("simdevice.persist_events", "count", Exact, Lower),
    layer("pool.attached", "count", Exact, Lower),
    layer("cache.prefetch.hit_rate", "ratio", Exact, Higher),
    layer("cache.prefetch.inserts", "count", Exact, Lower),
    layer("cache.prefetch.evictions", "count", Exact, Lower),
    layer("cache.prefetch.invalidations", "count", Exact, Lower),
    layer("cache.prefetch.admission_rejects", "count", Exact, Lower),
    layer("cluster.node0_key_share", "ratio", Exact, Lower),
    layer("cluster.placement_epoch", "count", Exact, Lower),
    layer("cluster.migrations", "count", Exact, Lower),
    layer("cluster.route.self_ms", "ms", Host, Lower),
    layer("serve.snapshot.capture.ms_p50", "ms", Host, Lower),
    layer("serve.snapshot.build.ms_p50", "ms", Host, Lower),
    layer("serve.snapshot.build.vms", "ms", Virtual, Lower),
    layer("serve.snapshot.rows", "count", Exact, Higher),
    layer("serve.snapshot.flip.us_p50", "us", Host, Lower),
    layer("serve.ann.build.ms_p50", "ms", Host, Lower),
    layer("serve.ann.topk.ms_p99", "ms", Host, Lower),
    layer("serve.ann.topk.vus_mean", "us", Virtual, Lower),
    layer("serve.lookup.ns_mean", "ns", Host, Lower),
    layer("serve.lookup.hit_share", "ratio", Exact, Higher),
    layer("serve.open.rate_rps", "1/s", Exact, Higher),
    layer("serve.open.sent", "count", Exact, Higher),
    layer("serve.open.ok", "count", Host, Higher),
    layer("serve.open.missed", "count", Host, Lower),
    layer("serve.open.p50_us", "us", Host, Lower),
    layer("serve.open.p99_us", "us", Host, Lower),
    layer("serve.open.p999_us", "us", Host, Lower),
    layer("serve.open.flip_window_p99_us", "us", Host, Lower),
    layer("serve.open.gen_late_p99_us", "us", Host, Lower),
    layer("serve.open.flips", "count", Host, Higher),
    layer("recover.wall_ms", "ms", Host, Lower),
    layer("recover.keys", "count", Exact, Higher),
    layer("recover.scan_vms", "ms", Virtual, Lower),
    layer("stage.train_s", "s", Host, Lower),
    layer("stage.publish_s", "s", Host, Lower),
    layer("stage.serve_s", "s", Host, Lower),
    layer("stage.recover_s", "s", Host, Lower),
    layer("trace.spans", "count", Exact, Lower),
    layer("trace.overhead_share", "ratio", Host, Lower),
    layer("trace.unattributed_share", "ratio", Host, Lower),
];

/// A value and how it should be printed next to its name.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    /// Percentile and sample count behind a percentile metric.
    pub note: Option<String>,
}

fn v(name: &'static str, value: f64) -> Value {
    Value {
        name,
        value,
        note: None,
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median_u64(vals: impl Iterator<Item = u64>) -> f64 {
    let mut f: Vec<f64> = vals.map(|x| x as f64).collect();
    if f.is_empty() {
        0.0
    } else {
        median_f64(&mut f)
    }
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median chunk throughput of the train stage, training inputs / s.
pub fn train_samples_per_s(raw: &Raw, shape: &Shape) -> f64 {
    let mut rates: Vec<f64> = raw
        .chunk_secs
        .iter()
        .zip(&raw.chunk_batches)
        .map(|(&s, &b)| (b * shape.batch_size as u64) as f64 / s)
        .collect();
    median_f64(&mut rates)
}

pub fn end_to_end(raw: &Raw, shape: &Shape) -> Vec<Value> {
    let mut setups = raw.setup_secs.clone();
    let mut lookup_rates: Vec<f64> = raw
        .lookup_block_ns
        .iter()
        .map(|&ns| LOOKUP_BLOCK as f64 * 1e9 / ns.max(1) as f64)
        .collect();
    vec![
        v("setup_s", median_f64(&mut setups)),
        v("train_samples_per_s", train_samples_per_s(raw, shape)),
        v(
            "train_vsamples_per_s",
            shape.train_samples() as f64 * 1e9 / raw.v_total_ns as f64,
        ),
        v(
            "publish_ms_p50",
            median_u64(
                raw.publishes
                    .iter()
                    .map(|p| p.capture_ns + p.build_ns + p.flip_ns),
            ) / 1e6,
        ),
        v("serve_lookups_per_s", median_f64(&mut lookup_rates)),
        // Per-query cost is heavy-tailed in the query, so the median
        // query moves with the query mix; the mean of a round does not,
        // and the median over rounds still shrugs off a slow spell.
        v("serve_topk_ms_p50", {
            let mut means: Vec<f64> = raw
                .topk_rounds
                .iter()
                .map(|&(ns, n)| ns as f64 / n as f64 / 1e6)
                .collect();
            median_f64(&mut means)
        }),
        v(
            "serve_topk_vus",
            raw.topk_vns as f64 / raw.topk_ns.len().max(1) as f64 / 1e3,
        ),
        v(
            "serve_recall_at_10",
            raw.recall_sum / raw.recall_n.max(1) as f64,
        ),
        v(
            "serve_slo_share",
            raw.open.ok as f64 / raw.open.sent.max(1) as f64,
        ),
        v("recover_vms", ms(raw.recover_vns)),
        v("peak_rss_mib", peak_rss_mib()),
    ]
}

fn pct(name: &'static str, samples: &[u64], want: f64, scale: f64) -> Value {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let p = percentile(&sorted, want);
    Value {
        name,
        value: p.value as f64 / scale,
        note: Some(format!("p{:.4} of {} samples", p.used * 100.0, p.samples)),
    }
}

/// Conservation of the train stage's span trees (one root per round):
/// how far the self times of the roots and everything under them are
/// from adding back to the roots' wall time, as a share of it. Properly nested spans add back
/// exactly; what is left is clock disorder across threads and leaf
/// aggregates (parallel lanes) that overshoot their parent.
fn unattributed_share(spans: &[Span]) -> f64 {
    let roots: std::collections::HashSet<u32> = spans
        .iter()
        .filter(|s| s.name == "train.run")
        .map(|s| s.id)
        .collect();
    let wall: u64 = spans
        .iter()
        .filter(|s| roots.contains(&s.id))
        .map(|s| s.busy_ns)
        .sum();
    if wall == 0 {
        return 0.0;
    }
    let selfs = self_times(spans);
    let parent: std::collections::HashMap<u32, u32> =
        spans.iter().map(|s| (s.id, s.parent)).collect();
    let under_root = |mut id: u32| {
        while id != 0 {
            if roots.contains(&id) {
                return true;
            }
            id = parent.get(&id).copied().unwrap_or(0);
        }
        false
    };
    let attributed: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| under_root(s.id))
        .map(|(_, &ns)| ns)
        .sum();
    wall.abs_diff(attributed) as f64 / wall as f64
}

/// Per-layer values of a traced run. `untraced_sps` is the train
/// throughput of the untraced twin run in the same process.
pub fn per_layer(
    raw: &Raw,
    shape: &Shape,
    tracer: &Tracer,
    spans: &[Span],
    untraced_sps: f64,
) -> Vec<Value> {
    let totals: BTreeMap<&'static str, NameTotals> = totals_by_name(spans);
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (cost_by_kind, _) = tracer.booked_cost();
    let vms = |kind: CostKind| ms(cost_by_kind[kind as usize]);
    let (gen_ns, unique, refs) = raw.gen_replay.unwrap_or_default();
    let batches = shape.train_batches.max(1) as f64;
    let samples = shape.train_samples().max(1) as f64;
    let vt = raw.v_total_ns.max(1) as f64;
    let ph = &raw.phases;
    let wire = t("net.transport.call");
    let local_self = ["pull", "push", "flush", "checkpoint"]
        .iter()
        .map(|op| t(&format!("local.client.{op}")).self_ns)
        .sum::<u64>();
    let known = (raw.stats.hits + raw.stats.misses).max(1) as f64;
    let [pf_hits, pf_misses, pf_inserts, pf_evictions, pf_invalidations, pf_rejects] = raw.prefetch;
    let pushed_bytes = (t("core.node.push").units * shape.dim as u64 * 4).max(1) as f64;
    let o = &raw.open;
    let build_p50 = median_u64(raw.publishes.iter().map(|p| p.build_ns));
    let plain_p50 = median_u64(raw.plain_build_ns.iter().copied());
    let traced_sps = train_samples_per_s(raw, shape);
    vec![
        v("train.run.wall_ms", ms(t("train.run").busy_ns)),
        v("train.self_ms", ms(t("train.run").self_ns)),
        v("train.v.pull_ms", ms(ph.pull_ns)),
        v("train.v.compute_ms", ms(ph.compute_ns)),
        v("train.v.maintain_ms", ms(ph.maintain_ns)),
        v("train.v.spill_ms", ms(ph.spill_ns)),
        v("train.v.push_ms", ms(ph.push_ns)),
        v("train.v.ckpt_pause_ms", ms(ph.ckpt_pause_ns)),
        v("train.v.hidden_ms", ms(raw.hidden_ns)),
        v("train.v.drain_ms", ms(raw.drain_ns)),
        v(
            "train.vstall_share",
            (ph.spill_ns + ph.ckpt_pause_ns + raw.drain_ns) as f64 / vt,
        ),
        v(
            "train.stale_read_share",
            raw.stale_reads as f64 / unique.max(1) as f64,
        ),
        v("train.checkpoints", raw.checkpoints as f64),
        v("workload.gen.self_ms", ms(gen_ns)),
        v("workload.unique_keys_per_batch", unique as f64 / batches),
        v("workload.dedup_ratio", refs as f64 / unique.max(1) as f64),
        v("net.client.pull.calls", t("net.client.pull").calls as f64),
        v("net.client.pull.wall_ms", ms(t("net.client.pull").busy_ns)),
        v("net.client.pull.self_ms", ms(t("net.client.pull").self_ns)),
        v("net.client.push.calls", t("net.client.push").calls as f64),
        v("net.client.push.wall_ms", ms(t("net.client.push").busy_ns)),
        v("net.client.push.self_ms", ms(t("net.client.push").self_ns)),
        v(
            "net.client.flush.wall_ms",
            ms(t("net.client.flush").busy_ns),
        ),
        v(
            "net.client.flush.self_ms",
            ms(t("net.client.flush").self_ns),
        ),
        v(
            "net.client.checkpoint.wall_ms",
            ms(t("net.client.checkpoint").busy_ns),
        ),
        v(
            "net.client.checkpoint.self_ms",
            ms(t("net.client.checkpoint").self_ns),
        ),
        v("net.client.retries", raw.client_retries as f64),
        v("net.client.failed", tracer.failed() as f64),
        v("net.transport.calls", wire.calls as f64),
        v("net.transport.bytes_out", wire.units as f64),
        v("net.transport.bytes_in", wire.units_in as f64),
        v(
            "net.transport.wire_bytes_per_sample",
            (wire.units + wire.units_in) as f64 / samples,
        ),
        v("net.server.self_ms", ms(wire.self_ns)),
        v("net.server.replay_hits", raw.server_counters.0 as f64),
        v("net.server.decode_errors", raw.server_counters.1 as f64),
        v("core.node.pull.calls", t("core.node.pull").calls as f64),
        v("core.node.pull.keys", t("core.node.pull").units as f64),
        v("core.node.pull.wall_ms", ms(t("core.node.pull").busy_ns)),
        v("core.node.pull.self_ms", ms(t("core.node.pull").self_ns)),
        v("core.node.push.calls", t("core.node.push").calls as f64),
        v("core.node.push.keys", t("core.node.push").units as f64),
        v("core.node.push.wall_ms", ms(t("core.node.push").busy_ns)),
        v("core.node.push.self_ms", ms(t("core.node.push").self_ns)),
        v(
            "core.node.maintain.wall_ms",
            ms(t("core.node.maintain").busy_ns),
        ),
        v(
            "core.node.maintain.self_ms",
            ms(t("core.node.maintain").self_ns),
        ),
        v(
            "core.node.checkpoint.wall_ms",
            ms(t("core.node.checkpoint").busy_ns),
        ),
        v("core.node.hit_rate", raw.stats.hits as f64 / known),
        v("core.node.evictions", raw.stats.evictions as f64),
        v("core.node.flushes", raw.stats.flushes as f64),
        v("core.node.loads", raw.stats.loads as f64),
        v("core.node.ckpt_commits", raw.stats.ckpt_commits as f64),
        v("cost.cpu_vms", vms(CostKind::Cpu)),
        v("cost.dram_vms", vms(CostKind::DramTransfer)),
        v("cost.pmem_read_vms", vms(CostKind::PmemRead)),
        v("cost.pmem_write_vms", vms(CostKind::PmemWrite)),
        v("cost.ssd_vms", vms(CostKind::SsdTransfer)),
        v("cost.serialized_vms", vms(CostKind::Serialized)),
        v("cost.net_vms", vms(CostKind::Net)),
        v("cost.fabric_vms", vms(CostKind::FabricTransfer)),
        v(
            "storage.read_slot.calls",
            t("storage.read_slot").calls as f64,
        ),
        v(
            "storage.read_slot.wall_ms",
            ms(t("storage.read_slot").busy_ns),
        ),
        v(
            "storage.write_slot.calls",
            t("storage.write_slot").calls as f64,
        ),
        v(
            "storage.write_slot.wall_ms",
            ms(t("storage.write_slot").busy_ns),
        ),
        v("storage.alloc.calls", t("storage.alloc").calls as f64),
        v("storage.free.calls", t("storage.free").calls as f64),
        v(
            "storage.set_checkpoint_id.calls",
            t("storage.set_checkpoint_id").calls as f64,
        ),
        v(
            "storage.other.wall_ms",
            ms(t("storage.alloc").busy_ns
                + t("storage.free").busy_ns
                + t("storage.set_checkpoint_id").busy_ns),
        ),
        v("storage.bytes_read", t("storage.read_slot").units as f64),
        v(
            "storage.bytes_written",
            t("storage.write_slot").units as f64,
        ),
        v(
            "storage.write_amp",
            t("storage.write_slot").units as f64 / pushed_bytes,
        ),
        v("simdevice.persist_events", raw.persist_events as f64),
        v("pool.attached", raw.pool_attached as f64),
        v(
            "cache.prefetch.hit_rate",
            pf_hits as f64 / (pf_hits + pf_misses).max(1) as f64,
        ),
        v("cache.prefetch.inserts", pf_inserts as f64),
        v("cache.prefetch.evictions", pf_evictions as f64),
        v("cache.prefetch.invalidations", pf_invalidations as f64),
        v("cache.prefetch.admission_rejects", pf_rejects as f64),
        v("cluster.node0_key_share", raw.node0_key_share),
        v("cluster.placement_epoch", raw.cluster_state.0 as f64),
        v("cluster.migrations", raw.cluster_state.1 as f64),
        v("cluster.route.self_ms", ms(local_self)),
        v(
            "serve.snapshot.capture.ms_p50",
            median_u64(raw.publishes.iter().map(|p| p.capture_ns)) / 1e6,
        ),
        v("serve.snapshot.build.ms_p50", build_p50 / 1e6),
        v("serve.snapshot.build.vms", ms(raw.build_vns)),
        v("serve.snapshot.rows", raw.snapshot_rows as f64),
        v(
            "serve.snapshot.flip.us_p50",
            median_u64(raw.publishes.iter().map(|p| p.flip_ns)) / 1e3,
        ),
        v("serve.ann.build.ms_p50", (build_p50 - plain_p50) / 1e6),
        pct("serve.ann.topk.ms_p99", &raw.topk_ns, 0.99, 1e6),
        v(
            "serve.ann.topk.vus_mean",
            raw.topk_vns as f64 / raw.topk_ns.len().max(1) as f64 / 1e3,
        ),
        v(
            "serve.lookup.ns_mean",
            raw.lookup_block_ns.iter().sum::<u64>() as f64 / raw.lookups.max(1) as f64,
        ),
        v(
            "serve.lookup.hit_share",
            raw.lookup_hits as f64 / raw.lookups.max(1) as f64,
        ),
        v("serve.open.rate_rps", o.rate_rps as f64),
        v("serve.open.sent", o.sent as f64),
        v("serve.open.ok", o.ok as f64),
        v("serve.open.missed", (o.sent - o.ok) as f64),
        pct("serve.open.p50_us", &o.latency_ns, 0.50, 1e3),
        pct("serve.open.p99_us", &o.latency_ns, 0.99, 1e3),
        pct("serve.open.p999_us", &o.latency_ns, 0.999, 1e3),
        pct(
            "serve.open.flip_window_p99_us",
            &o.flip_window_ns,
            0.99,
            1e3,
        ),
        pct("serve.open.gen_late_p99_us", &o.gen_late_ns, 0.99, 1e3),
        v("serve.open.flips", o.flips as f64),
        v("recover.wall_ms", ms(raw.recover_wall_ns)),
        v("recover.keys", raw.recover_keys as f64),
        v("recover.scan_vms", ms(raw.recover_scan_vns)),
        v("stage.train_s", raw.stage_secs[0]),
        v("stage.publish_s", raw.stage_secs[1]),
        v("stage.serve_s", raw.stage_secs[2]),
        v("stage.recover_s", raw.stage_secs[3]),
        v("trace.spans", spans.len() as f64),
        v("trace.overhead_share", 1.0 - traced_sps / untraced_sps),
        v("trace.unattributed_share", unattributed_share(spans)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn unattributed_is_what_no_span_covers() {
        let span = |id, parent, name, start, end| Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            calls: 1,
            req: 0,
            units: 0,
            units_in: 0,
        };
        // Properly nested: every nanosecond of the root is some span's
        // self time.
        let mut spans = vec![
            span(1, 0, "train.run", 0, 100),
            span(2, 1, "net.client.pull", 10, 60),
            span(3, 2, "net.transport.call", 20, 50),
        ];
        assert_eq!(unattributed_share(&spans), 0.0);
        // A leaf aggregate summed over parallel lanes overshoots its
        // parent by 20: that much does not add back.
        let mut leaf = span(4, 3, "storage.read_slot", 20, 20);
        leaf.busy_ns = 50;
        spans.push(leaf);
        assert_eq!(unattributed_share(&spans), 0.2);
        spans.pop();
        assert_eq!(
            unattributed_share(&spans[1..]),
            0.0,
            "no root, nothing to attribute"
        );
    }
}
