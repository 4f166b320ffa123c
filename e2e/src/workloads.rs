//! The four workloads, frozen. Every run of a workload executes the
//! same five stages on fixed operation counts (never a time box), so
//! virtual numbers are exact for a seed; only the proportions differ.
//!
//! Counts were calibrated once on the 2-core reference container so
//! that the measured stages of an untraced run take about
//! [`RUN_SECONDS`] of host time; `--seconds` scales them linearly.

/// Host seconds the frozen counts are calibrated to (the
/// `run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// Seed used for every committed number.
pub const DEFAULT_SEED: u64 = 20230403;
/// Held-out seed: a claim must also hold here.
pub const HELD_OUT_SEED: u64 = 977;

/// Point-lookup latency limit of the open loop, from the due time.
pub const POINT_LIMIT_US: u64 = 100;
/// Top-k latency limit of the open loop, from the due time.
pub const TOPK_LIMIT_US: u64 = 5_000;
/// Top-k cut.
pub const TOP_K: usize = 10;
/// Rounds per run. Each trains one chunk, commits, publishes once and
/// serves its share of the closed-loop requests, so
/// `train_samples_per_s` and `publish_ms_p50` are medians of this many.
pub const ROUNDS: usize = 9;
/// Lookups per closed-loop block.
pub const LOOKUP_BLOCK: usize = 1024;
/// One in this many top-k queries is checked against `ExactScan`.
pub const RECALL_SAMPLE: u64 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// `RemotePs` over `loopback` to a 1-thread `PsServer` on `LocalPmem`.
    Wire,
    /// 2-shard `PlacedCluster` in process, both nodes on one
    /// `SharedPool` through `RemotePool`.
    Pool,
    /// One in-process `PsNode` on `LocalPmem`.
    Local,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Opt {
    Sgd,
    Adagrad,
}

#[derive(Clone, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub why: &'static str,
    pub topology: Topology,
    pub num_keys: u64,
    pub dim: usize,
    pub optimizer: Opt,
    /// DRAM cache as a share of the model's payload bytes (≥ 1 means
    /// the whole table fits).
    pub cache_share: f64,
    /// `SkewModel::paper_fit().scaled(..)`: < 1 flattens.
    pub skew_scale: f64,
    /// Rank→key rotation per batch (popularity drift).
    pub drift_keys_per_batch: u64,
    pub fields: usize,
    pub batch_size: usize,
    /// Simulated GPU workers; each pulls and pushes once per batch.
    pub workers: usize,
    /// `PipelineConfig::bounded(staleness, prefetch_capacity)`;
    /// staleness 0 is `PipelineConfig::sync()`.
    pub staleness: usize,
    pub prefetch_capacity: usize,
    /// `NodeConfig::parallelism` (≥ 1: the plan path).
    pub parallelism: usize,
    /// Warm-up batches run during set-up, untimed.
    pub warm_batches: u64,
    /// Measured training batches (a multiple of [`ROUNDS`]).
    pub train_batches: u64,
    /// Virtual-time checkpoint interval, ms.
    pub ckpt_interval_vms: u64,
    /// Closed-loop blocks of [`LOOKUP_BLOCK`] point lookups.
    pub lookup_blocks: u64,
    /// Closed-loop LSH top-k queries.
    pub topk_queries: u64,
    /// Open-loop arrival rate, requests/s: frozen at about a quarter of
    /// the closed-loop capacity measured when the workload was defined.
    pub open_rate_rps: u64,
    pub open_requests: u64,
    /// Every n-th open-loop request is a top-k (0 = point lookups only).
    pub open_topk_every: u64,
    /// The publisher thread rebuilds and flips A↔B on this period.
    pub flip_period_ms: u64,
}

/// splitmix64 finalizer.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Shape {
    /// The table the run of `seed` trains: the frozen key count plus up
    /// to 1/256 of it. The pool's recovery scan costs by slot, not by
    /// content, so with one table size every seed would report the same
    /// `recover_vms` to the last digit; this way the seed reaches it.
    pub fn for_seed(mut self, seed: u64) -> Shape {
        self.num_keys += mix64(seed ^ 0x7AB1E) % (self.num_keys / 256).max(1);
        self
    }

    /// Scale the operation counts to `seconds` of measured host time.
    pub fn scaled_to(mut self, seconds: u32) -> Shape {
        let scale = |n: u64| (n * seconds as u64 / RUN_SECONDS as u64).max(1);
        self.train_batches = (scale(self.train_batches) / ROUNDS as u64).max(1) * ROUNDS as u64;
        self.lookup_blocks = scale(self.lookup_blocks);
        self.topk_queries = scale(self.topk_queries);
        self.open_requests = scale(self.open_requests);
        self
    }

    /// Training inputs the measured stage processes.
    pub fn train_samples(&self) -> u64 {
        self.train_batches * self.batch_size as u64
    }
}

pub fn all() -> Vec<Shape> {
    vec![hot_wire(), cold_pmem(), pool_pipe(), serve_flip()]
}

pub fn by_name(name: &str) -> Option<Shape> {
    all().into_iter().find(|s| s.name == name)
}

fn hot_wire() -> Shape {
    Shape {
        name: "hot-wire",
        why: "Cache holds the table, so host time is codec, server dispatch, plan/dedup, cache-hit path and optimizer kernels; storage idles outside checkpoints.",
        topology: Topology::Wire,
        num_keys: 60_000,
        dim: 64,
        optimizer: Opt::Sgd,
        cache_share: 1.25,
        skew_scale: 1.0,
        drift_keys_per_batch: 0,
        fields: 16,
        batch_size: 512,
        workers: 2,
        staleness: 0,
        prefetch_capacity: 0,
        parallelism: 1,
        warm_batches: 20,
        train_batches: 2_700,
        ckpt_interval_vms: 20_000,
        lookup_blocks: 12_000,
        topk_queries: 1_800,
        open_rate_rps: 500_000,
        open_requests: 1_500_000,
        open_topk_every: 0,
        flip_period_ms: 100,
    }
}

fn cold_pmem() -> Shape {
    Shape {
        name: "cold-pmem",
        why: "Cache is 0.4% of the model under flattened, drifting skew, so the work is the miss path: PMem reads beside flush-back writes, maintenance spill, checkpoint pauses.",
        topology: Topology::Wire,
        num_keys: 120_000,
        dim: 32,
        optimizer: Opt::Adagrad,
        cache_share: 0.004,
        skew_scale: 0.002,
        drift_keys_per_batch: 64,
        fields: 16,
        batch_size: 512,
        workers: 2,
        staleness: 0,
        prefetch_capacity: 0,
        parallelism: 1,
        warm_batches: 20,
        train_batches: 153,
        ckpt_interval_vms: 100,
        lookup_blocks: 12_000,
        topk_queries: 1_350,
        open_rate_rps: 500_000,
        open_requests: 1_500_000,
        open_topk_every: 0,
        flip_period_ms: 100,
    }
}

fn pool_pipe() -> Shape {
    Shape {
        name: "pool-pipe",
        why: "Same node and storage seams, used differently: fabric lane with congestion, async pushes, prefetch hits that bypass the pull path, cluster routing; the wire does nothing.",
        topology: Topology::Pool,
        num_keys: 200_000,
        dim: 32,
        optimizer: Opt::Sgd,
        cache_share: 0.02,
        skew_scale: 0.05,
        drift_keys_per_batch: 0,
        fields: 16,
        batch_size: 512,
        workers: 2,
        staleness: 2,
        prefetch_capacity: 4_096,
        parallelism: 2,
        warm_batches: 20,
        train_batches: 630,
        ckpt_interval_vms: 1_000,
        lookup_blocks: 12_000,
        topk_queries: 1_800,
        open_rate_rps: 500_000,
        open_requests: 1_500_000,
        open_topk_every: 0,
        flip_period_ms: 100,
    }
}

fn serve_flip() -> Shape {
    Shape {
        name: "serve-flip",
        why: "Reads beside writes on the same bytes: the PMem scan and decode that training never runs, LSH build and probe, Arc flips under traffic; training is short.",
        topology: Topology::Local,
        num_keys: 150_000,
        dim: 32,
        optimizer: Opt::Sgd,
        cache_share: 0.05,
        skew_scale: 1.0,
        drift_keys_per_batch: 0,
        fields: 16,
        batch_size: 512,
        workers: 2,
        staleness: 0,
        prefetch_capacity: 0,
        parallelism: 1,
        warm_batches: 10,
        train_batches: 2_700,
        ckpt_interval_vms: 10_000,
        lookup_blocks: 12_000,
        topk_queries: 1_350,
        open_rate_rps: 2_500,
        open_requests: 15_000,
        open_topk_every: 32,
        flip_period_ms: 250,
    }
}

/// A shape small enough for `cargo test`: same topology, optimizer,
/// skew, pipeline and cache regime as `name`, a fraction of the keys
/// and operations.
pub fn tiny(name: &str) -> Option<Shape> {
    let mut s = by_name(name)?;
    s.num_keys = 2_000;
    s.dim = 8;
    s.fields = 4;
    s.batch_size = 64;
    s.warm_batches = 2;
    s.train_batches = 18;
    s.ckpt_interval_vms = 40;
    s.prefetch_capacity = s.prefetch_capacity.min(128);
    s.lookup_blocks = 2;
    s.topk_queries = 24;
    s.open_rate_rps = 20_000;
    s.open_requests = 2_000;
    s.flip_period_ms = 20;
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_counts_chunk_evenly() {
        let shapes = all();
        for (i, s) in shapes.iter().enumerate() {
            assert!(shapes[i + 1..].iter().all(|t| t.name != s.name));
            assert_eq!(s.train_batches % ROUNDS as u64, 0, "{}", s.name);
            assert!(s.parallelism >= 1, "{}: plan path only", s.name);
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
            assert!(tiny(s.name).is_some());
        }
    }

    #[test]
    fn scaling_keeps_chunks_whole() {
        let s = by_name("hot-wire").unwrap();
        let full = s.train_batches;
        assert_eq!(s.clone().scaled_to(RUN_SECONDS).train_batches, full);
        let one = s.scaled_to(1);
        assert_eq!(one.train_batches % ROUNDS as u64, 0);
        assert!(one.train_batches >= ROUNDS as u64 && one.train_batches < full);
    }
}
