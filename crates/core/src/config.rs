//! Parameter-server node configuration.

use crate::optimizer::OptimizerKind;
use oe_cache::{AdmissionKind, PolicyKind};

/// DRAM bookkeeping overhead per cached entry beyond the payload:
/// key + version columns (16 B) plus LRU links (8 B) plus an amortized
/// index share (~40 B). Used to translate a cache *byte* budget (the
/// Fig. 8 knob) into arena entries.
pub const CACHE_ENTRY_OVERHEAD_BYTES: usize = 64;

/// Per-key CPU cost of a hash-index probe (ns).
pub const HASH_PROBE_NS: u64 = 45;
/// Per-key CPU cost of appending to the access queue (ns).
pub const ACCESS_QUEUE_NS: u64 = 8;
/// Per-key CPU cost of LRU pointer surgery (ns).
pub const LRU_OP_NS: u64 = 25;
/// Per-f32 CPU cost of optimizer arithmetic (ns).
pub const OPT_FLOP_NS_PER_F32: u64 = 1;
/// CPU cost of initializing a brand-new entry (ns, excl. memory traffic).
pub const INIT_ENTRY_NS: u64 = 150;
/// Per-key CPU cost of bucketing a request's keys by shard (ns).
pub const PLAN_KEY_NS: u64 = 4;
/// Per-key CPU cost of duplicate-key coalescing within a shard group
/// (one hash-map probe + occurrence-list append, ns).
pub const DEDUP_KEY_NS: u64 = 6;
/// Per-occurrence CPU cost of fanning a deduped payload out to the
/// response buffer during the merge stage (ns; the row itself was read
/// once per *unique* key).
pub const FANOUT_KEY_NS: u64 = 8;
/// CPU cost of one shard-lock acquisition (ns), paid once per shard
/// group of a request.
pub const SHARD_LOCK_NS: u64 = 30;

/// Configuration of one [`crate::PsNode`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Embedding dimension (f32 weights per entry).
    pub dim: usize,
    /// Optimizer applied to pushed gradients.
    pub optimizer: OptimizerKind,
    /// DRAM cache budget in bytes (translated to entries).
    pub cache_bytes: usize,
    /// Number of index/arena/LRU shards. 1 reproduces the paper's single
    /// reader-writer lock exactly; more shards is the scalability
    /// ablation.
    pub shards: usize,
    /// Enable the DRAM cache (Fig. 9 ablation). When off, every entry
    /// lives in PMem and pull/push go straight to the pool.
    pub enable_cache: bool,
    /// Enable pipelined maintenance (Fig. 9 ablation). When off, cache
    /// replacement and flushes run inline on the pull path.
    pub enable_pipeline: bool,
    /// Uniform init scale: new weights ~ U(-scale, +scale), derived
    /// deterministically from the key.
    pub init_scale: f32,
    /// Initial PMem pool capacity in bytes.
    pub pmem_capacity: usize,
    /// Deterministic seed folded into weight initialization.
    pub seed: u64,
    /// Cache replacement policy (the paper uses LRU; FIFO/CLOCK are
    /// ablation options).
    pub replacement: PolicyKind,
    /// Cache admission policy (the paper admits always; the doorkeeper
    /// filters one-hit wonders).
    pub admission: AdmissionKind,
    /// Pull/push execution lanes (≥ 1) for the shard-plan hot path (the
    /// paper's "multiple threads pre-allocated" on the PS). Keys are
    /// bucketed by shard, deduplicated per group, and each shard lock is
    /// taken exactly once per request:
    ///
    /// - `1` — the groups execute on a single lane;
    /// - `n > 1` — shard groups execute on `n` parallel lanes; lane
    ///   costs merge as max-over-lanes for parallelizable cost kinds
    ///   (see `oe_simdevice::CostKind::lane_parallel`).
    pub parallelism: usize,
}

impl NodeConfig {
    /// A reasonable default for tests and examples: dim-8 embeddings,
    /// AdaGrad, 1 MiB cache, one shard, everything enabled.
    pub fn small(dim: usize) -> Self {
        Self {
            dim,
            optimizer: OptimizerKind::Adagrad {
                lr: 0.05,
                eps: 1e-8,
            },
            cache_bytes: 1 << 20,
            shards: 1,
            enable_cache: true,
            enable_pipeline: true,
            init_scale: 0.01,
            pmem_capacity: 1 << 24,
            seed: 42,
            replacement: PolicyKind::Lru,
            admission: AdmissionKind::Always,
            parallelism: 1,
        }
    }

    /// Payload length in f32s: weights + optimizer state.
    pub fn payload_f32s(&self) -> usize {
        self.dim + self.optimizer.state_f32s(self.dim)
    }

    /// Payload length in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.payload_f32s() * 4
    }

    /// DRAM bytes one cached entry costs (payload + bookkeeping).
    pub fn bytes_per_cached_entry(&self) -> usize {
        self.payload_bytes() + CACHE_ENTRY_OVERHEAD_BYTES
    }

    /// Total cache capacity in entries implied by `cache_bytes`.
    pub fn cache_entries(&self) -> usize {
        (self.cache_bytes / self.bytes_per_cached_entry())
            .max(self.shards)
            .max(1)
    }

    /// Cache entries per shard.
    pub fn cache_entries_per_shard(&self) -> usize {
        (self.cache_entries() / self.shards.max(1)).max(1)
    }

    /// Validate invariants; panics with a clear message on nonsense.
    pub fn validate(&self) {
        assert!(self.dim > 0, "dim must be positive");
        assert!(self.shards > 0, "need at least one shard");
        assert!(self.cache_bytes > 0, "cache_bytes must be positive");
        assert!(self.init_scale >= 0.0, "init_scale must be non-negative");
        assert!(
            self.parallelism >= 1,
            "parallelism must be ≥ 1 (the per-key path was removed in PR 15)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_accounts_for_optimizer_state() {
        let mut c = NodeConfig::small(16);
        c.optimizer = OptimizerKind::Sgd { lr: 0.1 };
        assert_eq!(c.payload_f32s(), 16);
        c.optimizer = OptimizerKind::Adagrad { lr: 0.1, eps: 1e-8 };
        assert_eq!(c.payload_f32s(), 32);
        c.optimizer = OptimizerKind::Adam {
            lr: 0.001,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        };
        assert_eq!(c.payload_f32s(), 16 + 32 + 1);
    }

    #[test]
    fn cache_entry_math() {
        let c = NodeConfig::small(64); // payload 512 B + 64 B overhead
        assert_eq!(c.bytes_per_cached_entry(), 576);
        assert_eq!(c.cache_entries(), (1 << 20) / 576);
    }

    #[test]
    fn cache_entries_never_zero() {
        let mut c = NodeConfig::small(64);
        c.cache_bytes = 1; // absurdly small
        assert_eq!(c.cache_entries(), 1);
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn validate_rejects_zero_dim() {
        let mut c = NodeConfig::small(1);
        c.dim = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "parallelism must be ≥ 1")]
    fn validate_rejects_zero_parallelism() {
        let mut c = NodeConfig::small(1);
        c.parallelism = 0;
        c.validate();
    }
}
