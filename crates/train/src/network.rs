//! Network cost model: the 30 Gb intranet + low-overhead RPC of the
//! paper's testbed (§VI-A).

use oe_simdevice::Nanos;

/// Per-worker network model.
#[derive(Debug, Clone, Copy)]
pub struct NetModel {
    /// Per-request RPC overhead (ns) — serialization + kernel bypass.
    pub rpc_overhead_ns: u64,
    /// Link bandwidth in bytes/ns (30 Gb/s ≈ 3.75 GB/s ≈ 3.75 B/ns).
    pub bw_bytes_per_ns: f64,
}

impl NetModel {
    /// The paper's testbed: 30 Gb intranet, RDMA-style RPC.
    pub fn paper_default() -> Self {
        Self {
            rpc_overhead_ns: 15_000,
            bw_bytes_per_ns: 3.75,
        }
    }

    /// Time for one worker to pull `keys` embeddings of `dim` f32s:
    /// request carries the ids, response the weights.
    pub fn pull_ns(&self, keys: usize, dim: usize) -> Nanos {
        let bytes = keys * 8 + keys * dim * 4;
        self.rpc_overhead_ns + (bytes as f64 / self.bw_bytes_per_ns) as u64
    }

    /// Time for one worker to push `keys` gradients of `dim` f32s.
    pub fn push_ns(&self, keys: usize, dim: usize) -> Nanos {
        let bytes = keys * (8 + dim * 4);
        self.rpc_overhead_ns + (bytes as f64 / self.bw_bytes_per_ns) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pull_push_symmetric_in_payload() {
        let n = NetModel::paper_default();
        assert_eq!(n.pull_ns(100, 64), n.push_ns(100, 64));
        assert!(n.pull_ns(1000, 64) > n.pull_ns(100, 64));
    }

    #[test]
    fn magnitude() {
        let n = NetModel::paper_default();
        // 10k keys × 64 dims ≈ 2.6 MB → ~0.7 ms on 30 Gb.
        let t = n.pull_ns(10_000, 64);
        assert!((500_000..2_000_000).contains(&t), "t = {t}");
    }
}
