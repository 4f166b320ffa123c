//! Virtual-time cost accounting.
//!
//! Every storage-engine operation in the reproduction takes a `&mut Cost`
//! sink and charges simulated nanoseconds to a category. The discrete-event
//! trainer later composes categories with the contention model: e.g. PMem
//! byte-transfer time is bandwidth-bound (shared across PS service threads)
//! while hash/lock work is CPU-bound (Amdahl-parallelizable).

use crate::clock::Nanos;

/// Cost categories. The split matters because the contention model treats
/// them differently when composing a burst served by many threads:
/// bandwidth-bound categories do not speed up with more service threads,
/// CPU-bound ones do, and serialized ones (global-lock critical sections)
/// never parallelize at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CostKind {
    /// DRAM byte transfer (bandwidth-bound, but DRAM bw is rarely the
    /// bottleneck at our scales).
    DramTransfer = 0,
    /// PMem read byte transfer + media read latency (bandwidth-bound).
    PmemRead = 1,
    /// PMem write byte transfer + flush latency (bandwidth-bound; the
    /// scarcest resource in the paper).
    PmemWrite = 2,
    /// SSD transfer (bandwidth-bound; used by checkpoint-to-SSD baselines).
    SsdTransfer = 3,
    /// Per-operation CPU work: hash lookups, LRU pointer surgery, memcpy
    /// issue overhead (parallelizes across service threads).
    Cpu = 4,
    /// Time spent inside critical sections protected by a *global* lock
    /// (never parallelizes; the Ori-Cache killer).
    Serialized = 5,
    /// Network transfer + RPC overhead.
    Net = 6,
    /// CXL-style fabric transfer to a disaggregated memory pool
    /// (bandwidth-bound; shared by every node attached to the pool).
    FabricTransfer = 7,
}

impl CostKind {
    /// All categories, for iteration/reporting.
    pub const ALL: [CostKind; 8] = [
        CostKind::DramTransfer,
        CostKind::PmemRead,
        CostKind::PmemWrite,
        CostKind::SsdTransfer,
        CostKind::Cpu,
        CostKind::Serialized,
        CostKind::Net,
        CostKind::FabricTransfer,
    ];

    /// True if work of this kind charged on *distinct parallel lanes*
    /// overlaps in time, so a lane merge takes the max over lanes:
    /// per-lane CPU work runs on separate cores, DRAM transfers are far
    /// from the bandwidth wall at our scales, and media *reads* have
    /// enough bandwidth headroom to overlap (RecNMP/TensorDIMM's case).
    /// Everything else contends for a single resource — PMem/SSD write
    /// bandwidth, the network, global-lock critical sections — and sums.
    pub fn lane_parallel(self) -> bool {
        matches!(
            self,
            CostKind::Cpu | CostKind::DramTransfer | CostKind::PmemRead
        )
    }

    /// Stable short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CostKind::DramTransfer => "dram",
            CostKind::PmemRead => "pmem_read",
            CostKind::PmemWrite => "pmem_write",
            CostKind::SsdTransfer => "ssd",
            CostKind::Cpu => "cpu",
            CostKind::Serialized => "serialized",
            CostKind::Net => "net",
            CostKind::FabricTransfer => "fabric",
        }
    }
}

const N_KINDS: usize = 8;

/// Accumulated virtual-time charges, by category, plus operation counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cost {
    ns: [Nanos; N_KINDS],
    ops: [u64; N_KINDS],
}

impl Cost {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `ns` nanoseconds to `kind` (one operation).
    #[inline]
    pub fn charge(&mut self, kind: CostKind, ns: Nanos) {
        self.ns[kind as usize] += ns;
        self.ops[kind as usize] += 1;
    }

    /// Charge without bumping the op counter (for merged sub-charges).
    #[inline]
    pub fn charge_ns_only(&mut self, kind: CostKind, ns: Nanos) {
        self.ns[kind as usize] += ns;
    }

    /// Nanoseconds charged to `kind`.
    #[inline]
    pub fn ns(&self, kind: CostKind) -> Nanos {
        self.ns[kind as usize]
    }

    /// Operations counted against `kind`.
    #[inline]
    pub fn ops(&self, kind: CostKind) -> u64 {
        self.ops[kind as usize]
    }

    /// Sum over all categories — the *serial* execution time of everything
    /// charged here (an upper bound; the contention model refines it).
    pub fn total_ns(&self) -> Nanos {
        self.ns.iter().sum()
    }

    /// Merge another sink into this one.
    pub fn merge(&mut self, other: &Cost) {
        for i in 0..N_KINDS {
            self.ns[i] += other.ns[i];
            self.ops[i] += other.ops[i];
        }
    }

    /// Merge one *parallel lane* into this accumulator: nanoseconds of
    /// [`CostKind::lane_parallel`] kinds take the max over lanes (the
    /// lanes run concurrently, so the slowest lane bounds the phase),
    /// while serialized/bandwidth-contended kinds sum. Operation
    /// counters always sum — they count events, not time.
    ///
    /// The accumulator must start empty and absorb only sibling lanes of
    /// one parallel phase; fold the result into the request's cost with
    /// [`Self::merge`] afterwards (which sums, as the phase as a whole is
    /// sequential with the rest of the request).
    pub fn merge_parallel(&mut self, lane: &Cost) {
        for kind in CostKind::ALL {
            let i = kind as usize;
            if kind.lane_parallel() {
                self.ns[i] = self.ns[i].max(lane.ns[i]);
            } else {
                self.ns[i] += lane.ns[i];
            }
            self.ops[i] += lane.ops[i];
        }
    }

    /// Difference (self - other), saturating; used for per-phase deltas.
    pub fn delta_since(&self, baseline: &Cost) -> Cost {
        let mut d = Cost::new();
        for i in 0..N_KINDS {
            d.ns[i] = self.ns[i].saturating_sub(baseline.ns[i]);
            d.ops[i] = self.ops[i].saturating_sub(baseline.ops[i]);
        }
        d
    }

    /// Reset all charges.
    pub fn clear(&mut self) {
        *self = Cost::new();
    }

    /// Raw (ns, ops) arrays in [`CostKind::ALL`] order — for wire
    /// serialization by the RPC layer.
    pub fn raw_parts(&self) -> ([Nanos; 8], [u64; 8]) {
        (self.ns, self.ops)
    }

    /// Rebuild from raw parts (inverse of [`Self::raw_parts`]).
    pub fn from_raw_parts(ns: [Nanos; 8], ops: [u64; 8]) -> Self {
        Self { ns, ops }
    }

    /// True if nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.ns.iter().all(|&n| n == 0) && self.ops.iter().all(|&n| n == 0)
    }
}

impl std::fmt::Display for Cost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for kind in CostKind::ALL {
            let ns = self.ns(kind);
            if ns > 0 {
                if !first {
                    write!(f, " ")?;
                }
                write!(f, "{}={}us", kind.name(), ns / 1_000)?;
                first = false;
            }
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_read_back() {
        let mut c = Cost::new();
        c.charge(CostKind::PmemRead, 300);
        c.charge(CostKind::PmemRead, 200);
        c.charge(CostKind::Cpu, 50);
        assert_eq!(c.ns(CostKind::PmemRead), 500);
        assert_eq!(c.ops(CostKind::PmemRead), 2);
        assert_eq!(c.total_ns(), 550);
    }

    #[test]
    fn merge_and_delta() {
        let mut a = Cost::new();
        a.charge(CostKind::Net, 10);
        let snapshot = a.clone();
        a.charge(CostKind::Net, 30);
        a.charge(CostKind::Serialized, 7);
        let d = a.delta_since(&snapshot);
        assert_eq!(d.ns(CostKind::Net), 30);
        assert_eq!(d.ns(CostKind::Serialized), 7);

        let mut b = Cost::new();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.ns(CostKind::Net), 80);
        assert_eq!(b.ops(CostKind::Serialized), 2);
    }

    #[test]
    fn display_and_empty() {
        let mut c = Cost::new();
        assert!(c.is_empty());
        assert_eq!(format!("{c}"), "(empty)");
        c.charge(CostKind::Cpu, 2_000);
        assert!(format!("{c}").contains("cpu=2us"));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn parallel_lane_merge_maxes_parallel_kinds_and_sums_serial() {
        let mut a = Cost::new();
        a.charge(CostKind::Cpu, 100);
        a.charge(CostKind::PmemRead, 40);
        a.charge(CostKind::Serialized, 10);
        a.charge(CostKind::PmemWrite, 5);
        let mut b = Cost::new();
        b.charge(CostKind::Cpu, 300);
        b.charge(CostKind::Serialized, 20);
        b.charge(CostKind::PmemWrite, 7);

        let mut acc = Cost::new();
        acc.merge_parallel(&a);
        acc.merge_parallel(&b);
        // Parallel kinds: max over lanes.
        assert_eq!(acc.ns(CostKind::Cpu), 300);
        assert_eq!(acc.ns(CostKind::PmemRead), 40);
        // Contended kinds: sum over lanes.
        assert_eq!(acc.ns(CostKind::Serialized), 30);
        assert_eq!(acc.ns(CostKind::PmemWrite), 12);
        // Event counters always sum.
        assert_eq!(acc.ops(CostKind::Cpu), 2);
        assert_eq!(acc.ops(CostKind::Serialized), 2);
    }

    #[test]
    fn parallel_lane_merge_is_order_independent() {
        let mut lanes = Vec::new();
        for i in 1..=4u64 {
            let mut c = Cost::new();
            c.charge(CostKind::Cpu, i * 100);
            c.charge(CostKind::Serialized, i);
            lanes.push(c);
        }
        let fold = |order: &[usize]| {
            let mut acc = Cost::new();
            for &i in order {
                acc.merge_parallel(&lanes[i]);
            }
            acc
        };
        assert_eq!(fold(&[0, 1, 2, 3]), fold(&[3, 1, 0, 2]));
        assert_eq!(fold(&[0, 1, 2, 3]).ns(CostKind::Cpu), 400);
        assert_eq!(fold(&[0, 1, 2, 3]).ns(CostKind::Serialized), 10);
    }

    #[test]
    fn charge_ns_only_skips_counter() {
        let mut c = Cost::new();
        c.charge_ns_only(CostKind::DramTransfer, 64);
        assert_eq!(c.ns(CostKind::DramTransfer), 64);
        assert_eq!(c.ops(CostKind::DramTransfer), 0);
    }
}
