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
    fn charge_ns_only_skips_counter() {
        let mut c = Cost::new();
        c.charge_ns_only(CostKind::DramTransfer, 64);
        assert_eq!(c.ns(CostKind::DramTransfer), 64);
        assert_eq!(c.ops(CostKind::DramTransfer), 0);
    }
}
