//! Composition of per-operation costs into burst completion times.
//!
//! Synchronous DLRM training hits the parameter server with two bursts per
//! batch (paper Fig. 2): every worker issues its pulls at batch start and
//! its updates at batch end, simultaneously. The PS serves a burst with a
//! pool of service threads. How long the burst takes depends on *what kind*
//! of work it contains:
//!
//! - CPU-bound work (hash lookups, memcpy issue) divides across threads,
//! - device byte transfers are bound by the device's effective bandwidth
//!   under that concurrency (see [`crate::DeviceTiming::concurrency_efficiency`]),
//! - critical sections under a global lock execute serially no matter what.
//!
//! [`ContentionModel::burst_ns`] composes a [`Cost`] into a completion time
//! using these rules — an Amdahl-style bound combined with bandwidth floors.

use crate::clock::Nanos;
use crate::cost::{Cost, CostKind};
use crate::device::DeviceTiming;

/// Amdahl composition: `serial` nanoseconds cannot parallelize, `parallel`
/// nanoseconds divide evenly across `threads`.
#[inline]
pub fn amdahl_burst(serial_ns: Nanos, parallel_ns: Nanos, threads: u32) -> Nanos {
    serial_ns + parallel_ns / threads.max(1) as u64
}

/// Time to move `bytes` through a device at `bw` bytes/ns shared by
/// `streams` concurrent requesters, given the device's efficiency curve.
#[inline]
pub fn shared_bandwidth_ns(bytes: u64, bw_bytes_per_ns: f64, efficiency: f64) -> Nanos {
    (bytes as f64 / (bw_bytes_per_ns * efficiency.max(1e-6))) as Nanos
}

/// Parameters describing how a parameter-server node turns a burst of
/// charged costs into wall(-virtual)-clock time.
#[derive(Debug, Clone, Copy)]
pub struct ContentionModel {
    /// Number of service threads handling requests on the PS node.
    pub service_threads: u32,
    /// Number of concurrent requesters (≈ workers × connections) during a
    /// burst; drives device-efficiency degradation.
    pub burst_streams: u32,
    /// PMem timing for bandwidth floors.
    pub pmem: DeviceTiming,
    /// DRAM timing for bandwidth floors.
    pub dram: DeviceTiming,
    /// SSD timing for bandwidth floors.
    pub ssd: DeviceTiming,
    /// Fabric-link timing for disaggregated-pool bandwidth floors.
    pub fabric: DeviceTiming,
}

impl ContentionModel {
    /// A model for a PS node with `service_threads` threads serving a burst
    /// from `burst_streams` concurrent client streams.
    pub fn new(service_threads: u32, burst_streams: u32) -> Self {
        Self {
            service_threads,
            burst_streams,
            pmem: DeviceTiming::pmem(),
            dram: DeviceTiming::dram(),
            ssd: DeviceTiming::flash_ssd(),
            fabric: DeviceTiming::cxl_fabric(),
        }
    }

    /// Completion time of a burst whose constituent operations charged
    /// `cost`.
    ///
    /// Rule per category:
    /// - `Serialized`: runs start-to-finish serially.
    /// - `Cpu`, `Net`: divide across service threads (network charges
    ///   already include the shared-bandwidth share computed by the network
    ///   model, so here they just overlap across threads).
    /// - `DramTransfer`/`PmemRead`/`PmemWrite`/`SsdTransfer`: the charged
    ///   nanoseconds assumed exclusive access; the burst executes them at
    ///   min(thread-parallel speed, device effective bandwidth). We take
    ///   the max of (charged/threads) and (charged/efficiency_scaled) —
    ///   i.e. adding threads helps only until the device saturates.
    pub fn burst_ns(&self, cost: &Cost) -> Nanos {
        let t = self.service_threads.max(1) as u64;
        let s = self.burst_streams;

        // Global-lock critical sections get *slower* under concurrency:
        // every handoff bounces the lock cache line between cores and
        // parks/unparks waiters. Empirically near-linear in the number
        // of contending streams for short critical sections.
        let lock_contention = 1.0 + 0.02 * (s.saturating_sub(1)) as f64;
        let serial = (cost.ns(CostKind::Serialized) as f64 * lock_contention) as Nanos;
        let cpuish = (cost.ns(CostKind::Cpu) + cost.ns(CostKind::Net)) / t;

        let dev = |ns: Nanos, eff: f64| -> Nanos {
            // Thread-parallel execution, inflated by the device's
            // efficiency loss at this client concurrency: adding service
            // threads helps, but the device delivers only `eff` of its
            // peak under a burst of `s` streams.
            (ns as f64 / (t as f64 * eff.max(1e-6))) as Nanos
        };

        let dram = dev(
            cost.ns(CostKind::DramTransfer),
            self.dram.concurrency_efficiency(s),
        );
        let pmem_r = dev(
            cost.ns(CostKind::PmemRead),
            self.pmem.concurrency_efficiency(s),
        );
        let pmem_w = dev(
            cost.ns(CostKind::PmemWrite),
            self.pmem.concurrency_efficiency(s),
        );
        let ssd = dev(
            cost.ns(CostKind::SsdTransfer),
            self.ssd.concurrency_efficiency(s),
        );
        let fabric = dev(
            cost.ns(CostKind::FabricTransfer),
            self.fabric.concurrency_efficiency(s),
        );

        serial + cpuish + dram + pmem_r + pmem_w + ssd + fabric
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_basics() {
        assert_eq!(amdahl_burst(100, 1000, 10), 200);
        assert_eq!(amdahl_burst(0, 1000, 1), 1000);
        // threads=0 treated as 1
        assert_eq!(amdahl_burst(5, 100, 0), 105);
    }

    #[test]
    fn serialized_work_never_parallelizes() {
        let mut c = Cost::new();
        c.charge(CostKind::Serialized, 1_000_000);
        // More service threads never help serialized work…
        let few = ContentionModel::new(1, 4).burst_ns(&c);
        let many = ContentionModel::new(64, 4).burst_ns(&c);
        assert_eq!(few, many);
        // …and more contending streams make it *worse*.
        let calm = ContentionModel::new(16, 1).burst_ns(&c);
        let storm = ContentionModel::new(16, 32).burst_ns(&c);
        assert!(storm > calm, "lock contention: {storm} vs {calm}");
        assert_eq!(calm, 1_000_000, "uncontended = raw serial time");
    }

    #[test]
    fn cpu_work_parallelizes() {
        let mut c = Cost::new();
        c.charge(CostKind::Cpu, 1_000_000);
        let one = ContentionModel::new(1, 1).burst_ns(&c);
        let eight = ContentionModel::new(8, 1).burst_ns(&c);
        assert_eq!(one / 8, eight);
    }

    #[test]
    fn pmem_saturates_but_dram_scales() {
        let mut pm = Cost::new();
        pm.charge(CostKind::PmemWrite, 1_000_000);
        let mut dr = Cost::new();
        dr.charge(CostKind::DramTransfer, 1_000_000);

        // Same thread count, heavy client concurrency: PMem time shrinks
        // far less than DRAM time when threads grow.
        let pm16 = ContentionModel::new(16, 16).burst_ns(&pm);
        let dr16 = ContentionModel::new(16, 16).burst_ns(&dr);
        assert!(
            pm16 > dr16 * 2,
            "PMem burst should be much slower under concurrency: pm={pm16} dr={dr16}"
        );
    }

    #[test]
    fn more_streams_hurt_pmem_bursts() {
        let mut c = Cost::new();
        c.charge(CostKind::PmemWrite, 10_000_000);
        let calm = ContentionModel::new(16, 4).burst_ns(&c);
        let storm = ContentionModel::new(16, 32).burst_ns(&c);
        assert!(storm > calm, "storm={storm} calm={calm}");
    }

    #[test]
    fn shared_bandwidth_helper() {
        // 1000 bytes at 1 byte/ns, 50% efficiency → 2000 ns.
        assert_eq!(shared_bandwidth_ns(1000, 1.0, 0.5), 2000);
    }
}
