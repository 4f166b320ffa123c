//! Device timing models calibrated to Table I of the paper.
//!
//! | Device    | Bandwidth R/W (GB/s) | Latency R/W (ns) |
//! |-----------|----------------------|------------------|
//! | DRAM      | 115 / 79             | 81 / 86          |
//! | PMem      | 39 / 14              | 305 / 94         |
//! | Flash SSD | 2.5 / 1.5            | > 10000          |
//!
//! Beyond the headline numbers, the model captures the property that drives
//! the paper's Observation 1: Optane PMem's effective bandwidth collapses
//! under highly concurrent bursty access (its on-DIMM buffer, XPLine
//! write-combining and limited outstanding-request queue), whereas DRAM
//! scales almost linearly with memory channels. We model this as a
//! per-device *concurrency efficiency* curve.

use crate::clock::Nanos;
use crate::cost::{Cost, CostKind};

/// Identifies one of the three device classes from Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// DDR4 DRAM.
    Dram,
    /// Intel Optane DC Persistent Memory (AppDirect mode).
    Pmem,
    /// NVMe flash SSD (block device; byte access rounded up to 4 KiB).
    FlashSsd,
    /// CXL-style fabric link to a disaggregated memory pool
    /// (TrainingCXL direction): PMem media reached through a load/store
    /// fabric rather than the local memory bus.
    CxlFabric,
}

/// A calibrated timing model for one device.
#[derive(Debug, Clone, Copy)]
pub struct DeviceTiming {
    /// Which device class this models.
    pub kind: DeviceKind,
    /// Idle read latency, ns (first byte).
    pub read_lat_ns: Nanos,
    /// Idle write latency, ns (to persistence domain for PMem).
    pub write_lat_ns: Nanos,
    /// Peak sequential read bandwidth, bytes/ns (= GB/s / 1e0; 1 byte/ns ≈ 1 GB/s).
    pub read_bw_bytes_per_ns: f64,
    /// Peak write bandwidth, bytes/ns.
    pub write_bw_bytes_per_ns: f64,
    /// Minimum transfer granularity in bytes (cache line for memory,
    /// 4 KiB page for SSD).
    pub access_granularity: u64,
    /// Concurrency efficiency exponent: effective aggregate bandwidth under
    /// `k` concurrent streams is `peak * k^(eff-1) … ` clamped — see
    /// [`DeviceTiming::concurrency_efficiency`]. 1.0 = perfect scaling,
    /// lower = faster collapse. DRAM ≈ 0.97, PMem ≈ 0.45, SSD ≈ 0.85.
    pub concurrency_exponent: f64,
}

impl DeviceTiming {
    /// Table I DRAM model.
    pub const fn dram() -> Self {
        Self {
            kind: DeviceKind::Dram,
            read_lat_ns: 81,
            write_lat_ns: 86,
            read_bw_bytes_per_ns: 115.0,
            write_bw_bytes_per_ns: 79.0,
            access_granularity: 64,
            concurrency_exponent: 0.97,
        }
    }

    /// Table I Optane PMem model.
    pub const fn pmem() -> Self {
        Self {
            kind: DeviceKind::Pmem,
            read_lat_ns: 305,
            write_lat_ns: 94,
            read_bw_bytes_per_ns: 39.0,
            write_bw_bytes_per_ns: 14.0,
            access_granularity: 64,
            concurrency_exponent: 0.45,
        }
    }

    /// Table I flash SSD model (midpoint of the paper's 2–3 / 1–2 GB/s).
    pub const fn flash_ssd() -> Self {
        Self {
            kind: DeviceKind::FlashSsd,
            read_lat_ns: 10_000,
            write_lat_ns: 20_000,
            read_bw_bytes_per_ns: 2.5,
            write_bw_bytes_per_ns: 1.5,
            access_granularity: 4096,
            concurrency_exponent: 0.85,
        }
    }

    /// CXL-style fabric link to a disaggregated pool: latency sits
    /// between local PMem and SSD (~one switch hop each way), bandwidth
    /// is a single x8 link shared by everything behind it, and the
    /// efficiency exponent models switch-port congestion — gentler than
    /// Optane's media collapse but far from DRAM's near-linear scaling.
    pub const fn cxl_fabric() -> Self {
        Self {
            kind: DeviceKind::CxlFabric,
            read_lat_ns: 400,
            write_lat_ns: 400,
            read_bw_bytes_per_ns: 32.0,
            write_bw_bytes_per_ns: 32.0,
            access_granularity: 64,
            concurrency_exponent: 0.75,
        }
    }

    /// Model for a device kind.
    pub fn of(kind: DeviceKind) -> Self {
        match kind {
            DeviceKind::Dram => Self::dram(),
            DeviceKind::Pmem => Self::pmem(),
            DeviceKind::FlashSsd => Self::flash_ssd(),
            DeviceKind::CxlFabric => Self::cxl_fabric(),
        }
    }

    /// Round a byte count up to the device's access granularity.
    #[inline]
    pub fn rounded(&self, bytes: u64) -> u64 {
        let g = self.access_granularity;
        bytes.div_ceil(g) * g
    }

    /// Virtual-time cost of a single random read of `bytes`.
    #[inline]
    pub fn read_ns(&self, bytes: u64) -> Nanos {
        self.read_lat_ns + (self.rounded(bytes) as f64 / self.read_bw_bytes_per_ns) as Nanos
    }

    /// Virtual-time cost of a single persistent write of `bytes`
    /// (for PMem this is the CLWB+transfer cost to the persistence domain).
    #[inline]
    pub fn write_ns(&self, bytes: u64) -> Nanos {
        self.write_lat_ns + (self.rounded(bytes) as f64 / self.write_bw_bytes_per_ns) as Nanos
    }

    /// Fraction of peak aggregate bandwidth retained when `streams`
    /// concurrent requesters hammer the device. Effective per-stream
    /// bandwidth = peak * efficiency / streams.
    ///
    /// efficiency(k) = k^(e-1) with e = `concurrency_exponent`, so DRAM at
    /// 16 streams retains ~92% of peak while PMem retains ~22% — matching
    /// the published Optane behaviour under bursty small writes and the
    /// paper's observed 3.17× PMem-Hash slowdown at 16 GPUs.
    #[inline]
    pub fn concurrency_efficiency(&self, streams: u32) -> f64 {
        if streams <= 1 {
            return 1.0;
        }
        (streams as f64).powf(self.concurrency_exponent - 1.0)
    }

    /// Aggregate time to move `total_bytes` (writes) when `streams`
    /// concurrent requesters share the device.
    pub fn shared_write_ns(&self, total_bytes: u64, streams: u32) -> Nanos {
        let eff_bw = self.write_bw_bytes_per_ns * self.concurrency_efficiency(streams);
        self.write_lat_ns + (self.rounded(total_bytes) as f64 / eff_bw) as Nanos
    }

    /// The [`CostKind`] bucket a read on this device charges to.
    pub fn read_cost_kind(&self) -> CostKind {
        match self.kind {
            DeviceKind::Dram => CostKind::DramTransfer,
            DeviceKind::Pmem => CostKind::PmemRead,
            DeviceKind::FlashSsd => CostKind::SsdTransfer,
            DeviceKind::CxlFabric => CostKind::FabricTransfer,
        }
    }

    /// The [`CostKind`] bucket a write on this device charges to.
    pub fn write_cost_kind(&self) -> CostKind {
        match self.kind {
            DeviceKind::Dram => CostKind::DramTransfer,
            DeviceKind::Pmem => CostKind::PmemWrite,
            DeviceKind::FlashSsd => CostKind::SsdTransfer,
            DeviceKind::CxlFabric => CostKind::FabricTransfer,
        }
    }

    /// Charge a read of `bytes` to `cost`.
    #[inline]
    pub fn charge_read(&self, bytes: u64, cost: &mut Cost) {
        cost.charge(self.read_cost_kind(), self.read_ns(bytes));
    }

    /// Charge a persistent write of `bytes` to `cost`.
    #[inline]
    pub fn charge_write(&self, bytes: u64, cost: &mut Cost) {
        cost.charge(self.write_cost_kind(), self.write_ns(bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets_match_paper() {
        let d = DeviceTiming::dram();
        assert_eq!(d.read_lat_ns, 81);
        assert_eq!(d.write_lat_ns, 86);
        let p = DeviceTiming::pmem();
        assert_eq!(p.read_lat_ns, 305);
        assert_eq!(p.write_lat_ns, 94);
        // Bandwidth ratios from the paper: PMem read ≈ 1/3 DRAM,
        // write ≈ 1/5 DRAM.
        assert!((d.read_bw_bytes_per_ns / p.read_bw_bytes_per_ns - 3.0).abs() < 0.1);
        assert!((d.write_bw_bytes_per_ns / p.write_bw_bytes_per_ns - 5.6).abs() < 0.1);
        // SSD latency two orders of magnitude beyond PMem.
        assert!(DeviceTiming::flash_ssd().read_lat_ns >= 10_000);
    }

    #[test]
    fn read_write_cost_scales_with_bytes() {
        let p = DeviceTiming::pmem();
        let small = p.read_ns(64);
        let big = p.read_ns(64 * 1024);
        assert!(big > small);
        // 64 bytes at 39 B/ns is ~1-2ns, dominated by latency.
        assert!((305..=310).contains(&small));
        // 1 MiB write at 14 B/ns ≈ 74.9k ns + latency.
        let w = p.write_ns(1 << 20);
        assert!((74_000..80_000).contains(&w), "w={w}");
    }

    #[test]
    fn granularity_rounding() {
        let s = DeviceTiming::flash_ssd();
        assert_eq!(s.rounded(1), 4096);
        assert_eq!(s.rounded(4096), 4096);
        assert_eq!(s.rounded(4097), 8192);
        let d = DeviceTiming::dram();
        assert_eq!(d.rounded(1), 64);
        assert_eq!(d.rounded(65), 128);
    }

    #[test]
    fn pmem_collapses_under_concurrency_dram_does_not() {
        let d = DeviceTiming::dram();
        let p = DeviceTiming::pmem();
        let d16 = d.concurrency_efficiency(16);
        let p16 = p.concurrency_efficiency(16);
        assert!(d16 > 0.9, "DRAM retains ≥90%: {d16}");
        assert!(p16 < 0.35, "PMem collapses: {p16}");
        // Efficiency is monotonically non-increasing in streams.
        assert!(p.concurrency_efficiency(4) > p.concurrency_efficiency(8));
        assert_eq!(p.concurrency_efficiency(1), 1.0);
    }

    #[test]
    fn charge_goes_to_correct_bucket() {
        let mut c = Cost::new();
        DeviceTiming::pmem().charge_read(256, &mut c);
        DeviceTiming::pmem().charge_write(256, &mut c);
        DeviceTiming::dram().charge_read(256, &mut c);
        assert_eq!(c.ops(CostKind::PmemRead), 1);
        assert_eq!(c.ops(CostKind::PmemWrite), 1);
        assert_eq!(c.ops(CostKind::DramTransfer), 1);
    }

    #[test]
    fn shared_bandwidth_slower_than_exclusive() {
        let p = DeviceTiming::pmem();
        let alone = p.shared_write_ns(1 << 20, 1);
        let crowded = p.shared_write_ns(1 << 20, 16);
        assert!(crowded > 2 * alone, "alone={alone} crowded={crowded}");
    }
}
