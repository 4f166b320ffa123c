//! Cloud cost model reproducing the paper's Table V ("Price of
//! parameter servers"), Alibaba Cloud pay-as-you-go prices.

/// A parameter-server deployment option from Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsDeployment {
    /// `count` large DRAM servers (ecs.r6e.13xlarge: 52 cores, 384 GB).
    DramServers {
        /// Number of machines.
        count: u32,
    },
    /// `count` PMem servers (ecs.re6p.13xlarge: 52 cores, 192 GB DRAM +
    /// 756 GB PMem).
    PmemServers {
        /// Number of machines.
        count: u32,
    },
}

/// Table V price constants ($/hour, pay-as-you-go).
#[derive(Debug, Clone, Copy)]
pub struct CloudCostModel {
    /// ecs.r6e.13xlarge hourly price (2 machines = $6.07/h in Table V).
    pub dram_server_per_hour: f64,
    /// ecs.re6p.13xlarge hourly price.
    pub pmem_server_per_hour: f64,
}

impl CloudCostModel {
    /// The paper's prices.
    pub fn paper() -> Self {
        Self {
            dram_server_per_hour: 6.07 / 2.0,
            pmem_server_per_hour: 3.80,
        }
    }

    /// $/hour for a deployment.
    pub fn per_hour(&self, d: PsDeployment) -> f64 {
        match d {
            PsDeployment::DramServers { count } => self.dram_server_per_hour * count as f64,
            PsDeployment::PmemServers { count } => self.pmem_server_per_hour * count as f64,
        }
    }

    /// PS cost of one training epoch taking `hours`.
    pub fn per_epoch(&self, d: PsDeployment, hours: f64) -> f64 {
        self.per_hour(d) * hours
    }

    /// DRAM capacity (GB) of a deployment — for the "fits the model?"
    /// sizing argument in Table V.
    pub fn dram_gb(&self, d: PsDeployment) -> u64 {
        match d {
            PsDeployment::DramServers { count } => 384 * count as u64,
            PsDeployment::PmemServers { count } => 192 * count as u64,
        }
    }

    /// PMem capacity (GB).
    pub fn pmem_gb(&self, d: PsDeployment) -> u64 {
        match d {
            PsDeployment::DramServers { .. } => 0,
            PsDeployment::PmemServers { count } => 756 * count as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_prices() {
        let m = CloudCostModel::paper();
        // Table V: 2 DRAM servers $6.07/h, 1 PMem server $3.80/h.
        assert!((m.per_hour(PsDeployment::DramServers { count: 2 }) - 6.07).abs() < 1e-9);
        assert!((m.per_hour(PsDeployment::PmemServers { count: 1 }) - 3.80).abs() < 1e-9);
    }

    #[test]
    fn table5_epoch_costs() {
        let m = CloudCostModel::paper();
        // Table V epoch rows: DRAM 5.75 h → $34.9; PMem-OE 5.33 h →
        // $20.3; Ori-Cache 7.01 h → $26.6.
        let dram = m.per_epoch(PsDeployment::DramServers { count: 2 }, 5.75);
        let oe = m.per_epoch(PsDeployment::PmemServers { count: 1 }, 5.33);
        let ori = m.per_epoch(PsDeployment::PmemServers { count: 1 }, 7.01);
        assert!((dram - 34.9).abs() < 0.05, "dram = {dram}");
        assert!((oe - 20.3).abs() < 0.05, "oe = {oe}");
        assert!((ori - 26.6).abs() < 0.05, "ori = {ori}");
        // Headline claim: 42% storage-cost saving vs pure DRAM.
        let saving = 1.0 - oe / dram;
        assert!((saving - 0.42).abs() < 0.01, "saving = {saving}");
    }

    #[test]
    fn capacity_sizing() {
        let m = CloudCostModel::paper();
        // A 500 GB model needs 2 DRAM servers (384 GB each) but only one
        // PMem server (756 GB PMem).
        assert!(m.dram_gb(PsDeployment::DramServers { count: 1 }) < 500);
        assert!(m.dram_gb(PsDeployment::DramServers { count: 2 }) >= 500);
        assert!(m.pmem_gb(PsDeployment::PmemServers { count: 1 }) >= 500);
    }
}
