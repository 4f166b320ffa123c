//! Offline stand-in: `oe-workload` declares `rand_distr` but uses nothing from it.
