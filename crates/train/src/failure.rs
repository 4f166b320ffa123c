//! Crash drills (paper §VI-E): cut a trained node's PMem at an arbitrary
//! instant and restore it through `oe_core::recovery::restore`.

#[cfg(test)]
mod tests {
    use oe_core::config::NodeConfig;
    use oe_core::engine::PsEngine;
    use oe_core::recovery::{restore, LocalMedia};
    use oe_core::{OptimizerKind, PsNode};
    use oe_simdevice::Cost;
    use std::sync::Arc;

    fn cfg() -> NodeConfig {
        let mut c = NodeConfig::small(4);
        c.optimizer = OptimizerKind::Sgd { lr: 0.5 };
        c
    }

    fn step(n: &PsNode, keys: &[u64], b: u64) {
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(keys, b, &mut out, &mut cost);
        n.end_pull_phase(b);
        n.push(keys, &vec![0.1; keys.len() * 4], b, &mut cost);
    }

    #[test]
    fn parallel_recovery_is_faster() {
        let n = PsNode::new(cfg());
        let keys: Vec<u64> = (0..500).collect();
        step(&n, &keys, 1);
        n.request_checkpoint(1);
        step(&n, &keys, 2);
        let recover_with = |threads: u32| {
            let home = LocalMedia::new(Arc::clone(n.pool().media()), threads);
            restore(&home, cfg(), 4).expect("restores")
        };
        let serial = recover_with(1);
        let parallel = recover_with(8);
        assert_eq!(serial.report.resume_batch, 1);
        assert_eq!(parallel.report.scan.live.len(), 500);
        assert!(
            parallel.recovery_ns < serial.recovery_ns,
            "{} vs {}",
            parallel.recovery_ns,
            serial.recovery_ns
        );
    }
}
