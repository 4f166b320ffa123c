//! Checks of the storage backends over one training schedule, kept from
//! the retired `pool` scenario (its numbers: EXPERIMENTS.md, "Retired
//! bench scenarios"). `e2e/` `pool-pipe` measures the fabric lane end to
//! end.

#[cfg(test)]
mod tests {
    use oe_core::engine::PsEngine;
    use oe_core::recovery::{DurableHome, LocalMedia};
    use oe_core::{CheckpointScheduler, DramStore, NodeConfig, OptimizerKind, PsNode};
    use oe_net::Standby;
    use oe_pmem::PoolConfig;
    use oe_pool::{FabricConfig, PoolPartition, RemotePool, SharedPool};
    use oe_simdevice::Cost;
    use oe_train::{GpuModel, PipelineConfig, PipelinedTrainer, TrainerConfig};
    use oe_workload::{SkewModel, WorkloadSpec};
    use std::sync::Arc;

    const NUM_KEYS: u64 = 1_000;
    const DIM: usize = 8;
    const SEED: u64 = 0xB007;

    fn node_config() -> NodeConfig {
        let mut cfg = NodeConfig::small(DIM);
        cfg.optimizer = OptimizerKind::Adagrad {
            lr: 0.05,
            eps: 1e-8,
        };
        cfg.cache_bytes = 100 * cfg.bytes_per_cached_entry();
        cfg.pmem_capacity = 1 << 26;
        cfg
    }

    fn pool_config() -> PoolConfig {
        let cfg = node_config();
        PoolConfig {
            payload_bytes: cfg.payload_bytes(),
            capacity: cfg.pmem_capacity,
        }
    }

    /// Eight synchronous batches, a checkpoint after each, and a GPU that
    /// costs nothing: epoch time is the storage plane alone, so every
    /// backend's charges show.
    fn train(node: &PsNode) -> u64 {
        let spec = WorkloadSpec {
            num_keys: NUM_KEYS,
            fields: 5,
            batch_size: 64,
            workers: 2,
            skew: SkewModel::paper_fit(),
            seed: SEED,
            drift_keys_per_batch: 0,
        };
        let mut cfg = TrainerConfig::paper(2);
        cfg.ckpt = CheckpointScheduler::every(1);
        cfg.gpu = GpuModel {
            batch_overhead_ns: 0,
            ns_per_input_dim: 0.0,
            allreduce_ns: 0,
        };
        PipelinedTrainer::with_client(node, spec, cfg, PipelineConfig::sync())
            .run(1, 8)
            .train
            .total_ns
    }

    /// A PS node over a fresh partition of `shared`, with `attached - 1`
    /// idle partitions sharing its fabric link.
    fn pool_node(shared: &Arc<SharedPool>, attached: u32) -> (PsNode, Vec<RemotePool>) {
        let mut cost = Cost::new();
        let ballast = (1..attached)
            .map(|extra| shared.create_partition(1_000 + extra as u64, pool_config(), &mut cost))
            .collect();
        let store = shared.create_partition(0, pool_config(), &mut cost);
        (
            PsNode::with_storage(node_config(), Arc::new(store)),
            ballast,
        )
    }

    #[test]
    fn backends_agree_and_fabric_costs_show() {
        let pmem = PsNode::new(node_config());
        let pmem_ns = train(&pmem);
        let dram = PsNode::with_storage(node_config(), {
            let mut cost = Cost::new();
            Arc::new(DramStore::create(pool_config(), &mut cost))
        });
        let dram_ns = train(&dram);
        let (pool, _) = pool_node(&SharedPool::new(FabricConfig::default()), 1);
        let pool_ns = train(&pool);
        for (label, node) in [("dram", &dram), ("pool", &pool)] {
            assert!(
                (0..NUM_KEYS).all(|k| pmem.read_weights(k) == node.read_weights(k)),
                "{label} arm diverged"
            );
        }
        assert!(
            pool_ns > pmem_ns,
            "fabric surcharge must show: pool {pool_ns} vs pmem {pmem_ns}"
        );
        assert!(dram_ns < pmem_ns, "volatile DRAM must be the cheapest arm");
    }

    #[test]
    fn congestion_inflates_and_recovery_agrees() {
        let [exclusive, congested] = [1, 8].map(|attached| {
            let (node, _ballast) = pool_node(&SharedPool::new(FabricConfig::default()), attached);
            train(&node)
        });
        assert!(
            congested > exclusive,
            "8 attached nodes must cost more than an exclusive link"
        );

        // The same trained state promoted from its two homes: the local
        // crash image and the pool partition that outlives its node.
        let local = PsNode::new(node_config());
        train(&local);
        let shared = SharedPool::new(FabricConfig::default());
        let (pooled, _) = pool_node(&shared, 1);
        train(&pooled);
        drop(pooled);
        let homes: [Arc<dyn DurableHome>; 2] = [
            Arc::new(LocalMedia::new(
                Arc::clone(local.pool().media()),
                shared.fabric().near_pool_threads,
            )),
            Arc::new(PoolPartition::new(Arc::clone(&shared), 0)),
        ];
        let [local, pool] = homes.map(|home| {
            let standby = Standby::new(home, node_config(), 1, SEED);
            standby.promote().expect("trained bytes promote").event
        });
        assert_eq!(local.resume_batch, pool.resume_batch);
        assert_eq!(local.recovered_keys, pool.recovered_keys);
        assert!(local.resume_batch > 0);
        assert!(local.recovered_keys > 0);
        assert!(local.recovery_ns > 0);
        assert!(pool.recovery_ns > 0);
    }
}
