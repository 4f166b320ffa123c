//! Assemble the system under test for one workload, through the seams.
//!
//! Binds only to the half of each ROADMAP twin that survives:
//! `PlacedCluster` (not `core::cluster`), `RemotePs::try_connect` and the
//! fallible `PsClient` methods, `NodeConfig::small` + field edits with
//! `parallelism ≥ 1` and `scalar_kernels` untouched.

use crate::seams::{AsNode, Seams};
use crate::workloads::{Opt, Shape, Topology};
use oe_cluster::PlacedCluster;
use oe_core::stats::StatsSnapshot;
use oe_core::{Key, LocalPmem, NodeConfig, OptimizerKind, PsEngine, PsNode, StorageBackend};
use oe_net::{loopback, EngineClient, NetConfig, PsClient, PsServer, RemotePs, ServerHandle};
use oe_pmem::PoolConfig;
use oe_pool::{FabricConfig, SharedPool};
use oe_simdevice::Cost;
use oe_telemetry::Registry;
use oe_train::CoherenceSource;
use std::sync::Arc;
use std::time::Duration;

/// Nodes of the pool topology.
const POOL_NODES: usize = 2;

enum Engines<E: PsEngine> {
    Single(Arc<E>),
    Cluster(Arc<PlacedCluster<E>>),
}

/// The assembled system. Field order is drop order: the client goes
/// first so the server's workers see the disconnect and exit.
pub struct Stack<S: Seams> {
    pub client: Box<dyn PsClient>,
    engines: Engines<S::Engine>,
    server: Option<ServerHandle>,
    client_registry: Option<Arc<Registry>>,
    pool: Option<Arc<SharedPool>>,
    pub node_cfg: NodeConfig,
}

/// Per-node configuration for `shape`.
pub fn node_config(shape: &Shape, seed: u64) -> NodeConfig {
    let mut cfg = NodeConfig::small(shape.dim);
    cfg.optimizer = match shape.optimizer {
        Opt::Sgd => OptimizerKind::Sgd { lr: 0.05 },
        Opt::Adagrad => OptimizerKind::Adagrad {
            lr: 0.05,
            eps: 1e-8,
        },
    };
    cfg.seed = seed;
    cfg.parallelism = shape.parallelism;
    let nodes = if shape.topology == Topology::Pool {
        POOL_NODES as u64
    } else {
        1
    };
    let keys_per_node = shape.num_keys.div_ceil(nodes) as f64;
    cfg.cache_bytes =
        ((shape.cache_share * keys_per_node) as usize).max(64) * cfg.bytes_per_cached_entry();
    // Room for every key plus the multi-version slack checkpoints
    // need, so the media rarely regrows (it grows on demand anyway).
    let slot_bytes = cfg.payload_bytes() + 64;
    cfg.pmem_capacity = (keys_per_node as usize * slot_bytes * 2).next_power_of_two();
    cfg
}

impl<S: Seams> Stack<S> {
    pub fn build(seams: &S, shape: &Shape, seed: u64) -> Result<Self, oe_net::Error> {
        let node_cfg = node_config(shape, seed);
        let pool_cfg = PoolConfig {
            payload_bytes: node_cfg.payload_bytes(),
            capacity: node_cfg.pmem_capacity,
        };
        let local_node = || {
            let store: Arc<dyn StorageBackend> =
                Arc::new(LocalPmem::create(pool_cfg, &mut Cost::new()));
            seams.engine(PsNode::with_storage(node_cfg.clone(), seams.storage(store)))
        };
        match shape.topology {
            Topology::Wire => {
                let engine = Arc::new(local_node());
                let (client_t, server_t) = loopback(8);
                let server = PsServer::spawn(engine.clone(), server_t, 1);
                // A generous deadline: on a busy 2-core host a 250 ms
                // default would turn scheduler hiccups into retries.
                let net = NetConfig::paper_default().with_deadline(Some(Duration::from_secs(30)));
                let remote = RemotePs::try_connect(seams.transport(client_t), net)?;
                let client_registry = Some(remote.registry());
                Ok(Stack {
                    client: seams.client(Box::new(remote), true),
                    engines: Engines::Single(engine),
                    server: Some(server),
                    client_registry,
                    pool: None,
                    node_cfg,
                })
            }
            Topology::Pool => {
                let shared = SharedPool::new(FabricConfig::default());
                let nodes = (0..POOL_NODES as u64)
                    .map(|id| {
                        let part = shared.create_partition(id, pool_cfg, &mut Cost::new());
                        seams.engine(PsNode::with_storage(
                            node_cfg.clone(),
                            seams.storage(Arc::new(part)),
                        ))
                    })
                    .collect();
                let cluster = Arc::new(PlacedCluster::new(nodes));
                Ok(Stack {
                    client: seams.client(Box::new(EngineClient::new(cluster.clone())), false),
                    engines: Engines::Cluster(cluster),
                    server: None,
                    client_registry: None,
                    pool: Some(shared),
                    node_cfg,
                })
            }
            Topology::Local => {
                let engine = Arc::new(local_node());
                Ok(Stack {
                    client: seams.client(Box::new(EngineClient::new(engine.clone())), false),
                    engines: Engines::Single(engine),
                    server: None,
                    client_registry: None,
                    pool: None,
                    node_cfg,
                })
            }
        }
    }

    /// The node whose partition is published, served and recovered.
    pub fn node0(&self) -> &PsNode {
        match &self.engines {
            Engines::Single(e) => e.as_node(),
            Engines::Cluster(c) => c.node(0).as_node(),
        }
    }

    /// Whether node 0 owns `key` (always, outside the pool topology).
    pub fn on_node0(&self, key: Key) -> bool {
        match &self.engines {
            Engines::Single(_) => true,
            Engines::Cluster(c) => c.node_of(key) == 0,
        }
    }

    fn engine(&self) -> &dyn PsEngine {
        match &self.engines {
            Engines::Single(e) => &**e,
            Engines::Cluster(c) => &**c,
        }
    }

    /// In-process diagnostic read: not a measured path.
    pub fn read_weights(&self, key: Key) -> Option<Vec<f32>> {
        self.engine().read_weights(key)
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.engine().stats()
    }

    pub fn coherence(&self) -> Option<&dyn CoherenceSource> {
        match &self.engines {
            Engines::Single(_) => None,
            Engines::Cluster(c) => Some(&**c),
        }
    }

    /// `(placement epoch, migrations)` of the cluster, if there is one.
    pub fn cluster_state(&self) -> Option<(u64, u64)> {
        match &self.engines {
            Engines::Single(_) => None,
            Engines::Cluster(c) => Some((c.placement_epoch(), c.migration_stats().migrations)),
        }
    }

    pub fn pool_attached(&self) -> u32 {
        self.pool.as_ref().map_or(0, |p| p.attached())
    }

    /// `client_rpc_retries_total` of the wire client (0 without a wire).
    pub fn client_retries(&self) -> u64 {
        self.client_registry
            .as_ref()
            .and_then(|r| r.snapshot().counter("client_rpc_retries_total"))
            .unwrap_or(0)
    }

    /// `(replay hits, decode errors)` of the server (0 without one).
    pub fn server_counters(&self) -> (u64, u64) {
        let Some(server) = &self.server else {
            return (0, 0);
        };
        let snap = server.registry().snapshot();
        (
            snap.counter("rpc_replay_hits_total").unwrap_or(0),
            snap.counter("rpc_decode_errors_total").unwrap_or(0),
        )
    }

    /// Disconnect the client and wait for the server's workers to exit.
    pub fn shutdown(self) {
        let Stack { client, server, .. } = self;
        drop(client);
        if let Some(server) = server {
            server.join();
        }
    }
}
