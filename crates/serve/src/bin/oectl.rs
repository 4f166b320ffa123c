//! `oectl` — operations CLI for pool snapshot images.
//!
//! ```sh
//! oectl info   <image>          # header + recovery summary
//! oectl scan   <image>          # per-key listing (key, slot, version)
//! oectl verify <image>          # checksum-verify every live slot
//! oectl dump   <image> <key>    # full payload of one key
//! oectl top    <image> <key> k  # top-k nearest items to <key>'s embedding
//!                               # (--ann scores through the LSH index)
//! oectl metrics <image>         # replay a smoke workload, print telemetry
//! ```
//!
//! Images are produced with `oe_serve::save_image` (see the quickstart
//! example) — a checkpointed pool's persistence-domain bytes.

use oe_pmem::scan::recover;
use oe_pmem::{PmemPool, ScanReport, ROOT_BYTES};
use oe_serve::{load_image, AnnConfig, ExactScan, LshRetriever, Retriever, ServingNode, Snapshot};
use oe_simdevice::{Cost, CrashImage, Media};
use std::path::Path;
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  oectl info    <image>\n  oectl scan    <image> [limit]\n  oectl verify  <image>\n  oectl dump    <image> <key>\n  oectl top     <image> <key> [k] [--ann]\n  oectl metrics <image> [batches]"
    );
    exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let ann = args.iter().any(|a| a == "--ann");
    args.retain(|a| a != "--ann");
    let (cmd, path) = match (args.first(), args.get(1)) {
        (Some(c), Some(p)) => (c.as_str(), Path::new(p)),
        _ => usage(),
    };
    let image =
        load_image(path).unwrap_or_else(|e| die(format!("cannot load {}: {e}", path.display())));

    let mut cost = Cost::new();
    match cmd {
        "info" => {
            let (pool, report) = recover_or_exit(Media::from_crash(image), &mut cost);
            println!("image          : {}", path.display());
            println!("pool           : {}", pool.describe());
            println!("checkpoint     : batch {}", report.checkpoint_id);
            println!("live entries   : {}", report.live.len());
            println!(
                "discarded      : {} future, {} stale",
                report.discarded_future, report.discarded_stale
            );
            println!("corrupt slots  : {}", report.corrupt);
            println!("scan footprint : {:.2} MB", report.scan_bytes as f64 / 1e6);
            println!("recovery cost  : {cost}");
        }
        "scan" => {
            let limit: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(50);
            let (_pool, report) = recover_or_exit(Media::from_crash(image), &mut cost);
            println!("{:<16} {:<10} {:<10}", "key", "slot", "version");
            for r in report.live.iter().take(limit) {
                println!("{:<16} {:<10} {:<10}", r.key, r.id.0, r.version);
            }
            if report.live.len() > limit {
                println!(
                    "… {} more (pass a limit to see them)",
                    report.live.len() - limit
                );
            }
        }
        "verify" => {
            let (pool, report) = recover_or_exit(Media::from_crash(image), &mut cost);
            let mut payload = vec![0f32; pool.payload_f32s()];
            let mut ok = 0u64;
            let mut bad = 0u64;
            for r in &report.live {
                match pool.read_slot(r.id, &mut payload, &mut cost) {
                    Some(h) if h.key == r.key && h.version == r.version => ok += 1,
                    _ => {
                        bad += 1;
                        eprintln!("BAD slot {} (key {})", r.id.0, r.key);
                    }
                }
            }
            println!("verified {ok} entries, {bad} bad");
            if bad > 0 {
                exit(1);
            }
        }
        "dump" => {
            let key: u64 = args
                .get(2)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage());
            let node = open_serving(image, false);
            let (payload, c) = node.snapshot().payload(key);
            cost.merge(&c);
            match payload {
                Some(p) => {
                    println!("key {key} @ checkpoint {}", node.checkpoint());
                    println!("weights : {:?}", &p[..node.dim().min(p.len())]);
                    if p.len() > node.dim() {
                        println!("opt state: {:?}", &p[node.dim()..]);
                    }
                }
                None => die(format!("key {key} not found")),
            }
        }
        "top" => {
            let key: u64 = args
                .get(2)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage());
            let k: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(10);
            let node = open_serving(image, ann);
            // The query is a borrow into the snapshot arena — no copy.
            let (query, c) = node.snapshot().lookup(key);
            cost.merge(&c);
            let Some(query) = query else {
                die(format!("key {key} not found"))
            };
            let retriever: &dyn Retriever = if ann { &LshRetriever } else { &ExactScan };
            let (top, c) = node.retrieve(query, k, retriever);
            cost.merge(&c);
            println!(
                "top-{k} items by dot product with key {key} ({}):",
                retriever.name()
            );
            for t in top {
                println!("  key {:<12} score {:+.6}", t.key, t.score);
            }
        }
        "metrics" => {
            let batches: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3);
            metrics(image, batches, &mut cost);
        }
        _ => usage(),
    }
}

/// Recover the image into a full training node, replay a smoke workload
/// against it through the RPC stack, and print the combined telemetry
/// exposition (server registry + engine registry). This exercises every
/// recording path end to end: rpc decode/execute spans, pull/push/
/// maintain/flush/checkpoint histograms, and the engine counters.
fn metrics(image: CrashImage, batches: u64, cost: &mut Cost) {
    use oe_core::recovery::recover_node;
    use oe_core::{NodeConfig, OptimizerKind, PsEngine};
    use oe_net::{loopback, NetConfig, PsClient, PsServer, RemotePs};

    let media = Arc::new(Media::from_crash(image));
    let (pool, report) = recover_or_exit(Arc::clone(&media), cost);
    // Infer the training layout from the payload width: AdaGrad stores
    // one accumulator per weight (payload = 2 * dim), SGD stores none.
    let payload = pool.payload_f32s();
    let cfg = if payload % 2 == 0 {
        NodeConfig::small(payload / 2)
    } else {
        let mut c = NodeConfig::small(payload);
        c.optimizer = OptimizerKind::Sgd { lr: 0.05 };
        c
    };
    drop(pool);
    let keys: Vec<u64> = report.live.iter().map(|r| r.key).collect();
    if keys.is_empty() {
        die("image holds no live entries, nothing to replay");
    }
    let resume = report.checkpoint_id;
    let Some((node, _)) = recover_node(media, cfg.clone(), cost) else {
        die("recovery failed")
    };

    let engine: Arc<dyn PsEngine> = Arc::new(node);
    let (client_t, server_t) = loopback(64);
    let handle = PsServer::spawn(engine, server_t, 2);
    let remote = RemotePs::try_connect(Arc::new(client_t), NetConfig::paper_default());
    let remote = rpc_or_exit("connect", remote);

    let grads = vec![0.0f32; keys.len() * cfg.dim];
    let mut out = Vec::new();
    let last = resume + batches;
    for b in resume + 1..=last {
        out.clear();
        rpc_or_exit("pull", remote.pull_batch(&keys, b, &mut out, cost));
        rpc_or_exit("flush", remote.flush_batch(b));
        // Zero gradients: the replay must not perturb the model.
        rpc_or_exit("push", remote.push_batch(&keys, &grads, b, cost));
    }
    rpc_or_exit("checkpoint", remote.checkpoint(last));
    out.clear();
    rpc_or_exit("pull", remote.pull_batch(&keys, last + 1, &mut out, cost));
    rpc_or_exit("flush", remote.flush_batch(last + 1));

    print!("{}", rpc_or_exit("metrics", remote.metrics()));
    drop(remote);
    handle.join();
}

/// Print `oectl: <msg>` and exit 1.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("oectl: {msg}");
    exit(1)
}

/// Unwrap an RPC result, or exit naming the RPC and its `ErrorKind`.
fn rpc_or_exit<T>(rpc: &str, r: Result<T, oe_net::Error>) -> T {
    r.unwrap_or_else(|e| die(format!("{rpc}: {:?}: {e}", e.kind())))
}

/// Recover the pool on `media`, or exit saying in words why it cannot
/// be: no pool at all, or a pool of another format version.
fn recover_or_exit(media: impl Into<Arc<Media>>, cost: &mut Cost) -> (PmemPool, ScanReport) {
    let media = media.into();
    recover(Arc::clone(&media), cost).unwrap_or_else(|| die(PmemPool::refusal(&media)))
}

fn open_serving(image: CrashImage, ann: bool) -> ServingNode {
    // The image does not say where the weights end and optimizer state
    // begins, so the whole payload is served as the embedding (`dump`
    // prints it all). Its width is in the root line, the only part of
    // the image read before the snapshot decode.
    let root = &image.bytes()[..image.bytes().len().min(ROOT_BYTES as usize)];
    let root = CrashImage::from_parts(root.to_vec(), image.device());
    let media = Arc::new(Media::from_crash(root));
    let pool = PmemPool::open(Arc::clone(&media), &mut Cost::new())
        .unwrap_or_else(|| die(PmemPool::refusal(&media)));
    let cfg = AnnConfig::paper_default();
    let snapshot = Snapshot::build(image, pool.payload_f32s(), ann.then_some(&cfg))
        .unwrap_or_else(|| die("no initialized pool in image"));
    ServingNode::from_snapshot(Arc::new(snapshot))
}
