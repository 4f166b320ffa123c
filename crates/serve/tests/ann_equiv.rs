//! The flat LSH index against the index it replaced.
//!
//! [`Oracle`] is the retired algorithm, kept here as the reference: one
//! `HashMap<u32, Vec<u32>>` per table, a plane-at-a-time `dot`, a
//! `seen` vector, and a full sort of every scored candidate. The index
//! in `src/ann.rs` must return the same candidate sets, the same
//! `Vec<TopK>` to the bit, and the same `Cost`, on every shape the
//! kernel, the CSR, the bitmap and the bounded selection have an edge
//! at.

use oe_core::config::{HASH_PROBE_NS, OPT_FLOP_NS_PER_F32};
use oe_pmem::PmemPool;
use oe_serve::{AnnConfig, ExactScan, LshRetriever, Retriever, Snapshot, TopK};
use oe_simdevice::{Cost, CostKind, CrashImage, DeviceTiming, Media, MediaConfig};
use std::collections::HashMap;
use std::sync::Arc;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(x: u64) -> f32 {
    (splitmix64(x) >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The retired index and both retired retrievers.
struct Oracle<'a> {
    snap: &'a Snapshot,
    cfg: AnnConfig,
    planes: Vec<f32>,
    buckets: Vec<HashMap<u32, Vec<u32>>>,
}

impl<'a> Oracle<'a> {
    fn build(snap: &'a Snapshot, cfg: &AnnConfig) -> Self {
        let planes = (0..cfg.tables * cfg.bits * snap.dim())
            .map(|i| unit(cfg.seed.wrapping_add(i as u64)))
            .collect();
        let mut oracle = Oracle {
            snap,
            cfg: cfg.clone(),
            planes,
            buckets: vec![HashMap::new(); cfg.tables],
        };
        for row in 0..snap.num_keys() as u32 {
            for t in 0..cfg.tables {
                let (sig, _) = oracle.signature(t, snap.row(row));
                oracle.buckets[t].entry(sig).or_default().push(row);
            }
        }
        oracle
    }

    fn signature(&self, t: usize, v: &[f32]) -> (u32, Vec<f32>) {
        let (bits, dim) = (self.cfg.bits, self.snap.dim());
        let mut sig = 0u32;
        let mut margins = Vec::with_capacity(bits);
        for b in 0..bits {
            let start = (t * bits + b) * dim;
            let d = dot(v, &self.planes[start..start + dim]);
            if d >= 0.0 {
                sig |= 1 << b;
            }
            margins.push(d.abs());
        }
        (sig, margins)
    }

    fn candidates(&self, query: &[f32]) -> Vec<u32> {
        let mut seen = vec![false; self.snap.num_keys()];
        let mut out = Vec::new();
        for t in 0..self.cfg.tables {
            let (sig, margins) = self.signature(t, query);
            let mut order: Vec<usize> = (0..self.cfg.bits).collect();
            order.sort_unstable_by(|&a, &b| margins[a].total_cmp(&margins[b]));
            let flips = order
                .iter()
                .take(self.cfg.probes)
                .map(|&bit| sig ^ (1 << bit));
            for probe in std::iter::once(sig).chain(flips) {
                for &row in self.buckets[t].get(&probe).into_iter().flatten() {
                    if !std::mem::replace(&mut seen[row as usize], true) {
                        out.push(row);
                    }
                }
            }
        }
        out
    }

    /// Score `rows`, sort all of them, keep `k`; `cost` already holds
    /// whatever came before the scan.
    fn top_k(&self, rows: Vec<u32>, query: &[f32], k: usize, mut cost: Cost) -> (Vec<TopK>, Cost) {
        let f32s = rows.len() as u64 * self.snap.dim() as u64;
        cost.charge(CostKind::Cpu, f32s * OPT_FLOP_NS_PER_F32);
        DeviceTiming::dram().charge_read(f32s * 4, &mut cost);
        let mut scored: Vec<TopK> = rows
            .into_iter()
            .map(|row| TopK {
                key: self.snap.key_of_row(row),
                score: dot(query, self.snap.row(row)),
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.key.cmp(&b.key)));
        scored.truncate(k);
        (scored, cost)
    }

    fn exact(&self, query: &[f32], k: usize) -> (Vec<TopK>, Cost) {
        let rows = (0..self.snap.num_keys() as u32).collect();
        self.top_k(rows, query, k, Cost::new())
    }

    fn lsh(&self, query: &[f32], k: usize) -> (Vec<TopK>, Cost) {
        let AnnConfig {
            tables,
            bits,
            probes,
            ..
        } = self.cfg;
        let mut cost = Cost::new();
        cost.charge(
            CostKind::Cpu,
            (tables * bits * self.snap.dim()) as u64 * OPT_FLOP_NS_PER_F32
                + (tables * (1 + probes)) as u64 * HASH_PROBE_NS,
        );
        self.top_k(self.candidates(query), query, k, cost)
    }
}

/// `rows` rows of `stride` f32s under keys that do not ascend with the
/// slot order. Every fifth row repeats the row before it under its own
/// key (score ties broken by key); every seventh is all zero.
fn image(rows: usize, stride: usize) -> CrashImage {
    let media = Arc::new(Media::new(MediaConfig::pmem(1 << 16)));
    let mut cost = Cost::new();
    let pool = PmemPool::create_on(Arc::clone(&media), stride * 4, &mut cost);
    let mut payload = vec![0f32; stride];
    for i in 0..rows as u64 {
        if i % 5 != 4 {
            for (d, x) in payload.iter_mut().enumerate() {
                *x = if i % 7 == 3 {
                    0.0
                } else {
                    unit(i * 131 + d as u64)
                };
            }
        }
        let id = pool.alloc(&mut cost);
        let key = splitmix64(i) >> 8;
        pool.write_slot(id, key, 1, &payload, &mut cost);
    }
    pool.set_checkpoint_id(1, &mut cost);
    media.crash(1)
}

fn bits(top: &[TopK]) -> Vec<(u64, u32)> {
    top.iter().map(|t| (t.key, t.score.to_bits())).collect()
}

fn check(image: &CrashImage, dim: usize, cfg: &AnnConfig) {
    let snap = Snapshot::build(image.clone(), dim, Some(cfg)).expect("snapshot");
    let index = snap.ann_index().expect("index");
    let oracle = Oracle::build(&snap, cfg);
    let n = snap.num_keys();
    let what = format!("{} dim {dim} rows {n}", cfg.label());

    let mut queries: Vec<Vec<f32>> = vec![
        vec![0.0; dim],
        vec![-0.0; dim],
        (0..dim).map(|d| unit(0xC0FFEE + d as u64)).collect(),
        (0..dim).map(|d| 3.0 * unit(77 + d as u64)).collect(),
    ];
    for row in [0, 3, 4, n / 2, n.saturating_sub(1)] {
        if row < n {
            queries.push(snap.row(row as u32).to_vec());
        }
    }
    for (qi, query) in queries.iter().enumerate() {
        let mut want = oracle.candidates(query);
        want.sort_unstable();
        let mut got = index.candidates(query);
        got.sort_unstable();
        assert_eq!(got, want, "{what} query {qi}: candidate set");
        for k in [0, 1, 10, want.len() + 5, n + 5] {
            let (want, want_cost) = oracle.lsh(query, k);
            let (got, got_cost) = LshRetriever.top_k(&snap, query, k);
            assert_eq!(bits(&got), bits(&want), "{what} query {qi} k {k}: lsh");
            assert_eq!(got_cost, want_cost, "{what} query {qi} k {k}: lsh cost");
            let (want, want_cost) = oracle.exact(query, k);
            let (got, got_cost) = ExactScan.top_k(&snap, query, k);
            assert_eq!(bits(&got), bits(&want), "{what} query {qi} k {k}: exact");
            assert_eq!(got_cost, want_cost, "{what} query {qi} k {k}: exact cost");
        }
    }
}

const SHAPES: [(usize, usize, usize); 4] = [(1, 1, 0), (4, 8, 2), (8, 8, 6), (3, 16, 16)];

#[test]
fn every_shape_dim_and_row_count_matches_the_retired_index() {
    for dim in [1, 7, 8, 33, 64] {
        for rows in [0, 1, 63, 64, 65, 5_000] {
            let image = image(rows, dim);
            for (t, b, p) in SHAPES {
                check(&image, dim, &AnnConfig::shaped(t, b, p));
            }
        }
    }
}

#[test]
fn a_payload_wider_than_the_served_dim_matches_too() {
    // AdaGrad rows: weights, then one accumulator per weight.
    for (dim, rows) in [(7, 65), (8, 64), (33, 5_000)] {
        let image = image(rows, 2 * dim);
        for (t, b, p) in SHAPES {
            check(&image, dim, &AnnConfig::shaped(t, b, p));
        }
    }
}

#[test]
fn a_snapshot_without_an_index_scans_exactly() {
    let image = image(65, 8);
    let snap = Snapshot::build(image, 8, None).expect("snapshot");
    let oracle = Oracle::build(&snap, &AnnConfig::paper_default());
    let query = snap.row(9).to_vec();
    let (want, want_cost) = oracle.exact(&query, 10);
    let (got, got_cost) = LshRetriever.top_k(&snap, &query, 10);
    assert_eq!(bits(&got), bits(&want));
    assert_eq!(got_cost, want_cost);
}
