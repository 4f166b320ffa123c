//! The flat LSH index against the index it replaced.
//!
//! [`Oracle`] is the retired algorithm, kept here as the reference: one
//! `HashMap<u32, Vec<u32>>` per table, a plane-at-a-time `dot`, a
//! `seen` vector, and a full sort of every scored candidate. The index
//! in `src/ann.rs` must return the same candidate sets, the same
//! `Vec<TopK>` to the bit, and the same `Cost`, on every shape the
//! kernel, the CSR, the bitmap and the bounded selection have an edge
//! at — and on the inputs the scoring sketch's bound has an edge at:
//! magnitudes near overflow and underflow, subnormal and non-finite
//! values, zeros and exact ties.

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
    check_with("", image, dim, cfg, &[]);
}

/// [`check`] on the table called `name`, with `extra` queries after
/// the standard ones.
fn check_with(name: &str, image: &CrashImage, dim: usize, cfg: &AnnConfig, extra: &[Vec<f32>]) {
    let snap = Snapshot::build(image.clone(), dim, Some(cfg)).expect("snapshot");
    let index = snap.ann_index().expect("index");
    let oracle = Oracle::build(&snap, cfg);
    let n = snap.num_keys();
    let what = format!("{name} {} dim {dim} rows {n}", cfg.label());

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
    queries.extend_from_slice(extra);
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

/// An image of exactly `rows`, under keys that do not ascend with the
/// slot order.
fn image_of(rows: &[Vec<f32>], dim: usize) -> CrashImage {
    let media = Arc::new(Media::new(MediaConfig::pmem(
        rows.len() * (dim * 4 + 64) + 4096,
    )));
    let mut cost = Cost::new();
    let pool = PmemPool::create_on(Arc::clone(&media), dim * 4, &mut cost);
    for (i, row) in rows.iter().enumerate() {
        let id = pool.alloc(&mut cost);
        pool.write_slot(id, splitmix64(i as u64) >> 8, 1, row, &mut cost);
    }
    pool.set_checkpoint_id(1, &mut cost);
    media.crash(1)
}

/// Row `i` of a `dim`-wide table drawn from `seed`, each component
/// scaled by `scale(i, d)`.
fn rows(count: usize, dim: usize, seed: u64, scale: impl Fn(u64, usize) -> f32) -> Vec<Vec<f32>> {
    (0..count as u64)
        .map(|i| {
            (0..dim)
                .map(|d| unit(seed ^ (i * 1_009 + d as u64)) * scale(i, d))
                .collect()
        })
        .collect()
}

/// Tables whose rows sit where the sketch's bound has an edge.
fn adversarial_tables(dim: usize) -> Vec<(&'static str, Vec<Vec<f32>>)> {
    let pick = |x: u64| splitmix64(x) % 8;
    // Components of 1e30 and 1e-30 side by side, and whole rows of each.
    let mixed = rows(160, dim, 1, |i, d| match pick(i << 20 | d as u64) {
        0..=2 => 1e30,
        3..=5 => 1e-30,
        _ if i % 3 == 0 => 1e30,
        _ => 1e-30,
    });
    // Products that underflow into and below the subnormals, and rows
    // of subnormals only.
    let tiny = rows(160, dim, 2, |i, _| match i % 4 {
        0 => 1e-20,
        1 => 1e-24,
        2 => 1e-41,
        _ => 1.0,
    });
    let subnormal = rows(120, dim, 3, |_, _| 1e-39);
    // Products near and past f32::MAX.
    let huge = rows(160, dim, 4, |i, _| [1e15, 1e18, 1e19, 1e20][i as usize % 4]);
    // Non-finite components, all-zero rows of both signs.
    let mut specials = rows(200, dim, 5, |_, _| 1.0);
    for (i, row) in specials.iter_mut().enumerate() {
        match i % 10 {
            0 => row[i % dim] = f32::INFINITY,
            1 => row[i % dim] = f32::NEG_INFINITY,
            2 => row[i % dim] = f32::NAN,
            3 => row.fill(0.0),
            4 => row.fill(-0.0),
            _ => {}
        }
    }
    // Many duplicates, so the k-th score is tied many ways.
    let mut ties = rows(200, dim, 6, |_, _| 1.0);
    for i in (0..ties.len()).filter(|i| i % 3 != 0) {
        ties[i] = ties[[0, 3][i % 2]].clone();
    }
    // The bound's tightest case: a row equal to the query with every
    // component but the largest just under a half step (code 126,
    // residual +0.4999 on both sides), and rows scoring between the
    // codes' estimate of it plus half the residual allowance and its
    // true score. A bound that allowed less would drop it from the top.
    let near = |x: f32| {
        let mut row = vec![x / 127.0; dim];
        row[0] = 1.0;
        row
    };
    let mut tight: Vec<Vec<f32>> = (0..40).map(|i| near(126.15 + 0.0085 * i as f32)).collect();
    tight.extend((0..10).map(|_| near(126.4999)));
    // Products of 0.55 and 0.2 smallest subnormals, which round to one
    // and to none: a row in the last row's direction scores one
    // subnormal per weight in f32, almost twice its real value, above
    // rows that lose one weight to the rounding.
    let q = 2f32.powi(-75);
    let mut underflow: Vec<Vec<f32>> = (0..40)
        .map(|i| {
            let mut row = vec![1.1 * q; dim];
            row[i % dim] = 0.4 * q;
            row
        })
        .collect();
    underflow.extend([vec![1.1 * q; dim], vec![1.1 * q; dim], vec![q; dim]]);
    vec![
        ("tight", tight),
        ("underflow", underflow),
        ("mixed", mixed),
        ("tiny", tiny),
        ("subnormal", subnormal),
        ("huge", huge),
        ("specials", specials),
        ("ties", ties),
    ]
}

/// Queries at the same edges: rescaled rows, subnormal and huge ones,
/// non-finite components and whole non-finite queries.
fn adversarial_queries(table: &[Vec<f32>], dim: usize) -> Vec<Vec<f32>> {
    let row = &table[1];
    let scaled = |s: f32| row.iter().map(|x| x * s).collect::<Vec<f32>>();
    let with = |at: usize, x: f32| {
        let mut q = table[2].clone();
        q[at % dim] = x;
        q
    };
    let mut queries = vec![
        scaled(1e30),
        scaled(1e-20),
        scaled(1e-38),
        with(0, f32::INFINITY),
        with(dim / 2, f32::NEG_INFINITY),
        with(dim - 1, f32::NAN),
        vec![f32::INFINITY; dim],
        vec![f32::NAN; dim],
        (0..dim).map(|d| unit(0xBAD + d as u64) * 1e-41).collect(),
    ];
    queries.extend(table.iter().step_by(37).chain(table.last()).cloned());
    queries
}

#[test]
fn the_scoring_sketch_changes_no_answer_at_the_edges_of_its_bound() {
    for dim in [1, 7, 33, 64, 300] {
        for (name, table) in adversarial_tables(dim) {
            let image = image_of(&table, dim);
            let queries = adversarial_queries(&table, dim);
            for (t, b, p) in [(4, 8, 2), (8, 8, 6)] {
                check_with(name, &image, dim, &AnnConfig::shaped(t, b, p), &queries);
            }
        }
    }
}
