//! Approximate nearest-neighbor candidate retrieval over snapshot rows.
//!
//! Serving answers "nearest items for this user", not only point
//! lookups. The [`Retriever`] trait abstracts the candidate-generation
//! strategy over an immutable [`Snapshot`]; two arms ship:
//!
//! - [`ExactScan`] — the reference arm: dot-product over every row,
//!   exact by construction, `O(n·dim)` per query;
//! - [`LshRetriever`] — random-hyperplane LSH: a per-snapshot
//!   [`LshIndex`] (built at flip time, immutable like everything else
//!   in the snapshot) buckets rows by sign-signature in several hash
//!   tables; a query probes its own bucket plus the lowest-margin
//!   single-bit flips (multiprobe), then scores only the candidates
//!   exactly. Sub-linear candidate fractions buy the latency win; the
//!   recall floor is pinned by `crates/serve/tests/ann_recall.rs`.
//!
//! Both arms return `(Vec<TopK>, Cost)` — the unified serve-path cost
//! convention — and order ties deterministically by `(score desc, key
//! asc)` so exact-vs-ANN recall comparisons are reproducible.

use crate::snapshot_handle::Snapshot;
use oe_core::config::{HASH_PROBE_NS, OPT_FLOP_NS_PER_F32};
use oe_simdevice::rng::splitmix64;
use oe_simdevice::{Cost, CostKind, DeviceTiming};
use std::cell::RefCell;

/// A scored recommendation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopK {
    /// Item key.
    pub key: u64,
    /// Dot-product score against the query embedding.
    pub score: f32,
}

/// Candidate-retrieval strategy over a snapshot.
pub trait Retriever: Send + Sync {
    /// Stable arm name (bench/report label).
    fn name(&self) -> &'static str;

    /// The top `k` rows by dot product with `query`, highest first,
    /// ties broken by ascending key, plus the retrieval's virtual cost.
    fn top_k(&self, snap: &Snapshot, query: &[f32], k: usize) -> (Vec<TopK>, Cost);
}

/// Score `row` and keep it if it is among the best `k` seen, `top`
/// staying sorted best first. The order — score descending, then key
/// ascending — is total and keys are distinct, so the outcome does not
/// depend on the order rows arrive in.
fn keep_best(top: &mut Vec<TopK>, k: usize, snap: &Snapshot, query: &[f32], row: u32) {
    let before = |a: &TopK, b: &TopK| {
        let by_score = b.score.total_cmp(&a.score);
        by_score.then_with(|| a.key.cmp(&b.key)).is_lt()
    };
    let cand = TopK {
        key: snap.key_of_row(row),
        score: dot(query, snap.row(row)),
    };
    if top.len() == k {
        if !top.last().is_some_and(|worst| before(&cand, worst)) {
            return;
        }
        top.pop();
    }
    top.insert(top.partition_point(|t| before(t, &cand)), cand);
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Charge the virtual cost of scoring `rows` candidate rows of width
/// `dim`: one fused multiply-add lane per f32 plus the DRAM traffic of
/// streaming the rows through the scorer.
fn charge_scan(cost: &mut Cost, rows: usize, dim: usize) {
    cost.charge(
        CostKind::Cpu,
        rows as u64 * dim as u64 * OPT_FLOP_NS_PER_F32,
    );
    DeviceTiming::dram().charge_read(rows as u64 * dim as u64 * 4, cost);
}

/// The reference arm: exact dot-product scan over every row.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExactScan;

impl Retriever for ExactScan {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn top_k(&self, snap: &Snapshot, query: &[f32], k: usize) -> (Vec<TopK>, Cost) {
        assert_eq!(query.len(), snap.dim(), "query dim mismatch");
        let mut cost = Cost::new();
        let n = snap.num_keys();
        charge_scan(&mut cost, n, snap.dim());
        let k = k.min(n);
        let mut top = Vec::with_capacity(k);
        for row in 0..n as u32 {
            keep_best(&mut top, k, snap, query, row);
        }
        (top, cost)
    }
}

/// Random-hyperplane LSH shape: `tables` independent hash tables of
/// `bits`-bit sign signatures, probing the home bucket plus the
/// `probes` lowest-margin single-bit flips per table.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnConfig {
    /// Independent hash tables (more tables → higher recall).
    pub tables: usize,
    /// Signature bits per table (more bits → smaller buckets; at most
    /// 16 — every table stores `2^bits + 1` bucket offsets).
    pub bits: usize,
    /// Extra buckets probed per table (lowest-|margin| bit flips).
    pub probes: usize,
    /// Hyperplane seed; the index is a pure function of
    /// `(rows, config)`.
    pub seed: u64,
}

impl AnnConfig {
    /// Default shape: comfortably above the 0.9 recall@10 floor on the
    /// skewed workload while scoring a sub-linear candidate fraction.
    pub fn paper_default() -> Self {
        Self {
            tables: 8,
            bits: 8,
            probes: 6,
            seed: 0x0A11,
        }
    }

    /// A `t`×`b` shape with `p` probes (bench sweeps).
    pub fn shaped(tables: usize, bits: usize, probes: usize) -> Self {
        Self {
            tables,
            bits,
            probes,
            ..Self::paper_default()
        }
    }

    /// Bench/report label, e.g. `lsh-8x8p6`.
    pub fn label(&self) -> String {
        format!("lsh-{}x{}p{}", self.tables, self.bits, self.probes)
    }
}

/// Uniform in [-1, 1) from a seed word: hyperplane components are a
/// pure function of `(seed, table, bit, dim)`, no generator state.
fn unit(x: u64) -> f32 {
    (splitmix64(x) >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
}

/// Planes projected onto together: one block's running dots stay in
/// registers for the whole pass over a vector.
const PLANE_BLOCK: usize = 16;

thread_local! {
    /// Query scratch, reused across queries: the candidate bitmap (one
    /// bit per row) and the query's plane dots.
    static SCRATCH: RefCell<(Vec<u64>, Vec<f32>)> = RefCell::default();
}

/// Per-snapshot LSH index: immutable, built at flip time, owned by the
/// snapshot it indexes. Flat arrays only: the hyperplanes in kernel
/// order and one CSR of buckets.
pub struct LshIndex {
    config: AnnConfig,
    dim: usize,
    rows: usize,
    /// Plane `p = t × bits + b`, padded with zero planes to whole
    /// blocks of [`PLANE_BLOCK`]; block-major, then dim-major: component
    /// `d` of the block's `l`-th plane is at `(block × dim + d) ×
    /// PLANE_BLOCK + l`.
    planes: Vec<f32>,
    /// `tables × (2^bits + 1)` offsets into `bucket_rows`: the bucket
    /// of signature `s` in table `t` is
    /// `offsets[t × (2^bits + 1) + s] .. offsets[t × (2^bits + 1) + s + 1]`.
    offsets: Vec<u32>,
    /// `tables × rows` row ids, ascending within a bucket.
    bucket_rows: Vec<u32>,
}

impl LshIndex {
    /// Build over a row arena (`rows.len() == keys.len() ×
    /// payload_f32s`; only the `dim` weight prefix of each row is
    /// hashed). Returns the index and its build cost — charged to the
    /// snapshot build, not to queries.
    pub fn build(
        rows: &[f32],
        keys: &[u64],
        dim: usize,
        payload_f32s: usize,
        config: &AnnConfig,
    ) -> (Self, Cost) {
        let (tables, bits) = (config.tables, config.bits);
        assert!(tables >= 1 && (1..=16).contains(&bits) && dim >= 1);
        assert!(config.probes <= bits);
        let n = keys.len();
        assert!(n.saturating_mul(tables) < u32::MAX as usize);
        let per_table = (1 << bits) + 1;
        let blocks = (tables * bits).div_ceil(PLANE_BLOCK);
        let mut planes = vec![0f32; blocks * dim * PLANE_BLOCK];
        for p in 0..tables * bits {
            for d in 0..dim {
                planes[(p / PLANE_BLOCK * dim + d) * PLANE_BLOCK + p % PLANE_BLOCK] =
                    unit(config.seed.wrapping_add((p * dim + d) as u64));
            }
        }
        let mut index = Self {
            config: config.clone(),
            dim,
            rows: n,
            planes,
            offsets: vec![0; tables * per_table],
            bucket_rows: vec![0; tables * n],
        };

        // Counting sort of rows by (table, signature). A bucket's count
        // sits one past its signature, so the running sum over the whole
        // array leaves every bucket's start in place (each table's first
        // offset counts nothing and lands on `t × n`).
        let mut dots = vec![0f32; blocks * PLANE_BLOCK];
        let mut sigs = vec![0u16; n * tables];
        for (v, sigs) in rows
            .chunks_exact(payload_f32s)
            .zip(sigs.chunks_exact_mut(tables))
        {
            index.project(&v[..dim], &mut dots);
            for (t, sig) in sigs.iter_mut().enumerate() {
                *sig = signature(&dots[t * bits..][..bits]) as u16;
                index.offsets[t * per_table + *sig as usize + 1] += 1;
            }
        }
        let mut total = 0;
        for offset in &mut index.offsets {
            total += *offset;
            *offset = total;
        }
        // Rows are placed in ascending order, so every bucket ascends.
        let mut next = index.offsets.clone();
        for (row, sigs) in sigs.chunks_exact(tables).enumerate() {
            for (t, &sig) in sigs.iter().enumerate() {
                let at = &mut next[t * per_table + sig as usize];
                index.bucket_rows[*at as usize] = row as u32;
                *at += 1;
            }
        }

        // Hashing every row through every table is the build bill.
        let mut cost = Cost::new();
        cost.charge(
            CostKind::Cpu,
            (n * tables * bits * dim) as u64 * OPT_FLOP_NS_PER_F32,
        );
        DeviceTiming::dram().charge_read((n * dim * 4) as u64, &mut cost);
        (index, cost)
    }

    /// The shape this index was built with.
    pub fn config(&self) -> &AnnConfig {
        &self.config
    }

    /// Rows indexed.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Dot of `v` with every plane, into `dots` (plane `p` at `dots[p]`).
    /// Each plane's sum runs over `d = 0, 1, …` from `-0.0`, exactly as
    /// [`dot`] sums it; the planes of a block advance side by side, which
    /// is what lets the inner loop vectorise without reassociating.
    fn project(&self, v: &[f32], dots: &mut [f32]) {
        let blocks = self.planes.chunks_exact(self.dim * PLANE_BLOCK);
        for (block, out) in blocks.zip(dots.chunks_exact_mut(PLANE_BLOCK)) {
            let mut acc = [-0.0f32; PLANE_BLOCK];
            for (x, w) in v.iter().zip(block.chunks_exact(PLANE_BLOCK)) {
                for (a, w) in acc.iter_mut().zip(w) {
                    *a += x * w;
                }
            }
            out.copy_from_slice(&acc);
        }
    }

    /// Call `visit` with every candidate row of `query`, ascending and
    /// once each: per table, the home bucket plus the `probes`
    /// single-bit flips of lowest `(margin, bit)`, merged in a bitmap.
    fn for_each_candidate(&self, query: &[f32], mut visit: impl FnMut(u32)) {
        assert_eq!(query.len(), self.dim, "query dim mismatch");
        let (tables, bits) = (self.config.tables, self.config.bits);
        let per_table = (1 << bits) + 1;
        SCRATCH.with_borrow_mut(|(bitmap, dots)| {
            bitmap.clear();
            bitmap.resize(self.rows.div_ceil(64), 0);
            dots.resize(self.planes.len() / self.dim, 0.0);
            self.project(query, dots);
            for t in 0..tables {
                let dots = &dots[t * bits..][..bits];
                let home = signature(dots);
                let mut mark = |sig: u32| {
                    let at = t * per_table + sig as usize;
                    let bucket = self.offsets[at] as usize..self.offsets[at + 1] as usize;
                    for &row in &self.bucket_rows[bucket] {
                        bitmap[row as usize / 64] |= 1 << (row % 64);
                    }
                };
                mark(home);
                // Multiprobe: flip the bits the query was least sure about.
                let mut flipped = 0u32;
                for _ in 0..self.config.probes {
                    let bit = (0..bits)
                        .filter(|b| flipped >> b & 1 == 0)
                        .min_by(|&a, &b| dots[a].abs().total_cmp(&dots[b].abs()))
                        .expect("probes ≤ bits");
                    flipped |= 1 << bit;
                    mark(home ^ (1 << bit));
                }
            }
            for (w, &word) in bitmap.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    visit(w as u32 * 64 + rest.trailing_zeros());
                    rest &= rest - 1;
                }
            }
        })
    }

    /// Candidate row ids for `query`, ascending: home bucket plus the
    /// `probes` lowest-margin single-bit flips, per table, deduplicated.
    /// Deterministic for a given `(index, query)`.
    pub fn candidates(&self, query: &[f32]) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_candidate(query, |row| out.push(row));
        out
    }

    /// Virtual cost of hashing one query through every table.
    fn probe_cost(&self) -> Cost {
        let mut cost = Cost::new();
        cost.charge(
            CostKind::Cpu,
            (self.config.tables * self.config.bits * self.dim) as u64 * OPT_FLOP_NS_PER_F32
                + (self.config.tables * (1 + self.config.probes)) as u64 * HASH_PROBE_NS,
        );
        cost
    }
}

/// Sign signature of one table's plane dots: bit `b` is set when
/// `dots[b] ≥ 0`.
fn signature(dots: &[f32]) -> u32 {
    dots.iter()
        .enumerate()
        .fold(0, |sig, (b, &d)| sig | u32::from(d >= 0.0) << b)
}

impl std::fmt::Debug for LshIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LshIndex")
            .field("config", &self.config)
            .field("rows", &self.rows)
            .finish()
    }
}

/// The ANN arm: retrieves through the snapshot's [`LshIndex`]. A
/// snapshot built without an index degrades to [`ExactScan`] (the
/// reference arm is always safe) — benches and tests pin the index
/// present.
#[derive(Debug, Default, Clone, Copy)]
pub struct LshRetriever;

impl Retriever for LshRetriever {
    fn name(&self) -> &'static str {
        "lsh"
    }

    fn top_k(&self, snap: &Snapshot, query: &[f32], k: usize) -> (Vec<TopK>, Cost) {
        let Some(index) = snap.ann_index() else {
            return ExactScan.top_k(snap, query, k);
        };
        let mut cost = index.probe_cost();
        let k = k.min(snap.num_keys());
        let mut top = Vec::with_capacity(k);
        let mut scored = 0;
        index.for_each_candidate(query, |row| {
            scored += 1;
            keep_best(&mut top, k, snap, query, row);
        });
        charge_scan(&mut cost, scored, snap.dim());
        (top, cost)
    }
}

/// Recall@k of `approx` against ground-truth `exact` (both top-k key
/// lists): the fraction of exact keys the approximate arm recovered.
pub fn recall_at_k(exact: &[TopK], approx: &[TopK]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hits = exact
        .iter()
        .filter(|e| approx.iter().any(|a| a.key == e.key))
        .count();
    hits as f64 / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_pmem::PmemPool;
    use oe_simdevice::{Media, MediaConfig};
    use std::sync::Arc;

    const DIM: usize = 8;

    /// Deterministic pseudo-random embeddings with enough geometry for
    /// LSH to be meaningful.
    fn snapshot(n: u64, ann: Option<&AnnConfig>) -> Snapshot {
        let media = Arc::new(Media::new(MediaConfig::pmem(4 << 20)));
        let mut cost = Cost::new();
        let pool = PmemPool::create_on(Arc::clone(&media), DIM * 4, &mut cost);
        for key in 0..n {
            let id = pool.alloc(&mut cost);
            let mut payload: Vec<f32> = (0..DIM)
                .map(|d| unit(key.wrapping_mul(31).wrapping_add(d as u64 * 7)))
                .collect();
            // Unit-normalize so self-dot = 1.0 is the exact maximum
            // (Cauchy-Schwarz) — makes ground truth unambiguous.
            let norm = payload.iter().map(|x| x * x).sum::<f32>().sqrt();
            payload.iter_mut().for_each(|x| *x /= norm);
            pool.write_slot(id, key, 1, &payload, &mut cost);
        }
        pool.set_checkpoint_id(1, &mut cost);
        Snapshot::build(media.crash(7), DIM, ann).expect("build")
    }

    #[test]
    fn exact_scan_ranks_self_first() {
        let snap = snapshot(200, None);
        let (query, _) = snap.lookup(42);
        let query = query.unwrap().to_vec();
        let (top, cost) = ExactScan.top_k(&snap, &query, 5);
        assert_eq!(top.len(), 5);
        assert_eq!(top[0].key, 42, "self-similarity wins: {top:?}");
        assert!(top.windows(2).all(|w| w[0].score >= w[1].score));
        assert!(cost.total_ns() > 0);
    }

    #[test]
    fn lsh_candidates_are_sublinear_and_deterministic() {
        let cfg = AnnConfig::paper_default();
        let snap = snapshot(1_000, Some(&cfg));
        let index = snap.ann_index().expect("index built at flip time");
        assert_eq!(index.num_rows(), 1_000);
        let (query, _) = snap.lookup(17);
        let query = query.unwrap().to_vec();
        let c1 = index.candidates(&query);
        let c2 = index.candidates(&query);
        assert_eq!(c1, c2, "pure function of (index, query)");
        assert!(
            c1.len() < 1_000,
            "candidate set must be sublinear: {}",
            c1.len()
        );
        assert!(!c1.is_empty(), "home bucket holds at least the query row");
    }

    #[test]
    fn lsh_recall_beats_floor_and_costs_less_than_exact() {
        let cfg = AnnConfig::paper_default();
        let snap = snapshot(2_000, Some(&cfg));
        let mut recalls = Vec::new();
        let mut exact_ns = 0u64;
        let mut ann_ns = 0u64;
        for key in (0..2_000u64).step_by(97) {
            let query = snap.lookup(key).0.unwrap().to_vec();
            let (exact, ce) = ExactScan.top_k(&snap, &query, 10);
            let (approx, ca) = LshRetriever.top_k(&snap, &query, 10);
            recalls.push(recall_at_k(&exact, &approx));
            exact_ns += ce.total_ns();
            ann_ns += ca.total_ns();
        }
        let mean = recalls.iter().sum::<f64>() / recalls.len() as f64;
        assert!(mean >= 0.9, "mean recall@10 = {mean:.3}");
        assert!(
            ann_ns < exact_ns,
            "ANN virtual cost must beat the exact scan: {ann_ns} vs {exact_ns}"
        );
    }

    #[test]
    fn lsh_without_index_degrades_to_exact() {
        let snap = snapshot(100, None);
        let query = snap.lookup(3).0.unwrap().to_vec();
        let (exact, _) = ExactScan.top_k(&snap, &query, 7);
        let (fallback, _) = LshRetriever.top_k(&snap, &query, 7);
        assert_eq!(exact, fallback);
    }

    #[test]
    fn recall_helper_counts_overlap() {
        let mk = |keys: &[u64]| -> Vec<TopK> {
            keys.iter().map(|&key| TopK { key, score: 0.0 }).collect()
        };
        assert_eq!(recall_at_k(&mk(&[1, 2, 3, 4]), &mk(&[1, 2, 9, 4])), 0.75);
        assert_eq!(recall_at_k(&mk(&[]), &mk(&[1])), 1.0);
    }
}
