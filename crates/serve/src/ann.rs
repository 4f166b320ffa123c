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
//!   recall floor is pinned by `crates/serve/tests/ann_recall.rs`. An
//!   `i8` scoring sketch built with the index bounds every candidate's
//!   score from 1 byte per weight, so only the rows that can still
//!   enter the top `k` are read and scored exactly.
//!
//! Both arms return `(Vec<TopK>, Cost)` — the unified serve-path cost
//! convention — and order ties deterministically by `(score desc, key
//! asc)` so exact-vs-ANN recall comparisons are reproducible.

use crate::snapshot_handle::Snapshot;
use oe_core::config::{HASH_PROBE_NS, OPT_FLOP_NS_PER_F32};
use oe_simdevice::rng::splitmix64;
use oe_simdevice::{Cost, CostKind, DeviceTiming};
use std::cell::RefCell;
use std::cmp::Ordering;

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
        if query.len() != snap.dim() {
            return (Vec::new(), Cost::new());
        }
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

/// Codes per sketch lane block: a row's codes are zero-padded to whole
/// blocks, so the code dot runs without a tail and vectorises.
const LANES: usize = 16;

/// `1.5 · 2^23`: adding it to an `|x| ≤ 2^22` leaves `x` rounded to the
/// nearest integer (ties to even) in the low mantissa bits of the sum.
const ROUND: f32 = 12_582_912.0;

/// The smallest max-abs the sketch codes (`2^-120`, as `f32` bits): at
/// or above it `127 / max_abs` is finite.
const MIN_SCALE_BITS: u32 = 7 << 23;

/// Code `v` into `codes` as `round(x · 127 / m)`, `m` its max-abs, and
/// return `m`; `None` when `v` holds a NaN or an infinity or `m` is
/// below `2^-120` (zero included), where no code is written. The max
/// is an integer max of the sign-cleared bit patterns, which orders
/// finite values by magnitude and puts infinities and NaNs above them.
fn quantize(v: &[f32], codes: &mut [i8]) -> Option<f32> {
    let max = v.iter().map(|x| x.to_bits() & 0x7FFF_FFFF).max()?;
    if !(MIN_SCALE_BITS..f32::INFINITY.to_bits()).contains(&max) {
        return None;
    }
    let m = f32::from_bits(max);
    let inv = 127.0 / m;
    for (c, x) in codes.iter_mut().zip(v) {
        *c = ((x * inv + ROUND).to_bits() as i32 - ROUND.to_bits() as i32) as i8;
    }
    Some(m)
}

/// A query coded for the scoring sketch, with the per-query terms of
/// the upper bound [`Probe::may_reach`] puts on `dot(query, row)`
/// (DESIGN.md §12, "Scoring sketch").
struct Probe {
    codes: Vec<i8>,
    /// `m_q / 127²`.
    scale: f64,
    /// `(1/2 + 2^-14) · (Σ|a| + 127·dim)`: the code residuals, in
    /// units of the two steps.
    slack: f64,
    /// The f32 summation error of `dot` per unit of row scale, plus a
    /// `2^-45` relative margin for the f64 evaluation.
    error: f64,
    /// `dim · 2^-148`: the products' underflow, doubled for the margin.
    underflow: f64,
    /// The largest row scale whose `dot` with the query cannot overflow.
    max_scale: f64,
}

impl Probe {
    /// `None` — every candidate scored exactly — for a query holding a
    /// NaN or an infinity, an all-zero one, or one too wide for an
    /// `i32` code dot.
    fn new(query: &[f32]) -> Option<Self> {
        let dim = query.len();
        if dim >= (i32::MAX / (127 * 127)) as usize {
            return None;
        }
        let mut codes = vec![0; dim.next_multiple_of(LANES)];
        let m = f64::from(quantize(query, &mut codes)?);
        let n = dim as f64;
        let l1: i32 = codes.iter().map(|&a| i32::from(a).abs()).sum();
        let scale = m / (127.0 * 127.0);
        let slack = (0.5 + 2f64.powi(-14)) * (f64::from(l1) + 127.0 * n);
        let gamma = n * n * 2f64.powi(-23) * m;
        let magnitude = scale * (127.0 * 127.0 * n + slack) + gamma;
        Some(Self {
            codes,
            scale,
            slack,
            error: gamma + 2f64.powi(-45) * magnitude,
            underflow: n * 2f64.powi(-148),
            max_scale: 2f64.powi(126) / (n * m),
        })
    }

    /// False only when `dot(query, row)` is certainly below `worst`: an
    /// upper bound on it from the row's codes is. A row the sketch
    /// refused (NaN scale), one whose `dot` could overflow, a tie and a
    /// NaN `worst` always reach.
    fn may_reach(&self, sketch: &Sketch, row: u32, worst: f32) -> bool {
        let m = f64::from(sketch.scales[row as usize]);
        if m.is_nan() || m > self.max_scale {
            return true;
        }
        let stride = self.codes.len();
        let codes = &sketch.codes[row as usize * stride..][..stride];
        let mut lanes = [0i32; LANES];
        for (a, c) in self
            .codes
            .chunks_exact(LANES)
            .zip(codes.chunks_exact(LANES))
        {
            for ((s, &a), &c) in lanes.iter_mut().zip(a).zip(c) {
                *s += i32::from(a) * i32::from(c);
            }
        }
        let dot: i32 = lanes.iter().sum();
        let bound = m * (self.scale * (f64::from(dot) + self.slack) + self.error) + self.underflow;
        bound.partial_cmp(&f64::from(worst)) != Some(Ordering::Less)
    }
}

/// The scoring sketch: every served weight as one `i8` code of its
/// row's max-abs, and that max-abs per row.
#[derive(Default)]
struct Sketch {
    /// `rows × dim` codes, row-major, each row zero-padded to whole
    /// [`LANES`] blocks.
    codes: Vec<i8>,
    /// Per row its max-abs, or NaN where [`quantize`] refused the row:
    /// such a row is always scored exactly.
    scales: Vec<f32>,
}

thread_local! {
    /// Query scratch, reused across queries: the candidate bitmap (one
    /// bit per row) and the query's plane dots.
    static SCRATCH: RefCell<(Vec<u64>, Vec<f32>)> = RefCell::default();
}

/// Per-snapshot LSH index: immutable, built at flip time, owned by the
/// snapshot it indexes. Flat arrays only: the hyperplanes in kernel
/// order, one CSR of buckets and the scoring sketch of the rows.
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
    /// Every row's weights in `i8` codes, read instead of the row to
    /// decide whether it needs an exact score.
    sketch: Sketch,
}

impl LshIndex {
    /// Build over a row arena (`rows.len() == keys.len() ×
    /// payload_f32s`; only the `dim` weight prefix of each row is
    /// hashed and sketched). Returns the index and its build cost —
    /// charged to the snapshot build, not to queries; the sketch, like
    /// the scoring it filters, is host time only.
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
            sketch: Sketch::default(),
        };

        // Counting sort of rows by (table, signature). A bucket's count
        // sits one past its signature, so the running sum over the whole
        // array leaves every bucket's start in place (each table's first
        // offset counts nothing and lands on `t × n`).
        let mut dots = vec![0f32; blocks * PLANE_BLOCK];
        let mut sigs = vec![0u16; n * tables];
        let stride = dim.next_multiple_of(LANES);
        let (mut codes, mut scales) = (vec![0; n * stride], Vec::with_capacity(n));
        for ((v, sigs), codes) in rows
            .chunks_exact(payload_f32s)
            .zip(sigs.chunks_exact_mut(tables))
            .zip(codes.chunks_exact_mut(stride))
        {
            scales.push(quantize(&v[..dim], codes).unwrap_or(f32::NAN));
            index.project(&v[..dim], &mut dots);
            for (t, sig) in sigs.iter_mut().enumerate() {
                *sig = signature(&dots[t * bits..][..bits]) as u16;
                index.offsets[t * per_table + *sig as usize + 1] += 1;
            }
        }
        index.sketch = Sketch { codes, scales };
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
        if query.len() != self.dim {
            return;
        }
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
    /// Deterministic for a given `(index, query)`; empty for a query
    /// that is not `dim` wide.
    pub fn candidates(&self, query: &[f32]) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_candidate(query, |row| out.push(row));
        out
    }

    /// The best `k` candidates of `query`, the candidate count and the
    /// number of them scored exactly. Once `k` are held, a candidate is
    /// scored only if its sketch bound can reach the worst of them;
    /// the rest would be rejected by [`keep_best`] anyway, so the
    /// answer is the one scoring every candidate gives.
    fn scan(&self, snap: &Snapshot, query: &[f32], k: usize) -> (Vec<TopK>, usize, usize) {
        let probe = Probe::new(query);
        let mut top: Vec<TopK> = Vec::with_capacity(k);
        let (mut candidates, mut exact) = (0, 0);
        self.for_each_candidate(query, |row| {
            candidates += 1;
            if let (Some(probe), Some(worst)) = (&probe, top.last().filter(|_| top.len() == k)) {
                if !probe.may_reach(&self.sketch, row, worst.score) {
                    return;
                }
            }
            exact += 1;
            keep_best(&mut top, k, snap, query, row);
        });
        (top, candidates, exact)
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
        if query.len() != snap.dim() {
            return (Vec::new(), Cost::new());
        }
        let mut cost = index.probe_cost();
        let (top, candidates, _) = index.scan(snap, query, k.min(snap.num_keys()));
        // Every candidate is charged as scored: the sketch moves host
        // time, not the modelled scan.
        charge_scan(&mut cost, candidates, snap.dim());
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

    /// `tests/ann_recall.rs`'s dim-32 corpus: 20 k unit rows, uniformly
    /// drawn rows as queries. The sketch must spare the exact score of
    /// all but a few candidates, and not change an answer.
    #[test]
    fn the_sketch_scores_few_candidates_exactly() {
        const DIM: usize = 32;
        const ROWS: u64 = 20_000;
        let media = Arc::new(Media::new(MediaConfig::pmem(16 << 20)));
        let mut cost = Cost::new();
        let pool = PmemPool::create_on(Arc::clone(&media), DIM * 4, &mut cost);
        for key in 0..ROWS {
            let mut v: Vec<f32> = (0..DIM as u64)
                .map(|d| {
                    let bits = splitmix64(key.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(d));
                    (bits >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
                })
                .collect();
            let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= norm);
            let id = pool.alloc(&mut cost);
            pool.write_slot(id, key, 1, &v, &mut cost);
        }
        pool.set_checkpoint_id(1, &mut cost);
        let cfg = AnnConfig::paper_default();
        let snap = Snapshot::build(media.crash(11), DIM, Some(&cfg)).expect("snapshot");
        let index = snap.ann_index().expect("index");
        let (mut candidates, mut exact) = (0, 0);
        for i in 0..50 {
            let query = snap
                .row(splitmix64(i ^ 0xABCD) as u32 % ROWS as u32)
                .to_vec();
            let (top, c, e) = index.scan(&snap, &query, 10);
            let mut every = Vec::new();
            for row in index.candidates(&query) {
                keep_best(&mut every, 10, &snap, &query, row);
            }
            assert_eq!(top, every, "query {i}");
            candidates += c;
            exact += e;
        }
        assert!(
            exact * 20 < candidates,
            "{exact} of {candidates} candidates scored exactly"
        );
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
