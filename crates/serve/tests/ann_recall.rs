//! ANN recall floor on a skewed workload.
//!
//! Pins the paper-default LSH shape against the exact reference arm on
//! a zipf-skewed query stream (the keys a serving tier actually sees,
//! drawn through `oe-workload`'s storm generator): mean recall@10 must
//! hold ≥ 0.9 while the ANN arm's virtual retrieval cost beats the
//! exact scan. Everything is seeded — the numbers are reproducible, so
//! the floor is a hard gate, not a flaky threshold.

use oe_serve::{recall_at_k, AnnConfig, ExactScan, LshRetriever, Retriever, Snapshot};
use oe_simdevice::{Cost, Media, MediaConfig};
use oe_workload::{SkewModel, StormGen, StormSpec};
use std::sync::Arc;

const DIM: usize = 16;
const NUM_KEYS: u64 = 4_000;
const QUERIES: u64 = 200;
const K: usize = 10;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic unit-norm embedding for `key`.
fn embedding(dim: usize, key: u64) -> Vec<f32> {
    let mut v: Vec<f32> = (0..dim as u64)
        .map(|d| {
            let bits = splitmix64(key.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(d));
            (bits >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
        })
        .collect();
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= norm);
    v
}

fn build_snapshot(dim: usize, num_keys: u64, ann: Option<&AnnConfig>) -> Snapshot {
    let media = Arc::new(Media::new(MediaConfig::pmem(16 << 20)));
    let mut cost = Cost::new();
    let pool = oe_pmem::PmemPool::create_on(Arc::clone(&media), dim * 4, &mut cost);
    for key in 0..num_keys {
        let id = pool.alloc(&mut cost);
        pool.write_slot(id, key, 1, &embedding(dim, key), &mut cost);
    }
    pool.set_checkpoint_id(1, &mut cost);
    Snapshot::build(media.crash(11), dim, ann).expect("snapshot")
}

/// The zipf-skewed serving stream: the queries are the embeddings of
/// the keys real traffic asks about, head-heavy like production.
fn query_keys() -> Vec<u64> {
    let gen = StormGen::new(StormSpec {
        num_keys: NUM_KEYS,
        keys_per_batch: 256,
        hot_keys: (0..32).collect(),
        hot_share: 0.3,
        storm_start: 0,
        storm_end: u64::MAX,
        base: SkewModel::paper_fit(),
        seed: 0xA11_5EED,
    });
    (0..QUERIES).map(|r| gen.request_key(r)).collect()
}

/// Mean and worst recall@10 of the paper-default shape when the rows
/// of `keys` are the queries, and the virtual ns of the exact and the
/// ANN arm.
fn measure(dim: usize, num_keys: u64, keys: &[u64]) -> (f64, f64, u64, u64) {
    let cfg = AnnConfig::paper_default();
    let snap = build_snapshot(dim, num_keys, Some(&cfg));
    assert!(snap.ann_index().is_some(), "index built with the snapshot");

    let mut recall_sum = 0.0f64;
    let mut exact_ns = 0u64;
    let mut ann_ns = 0u64;
    let mut worst = 1.0f64;
    for &key in keys {
        let query = snap.lookup(key).0.expect("served key").to_vec();
        let (exact, ce) = ExactScan.top_k(&snap, &query, K);
        let (approx, ca) = LshRetriever.top_k(&snap, &query, K);
        let r = recall_at_k(&exact, &approx);
        recall_sum += r;
        worst = worst.min(r);
        exact_ns += ce.total_ns();
        ann_ns += ca.total_ns();
    }
    (recall_sum / keys.len() as f64, worst, exact_ns, ann_ns)
}

#[test]
fn lsh_recall_at_10_holds_the_floor_on_a_skewed_stream() {
    let (mean, worst, exact_ns, ann_ns) = measure(DIM, NUM_KEYS, &query_keys());
    assert!(
        mean >= 0.9,
        "mean recall@{K} = {mean:.3} (floor 0.9, worst query {worst:.2})"
    );
    assert!(
        ann_ns < exact_ns,
        "ANN must be cheaper than exact: {ann_ns} vs {exact_ns} virtual ns"
    );
    // The win should be substantive, not epsilon: candidates are a
    // sub-linear fraction of the corpus.
    assert!(
        (ann_ns as f64) < 0.8 * exact_ns as f64,
        "ANN saves ≥20%: {ann_ns} vs {exact_ns}"
    );
}

/// The same shape on the widths the end-to-end benchmark serves, with
/// uniformly drawn rows as queries, as there. On these isotropic rows
/// recall@10 is 0.967 at dim 16 / 4 k rows, 0.897 at dim 32 / 20 k and
/// 0.723 at dim 64 / 20 k: an 8-bit signature says less about a wider
/// direction, so true neighbours share fewer buckets. The dimension —
/// not a defect — is most of the distance between the 0.9 floor above
/// and the benchmark's 0.54–0.81 on trained dim-64 and dim-32 tables
/// (DESIGN.md §12). The floors are the measured values; a retune of the
/// shape should raise them.
#[test]
fn recall_of_the_default_shape_falls_with_the_dimension() {
    let uniform =
        |n: u64| -> Vec<u64> { (0..QUERIES).map(|i| splitmix64(i ^ 0xABCD) % n).collect() };
    let (dim16, ..) = measure(DIM, NUM_KEYS, &uniform(NUM_KEYS));
    let (dim32, ..) = measure(32, 20_000, &uniform(20_000));
    let (dim64, ..) = measure(64, 20_000, &uniform(20_000));
    assert!(dim16 >= 0.96, "dim 16 / 4 k rows: recall@{K} = {dim16:.3}");
    assert!(dim32 >= 0.89, "dim 32 / 20 k rows: recall@{K} = {dim32:.3}");
    assert!(dim64 >= 0.72, "dim 64 / 20 k rows: recall@{K} = {dim64:.3}");
    assert!(
        dim64 < dim32 && dim32 < dim16,
        "wider rows, lower recall: {dim16:.3}, {dim32:.3}, {dim64:.3}"
    );
}

#[test]
fn recall_is_deterministic_across_rebuilds() {
    let cfg = AnnConfig::paper_default();
    let a = build_snapshot(DIM, NUM_KEYS, Some(&cfg));
    let b = build_snapshot(DIM, NUM_KEYS, Some(&cfg));
    for key in [0u64, 17, 999, 3_333] {
        let qa = a.lookup(key).0.unwrap().to_vec();
        let qb = b.lookup(key).0.unwrap().to_vec();
        assert_eq!(qa, qb);
        let (ra, _) = LshRetriever.top_k(&a, &qa, K);
        let (rb, _) = LshRetriever.top_k(&b, &qb, K);
        assert_eq!(ra, rb, "index is a pure function of (rows, config)");
    }
}
