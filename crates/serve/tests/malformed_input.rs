//! Serving input that does not fit the snapshot is refused, never a
//! panic.
//!
//! A served width of zero or wider than the image's payload builds no
//! snapshot ([`Snapshot::build`] returns `None`, as for an image without
//! a pool), and a query that is not the snapshot's width gets an empty
//! answer at no cost from both retrievers and no candidates from the
//! index — where each used to trip an assertion.

use oe_pmem::PmemPool;
use oe_serve::{AnnConfig, ExactScan, LshRetriever, Retriever, Snapshot};
use oe_simdevice::{Cost, CrashImage, Media, MediaConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const DIM: usize = 8;

/// A committed image of 64 keys, payloads `2 × DIM` wide (weights and
/// one optimizer accumulator each).
fn image() -> CrashImage {
    let media = Arc::new(Media::new(MediaConfig::pmem(1 << 16)));
    let mut cost = Cost::new();
    let pool = PmemPool::create_on(Arc::clone(&media), 2 * DIM * 4, &mut cost);
    for key in 0..64u64 {
        let payload: Vec<f32> = (0..2 * DIM).map(|d| (key * 7 + d as u64) as f32).collect();
        let id = pool.alloc(&mut cost);
        pool.write_slot(id, key, 1, &payload, &mut cost);
    }
    pool.set_checkpoint_id(1, &mut cost);
    media.crash(3)
}

#[test]
fn a_served_width_the_payload_cannot_hold_builds_no_snapshot() {
    let ann = AnnConfig::paper_default();
    for dim in [0, 2 * DIM + 1, 64 * DIM, usize::MAX] {
        for cfg in [None, Some(&ann)] {
            let built = catch_unwind(AssertUnwindSafe(|| Snapshot::build(image(), dim, cfg)))
                .unwrap_or_else(|_| {
                    panic!("dim {dim}, index {}: the build panicked", cfg.is_some())
                });
            assert!(built.is_none(), "dim {dim}, index {}: built", cfg.is_some());
        }
    }
    for dim in [1, DIM, 2 * DIM] {
        assert!(
            Snapshot::build(image(), dim, Some(&ann)).is_some(),
            "dim {dim}"
        );
    }
}

#[test]
fn a_query_of_the_wrong_width_gets_an_empty_answer_at_no_cost() {
    let indexed = Snapshot::build(image(), DIM, Some(&AnnConfig::paper_default())).unwrap();
    let plain = Snapshot::build(image(), DIM, None).unwrap();
    let index = indexed.ann_index().expect("index");
    for width in [0, 1, DIM - 1, DIM + 1, 2 * DIM, 1_000] {
        let query = vec![1.0f32; width];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let answers = [
                ExactScan.top_k(&indexed, &query, 5),
                LshRetriever.top_k(&indexed, &query, 5),
                LshRetriever.top_k(&plain, &query, 5),
            ];
            (answers, index.candidates(&query))
        }));
        let (answers, candidates) =
            outcome.unwrap_or_else(|_| panic!("width {width}: a retriever panicked"));
        for (top, cost) in answers {
            assert!(top.is_empty(), "width {width}: {top:?}");
            assert_eq!(cost, Cost::new(), "width {width}");
        }
        assert!(candidates.is_empty(), "width {width}: {candidates:?}");
    }
    // The served width still answers.
    let query = vec![1.0f32; DIM];
    assert_eq!(ExactScan.top_k(&indexed, &query, 5).0.len(), 5);
    assert!(!LshRetriever.top_k(&indexed, &query, 5).0.is_empty());
}
