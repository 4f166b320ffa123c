//! One-batch lookahead over [`WorkloadGen`] for pipelined training.
//!
//! The pipelined trainer needs batch `t+1`'s key set *during* batch
//! `t`'s compute (to issue the prefetch pull), and then the full batch
//! again one window later (to train on it). Regenerating is correct —
//! the generator is a pure function of `(spec, batch, worker)` — but
//! wasteful: sampling `batch_size × fields` ranks twice doubles the
//! host-side generation work of every batch. [`LookaheadGen`] memoizes
//! the most recent global batch so the peek-then-consume pattern
//! generates each batch exactly once, and the consume moves the memo
//! out rather than copying it, while staying bit-identical to calling
//! [`WorkloadGen::global_batch`] directly.

use crate::generator::{Batch, Key, WorkloadGen, WorkloadSpec};

/// A [`WorkloadGen`] with a single-slot memo of the last global batch.
pub struct LookaheadGen {
    gen: WorkloadGen,
    slot: Option<(u64, Vec<Batch>)>,
    generations: u64,
}

impl LookaheadGen {
    /// Wrap a generator.
    pub fn new(gen: WorkloadGen) -> Self {
        Self {
            gen,
            slot: None,
            generations: 0,
        }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &WorkloadSpec {
        self.gen.spec()
    }

    /// The wrapped generator.
    pub fn inner(&self) -> &WorkloadGen {
        &self.gen
    }

    /// How many global batches were actually generated (memo misses).
    /// A peek-then-consume pipeline over `n` batches should report `n`,
    /// not `2n`.
    pub fn generations(&self) -> u64 {
        self.generations
    }

    /// All workers' shares of `batch_idx`, taken out of the memo (or
    /// generated, on a miss): the consume of peek-then-consume, after
    /// which the memo is empty. Bit-identical to
    /// [`WorkloadGen::global_batch`].
    pub fn take_global_batch(&mut self, batch_idx: u64) -> Vec<Batch> {
        match self.slot.take() {
            Some((b, batches)) if b == batch_idx => batches,
            _ => {
                self.generations += 1;
                self.gen.global_batch(batch_idx)
            }
        }
    }

    /// All workers' shares of `batch_idx`, memoized.
    fn memo(&mut self, batch_idx: u64) -> &[Batch] {
        if self.slot.as_ref().map(|(b, _)| *b) != Some(batch_idx) {
            self.slot = Some((batch_idx, self.gen.global_batch(batch_idx)));
            self.generations += 1;
        }
        &self.slot.as_ref().expect("just filled").1
    }

    /// The union of all workers' deduplicated keys for `batch_idx`,
    /// sorted ascending — the set a prefetcher wants to stage before
    /// the batch starts. Fills the memo [`Self::take_global_batch`]
    /// takes.
    /// Each worker's keys are already sorted and distinct, so the lists
    /// merge pairwise, dropping keys two workers share.
    pub fn unique_union(&mut self, batch_idx: u64) -> Vec<Key> {
        let mut union: Vec<Key> = Vec::new();
        let mut merged: Vec<Key> = Vec::new();
        for b in self.memo(batch_idx) {
            merge_distinct(&union, &b.unique_keys, &mut merged);
            std::mem::swap(&mut union, &mut merged);
        }
        union
    }
}

/// Write the sorted, distinct union of two sorted, distinct lists to
/// `out`.
fn merge_distinct(a: &[Key], b: &[Key], out: &mut Vec<Key>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_matches_direct_generation() {
        let spec = WorkloadSpec::small();
        let direct = WorkloadGen::new(spec.clone());
        let mut la = LookaheadGen::new(WorkloadGen::new(spec));
        for b in [0u64, 1, 2, 2] {
            // Batch 1 is consumed after a peek, the others on a miss.
            if b == 1 {
                la.unique_union(b);
            }
            let d = direct.global_batch(b);
            let m = la.take_global_batch(b);
            assert_eq!(d.len(), m.len());
            for (x, y) in d.iter().zip(m.iter()) {
                assert_eq!(x.input_keys, y.input_keys);
                assert_eq!(x.unique_keys, y.unique_keys);
            }
        }
        assert_eq!(la.generations(), 4, "a taken batch leaves the memo");
    }

    #[test]
    fn peek_then_consume_generates_once() {
        let mut la = LookaheadGen::new(WorkloadGen::new(WorkloadSpec::small()));
        let n = 5u64;
        // Pipelined access pattern: prefetch-peek t+1 while training t,
        // then consume t+1 at the next window.
        la.unique_union(0);
        for t in 0..n {
            // Repeated peeks at the same batch never regenerate.
            la.unique_union(t);
            la.take_global_batch(t);
            if t + 1 < n {
                la.unique_union(t + 1);
            }
        }
        // Each batch is generated exactly once: the peek fills the slot
        // and the consume one window later takes it.
        assert_eq!(la.generations(), n);
    }

    #[test]
    fn merge_keeps_each_key_once_in_order() {
        let mut out = vec![99];
        merge_distinct(&[1, 3, 5, 9], &[2, 3, 9, 10], &mut out);
        assert_eq!(out, [1, 2, 3, 5, 9, 10]);
        merge_distinct(&[], &[4], &mut out);
        assert_eq!(out, [4]);
        merge_distinct(&[], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn unique_union_is_sorted_dedup_superset() {
        let mut la = LookaheadGen::new(WorkloadGen::new(WorkloadSpec::small()));
        for batch in 0..4 {
            let union = la.unique_union(batch);
            // The reference: concatenate, sort, deduplicate.
            let mut all: Vec<Key> = la
                .take_global_batch(batch)
                .iter()
                .flat_map(|b| b.unique_keys.iter().copied())
                .collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(union, all, "batch {batch}");
        }
    }
}
