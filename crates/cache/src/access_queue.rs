//! The per-batch access queue (paper Fig. 5).
//!
//! Pull threads append every accessed key; the cache-maintainer threads
//! drain the queue once all pulls of the batch have completed, performing
//! deferred LRU maintenance, flush-backs and checkpoint commits while the
//! GPUs compute. The queue is the hand-off point of the pipeline.

use crate::Key;
use oe_simdevice::sync::Mutex;
use std::collections::VecDeque;

/// Mutex-guarded MPMC FIFO of keys accessed by the current batch's
/// pulls. Producers and the maintainer exchange whole batches, so the
/// lock is taken once per call, not once per key.
#[derive(Default)]
pub struct AccessQueue {
    q: Mutex<VecDeque<Key>>,
}

impl AccessQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an access (called from pull handlers).
    #[inline]
    pub fn push(&self, key: Key) {
        self.q.lock().push_back(key);
    }

    /// Record many accesses under one lock acquisition.
    pub fn push_all(&self, keys: &[Key]) {
        self.q.lock().extend(keys);
    }

    /// Pop one access (called from maintainer threads).
    #[inline]
    pub fn pop(&self) -> Option<Key> {
        self.q.lock().pop_front()
    }

    /// Drain up to `max` accesses into `out` under one lock
    /// acquisition; returns the count.
    pub fn drain_into(&self, out: &mut Vec<Key>, max: usize) -> usize {
        let mut q = self.q.lock();
        let n = max.min(q.len());
        out.extend(q.drain(..n));
        n
    }

    /// Pending accesses.
    pub fn len(&self) -> usize {
        self.q.lock().len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.q.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_single_thread() {
        let q = AccessQueue::new();
        q.push_all(&[1, 2, 3]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_into_respects_max() {
        let q = AccessQueue::new();
        q.push_all(&[1, 2, 3, 4, 5]);
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 3), 3);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(q.drain_into(&mut out, 10), 2);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        let q = Arc::new(AccessQueue::new());
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        q.push(p * 1000 + i);
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(k) = q.pop() {
                        got.push(k);
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 4000);
        all.dedup();
        assert_eq!(all.len(), 4000, "no duplicates, nothing lost");
    }
}
