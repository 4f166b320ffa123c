//! Per-key PMem version chains — the "space manager" contract.
//!
//! Flushes to PMem are out-of-place: a key may transiently own several
//! PMem slots holding different batch versions. A slot may be recycled
//! only when **no committed or pending checkpoint can need it**. The
//! retention rule (paper §V-C, "the space manager will recycle the space
//! of these entries once the new checkpoint is done"):
//!
//! keep (a) the newest slot overall, and (b) for every protection
//! boundary `b` (the committed Checkpointed Batch ID plus every pending
//! checkpoint request id), the newest slot with `version ≤ b`. Everything
//! else is recyclable.

use crate::BatchId;
use oe_pmem::SlotId;
use std::ops::Deref;

/// Maximum simultaneously retained versions per key. With one committed
/// checkpoint and a couple of in-flight checkpoint requests this never
/// exceeds 4 in practice; 6 leaves margin and keeps the chain inline
/// (no heap allocation per key).
pub const CHAIN_CAP: usize = 6;

/// Inline list of (PMem slot, version) pairs for one key, newest last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionChain {
    slots: [(SlotId, BatchId); CHAIN_CAP],
    len: u8,
}

impl Default for VersionChain {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionChain {
    /// An empty chain.
    pub fn new() -> Self {
        Self {
            slots: [(SlotId(0), 0); CHAIN_CAP],
            len: 0,
        }
    }

    /// Number of retained versions.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no PMem slot is retained for this key.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Retained (slot, version) pairs, oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, BatchId)> + '_ {
        self.slots[..self.len as usize].iter().copied()
    }

    /// The newest retained slot, if any.
    pub fn newest(&self) -> Option<(SlotId, BatchId)> {
        (self.len > 0).then(|| self.slots[self.len as usize - 1])
    }

    /// Append a new version. Versions must arrive in non-decreasing
    /// order (flushes happen in batch order for a given key). Panics if
    /// the chain is full — callers must [`Self::prune`] first.
    pub fn push(&mut self, slot: SlotId, version: BatchId) {
        assert!(
            (self.len as usize) < CHAIN_CAP,
            "version chain overflow: prune before push"
        );
        if let Some((_, newest)) = self.newest() {
            debug_assert!(version >= newest, "versions must be monotone per key");
        }
        self.slots[self.len as usize] = (slot, version);
        self.len += 1;
    }

    /// Apply the retention rule for the given protection `boundaries`
    /// (committed checkpoint id + pending checkpoint ids, any order).
    /// Returns the recyclable slots, oldest first.
    pub fn prune(&mut self, boundaries: &[BatchId]) -> Freed {
        let mut freed = Freed {
            slots: [SlotId(0); CHAIN_CAP - 1],
            len: 0,
        };
        if self.len <= 1 {
            return freed;
        }
        let n = self.len as usize;
        let mut keep = [false; CHAIN_CAP];
        keep[n - 1] = true; // newest overall
        for &b in boundaries {
            // newest index with version ≤ b
            if let Some(i) = (0..n).rev().find(|&i| self.slots[i].1 <= b) {
                keep[i] = true;
            }
        }
        let mut w = 0;
        for (i, &kept) in keep.iter().enumerate().take(n) {
            if kept {
                self.slots[w] = self.slots[i];
                w += 1;
            } else {
                freed.slots[freed.len as usize] = self.slots[i].0;
                freed.len += 1;
            }
        }
        self.len = w as u8;
        freed
    }
}

/// The slots one [`VersionChain::prune`] released, inline: the newest
/// version always stays, so at most `CHAIN_CAP − 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Freed {
    slots: [SlotId; CHAIN_CAP - 1],
    len: u8,
}

impl Deref for Freed {
    type Target = [SlotId];

    fn deref(&self) -> &[SlotId] {
        &self.slots[..self.len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(versions: &[BatchId]) -> VersionChain {
        let mut c = VersionChain::new();
        for (i, &v) in versions.iter().enumerate() {
            c.push(SlotId(i as u64), v);
        }
        c
    }

    #[test]
    fn push_and_query() {
        let c = chain(&[1, 3, 7]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.newest(), Some((SlotId(2), 7)));
    }

    #[test]
    fn prune_keeps_newest_and_boundary_versions() {
        // Versions 1,3,7,9; boundaries {CBI=3, pending cp=8}.
        let mut c = chain(&[1, 3, 7, 9]);
        let freed = c.prune(&[3, 8]);
        // keep: newest overall (9), newest ≤3 (3), newest ≤8 (7). Free: 1.
        assert_eq!(*freed, [SlotId(0)]);
        let kept: Vec<_> = c.iter().map(|(_, v)| v).collect();
        assert_eq!(kept, vec![3, 7, 9]);
    }

    #[test]
    fn prune_with_no_boundaries_keeps_only_newest() {
        let mut c = chain(&[2, 4, 6]);
        let freed = c.prune(&[]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.newest(), Some((SlotId(2), 6)));
        assert_eq!(*freed, [SlotId(0), SlotId(1)]);
    }

    #[test]
    fn pruning_a_full_chain_frees_all_but_the_newest_inline() {
        let versions: Vec<BatchId> = (1..=CHAIN_CAP as u64).collect();
        let mut c = chain(&versions);
        let freed = c.prune(&[]);
        assert_eq!(freed.len(), CHAIN_CAP - 1);
        assert_eq!(
            *freed,
            (0..CHAIN_CAP as u64 - 1).map(SlotId).collect::<Vec<_>>()
        );
        assert_eq!(
            c.newest(),
            Some((SlotId(CHAIN_CAP as u64 - 1), CHAIN_CAP as u64))
        );
    }

    #[test]
    fn prune_single_element_is_noop() {
        let mut c = chain(&[5]);
        assert!(c.prune(&[1]).is_empty());
    }

    #[test]
    fn boundary_below_all_versions_protects_nothing_extra() {
        let mut c = chain(&[10, 20]);
        let freed = c.prune(&[5]);
        // newest ≤ 5 doesn't exist; keep newest only.
        assert_eq!(c.len(), 1);
        assert_eq!(*freed, [SlotId(0)]);
    }

    #[test]
    fn same_slot_protected_by_multiple_boundaries_counted_once() {
        let mut c = chain(&[4, 9]);
        // Both boundaries 5 and 7 protect version 4.
        let freed = c.prune(&[5, 7]);
        assert_eq!(c.len(), 2);
        assert!(freed.is_empty());
    }

    #[test]
    #[should_panic(expected = "version chain overflow")]
    fn overflow_panics() {
        let mut c = VersionChain::new();
        for i in 0..=CHAIN_CAP as u64 {
            c.push(SlotId(i), i);
        }
    }

    #[test]
    fn prune_is_idempotent() {
        let mut c = chain(&[1, 3, 7, 9]);
        c.prune(&[3, 8]);
        let snapshot: Vec<_> = c.iter().collect();
        assert!(c.prune(&[3, 8]).is_empty());
        assert_eq!(snapshot, c.iter().collect::<Vec<_>>());
    }
}
