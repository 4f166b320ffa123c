//! Live-migration bookkeeping: the double-write window and its ledger.
//!
//! A migration moves a set of keys from their current owners to new
//! destinations *while training continues*:
//!
//! 1. **Seed** — at a batch boundary, each migrating key's full payload
//!    (weights *and* optimizer state) is copied source → destination.
//! 2. **Double-write window** — every push of a migrating key is applied
//!    to both replicas. The optimizer is deterministic, so the replicas
//!    stay bit-identical; pulls keep routing to the source (the table is
//!    untouched), so readers never see a half-migrated view.
//! 3. **Cutover fence** — at the `end_pull_phase` of the cutover batch
//!    (all pulls done, no push in flight — the same barrier the sync
//!    protocol already provides), the placement table applies the moves
//!    in one epoch bump and the source copies are discarded.
//!
//! The struct here is only the ledger; [`crate::PlacedCluster`] drives
//! the protocol.

use oe_core::{BatchId, Key};
use std::collections::{HashMap, HashSet};

/// A requested migration: which keys go where, and how long the
/// double-write window runs before cutover.
#[derive(Debug, Clone)]
pub struct MigrationSpec {
    /// `(key, destination)` moves; keys already at their destination are
    /// dropped at start.
    pub moves: Vec<(Key, usize)>,
    /// Batches of double-writing before the cutover fence. May be 0 for
    /// an immediate cutover at the next `end_pull_phase`.
    pub double_write_batches: u64,
}

/// An in-flight migration (one at a time per cluster).
#[derive(Debug)]
pub(crate) struct ActiveMigration {
    /// `(key, source, destination)` for every real move.
    pub moves: Vec<(Key, usize, usize)>,
    /// key → destination, for O(1) double-write lookups on the push path.
    pub dest_of: HashMap<Key, usize>,
    /// Keys whose destination replica has been seeded (at start, or
    /// lazily on first double-write of a key born after the snapshot).
    pub seeded: HashSet<Key>,
    /// Batch the migration started after (its state is the snapshot).
    pub started_batch: BatchId,
    /// First batch whose `end_pull_phase` performs the cutover.
    pub cutover_batch: BatchId,
}

/// Cumulative migration counters, serialized into bench reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationStats {
    /// Completed migrations (cutovers performed).
    pub migrations: u64,
    /// Keys relocated across all migrations.
    pub keys_moved: u64,
    /// Pushes applied twice during double-write windows — the wire-level
    /// cost of migrating live, and exactly the amount to subtract from
    /// summed node push counters to recover logical push volume.
    pub double_write_pushes: u64,
    /// Batches spent inside double-write windows, across migrations.
    pub double_write_batches: u64,
    /// Payload copies performed to seed destinations.
    pub seed_copies: u64,
}
