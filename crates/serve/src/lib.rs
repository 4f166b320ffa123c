//! # oe-serve
//!
//! The serving plane — the paper's system backs "real-time
//! recommendation services" (§III); this crate makes that hand-off a
//! first-class, concurrent, SLO-measured product:
//!
//! - [`snapshot`] — durable image files: a crashed/checkpointed pool's
//!   persistence-domain bytes serialized to disk, so checkpoints become
//!   artifacts that can be copied, archived, and inspected;
//! - [`snapshot_handle`] — the concurrent read path:
//!   [`snapshot_handle::Snapshot`] (an image decoded once into an
//!   immutable DRAM row arena; every read is a `&self` borrow paired
//!   with its virtual [`oe_simdevice::Cost`]),
//!   [`snapshot_handle::SnapshotHandle`] (epoch-flipped publication —
//!   a checkpoint commit swaps all readers to the new image atomically
//!   mid-traffic; the steady-state read path is one atomic load), and
//!   [`snapshot_handle::CheckpointPublisher`] (wires
//!   `CheckpointScheduler`-driven commits to `save_image` + flip);
//! - [`ann`] — candidate retrieval behind the [`ann::Retriever`]
//!   trait: [`ann::ExactScan`] (reference arm) and
//!   [`ann::LshRetriever`] over a per-snapshot random-hyperplane
//!   [`ann::LshIndex`] built at flip time;
//! - `oectl` — the operations CLI: `info`, `scan`, `verify`, `dump`,
//!   `top [--ann]`, `metrics` over image files (see
//!   `src/bin/oectl.rs`).
//!
//! The redesigned read API is kept honest mechanically: this crate
//! denies `clippy::ptr_arg` and `clippy::needless_pass_by_ref_mut`,
//! so a `&mut` parameter that the borrow-returning surface does not
//! actually need fails CI.

#![deny(clippy::ptr_arg)]
#![deny(clippy::needless_pass_by_ref_mut)]

pub mod ann;
pub mod snapshot;
pub mod snapshot_handle;

pub use ann::{recall_at_k, AnnConfig, ExactScan, LshIndex, LshRetriever, Retriever, TopK};
pub use snapshot::{load_image, save_image};
pub use snapshot_handle::{CheckpointPublisher, Snapshot, SnapshotHandle, SnapshotReader};
