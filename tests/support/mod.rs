//! Test drivers shared by the root package's integration tests. They
//! exercise the product from outside it and no product crate calls
//! them, so they live here, where every crate is in reach:
//!
//! - [`crashmc`] — crash-point enumeration over the persistence-event
//!   stream, with the five batch-consistency invariants (paper §V);
//! - [`fault`] — a seeded, deterministic fault-injecting `Transport`
//!   (drop, duplicate, corrupt, delay, kill the server).
//!
//! Each test binary declares `pub mod support;` at its root, so a
//! driver a binary does not use is not dead code there. The drivers'
//! own tests live in the one binary that exercises each driver
//! (`crashmc.rs`, `fault_suite.rs`), so every test runs once.

pub mod crashmc;
pub mod fault;
