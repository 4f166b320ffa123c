//! # oe-net
//!
//! The message-passing substrate of the distributed parameter server.
//!
//! The paper's system ships TensorFlow operators that talk to the PS
//! nodes over a low-overhead RPC (RDMA where available, §V-C), and its
//! headline result is surviving failures cheaply (§VI-E). This crate
//! provides both layers for the reproduction:
//!
//! - [`error`] — one structured [`Error`] for everything that can go
//!   wrong between client and server (timeout, disconnect, corruption,
//!   busy, rejection), with a source chain and a retryability
//!   classification;
//! - [`codec`] — a compact binary wire format for exactly what a
//!   [`PsClient`] sends (pull, push, end-pull, checkpoint, stats,
//!   weight reads, …) plus the failover sequence fence, with explicit
//!   framing, versioning, a per-request `(client, seq)` idempotence
//!   token, and a whole-frame checksum that turns in-flight bit flips
//!   into structured errors. Placement is in-process (`oe-cluster`):
//!   the wire carries no placement epoch and no migration message;
//! - [`transport`] — a deadline-aware [`transport::Transport`]
//!   abstraction with an in-process loopback implementation (bounded
//!   channels carrying frames), standing in for the testbed's 30 Gb
//!   intranet the way the simulated media stands in for Optane;
//! - [`config`] — [`NetCharge`], the one network cost model, and
//!   [`NetConfig`]: the deadline and [`RetryPolicy`] knobs, one builder
//!   mirroring `NodeConfig`;
//! - [`server`] — a multi-threaded PS server event loop serving any
//!   [`oe_core::engine::PsEngine`], with a replay cache that applies
//!   retried/duplicated requests exactly once;
//! - [`failover`] — the one [`Standby`]: on promotion it restores the
//!   last committed checkpoint through `core::recovery` from wherever
//!   the primary's durable bytes live (its own media, or a `SharedPool`
//!   partition in `oe-pool`), charging the paper's recovery cost in
//!   virtual time;
//! - [`client`] — [`client::RemotePs`], which implements [`PsClient`]
//!   *over the wire* with deadlines, retry/backoff, and failover; every
//!   failure is an [`Error`] value. Virtual-time costs charged on the
//!   server are carried back in the response and merged into the
//!   caller's cost sink, keeping the discrete-event accounting exact
//!   across the network boundary;
//! - [`api`] — the backend-agnostic [`PsClient`] trait implemented by
//!   `RemotePs` and by every in-process `PsEngine`, so `train`/`serve`
//!   drive either through one interface.

pub mod api;
pub mod client;
pub mod codec;
pub mod config;
pub mod error;
pub mod failover;
pub mod server;
pub mod transport;

pub use api::{EngineClient, PsClient, PullTicket};
pub use client::RemotePs;
pub use codec::{
    validate_frame, F32sView, Frame, FrameMeta, LeScalar, LeView, Packet, Request, RequestView,
    Response, ResponseView, U64sView,
};
pub use config::{NetCharge, NetConfig, RetryPolicy};
pub use error::{Error, ErrorKind};
pub use failover::{FailoverEvent, Promotion, Standby};
pub use server::{PsServer, ServerHandle};
pub use transport::{loopback, ClientTransport, Transport};
