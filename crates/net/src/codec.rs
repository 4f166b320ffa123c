//! Binary wire format for parameter-server RPC.
//!
//! Packet layout (little-endian), protocol version 4:
//!
//! ```text
//! ┌───────┬─────────┬──────────┬────────┬─────┬──────────┬──────────┬────────┐
//! │ magic │ version │ msg type │ client │ seq │ body len │ checksum │ body   │
//! │ u16   │ u8      │ u8       │ u32    │ u64 │ u32      │ u64      │ …      │
//! └───────┴─────────┴──────────┴────────┴─────┴──────────┴──────────┴────────┘
//! ```
//!
//! The `(client, seq)` pair is the idempotence token: every request
//! carries the issuing client's id and a per-client sequence number,
//! retries reuse the *same* pair, and the server's replay cache returns
//! the original response for a pair it has already executed — so
//! duplicated or retried pulls and pushes apply exactly once. The
//! response echoes the pair so a client can match replies to calls.
//!
//! The checksum is [`oe_simdevice::integrity_hash`] over
//! `header[..20] ‖ body` — the header minus the checksum field itself,
//! then the body, hashed where they lie. It turns any in-flight bit
//! flip — even one inside an f32 gradient payload that would otherwise
//! decode cleanly — into a structured [`Error`] of kind `Corrupt`
//! instead of silent weight corruption: every error confined to one
//! 64-bit word is caught with certainty, anything wider escapes with
//! probability 2⁻⁶⁴. It is an integrity check, not a MAC. A frame is
//! exactly `HEADER_LEN + body len` bytes; bytes after the body are
//! covered by no checksum and are refused.
//!
//! Bodies use length-prefixed vectors (`u32` count) of little-endian
//! scalars, written as one bulk copy per vector. Virtual-time [`Cost`]s cross the wire as their raw
//! (ns, ops) arrays so the client can merge server-side charges into
//! its own accounting.
//!
//! The three bursts that dominate traffic — pull (`0x01`), push (`0x02`)
//! and the weights reply (`0x81`) — have no owned form: they are written
//! from borrowed slices by [`Packet::encode_pull`],
//! [`Packet::encode_push`] and [`Packet::encode_weights_response`], and
//! read in place by [`RequestView`] / [`ResponseView`]. [`Request`] and
//! [`Response`] hold the small control messages only, and
//! [`Packet::decode`] — the control decoder — refuses a burst type as
//! `Corrupt`.
//!
//! Every decode failure — truncation, trailing bytes, bad
//! magic/version, checksum mismatch, unknown discriminant, short body —
//! is a structured
//! [`Error`] with kind [`crate::ErrorKind::Corrupt`]; decode never
//! panics on arbitrary bytes.

use crate::error::{Error, ErrorKind};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use oe_core::stats::StatsSnapshot;
use oe_core::{BatchId, Key};
use oe_simdevice::{integrity_hash, Cost};

/// Frame magic ("OE").
pub const MAGIC: u16 = 0x4F45;
/// Wire protocol version (4: v3's header, idempotence token, placement
/// epoch and message family, with the frame checksum redefined as
/// [`integrity_hash`]; a v3 peer's frames fail the version check, not
/// the checksum).
pub const VERSION: u8 = 4;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 28;

/// Checksum of a whole frame (`HEADER_LEN` + body): the integrity hash
/// over the header up to its checksum field, then the body.
fn frame_checksum(frame: &[u8]) -> u64 {
    integrity_hash(&[&frame[..HEADER_LEN - 8], &frame[HEADER_LEN..]])
}

/// A decoded frame: message type + body.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server.
    Request(Request),
    /// Server → client.
    Response(Response),
}

/// Client-to-server control messages (the pull and push bursts exist
/// only as [`RequestView`]s).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// All pulls for `batch` done: run deferred maintenance.
    EndPullPhase {
        /// Completed pull batch.
        batch: BatchId,
    },
    /// Request a checkpoint up to `batch`.
    Checkpoint {
        /// Latest completed batch.
        batch: BatchId,
    },
    /// Read the committed checkpoint id.
    Committed,
    /// Read engine counters.
    Stats,
    /// Read one key's weights (diagnostics).
    ReadWeights {
        /// Key to read.
        key: Key,
    },
    /// Number of known keys.
    NumKeys,
    /// Embedding dimension + engine name probe.
    Hello,
    /// Telemetry exposition: server + engine registries rendered as
    /// Prometheus-style text.
    Metrics,
    /// Idempotence-token fence: the issuing client promises it will
    /// never need a *new* execution for any of its sequence numbers
    /// `<= floor`. The server records the floor and answers every later
    /// mutating request at or below it with a `Rejected` error instead
    /// of executing. Sent by a client right after promoting a standby:
    /// tokens minted against the dead primary must not execute on the
    /// rewound replacement (the trainer replays those batches with
    /// fresh tokens), or a straggling retry would double-apply.
    SeqFence {
        /// Highest fenced-off sequence number (inclusive).
        floor: u64,
    },
    /// Placement-epoch fence: the rebalancer announces that routing
    /// epoch `epoch` is now current. The server ratchets its epoch up
    /// (never down — a replayed stale update is a no-op) and from then
    /// on rejects pull/push bursts routed under an older epoch, so a
    /// client that missed a migration cutover cannot read or write keys
    /// that have moved away.
    PlacementUpdate {
        /// New placement epoch.
        epoch: u64,
    },
    /// Read one key's *full* entry — version plus weights-and-optimizer
    /// payload — for migration seeding (`PsEngine::export_entry`).
    ExportEntry {
        /// Key to export.
        key: Key,
    },
    /// Install a full entry exported from another node
    /// (`PsEngine::import_entry`), replacing any existing entry.
    ImportEntry {
        /// Key to install.
        key: Key,
        /// Entry version (batch id) captured at export.
        version: BatchId,
        /// Full payload: weights + optimizer state.
        payload: Vec<f32>,
    },
    /// Forget a key entirely — migration cutover on the source side
    /// (`PsEngine::discard_entry`).
    DiscardEntry {
        /// Key to discard.
        key: Key,
    },
}

impl Request {
    /// Whether executing this request mutates server state — only
    /// mutating requests (and the bursts, see
    /// [`RequestView::is_mutating`]) enter the replay cache; reads are
    /// naturally idempotent. `SeqFence` and `PlacementUpdate` mutate only fencing
    /// bookkeeping and are idempotent by construction (both only
    /// ratchet up), so they bypass the cache too.
    pub fn is_mutating(&self) -> bool {
        matches!(
            self,
            Request::EndPullPhase { .. }
                | Request::Checkpoint { .. }
                | Request::ImportEntry { .. }
                | Request::DiscardEntry { .. }
        )
    }
}

/// Server-to-client control messages (the weights burst exists only as
/// a [`ResponseView`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Push/checkpoint acknowledgement.
    Ack {
        /// Server-side virtual-time charges.
        cost: Cost,
    },
    /// Maintenance outcome.
    Maintenance {
        /// Access-queue records processed.
        entries: u64,
        /// Checkpoints committed.
        commits: u64,
        /// Deferred-work cost (overlappable).
        cost: Cost,
    },
    /// Committed checkpoint id.
    Committed {
        /// Batch id.
        batch: BatchId,
    },
    /// Counter snapshot.
    Stats(StatsSnapshot),
    /// Weights of one key, if known.
    MaybeWeights(Option<Vec<f32>>),
    /// A count.
    Count(u64),
    /// Hello reply.
    HelloOk {
        /// Embedding dimension served.
        dim: u32,
        /// Engine name.
        name: String,
    },
    /// Rendered telemetry text.
    Metrics(String),
    /// A full entry (version + weights-and-optimizer payload), or
    /// `None` if the key has no entry. Reply to `ExportEntry`.
    Entry(Option<(BatchId, Vec<f32>)>),
    /// The server could not serve the request (e.g. an undecodable
    /// frame). Carrying the structured reason back keeps the client
    /// from blocking forever on a dropped frame and lets it classify
    /// retryability without string matching.
    Error {
        /// Failure classification (travels as its wire code).
        kind: ErrorKind,
        /// Human-readable reason.
        message: String,
    },
}

/// A wire packet: the idempotence token plus the frame it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Issuing client id (0 for server-originated error replies to
    /// unattributable frames).
    pub client: u32,
    /// Per-client sequence number; retries of the same logical request
    /// reuse it.
    pub seq: u64,
    /// The message.
    pub frame: Frame,
}

// --- primitive helpers -------------------------------------------------

/// Append `vals` as little-endian scalars in one pass: grow the buffer
/// once, then fill it in place (a plain copy on little-endian hosts)
/// instead of one bounds-checked append per element.
fn put_le<T: Copy, const N: usize>(buf: &mut BytesMut, vals: &[T], to_le: impl Fn(T) -> [u8; N]) {
    let start = buf.len();
    buf.resize(start + vals.len() * N, 0);
    for (dst, &v) in buf[start..].chunks_exact_mut(N).zip(vals) {
        dst.copy_from_slice(&to_le(v));
    }
}

fn put_u64s(buf: &mut BytesMut, vals: &[u64]) {
    buf.put_u32_le(vals.len() as u32);
    put_le(buf, vals, u64::to_le_bytes);
}

fn put_f32s(buf: &mut BytesMut, vals: &[f32]) {
    buf.put_u32_le(vals.len() as u32);
    put_le(buf, vals, f32::to_le_bytes);
}

fn truncated() -> Error {
    Error::corrupt("truncated frame")
}

fn get_f32s(buf: &mut Bytes) -> Result<Vec<f32>, Error> {
    if buf.remaining() < 4 {
        return Err(truncated());
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n.saturating_mul(4) {
        return Err(truncated());
    }
    Ok((0..n).map(|_| buf.get_f32_le()).collect())
}

/// Wire size of a [`Cost`]: 8 ns counters + 8 op counters, 8 bytes each.
const COST_WIRE_LEN: usize = 16 * 8;

fn put_cost(buf: &mut BytesMut, cost: &Cost) {
    let (ns, ops) = cost.raw_parts();
    for v in ns {
        buf.put_u64_le(v);
    }
    for v in ops {
        buf.put_u64_le(v);
    }
}

fn get_cost(buf: &mut Bytes) -> Result<Cost, Error> {
    if buf.remaining() < COST_WIRE_LEN {
        return Err(truncated());
    }
    let mut ns = [0u64; 8];
    let mut ops = [0u64; 8];
    for v in &mut ns {
        *v = buf.get_u64_le();
    }
    for v in &mut ops {
        *v = buf.get_u64_le();
    }
    Ok(Cost::from_raw_parts(ns, ops))
}

fn get_u64(buf: &mut Bytes) -> Result<u64, Error> {
    if buf.remaining() < 8 {
        return Err(truncated());
    }
    Ok(buf.get_u64_le())
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, Error> {
    if buf.remaining() < 4 {
        return Err(truncated());
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n {
        return Err(truncated());
    }
    Ok(String::from_utf8_lossy(&buf.copy_to_bytes(n)).into_owned())
}

// --- frame body encode/decode ------------------------------------------

impl Frame {
    fn msg_type(&self) -> u8 {
        match self {
            Frame::Request(r) => match r {
                Request::EndPullPhase { .. } => 0x03,
                Request::Checkpoint { .. } => 0x04,
                Request::Committed => 0x05,
                Request::Stats => 0x06,
                Request::ReadWeights { .. } => 0x07,
                Request::NumKeys => 0x08,
                Request::Hello => 0x09,
                Request::Metrics => 0x0A,
                Request::SeqFence { .. } => 0x0B,
                Request::PlacementUpdate { .. } => 0x0C,
                Request::ExportEntry { .. } => 0x0D,
                Request::ImportEntry { .. } => 0x0E,
                Request::DiscardEntry { .. } => 0x0F,
            },
            Frame::Response(r) => match r {
                Response::Ack { .. } => 0x82,
                Response::Maintenance { .. } => 0x83,
                Response::Committed { .. } => 0x84,
                Response::Stats(_) => 0x85,
                Response::MaybeWeights(_) => 0x86,
                Response::Count(_) => 0x87,
                Response::HelloOk { .. } => 0x88,
                Response::Metrics(_) => 0x89,
                Response::Entry(_) => 0x8A,
                Response::Error { .. } => 0x8F,
            },
        }
    }

    /// Exact encoded body size in bytes. Kept in lockstep with
    /// [`Frame::encode_body`] (asserted by the codec tests) so
    /// [`Packet::encoded_len`] and encode pre-sizing never re-encode.
    fn body_len(&self) -> usize {
        match self {
            Frame::Request(r) => match r {
                Request::EndPullPhase { .. }
                | Request::Checkpoint { .. }
                | Request::ReadWeights { .. }
                | Request::SeqFence { .. }
                | Request::PlacementUpdate { .. }
                | Request::ExportEntry { .. }
                | Request::DiscardEntry { .. } => 8,
                Request::ImportEntry { payload, .. } => 8 + 8 + 4 + payload.len() * 4,
                Request::Committed
                | Request::Stats
                | Request::NumKeys
                | Request::Hello
                | Request::Metrics => 0,
            },
            Frame::Response(r) => match r {
                Response::Ack { .. } => COST_WIRE_LEN,
                Response::Maintenance { .. } => 8 + 8 + COST_WIRE_LEN,
                Response::Committed { .. } | Response::Count(_) => 8,
                Response::Stats(_) => 11 * 8,
                Response::MaybeWeights(w) => match w {
                    Some(w) => 1 + 4 + w.len() * 4,
                    None => 1,
                },
                Response::HelloOk { name, .. } => 4 + 4 + name.len(),
                Response::Metrics(text) => 4 + text.len(),
                Response::Entry(e) => match e {
                    Some((_, payload)) => 1 + 8 + 4 + payload.len() * 4,
                    None => 1,
                },
                Response::Error { message, .. } => 1 + 4 + message.len(),
            },
        }
    }

    fn encode_body(&self, body: &mut BytesMut) {
        match self {
            Frame::Request(r) => match r {
                Request::EndPullPhase { batch } | Request::Checkpoint { batch } => {
                    body.put_u64_le(*batch);
                }
                Request::ReadWeights { key } => body.put_u64_le(*key),
                Request::SeqFence { floor } => body.put_u64_le(*floor),
                Request::PlacementUpdate { epoch } => body.put_u64_le(*epoch),
                Request::ExportEntry { key } | Request::DiscardEntry { key } => {
                    body.put_u64_le(*key)
                }
                Request::ImportEntry {
                    key,
                    version,
                    payload,
                } => {
                    body.put_u64_le(*key);
                    body.put_u64_le(*version);
                    put_f32s(body, payload);
                }
                Request::Committed
                | Request::Stats
                | Request::NumKeys
                | Request::Hello
                | Request::Metrics => {}
            },
            Frame::Response(r) => match r {
                Response::Ack { cost } => put_cost(body, cost),
                Response::Maintenance {
                    entries,
                    commits,
                    cost,
                } => {
                    body.put_u64_le(*entries);
                    body.put_u64_le(*commits);
                    put_cost(body, cost);
                }
                Response::Committed { batch } => body.put_u64_le(*batch),
                Response::Stats(s) => {
                    for v in [
                        s.pulls,
                        s.hits,
                        s.misses,
                        s.new_entries,
                        s.pushes,
                        s.evictions,
                        s.flushes,
                        s.loads,
                        s.ckpt_commits,
                        s.ckpt_entries_written,
                        s.slots_recycled,
                    ] {
                        body.put_u64_le(v);
                    }
                }
                Response::MaybeWeights(w) => match w {
                    Some(w) => {
                        body.put_u8(1);
                        put_f32s(body, w);
                    }
                    None => body.put_u8(0),
                },
                Response::Count(n) => body.put_u64_le(*n),
                Response::HelloOk { dim, name } => {
                    body.put_u32_le(*dim);
                    body.put_u32_le(name.len() as u32);
                    body.put_slice(name.as_bytes());
                }
                Response::Metrics(text) => put_str(body, text),
                Response::Entry(e) => match e {
                    Some((version, payload)) => {
                        body.put_u8(1);
                        body.put_u64_le(*version);
                        put_f32s(body, payload);
                    }
                    None => body.put_u8(0),
                },
                Response::Error { kind, message } => {
                    body.put_u8(kind.code());
                    put_str(body, message);
                }
            },
        }
    }

    fn decode_body(msg_type: u8, body: &mut Bytes) -> Result<Frame, Error> {
        let frame = match msg_type {
            0x03 => Frame::Request(Request::EndPullPhase {
                batch: get_u64(body)?,
            }),
            0x04 => Frame::Request(Request::Checkpoint {
                batch: get_u64(body)?,
            }),
            0x05 => Frame::Request(Request::Committed),
            0x06 => Frame::Request(Request::Stats),
            0x07 => Frame::Request(Request::ReadWeights {
                key: get_u64(body)?,
            }),
            0x08 => Frame::Request(Request::NumKeys),
            0x09 => Frame::Request(Request::Hello),
            0x0A => Frame::Request(Request::Metrics),
            0x0B => Frame::Request(Request::SeqFence {
                floor: get_u64(body)?,
            }),
            0x0C => Frame::Request(Request::PlacementUpdate {
                epoch: get_u64(body)?,
            }),
            0x0D => Frame::Request(Request::ExportEntry {
                key: get_u64(body)?,
            }),
            0x0E => Frame::Request(Request::ImportEntry {
                key: get_u64(body)?,
                version: get_u64(body)?,
                payload: get_f32s(body)?,
            }),
            0x0F => Frame::Request(Request::DiscardEntry {
                key: get_u64(body)?,
            }),
            0x82 => Frame::Response(Response::Ack {
                cost: get_cost(body)?,
            }),
            0x83 => Frame::Response(Response::Maintenance {
                entries: get_u64(body)?,
                commits: get_u64(body)?,
                cost: get_cost(body)?,
            }),
            0x84 => Frame::Response(Response::Committed {
                batch: get_u64(body)?,
            }),
            0x85 => {
                let mut vals = [0u64; 11];
                for v in &mut vals {
                    *v = get_u64(body)?;
                }
                Frame::Response(Response::Stats(StatsSnapshot {
                    pulls: vals[0],
                    hits: vals[1],
                    misses: vals[2],
                    new_entries: vals[3],
                    pushes: vals[4],
                    evictions: vals[5],
                    flushes: vals[6],
                    loads: vals[7],
                    ckpt_commits: vals[8],
                    ckpt_entries_written: vals[9],
                    slots_recycled: vals[10],
                }))
            }
            0x86 => {
                if body.remaining() < 1 {
                    return Err(truncated());
                }
                let present = body.get_u8() == 1;
                Frame::Response(Response::MaybeWeights(if present {
                    Some(get_f32s(body)?)
                } else {
                    None
                }))
            }
            0x87 => Frame::Response(Response::Count(get_u64(body)?)),
            0x88 => {
                if body.remaining() < 8 {
                    return Err(truncated());
                }
                let dim = body.get_u32_le();
                let n = body.get_u32_le() as usize;
                if body.remaining() < n {
                    return Err(truncated());
                }
                let name = String::from_utf8_lossy(&body.copy_to_bytes(n)).into_owned();
                Frame::Response(Response::HelloOk { dim, name })
            }
            0x89 => Frame::Response(Response::Metrics(get_str(body)?)),
            0x8A => {
                if body.remaining() < 1 {
                    return Err(truncated());
                }
                let present = body.get_u8() == 1;
                Frame::Response(Response::Entry(if present {
                    Some((get_u64(body)?, get_f32s(body)?))
                } else {
                    None
                }))
            }
            0x8F => {
                if body.remaining() < 1 {
                    return Err(truncated());
                }
                let kind = ErrorKind::from_code(body.get_u8());
                Frame::Response(Response::Error {
                    kind,
                    message: get_str(body)?,
                })
            }
            // Bursts have no owned form (see the module docs): only
            // the views read them.
            0x01 | 0x02 | 0x81 => {
                return Err(Error::corrupt(format!(
                    "burst message type {msg_type:#04x} on the control decoder"
                )))
            }
            other => return Err(Error::corrupt(format!("unknown message type {other:#04x}"))),
        };
        Ok(frame)
    }
}

// --- packet encode/decode -----------------------------------------------

impl Packet {
    /// Wrap a request with its idempotence token.
    pub fn request(client: u32, seq: u64, req: Request) -> Self {
        Self {
            client,
            seq,
            frame: Frame::Request(req),
        }
    }

    /// Wrap a response, echoing the request's token.
    pub fn response(client: u32, seq: u64, resp: Response) -> Self {
        Self {
            client,
            seq,
            frame: Frame::Response(resp),
        }
    }

    /// Serialize to a wire packet (header + checksum + body). The body
    /// is encoded directly into the packet buffer — no staging buffer,
    /// no body copy — and the length/checksum header fields are patched
    /// in afterwards ([`Packet::seal`]): one allocation, one pass over
    /// the final bytes for the checksum.
    pub fn encode(&self) -> Bytes {
        let mut pkt = BytesMut::with_capacity(HEADER_LEN + self.frame.body_len());
        Self::put_header(&mut pkt, self.frame.msg_type(), self.client, self.seq);
        self.frame.encode_body(&mut pkt);
        Self::seal(pkt)
    }

    /// Write the fixed header with zeroed body-length and checksum
    /// fields; [`Packet::seal`] patches both once the body is in place.
    fn put_header(pkt: &mut BytesMut, msg_type: u8, client: u32, seq: u64) {
        pkt.put_u16_le(MAGIC);
        pkt.put_u8(VERSION);
        pkt.put_u8(msg_type);
        pkt.put_u32_le(client);
        pkt.put_u64_le(seq);
        pkt.put_u32_le(0); // body length, patched by seal()
        pkt.put_u64_le(0); // checksum, patched by seal()
    }

    /// Patch the body length and checksum into a buffer produced by
    /// [`Packet::put_header`] + body writes, and freeze it.
    fn seal(mut pkt: BytesMut) -> Bytes {
        let body_len = (pkt.len() - HEADER_LEN) as u32;
        pkt[16..20].copy_from_slice(&body_len.to_le_bytes());
        let checksum = frame_checksum(&pkt);
        pkt[20..28].copy_from_slice(&checksum.to_le_bytes());
        pkt.freeze()
    }

    /// Encode a pull burst (type `0x01`: epoch, batch, keys) straight
    /// from a borrowed key slice. `epoch` is the placement epoch the
    /// client routed under — the server rejects epochs older than its
    /// own (the keys may have migrated away); 0 = static placement.
    pub fn encode_pull(client: u32, seq: u64, epoch: u64, batch: BatchId, keys: &[Key]) -> Bytes {
        let mut pkt = BytesMut::with_capacity(HEADER_LEN + 20 + keys.len() * 8);
        Self::put_header(&mut pkt, 0x01, client, seq);
        pkt.put_u64_le(epoch);
        pkt.put_u64_le(batch);
        put_u64s(&mut pkt, keys);
        Self::seal(pkt)
    }

    /// Encode a push burst (type `0x02`: epoch, batch, keys, then
    /// `keys.len() × dim` gradients pre-aggregated per key) straight
    /// from borrowed slices.
    pub fn encode_push(
        client: u32,
        seq: u64,
        epoch: u64,
        batch: BatchId,
        keys: &[Key],
        grads: &[f32],
    ) -> Bytes {
        let mut pkt = BytesMut::with_capacity(HEADER_LEN + 24 + keys.len() * 8 + grads.len() * 4);
        Self::put_header(&mut pkt, 0x02, client, seq);
        pkt.put_u64_le(epoch);
        pkt.put_u64_le(batch);
        put_u64s(&mut pkt, keys);
        put_f32s(&mut pkt, grads);
        Self::seal(pkt)
    }

    /// Encode a weights reply (type `0x81`: `keys × dim` weights in
    /// request order, then the server-side charges) straight from a
    /// borrowed weight slice — the server's pull path answers from its
    /// reusable output buffer.
    pub fn encode_weights_response(client: u32, seq: u64, weights: &[f32], cost: &Cost) -> Bytes {
        let mut pkt = BytesMut::with_capacity(HEADER_LEN + 4 + weights.len() * 4 + COST_WIRE_LEN);
        Self::put_header(&mut pkt, 0x81, client, seq);
        put_f32s(&mut pkt, weights);
        put_cost(&mut pkt, cost);
        Self::seal(pkt)
    }

    /// Parse a control packet. Any malformed input — truncated header or
    /// body, trailing bytes, wrong magic/version, checksum mismatch,
    /// unknown message type, or a burst type (bursts are read by the
    /// views) — returns a structured [`Error`] of kind `Corrupt`; this
    /// function never panics on arbitrary bytes.
    pub fn decode(buf: Bytes) -> Result<Packet, Error> {
        let meta = validate_frame(&buf)?;
        let mut body = buf.slice(HEADER_LEN..HEADER_LEN + meta.body_len);
        let frame = Frame::decode_body(meta.msg_type, &mut body)?;
        Ok(Packet {
            client: meta.client,
            seq: meta.seq,
            frame,
        })
    }

    /// Wire size of the encoded packet (for network-cost charging),
    /// computed without encoding.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.frame.body_len()
    }
}

/// A validated frame header: the idempotence token, message type, and
/// body extent of a wire packet whose magic, version, length, and
/// checksum have all been verified. The body is
/// `buf[HEADER_LEN..HEADER_LEN + body_len]`; borrowed view decoders
/// ([`RequestView`], [`ResponseView`]) parse it in place.
#[derive(Debug, Clone, Copy)]
pub struct FrameMeta {
    /// Message-type discriminant.
    pub msg_type: u8,
    /// Issuing client id from the idempotence token.
    pub client: u32,
    /// Per-client sequence number from the idempotence token.
    pub seq: u64,
    /// Body length in bytes.
    pub body_len: usize,
}

/// Validate a frame's fixed header and checksum without materializing
/// anything: magic, version, exact length, and the integrity hash over
/// header-minus-checksum plus body. This is the single integrity pass
/// shared by the control decoder ([`Packet::decode`]) and the borrowed
/// view decoders.
pub fn validate_frame(buf: &[u8]) -> Result<FrameMeta, Error> {
    if buf.len() < HEADER_LEN {
        return Err(truncated());
    }
    if u16::from_le_bytes([buf[0], buf[1]]) != MAGIC {
        return Err(Error::corrupt("bad magic"));
    }
    let version = buf[2];
    if version != VERSION {
        return Err(Error::corrupt(format!(
            "protocol version {version}, expected {VERSION}"
        )));
    }
    let msg_type = buf[3];
    let client = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let seq = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let body_len = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")) as usize;
    let checksum = u64::from_le_bytes(buf[20..28].try_into().expect("8 bytes"));
    if buf.len() - HEADER_LEN < body_len {
        return Err(truncated());
    }
    // Bytes past the body are covered by no checksum.
    if buf.len() - HEADER_LEN > body_len {
        return Err(Error::corrupt("trailing bytes"));
    }
    if frame_checksum(buf) != checksum {
        return Err(Error::corrupt("checksum mismatch"));
    }
    Ok(FrameMeta {
        msg_type,
        client,
        seq,
        body_len,
    })
}

/// A borrowed, length-prefixed vector of little-endian `u64`s viewed
/// directly over frame bytes — the zero-copy decode of a key list. The
/// underlying bytes need not be 8-aligned; element access reads via
/// `from_le_bytes`.
#[derive(Debug, Clone, Copy)]
pub struct U64sView<'a> {
    bytes: &'a [u8],
}

impl<'a> U64sView<'a> {
    /// Split a length-prefixed u64 vector off the front of `buf`.
    fn split(buf: &mut &'a [u8]) -> Result<Self, Error> {
        if buf.len() < 4 {
            return Err(truncated());
        }
        let n = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
        let total = n.saturating_mul(8);
        if buf.len() - 4 < total {
            return Err(truncated());
        }
        let (head, rest) = buf[4..].split_at(total);
        *buf = rest;
        Ok(Self { bytes: head })
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.bytes.len() / 8
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The `i`-th element; panics if out of range (like slice indexing).
    pub fn get(&self, i: usize) -> u64 {
        u64::from_le_bytes(self.bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
    }

    /// Iterate the elements in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        self.bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
    }

    /// Append all elements to `out` (the one copy a zero-copy request
    /// takes: wire bytes → reusable scratch).
    pub fn extend_into(&self, out: &mut Vec<u64>) {
        out.reserve(self.len());
        out.extend(self.iter());
    }
}

/// A borrowed, length-prefixed vector of little-endian `f32`s viewed
/// directly over frame bytes — the zero-copy decode of a gradient or
/// weight burst.
#[derive(Debug, Clone, Copy)]
pub struct F32sView<'a> {
    bytes: &'a [u8],
}

impl<'a> F32sView<'a> {
    /// Split a length-prefixed f32 vector off the front of `buf`.
    fn split(buf: &mut &'a [u8]) -> Result<Self, Error> {
        if buf.len() < 4 {
            return Err(truncated());
        }
        let n = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
        let total = n.saturating_mul(4);
        if buf.len() - 4 < total {
            return Err(truncated());
        }
        let (head, rest) = buf[4..].split_at(total);
        *buf = rest;
        Ok(Self { bytes: head })
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.bytes.len() / 4
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The `i`-th element; panics if out of range (like slice indexing).
    pub fn get(&self, i: usize) -> f32 {
        f32::from_le_bytes(self.bytes[i * 4..i * 4 + 4].try_into().expect("4 bytes"))
    }

    /// Iterate the elements in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f32> + 'a {
        self.bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
    }

    /// Append all elements to `out`.
    pub fn extend_into(&self, out: &mut Vec<f32>) {
        out.reserve(self.len());
        out.extend(self.iter());
    }
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, Error> {
    if buf.len() < 8 {
        return Err(truncated());
    }
    let v = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
    *buf = &buf[8..];
    Ok(v)
}

/// A request decoded in place over a validated frame: the bursts
/// (`Pull`, `Push`) keep their key and gradient vectors as borrowed
/// views over the frame bytes; `Other` carries an owned control message
/// (they are small and rare).
#[derive(Debug)]
pub enum RequestView<'a> {
    /// Pull burst; `keys` borrows the frame.
    Pull {
        /// Placement epoch the client routed under.
        epoch: u64,
        /// Batch about to train.
        batch: BatchId,
        /// Keys to fetch, viewed over the frame bytes.
        keys: U64sView<'a>,
    },
    /// Push burst; `keys` and `grads` borrow the frame.
    Push {
        /// Placement epoch the client routed under.
        epoch: u64,
        /// Batch that produced the gradients.
        batch: BatchId,
        /// Updated keys, viewed over the frame bytes.
        keys: U64sView<'a>,
        /// Gradient values, viewed over the frame bytes.
        grads: F32sView<'a>,
    },
    /// A control request, decoded as owned data.
    Other(Request),
}

impl<'a> RequestView<'a> {
    /// Decode the body of a validated request frame. `buf` must be the
    /// same buffer `meta` was validated from.
    pub fn decode(meta: FrameMeta, buf: &'a Bytes) -> Result<Self, Error> {
        let mut body: &[u8] = &buf[HEADER_LEN..HEADER_LEN + meta.body_len];
        match meta.msg_type {
            0x01 => Ok(RequestView::Pull {
                epoch: take_u64(&mut body)?,
                batch: take_u64(&mut body)?,
                keys: U64sView::split(&mut body)?,
            }),
            0x02 => Ok(RequestView::Push {
                epoch: take_u64(&mut body)?,
                batch: take_u64(&mut body)?,
                keys: U64sView::split(&mut body)?,
                grads: F32sView::split(&mut body)?,
            }),
            mt => {
                let mut owned = buf.slice(HEADER_LEN..HEADER_LEN + meta.body_len);
                match Frame::decode_body(mt, &mut owned)? {
                    Frame::Request(r) => Ok(RequestView::Other(r)),
                    Frame::Response(_) => Err(Error::corrupt(format!(
                        "response type {mt:#04x} as request"
                    ))),
                }
            }
        }
    }

    /// Whether executing this request mutates server state (both bursts
    /// do; control messages answer [`Request::is_mutating`]).
    pub fn is_mutating(&self) -> bool {
        match self {
            RequestView::Pull { .. } | RequestView::Push { .. } => true,
            RequestView::Other(r) => r.is_mutating(),
        }
    }

    /// The placement epoch this burst was routed under, if it carries
    /// one.
    pub fn epoch(&self) -> Option<u64> {
        match self {
            RequestView::Pull { epoch, .. } | RequestView::Push { epoch, .. } => Some(*epoch),
            RequestView::Other(_) => None,
        }
    }
}

/// A response decoded in place over a validated frame: the `Weights`
/// burst keeps its weight vector as a borrowed view; `Other` carries an
/// owned control message.
#[derive(Debug)]
pub enum ResponseView<'a> {
    /// Pull result; `weights` borrows the frame.
    Weights {
        /// Weights in request order, viewed over the frame bytes.
        weights: F32sView<'a>,
        /// Server-side virtual-time charges.
        cost: Cost,
    },
    /// A control response, decoded as owned data.
    Other(Response),
}

impl<'a> ResponseView<'a> {
    /// Decode the body of a validated response frame. `buf` must be the
    /// same buffer `meta` was validated from.
    pub fn decode(meta: FrameMeta, buf: &'a Bytes) -> Result<Self, Error> {
        match meta.msg_type {
            0x81 => {
                let mut body: &[u8] = &buf[HEADER_LEN..HEADER_LEN + meta.body_len];
                let weights = F32sView::split(&mut body)?;
                if body.len() < COST_WIRE_LEN {
                    return Err(truncated());
                }
                let mut cost_bytes = buf.slice(HEADER_LEN..HEADER_LEN + meta.body_len);
                cost_bytes.advance(meta.body_len - body.len());
                let cost = get_cost(&mut cost_bytes)?;
                Ok(ResponseView::Weights { weights, cost })
            }
            mt => {
                let mut owned = buf.slice(HEADER_LEN..HEADER_LEN + meta.body_len);
                match Frame::decode_body(mt, &mut owned)? {
                    Frame::Response(r) => Ok(ResponseView::Other(r)),
                    Frame::Request(_) => Err(Error::corrupt(format!(
                        "request type {mt:#04x} as response"
                    ))),
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use oe_simdevice::CostKind;

    /// Owned copy of a pull reply — echoed token, weights, server
    /// charges — for the tests of this crate that drive a server with
    /// raw frames. Panics on anything but a valid weights frame.
    pub(crate) fn weights_reply(reply: &Bytes) -> ((u32, u64), Vec<f32>, Cost) {
        let meta = validate_frame(reply).expect("valid reply frame");
        match ResponseView::decode(meta, reply).expect("reply decodes") {
            ResponseView::Weights { weights, cost } => {
                ((meta.client, meta.seq), weights.iter().collect(), cost)
            }
            other => panic!("expected a weights reply, got {other:?}"),
        }
    }

    fn roundtrip(f: Frame) {
        let p = Packet {
            client: 3,
            seq: 99,
            frame: f,
        };
        let enc = p.encode();
        assert_eq!(p.encoded_len(), enc.len(), "analytic length is exact");
        let dec = Packet::decode(enc).expect("decodes");
        assert_eq!(dec, p);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip(Frame::Request(Request::EndPullPhase { batch: 1 }));
        roundtrip(Frame::Request(Request::Checkpoint { batch: 4 }));
        roundtrip(Frame::Request(Request::Committed));
        roundtrip(Frame::Request(Request::Stats));
        roundtrip(Frame::Request(Request::ReadWeights { key: 42 }));
        roundtrip(Frame::Request(Request::NumKeys));
        roundtrip(Frame::Request(Request::Hello));
        roundtrip(Frame::Request(Request::Metrics));
        roundtrip(Frame::Request(Request::SeqFence { floor: u64::MAX }));
        roundtrip(Frame::Request(Request::PlacementUpdate { epoch: 3 }));
        roundtrip(Frame::Request(Request::ExportEntry { key: 12 }));
        roundtrip(Frame::Request(Request::ImportEntry {
            key: 12,
            version: 40,
            payload: vec![1.5, -0.25, 0.0, 9.75],
        }));
        roundtrip(Frame::Request(Request::DiscardEntry { key: 12 }));
    }

    #[test]
    fn migration_family_cacheability() {
        // Import/discard mutate entry state → replay-cached; export is a
        // read and the epoch fence ratchets idempotently → neither cached.
        assert!(Request::ImportEntry {
            key: 1,
            version: 0,
            payload: vec![]
        }
        .is_mutating());
        assert!(Request::DiscardEntry { key: 1 }.is_mutating());
        assert!(!Request::ExportEntry { key: 1 }.is_mutating());
        assert!(!Request::PlacementUpdate { epoch: 9 }.is_mutating());
    }

    #[test]
    fn seq_fence_bypasses_the_replay_cache() {
        // The fence itself must never be cached: a replayed stale fence
        // could otherwise shadow a later, higher floor.
        assert!(!Request::SeqFence { floor: 7 }.is_mutating());
    }

    #[test]
    fn response_roundtrips() {
        let mut cost = Cost::new();
        cost.charge(CostKind::PmemRead, 305);
        cost.charge(CostKind::Cpu, 45);
        roundtrip(Frame::Response(Response::Ack { cost: cost.clone() }));
        roundtrip(Frame::Response(Response::Maintenance {
            entries: 100,
            commits: 1,
            cost,
        }));
        roundtrip(Frame::Response(Response::Committed { batch: 3 }));
        roundtrip(Frame::Response(Response::Stats(StatsSnapshot {
            pulls: 1,
            hits: 2,
            misses: 3,
            new_entries: 4,
            pushes: 5,
            evictions: 6,
            flushes: 7,
            loads: 8,
            ckpt_commits: 9,
            ckpt_entries_written: 10,
            slots_recycled: 11,
        })));
        roundtrip(Frame::Response(Response::MaybeWeights(Some(vec![9.0]))));
        roundtrip(Frame::Response(Response::MaybeWeights(None)));
        roundtrip(Frame::Response(Response::Count(77)));
        roundtrip(Frame::Response(Response::HelloOk {
            dim: 64,
            name: "PMem-OE".into(),
        }));
        roundtrip(Frame::Response(Response::Metrics(
            "# TYPE oe_pulls_total counter\noe_pulls_total 7\n".into(),
        )));
        roundtrip(Frame::Response(Response::Metrics(String::new())));
        roundtrip(Frame::Response(Response::Entry(Some((
            17,
            vec![0.5, -2.0, f32::MAX],
        )))));
        roundtrip(Frame::Response(Response::Entry(None)));
        roundtrip(Frame::Response(Response::Error {
            kind: ErrorKind::Corrupt,
            message: "bad magic".into(),
        }));
    }

    #[test]
    fn idempotence_token_roundtrips() {
        let p = Packet::request(0xDEAD_BEEF, u64::MAX - 1, Request::NumKeys);
        let dec = Packet::decode(p.encode()).unwrap();
        assert_eq!(dec.client, 0xDEAD_BEEF);
        assert_eq!(dec.seq, u64::MAX - 1);
        // Same logical request, same token → byte-identical frames
        // (what the replay cache relies on).
        assert_eq!(p.encode(), dec.encode());
        // A different seq changes the bytes (and the checksum).
        let p2 = Packet::request(0xDEAD_BEEF, 0, Request::NumKeys);
        assert_ne!(p.encode(), p2.encode());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut enc = BytesMut::from(&Packet::request(1, 1, Request::Hello).encode()[..]);
        enc[0] = 0;
        let err = Packet::decode(enc.freeze()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Corrupt);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut enc = BytesMut::from(&Packet::request(1, 1, Request::Hello).encode()[..]);
        // A newer peer, and protocol 3 (same header, another checksum):
        // both are refused by the version check before any checksum is
        // compared, with the version named.
        for version in [VERSION + 1, 3] {
            enc[2] = version;
            let err = Packet::decode(enc.clone().freeze()).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Corrupt);
            assert!(
                err.context()
                    .contains(&format!("protocol version {version}")),
                "{err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        // Bytes after the body are covered by no checksum: the frame
        // must be exactly header + body.
        let enc = Packet::request(2, 5, Request::ReadWeights { key: 9 }).encode();
        let mut long = BytesMut::from(&enc[..]);
        long.put_u8(0);
        let err = Packet::decode(long.freeze()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Corrupt);
        assert!(err.context().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn truncated_rejected() {
        let enc = Packet::encode_pull(2, 5, 0, 1, &[1, 2, 3]);
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN, enc.len() - 1] {
            let t = enc.slice(0..cut);
            let err = validate_frame(&t).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Corrupt, "cut at {cut}");
            let err = Packet::decode(t).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Corrupt, "cut at {cut}");
        }
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        // The checksum catches single bit flips anywhere in the packet —
        // including inside the f32 gradient body, where a flip would
        // otherwise decode cleanly and silently corrupt training.
        let enc = Packet::encode_push(1, 7, 0, 2, &[10, 11], &[0.25, -0.5, 1.0, 2.0]);
        validate_frame(&enc).expect("the unflipped frame is intact");
        for byte in 0..enc.len() {
            for bit in 0..8 {
                let mut flipped = BytesMut::from(&enc[..]);
                flipped[byte] ^= 1 << bit;
                let err = validate_frame(&flipped)
                    .expect_err(&format!("flip {byte}:{bit} must not validate"));
                assert_eq!(err.kind(), ErrorKind::Corrupt, "flip {byte}:{bit}");
            }
        }
    }

    #[test]
    fn unknown_type_rejected() {
        // Rebuild a packet with an unknown msg type and a valid
        // checksum: the type check must still reject it.
        let mut pkt = BytesMut::new();
        pkt.put_u16_le(MAGIC);
        pkt.put_u8(VERSION);
        pkt.put_u8(0x7F);
        pkt.put_u32_le(1);
        pkt.put_u64_le(1);
        pkt.put_u32_le(0);
        pkt.put_u64_le(0);
        let err = Packet::decode(Packet::seal(pkt)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Corrupt);
        assert!(err.context().contains("unknown message type"), "{err}");
    }

    #[test]
    fn burst_types_are_corrupt_on_the_control_decoder() {
        // Well-formed, correctly sealed burst frames: the control decoder
        // has no owned form to give them and must say so, not panic.
        let mut cost = Cost::new();
        cost.charge(CostKind::Net, 77);
        for (frame, msg_type) in [
            (Packet::encode_pull(1, 1, 0, 1, &[4, 5]), 0x01u8),
            (Packet::encode_push(1, 2, 0, 1, &[4], &[0.5; 4]), 0x02),
            (
                Packet::encode_weights_response(1, 3, &[0.5; 4], &cost),
                0x81,
            ),
        ] {
            assert_eq!(validate_frame(&frame).expect("sealed").msg_type, msg_type);
            let err = Packet::decode(frame).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Corrupt, "type {msg_type:#04x}");
            assert!(err.context().contains("burst message type"), "{err}");
        }
        // A hand-built frame with a burst type and no body at all.
        for msg_type in [0x01u8, 0x02, 0x81] {
            let mut pkt = BytesMut::new();
            Packet::put_header(&mut pkt, msg_type, 1, 1);
            let err = Packet::decode(Packet::seal(pkt)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Corrupt, "type {msg_type:#04x}");
        }
    }

    fn unhex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks_exact(2)
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn borrowed_encoders_emit_protocol_v4_bytes() {
        // Golden frames — magic, version, type, client, seq | body length
        // | checksum | body — produced at commit 6a68af9 by the owned
        // `Packet::request(..).encode()` / `Packet::response(..).encode()`
        // this crate had until PR 15. The borrow-encoders are the only
        // writers of these message types now; they must keep emitting
        // protocol v4 byte for byte.
        let pull = Packet::encode_pull(3, 41, 5, 9, &[1, u64::MAX]);
        assert_eq!(
            &pull[..],
            &unhex(
                "454f 04 01 03000000 2900000000000000  24000000  9674742759052229
                 0500000000000000 0900000000000000
                 02000000 0100000000000000 ffffffffffffffff"
            )[..]
        );
        let push = Packet::encode_push(3, 42, 5, 9, &[7], &[0.5, -1.25, 3.5e-9, f32::MAX]);
        assert_eq!(
            &push[..],
            &unhex(
                "454f 04 02 03000000 2a00000000000000  30000000  dd17692838603452
                 0500000000000000 0900000000000000
                 01000000 0700000000000000
                 04000000 0000003f 0000a0bf a7847031 ffff7f7f"
            )[..]
        );
        let mut cost = Cost::new();
        cost.charge(CostKind::Net, 77);
        cost.charge(CostKind::PmemRead, 305);
        let weights = Packet::encode_weights_response(3, 43, &[0.25, -9.5, 3.0], &cost);
        assert_eq!(
            &weights[..],
            &unhex(
                "454f 04 81 03000000 2b00000000000000  90000000  0a24e1951cda4aa4
                 03000000 0000803e 000018c1 00004040
                 0000000000000000 3101000000000000 0000000000000000 0000000000000000
                 0000000000000000 0000000000000000 4d00000000000000 0000000000000000
                 0000000000000000 0100000000000000 0000000000000000 0000000000000000
                 0000000000000000 0000000000000000 0100000000000000 0000000000000000"
            )[..]
        );
    }

    #[test]
    fn bulk_vector_writes_match_per_element_le_bytes() {
        // The in-place bulk copy must emit exactly the bytes of one
        // `to_le_bytes` per element — NaN payload bits included.
        for n in [0usize, 1, 7, 8, 9, 1023] {
            let u64s: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 56))
                .collect();
            let f32s: Vec<f32> = (0..n as u32)
                .map(|i| {
                    f32::from_bits(
                        i.wrapping_mul(0x9E37_79B9) | ((i % 3 == 0) as u32 * 0x7FC0_0001),
                    )
                })
                .collect();
            let mut want = (n as u32).to_le_bytes().to_vec();
            want.extend(u64s.iter().flat_map(|v| v.to_le_bytes()));
            want.extend((n as u32).to_le_bytes());
            want.extend(f32s.iter().flat_map(|v| v.to_le_bytes()));
            let mut got = BytesMut::from(&b"xyz"[..]); // appends, never overwrites
            put_u64s(&mut got, &u64s);
            put_f32s(&mut got, &f32s);
            assert_eq!(&got[..3], b"xyz");
            assert_eq!(&got[3..], &want[..], "n = {n}");
        }
    }

    #[test]
    fn request_views_read_back_the_encoded_burst() {
        let keys = [4u64, 5, 4, u64::MAX];
        let grads = [1.0f32, 2.0, -3.0, 0.5];
        let enc = Packet::encode_push(9, 11, 2, 3, &keys, &grads);
        let meta = validate_frame(&enc).expect("valid frame");
        assert_eq!((meta.client, meta.seq, meta.msg_type), (9, 11, 0x02));
        let RequestView::Push {
            epoch,
            batch,
            keys: kv,
            grads: gv,
        } = RequestView::decode(meta, &enc).expect("view decodes")
        else {
            panic!("wrong view");
        };
        assert_eq!((epoch, batch), (2, 3));
        assert_eq!(kv.iter().collect::<Vec<_>>(), keys);
        assert_eq!(gv.iter().collect::<Vec<_>>(), grads);
        assert_eq!(kv.get(3), u64::MAX);
        assert_eq!(gv.get(2), -3.0);
        let mut out = Vec::new();
        kv.extend_into(&mut out);
        assert_eq!(out, keys);
        // Control requests come back as owned data.
        let enc = Packet::request(9, 12, Request::SeqFence { floor: 6 }).encode();
        let meta = validate_frame(&enc).unwrap();
        let view = RequestView::decode(meta, &enc).unwrap();
        assert!(matches!(
            view,
            RequestView::Other(Request::SeqFence { floor: 6 })
        ));
        assert!(!view.is_mutating());
        assert_eq!(view.epoch(), None);
    }

    #[test]
    fn response_view_borrows_weights() {
        let mut cost = Cost::new();
        cost.charge(CostKind::DramTransfer, 12);
        let weights = [0.25f32, -9.5, 3.0];
        let enc = Packet::encode_weights_response(1, 2, &weights, &cost);
        let meta = validate_frame(&enc).unwrap();
        let ResponseView::Weights {
            weights: wv,
            cost: back,
        } = ResponseView::decode(meta, &enc).expect("view decodes")
        else {
            panic!("wrong view");
        };
        assert_eq!(wv.iter().collect::<Vec<_>>(), weights);
        assert_eq!(back, cost);
        // Control responses come back as owned data.
        let enc = Packet::response(1, 3, Response::Count(7)).encode();
        let meta = validate_frame(&enc).unwrap();
        assert!(matches!(
            ResponseView::decode(meta, &enc).unwrap(),
            ResponseView::Other(Response::Count(7))
        ));
    }

    #[test]
    fn view_decode_rejects_truncated_slices() {
        // A body whose length prefix promises more elements than the
        // frame carries must fail validation or view decode, never
        // panic. Build a push, then corrupt the key-count prefix upward
        // and re-seal so only the view parser can catch it.
        let enc = Packet::encode_push(1, 1, 0, 1, &[1, 2], &[0.5, 1.5]);
        let mut raw = BytesMut::from(&enc[..]);
        let count_at = HEADER_LEN + 16; // epoch + batch, then key count
        raw[count_at..count_at + 4].copy_from_slice(&1000u32.to_le_bytes());
        let buf = Packet::seal(raw);
        let meta = validate_frame(&buf).expect("frame-level checks pass");
        let err = RequestView::decode(meta, &buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Corrupt);
        assert!(
            Packet::decode(buf).is_err(),
            "control decoder refuses it too"
        );
    }

    #[test]
    fn cost_survives_the_wire_exactly() {
        let mut cost = Cost::new();
        cost.charge(CostKind::Serialized, 123);
        cost.charge(CostKind::Net, 456);
        cost.charge(CostKind::Net, 1);
        let p = Packet::response(1, 1, Response::Ack { cost: cost.clone() });
        let dec = Packet::decode(p.encode()).unwrap();
        let Frame::Response(Response::Ack { cost: back }) = dec.frame else {
            panic!("wrong frame");
        };
        assert_eq!(back, cost);
        assert_eq!(back.ops(CostKind::Net), 2);
    }
}
