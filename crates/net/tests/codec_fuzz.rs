//! Codec fuzzing: frame validation and the two view decoders
//! (`RequestView`, `ResponseView`) — the only ways a frame is read —
//! must never panic and must classify every malformed input as a
//! structured `Corrupt` error: truncations, bit flips, padded bodies
//! and arbitrary garbage alike. They must also read back exactly the
//! values a frame was encoded from. Every property runs [`CASES`]
//! generated inputs from a fixed seed; a failure names the case, which
//! replays it alone.

use bytes::Bytes;
use oe_core::stats::StatsSnapshot;
use oe_net::{
    validate_frame, Error, ErrorKind, Frame, Packet, Request, RequestView, Response, ResponseView,
};
use oe_simdevice::rng::Rng;
use oe_simdevice::{Cost, CostKind};
use std::ops::Range;

const CASES: u64 = 128;

/// Run `body` once per case, each on its own generator.
fn cases(salt: u64, mut body: impl FnMut(u64, &mut Rng)) {
    for case in 0..CASES {
        body(case, &mut Rng::seed_from_u64(salt + case));
    }
}

fn vec_of<T>(rng: &mut Rng, len: Range<u64>, item: impl Fn(&mut Rng) -> T) -> Vec<T> {
    let n = len.start + rng.below(len.end - len.start);
    (0..n).map(|_| item(rng)).collect()
}

fn bytes(rng: &mut Rng, len: Range<u64>) -> Vec<u8> {
    vec_of(rng, len, |r| r.next_u64() as u8)
}

fn u64s(rng: &mut Rng, len: Range<u64>) -> Vec<u64> {
    vec_of(rng, len, Rng::next_u64)
}

/// Arbitrary bit patterns: NaNs, infinities and subnormals included.
fn f32s(rng: &mut Rng, len: Range<u64>) -> Vec<f32> {
    vec_of(rng, len, |r| f32::from_bits(r.next_u64() as u32))
}

fn bits(v: impl IntoIterator<Item = f32>) -> Vec<u32> {
    v.into_iter().map(f32::to_bits).collect()
}

fn client_id(rng: &mut Rng) -> u32 {
    1 + rng.below(u32::MAX as u64) as u32
}

/// The path a request takes on the server: frame validation, then the
/// request view.
fn view_decode(buf: &[u8]) -> Result<RequestView<'_>, Error> {
    RequestView::decode(validate_frame(buf)?, buf)
}

/// The path a reply takes on the client: frame validation, then the
/// response view.
fn response_decode(buf: &[u8]) -> Result<ResponseView<'_>, Error> {
    ResponseView::decode(validate_frame(buf)?, buf)
}

/// A control response read back as an owned packet.
fn control_response(buf: &[u8]) -> Packet {
    let meta = validate_frame(buf).expect("valid frame");
    match ResponseView::decode(meta, buf).expect("valid frame decodes") {
        ResponseView::Other(r) => Packet::response(meta.client, meta.seq, r),
        other => panic!("expected a control response, got {other:?}"),
    }
}

fn assert_corrupt<T>(res: Result<T, Error>, what: &str) {
    match res {
        Ok(_) => {} // a mutation can cancel out or hit a valid encoding; fine
        Err(e) => assert_eq!(e.kind(), ErrorKind::Corrupt, "{what}: {e}"),
    }
}

/// A frame that must not decode, on either view.
fn assert_refused(buf: &[u8], what: &str) {
    let err = view_decode(buf).expect_err(what);
    assert_eq!(err.kind(), ErrorKind::Corrupt, "{what}: {err}");
    let err = response_decode(buf).map(drop).expect_err(what);
    assert_eq!(err.kind(), ErrorKind::Corrupt, "{what}: {err}");
}

/// Every message type the codec knows, bursts included.
const MSG_TYPES: [u8; 21] = [
    0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x81, 0x82, 0x83, 0x84, 0x85,
    0x86, 0x87, 0x88, 0x89, 0x8F,
];

/// Arbitrary bodies behind a valid seal and a known message type, so
/// every byte reaches the body reader: decode never panics, never
/// misclassifies.
#[test]
fn garbage_never_panics() {
    cases(0x6A5B_0000, |case, rng| {
        let msg_type = MSG_TYPES[rng.below(MSG_TYPES.len() as u64) as usize];
        let buf = sealed(msg_type, &bytes(rng, 0..512));
        let what = format!("case {case}: garbage body of type {msg_type:#04x}");
        assert_corrupt(view_decode(&buf), &what);
        assert_corrupt(response_decode(&buf), &what);
    });
}

/// Any prefix of a valid frame is a structured Corrupt error.
#[test]
fn truncation_is_structured() {
    cases(0x7C07_0000, |case, rng| {
        let (client, seq) = (rng.next_u64() as u32, rng.next_u64());
        let enc = Packet::encode_pull(client, seq, 1, &u64s(rng, 0..32));
        let cut = rng.below(enc.len() as u64) as usize;
        assert_refused(
            &enc[..cut],
            &format!("case {case}: cut at {cut} must not decode"),
        );
    });
}

/// A single flipped bit anywhere in a Push frame — header, keys, or
/// the f32 gradient payload — is caught by the frame checksum.
#[test]
fn bit_flip_is_corrupt() {
    cases(0xF11B_0000, |case, rng| {
        let seq = rng.next_u64();
        let enc = Packet::encode_push(7, seq, 3, &u64s(rng, 1..16), &f32s(rng, 1..64));
        let (byte, bit) = (rng.below(enc.len() as u64) as usize, rng.below(8));
        let mut mutated = enc.to_vec();
        mutated[byte] ^= 1 << bit;
        assert_refused(
            &mutated,
            &format!("case {case}: bit {bit} of byte {byte} flipped must not decode cleanly"),
        );
    });
}

/// Bytes appended to a valid frame are covered by no checksum: both
/// views refuse the frame as corrupt.
#[test]
fn trailing_bytes_are_corrupt() {
    cases(0x7A11_0000, |case, rng| {
        let seq = rng.next_u64();
        let keys = u64s(rng, 0..16);
        let tail = bytes(rng, 1..65);
        for enc in [
            Packet::encode_pull(7, seq, 3, &keys),
            Packet::request(7, seq, Request::ReadWeights { key: seq }).encode(),
        ] {
            let long = [&enc[..], &tail].concat();
            let err = validate_frame(&long).expect_err("validation must refuse trailing bytes");
            assert_eq!(err.kind(), ErrorKind::Corrupt, "case {case}");
            assert!(
                err.context().contains("trailing bytes"),
                "case {case}: {err}"
            );
            assert_refused(&long, &format!("case {case}: trailing bytes"));
        }
    });
}

/// The idempotence token round-trips exactly, and re-encoding a
/// decoded packet reproduces the original bytes — the byte-identity
/// the server's replay cache relies on for retried requests. The frame
/// carries a length-prefixed f32 vector, the one variable-length
/// numeric body of a control message.
#[test]
fn token_and_bytes_roundtrip() {
    cases(0x70CE_0000, |case, rng| {
        let (client, seq) = (client_id(rng), rng.next_u64());
        // Finite weight values, so `==` on the decoded packet is exact.
        let weights = vec_of(rng, 0..64, |r| (r.below(2000) as f32 - 1000.0) * 0.125);
        let p = Packet::response(client, seq, Response::MaybeWeights(Some(weights)));
        let enc = p.encode();
        let dec = control_response(&enc);
        assert_eq!((dec.client, dec.seq), (client, seq), "case {case}");
        assert_eq!(dec, p, "case {case}");
        assert_eq!(dec.encode(), enc, "case {case}");
    });
}

/// Error responses survive the wire with their kind intact, so
/// retryability classification crosses the boundary without string
/// matching.
#[test]
fn error_kind_crosses_the_wire() {
    cases(0xE220_0000, |case, rng| {
        let kind = ErrorKind::from_code(rng.below(5) as u8);
        let message = String::from_utf8_lossy(&bytes(rng, 0..64)).into_owned();
        let p = Packet::response(
            0,
            0,
            Response::Error {
                kind,
                message: message.clone(),
            },
        );
        let Frame::Response(Response::Error {
            kind: back,
            message: msg,
        }) = control_response(&p.encode()).frame
        else {
            panic!("case {case}: wrong frame");
        };
        assert_eq!((back, msg), (kind, message), "case {case}");
        assert_eq!(back.is_retryable(), kind.is_retryable(), "case {case}");
    });
}

/// Arbitrary bytes through the zero-copy path: frame validation
/// plus both view decoders never panic and never misclassify.
#[test]
fn garbage_never_panics_views() {
    cases(0x6A5C_0000, |case, rng| {
        let buf = bytes(rng, 0..512);
        match validate_frame(&buf) {
            Err(e) => assert_eq!(e.kind(), ErrorKind::Corrupt, "case {case}: {e}"),
            Ok(meta) => {
                assert_corrupt(RequestView::decode(meta, &buf), &format!("case {case}"));
                assert_corrupt(ResponseView::decode(meta, &buf), &format!("case {case}"));
            }
        }
    });
}

/// Bursts survive the wire exactly: for arbitrary inputs the
/// borrow-encoded pull / push frame view-decodes to the token, batch,
/// keys and gradient bits it was built from, and the response view
/// refuses the same bytes as corrupt (a burst has no owned form).
#[test]
fn request_views_read_back_their_inputs() {
    cases(0x4EAD_0000, |case, rng| {
        let (client, seq) = (client_id(rng), rng.next_u64());
        let batch = rng.next_u64();
        let keys = u64s(rng, 0..48);
        let grads = f32s(rng, 0..96);

        let pull = Packet::encode_pull(client, seq, batch, &keys);
        let meta = validate_frame(&pull).expect("valid frame");
        assert_eq!(
            (meta.client, meta.seq, meta.msg_type),
            (client, seq, 0x01),
            "case {case}"
        );
        match RequestView::decode(meta, &pull).expect("view decodes") {
            RequestView::Pull { batch: b, keys: kv } => {
                assert_eq!((b, kv.len()), (batch, keys.len()), "case {case}");
                let mut out = Vec::new();
                kv.extend_into(&mut out);
                assert_eq!(out, keys, "case {case}");
            }
            other => panic!("case {case}: wrong view: {other:?}"),
        }
        // The reserved word is skipped, whatever a peer stamped there.
        let stamped = with_reserved(&pull, rng.next_u64());
        match view_decode(&stamped).expect("a stamped pull decodes") {
            RequestView::Pull { batch: b, keys: kv } => {
                assert_eq!(
                    (b, kv.iter().collect::<Vec<u64>>()),
                    (batch, keys.clone()),
                    "case {case}"
                );
            }
            other => panic!("case {case}: wrong view: {other:?}"),
        }
        let err = response_decode(&pull).expect_err("a burst has no owned form");
        assert_eq!(err.kind(), ErrorKind::Corrupt, "case {case}");

        let push = Packet::encode_push(client, seq, batch, &keys, &grads);
        let meta = validate_frame(&push).expect("valid frame");
        assert_eq!(
            (meta.client, meta.seq, meta.msg_type),
            (client, seq, 0x02),
            "case {case}"
        );
        match RequestView::decode(meta, &push).expect("view decodes") {
            RequestView::Push {
                batch: b,
                keys: kv,
                grads: gv,
            } => {
                assert_eq!(b, batch, "case {case}");
                assert_eq!(kv.iter().collect::<Vec<u64>>(), keys, "case {case}");
                assert_eq!(
                    bits(gv.iter()),
                    bits(grads.iter().copied()),
                    "case {case}: gradients must survive bit-exactly"
                );
            }
            other => panic!("case {case}: wrong view: {other:?}"),
        }
        let stamped = with_reserved(&push, rng.next_u64());
        match view_decode(&stamped).expect("a stamped push decodes") {
            RequestView::Push {
                batch: b,
                keys: kv,
                grads: gv,
            } => {
                assert_eq!(b, batch, "case {case}");
                assert_eq!(kv.iter().collect::<Vec<u64>>(), keys, "case {case}");
                assert_eq!(bits(gv.iter()), bits(grads.iter().copied()), "case {case}");
            }
            other => panic!("case {case}: wrong view: {other:?}"),
        }
        let err = response_decode(&push).expect_err("a burst has no owned form");
        assert_eq!(err.kind(), ErrorKind::Corrupt, "case {case}");
    });
}

/// The weights reply reads back its inputs too, cost charges
/// included, and is corrupt on the request view.
#[test]
fn weights_response_view_roundtrips() {
    cases(0x3E16_0000, |case, rng| {
        let (client, seq) = (client_id(rng), rng.next_u64());
        let weights = f32s(rng, 0..128);
        let mut cost = Cost::new();
        cost.charge(CostKind::Net, rng.below(1_000_000));
        cost.charge(CostKind::PmemRead, rng.below(1_000_000));
        let enc = Packet::encode_weights_response(client, seq, &weights, &cost);
        let meta = validate_frame(&enc).expect("valid frame");
        assert_eq!(
            (meta.client, meta.seq, meta.msg_type),
            (client, seq, 0x81),
            "case {case}"
        );
        match ResponseView::decode(meta, &enc).expect("view decodes") {
            ResponseView::Weights {
                weights: wv,
                cost: c,
            } => {
                assert_eq!(
                    bits(wv.iter()),
                    bits(weights.iter().copied()),
                    "case {case}"
                );
                assert_eq!(c, cost, "case {case}");
            }
            other => panic!("case {case}: wrong view: {other:?}"),
        }
        let err = view_decode(&enc).expect_err("a burst has no owned form");
        assert_eq!(err.kind(), ErrorKind::Corrupt, "case {case}");
    });
}

/// A valid body with 1–64 bytes appended, re-sealed so the frame
/// itself is intact, is refused as corrupt by both views, for every
/// request and response type: each message is read to its last byte.
#[test]
fn padded_bodies_are_corrupt() {
    cases(0x9AD5_0000, |case, rng| {
        let (client, seq, n) = (client_id(rng), rng.next_u64(), rng.next_u64());
        let keys = u64s(rng, 0..16);
        let grads = f32s(rng, 0..32);
        let mut cost = Cost::new();
        cost.charge(CostKind::Net, rng.below(1_000_000));
        let text = String::from_utf8_lossy(&bytes(rng, 0..32)).into_owned();
        let requests = [
            Request::EndPullPhase { batch: n },
            Request::Checkpoint { batch: n },
            Request::Committed,
            Request::Stats,
            Request::ReadWeights { key: n },
            Request::NumKeys,
            Request::Hello,
            Request::Metrics,
            Request::SeqFence { floor: n },
        ];
        let responses = [
            Response::Ack { cost: cost.clone() },
            Response::Maintenance {
                entries: n,
                commits: n >> 32,
                cost: cost.clone(),
            },
            Response::Committed { batch: n },
            Response::Stats(StatsSnapshot {
                pulls: n,
                ..StatsSnapshot::default()
            }),
            Response::MaybeWeights(Some(grads.clone())),
            Response::MaybeWeights(None),
            Response::Count(n),
            Response::HelloOk {
                dim: n as u32,
                name: text.clone(),
            },
            Response::Metrics(text.clone()),
            Response::Error {
                kind: ErrorKind::from_code(rng.below(5) as u8),
                message: text,
            },
        ];
        let frames = [
            Packet::encode_pull(client, seq, n, &keys),
            Packet::encode_push(client, seq, n, &keys, &grads),
            Packet::encode_weights_response(client, seq, &grads, &cost),
        ]
        .into_iter()
        .chain(requests.map(|r| Packet::request(client, seq, r).encode()))
        .chain(responses.map(|r| Packet::response(client, seq, r).encode()));
        let mut types = Vec::new();
        for frame in frames {
            let msg_type = frame[3];
            let what = format!("case {case}: type {msg_type:#04x}");
            // As encoded, the frame decodes on its own side.
            if msg_type < 0x80 {
                view_decode(&frame).expect(&what);
            } else {
                response_decode(&frame).expect(&what);
            }
            let padded = [&frame[28..], &bytes(rng, 1..65)].concat();
            assert_refused(&sealed(msg_type, &padded), &format!("{what} padded"));
            types.push(msg_type);
        }
        types.sort_unstable();
        types.dedup();
        assert_eq!(types, MSG_TYPES, "every message type is padded");
    });
}

/// A corrupted element-count prefix (pointing past the body) is a
/// structured error from the view decoder, after re-sealing the
/// checksum so only the length lies.
#[test]
fn view_rejects_lying_length_prefixes() {
    cases(0x11E5_0000, |case, rng| {
        let enc = Packet::encode_pull(9, 9, 1, &u64s(rng, 1..16));
        let lie = 64 + rng.below((u32::MAX - 64) as u64) as u32;
        let mut raw = enc.to_vec();
        // Body layout: reserved u64 | batch u64 | count u32 | keys…;
        // the count sits 16 bytes into the body (header is 28 bytes).
        let count_at = 28 + 16;
        raw[count_at..count_at + 4].copy_from_slice(&lie.to_le_bytes());
        reseal(&mut raw);
        validate_frame(&raw).expect("checksum was re-sealed");
        assert_refused(
            &raw,
            &format!("case {case}: a count of {lie} must not decode"),
        );
    });
}

/// `frame` with `word` in the burst body's reserved first word,
/// re-sealed: what a peer that still stamps that word sends.
fn with_reserved(frame: &Bytes, word: u64) -> Vec<u8> {
    let mut raw = frame.to_vec();
    raw[28..36].copy_from_slice(&word.to_le_bytes());
    reseal(&mut raw);
    raw
}

/// Recompute and patch the frame checksum after a deliberate body
/// mutation, so tests can target the *structural* validation beneath
/// the checksum.
fn reseal(raw: &mut [u8]) {
    let checksum = oe_simdevice::integrity_hash(&[&raw[..20], &raw[28..]]);
    raw[20..28].copy_from_slice(&checksum.to_le_bytes());
}

/// A frame of `msg_type` around `body`, with a matching length field
/// and checksum: what a peer that writes a wrong body sends.
fn sealed(msg_type: u8, body: &[u8]) -> Vec<u8> {
    let mut raw = [&[0x45, 0x4F, 4, msg_type][..], &[0; 24], body].concat();
    raw[16..20].copy_from_slice(&(body.len() as u32).to_le_bytes());
    reseal(&mut raw);
    raw
}
