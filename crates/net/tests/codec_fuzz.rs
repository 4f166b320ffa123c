//! Codec fuzzing: `Packet::decode` must never panic and must classify
//! every malformed input as a structured `Corrupt` error — truncations,
//! bit flips, and arbitrary garbage alike. The zero-copy view decoders
//! (`RequestView`, `ResponseView`) are held to the same bar *and* must
//! read back exactly the values a burst was encoded from. Every property
//! runs [`CASES`] generated inputs from a fixed seed; a failure names the
//! case, which replays it alone.

use bytes::{Bytes, BytesMut};
use oe_net::{
    validate_frame, Error, ErrorKind, Frame, Packet, Request, RequestView, Response, ResponseView,
};
use oe_simdevice::rng::Rng;
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

/// The path a burst takes on the server: frame validation, then the
/// request view.
fn view_decode(buf: &Bytes) -> Result<RequestView<'_>, Error> {
    RequestView::decode(validate_frame(buf)?, buf)
}

fn assert_corrupt<T>(res: Result<T, Error>, what: &str) {
    match res {
        Ok(_) => {} // a mutation can cancel out or hit a valid encoding; fine
        Err(e) => assert_eq!(e.kind(), ErrorKind::Corrupt, "{what}: {e}"),
    }
}

/// A frame that must not decode, on either path.
fn assert_refused(buf: Bytes, what: &str) {
    let err = view_decode(&buf).expect_err(what);
    assert_eq!(err.kind(), ErrorKind::Corrupt, "{what}: {err}");
    let err = Packet::decode(buf).expect_err(what);
    assert_eq!(err.kind(), ErrorKind::Corrupt, "{what}: {err}");
}

/// Arbitrary bytes: decode never panics, never misclassifies.
#[test]
fn garbage_never_panics() {
    cases(0x6A5B_0000, |case, rng| {
        let garbage = Bytes::from(bytes(rng, 0..512));
        assert_corrupt(Packet::decode(garbage), &format!("case {case}: garbage"));
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
            enc.slice(0..cut),
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
        let mut mutated = BytesMut::from(&enc[..]);
        mutated[byte] ^= 1 << bit;
        assert_refused(
            mutated.freeze(),
            &format!("case {case}: bit {bit} of byte {byte} flipped must not decode cleanly"),
        );
    });
}

/// Bytes appended to a valid frame are covered by no checksum: both
/// the control decoder and the view path refuse the frame as corrupt.
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
            let mut long = BytesMut::from(&enc[..]);
            long.extend_from_slice(&tail);
            let long = long.freeze();
            let err = validate_frame(&long).expect_err("view path must refuse trailing bytes");
            assert_eq!(err.kind(), ErrorKind::Corrupt, "case {case}");
            assert!(
                err.context().contains("trailing bytes"),
                "case {case}: {err}"
            );
            let err = Packet::decode(long).expect_err("control path must refuse trailing bytes");
            assert_eq!(err.kind(), ErrorKind::Corrupt, "case {case}");
            assert!(
                err.context().contains("trailing bytes"),
                "case {case}: {err}"
            );
        }
    });
}

/// The idempotence token round-trips exactly, and re-encoding a
/// decoded packet reproduces the original bytes — the byte-identity
/// the server's replay cache relies on for retried requests. The frame
/// carries a length-prefixed f32 vector, the owned codec's one
/// variable-length numeric body.
#[test]
fn token_and_bytes_roundtrip() {
    cases(0x70CE_0000, |case, rng| {
        let (client, seq) = (client_id(rng), rng.next_u64());
        // Finite weight values, so `==` on the decoded packet is exact.
        let weights = vec_of(rng, 0..64, |r| (r.below(2000) as f32 - 1000.0) * 0.125);
        let p = Packet::response(client, seq, Response::MaybeWeights(Some(weights)));
        let enc = p.encode();
        let dec = Packet::decode(enc.clone()).expect("valid frame decodes");
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
        let dec = Packet::decode(p.encode()).unwrap();
        let Frame::Response(Response::Error {
            kind: back,
            message: msg,
        }) = dec.frame
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
        let buf = Bytes::from(bytes(rng, 0..512));
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
/// keys and gradient bits it was built from, and the control decoder
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
        let err = Packet::decode(pull).expect_err("a burst has no owned form");
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
        let err = Packet::decode(push).expect_err("a burst has no owned form");
        assert_eq!(err.kind(), ErrorKind::Corrupt, "case {case}");
    });
}

/// The weights reply reads back its inputs too, cost charges
/// included, and is corrupt on the control decoder.
#[test]
fn weights_response_view_roundtrips() {
    cases(0x3E16_0000, |case, rng| {
        let (client, seq) = (client_id(rng), rng.next_u64());
        let weights = f32s(rng, 0..128);
        let mut cost = oe_simdevice::Cost::new();
        cost.charge(oe_simdevice::CostKind::Net, rng.below(1_000_000));
        cost.charge(oe_simdevice::CostKind::PmemRead, rng.below(1_000_000));
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
        let err = Packet::decode(enc).expect_err("a burst has no owned form");
        assert_eq!(err.kind(), ErrorKind::Corrupt, "case {case}");
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
        let mut raw = BytesMut::from(&enc[..]);
        // Body layout: reserved u64 | batch u64 | count u32 | keys…;
        // the count sits 16 bytes into the body (header is 28 bytes).
        let count_at = 28 + 16;
        raw[count_at..count_at + 4].copy_from_slice(&lie.to_le_bytes());
        reseal(&mut raw);
        let buf = raw.freeze();
        validate_frame(&buf).expect("checksum was re-sealed");
        assert_refused(
            buf,
            &format!("case {case}: a count of {lie} must not decode"),
        );
    });
}

/// `frame` with `word` in the burst body's reserved first word,
/// re-sealed: what a peer that still stamps that word sends.
fn with_reserved(frame: &Bytes, word: u64) -> Bytes {
    let mut raw = BytesMut::from(&frame[..]);
    raw[28..36].copy_from_slice(&word.to_le_bytes());
    reseal(&mut raw);
    raw.freeze()
}

/// Recompute and patch the frame checksum after a deliberate body
/// mutation, so tests can target the *structural* validation beneath
/// the checksum.
fn reseal(raw: &mut BytesMut) {
    let checksum = oe_simdevice::integrity_hash(&[&raw[..20], &raw[28..]]);
    raw[20..28].copy_from_slice(&checksum.to_le_bytes());
}
