//! Codec fuzzing: `Packet::decode` must never panic and must classify
//! every malformed input as a structured `Corrupt` error — truncations,
//! bit flips, and arbitrary garbage alike. The zero-copy view decoders
//! (`RequestView`, `ResponseView`) are held to the same bar *and* must
//! read back exactly the values a burst was encoded from. Seeded
//! proptest keeps the exploration reproducible.

use bytes::{Bytes, BytesMut};
use oe_net::{
    validate_frame, Error, ErrorKind, Frame, Packet, Request, RequestView, Response, ResponseView,
};
use proptest::prelude::*;

/// The path a burst takes on the server: frame validation, then the
/// request view.
fn view_decode(buf: &Bytes) -> Result<RequestView<'_>, Error> {
    RequestView::decode(validate_frame(buf)?, buf)
}

fn assert_corrupt(res: Result<Packet, Error>, what: &str) {
    match res {
        Ok(_) => {} // a mutation can cancel out or hit a valid encoding; fine
        Err(e) => assert_eq!(e.kind(), ErrorKind::Corrupt, "{what}: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        rng_algorithm: prop::test_runner::RngAlgorithm::ChaCha,
        ..ProptestConfig::default()
    })]

    /// Arbitrary bytes: decode never panics, never misclassifies.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        assert_corrupt(Packet::decode(Bytes::from(bytes)), "garbage");
    }

    /// Any prefix of a valid frame is a structured Corrupt error.
    #[test]
    fn truncation_is_structured(
        client in any::<u32>(),
        seq in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 0..32),
        cut_frac in 0.0f64..1.0,
    ) {
        let enc = Packet::encode_pull(client, seq, 0, 1, &keys);
        let cut = ((enc.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < enc.len());
        let cut = enc.slice(0..cut);
        let err = view_decode(&cut).expect_err("truncated must not decode");
        prop_assert_eq!(err.kind(), ErrorKind::Corrupt);
        let err = Packet::decode(cut).expect_err("truncated must not decode");
        prop_assert_eq!(err.kind(), ErrorKind::Corrupt);
    }

    /// A single flipped bit anywhere in a Push frame — header, keys, or
    /// the f32 gradient payload — is caught by the frame checksum.
    #[test]
    fn bit_flip_is_corrupt(
        seq in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 1..16),
        grads in prop::collection::vec(any::<f32>(), 1..64),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let enc = Packet::encode_push(7, seq, 0, 3, &keys, &grads);
        let byte = flip_byte.index(enc.len());
        let mut mutated = BytesMut::from(&enc[..]);
        mutated[byte] ^= 1 << flip_bit;
        let mutated = mutated.freeze();
        let err = view_decode(&mutated).expect_err("a flipped bit must not decode cleanly");
        prop_assert_eq!(err.kind(), ErrorKind::Corrupt);
        let err = Packet::decode(mutated).expect_err("a flipped bit must not decode cleanly");
        prop_assert_eq!(err.kind(), ErrorKind::Corrupt);
    }

    /// Bytes appended to a valid frame are covered by no checksum: both
    /// the control decoder and the view path refuse the frame as corrupt.
    #[test]
    fn trailing_bytes_are_corrupt(
        seq in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 0..16),
        tail in prop::collection::vec(any::<u8>(), 1..65),
    ) {
        for enc in [
            Packet::encode_pull(7, seq, 0, 3, &keys),
            Packet::request(7, seq, Request::ReadWeights { key: seq }).encode(),
        ] {
            let mut long = BytesMut::from(&enc[..]);
            long.extend_from_slice(&tail);
            let long = long.freeze();
            let err = validate_frame(&long).expect_err("view path must refuse trailing bytes");
            prop_assert_eq!(err.kind(), ErrorKind::Corrupt);
            prop_assert!(err.context().contains("trailing bytes"), "{}", err);
            let err = Packet::decode(long).expect_err("control path must refuse trailing bytes");
            prop_assert_eq!(err.kind(), ErrorKind::Corrupt);
            prop_assert!(err.context().contains("trailing bytes"), "{}", err);
        }
    }

    /// The idempotence token round-trips exactly, and re-encoding a
    /// decoded packet reproduces the original bytes — the byte-identity
    /// the server's replay cache relies on for retried requests.
    #[test]
    fn token_and_bytes_roundtrip(
        client in 1u32..,
        seq in any::<u64>(),
        version in any::<u64>(),
        eighths in prop::collection::vec(0u32..2000, 0..64),
    ) {
        // Finite payload values, so `==` on the decoded packet is exact.
        let payload = eighths.iter().map(|&v| (v as f32 - 1000.0) * 0.125).collect();
        let p = Packet::request(client, seq, Request::ImportEntry { key: seq, version, payload });
        let enc = p.encode();
        let dec = Packet::decode(enc.clone()).expect("valid frame decodes");
        prop_assert_eq!(dec.client, client);
        prop_assert_eq!(dec.seq, seq);
        prop_assert_eq!(&dec, &p);
        prop_assert_eq!(dec.encode(), enc);
    }

    /// Error responses survive the wire with their kind intact, so
    /// retryability classification crosses the boundary without string
    /// matching.
    #[test]
    fn error_kind_crosses_the_wire(
        code in 0u8..5,
        message in prop::collection::vec(any::<u8>(), 0..64)
            .prop_map(|v| String::from_utf8_lossy(&v).into_owned()),
    ) {
        let kind = ErrorKind::from_code(code);
        let p = Packet::response(0, 0, Response::Error { kind, message: message.clone() });
        let dec = Packet::decode(p.encode()).unwrap();
        let Frame::Response(Response::Error { kind: back, message: msg }) = dec.frame else {
            panic!("wrong frame");
        };
        prop_assert_eq!(back, kind);
        prop_assert_eq!(msg, message);
        prop_assert_eq!(back.is_retryable(), kind.is_retryable());
    }

    /// Arbitrary bytes through the zero-copy path: frame validation
    /// plus both view decoders never panic and never misclassify.
    #[test]
    fn garbage_never_panics_views(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let buf = Bytes::from(bytes);
        match validate_frame(&buf) {
            Err(e) => prop_assert_eq!(e.kind(), ErrorKind::Corrupt),
            Ok(meta) => {
                if let Err(e) = RequestView::decode(meta, &buf) {
                    prop_assert_eq!(e.kind(), ErrorKind::Corrupt);
                }
                if let Err(e) = ResponseView::decode(meta, &buf) {
                    prop_assert_eq!(e.kind(), ErrorKind::Corrupt);
                }
            }
        }
    }

    /// Bursts survive the wire exactly: for arbitrary inputs the
    /// borrow-encoded pull / push frame view-decodes to the token, epoch,
    /// batch, keys and gradient bits it was built from, and the control
    /// decoder refuses the same bytes as corrupt (a burst has no owned
    /// form).
    #[test]
    fn request_views_read_back_their_inputs(
        client in 1u32..,
        seq in any::<u64>(),
        epoch in any::<u64>(),
        batch in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 0..48),
        grads in prop::collection::vec(any::<f32>(), 0..96),
    ) {
        let pull = Packet::encode_pull(client, seq, epoch, batch, &keys);
        let meta = validate_frame(&pull).expect("valid frame");
        prop_assert_eq!((meta.client, meta.seq, meta.msg_type), (client, seq, 0x01));
        match RequestView::decode(meta, &pull).expect("view decodes") {
            RequestView::Pull { epoch: e, batch: b, keys: kv } => {
                prop_assert_eq!(e, epoch);
                prop_assert_eq!(b, batch);
                prop_assert_eq!(kv.len(), keys.len());
                let mut out = Vec::new();
                kv.extend_into(&mut out);
                prop_assert_eq!(&out, &keys);
            }
            other => prop_assert!(false, "wrong view: {other:?}"),
        }
        let err = Packet::decode(pull).expect_err("a burst has no owned form");
        prop_assert_eq!(err.kind(), ErrorKind::Corrupt);

        let push = Packet::encode_push(client, seq, epoch, batch, &keys, &grads);
        let meta = validate_frame(&push).expect("valid frame");
        prop_assert_eq!((meta.client, meta.seq, meta.msg_type), (client, seq, 0x02));
        match RequestView::decode(meta, &push).expect("view decodes") {
            RequestView::Push { epoch: e, batch: b, keys: kv, grads: gv } => {
                prop_assert_eq!((e, b), (epoch, batch));
                let collected: Vec<u64> = kv.iter().collect();
                prop_assert_eq!(&collected, &keys);
                let gbits: Vec<u32> = gv.iter().map(f32::to_bits).collect();
                let want: Vec<u32> = grads.iter().map(|g| g.to_bits()).collect();
                prop_assert_eq!(gbits, want, "gradients must survive bit-exactly");
            }
            other => prop_assert!(false, "wrong view: {other:?}"),
        }
        let err = Packet::decode(push).expect_err("a burst has no owned form");
        prop_assert_eq!(err.kind(), ErrorKind::Corrupt);
    }

    /// The weights reply reads back its inputs too, cost charges
    /// included, and is corrupt on the control decoder.
    #[test]
    fn weights_response_view_roundtrips(
        client in 1u32..,
        seq in any::<u64>(),
        weights in prop::collection::vec(any::<f32>(), 0..128),
        net_ns in 0u64..1_000_000,
        pmem_ns in 0u64..1_000_000,
    ) {
        let mut cost = oe_simdevice::Cost::new();
        cost.charge(oe_simdevice::CostKind::Net, net_ns);
        cost.charge(oe_simdevice::CostKind::PmemRead, pmem_ns);
        let enc = Packet::encode_weights_response(client, seq, &weights, &cost);
        let meta = validate_frame(&enc).expect("valid frame");
        prop_assert_eq!((meta.client, meta.seq, meta.msg_type), (client, seq, 0x81));
        match ResponseView::decode(meta, &enc).expect("view decodes") {
            ResponseView::Weights { weights: wv, cost: c } => {
                let wbits: Vec<u32> = wv.iter().map(f32::to_bits).collect();
                let want: Vec<u32> = weights.iter().map(|w| w.to_bits()).collect();
                prop_assert_eq!(wbits, want);
                prop_assert_eq!(c, cost);
            }
            other => prop_assert!(false, "wrong view: {other:?}"),
        }
        let err = Packet::decode(enc).expect_err("a burst has no owned form");
        prop_assert_eq!(err.kind(), ErrorKind::Corrupt);
    }

    /// A corrupted element-count prefix (pointing past the body) is a
    /// structured error from the view decoder, after re-sealing the
    /// checksum so only the length lies.
    #[test]
    fn view_rejects_lying_length_prefixes(
        keys in prop::collection::vec(any::<u64>(), 1..16),
        lie in 64u32..u32::MAX,
    ) {
        let enc = Packet::encode_pull(9, 9, 0, 1, &keys);
        let mut raw = BytesMut::from(&enc[..]);
        // Body layout: epoch u64 | batch u64 | count u32 | keys…;
        // the count sits 16 bytes into the body (header is 28 bytes).
        let count_at = 28 + 16;
        raw[count_at..count_at + 4].copy_from_slice(&lie.to_le_bytes());
        reseal(&mut raw);
        let buf = raw.freeze();
        let meta = validate_frame(&buf).expect("checksum was re-sealed");
        let err = RequestView::decode(meta, &buf).expect_err("lying count must not decode");
        prop_assert_eq!(err.kind(), ErrorKind::Corrupt);
        let err = Packet::decode(buf).expect_err("control decoder refuses it too");
        prop_assert_eq!(err.kind(), ErrorKind::Corrupt);
    }
}

/// Recompute and patch the frame checksum after a deliberate body
/// mutation, so tests can target the *structural* validation beneath
/// the checksum.
fn reseal(raw: &mut BytesMut) {
    let checksum = oe_simdevice::integrity_hash(&[&raw[..20], &raw[28..]]);
    raw[20..28].copy_from_slice(&checksum.to_le_bytes());
}
