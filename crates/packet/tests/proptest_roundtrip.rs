//! Property-based tests: arbitrary packets survive the packed binary
//! codec and batching unchanged, and arbitrary byte soup never panics
//! the decoder.

use bytes::Bytes;
use mrnet_packet::{
    decode_batch, decode_batch_lazy, decode_packet, encode_batch, encode_packet, FormatString,
    Packet, PacketBuilder, TypeCode, Value,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<u8>().prop_map(Value::Char),
        any::<i32>().prop_map(Value::Int32),
        any::<u32>().prop_map(Value::UInt32),
        any::<i64>().prop_map(Value::Int64),
        any::<u64>().prop_map(Value::UInt64),
        any::<f32>().prop_map(Value::Float),
        any::<f64>().prop_map(Value::Double),
        ".{0,40}".prop_map(Value::Str),
    ]
}

fn arb_array() -> impl Strategy<Value = Value> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..50).prop_map(Value::CharArray),
        proptest::collection::vec(any::<i32>(), 0..50).prop_map(Value::Int32Array),
        proptest::collection::vec(any::<u32>(), 0..50).prop_map(Value::UInt32Array),
        proptest::collection::vec(any::<i64>(), 0..50).prop_map(Value::Int64Array),
        proptest::collection::vec(any::<u64>(), 0..50).prop_map(Value::UInt64Array),
        proptest::collection::vec(any::<f32>(), 0..50).prop_map(Value::FloatArray),
        proptest::collection::vec(any::<f64>(), 0..50).prop_map(Value::DoubleArray),
        proptest::collection::vec(".{0,10}".prop_map(String::from), 0..10)
            .prop_map(Value::StrArray),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![arb_scalar(), arb_array()]
}

prop_compose! {
    fn arb_packet()(
        stream_id in any::<u32>(),
        tag in any::<i32>(),
        src in any::<u32>(),
        values in proptest::collection::vec(arb_value(), 0..8),
    ) -> Packet {
        let codes: Vec<_> = values.iter().map(Value::type_code).collect();
        let fmt = FormatString::from_codes(codes);
        Packet::new(stream_id, tag, fmt, values).unwrap().with_src(src)
    }
}

// NaN-aware equality: the codec must preserve bit patterns for normal
// floats; NaN payload bits may legally differ only in representation we
// don't use, so compare via to_bits.
fn values_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        (Value::FloatArray(x), Value::FloatArray(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Value::DoubleArray(x), Value::DoubleArray(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => a == b,
    }
}

/// Every float class `any` covers, plus raw bit patterns: quiet and
/// signalling NaN payloads of either sign.
fn arb_f32() -> impl Strategy<Value = f32> {
    prop_oneof![any::<f32>(), any::<u32>().prop_map(f32::from_bits)]
}

fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![any::<f64>(), any::<u64>().prop_map(f64::from_bits)]
}

/// Checks that the one-array packet built from `value` encodes to the
/// reference wire form, written element by element with
/// `to_le_bytes`, and decodes back bit for bit.
fn check_array_wire<const N: usize>(
    value: Value,
    code: TypeCode,
    elems: &[[u8; N]],
) -> Result<(), TestCaseError> {
    let mut reference = vec![0u8; 12]; // stream id, tag, src
    reference.extend_from_slice(&1u16.to_le_bytes());
    reference.push(code.tag());
    reference.extend_from_slice(&(elems.len() as u32).to_le_bytes());
    for e in elems {
        reference.extend_from_slice(e);
    }
    let wire = encode_packet(&PacketBuilder::new(0, 0).push(value.clone()).build());
    prop_assert_eq!(&wire[..], &reference[..]);
    let back = decode_packet(wire).unwrap();
    prop_assert!(values_eq(&back.values()[0], &value), "{:?}", back.values());
    Ok(())
}

fn packets_eq(a: &Packet, b: &Packet) -> bool {
    a.stream_id() == b.stream_id()
        && a.tag() == b.tag()
        && a.src() == b.src()
        && a.fmt() == b.fmt()
        && a.values().len() == b.values().len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| values_eq(x, y))
}

proptest! {
    #[test]
    fn packet_codec_round_trip(packet in arb_packet()) {
        let decoded = decode_packet(encode_packet(&packet)).unwrap();
        prop_assert!(packets_eq(&packet, &decoded));
    }

    #[test]
    fn batch_codec_round_trip(packets in proptest::collection::vec(arb_packet(), 0..10)) {
        let decoded = decode_batch(encode_batch(&packets)).unwrap();
        prop_assert_eq!(decoded.len(), packets.len());
        for (a, b) in packets.iter().zip(&decoded) {
            prop_assert!(packets_eq(a, b));
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any result is fine; panics/aborts are not.
        let _ = decode_packet(Bytes::from(bytes.clone()));
        let _ = decode_batch(Bytes::from(bytes));
    }

    #[test]
    fn format_string_canonical_round_trip(codes in proptest::collection::vec(0u8..16, 0..12)) {
        let codes: Vec<_> = codes
            .into_iter()
            .map(|t| mrnet_packet::TypeCode::from_tag(t).unwrap())
            .collect();
        let fmt = FormatString::from_codes(codes.clone());
        let reparsed = FormatString::parse(&fmt.to_string()).unwrap();
        prop_assert_eq!(reparsed.codes(), &codes[..]);
    }

    #[test]
    fn lazy_and_eager_decode_are_observationally_equivalent(
        packets in proptest::collection::vec(arb_packet(), 0..10),
    ) {
        // Same batch bytes through both decoders: every header field,
        // format string, and value must agree for every Value type.
        let wire = encode_batch(&packets);
        let eager = decode_batch(wire.clone()).unwrap();
        let lazy = decode_batch_lazy(wire).unwrap();
        prop_assert_eq!(lazy.len(), eager.len());
        for (l, e) in lazy.iter().zip(&eager) {
            prop_assert!(l.is_lazy());
            prop_assert!(packets_eq(l, e));
            prop_assert!(!l.is_lazy());
        }
    }

    #[test]
    fn untouched_lazy_batch_reencodes_byte_identically(
        packets in proptest::collection::vec(arb_packet(), 1..10),
    ) {
        let inbound = encode_batch(&packets);
        let relayed = decode_batch_lazy(inbound.clone()).unwrap();
        let outbound = encode_batch(&relayed);
        prop_assert_eq!(&outbound, &inbound);
        prop_assert_eq!(outbound.as_ref().as_ptr(), inbound.as_ref().as_ptr());
    }

    #[test]
    fn lazy_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_batch_lazy(Bytes::from(bytes));
    }

    #[test]
    fn lazy_and_eager_agree_on_rejection(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // The structural validation pass must accept exactly the byte
        // strings the eager decoder accepts.
        let eager = decode_batch(Bytes::from(bytes.clone()));
        let lazy = decode_batch_lazy(Bytes::from(bytes));
        prop_assert_eq!(eager.is_ok(), lazy.is_ok());
    }

    #[test]
    fn encoded_size_hint_is_close(packet in arb_packet()) {
        // The hint is exact, so every frame buffer is allocated once
        // at its final size.
        let actual = encode_packet(&packet).len();
        let hint = packet.encoded_size_hint();
        prop_assert!(actual == hint, "actual {} hint {}", actual, hint);
    }

    #[test]
    fn bulk_array_codec_matches_per_element_reference(
        ints in (
            proptest::collection::vec(any::<i32>(), 0..24),
            proptest::collection::vec(any::<u32>(), 0..24),
            proptest::collection::vec(any::<i64>(), 0..24),
            proptest::collection::vec(any::<u64>(), 0..24),
        ),
        floats in (
            proptest::collection::vec(arb_f32(), 0..24),
            proptest::collection::vec(arb_f64(), 0..24),
        ),
    ) {
        // Every prefix, so lengths 0, 1 and odd sizes are always
        // covered.
        let ((i32s, u32s, i64s, u64s), (f32s, f64s)) = (ints, floats);
        for n in 0..=i32s.len() {
            let v = &i32s[..n];
            let elems: Vec<_> = v.iter().map(|e| e.to_le_bytes()).collect();
            check_array_wire(Value::Int32Array(v.to_vec()), TypeCode::Int32Array, &elems)?;
        }
        for n in 0..=u32s.len() {
            let v = &u32s[..n];
            let elems: Vec<_> = v.iter().map(|e| e.to_le_bytes()).collect();
            check_array_wire(Value::UInt32Array(v.to_vec()), TypeCode::UInt32Array, &elems)?;
        }
        for n in 0..=i64s.len() {
            let v = &i64s[..n];
            let elems: Vec<_> = v.iter().map(|e| e.to_le_bytes()).collect();
            check_array_wire(Value::Int64Array(v.to_vec()), TypeCode::Int64Array, &elems)?;
        }
        for n in 0..=u64s.len() {
            let v = &u64s[..n];
            let elems: Vec<_> = v.iter().map(|e| e.to_le_bytes()).collect();
            check_array_wire(Value::UInt64Array(v.to_vec()), TypeCode::UInt64Array, &elems)?;
        }
        for n in 0..=f32s.len() {
            let v = &f32s[..n];
            let elems: Vec<_> = v.iter().map(|e| e.to_le_bytes()).collect();
            check_array_wire(Value::FloatArray(v.to_vec()), TypeCode::FloatArray, &elems)?;
        }
        for n in 0..=f64s.len() {
            let v = &f64s[..n];
            let elems: Vec<_> = v.iter().map(|e| e.to_le_bytes()).collect();
            check_array_wire(Value::DoubleArray(v.to_vec()), TypeCode::DoubleArray, &elems)?;
        }
    }

    #[test]
    fn truncated_body_is_rejected_anywhere(packet in arb_packet()) {
        let wire = encode_packet(&packet);
        for cut in 0..wire.len() {
            prop_assert!(decode_packet(wire.slice(..cut)).is_err(), "packet cut at {}", cut);
        }
        let batch = encode_batch(std::slice::from_ref(&packet));
        for cut in 0..batch.len() {
            prop_assert!(decode_batch(batch.slice(..cut)).is_err(), "batch cut at {}", cut);
            prop_assert!(decode_batch_lazy(batch.slice(..cut)).is_err(), "lazy cut at {}", cut);
        }
    }
}
