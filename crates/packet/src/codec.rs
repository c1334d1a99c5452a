//! Packed binary encoding and decoding of packets.
//!
//! MRNet "transfers data within the tool system using an efficient,
//! packed binary representation" (§1). The wire form of a packet is
//! self-describing: a fixed header (stream id, tag, source rank,
//! arity) followed by one tagged value per conversion specifier. The
//! format string is reconstructed from the value tags on decode, so it
//! is never transmitted as text.
//!
//! All multi-byte quantities are little-endian. Length prefixes are
//! validated against [`DecodeLimits`] so a corrupt stream cannot force
//! enormous allocations.

use std::sync::OnceLock;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{PacketError, Result};
use crate::format::FormatString;
use crate::packet::{Decoded, Packet};
use crate::value::{TypeCode, Value};

/// Byte length of a packet's fixed wire header:
/// stream id (4) + tag (4) + src (4) + arity (2).
pub(crate) const PACKET_HEADER_LEN: usize = 4 + 4 + 4 + 2;

/// Default string / byte-array ceiling, in bytes.
pub const DEFAULT_DECODE_MAX_BYTES: u64 = 64 << 20;

/// Default array element-count ceiling.
pub const DEFAULT_DECODE_MAX_ELEMS: u64 = 16 << 20;

/// Smallest ceiling `MRNET_DECODE_MAX` may configure; tinier values
/// are clamped up so control traffic always fits.
pub const MIN_DECODE_MAX: u64 = 1 << 10;

/// Largest ceiling `MRNET_DECODE_MAX` may configure.
pub const MAX_DECODE_MAX: u64 = 1 << 32;

/// Sanity limits applied while decoding.
#[derive(Debug, Clone, Copy)]
pub struct DecodeLimits {
    /// Maximum accepted string / byte-array length, in bytes.
    pub max_bytes: u64,
    /// Maximum accepted array element count.
    pub max_elems: u64,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        DecodeLimits {
            max_bytes: DEFAULT_DECODE_MAX_BYTES,
            max_elems: DEFAULT_DECODE_MAX_ELEMS,
        }
    }
}

/// Parses an `MRNET_DECODE_MAX` value into a decode ceiling. Missing,
/// empty, or unparsable values mean "no override" (`None`); parsed
/// values are clamped into `[MIN_DECODE_MAX, MAX_DECODE_MAX]`.
pub fn parse_decode_max(raw: Option<&str>) -> Option<u64> {
    raw.and_then(|v| v.trim().parse::<u64>().ok())
        .map(|n| n.clamp(MIN_DECODE_MAX, MAX_DECODE_MAX))
}

impl DecodeLimits {
    /// Limits with both ceilings set to `max` (bytes for
    /// strings/byte-arrays, element count for typed arrays).
    pub fn with_max(max: u64) -> DecodeLimits {
        DecodeLimits {
            max_bytes: max,
            max_elems: max,
        }
    }

    /// The process-wide limits: `MRNET_DECODE_MAX` (read once, clamped
    /// into `[MIN_DECODE_MAX, MAX_DECODE_MAX]`) overrides both
    /// ceilings; otherwise the compiled defaults apply. This is what
    /// the network ingress uses, so hostile-frame limits are tunable
    /// without a rebuild.
    pub fn from_env() -> DecodeLimits {
        static LIMITS: OnceLock<DecodeLimits> = OnceLock::new();
        *LIMITS.get_or_init(|| {
            match parse_decode_max(std::env::var("MRNET_DECODE_MAX").ok().as_deref()) {
                Some(max) => DecodeLimits::with_max(max),
                None => DecodeLimits::default(),
            }
        })
    }
}

/// Appends `s` as a `u32` byte length and its UTF-8 bytes.
fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Appends a numeric array as a `u32` element count and its
/// little-endian elements: one buffer grow, then one pass over
/// fixed-size chunks, which the compiler vectorizes.
fn put_array<T: Copy, const N: usize>(
    buf: &mut BytesMut,
    v: &[T],
    to_le_bytes: impl Fn(T) -> [u8; N],
) {
    buf.put_u32_le(v.len() as u32);
    let start = buf.len();
    buf.resize(start + N * v.len(), 0);
    for (dst, &e) in buf[start..].chunks_exact_mut(N).zip(v) {
        dst.copy_from_slice(&to_le_bytes(e));
    }
}

/// Reads a numeric array body (a whole number of `N`-byte
/// little-endian elements) in one pass over fixed-size chunks.
fn get_array<T, const N: usize>(body: &[u8], from_le_bytes: impl Fn([u8; N]) -> T) -> Vec<T> {
    body.chunks_exact(N)
        .map(|b| from_le_bytes(b.try_into().expect("chunk of N bytes")))
        .collect()
}

/// Encodes one value (tag byte + payload) into `buf`.
fn encode_value(buf: &mut BytesMut, value: &Value) {
    buf.put_u8(value.type_code().tag());
    match value {
        Value::Char(v) => buf.put_u8(*v),
        Value::Int32(v) => buf.put_i32_le(*v),
        Value::UInt32(v) => buf.put_u32_le(*v),
        Value::Int64(v) => buf.put_i64_le(*v),
        Value::UInt64(v) => buf.put_u64_le(*v),
        Value::Float(v) => buf.put_f32_le(*v),
        Value::Double(v) => buf.put_f64_le(*v),
        Value::Str(v) => put_str(buf, v),
        Value::CharArray(v) => {
            buf.put_u32_le(v.len() as u32);
            buf.put_slice(v);
        }
        Value::Int32Array(v) => put_array(buf, v, i32::to_le_bytes),
        Value::UInt32Array(v) => put_array(buf, v, u32::to_le_bytes),
        Value::Int64Array(v) => put_array(buf, v, i64::to_le_bytes),
        Value::UInt64Array(v) => put_array(buf, v, u64::to_le_bytes),
        Value::FloatArray(v) => put_array(buf, v, f32::to_le_bytes),
        Value::DoubleArray(v) => put_array(buf, v, f64::to_le_bytes),
        Value::StrArray(v) => {
            buf.put_u32_le(v.len() as u32);
            for s in v {
                put_str(buf, s);
            }
        }
    }
}

/// A cursor over a contiguous wire buffer. Validation walks a packet's
/// structure with it; materialization reads the validated values back.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.data.len() - self.pos < n {
            return Err(PacketError::Truncated { context });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn get<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N]> {
        Ok(self.take(N, context)?.try_into().expect("N bytes"))
    }

    fn get_len(&mut self, limit: u64, context: &'static str) -> Result<usize> {
        let len = u32::from_le_bytes(self.get(context)?) as u64;
        if len > limit {
            return Err(PacketError::LengthOverflow { len, limit });
        }
        Ok(len as usize)
    }

    fn get_str(&mut self, limits: &DecodeLimits) -> Result<&'a str> {
        let len = self.get_len(limits.max_bytes, "string length")?;
        let body = self.take(len, "string body")?;
        std::str::from_utf8(body).map_err(|_| PacketError::InvalidUtf8)
    }
}

/// One value's wire form, borrowed from the buffer: its type, its
/// element count (1 for scalars and strings), and its body — the
/// bytes after the tag and any count prefix.
struct WireValue<'a> {
    code: TypeCode,
    count: usize,
    body: &'a [u8],
}

/// The one structural walker: checks one tagged value's type tag,
/// length prefixes (against `limits`) and string UTF-8, and returns
/// its wire form without allocating, advancing the cursor past it.
fn next_value<'a>(c: &mut Cursor<'a>, limits: &DecodeLimits) -> Result<WireValue<'a>> {
    let code = TypeCode::from_tag(c.get::<1>("value tag")?[0])?;
    let (count, body) = match code {
        TypeCode::Char => (1, c.take(1, "char")?),
        TypeCode::Int32 => (1, c.take(4, "i32")?),
        TypeCode::UInt32 => (1, c.take(4, "u32")?),
        TypeCode::Int64 => (1, c.take(8, "i64")?),
        TypeCode::UInt64 => (1, c.take(8, "u64")?),
        TypeCode::Float => (1, c.take(4, "f32")?),
        TypeCode::Double => (1, c.take(8, "f64")?),
        TypeCode::Str => (1, c.get_str(limits)?.as_bytes()),
        TypeCode::CharArray => {
            let len = c.get_len(limits.max_bytes, "byte array length")?;
            (len, c.take(len, "byte array body")?)
        }
        TypeCode::Int32Array => {
            let len = c.get_len(limits.max_elems, "i32 array length")?;
            (len, c.take(len * 4, "i32 array body")?)
        }
        TypeCode::UInt32Array => {
            let len = c.get_len(limits.max_elems, "u32 array length")?;
            (len, c.take(len * 4, "u32 array body")?)
        }
        TypeCode::Int64Array => {
            let len = c.get_len(limits.max_elems, "i64 array length")?;
            (len, c.take(len * 8, "i64 array body")?)
        }
        TypeCode::UInt64Array => {
            let len = c.get_len(limits.max_elems, "u64 array length")?;
            (len, c.take(len * 8, "u64 array body")?)
        }
        TypeCode::FloatArray => {
            let len = c.get_len(limits.max_elems, "f32 array length")?;
            (len, c.take(len * 4, "f32 array body")?)
        }
        TypeCode::DoubleArray => {
            let len = c.get_len(limits.max_elems, "f64 array length")?;
            (len, c.take(len * 8, "f64 array body")?)
        }
        TypeCode::StrArray => {
            let len = c.get_len(limits.max_elems, "string array length")?;
            let start = c.pos;
            for _ in 0..len {
                c.get_str(limits)?;
            }
            (len, &c.data[start..c.pos])
        }
    };
    Ok(WireValue { code, count, body })
}

const VALIDATED: &str = "wire was validated at decode";

/// Builds the typed value of a wire form [`next_value`] accepted.
fn materialize(w: &WireValue<'_>) -> Value {
    fn fixed<const N: usize>(body: &[u8]) -> [u8; N] {
        body.try_into().expect(VALIDATED)
    }
    let b = w.body;
    match w.code {
        TypeCode::Char => Value::Char(b[0]),
        TypeCode::Int32 => Value::Int32(i32::from_le_bytes(fixed(b))),
        TypeCode::UInt32 => Value::UInt32(u32::from_le_bytes(fixed(b))),
        TypeCode::Int64 => Value::Int64(i64::from_le_bytes(fixed(b))),
        TypeCode::UInt64 => Value::UInt64(u64::from_le_bytes(fixed(b))),
        TypeCode::Float => Value::Float(f32::from_le_bytes(fixed(b))),
        TypeCode::Double => Value::Double(f64::from_le_bytes(fixed(b))),
        TypeCode::Str => Value::Str(std::str::from_utf8(b).expect(VALIDATED).to_owned()),
        TypeCode::CharArray => Value::CharArray(b.to_vec()),
        TypeCode::Int32Array => Value::Int32Array(get_array(b, i32::from_le_bytes)),
        TypeCode::UInt32Array => Value::UInt32Array(get_array(b, u32::from_le_bytes)),
        TypeCode::Int64Array => Value::Int64Array(get_array(b, i64::from_le_bytes)),
        TypeCode::UInt64Array => Value::UInt64Array(get_array(b, u64::from_le_bytes)),
        TypeCode::FloatArray => Value::FloatArray(get_array(b, f32::from_le_bytes)),
        TypeCode::DoubleArray => Value::DoubleArray(get_array(b, f64::from_le_bytes)),
        TypeCode::StrArray => {
            let mut c = Cursor { data: b, pos: 0 };
            let unlimited = DecodeLimits::with_max(u64::MAX);
            Value::StrArray(
                (0..w.count)
                    .map(|_| c.get_str(&unlimited).expect(VALIDATED).to_owned())
                    .collect(),
            )
        }
    }
}

/// Validates the structure of one packet starting at `start` in
/// `data`: header, every value's type tag, every length prefix
/// (against `limits`), and string UTF-8 — without allocating a single
/// value. Returns the header fields and the offset one past the
/// packet's last byte.
///
/// A wire region that passes this check is safe to hand to
/// [`decode_payload_validated`], which therefore cannot fail.
pub(crate) fn validate_packet_at(
    data: &[u8],
    start: usize,
    limits: &DecodeLimits,
) -> Result<(u32, i32, u32, usize)> {
    let mut c = Cursor { data, pos: start };
    let header: [u8; PACKET_HEADER_LEN] = c.get("packet header")?;
    let word = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().expect("4 bytes"));
    let arity = u16::from_le_bytes([header[12], header[13]]);
    for _ in 0..arity {
        next_value(&mut c, limits)?;
    }
    Ok((word(0), word(4) as i32, word(8), c.pos))
}

/// Materializes the typed payload of a pre-validated wire packet
/// (header included). The `FormatString` is derived from the decoded
/// value tags exactly once, here, and cached in the packet with the
/// values.
pub(crate) fn decode_payload_validated(wire: &[u8]) -> Decoded {
    let arity = u16::from_le_bytes([wire[PACKET_HEADER_LEN - 2], wire[PACKET_HEADER_LEN - 1]]);
    let mut c = Cursor {
        data: wire,
        pos: PACKET_HEADER_LEN,
    };
    // Structure and limits were enforced by `validate_packet_at`
    // before the packet was built, so decoding is infallible and
    // ingress limits must not be re-applied (they may have tightened
    // via the env since).
    let unlimited = DecodeLimits::with_max(u64::MAX);
    let mut codes = Vec::with_capacity(arity as usize);
    let mut values = Vec::with_capacity(arity as usize);
    for _ in 0..arity {
        let w = next_value(&mut c, &unlimited).expect(VALIDATED);
        codes.push(w.code);
        values.push(materialize(&w));
    }
    Decoded {
        fmt: FormatString::from_codes(codes),
        values,
    }
}

/// Appends the wire form of `packet` to `buf`. A packet that still
/// carries its original wire bytes is copied verbatim — no payload
/// re-encode.
pub fn encode_packet_into(packet: &Packet, buf: &mut BytesMut) {
    if let Some(wire) = packet.raw_wire() {
        buf.put_slice(wire);
        return;
    }
    buf.reserve(packet.encoded_size_hint());
    buf.put_u32_le(packet.stream_id());
    buf.put_i32_le(packet.tag());
    buf.put_u32_le(packet.src());
    buf.put_u16_le(packet.values().len() as u16);
    for value in packet.values() {
        encode_value(buf, value);
    }
}

/// Encodes `packet` into a freshly allocated buffer of exactly its
/// encoded size — unless the packet still carries its original wire
/// bytes, in which case that buffer is returned as-is (zero copy,
/// pointer-identical).
pub fn encode_packet(packet: &Packet) -> Bytes {
    if let Some(wire) = packet.raw_wire() {
        return wire.clone();
    }
    let mut buf = BytesMut::with_capacity(packet.encoded_size_hint());
    encode_packet_into(packet, &mut buf);
    buf.freeze()
}

/// Decodes one packet from the front of `buf`, consuming its bytes:
/// the validation pass, then materialization of the validated region.
pub fn decode_packet_from(buf: &mut Bytes, limits: &DecodeLimits) -> Result<Packet> {
    let (stream_id, tag, src, end) = validate_packet_at(buf, 0, limits)?;
    let decoded = decode_payload_validated(&buf[..end]);
    buf.advance(end);
    Ok(Packet::from_decoded(stream_id, tag, src, decoded))
}

/// Decodes one packet from an owned byte buffer.
pub fn decode_packet(bytes: Bytes) -> Result<Packet> {
    let mut buf = bytes;
    let packet = decode_packet_from(&mut buf, &DecodeLimits::default())?;
    Ok(packet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

    fn full_packet() -> Packet {
        PacketBuilder::new(12, -5)
            .src(3)
            .push(Value::Char(b'k'))
            .push(-123i32)
            .push(456u32)
            .push(-(1i64 << 40))
            .push(1u64 << 50)
            .push(1.5f32)
            .push(-2.25f64)
            .push("héllo wörld")
            .push(vec![1u8, 2, 3])
            .push(vec![-1i32, 0, 1])
            .push(vec![7u32])
            .push(vec![i64::MIN, i64::MAX])
            .push(vec![u64::MAX])
            .push(vec![f32::MIN_POSITIVE, 0.0])
            .push(vec![std::f64::consts::PI])
            .push(vec!["a".to_string(), String::new(), "ccc".to_string()])
            .build()
    }

    #[test]
    fn round_trip_every_type() {
        let p = full_packet();
        let bytes = encode_packet(&p);
        let q = decode_packet(bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn round_trip_empty_packet() {
        let p = Packet::control(9, 42);
        let q = decode_packet(encode_packet(&p)).unwrap();
        assert_eq!(p, q);
        assert!(q.fmt().is_empty());
    }

    #[test]
    fn truncation_at_every_boundary_is_an_error() {
        let bytes = encode_packet(&full_packet());
        for cut in 0..bytes.len() {
            let slice = bytes.slice(..cut);
            let err = decode_packet(slice);
            assert!(err.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        // Header + a %s value claiming 4 GiB of body.
        let mut buf = BytesMut::new();
        buf.put_u32_le(0); // stream
        buf.put_i32_le(0); // tag
        buf.put_u32_le(0); // src
        buf.put_u16_le(1); // arity
        buf.put_u8(TypeCode::Str.tag());
        buf.put_u32_le(u32::MAX);
        let err = decode_packet(buf.freeze()).unwrap_err();
        assert!(matches!(err, PacketError::LengthOverflow { .. }));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_i32_le(0);
        buf.put_u32_le(0);
        buf.put_u16_le(1);
        buf.put_u8(0x7f);
        let err = decode_packet(buf.freeze()).unwrap_err();
        assert!(matches!(err, PacketError::UnknownTypeTag(0x7f)));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_i32_le(0);
        buf.put_u32_le(0);
        buf.put_u16_le(1);
        buf.put_u8(TypeCode::Str.tag());
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        let err = decode_packet(buf.freeze()).unwrap_err();
        assert_eq!(err, PacketError::InvalidUtf8);
    }

    #[test]
    fn header_fields_survive() {
        let p = PacketBuilder::new(77, 1234).src(9).push(0i32).build();
        let q = decode_packet(encode_packet(&p)).unwrap();
        assert_eq!(q.stream_id(), 77);
        assert_eq!(q.tag(), 1234);
        assert_eq!(q.src(), 9);
    }

    #[test]
    fn encoding_is_compact() {
        // A single i32 packet: 14-byte header + 1 tag byte + 4 bytes.
        let p = PacketBuilder::new(0, 0).push(5i32).build();
        assert_eq!(encode_packet(&p).len(), 14 + 1 + 4);
    }

    #[test]
    fn parse_decode_max_defaults_and_clamps() {
        assert_eq!(parse_decode_max(None), None);
        assert_eq!(parse_decode_max(Some("")), None);
        assert_eq!(parse_decode_max(Some("nope")), None);
        assert_eq!(parse_decode_max(Some("-5")), None);
        assert_eq!(parse_decode_max(Some("0")), Some(MIN_DECODE_MAX));
        assert_eq!(parse_decode_max(Some("100")), Some(MIN_DECODE_MAX));
        assert_eq!(parse_decode_max(Some(" 65536 ")), Some(65536));
        assert_eq!(
            parse_decode_max(Some("99999999999999999")),
            Some(MAX_DECODE_MAX)
        );
    }

    #[test]
    fn with_max_sets_both_ceilings() {
        let limits = DecodeLimits::with_max(2048);
        assert_eq!(limits.max_bytes, 2048);
        assert_eq!(limits.max_elems, 2048);
        // A 4 KiB string is over a 2 KiB ceiling.
        let p = PacketBuilder::new(0, 0).push("x".repeat(4096)).build();
        let wire = encode_packet(&p);
        let err = validate_packet_at(&wire, 0, &limits).unwrap_err();
        assert!(matches!(err, PacketError::LengthOverflow { .. }));
        assert!(validate_packet_at(&wire, 0, &DecodeLimits::default()).is_ok());
    }

    #[test]
    fn validation_pass_agrees_with_eager_decode_on_every_boundary() {
        // The skip pass and the eager decoder must accept and reject
        // exactly the same inputs, byte for byte.
        let wire = encode_packet(&full_packet());
        let limits = DecodeLimits::default();
        let (stream_id, tag, src, end) = validate_packet_at(&wire, 0, &limits).unwrap();
        assert_eq!((stream_id, tag, src), (12, -5, 3));
        assert_eq!(end, wire.len());
        for cut in 0..wire.len() {
            assert!(
                validate_packet_at(&wire[..cut], 0, &limits).is_err(),
                "validation of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn validation_rejects_what_decode_rejects() {
        // Hostile length prefix.
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_i32_le(0);
        buf.put_u32_le(0);
        buf.put_u16_le(1);
        buf.put_u8(TypeCode::Str.tag());
        buf.put_u32_le(u32::MAX);
        let limits = DecodeLimits::default();
        assert!(matches!(
            validate_packet_at(&buf, 0, &limits).unwrap_err(),
            PacketError::LengthOverflow { .. }
        ));
        // Unknown type tag.
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_i32_le(0);
        buf.put_u32_le(0);
        buf.put_u16_le(1);
        buf.put_u8(0x7f);
        assert!(matches!(
            validate_packet_at(&buf, 0, &limits).unwrap_err(),
            PacketError::UnknownTypeTag(0x7f)
        ));
        // Invalid UTF-8 in a string body.
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_i32_le(0);
        buf.put_u32_le(0);
        buf.put_u16_le(1);
        buf.put_u8(TypeCode::Str.tag());
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        assert_eq!(
            validate_packet_at(&buf, 0, &limits).unwrap_err(),
            PacketError::InvalidUtf8
        );
    }

    #[test]
    fn lazy_materialization_matches_eager_decode_for_every_type() {
        let p = full_packet();
        let batch = crate::batch::encode_batch(std::slice::from_ref(&p));
        let lazy = crate::batch::decode_batch_lazy(batch).unwrap().remove(0);
        let mut eager_wire = encode_packet(&p);
        let eager = decode_packet_from(&mut eager_wire, &DecodeLimits::default()).unwrap();
        assert_eq!(lazy.stream_id(), eager.stream_id());
        assert_eq!(lazy.tag(), eager.tag());
        assert_eq!(lazy.src(), eager.src());
        assert_eq!(lazy.fmt(), eager.fmt());
        assert_eq!(lazy.values(), eager.values());
    }

    #[test]
    fn format_string_is_derived_once_and_cached() {
        let p = full_packet();
        let batch = crate::batch::encode_batch(std::slice::from_ref(&p));
        let lazy = crate::batch::decode_batch_lazy(batch).unwrap().remove(0);
        // Repeated access must hand back the same cached FormatString,
        // not re-derive it from the value tags each time.
        let first: *const FormatString = lazy.fmt();
        let second: *const FormatString = lazy.fmt();
        assert_eq!(first, second);
        assert_eq!(lazy.fmt(), p.fmt());
        // Same guarantee through a cloned handle.
        let third: *const FormatString = lazy.clone().fmt();
        assert_eq!(first, third);
    }

    #[test]
    fn multiple_packets_in_one_buffer_decode_sequentially() {
        let a = PacketBuilder::new(1, 1).push(1i32).build();
        let b = PacketBuilder::new(2, 2).push("two").build();
        let mut buf = BytesMut::new();
        encode_packet_into(&a, &mut buf);
        encode_packet_into(&b, &mut buf);
        let mut bytes = buf.freeze();
        let limits = DecodeLimits::default();
        let a2 = decode_packet_from(&mut bytes, &limits).unwrap();
        let b2 = decode_packet_from(&mut bytes, &limits).unwrap();
        assert_eq!(a, a2);
        assert_eq!(b, b2);
        assert!(bytes.is_empty());
    }
}
