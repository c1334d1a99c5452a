//! Wire encoding of trace envelopes (the optional frame trailer).
//!
//! A sampled wave carries a [`TraceEnvelope`] — trace id, stream, and
//! per-hop `(rank, recv_us, send_us)` records — appended to its data
//! frame as a *trailer* so untraced frames stay byte-identical to the
//! plain format (zero trailer bytes). The layout is fixed-width
//! little-endian, matching the packet codec:
//!
//! ```text
//! trailer   := u16 envelope_count, envelope*
//! envelope  := u64 trace_id, u32 stream, u16 hop_count, hop*
//! hop       := u32 rank, u64 recv_us, u64 send_us
//! ```
//!
//! Counts are validated against [`MAX_TRAILER_ENVELOPES`] and
//! `mrnet_obs::tracectx::MAX_TRACE_HOPS` so a corrupt or hostile
//! trailer cannot force large allocations.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mrnet_obs::tracectx::{HopRecord, TraceEnvelope, MAX_TRACE_HOPS};

use crate::error::{PacketError, Result};

/// Most envelopes one trailer may carry (generous: even a fully
/// sampled aggregation wave carries one envelope per leaf path).
pub const MAX_TRAILER_ENVELOPES: usize = 1024;

/// Bytes one hop record occupies on the wire.
const HOP_WIRE_BYTES: usize = 4 + 8 + 8;

/// Bytes `env` will occupy on the wire.
pub fn envelope_encoded_size(env: &TraceEnvelope) -> usize {
    8 + 4 + 2 + env.hops.len().min(MAX_TRACE_HOPS) * HOP_WIRE_BYTES
}

/// Bytes the trailer form of `envelopes` will occupy on the wire.
pub fn trailer_encoded_size(envelopes: &[TraceEnvelope]) -> usize {
    let n = envelopes.len().min(MAX_TRAILER_ENVELOPES);
    2 + envelopes[..n]
        .iter()
        .map(envelope_encoded_size)
        .sum::<usize>()
}

/// Appends the wire form of `env` to `buf`.
pub fn encode_envelope_into(env: &TraceEnvelope, buf: &mut BytesMut) {
    buf.put_u64_le(env.trace_id);
    buf.put_u32_le(env.stream);
    buf.put_u16_le(env.hops.len().min(MAX_TRACE_HOPS) as u16);
    for hop in env.hops.iter().take(MAX_TRACE_HOPS) {
        buf.put_u32_le(hop.rank);
        buf.put_u64_le(hop.recv_us);
        buf.put_u64_le(hop.send_us);
    }
}

/// Encodes `env` standalone (the payload of a trace-report packet).
pub fn encode_envelope(env: &TraceEnvelope) -> Bytes {
    let mut buf = BytesMut::with_capacity(envelope_encoded_size(env));
    encode_envelope_into(env, &mut buf);
    buf.freeze()
}

/// Decodes one envelope from the front of `buf`.
pub fn decode_envelope_from(buf: &mut impl Buf) -> Result<TraceEnvelope> {
    if buf.remaining() < 8 + 4 + 2 {
        return Err(PacketError::Truncated {
            context: "trace envelope header",
        });
    }
    let trace_id = buf.get_u64_le();
    let stream = buf.get_u32_le();
    let hop_count = buf.get_u16_le() as usize;
    if hop_count > MAX_TRACE_HOPS {
        return Err(PacketError::LengthOverflow {
            len: hop_count as u64,
            limit: MAX_TRACE_HOPS as u64,
        });
    }
    if buf.remaining() < hop_count * HOP_WIRE_BYTES {
        return Err(PacketError::Truncated {
            context: "trace envelope hops",
        });
    }
    let hops = (0..hop_count)
        .map(|_| HopRecord {
            rank: buf.get_u32_le(),
            recv_us: buf.get_u64_le(),
            send_us: buf.get_u64_le(),
        })
        .collect();
    Ok(TraceEnvelope {
        trace_id,
        stream,
        hops,
    })
}

/// Decodes a standalone envelope, rejecting trailing bytes.
pub fn decode_envelope(bytes: Bytes) -> Result<TraceEnvelope> {
    let mut buf = bytes;
    let env = decode_envelope_from(&mut buf)?;
    if buf.has_remaining() {
        return Err(PacketError::MalformedBatch(
            "trailing bytes after trace envelope",
        ));
    }
    Ok(env)
}

/// Appends the trailer form of `envelopes` to `buf`.
pub fn encode_trailer_into(envelopes: &[TraceEnvelope], buf: &mut BytesMut) {
    let n = envelopes.len().min(MAX_TRAILER_ENVELOPES);
    buf.put_u16_le(n as u16);
    for env in &envelopes[..n] {
        encode_envelope_into(env, buf);
    }
}

/// Decodes a trailer (envelope list) from the front of `buf`.
pub fn decode_trailer_from(buf: &mut impl Buf) -> Result<Vec<TraceEnvelope>> {
    if buf.remaining() < 2 {
        return Err(PacketError::Truncated {
            context: "trace trailer count",
        });
    }
    let count = buf.get_u16_le() as usize;
    if count > MAX_TRAILER_ENVELOPES {
        return Err(PacketError::LengthOverflow {
            len: count as u64,
            limit: MAX_TRAILER_ENVELOPES as u64,
        });
    }
    (0..count).map(|_| decode_envelope_from(buf)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_env() -> TraceEnvelope {
        TraceEnvelope {
            trace_id: (7u64 << 32) | 3,
            stream: 5,
            hops: vec![
                HopRecord {
                    rank: 6,
                    recv_us: 1_000_001,
                    send_us: 1_000_050,
                },
                HopRecord {
                    rank: 2,
                    recv_us: 1_000_120,
                    send_us: 1_000_130,
                },
            ],
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let env = sample_env();
        let wire = encode_envelope(&env);
        assert_eq!(wire.len(), envelope_encoded_size(&env));
        assert_eq!(decode_envelope(wire).unwrap(), env);
    }

    #[test]
    fn trailer_roundtrip_multiple_envelopes() {
        let a = sample_env();
        let mut b = sample_env();
        b.trace_id += 1;
        b.hops.pop();
        let mut buf = BytesMut::new();
        encode_trailer_into(&[a.clone(), b.clone()], &mut buf);
        let mut wire = buf.freeze();
        let got = decode_trailer_from(&mut wire).unwrap();
        assert_eq!(got, vec![a, b]);
        assert!(!wire.has_remaining());
    }

    #[test]
    fn empty_trailer_is_two_bytes() {
        let mut buf = BytesMut::new();
        encode_trailer_into(&[], &mut buf);
        assert_eq!(buf.len(), 2);
        let mut wire = buf.freeze();
        assert_eq!(decode_trailer_from(&mut wire).unwrap(), vec![]);
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let env = sample_env();
        let wire = encode_envelope(&env);
        for cut in 0..wire.len() {
            let err = decode_envelope(wire.slice(..cut)).unwrap_err();
            assert!(matches!(err, PacketError::Truncated { .. }), "cut={cut}");
        }
        let err = decode_envelope({
            let mut long = BytesMut::from(&wire[..]);
            long.put_u8(0);
            long.freeze()
        })
        .unwrap_err();
        assert!(matches!(err, PacketError::MalformedBatch(_)));
    }

    #[test]
    fn hostile_counts_rejected() {
        // Envelope claiming u16::MAX hops with no bodies.
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u32_le(0);
        buf.put_u16_le(u16::MAX);
        let err = decode_envelope_from(&mut buf.freeze()).unwrap_err();
        assert!(matches!(err, PacketError::LengthOverflow { .. }));
        // Trailer claiming more envelopes than the cap.
        let mut buf = BytesMut::new();
        buf.put_u16_le((MAX_TRAILER_ENVELOPES + 1) as u16);
        let err = decode_trailer_from(&mut buf.freeze()).unwrap_err();
        assert!(matches!(err, PacketError::LengthOverflow { .. }));
    }
}
