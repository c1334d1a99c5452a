//! Packet buffers: batching and unbatching.
//!
//! §2.3: "Data packets are batched into packet buffers, which logically
//! represent a series of communications destined for the same process,
//! to allow for fewer larger messages to be sent over busy connections,
//! reducing overall communication costs. … Incoming packet buffers must
//! first be unbatched into individual packets."
//!
//! [`Batcher`] accumulates packets headed for one neighbor and reports
//! when the batch should be flushed according to a [`BatchPolicy`];
//! [`encode_batch`]/[`decode_batch`] are the wire form.

use std::ops::Range;

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::{
    decode_payload_validated, encode_packet_into, validate_packet_at, DecodeLimits,
};
use crate::error::{PacketError, Result};
use crate::packet::Packet;

/// When to flush an accumulating packet buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush once the batch holds this many packets.
    pub max_packets: usize,
    /// Flush once the batch's encoded size reaches this many bytes.
    pub max_bytes: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_packets: 64,
            max_bytes: 32 * 1024,
        }
    }
}

impl BatchPolicy {
    /// A policy that batches nothing: every packet flushes immediately.
    /// Used by the batching ablation experiment.
    pub fn unbatched() -> BatchPolicy {
        BatchPolicy {
            max_packets: 1,
            max_bytes: 0,
        }
    }
}

/// Accumulates packets destined for the same neighboring process.
///
/// Packets are held by reference (cheap clones of [`Packet`] handles),
/// so batching adds no payload copies.
#[derive(Debug, Default)]
pub struct Batcher {
    policy: BatchPolicy,
    pending: Vec<Packet>,
    pending_bytes: usize,
}

impl Batcher {
    /// Creates a batcher with the given flush policy.
    pub fn new(policy: BatchPolicy) -> Batcher {
        Batcher {
            policy,
            pending: Vec::new(),
            pending_bytes: 0,
        }
    }

    /// Adds a packet to the pending batch.
    pub fn push(&mut self, packet: Packet) {
        self.pending_bytes += packet.encoded_size_hint();
        self.pending.push(packet);
    }

    /// True if the policy says the pending batch should be sent now.
    pub fn should_flush(&self) -> bool {
        self.pending.len() >= self.policy.max_packets || self.pending_bytes >= self.policy.max_bytes
    }

    /// Number of packets currently pending.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no packets are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Removes and returns all pending packets.
    pub fn drain(&mut self) -> Vec<Packet> {
        self.pending_bytes = 0;
        std::mem::take(&mut self.pending)
    }

    /// True when the pending batch holds exactly these packet handles
    /// (same shared buffers, via [`Packet::ptr_eq`], in the same
    /// order). Two batchers that match encode to identical bytes, so a
    /// multicast sender can encode once and share the frame.
    pub fn pending_matches(&self, packets: &[Packet]) -> bool {
        self.pending.len() == packets.len()
            && self.pending.iter().zip(packets).all(|(a, b)| a.ptr_eq(b))
    }

    /// Drains and encodes the pending packets as one wire batch, or
    /// `None` if nothing is pending.
    pub fn flush_encoded(&mut self) -> Option<Bytes> {
        if self.pending.is_empty() {
            return None;
        }
        let packets = self.drain();
        Some(encode_batch(&packets))
    }
}

/// Encodes a sequence of packets as one packet buffer:
/// `u32 count` followed by the packets back to back.
///
/// When every packet is an untouched slice of one inbound batch and
/// together they tile it exactly, that original buffer is returned
/// as-is — a relayed batch costs zero encodes and zero copies.
/// Otherwise the batch is encoded into one buffer allocated at its
/// exact size.
pub fn encode_batch(packets: &[Packet]) -> Bytes {
    if let Some(reused) = try_reuse_batch(packets) {
        return reused;
    }
    let mut buf = BytesMut::with_capacity(batch_encoded_size(packets));
    put_packets(packets, &mut buf);
    buf.freeze()
}

/// Appends the wire form of [`encode_batch`] to `buf`, so a frame can
/// carry its batch in the same buffer as its other fields. An
/// untouched relayed batch is one slice copy.
pub fn encode_batch_into(packets: &[Packet], buf: &mut BytesMut) {
    match try_reuse_batch(packets) {
        Some(reused) => buf.put_slice(&reused),
        None => put_packets(packets, buf),
    }
}

/// Exact byte length of the batch [`encode_batch`] produces.
pub fn batch_encoded_size(packets: &[Packet]) -> usize {
    4 + packets.iter().map(Packet::encoded_size_hint).sum::<usize>()
}

fn put_packets(packets: &[Packet], buf: &mut BytesMut) {
    buf.put_u32_le(packets.len() as u32);
    for p in packets {
        encode_packet_into(p, buf);
    }
}

/// The original inbound batch buffer, if `packets` are exactly its
/// packets, in order, with untouched headers. Contiguity is checked
/// by address, so a reordered, filtered, or re-headered batch never
/// falsely matches.
fn try_reuse_batch(packets: &[Packet]) -> Option<Bytes> {
    let origin = packets.first()?.raw_origin()?.clone();
    if origin.len() < 4
        || u32::from_le_bytes(origin[..4].try_into().ok()?) as usize != packets.len()
    {
        return None;
    }
    let base = origin.as_ref().as_ptr() as usize;
    let mut expect = base + 4;
    for p in packets {
        let o = p.raw_origin()?;
        if o.as_ref().as_ptr() as usize != base || o.len() != origin.len() {
            return None;
        }
        let wire = p.raw_wire()?;
        if wire.as_ref().as_ptr() as usize != expect {
            return None;
        }
        expect += wire.len();
    }
    (expect == base + origin.len()).then_some(origin)
}

/// Validates a packet buffer's count and every packet's structure
/// against `limits`, building one packet per wire packet with `each`
/// from its header fields and byte range.
fn validate_batch(
    data: &[u8],
    limits: &DecodeLimits,
    mut each: impl FnMut(u32, i32, u32, Range<usize>) -> Packet,
) -> Result<Vec<Packet>> {
    if data.len() < 4 {
        return Err(PacketError::MalformedBatch("missing count"));
    }
    let count = u32::from_le_bytes(data[..4].try_into().expect("4 bytes"));
    if u64::from(count) > limits.max_elems {
        return Err(PacketError::MalformedBatch("count exceeds limit"));
    }
    let mut packets = Vec::with_capacity((count as usize).min(4096));
    let mut pos = 4usize;
    for _ in 0..count {
        let (stream_id, tag, src, end) = validate_packet_at(data, pos, limits)?;
        packets.push(each(stream_id, tag, src, pos..end));
        pos = end;
    }
    if pos != data.len() {
        return Err(PacketError::MalformedBatch("trailing bytes after batch"));
    }
    Ok(packets)
}

/// Decodes a packet buffer produced by [`encode_batch`] into lazy
/// packets: headers are parsed and every packet's wire structure is
/// validated against [`DecodeLimits::from_env`], but payloads stay as
/// zero-copy slices of `bytes` until first touched.
pub fn decode_batch_lazy(bytes: Bytes) -> Result<Vec<Packet>> {
    decode_batch_lazy_with(bytes, &DecodeLimits::from_env())
}

/// [`decode_batch_lazy`] with explicit decode limits.
pub fn decode_batch_lazy_with(bytes: Bytes, limits: &DecodeLimits) -> Result<Vec<Packet>> {
    validate_batch(&bytes, limits, |stream_id, tag, src, range| {
        Packet::from_validated_wire(stream_id, tag, src, bytes.slice(range), Some(bytes.clone()))
    })
}

/// Decodes a packet buffer produced by [`encode_batch`].
pub fn decode_batch(bytes: Bytes) -> Result<Vec<Packet>> {
    decode_batch_with(bytes, &DecodeLimits::default())
}

/// Decodes a packet buffer with explicit decode limits: the same
/// validation pass as [`decode_batch_lazy_with`], then every packet is
/// materialized at once.
pub fn decode_batch_with(bytes: Bytes, limits: &DecodeLimits) -> Result<Vec<Packet>> {
    validate_batch(&bytes, limits, |stream_id, tag, src, range| {
        Packet::from_decoded(stream_id, tag, src, decode_payload_validated(&bytes[range]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

    fn pkt(n: i32) -> Packet {
        PacketBuilder::new(n as u32, n).push(n).build()
    }

    #[test]
    fn batch_round_trip() {
        let packets: Vec<_> = (0..10).map(pkt).collect();
        let decoded = decode_batch(encode_batch(&packets)).unwrap();
        assert_eq!(decoded, packets);
    }

    #[test]
    fn empty_batch_round_trip() {
        let decoded = decode_batch(encode_batch(&[])).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = BytesMut::from(&encode_batch(&[pkt(1)])[..]);
        bytes.put_u8(0);
        let err = decode_batch(bytes.freeze()).unwrap_err();
        assert!(matches!(err, PacketError::MalformedBatch(_)));
    }

    #[test]
    fn short_batch_rejected() {
        let err = decode_batch(Bytes::from_static(&[1, 0])).unwrap_err();
        assert!(matches!(err, PacketError::MalformedBatch(_)));
    }

    #[test]
    fn lying_count_rejected() {
        // Claims 3 packets but contains 1.
        let one = encode_batch(&[pkt(1)]);
        let mut raw = BytesMut::from(&one[..]);
        raw[0] = 3;
        let err = decode_batch(raw.freeze()).unwrap_err();
        assert!(matches!(err, PacketError::Truncated { .. }));
    }

    #[test]
    fn batcher_flushes_on_packet_count() {
        let mut b = Batcher::new(BatchPolicy {
            max_packets: 3,
            max_bytes: usize::MAX,
        });
        b.push(pkt(1));
        b.push(pkt(2));
        assert!(!b.should_flush());
        b.push(pkt(3));
        assert!(b.should_flush());
        assert_eq!(b.drain().len(), 3);
        assert!(b.is_empty());
        assert!(!b.should_flush());
    }

    #[test]
    fn batcher_flushes_on_byte_size() {
        let mut b = Batcher::new(BatchPolicy {
            max_packets: usize::MAX,
            max_bytes: 64,
        });
        b.push(PacketBuilder::new(0, 0).push(vec![0u8; 128]).build());
        assert!(b.should_flush());
    }

    #[test]
    fn unbatched_policy_flushes_every_packet() {
        let mut b = Batcher::new(BatchPolicy::unbatched());
        b.push(pkt(1));
        assert!(b.should_flush());
    }

    #[test]
    fn flush_encoded_round_trips() {
        let mut b = Batcher::new(BatchPolicy::default());
        assert!(b.flush_encoded().is_none());
        b.push(pkt(7));
        b.push(pkt(8));
        let bytes = b.flush_encoded().unwrap();
        let packets = decode_batch(bytes).unwrap();
        assert_eq!(packets, vec![pkt(7), pkt(8)]);
        assert!(b.is_empty());
    }

    #[test]
    fn pending_matches_compares_handles() {
        let a = pkt(1);
        let b = pkt(1); // equal contents, different buffers
        let mut batcher = Batcher::new(BatchPolicy::default());
        batcher.push(a.clone());
        assert!(batcher.pending_matches(std::slice::from_ref(&a)));
        assert!(!batcher.pending_matches(&[b])); // handle identity, not equality
        assert!(!batcher.pending_matches(&[])); // length mismatch
        assert!(!batcher.pending_matches(&[a.clone(), a]));
    }

    #[test]
    fn lazy_batch_round_trips_and_stays_raw() {
        let packets: Vec<_> = (0..10).map(pkt).collect();
        let decoded = decode_batch_lazy(encode_batch(&packets)).unwrap();
        assert!(decoded.iter().all(Packet::is_lazy));
        assert_eq!(decoded, packets); // equality materializes
        assert!(decoded.iter().all(|p| !p.is_lazy()));
    }

    #[test]
    fn untouched_relayed_batch_reuses_the_inbound_buffer() {
        let packets: Vec<_> = (0..4).map(pkt).collect();
        let inbound = encode_batch(&packets);
        let relayed = decode_batch_lazy(inbound.clone()).unwrap();
        let outbound = encode_batch(&relayed);
        assert_eq!(outbound, inbound);
        // Pointer-identical, not just equal: the same backing buffer.
        assert_eq!(outbound.as_ref().as_ptr(), inbound.as_ref().as_ptr());
        assert!(relayed.iter().all(Packet::is_lazy), "relay must not decode");
    }

    #[test]
    fn reordered_or_partial_batch_does_not_reuse() {
        let packets: Vec<_> = (0..3).map(pkt).collect();
        let inbound = encode_batch(&packets);
        let decoded = decode_batch_lazy(inbound.clone()).unwrap();

        let partial = encode_batch(&decoded[..2]);
        assert_ne!(partial.as_ref().as_ptr(), inbound.as_ref().as_ptr());
        assert_eq!(decode_batch(partial).unwrap(), packets[..2]);

        let swapped = vec![decoded[1].clone(), decoded[0].clone(), decoded[2].clone()];
        let reordered = encode_batch(&swapped);
        assert_ne!(reordered.as_ref().as_ptr(), inbound.as_ref().as_ptr());
        assert_eq!(decode_batch(reordered).unwrap(), swapped);
    }

    #[test]
    fn retagged_packet_spoils_batch_reuse_but_encodes_correctly() {
        let packets: Vec<_> = (0..2).map(pkt).collect();
        let inbound = encode_batch(&packets);
        let decoded = decode_batch_lazy(inbound.clone()).unwrap();
        let retargeted: Vec<_> = decoded.into_iter().map(|p| p.with_stream(9)).collect();
        let outbound = encode_batch(&retargeted);
        assert_ne!(outbound.as_ref().as_ptr(), inbound.as_ref().as_ptr());
        let back = decode_batch(outbound).unwrap();
        assert!(back.iter().all(|p| p.stream_id() == 9));
    }

    #[test]
    fn lazy_decode_rejects_malformed_batches() {
        // Same hostile shapes the eager decoder rejects.
        assert!(decode_batch_lazy(Bytes::from_static(&[1, 0])).is_err());
        let mut trailing = BytesMut::from(&encode_batch(&[pkt(1)])[..]);
        trailing.put_u8(0);
        assert!(matches!(
            decode_batch_lazy(trailing.freeze()).unwrap_err(),
            PacketError::MalformedBatch(_)
        ));
        let mut lying = BytesMut::from(&encode_batch(&[pkt(1)])[..]);
        lying[0] = 3;
        assert!(matches!(
            decode_batch_lazy(lying.freeze()).unwrap_err(),
            PacketError::Truncated { .. }
        ));
    }

    #[test]
    fn batching_shares_payloads() {
        // Batcher holds handles, not copies.
        let p = pkt(1);
        let mut b = Batcher::new(BatchPolicy::default());
        b.push(p.clone());
        let drained = b.drain();
        assert!(drained[0].ptr_eq(&p));
    }
}
