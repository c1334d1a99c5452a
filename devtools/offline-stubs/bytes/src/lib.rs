//! In-tree stand-in for the `bytes` crate covering exactly the API surface
//! this workspace uses: `Bytes`, `BytesMut`, and the `Buf`/`BufMut`
//! traits with little-endian accessors.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable byte buffer: a view into one shared
/// allocation. [`BytesMut::freeze`] hands a buffer's allocation over
/// without copying it.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Wraps a static byte slice (copies in this stub).
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        let end = data.len();
        Bytes {
            data: Arc::from(data),
            start: 0,
            end,
        }
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a sub-view sharing the same backing storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Copies `v` into a shared allocation. Code that builds a buffer
    /// to freeze writes it through [`BytesMut`] instead, which needs no
    /// copy.
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

/// A growable byte buffer for encoding. It writes straight into the
/// shared allocation a [`Bytes`] reads from, so [`BytesMut::freeze`]
/// is free: one allocation per buffer, no copy. (A `Bytes` holding an
/// `Arc<Vec<u8>>` would also freeze without a copy, but costs a second
/// allocation per buffer and a second pointer hop per read.)
pub struct BytesMut {
    /// Never shared until `freeze`, so `Arc::get_mut` always succeeds.
    /// Bytes past `len` are spare capacity.
    buf: Arc<[u8]>,
    len: usize,
}

/// A fresh zero-filled allocation of `len` bytes.
fn alloc_zeroed(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0, len).collect()
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::with_capacity(0)
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: alloc_zeroed(cap),
            len: 0,
        }
    }

    /// Creates a buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> BytesMut {
        BytesMut {
            buf: alloc_zeroed(len),
            len,
        }
    }

    /// Reserves capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        let need = self.len + additional;
        if need > self.buf.len() {
            let mut grown = alloc_zeroed(need.max(2 * self.buf.len()));
            Arc::get_mut(&mut grown).expect("fresh allocation")[..self.len]
                .copy_from_slice(&self.buf[..self.len]);
            self.buf = grown;
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resizes the buffer to `new_len` bytes, filling any new bytes
    /// with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        if new_len > self.len {
            self.reserve(new_len - self.len);
            let len = self.len;
            self.spare()[..new_len - len].fill(value);
        }
        self.len = new_len;
    }

    /// Freezes into an immutable [`Bytes`] that keeps this buffer's
    /// allocation.
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.buf,
            start: 0,
            end: self.len,
        }
    }

    /// The whole allocation, writable.
    fn buf_mut(&mut self) -> &mut [u8] {
        Arc::get_mut(&mut self.buf).expect("a BytesMut owns its buffer alone")
    }

    /// The capacity past the written bytes, writable.
    fn spare(&mut self) -> &mut [u8] {
        let len = self.len;
        &mut self.buf_mut()[len..]
    }
}

impl Default for BytesMut {
    fn default() -> BytesMut {
        BytesMut::new()
    }
}

impl Clone for BytesMut {
    fn clone(&self) -> BytesMut {
        BytesMut::from(&self[..])
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let len = self.len;
        &mut self.buf_mut()[..len]
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> BytesMut {
        let mut b = BytesMut::with_capacity(v.len());
        b.put_slice(v);
        b
    }
}

/// Read access to a byte cursor.
#[allow(missing_docs)]
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The current contiguous chunk.
    fn chunk(&self) -> &[u8];
    /// Advances the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copies `dst.len()` bytes out, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        let mut off = 0;
        while off < dst.len() {
            let chunk = self.chunk();
            let n = chunk.len().min(dst.len() - off);
            dst[off..off + n].copy_from_slice(&chunk[..n]);
            self.advance(n);
            off += n;
        }
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_i32_le(&mut self) -> i32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        i32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }

    fn get_f32_le(&mut self) -> f32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        f32::from_le_bytes(b)
    }

    fn get_f64_le(&mut self) -> f64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        f64::from_le_bytes(b)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl<B: Buf + ?Sized> Buf for &mut B {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }

    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }

    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt);
    }
}

/// Write access to a growable byte buffer.
#[allow(missing_docs)]
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.reserve(src.len());
        self.spare()[..src.len()].copy_from_slice(src);
        self.len += src.len();
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_keeps_the_allocation_and_slices_share_it() {
        let mut m = BytesMut::with_capacity(8);
        m.put_slice(&[5, 6, 7]);
        let ptr = m.as_ptr();
        let frozen = m.freeze();
        assert_eq!(frozen.as_ptr(), ptr);
        assert_eq!(&frozen[..], &[5, 6, 7]);

        let tail = frozen.slice(1..);
        assert_eq!(tail.as_ptr(), ptr.wrapping_add(1));
        assert_eq!(&tail[..], &[6, 7]);

        // A buffer filled in place, as a socket reader does, too.
        let mut z = BytesMut::zeroed(4);
        z.copy_from_slice(&[1, 2, 3, 4]);
        let ptr = z.as_ptr();
        assert_eq!(z.freeze().as_ptr(), ptr);
    }

    #[test]
    fn writes_past_capacity_grow_and_keep_contents() {
        let mut m = BytesMut::new();
        for i in 0..100u8 {
            m.put_u8(i);
        }
        m.put_u32_le(0xdead_beef);
        assert_eq!(m.len(), 104);
        assert_eq!(&m[..3], &[0, 1, 2]);
        assert_eq!(&m[100..], &0xdead_beefu32.to_le_bytes());
        let copy = m.clone();
        m[0] = 9;
        assert_eq!(copy[0], 0, "a clone is a separate buffer");
        assert_eq!(Bytes::from(vec![1u8, 2]), copy.freeze().slice(1..3));
    }

    #[test]
    fn resize_grows_with_fill_and_truncates() {
        let mut m = BytesMut::new();
        m.put_u8(9);
        m.resize(4, 7);
        assert_eq!(&m[..], &[9, 7, 7, 7]);
        m[1..].copy_from_slice(&[1, 2, 3]);
        m.resize(2, 0);
        assert_eq!(&m[..], &[9, 1]);
        m.resize(3, 5);
        assert_eq!(&m[..], &[9, 1, 5]);
    }
}
