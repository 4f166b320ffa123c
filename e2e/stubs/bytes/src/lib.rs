//! Offline stand-in for the subset of `bytes` the workspace uses, for
//! the hermetic `oe-e2e` benchmark build. `Bytes` is a cheaply
//! clonable, sliceable view over shared immutable storage; `BytesMut`
//! is a growable buffer that freezes into one without copying.

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Store {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

#[derive(Clone)]
pub struct Bytes {
    store: Store,
    start: usize,
    end: usize,
}

impl Bytes {
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    pub const fn from_static(b: &'static [u8]) -> Self {
        Bytes {
            store: Store::Static(b),
            start: 0,
            end: b.len(),
        }
    }

    pub fn copy_from_slice(b: &[u8]) -> Self {
        Bytes::from(b.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

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
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of 0..{}", self.len());
        Bytes {
            store: self.store.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start += at;
        head
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    pub fn clear(&mut self) {
        self.end = self.start;
    }

    fn as_slice(&self) -> &[u8] {
        match &self.store {
            Store::Static(b) => &b[self.start..self.end],
            Store::Shared(v) => &v[self.start..self.end],
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            store: Store::Shared(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Self {
        Bytes::from_static(b)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub const fn new() -> Self {
        BytesMut(Vec::new())
    }

    pub fn with_capacity(n: usize) -> Self {
        BytesMut(Vec::with_capacity(n))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    pub fn reserve(&mut self, n: usize) {
        self.0.reserve(n);
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    pub fn truncate(&mut self, n: usize) {
        self.0.truncate(n);
    }

    pub fn resize(&mut self, n: usize, v: u8) {
        self.0.resize(n, v);
    }

    pub fn extend_from_slice(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl From<&[u8]> for BytesMut {
    fn from(b: &[u8]) -> Self {
        BytesMut(b.to_vec())
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({:?})", self.0)
    }
}

macro_rules! get_le {
    ($($name:ident -> $t:ty),*) => {$(
        fn $name(&mut self) -> $t {
            const N: usize = std::mem::size_of::<$t>();
            let mut raw = [0u8; N];
            raw.copy_from_slice(&self.chunk()[..N]);
            self.advance(N);
            <$t>::from_le_bytes(raw)
        }
    )*};
}

/// Read cursor over a contiguous byte source. Getters panic when fewer
/// bytes remain than they need, as the real crate does.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, n: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    get_le!(get_u16_le -> u16, get_u32_le -> u32, get_u64_le -> u64, get_i64_le -> i64, get_f32_le -> f32, get_f64_le -> f64);

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        let out = Bytes::copy_from_slice(&self.chunk()[..n]);
        self.advance(n);
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past the end");
        self.start += n;
    }

    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        self.split_to(n)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

macro_rules! put_le {
    ($($name:ident($t:ty)),*) => {$(
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// Append-only write cursor.
pub trait BufMut {
    fn put_slice(&mut self, b: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    put_le!(put_u16_le(u16), put_u32_le(u32), put_u64_le(u64), put_i64_le(i64), put_f32_le(f32), put_f64_le(f64));
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
}
