//! Offline shim for the subset of the `bytes` crate this workspace
//! uses: an immutable, cheaply clonable byte buffer. Backed by
//! `Arc<Vec<u8>>` plus a window, so clones are reference bumps,
//! [`Bytes::slice`] is zero-copy and `Bytes::from(Vec<u8>)` keeps the
//! vector's allocation, exactly like upstream — the coder leans on
//! this to hand out a codeword's shares as views into the one buffer
//! it wrote, and the WAL shelf store (`dh_store`) to give a recovered
//! item's shares the same layout: views into one buffer per item.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer (a window into a shared
/// allocation).
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Wrap a static byte slice.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copy out to a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }

    /// A zero-copy sub-window sharing the backing allocation: the
    /// returned `Bytes` is a reference bump, never a copy. Panics if
    /// the range is out of bounds (mirrors upstream `bytes`).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            begin <= end && end <= self.len(),
            "slice {begin}..{end} out of bounds of {} bytes",
            self.len()
        );
        Bytes { data: self.data.clone(), start: self.start + begin, end: self.start + end }
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
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

// Equality and hashing follow the *visible contents* (as upstream):
// two windows over different allocations with the same bytes are equal.
impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

/// Takes ownership: the vector's allocation becomes the backing, no
/// byte is copied.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { data: Arc::new(v), start: 0, end }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from_static(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_eq() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(Bytes::from_static(b"x").len(), 1);
        assert_eq!(Bytes::from("hi").to_vec(), b"hi".to_vec());
    }

    #[test]
    fn slices_are_zero_copy_views() {
        let a = Bytes::from(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let mid = a.slice(2..6);
        assert_eq!(&mid[..], &[2, 3, 4, 5]);
        assert_eq!(Arc::as_ptr(&a.data), Arc::as_ptr(&mid.data), "slice must share the backing");
        let inner = mid.slice(1..=2);
        assert_eq!(&inner[..], &[3, 4]);
        assert_eq!(mid.slice(..).len(), 4);
        assert!(a.slice(8..).is_empty());
    }

    #[test]
    fn eq_and_hash_follow_contents_not_backing() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let whole = Bytes::from(vec![9, 9, 5, 6, 9]);
        let window = whole.slice(2..4);
        let fresh = Bytes::from(vec![5, 6]);
        assert_eq!(window, fresh);
        let h = |b: &Bytes| {
            let mut s = DefaultHasher::new();
            b.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&window), h(&fresh));
    }

    #[test]
    fn from_vec_keeps_the_vectors_buffer() {
        let v: Vec<u8> = (0..64).collect();
        let at = v.as_ptr();
        let a = Bytes::from(v);
        assert_eq!(a.as_ptr(), at, "From<Vec<u8>> must not copy");
        let b = a.clone();
        assert_eq!(b.as_ptr(), at, "clone must share the buffer");
        assert!(Arc::ptr_eq(&a.data, &b.data));
        let tail = b.slice(16..);
        assert_eq!(tail.as_ptr(), at.wrapping_add(16), "slice must be a window");
        assert_eq!(&tail[..], &(16..64).collect::<Vec<u8>>()[..]);
        assert_eq!(Bytes::from(String::from("owned")).to_vec(), b"owned".to_vec());
    }

    #[test]
    fn new_static_eq_and_hash_are_unchanged() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |b: &Bytes| {
            let mut s = DefaultHasher::new();
            b.hash(&mut s);
            s.finish()
        };
        let empty = Bytes::new();
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty, Bytes::default());
        assert_eq!(empty, Bytes::from(Vec::new()));
        assert_eq!(h(&empty), h(&Bytes::from_static(b"")));
        let s = Bytes::from_static(b"static");
        assert_eq!(&s[..], b"static");
        assert_eq!(s, Bytes::from(b"static".to_vec()));
        assert_eq!(h(&s), h(&Bytes::from(b"static".to_vec())));
        assert_ne!(s, Bytes::from_static(b"statiC"));
        assert_eq!(format!("{s:?}"), "b\"static\"");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_slice_panics() {
        Bytes::from(vec![1, 2]).slice(1..4);
    }
}
