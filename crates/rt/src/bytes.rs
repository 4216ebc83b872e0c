//! Cheaply cloneable, zero-copy byte buffers.
//!
//! [`Bytes`] is an immutable view into reference-counted storage: cloning
//! and slicing bump a refcount and adjust offsets, never copying payload.
//! This is what keeps per-packet cost flat through the proxy data plane —
//! a segment's payload can be sliced into the edit map, re-framed by a
//! filter, and queued for retransmission while all views share one
//! allocation.
//!
//! # Storage pooling
//!
//! Payload storage is recycled through a thread-local, size-classed pool:
//! when the **last** view of a buffer drops, its `Arc<Vec<u8>>` — the byte
//! storage *and* the refcount block — goes back on a per-thread shelf, and
//! the copying constructor ([`Bytes::copy_from_slice`]) takes from the
//! shelf before asking the allocator. A simulation in steady state
//! (packets born and retired at a matched rate) therefore stops allocating
//! for payloads entirely; the `alloc-stats` regression gate in CI pins
//! that property. The pool is
//! invisible to callers: contents, equality, and [`Bytes::ptr_eq`]
//! semantics are exactly as if every buffer were freshly allocated.

use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::{Arc, OnceLock};

/// Shared storage for the empty buffer so `Bytes::new()` never allocates.
fn empty_storage() -> &'static Arc<Vec<u8>> {
    static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Vec::new()))
}

/// Thread-local freelist of unique `Arc<Vec<u8>>` storages, shelved by
/// power-of-two capacity class. Bounded per class so a burst can never pin
/// more than a few megabytes per thread.
mod pool {
    use super::*;

    /// Smallest pooled capacity: 2^6 = 64 B (a minimal packet payload).
    const MIN_CLASS: u32 = 6;
    /// Largest pooled capacity: 2^17 = 128 KiB (several TCP chunks).
    const MAX_CLASS: u32 = 17;
    /// Storages kept per class; beyond this, drops fall through to `free`.
    const PER_CLASS: usize = 16;
    const N_CLASSES: usize = (MAX_CLASS - MIN_CLASS + 1) as usize;

    thread_local! {
        static SHELVES: RefCell<Vec<Vec<Arc<Vec<u8>>>>> = const { RefCell::new(Vec::new()) };
    }

    /// Returns empty, uniquely-owned storage with capacity ≥ `min_cap`.
    pub(super) fn take(min_cap: usize) -> Arc<Vec<u8>> {
        let want = min_cap.max(1 << MIN_CLASS).next_power_of_two();
        let class = want.trailing_zeros();
        if class <= MAX_CLASS {
            let hit = SHELVES.with(|s| {
                let mut shelves = s.borrow_mut();
                if shelves.is_empty() {
                    shelves.resize_with(N_CLASSES, Vec::new);
                }
                // Entries on shelf `c` have capacity in [2^c, 2^(c+1)), so
                // anything on this shelf or above fits the request.
                shelves[(class - MIN_CLASS) as usize..]
                    .iter_mut()
                    .find_map(Vec::pop)
            });
            if let Some(arc) = hit {
                debug_assert!(arc.is_empty() && arc.capacity() >= min_cap);
                return arc;
            }
        }
        Arc::new(Vec::with_capacity(want.max(min_cap)))
    }

    /// Shelves uniquely-owned storage for reuse; oversized, undersized, or
    /// overflow storages are simply freed.
    pub(super) fn put(arc: Arc<Vec<u8>>) {
        let cap = arc.capacity();
        if !(1 << MIN_CLASS..=1 << MAX_CLASS).contains(&cap) {
            return;
        }
        debug_assert!(arc.is_empty(), "pooled storage must be cleared");
        let class = cap.ilog2();
        // `try_with`: during thread teardown the shelf may already be
        // destroyed; let the storage free normally then.
        let _ = SHELVES.try_with(|s| {
            let mut shelves = s.borrow_mut();
            if shelves.is_empty() {
                shelves.resize_with(N_CLASSES, Vec::new);
            }
            let shelf = &mut shelves[(class - MIN_CLASS) as usize];
            if shelf.len() < PER_CLASS {
                shelf.push(arc);
            }
        });
    }
}

/// If `data` is the last reference to its storage, clears it and shelves
/// it on the thread-local pool (called from the `Drop` of both buffer
/// types).
fn reclaim(data: &mut Arc<Vec<u8>>) {
    // Fast path out: shared storage (other views alive, or the static
    // empty sentinel) just decrements its refcount on drop. The count is a
    // plain load; `get_mut` (a compare-and-swap on the storage header)
    // runs only when this view may be the last, and still decides.
    if Arc::strong_count(data) != 1 {
        return;
    }
    let Some(v) = Arc::get_mut(data) else { return };
    if v.capacity() == 0 {
        return;
    }
    v.clear();
    pool::put(std::mem::replace(data, empty_storage().clone()));
}

/// An immutable, reference-counted slice of bytes.
///
/// `Clone` and [`Bytes::slice`] are O(1) and allocation-free; the payload
/// is copied only by explicit constructors ([`Bytes::copy_from_slice`]).
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Drop for Bytes {
    fn drop(&mut self) {
        reclaim(&mut self.data);
    }
}

impl Bytes {
    /// Creates an empty buffer without allocating.
    pub fn new() -> Self {
        Bytes {
            data: empty_storage().clone(),
            off: 0,
            len: 0,
        }
    }

    /// Copies `src` into a fresh buffer (pooled storage when available).
    pub fn copy_from_slice(src: &[u8]) -> Self {
        if src.is_empty() {
            return Bytes::new();
        }
        let mut data = pool::take(src.len());
        Arc::get_mut(&mut data)
            .expect("pooled storage is unique")
            .extend_from_slice(src);
        Bytes {
            data,
            off: 0,
            len: src.len(),
        }
    }

    /// Creates a buffer from a static slice (copied once; the storage is
    /// refcounted like any other `Bytes`).
    pub fn from_static(src: &'static [u8]) -> Self {
        Bytes::copy_from_slice(src)
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a zero-copy sub-view; `range` is relative to this view.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or decreasing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds for Bytes of len {}",
            self.len
        );
        Bytes {
            data: self.data.clone(),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Splits the view at `at`: `self` keeps `[0, at)`, the returned view
    /// holds `[at, len)`. Zero-copy.
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> Self {
        assert!(at <= self.len, "split_off at {at} beyond len {}", self.len);
        let tail = Bytes {
            data: self.data.clone(),
            off: self.off + at,
            len: self.len - at,
        };
        self.len = at;
        tail
    }

    /// Splits the view at `at`: the returned view holds `[0, at)`, `self`
    /// keeps `[at, len)`. Zero-copy.
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Self {
        assert!(at <= self.len, "split_to at {at} beyond len {}", self.len);
        let head = Bytes {
            data: self.data.clone(),
            off: self.off,
            len: at,
        };
        self.off += at;
        self.len -= at;
        head
    }

    /// Returns `true` if `self` and `other` are the *same view* of the
    /// same storage (identical allocation, offset, and length).
    ///
    /// This is an O(1) identity check, not a content comparison: it can
    /// return `false` for views with equal contents, but never returns
    /// `true` for views that differ. Hot paths (the proxy engine's
    /// capability diff) use it to prove a payload untouched without
    /// reading a single payload byte.
    pub fn ptr_eq(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.data, &other.data) && self.off == other.off && self.len == other.len
    }

    /// The view as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    /// Copies the view into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
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
        let len = v.len();
        Bytes {
            data: Arc::new(v),
            off: 0,
            len,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
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
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Packet payloads are routinely kilobytes; clamp the dump.
        const MAX: usize = 32;
        write!(f, "Bytes[{}; ", self.len)?;
        for b in self.as_slice().iter().take(MAX) {
            write!(f, "{b:02x}")?;
        }
        if self.len > MAX {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty_and_shares_storage() {
        let a = Bytes::new();
        let b = Bytes::new();
        assert!(a.is_empty());
        assert!(Arc::ptr_eq(&a.data, &b.data));
    }

    #[test]
    fn slice_is_zero_copy() {
        let b = Bytes::from((0u8..100).collect::<Vec<_>>());
        let mid = b.slice(10..20);
        assert_eq!(&mid[..], &(10u8..20).collect::<Vec<_>>()[..]);
        assert!(Arc::ptr_eq(&b.data, &mid.data));
        let nested = mid.slice(5..);
        assert_eq!(&nested[..], &[15, 16, 17, 18, 19]);
        assert_eq!(b.slice(..).len(), 100);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1, 2, 3]).slice(1..5);
    }

    #[test]
    fn split_off_and_to() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let tail = b.split_off(3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(&tail[..], &[4, 5]);
        let mut c = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = c.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&c[..], &[3, 4, 5]);
    }

    #[test]
    fn equality_is_by_content() {
        let a = Bytes::from(vec![9, 9, 7]);
        let b = Bytes::from(vec![0, 9, 9, 7]).slice(1..);
        assert_eq!(a, b);
        assert_eq!(a, vec![9, 9, 7]);
        assert_eq!(a, &[9u8, 9, 7][..]);
    }

    #[test]
    fn dropped_storage_is_reused_from_the_pool() {
        // Drain whatever this thread's pool already shelved at this size
        // so the identity check below sees our storage, not a leftover.
        let drained: Vec<Bytes> = (0..64)
            .map(|_| Bytes::copy_from_slice(&[0u8; 100]))
            .collect();
        drop(drained);
        let first = Bytes::copy_from_slice(&[7u8; 100]);
        let ptr = first.as_slice().as_ptr();
        drop(first);
        let second = Bytes::copy_from_slice(&[9u8; 100]);
        assert_eq!(
            second.as_slice().as_ptr(),
            ptr,
            "storage must come back from the thread-local pool"
        );
        assert_eq!(&second[..8], &[9u8; 8]);
    }

    #[test]
    fn shared_storage_is_not_reclaimed_early() {
        let a = Bytes::copy_from_slice(&[5u8; 200]);
        let b = a.slice(50..150);
        drop(a);
        // The slice keeps the storage alive; contents stay intact even if
        // new buffers are minted meanwhile.
        let noise = Bytes::copy_from_slice(&[0xaa; 200]);
        assert_eq!(&b[..], &[5u8; 100][..]);
        drop(noise);
    }

    #[test]
    fn debug_clamps_output() {
        let b = Bytes::from(vec![0xaa; 1000]);
        let s = format!("{b:?}");
        assert!(s.len() < 120, "debug output too long: {s}");
    }
}
