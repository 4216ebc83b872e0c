//! Allocation accounting: a counting `#[global_allocator]` wrapper and the
//! [`AllocScope`] guard, behind the `alloc-stats` feature.
//!
//! The sharded runner's performance contract is *zero heap allocations per
//! steady-state window*; claims like that rot unless they are measured on
//! every CI run. With `alloc-stats` enabled this module installs
//! [`CountingAlloc`] as the global allocator: a pass-through wrapper over
//! [`std::alloc::System`] that bumps **per-thread** counters on every
//! `alloc`/`dealloc`/`realloc`. Per-thread matters twice over — the hot
//! counters need no atomics, and each shard worker accounts for exactly the
//! allocations its own window loop performs, unpolluted by its peers.
//!
//! Without the feature the API still compiles (benches and tests keep one
//! code path) but every counter reads zero and [`enabled`] returns `false`,
//! so callers can distinguish "no allocations" from "not measuring".
//!
//! The counters are `const`-initialized thread-locals: they need no lazy
//! initialization and register no destructor, which makes them safe to
//! touch from inside the allocator itself (a lazily-initialized
//! thread-local could recurse into `alloc` while being created). During
//! thread teardown, when thread-local storage may already be gone, counting
//! quietly skips rather than aborting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Sub;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static DEALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Requested bytes this thread allocated minus those it freed: negative
    /// when it frees what another thread allocated.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// High-water of `LIVE_BYTES` since the innermost open [`AllocScope`].
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

#[inline]
fn bump(key: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    // `try_with`: a thread being torn down has no TLS left; skip counting
    // there instead of aborting the process from inside the allocator.
    let _ = key.try_with(|c| c.set(c.get().wrapping_add(by)));
}

/// Moves this thread's outstanding requested bytes by `by`, raising the
/// high-water mark when it grows past it.
#[inline]
fn bump_live(by: i64) {
    let _ = LIVE_BYTES.try_with(|live| {
        let now = live.get().wrapping_add(by);
        live.set(now);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// Pass-through allocator that counts per-thread allocation traffic.
///
/// Installed as the `#[global_allocator]` when the crate is built with the
/// `alloc-stats` feature; inert (never instantiated as the global) without
/// it.
pub struct CountingAlloc;

// SAFETY: defers every allocation verbatim to `System`; the counter
// updates touch only const-initialized thread-local `Cell`s, which cannot
// allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&ALLOC_BYTES, layout.size() as u64);
        bump_live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&ALLOC_BYTES, layout.size() as u64);
        bump_live(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCS, 1);
        bump(&DEALLOC_BYTES, layout.size() as u64);
        bump_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc retires one block and produces another: count both
        // sides so net outstanding blocks stay balanced.
        bump(&ALLOCS, 1);
        bump(&ALLOC_BYTES, new_size as u64);
        bump(&DEALLOCS, 1);
        bump(&DEALLOC_BYTES, layout.size() as u64);
        bump_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(feature = "alloc-stats")]
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Whether allocation accounting is compiled in (`alloc-stats` feature).
///
/// When `false`, every counter reads zero: a zero delta means "not
/// measured", not "allocation-free".
pub const fn enabled() -> bool {
    cfg!(feature = "alloc-stats")
}

/// A snapshot (or delta) of one thread's allocation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Number of `alloc`/`alloc_zeroed` calls (plus one per `realloc`).
    pub allocs: u64,
    /// Number of `dealloc` calls (plus one per `realloc`).
    pub deallocs: u64,
    /// Total bytes requested by allocations.
    pub alloc_bytes: u64,
    /// Total bytes returned by deallocations.
    pub dealloc_bytes: u64,
}

impl Sub for AllocCounts {
    type Output = AllocCounts;
    fn sub(self, rhs: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs.wrapping_sub(rhs.allocs),
            deallocs: self.deallocs.wrapping_sub(rhs.deallocs),
            alloc_bytes: self.alloc_bytes.wrapping_sub(rhs.alloc_bytes),
            dealloc_bytes: self.dealloc_bytes.wrapping_sub(rhs.dealloc_bytes),
        }
    }
}

/// Reads the calling thread's cumulative allocation counters (all zero
/// when the `alloc-stats` feature is off).
pub fn thread_counts() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.with(Cell::get),
        deallocs: DEALLOCS.with(Cell::get),
        alloc_bytes: ALLOC_BYTES.with(Cell::get),
        dealloc_bytes: DEALLOC_BYTES.with(Cell::get),
    }
}

/// Measures the allocation traffic of a region of code on the current
/// thread: snapshot at [`AllocScope::begin`], read the delta any time with
/// [`AllocScope::delta`] and the high-water of outstanding bytes with
/// [`AllocScope::peak_live_bytes`].
///
/// ```
/// let scope = comma_rt::alloc::AllocScope::begin();
/// let v: Vec<u64> = (0..64).collect();
/// let d = scope.delta();
/// // With `alloc-stats` enabled this sees the Vec's allocation; without
/// // it the delta is zero.
/// assert!(d.allocs >= u64::from(comma_rt::alloc::enabled()));
/// drop(v);
/// ```
pub struct AllocScope {
    start: AllocCounts,
    /// Outstanding bytes at `begin`.
    start_live: i64,
    /// The enclosing scope's high-water at `begin`, folded back in on drop
    /// so nested scopes do not hide each other's peaks.
    outer_peak: i64,
}

impl AllocScope {
    /// Snapshots the current thread's counters and starts a fresh
    /// high-water mark.
    pub fn begin() -> Self {
        let start_live = LIVE_BYTES.with(Cell::get);
        AllocScope {
            start: thread_counts(),
            start_live,
            outer_peak: PEAK_BYTES.with(|peak| peak.replace(start_live)),
        }
    }

    /// Allocation traffic on this thread since [`AllocScope::begin`].
    pub fn delta(&self) -> AllocCounts {
        thread_counts() - self.start
    }

    /// The most requested bytes this thread held at once since
    /// [`AllocScope::begin`], over what it held then: a deterministic
    /// memory high-water, the same on every host (zero without
    /// `alloc-stats`).
    pub fn peak_live_bytes(&self) -> u64 {
        (PEAK_BYTES.with(Cell::get) - self.start_live).max(0) as u64
    }
}

impl Drop for AllocScope {
    fn drop(&mut self) {
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(self.outer_peak)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_scoped() {
        let scope = AllocScope::begin();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let mid = scope.delta();
        drop(v);
        let end = scope.delta();
        if enabled() {
            assert!(mid.allocs >= 1, "allocation not counted: {mid:?}");
            assert!(mid.alloc_bytes >= 4096, "bytes not counted: {mid:?}");
            assert!(end.deallocs > mid.deallocs, "deallocation not counted");
        } else {
            assert_eq!(mid, AllocCounts::default());
            assert_eq!(end, AllocCounts::default());
        }
    }

    #[test]
    fn peak_live_bytes_is_the_high_water_and_nests() {
        let outer = AllocScope::begin();
        let big: Vec<u8> = Vec::with_capacity(8192);
        drop(big);
        let inner = AllocScope::begin();
        let small: Vec<u8> = Vec::with_capacity(1024);
        let inner_peak = inner.peak_live_bytes();
        drop(small);
        drop(inner);
        if enabled() {
            assert!((1024..8192).contains(&inner_peak), "inner scope saw {inner_peak}");
            assert!(outer.peak_live_bytes() >= 8192, "the inner scope hid the outer peak");
        } else {
            assert_eq!((inner_peak, outer.peak_live_bytes()), (0, 0));
        }
    }

    #[test]
    fn zero_work_is_zero_delta() {
        let scope = AllocScope::begin();
        // Arithmetic on the stack must never register as heap traffic.
        let mut acc = 0u64;
        for i in 0..1000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(acc);
        assert_eq!(scope.delta(), AllocCounts::default());
    }
}
