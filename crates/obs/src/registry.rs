//! The typed metrics registry: counters, gauges, and fixed-bucket
//! histograms, keyed by a runtime *scope* (a node, connection, channel, or
//! filter instance) and a `&'static str` metric key.
//!
//! Everything is stored in `BTreeMap`s so iteration — and therefore the
//! JSONL export and the summary tables — is deterministic. A counter or
//! gauge value is a shared atomic cell: the maps are walked (under the
//! registry's mutex) only to *find* the cell — by a by-name write, or once
//! by a handle at resolution — and every write after that is a relaxed
//! add or store on the cell itself. Histograms stay plain values behind
//! the mutex.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The value of one counter (a `u64`) or one gauge (`f64` bits), shared
/// between the registry's map and every handle resolved against it.
///
/// `Relaxed` throughout: the value is a statistic and publishes no other
/// data. An add is a load and a store, not a read-modify-write: a world is
/// stepped by one thread at a time and its `Obs` is written from there, so
/// the sum is exact; two threads adding to one cell at once could lose an
/// increment, never tear a value. A cell is listed by the read path only
/// once `written` — a handle resolved but never written, or a cell zeroed
/// by `reset`, exports nothing.
#[derive(Default)]
pub(crate) struct Cell {
    bits: AtomicU64,
    written: AtomicBool,
}

impl Cell {
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        let sum = self.bits.load(Ordering::Relaxed).wrapping_add(n);
        self.bits.store(sum, Ordering::Relaxed);
        self.written.store(true, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        self.written.store(true, Ordering::Relaxed);
    }

    /// The counter value, `None` until written.
    pub(crate) fn count(&self) -> Option<u64> {
        self.written
            .load(Ordering::Relaxed)
            .then(|| self.bits.load(Ordering::Relaxed))
    }

    /// The gauge value, `None` until written.
    pub(crate) fn value(&self) -> Option<f64> {
        self.count().map(f64::from_bits)
    }

    fn clear(&self) {
        self.written.store(false, Ordering::Relaxed);
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// Scope → key → shared cell.
pub(crate) type Cells = BTreeMap<String, BTreeMap<&'static str, Arc<Cell>>>;

/// Runs `f` on the cell of `(scope, key)`, created unwritten on first
/// sight — the one way to a cell: a by-name write passes the write, handle
/// resolution passes `Arc::clone`. Allocates only on first sight (and the
/// scope string only the first time the scope is seen). Kept out of line so
/// the by-name writers stay small enough to inline down to their
/// disabled check.
#[inline(never)]
pub(crate) fn with_cell<R>(
    cells: &mut Cells,
    scope: &str,
    key: &'static str,
    f: impl FnOnce(&Arc<Cell>) -> R,
) -> R {
    let m = match cells.get_mut(scope) {
        Some(m) => m,
        None => cells.entry(scope.to_string()).or_default(),
    };
    f(m.entry(key).or_default())
}

/// Every written cell as `(scope, key, value)`, sorted by scope then key.
pub(crate) fn written<'a, T: 'a>(
    cells: &'a Cells,
    read: fn(&Cell) -> Option<T>,
) -> impl Iterator<Item = (&'a str, &'static str, T)> + 'a {
    cells.iter().flat_map(move |(scope, m)| {
        m.iter()
            .filter_map(move |(key, c)| Some((scope.as_str(), *key, read(c)?)))
    })
}

/// Zeroes cells a live handle still points at and forgets the rest.
fn clear_cells(cells: &mut Cells) {
    cells.retain(|_, m| {
        m.retain(|_, c| {
            c.clear();
            Arc::strong_count(c) > 1
        });
        !m.is_empty()
    });
}

/// A fixed-bucket histogram over `u64` samples.
///
/// Buckets are defined by inclusive upper bounds; one implicit overflow
/// bucket catches everything above the last bound. The invariant that the
/// bucket counts always sum to [`Histogram::count`] is property-tested in
/// `tests/properties.rs`.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given inclusive upper bounds
    /// (must be sorted ascending; an overflow bucket is added implicitly).
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds sorted");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Default exponential bounds: powers of two from 1 to 2^40 — wide
    /// enough for byte sizes and nanosecond latencies alike.
    pub fn exponential() -> Self {
        let bounds: Vec<u64> = (0..=40).map(|i| 1u64 << i).collect();
        Histogram::new(&bounds)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The inclusive bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries; last is overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// The registry proper. Interior to [`crate::Obs`]; all access goes through
/// the handle so the enabled check and the locking discipline live in one
/// place.
#[derive(Default)]
pub(crate) struct Registry {
    pub(crate) counters: Cells,
    pub(crate) gauges: Cells,
    pub(crate) hists: BTreeMap<String, BTreeMap<&'static str, Histogram>>,
}

impl Registry {
    pub(crate) fn hist(&mut self, scope: &str, key: &'static str, v: u64) {
        let m = match self.hists.get_mut(scope) {
            Some(m) => m,
            None => self.hists.entry(scope.to_string()).or_default(),
        };
        m.entry(key).or_insert_with(Histogram::exponential).record(v);
    }

    /// Empties the registry as the read path sees it. Cells a handle still
    /// holds stay in the map, zeroed and unwritten, so the handle's next
    /// write is a fresh first write that the export shows.
    pub(crate) fn clear(&mut self) {
        clear_cells(&mut self.counters);
        clear_cells(&mut self.gauges);
        self.hists.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [1, 10, 11, 100, 101, 5000] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(5000));
        assert_eq!(h.sum(), 1 + 10 + 11 + 100 + 101 + 5000);
    }

    #[test]
    fn registry_scoping() {
        let mut r = Registry::default();
        with_cell(&mut r.counters, "a", "x", |c| c.add(1));
        with_cell(&mut r.counters, "a", "x", |c| c.add(2));
        with_cell(&mut r.counters, "b", "x", |c| c.add(5));
        assert_eq!(r.counters["a"]["x"].count(), Some(3));
        assert_eq!(r.counters["b"]["x"].count(), Some(5));
        with_cell(&mut r.gauges, "a", "g", |c| c.set(2.5));
        with_cell(&mut r.gauges, "a", "g", |c| c.set(3.5));
        assert_eq!(r.gauges["a"]["g"].value(), Some(3.5));
        r.hist("a", "h", 7);
        assert_eq!(r.hists["a"]["h"].count(), 1);
    }
}
