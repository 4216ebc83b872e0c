//! Resolved metric handles: the hot-path spelling of a counter or gauge
//! write.
//!
//! [`Obs::counter_handle`] / [`Obs::gauge_handle`] walk the registry once
//! and return a [`Counter`] / [`Gauge`] that carries the handle's shared
//! enabled flag and the metric's cell. A write through it is one relaxed
//! load and one add or store on the cell: no lock, no string compare, no
//! allocation. It lands in the same cell a by-name [`Obs::add`] /
//! [`Obs::gauge`] finds, so the two spellings cannot disagree, and it stays
//! valid across [`Obs::reset`].
//!
//! Code that owns a write *site* rather than an `Obs` — a simulator whose
//! `obs` field may be replaced, a per-kind table built before anyone turned
//! recording on — keeps a [`LazyCounter`] / [`LazyGauge`] instead: it
//! resolves on the first enabled write (so a key appears in the export only
//! once written, and a dark run never touches the registry) and re-resolves
//! if it is ever shown a different `Obs`, so it cannot write into a registry
//! it was not resolved against.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::registry::{with_cell, Cell};
use crate::Obs;

/// The shared part of a resolved handle.
#[derive(Clone)]
struct Slot {
    enabled: Arc<AtomicBool>,
    cell: Arc<Cell>,
}

impl Slot {
    #[inline]
    fn live(&self) -> Option<&Cell> {
        self.enabled.load(Ordering::Relaxed).then_some(&*self.cell)
    }

    /// `true` when this slot was resolved against `obs` (or a clone of it).
    #[inline]
    fn of(&self, obs: &Obs) -> bool {
        Arc::ptr_eq(&self.enabled, &obs.enabled)
    }
}

/// A counter resolved against one [`Obs`]. Clones share the cell.
#[derive(Clone)]
pub struct Counter(Slot);

impl Counter {
    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter (nothing while the `Obs` is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = self.0.live() {
            cell.add(n);
        }
    }
}

/// A gauge resolved against one [`Obs`]. Clones share the cell.
#[derive(Clone)]
pub struct Gauge(Slot);

impl Gauge {
    /// Sets the gauge to `v` (nothing while the `Obs` is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = self.0.live() {
            cell.set(v);
        }
    }
}

impl Obs {
    /// Resolves a counter once; the returned handle writes without looking
    /// anything up. Resolution alone does not make the key appear in the
    /// export — the first write does.
    pub fn counter_handle(&self, scope: &str, key: &'static str) -> Counter {
        let cell = with_cell(&mut self.inner().registry.counters, scope, key, Arc::clone);
        Counter(Slot { enabled: Arc::clone(&self.enabled), cell })
    }

    /// Resolves a gauge once; see [`Obs::counter_handle`].
    pub fn gauge_handle(&self, scope: &str, key: &'static str) -> Gauge {
        let cell = with_cell(&mut self.inner().registry.gauges, scope, key, Arc::clone);
        Gauge(Slot { enabled: Arc::clone(&self.enabled), cell })
    }
}

/// The cell behind a write site, resolved against `obs`: the cached one
/// when it belongs to `obs`, a freshly resolved one (now cached) otherwise.
#[inline]
fn site<'a>(cached: &'a mut Option<Slot>, obs: &Obs, resolve: impl FnOnce() -> Slot) -> &'a Cell {
    if !cached.as_ref().is_some_and(|slot| slot.of(obs)) {
        *cached = Some(resolve());
    }
    &cached.as_ref().expect("just resolved").cell
}

/// A counter write site: unresolved until its first enabled write, and
/// re-resolved whenever the `Obs` it is handed is not the one it holds.
/// Scope and key stay at the call site, exactly where a by-name write
/// spells them.
#[derive(Clone, Default)]
pub struct LazyCounter(Option<Slot>);

impl LazyCounter {
    /// [`Obs::inc`] through the cached cell.
    #[inline]
    pub fn inc(&mut self, obs: &Obs, scope: &str, key: &'static str) {
        self.add(obs, scope, key, 1);
    }

    /// [`Obs::add`] through the cached cell.
    #[inline]
    pub fn add(&mut self, obs: &Obs, scope: &str, key: &'static str, n: u64) {
        if obs.is_enabled() {
            site(&mut self.0, obs, || obs.counter_handle(scope, key).0).add(n);
        }
    }
}

/// A gauge write site; see [`LazyCounter`].
#[derive(Clone, Default)]
pub struct LazyGauge(Option<Slot>);

impl LazyGauge {
    /// [`Obs::gauge`] through the cached cell.
    #[inline]
    pub fn set(&mut self, obs: &Obs, scope: &str, key: &'static str, v: f64) {
        if obs.is_enabled() {
            site(&mut self.0, obs, || obs.gauge_handle(scope, key).0).set(v);
        }
    }
}
