//! `comma-obs`: the metrics registry and flight recorder of the Comma
//! reproduction. It replaced `FilterCtx::log` strings outright; four other
//! recorders still stand beside it, each with its own reader:
//! `netsim::Trace` (per-packet header facts, rendered to lines on read —
//! golden digests, `Oracle::replay_trace`, the benchmark's ledger), `netsim::stats::TimeSeries` (per-channel rate series —
//! Kati's `netload`), `proxy::EngineLog` + `EngineStats`/`InstanceStats`
//! (the SP's `report`/`log`, §5.3), and the EEM `MetricsHub` (execution-
//! environment variables — EEM servers, `kati> eem`, the filters'
//! `HubMetrics`; no longer mirrored here).
//!
//! Three pieces, one handle:
//!
//! - a **typed metrics registry** ([counters, gauges, fixed-bucket
//!   histograms](registry)) with `&'static str` keys and per-node/
//!   per-connection/per-filter scoping,
//! - a **flight recorder** ([recorder]) — a bounded ring buffer of
//!   structured events with sim-timestamps, replacing free-form log
//!   strings with queryable data,
//! - **exporters**: a hand-rolled [JSONL serializer](export) (no serde;
//!   byte-identical for identical seeds) and a [summary table
//!   renderer](table) shared with `bench::table`.
//!
//! # Determinism
//!
//! Everything keyed by sim time or derived from the seed is deterministic
//! and appears in [`Obs::export_jsonl`]. Host wall-clock measurements
//! (dispatch latency, shard barrier waits) are quarantined under the
//! reserved `wall` scope / `wall.`-prefixed keys: visible in
//! [`Obs::summary`], excluded from the export.
//!
//! # Zero overhead when disabled
//!
//! [`Obs`] is a cheap `Arc` handle that starts *disabled*; every mutator
//! first checks one relaxed `AtomicBool` load and returns. Hot paths
//! additionally guard with [`Obs::is_enabled`] so even argument
//! construction is skipped.
//!
//! # Cheap when enabled
//!
//! A counter or gauge value is a shared atomic cell. The by-name writes
//! ([`Obs::inc`], [`Obs::add`], [`Obs::gauge`]) take the registry's mutex
//! to *find* the cell and then write it; a resolved [handle] ([`Counter`],
//! [`Gauge`], or their first-write-resolving [`LazyCounter`] /
//! [`LazyGauge`]) found it once and from then on writes with one relaxed
//! load and one add or store on the cell. What still takes the mutex: handle
//! resolution, histograms, flight-recorder events, and every read,
//! export and `reset`. Both costs are benchmarked in
//! `crates/bench/benches/micro.rs` (`obs/*`).
//!
//! # Example
//!
//! ```
//! use comma_obs::{Obs, fields};
//!
//! let obs = Obs::enabled();
//! obs.inc("ch0", "link.enqueued");
//! obs.gauge("mobile.conn.1", "tcp.cwnd", 2920.0);
//! if obs.is_enabled() {
//!     obs.event(1500, "ttsf", "translate", fields!(seq = 4u64, len = 512usize));
//! }
//! assert_eq!(obs.counter("ch0", "link.enqueued"), 1);
//! assert!(obs.export_jsonl().contains("\"tcp.cwnd\""));
//! ```

pub mod export;
pub mod handle;
pub mod recorder;
pub mod registry;
pub mod table;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

pub use handle::{Counter, Gauge, LazyCounter, LazyGauge};
pub use recorder::{Event, FieldValue, DEFAULT_CAPACITY};
pub use registry::Histogram;
use registry::{with_cell, written, Cell};

/// Reserved scope for host wall-clock metrics (excluded from JSONL export).
pub const WALL_SCOPE: &str = "wall";

#[derive(Default)]
struct Inner {
    registry: registry::Registry,
    recorder: recorder::Recorder,
}

/// The observability handle: clone freely (it is two `Arc`s), share across
/// the simulator, hosts, proxies, and shells of one world. It is `Send`, so
/// a world that carries it can run on any thread; one world still writes
/// from one thread at a time, so the mutex inside is never contended.
///
/// A fresh handle is **disabled** — every recording method is a single
/// boolean load and return. Call [`Obs::set_enabled`] (or construct with
/// [`Obs::enabled`]) to start recording.
#[derive(Clone, Default)]
pub struct Obs {
    enabled: Arc<AtomicBool>,
    inner: Arc<Mutex<Inner>>,
}

impl Obs {
    /// Creates a disabled handle (recording methods are no-ops).
    pub fn new() -> Self {
        Obs::default()
    }

    /// Creates an enabled handle.
    pub fn enabled() -> Self {
        let obs = Obs::new();
        obs.set_enabled(true);
        obs
    }

    /// Turns recording on or off. State is shared by every clone.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// `true` when recording. Hot paths should check this before building
    /// scopes/fields so the disabled cost stays a single branch.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("an obs writer panicked mid-update")
    }

    // ---- write path -----------------------------------------------------

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&self, scope: &str, key: &'static str) {
        self.add(scope, key, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, scope: &str, key: &'static str, n: u64) {
        if !self.is_enabled() {
            return;
        }
        with_cell(&mut self.inner().registry.counters, scope, key, |c| c.add(n));
    }

    /// Sets a gauge to `v` (last write wins).
    #[inline]
    pub fn gauge(&self, scope: &str, key: &'static str, v: f64) {
        if !self.is_enabled() {
            return;
        }
        with_cell(&mut self.inner().registry.gauges, scope, key, |c| c.set(v));
    }

    /// Records `v` into a fixed-bucket histogram (exponential bounds).
    #[inline]
    pub fn hist(&self, scope: &str, key: &'static str, v: u64) {
        if !self.is_enabled() {
            return;
        }
        self.inner().registry.hist(scope, key, v);
    }

    /// Records a structured event into the flight recorder.
    pub fn event(
        &self,
        t_us: u64,
        scope: &str,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.inner().recorder.push(Event {
            t_us,
            scope: scope.to_string(),
            name,
            fields,
        });
    }

    // ---- read path ------------------------------------------------------

    /// Current value of a counter (0 when never written).
    pub fn counter(&self, scope: &str, key: &str) -> u64 {
        let inner = self.inner();
        let cell = inner.registry.counters.get(scope).and_then(|m| m.get(key));
        cell.and_then(|c| c.count()).unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, scope: &str, key: &str) -> Option<f64> {
        let inner = self.inner();
        let cell = inner.registry.gauges.get(scope).and_then(|m| m.get(key));
        cell.and_then(|c| c.value())
    }

    /// A copy of a histogram.
    pub fn histogram(&self, scope: &str, key: &str) -> Option<Histogram> {
        self.inner()
            .registry
            .hists
            .get(scope)
            .and_then(|m| m.get(key))
            .cloned()
    }

    /// All counters, sorted by scope then key.
    pub fn counters(&self) -> Vec<(String, &'static str, u64)> {
        written(&self.inner().registry.counters, Cell::count)
            .map(|(s, k, v)| (s.to_string(), k, v))
            .collect()
    }

    /// All gauges, sorted by scope then key.
    pub fn gauges(&self) -> Vec<(String, &'static str, f64)> {
        written(&self.inner().registry.gauges, Cell::value)
            .map(|(s, k, v)| (s.to_string(), k, v))
            .collect()
    }

    /// All histograms, sorted by scope then key.
    pub fn histograms(&self) -> Vec<(String, &'static str, Histogram)> {
        let inner = self.inner();
        inner
            .registry
            .hists
            .iter()
            .flat_map(|(s, m)| m.iter().map(move |(k, v)| (s.clone(), *k, v.clone())))
            .collect()
    }

    /// All scopes that carry at least one gauge, sorted. Useful for
    /// discovering per-connection scopes (`<node>.conn.<four-tuple>`).
    pub fn gauge_scopes(&self) -> Vec<String> {
        written_scopes(&self.inner().registry.gauges)
    }

    /// All scopes that carry at least one counter, sorted.
    pub fn counter_scopes(&self) -> Vec<String> {
        written_scopes(&self.inner().registry.counters)
    }

    /// A copy of the flight-recorder contents, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner().recorder.iter().cloned().collect()
    }

    /// Number of events currently buffered.
    pub fn events_len(&self) -> usize {
        self.inner().recorder.len()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.inner().recorder.dropped()
    }

    /// Clears all metrics and events (the enabled flag is untouched).
    /// Resolved handles stay valid: their cells are zeroed and export
    /// nothing until the next write.
    pub fn reset(&self) {
        let mut inner = self.inner();
        inner.registry.clear();
        inner.recorder.clear();
    }

    // ---- renderers ------------------------------------------------------

    /// Deterministic JSONL export of the registry and flight recorder
    /// (wall-clock metrics excluded; see the module docs of [`export`]).
    pub fn export_jsonl(&self) -> String {
        let inner = self.inner();
        export::export_jsonl(
            &inner.registry,
            inner.recorder.iter(),
            inner.recorder.dropped(),
        )
    }

    /// Generic human-readable summary: one table per metric kind, plus the
    /// recorder occupancy. `kati obs summary` builds domain-specific views
    /// (per-connection TCP, per-filter) on top of the raw accessors.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let counters = self.counters();
        if !counters.is_empty() {
            let mut t = table::Table::new("counters", &["scope", "key", "value"]);
            for (scope, key, v) in &counters {
                t.row(&[scope.clone(), key.to_string(), v.to_string()]);
            }
            out.push_str(&t.render());
        }
        let gauges = self.gauges();
        if !gauges.is_empty() {
            let mut t = table::Table::new("gauges", &["scope", "key", "value"]);
            for (scope, key, v) in &gauges {
                t.row(&[scope.clone(), key.to_string(), format!("{v}")]);
            }
            out.push_str(&t.render());
        }
        let hists = self.histograms();
        if !hists.is_empty() {
            let mut t = table::Table::new(
                "histograms",
                &["scope", "key", "count", "mean", "min", "max"],
            );
            for (scope, key, h) in &hists {
                t.row(&[
                    scope.clone(),
                    key.to_string(),
                    h.count().to_string(),
                    table::f(h.mean(), 1),
                    h.min().map(|v| v.to_string()).unwrap_or_default(),
                    h.max().map(|v| v.to_string()).unwrap_or_default(),
                ]);
            }
            out.push_str(&t.render());
        }
        out.push_str(&format!(
            "events: {} buffered, {} dropped\n",
            self.events_len(),
            self.dropped_events()
        ));
        out
    }
}

fn written_scopes(cells: &registry::Cells) -> Vec<String> {
    let any_written = |m: &BTreeMap<_, Arc<Cell>>| m.values().any(|c| c.count().is_some());
    let scopes = cells.iter().filter(|(_, m)| any_written(m));
    scopes.map(|(scope, _)| scope.clone()).collect()
}

/// Builds a `Vec<(&'static str, FieldValue)>` from `name = value` pairs:
/// `fields!(seq = 4u64, state = "Established")`.
#[macro_export]
macro_rules! fields {
    ($($k:ident = $v:expr),* $(,)?) => {
        vec![$((stringify!($k), $crate::FieldValue::from($v))),*]
    };
}

/// Records a flight-recorder event with named fields:
/// `obs_event!(obs, t_us, "mobile.conn.1", "tcp.state", to = "Established");`
#[macro_export]
macro_rules! obs_event {
    ($obs:expr, $t:expr, $scope:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $obs.event($t, $scope, $name, $crate::fields!($($k = $v),*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::new();
        obs.inc("s", "k");
        obs.gauge("s", "g", 1.0);
        obs.hist("s", "h", 5);
        obs.event(0, "s", "e", vec![]);
        assert_eq!(obs.counter("s", "k"), 0);
        assert_eq!(obs.gauge_value("s", "g"), None);
        assert!(obs.histogram("s", "h").is_none());
        assert_eq!(obs.events_len(), 0);
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new();
        let clone = obs.clone();
        clone.set_enabled(true);
        assert!(obs.is_enabled());
        obs.inc("s", "k");
        assert_eq!(clone.counter("s", "k"), 1);
    }

    #[test]
    fn event_macro_and_wall_quarantine() {
        let obs = Obs::enabled();
        obs_event!(obs, 10, "conn", "state", to = "Established", cwnd = 2920u64);
        obs.hist(WALL_SCOPE, "wall.dispatch_ns", 450);
        let evs = obs.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "state");
        assert_eq!(evs[0].field("cwnd"), Some(&FieldValue::U64(2920)));
        // The wall-clock sample is readable but never exported.
        assert_eq!(obs.histogram(WALL_SCOPE, "wall.dispatch_ns").unwrap().count(), 1);
        let jsonl = obs.export_jsonl();
        assert!(!jsonl.contains("\"wall\""));
        assert!(jsonl.contains("\"name\":\"state\""));
    }

    #[test]
    fn export_is_deterministic_for_same_writes() {
        let write = || {
            let obs = Obs::enabled();
            obs.add("b", "k2", 7);
            obs.add("a", "k1", 3);
            obs.gauge("a", "g", 1.5);
            obs.hist("a", "h", 9);
            obs.event(5, "a", "e", fields!(x = 1u64));
            obs.export_jsonl()
        };
        let a = write();
        assert_eq!(a, write());
        // Sorted by scope regardless of insertion order.
        let ka = a.find("\"key\":\"k1\"").unwrap();
        let kb = a.find("\"key\":\"k2\"").unwrap();
        assert!(ka < kb);
    }

    #[test]
    fn reset_clears_everything() {
        let obs = Obs::enabled();
        obs.inc("s", "k");
        obs.event(0, "s", "e", vec![]);
        obs.reset();
        assert_eq!(obs.counter("s", "k"), 0);
        assert_eq!(obs.events_len(), 0);
        assert!(obs.is_enabled(), "reset keeps the enabled flag");
    }

    #[test]
    fn handle_and_by_name_write_one_cell() {
        let obs = Obs::enabled();
        let c = obs.counter_handle("s", "k");
        let g = obs.gauge_handle("s", "g");
        assert!(obs.counters().is_empty() && obs.gauges().is_empty(), "resolved, not written");
        assert!(obs.counter_scopes().is_empty() && obs.gauge_scopes().is_empty());
        c.add(2);
        obs.inc("s", "k");
        g.set(1.5);
        assert_eq!(obs.counters(), vec![("s".to_string(), "k", 3)]);
        assert_eq!(obs.gauge_value("s", "g"), Some(1.5));
        obs.gauge("s", "g", 2.5);
        assert_eq!(obs.gauges(), vec![("s".to_string(), "g", 2.5)]);
        assert_eq!(obs.gauge_scopes(), vec!["s".to_string()]);
    }

    #[test]
    fn handles_outlive_reset_and_export_only_what_was_written_since() {
        let obs = Obs::enabled();
        let c = obs.counter_handle("s", "k");
        let g = obs.gauge_handle("s", "g");
        let mut lazy = LazyCounter::default();
        c.add(5);
        g.set(9.0);
        lazy.add(&obs, "s", "lazy", 4);
        obs.inc("gone", "by_name");
        obs.reset();
        let empty = obs.export_jsonl();
        assert!(!empty.contains("\"counter\"") && !empty.contains("\"gauge\""), "{empty}");
        assert_eq!(obs.counter("s", "k"), 0);
        assert_eq!(obs.gauge_value("s", "g"), None);
        c.inc();
        g.set(2.0);
        lazy.inc(&obs, "s", "lazy");
        assert_eq!(
            obs.counters(),
            vec![("s".to_string(), "k", 1), ("s".to_string(), "lazy", 1)]
        );
        assert_eq!(obs.gauges(), vec![("s".to_string(), "g", 2.0)]);
    }

    #[test]
    fn disabled_handle_records_nothing_until_enabled() {
        let obs = Obs::new();
        let c = obs.counter_handle("s", "k");
        let g = obs.gauge_handle("s", "g");
        let (mut lc, mut lg) = (LazyCounter::default(), LazyGauge::default());
        c.inc();
        g.set(1.0);
        lc.inc(&obs, "s", "lk");
        lg.set(&obs, "s", "lg", 1.0);
        assert!(obs.counters().is_empty() && obs.gauges().is_empty());
        obs.set_enabled(true);
        c.inc();
        g.set(3.0);
        lc.inc(&obs, "s", "lk");
        lg.set(&obs, "s", "lg", 4.0);
        assert_eq!(obs.counter("s", "k"), 1);
        assert_eq!(obs.counter("s", "lk"), 1);
        assert_eq!(obs.gauge_value("s", "g"), Some(3.0));
        assert_eq!(obs.gauge_value("s", "lg"), Some(4.0));
    }

    #[test]
    fn lazy_handle_follows_the_obs_it_is_shown() {
        let (first, second) = (Obs::enabled(), Obs::enabled());
        let (mut c, mut g) = (LazyCounter::default(), LazyGauge::default());
        c.inc(&first, "s", "k");
        g.set(&first, "s", "g", 1.0);
        c.add(&second, "s", "k", 7);
        g.set(&second, "s", "g", 2.0);
        c.inc(&first.clone(), "s", "k");
        assert_eq!(first.counter("s", "k"), 2, "a clone is the same registry");
        assert_eq!(first.gauge_value("s", "g"), Some(1.0));
        assert_eq!(second.counter("s", "k"), 7);
        assert_eq!(second.gauge_value("s", "g"), Some(2.0));
    }

    #[test]
    fn summary_renders_tables() {
        let obs = Obs::enabled();
        obs.inc("ch0", "link.enqueued");
        obs.gauge("mobile.conn.1", "tcp.cwnd", 2920.0);
        obs.hist("s", "h", 3);
        let s = obs.summary();
        assert!(s.contains("== counters =="));
        assert!(s.contains("link.enqueued"));
        assert!(s.contains("== gauges =="));
        assert!(s.contains("tcp.cwnd"));
        assert!(s.contains("== histograms =="));
        assert!(s.contains("events: "));
    }
}
