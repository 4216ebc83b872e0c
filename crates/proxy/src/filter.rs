//! The filter abstraction: priorities, capabilities, the [`Filter`] trait
//! and the context filters act through.
//!
//! A filter contributes one *in* method (read-only inspection before any
//! modification) and one *out* method (modification) per key it binds
//! (§5.2, Fig 5.2). The engine enforces the declared [`Capabilities`],
//! making the trust discussion of Chapter 9 a checkable mechanism.

use std::any::Any;
use std::fmt;

use comma_netsim::packet::Packet;
use comma_netsim::time::{SimDuration, SimTime};
use comma_obs::FieldValue;
use comma_rt::SmallRng;

use crate::key::StreamKey;

/// Filter priority (§5.2): high-priority filters read first and modify
/// last, letting them override lower-priority changes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Priority {
    /// Modifies first; every other filter may override it.
    Lowest,
    /// Below normal.
    Low,
    /// Default.
    Normal,
    /// Above normal.
    High,
    /// Reads first, modifies last (reserved for housekeeping filters).
    Highest,
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Priority::Lowest => "LOWEST",
            Priority::Low => "LOW",
            Priority::Normal => "NORMAL",
            Priority::High => "HIGH",
            Priority::Highest => "HIGHEST",
        };
        write!(f, "{s}")
    }
}

/// Capability set a filter declares; the engine rejects actions outside it
/// (Chapter 9).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Capabilities(pub u8);

impl Capabilities {
    /// May only observe packets.
    pub const READ_ONLY: Capabilities = Capabilities(0);
    /// May rewrite protocol header fields.
    pub const MODIFY_HEADERS: Capabilities = Capabilities(1);
    /// May rewrite payload bytes (implies resizing).
    pub const MODIFY_PAYLOAD: Capabilities = Capabilities(2);
    /// May drop packets.
    pub const DROP: Capabilities = Capabilities(4);
    /// May inject new packets.
    pub const INJECT: Capabilities = Capabilities(8);

    /// Union of two capability sets.
    pub const fn with(self, other: Capabilities) -> Capabilities {
        Capabilities(self.0 | other.0)
    }

    /// Returns `true` if all of `other`'s capabilities are present.
    pub const fn allows(self, other: Capabilities) -> bool {
        self.0 & other.0 == other.0
    }

    /// Full capabilities.
    pub const fn all() -> Capabilities {
        Capabilities(0xf)
    }
}

/// Result of an out-method invocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Pass the (possibly modified) packet down the queue.
    Continue,
    /// Drop the packet (requires [`Capabilities::DROP`]).
    Drop,
}

/// Read access to execution-environment metrics for adaptive filters
/// (backed by the EEM; see the `comma-eem` crate).
pub trait MetricsSource: Send + Sync {
    /// Returns the current value of a named variable, if known.
    fn get(&self, var: &str) -> Option<f64>;
}

/// A metrics source that knows nothing (the default).
pub struct NullMetrics;

impl MetricsSource for NullMetrics {
    fn get(&self, _var: &str) -> Option<f64> {
        None
    }
}

/// Context handed to filter methods.
pub struct FilterCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Deterministic randomness stream.
    pub rng: &'a mut SmallRng,
    /// Execution-environment metrics (EEM view).
    pub metrics: &'a dyn MetricsSource,
    pub(crate) injections: Vec<Packet>,
    pub(crate) timers: Vec<(SimDuration, u64)>,
    pub(crate) closed_streams: Vec<StreamKey>,
    pub(crate) events: Vec<(&'static str, Vec<(&'static str, FieldValue)>)>,
    pub(crate) counts: Vec<(&'static str, u64)>,
    pub(crate) gauge_sets: Vec<(&'static str, f64)>,
    pub(crate) service_requests: Vec<(crate::key::WildKey, String, Vec<String>)>,
}

impl<'a> FilterCtx<'a> {
    /// Creates a context (engine and test use).
    pub fn new(now: SimTime, rng: &'a mut SmallRng, metrics: &'a dyn MetricsSource) -> Self {
        FilterCtx {
            now,
            rng,
            metrics,
            injections: Vec::new(),
            timers: Vec::new(),
            closed_streams: Vec::new(),
            events: Vec::new(),
            counts: Vec::new(),
            gauge_sets: Vec::new(),
            service_requests: Vec::new(),
        }
    }

    /// Whether the callback just made asked the engine for nothing: the
    /// common case, which the engine leaves by this one test. Stream-closed
    /// reports wait for the end of the round and do not count.
    #[inline]
    pub(crate) fn nothing_to_settle(&self) -> bool {
        self.injections.is_empty()
            && self.timers.is_empty()
            && self.events.is_empty()
            && self.counts.is_empty()
            && self.gauge_sets.is_empty()
            && self.service_requests.is_empty()
    }

    /// Injects an additional packet onto the network (requires
    /// [`Capabilities::INJECT`]). The engine emits it after the packet
    /// being serviced: in-pass injections first, then out-pass injections
    /// in visit order (`insert`'s go out ahead of the packet, `on_timer`'s
    /// on their own; `on_removed` has nowhere to emit and is refused).
    pub fn inject(&mut self, pkt: Packet) {
        self.injections.push(pkt);
    }

    /// Requests a timer callback to this filter instance after `delay`.
    /// `token` is returned in [`Filter::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timers.push((delay, token));
    }

    /// Reports that the stream identified by `key` (and its reverse) has
    /// terminated; the engine tears down its filter queues once the
    /// packet's out pass (or the timer callback) is over. Ignored from
    /// `insert` and `on_removed`.
    pub fn stream_closed(&mut self, key: StreamKey) {
        self.closed_streams.push(key);
    }

    /// Records a structured event, attributed to the invoking filter by the
    /// engine: it lands in the proxy log (rendered) *and* in the
    /// observability flight recorder (queryable) —
    /// `event("ooo_drop", vec![("seq", seq.into())])` can be filtered and
    /// counted where a formatted string cannot.
    pub fn event(&mut self, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        self.events.push((name, fields));
    }

    /// Adds `n` to a registry counter scoped to the invoking filter's kind
    /// (e.g. `count("ttsf.acks_translated", 1)`).
    pub fn count(&mut self, key: &'static str, n: u64) {
        self.counts.push((key, n));
    }

    /// Sets a registry gauge scoped to the invoking filter's kind
    /// (e.g. `gauge("ttsf.editmap_records", map.records() as f64)`).
    pub fn gauge(&mut self, key: &'static str, v: f64) {
        self.gauge_sets.push((key, v));
    }

    /// Drains the injected packets (engine and test use).
    pub fn take_injections(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.injections)
    }

    /// Drains the stream-closed requests (engine and test use).
    pub fn take_closed_streams(&mut self) -> Vec<StreamKey> {
        std::mem::take(&mut self.closed_streams)
    }

    /// Drains the queued service requests (engine and test use).
    pub fn take_service_requests(&mut self) -> Vec<(crate::key::WildKey, String, Vec<String>)> {
        std::mem::take(&mut self.service_requests)
    }

    /// Requests that an additional service be registered (the launcher
    /// filter's mechanism for attaching filters to newly observed streams).
    pub fn add_service(
        &mut self,
        wild: crate::key::WildKey,
        filter: impl Into<String>,
        args: Vec<String>,
    ) {
        self.service_requests.push((wild, filter.into(), args));
    }
}

/// A stream-service filter (§5.2).
///
/// One instance may service several keys: its insertion method returns the
/// set of keys to bind, and the engine calls the in/out methods with the
/// key the current packet matched.
///
/// # What a callback may ask for
///
/// Every callback is handed a [`FilterCtx`]. Whatever it leaves there the
/// engine settles as the callback returns, by one rule for all five, on
/// the account of the instance that was called:
///
/// | request | `insert` | `on_in` | `on_out` | `on_timer` | `on_removed` |
/// |---|---|---|---|---|---|
/// | [`set_timer`](FilterCtx::set_timer) | armed | armed | armed | armed | armed, never delivered: the instance is gone |
/// | [`event`](FilterCtx::event), [`count`](FilterCtx::count), [`gauge`](FilterCtx::gauge) | recorded | recorded | recorded | recorded | recorded |
/// | [`add_service`](FilterCtx::add_service) | registered | registered | registered | registered | registered |
/// | [`inject`](FilterCtx::inject), with [`Capabilities::INJECT`] | emitted ahead of the packet that brought the stream | emitted after the packet | emitted after the packet and the in-pass injections, in visit order | emitted | refused: nothing follows a removal |
/// | [`inject`](FilterCtx::inject), without | refused | refused | refused | refused | refused |
/// | [`stream_closed`](FilterCtx::stream_closed) | ignored | torn down after the out pass | torn down after the out pass | torn down after the callback | ignored |
///
/// *Refused* is never silent: each packet refused adds one to the
/// instance's [`InstanceStats::violations`](crate::engine::InstanceStats::violations)
/// and to its kind's `filter.violations` counter, and the refusal writes one
/// `engine: blocked unauthorized injection by <kind> on <where>` line to
/// the engine log.
pub trait Filter: Any + Send + Sync {
    /// Catalog name of this filter type (e.g. `"rdrop"`).
    fn kind(&self) -> &'static str;

    /// Queue priority.
    fn priority(&self) -> Priority;

    /// Declared capabilities, enforced by the engine.
    fn capabilities(&self) -> Capabilities;

    /// Insertion method: called once when a stream matching the filter's
    /// registration appears. Returns every key whose queues this instance
    /// joins — typically `key` itself and often `key.reverse()`.
    fn insert(&mut self, _ctx: &mut FilterCtx<'_>, key: StreamKey) -> Vec<StreamKey> {
        vec![key]
    }

    /// In method: read-only look at the packet before any modification.
    /// Called for every packet on every member of the queue, highest
    /// priority first (Fig 5.2); the default does nothing.
    fn on_in(&mut self, _ctx: &mut FilterCtx<'_>, _key: StreamKey, _pkt: &Packet) {}

    /// Out method: may modify the packet (within capabilities) and decide
    /// its fate.
    fn on_out(&mut self, _ctx: &mut FilterCtx<'_>, _key: StreamKey, _pkt: &mut Packet) -> Verdict {
        Verdict::Continue
    }

    /// A timer requested via [`FilterCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut FilterCtx<'_>, _token: u64) {}

    /// The engine is tearing down this instance (stream closed or service
    /// deleted).
    fn on_removed(&mut self, _ctx: &mut FilterCtx<'_>) {}

    /// Deep copy for world snapshots
    /// ([`comma_netsim::sim::Simulator::snapshot`]). Filters that do not
    /// opt in (the default) make their engine — and the world —
    /// unsnapshottable.
    fn clone_filter(&self) -> Option<Box<dyn Filter>> {
        None
    }

    /// Whether [`Filter::clone_filter`] would succeed on the current
    /// state, without the copy when the filter can tell. The default makes
    /// the copy and drops it. It must answer exactly as `clone_filter`
    /// would.
    fn can_clone(&self) -> bool {
        self.clone_filter().is_some()
    }

    /// Folds *behavior-relevant* filter state (caches, edit maps,
    /// reassembly buffers — not counters) into a canonical world
    /// fingerprint. The default (empty) is sound only for stateless
    /// filters; a stateful filter that skips it blinds the model checker's
    /// visited-set to its state.
    fn state_digest(&self, _h: &mut comma_rt::digest::StateHasher) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering() {
        assert!(Priority::Highest > Priority::High);
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert!(Priority::Low > Priority::Lowest);
        assert_eq!(Priority::High.to_string(), "HIGH");
    }

    #[test]
    fn capability_algebra() {
        let caps = Capabilities::MODIFY_HEADERS.with(Capabilities::DROP);
        assert!(caps.allows(Capabilities::MODIFY_HEADERS));
        assert!(caps.allows(Capabilities::DROP));
        assert!(!caps.allows(Capabilities::MODIFY_PAYLOAD));
        assert!(Capabilities::all().allows(caps));
        assert!(caps.allows(Capabilities::READ_ONLY));
    }

    #[test]
    fn ctx_accumulates_requests() {
        use comma_netsim::packet::{IcmpMessage, Packet};
        use comma_rt::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(0);
        let metrics = NullMetrics;
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &metrics);
        ctx.set_timer(SimDuration::from_millis(10), 42);
        ctx.inject(Packet::icmp(
            "1.1.1.1".parse().unwrap(),
            "2.2.2.2".parse().unwrap(),
            IcmpMessage::RouterSolicitation,
        ));
        ctx.stream_closed("1.1.1.1 1 2.2.2.2 2".parse().unwrap());
        ctx.event("probe", vec![("seq", FieldValue::U64(7))]);
        ctx.count("pkts", 2);
        ctx.gauge("window", 4096.0);
        assert_eq!(ctx.timers.len(), 1);
        assert_eq!(ctx.injections.len(), 1);
        assert_eq!(ctx.closed_streams.len(), 1);
        assert_eq!(ctx.events.len(), 1);
        assert_eq!(ctx.events[0].0, "probe");
        assert_eq!(ctx.counts, vec![("pkts", 2)]);
        assert_eq!(ctx.gauge_sets, vec![("window", 4096.0)]);
    }
}
