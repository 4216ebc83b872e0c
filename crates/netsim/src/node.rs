//! The node abstraction: anything attached to the network (hosts, routers,
//! agents, proxies) implements [`Node`].

use std::any::Any;
use std::sync::Arc;

use comma_obs::Obs;
use comma_rt::SmallRng;

use crate::addr::Ipv4Addr;
use crate::packet::Packet;
use crate::sched::{CancelSlab, TimerHandle};
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// Identifier of a node within a [`crate::sim::Simulator`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// `n<id>`, as one simulator's trace lines name a node.
impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an interface on a node; interfaces are numbered in the
/// order links were attached.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IfaceId(pub usize);

/// Behaviour of a network node.
///
/// Nodes never touch the simulator directly; all interaction happens through
/// the [`NodeCtx`] passed to each callback, which keeps dispatch free of
/// aliasing and makes node logic unit-testable in isolation.
/// A simulator and its snapshots share a node until one writes it (hence
/// `Sync`); tools reach its concrete type through the `Any` supertrait.
pub trait Node: Any + Send + Sync {
    /// Human-readable name used in traces.
    fn name(&self) -> &str;

    /// Addresses owned by this node (used by topology helpers and tools).
    fn addresses(&self) -> Vec<Ipv4Addr> {
        Vec::new()
    }

    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}

    /// Called when a packet is delivered on `iface`.
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, pkt: Packet);

    /// Called when a timer scheduled via [`NodeCtx::set_timer_after`] fires.
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}

    /// Deep copy for [`crate::sim::Simulator::snapshot`], returned in the
    /// shared form the simulator stores nodes in. Nodes that do not opt in
    /// (the default) make worlds containing them unsnapshottable — the
    /// model checker reports which node refused.
    fn clone_node(&self) -> Option<Arc<dyn Node>> {
        None
    }

    /// Whether [`Node::clone_node`] would succeed on the current state,
    /// asked once per written state when a snapshot first shares the node;
    /// the copy itself is made only when a world writes a node another
    /// still holds. The default makes the copy and drops it; a node whose
    /// copy is costly answers from the parts that can refuse. It must
    /// answer exactly as `clone_node` would.
    fn can_clone(&self) -> bool {
        self.clone_node().is_some()
    }

    /// Feeds the node's *behavior-relevant* state into a canonical
    /// fingerprint ([`crate::sim::Simulator::state_hash`]). Two nodes with
    /// equal digests must behave identically on every future input; purely
    /// diagnostic counters should be left out so interleavings that
    /// converge to the same protocol state hash equal. The default hashes
    /// nothing — fine for stateless nodes, a fingerprint blind spot for
    /// stateful ones (the model checker's docs call this out).
    ///
    /// The simulator caches the result until the node is next written
    /// (only dispatch and typed `&mut` access write it), so the digest may
    /// read only state the node owns: nothing behind a `Mutex`, an atomic
    /// or another handle a second party can change without a write.
    fn state_digest(&self, _h: &mut comma_rt::digest::StateHasher) {}
}

/// Where a context's timer handles come from: the owning simulator's wheel
/// slab during dispatch, or a private lazily-created slab when the context
/// is detached (unit tests driving nodes directly). Either way
/// [`NodeCtx::set_timer_at`] mints real, cancellable [`TimerHandle`]s from
/// exactly one slab — there is no second, non-cancellable timer path.
pub(crate) enum SlabSource<'a> {
    /// Dispatched by a simulator: handles belong to its wheel.
    Attached(&'a mut CancelSlab),
    /// Detached context: a private slab, created on first use.
    Detached(Option<Box<CancelSlab>>),
}

impl SlabSource<'_> {
    fn slab(&mut self) -> &mut CancelSlab {
        match self {
            SlabSource::Attached(slab) => slab,
            SlabSource::Detached(slab) => slab.get_or_insert_with(Box::default),
        }
    }
}

/// Context handed to node callbacks: the only way nodes affect the world.
pub struct NodeCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The node being dispatched.
    pub node: NodeId,
    /// Number of interfaces attached to this node.
    pub iface_count: usize,
    /// Deterministic per-node randomness stream.
    pub rng: &'a mut SmallRng,
    /// Shared event trace.
    pub trace: &'a mut Trace,
    /// Observability handle, when the simulator carries an enabled one
    /// (`None` in isolated node unit tests).
    pub obs: Option<&'a Obs>,
    pub(crate) slab: SlabSource<'a>,
    pub(crate) outputs: Vec<(IfaceId, Packet)>,
    pub(crate) timers: Vec<(SimTime, u64, TimerHandle)>,
}

impl<'a> NodeCtx<'a> {
    /// Creates a context; used by the simulator and by node unit tests.
    pub fn new(
        now: SimTime,
        node: NodeId,
        iface_count: usize,
        rng: &'a mut SmallRng,
        trace: &'a mut Trace,
    ) -> Self {
        NodeCtx {
            now,
            node,
            iface_count,
            rng,
            trace,
            obs: None,
            slab: SlabSource::Detached(None),
            outputs: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Attaches an observability handle (builder-style; the simulator calls
    /// this on every dispatch).
    pub fn with_obs(mut self, obs: &'a Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attaches the scheduler's cancellation slab (builder-style; the
    /// simulator calls this on every dispatch), so the handles this
    /// context mints cancel against the simulator's own wheel. Detached
    /// contexts fall back to a private slab instead — the API is the same
    /// either way.
    pub fn with_timer_slab(mut self, slab: &'a mut CancelSlab) -> Self {
        self.slab = SlabSource::Attached(slab);
        self
    }

    /// Seeds the context's effect accumulators with recycled (cleared)
    /// vectors so steady-state dispatch reuses their capacity instead of
    /// allocating per callback (builder-style; the simulator threads its
    /// scratch pair through every dispatch and takes it back via
    /// [`NodeCtx::take_effects`]).
    pub fn with_effect_buffers(
        mut self,
        outputs: Vec<(IfaceId, Packet)>,
        timers: Vec<(SimTime, u64, TimerHandle)>,
    ) -> Self {
        debug_assert!(outputs.is_empty() && timers.is_empty());
        self.outputs = outputs;
        self.timers = timers;
        self
    }

    /// The observability handle, if one is attached **and** enabled. The
    /// single call site check keeps instrumentation to one branch on the
    /// disabled path.
    #[inline]
    pub fn obs(&self) -> Option<&'a Obs> {
        self.obs.filter(|o| o.is_enabled())
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queues `pkt` for transmission on `iface`.
    pub fn send(&mut self, iface: IfaceId, pkt: Packet) {
        self.outputs.push((iface, pkt));
    }

    /// Schedules [`Node::on_timer`] with `token` after `delay`; the
    /// returned handle cancels the timer via [`NodeCtx::cancel_timer`].
    pub fn set_timer_after(&mut self, delay: SimDuration, token: u64) -> TimerHandle {
        self.set_timer_at(self.now + delay, token)
    }

    /// Schedules [`Node::on_timer`] with `token` at absolute time `at`
    /// (clamped to now); the returned handle cancels the timer.
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) -> TimerHandle {
        let handle = self.slab.slab().alloc();
        self.timers.push((at.max(self.now), token, handle));
        handle
    }

    /// Cancels a timer scheduled earlier (this dispatch or a previous
    /// one); returns `true` if it had not yet fired. Stale handles,
    /// [`TimerHandle::NONE`], and handles minted by a *different*
    /// simulator's wheel (another shard) are inert.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.slab.slab().cancel(handle)
    }

    /// Appends a line to the shared trace, attributed to this node;
    /// `msg` is formatted only while the trace captures.
    pub fn log(&mut self, msg: impl std::fmt::Display) {
        self.trace.log(self.now, self.node, msg);
    }

    /// Drains the effects accumulated by the callbacks (used by the
    /// simulator and by tests driving nodes directly).
    pub fn take_effects(
        &mut self,
    ) -> (Vec<(IfaceId, Packet)>, Vec<(SimTime, u64, TimerHandle)>) {
        (
            std::mem::take(&mut self.outputs),
            std::mem::take(&mut self.timers),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comma_rt::SeedableRng;

    struct Echoer;

    impl Node for Echoer {
        fn name(&self) -> &str {
            "echoer"
        }
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, pkt: Packet) {
            ctx.send(iface, pkt);
            ctx.set_timer_after(SimDuration::from_millis(5), 1);
        }
    }

    #[test]
    fn ctx_collects_effects() {
        use crate::packet::{Packet, TcpFlags, TcpSegment};
        let mut rng = SmallRng::seed_from_u64(0);
        let mut trace = Trace::new();
        let mut ctx = NodeCtx::new(SimTime::from_millis(10), NodeId(3), 1, &mut rng, &mut trace);
        let pkt = Packet::tcp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            TcpSegment::new(1, 2, 0, 0, TcpFlags::ACK),
        );
        let mut node = Echoer;
        node.on_packet(&mut ctx, IfaceId(0), pkt);
        let (outputs, timers) = ctx.take_effects();
        assert_eq!(outputs.len(), 1);
        assert_eq!(timers.len(), 1);
        let (at, token, handle) = timers[0];
        assert_eq!((at, token), (SimTime::from_millis(15), 1));
        assert!(!handle.is_none(), "detached contexts mint real handles too");
    }

    #[test]
    fn timer_at_clamps_to_now() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut trace = Trace::new();
        let mut ctx = NodeCtx::new(SimTime::from_secs(5), NodeId(0), 0, &mut rng, &mut trace);
        ctx.set_timer_at(SimTime::from_secs(1), 9);
        let (_, timers) = ctx.take_effects();
        assert_eq!(timers.len(), 1);
        assert_eq!((timers[0].0, timers[0].1), (SimTime::from_secs(5), 9));
    }

    #[test]
    fn slab_backed_ctx_returns_cancellable_handles() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut trace = Trace::new();
        let mut slab = CancelSlab::default();
        let mut ctx = NodeCtx::new(SimTime::ZERO, NodeId(0), 0, &mut rng, &mut trace)
            .with_timer_slab(&mut slab);
        let h = ctx.set_timer_after(SimDuration::from_millis(1), 7);
        assert!(!h.is_none());
        assert!(ctx.cancel_timer(h));
        assert!(!ctx.cancel_timer(h), "second cancel is inert");
    }

    #[test]
    fn detached_ctx_timers_are_cancellable_and_shard_safe() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut trace = Trace::new();
        let mut ctx = NodeCtx::new(SimTime::ZERO, NodeId(0), 0, &mut rng, &mut trace);
        let h = ctx.set_timer_after(SimDuration::from_millis(1), 7);
        assert!(!h.is_none());
        assert!(ctx.cancel_timer(h));
        assert!(!ctx.cancel_timer(h), "second cancel is inert");

        // A handle from one context (one slab) is inert against another:
        // the cross-shard cancellation guarantee, in miniature.
        let mut rng2 = SmallRng::seed_from_u64(0);
        let mut trace2 = Trace::new();
        let mut other = NodeCtx::new(SimTime::ZERO, NodeId(0), 0, &mut rng2, &mut trace2);
        let h2 = other.set_timer_after(SimDuration::from_millis(1), 8);
        let mut rng3 = SmallRng::seed_from_u64(0);
        let mut trace3 = Trace::new();
        let mut third = NodeCtx::new(SimTime::ZERO, NodeId(0), 0, &mut rng3, &mut trace3);
        third.set_timer_after(SimDuration::from_millis(1), 9);
        assert!(!third.cancel_timer(h2), "foreign handle is inert");
    }
}
