//! The discrete-event simulator core: hierarchical timer-wheel event
//! queue, node dispatch, and link transmission machinery.
//!
//! Events (transmission completions, deliveries, node timers, control
//! actions) live in a [`crate::sched::TimerWheel`] — O(1) amortized
//! schedule/pop instead of the O(log n) binary heap the simulator started
//! with, with O(1) cancellation through [`TimerHandle`]s so protocol
//! layers can kill superseded timers (restarted TCP RTOs, rescheduled
//! delayed ACKs) instead of letting stale events fire and be filtered.
//! Dispatch order is exactly the old heap's `(time, seq)` order: earliest
//! time first, FIFO among events scheduled for the same microsecond, so
//! seeded runs stay byte-identical across the scheduler swap.

use std::any::Any;

use comma_obs::{fields, LazyCounter, Obs};
use comma_rt::SmallRng;
use comma_rt::SeedableRng;

use crate::addr::Ipv4Addr;
use crate::fault::{FaultConfig, FaultState, FaultStats};
use crate::fluid::{FluidConfig, FluidState, FluidTotals};
use crate::link::{tx_time_at, Channel, ChannelId, LinkParams};
use crate::node::{IfaceId, Node, NodeCtx, NodeId};
use crate::packet::Packet;
use crate::sched::{TimerHandle, TimerWheel, WheelStats};
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropReason, Trace};

/// Mixes a (world seed, stable key, salt) triple into an RNG stream seed.
///
/// Keyed nodes and channels draw from streams derived by this function, so
/// a stream depends only on the world seed and the caller-chosen key —
/// never on insertion order or on how many other entities share the
/// simulator. That is the property that lets a partitioned topology
/// ([`crate::shard`]) reproduce the single-shard run bit-exactly.
fn stream_seed(seed: u64, key: u64, salt: u64) -> u64 {
    let mut z = seed
        ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ salt.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A control action scheduled to run against the simulator itself (link
/// parameter changes, host movement, application starts).
pub type ControlFn = Box<dyn FnOnce(&mut Simulator) + Send>;

/// A passive observer of every packet the simulator moves: called once when
/// a node hands a packet to a channel ([`PacketObserver::on_tx`]) and once
/// when a packet is dispatched into a node ([`PacketObserver::on_deliver`]).
///
/// Observers see the whole packet, payload included (a trace entry keeps
/// only its header facts), so conformance oracles can check the byte-level
/// invariants a trace replay cannot. The hook is opt-in and the `Option`
/// test is the only cost when none is installed.
pub trait PacketObserver: Any + Send {
    /// `node` handed `pkt` to one of its channels at `now`.
    fn on_tx(&mut self, now: SimTime, node: NodeId, pkt: &Packet);
    /// `pkt` is being dispatched into `node` at `now`.
    fn on_deliver(&mut self, now: SimTime, node: NodeId, pkt: &Packet);
    /// Typed access for code holding a `Box<dyn PacketObserver>`; the
    /// simulator's own accessors upcast to [`Any`] instead.
    fn as_any(&mut self) -> &mut dyn Any;
    /// Deep copy for [`Simulator::snapshot`]. Observers that do not opt in
    /// (the default) make worlds containing them unsnapshottable.
    fn clone_observer(&self) -> Option<Box<dyn PacketObserver>> {
        None
    }

    /// Copies this observer into `into`, one of the same type that a
    /// [`ForkPool`] kept after [`PacketObserver::release`], reusing its
    /// buffers; `false` (nothing written) when `into` is of another type,
    /// and by default, and the fork takes a fresh `clone_observer` copy.
    fn clone_observer_into(&self, _into: &mut dyn PacketObserver) -> bool {
        false
    }

    /// Drops what the observer holds but keeps its buffers, as its finished
    /// branch waits in a [`ForkPool`]; `false` (the default) when it should
    /// be dropped whole instead.
    fn release(&mut self) -> bool {
        false
    }
}

enum Event {
    /// Serialization of `pkt` on `channel` completes.
    TxComplete { channel: ChannelId, pkt: Packet },
    /// `pkt` arrives at the far end of `channel`.
    Deliver { channel: ChannelId, pkt: Packet },
    /// A node timer fires.
    Timer { node: NodeId, token: u64 },
    /// A scheduled control action runs.
    Control(ControlFn),
}

impl Event {
    /// Deep copy for [`Simulator::snapshot`]. `Control` closures are
    /// `FnOnce` and cannot be cloned: a world with pending control actions
    /// is unsnapshottable (scenario setup must run to completion first).
    fn try_clone(&self) -> Option<Event> {
        match self {
            Event::TxComplete { channel, pkt } => Some(Event::TxComplete {
                channel: *channel,
                pkt: pkt.clone(),
            }),
            Event::Deliver { channel, pkt } => Some(Event::Deliver {
                channel: *channel,
                pkt: pkt.clone(),
            }),
            Event::Timer { node, token } => Some(Event::Timer {
                node: *node,
                token: *token,
            }),
            Event::Control(_) => None,
        }
    }

    /// The event's canonical digest word (see [`Simulator::state_hash`]).
    fn digest(&self) -> u64 {
        let mut h = comma_rt::digest::StateHasher::new();
        let h = &mut h;
        match self {
            Event::TxComplete { channel, pkt } => {
                h.update(b"tx").update_u64(channel.0 as u64);
                pkt.state_digest(h);
            }
            Event::Deliver { channel, pkt } => {
                h.update(b"dl").update_u64(channel.0 as u64);
                pkt.state_digest(h);
            }
            Event::Timer { node, token: _ } => {
                // The token names a socket or filter instance, and that
                // numbering is arrival history: two schedules that converge
                // on the same protocol state can hold the same timers under
                // different tokens. Which timer is armed at which deadline
                // is digested canonically inside the owning node's
                // state_digest; the pending event contributes only its
                // existence and target.
                h.update(b"tm").update_u64(node.0 as u64);
            }
            Event::Control(_) => {
                h.update(b"ct");
            }
        }
        h.finish()
    }
}

use node_cell::NodeCell;

/// Node storage. The fields are private to this module, so
/// [`NodeCell::get_mut`] is the simulator's one source of `&mut dyn Node`.
mod node_cell {
    use std::cell::Cell;
    use std::sync::Arc;

    use crate::node::Node;

    /// A node, shared with snapshots until one side writes it, and two
    /// facts about its current state that every write clears: its digest
    /// word (valid while `hashed`) and whether `can_clone` passed on it.
    /// Both sit beside the pointer, not in a second allocation.
    pub(super) struct NodeCell {
        node: Arc<dyn Node>,
        digest: Cell<u64>,
        hashed: Cell<bool>,
        cloneable: Cell<bool>,
    }

    impl NodeCell {
        pub(super) fn new(node: Box<dyn Node>) -> Self {
            let (digest, hashed, cloneable) = (Cell::new(0), Cell::new(false), Cell::new(false));
            NodeCell { node: Arc::from(node), digest, hashed, cloneable }
        }

        pub(super) fn get(&self) -> &dyn Node {
            &*self.node
        }

        /// Write access, the [`Arc::make_mut`] pattern: a node a snapshot
        /// still shares is copied first. Only `fork` shares a node, and
        /// only once `can_clone` has passed on its current state.
        pub(super) fn get_mut(&mut self) -> &mut dyn Node {
            self.hashed.set(false);
            self.cloneable.set(false);
            if Arc::get_mut(&mut self.node).is_none() {
                self.node = self.node.clone_node().expect("a shared node passed the clone check");
            }
            Arc::get_mut(&mut self.node).expect("the node is unshared after the copy")
        }

        /// The node's [`Node::state_digest`] hashed on its own, computed
        /// once per written state.
        pub(super) fn digest(&self) -> u64 {
            if !self.hashed.get() {
                let mut h = comma_rt::digest::StateHasher::new();
                self.node.state_digest(&mut h);
                self.digest.set(h.finish());
                self.hashed.set(true);
            }
            self.digest.get()
        }

        /// The cell a snapshot starts with, sharing the node, or `None`
        /// when the node cannot be cloned. The check runs once per written
        /// state; the copy waits for the first write on either side.
        pub(super) fn fork(&self) -> Option<NodeCell> {
            if !self.cloneable.get() && !self.node.can_clone() {
                return None;
            }
            self.cloneable.set(true);
            let (digest, hashed) = (self.digest.clone(), self.hashed.clone());
            Some(NodeCell { node: Arc::clone(&self.node), digest, hashed, cloneable: Cell::new(true) })
        }
    }
}

/// The deterministic discrete-event network simulator.
///
/// Events are kept in a hierarchical timer wheel ([`crate::sched`]):
/// schedule and pop are O(1) amortized, and timers scheduled through
/// [`Simulator::schedule_timer`] or [`crate::node::NodeCtx`] return a
/// [`TimerHandle`] that cancels the pending event in O(1).
///
/// # Examples
///
/// ```
/// use comma_netsim::prelude::*;
///
/// let mut sim = Simulator::new(42);
/// sim.at(SimTime::from_millis(5), |_sim| { /* scenario action */ });
/// sim.run_until(SimTime::from_millis(10));
/// assert_eq!(sim.now(), SimTime::from_millis(10));
///
/// // Timers are cancellable: this one never fires.
/// let n = sim.add_node(Box::new(Router::new("r", vec![], RoutingTable::new())));
/// let handle = sim.schedule_timer(SimTime::from_millis(20), n, 7);
/// assert!(sim.cancel_timer(handle));
/// sim.run_until(SimTime::from_millis(30));
/// assert_eq!(sim.sched_stats().cancelled, 1);
/// ```
pub struct Simulator {
    now: SimTime,
    sched: TimerWheel<Event>,
    nodes: Vec<NodeCell>,
    /// Each node's channels, indexed by [`IfaceId`].
    node_ifaces: Vec<Vec<ChannelId>>,
    node_rngs: Vec<SmallRng>,
    channels: Vec<Channel>,
    /// Channels with a fluid population, caught up by the readers of the
    /// whole world: a fluid-free world checks one empty slice.
    fluid_links: Vec<ChannelId>,
    link_rng: SmallRng,
    started: bool,
    seed: u64,
    events_processed: u64,
    /// Shared packet/log trace.
    pub trace: Trace,
    /// Observability handle. Disabled by default (a single-branch no-op on
    /// every hot path); share an enabled handle to record link counters and
    /// drop events under per-channel scopes (`ch0`, `ch1`, ...).
    pub obs: Obs,
    /// Per-channel lit-run state, built on the first lit write
    /// ([`Simulator::link_obs`]): a dark run carries nothing per channel.
    ch_obs: Vec<ChannelObs>,
    faults: Vec<Option<FaultState>>,
    observer: Option<Box<dyn PacketObserver>>,
    /// Reusable dispatch effect buffers, threaded through every
    /// [`NodeCtx`] so node callbacks append into retained capacity instead
    /// of allocating a fresh pair of vectors per dispatch.
    fx_outputs: Vec<(IfaceId, Packet)>,
    fx_timers: Vec<(SimTime, u64, TimerHandle)>,
    /// Packets that completed transmission on a boundary-egress channel
    /// this window, awaiting export to their destination shard:
    /// `(boundary id, arrival time, packet)` in event order.
    outbox: Vec<(u32, SimTime, Packet)>,
    /// [`Simulator::mc_options`]'s answer, kept for its capacity and
    /// allocated by its first call: a world nobody model-checks carries
    /// one null pointer, not a list header.
    #[allow(clippy::box_collection)]
    mc_options: Option<Box<Vec<McOption>>>,
}

/// What a channel keeps only while someone is watching: its obs scope
/// (`ch<N>`) and the per-packet `link.*` counters as write sites that find
/// their registry cell once (see [`comma_obs::handle`]). The rare keys
/// (`link.drop.*`, `link.fault.*`, `link.fluid_*`) stay by-name writes.
#[derive(Clone, Default)]
struct ChannelObs {
    scope: String,
    offered: LazyCounter,
    enqueued: LazyCounter,
    dequeued: LazyCounter,
    delivered_pkts: LazyCounter,
    delivered_bytes: LazyCounter,
}

// The sharded runner lends `&mut Simulator`s to scoped worker threads; a
// non-`Send` field would bring back building shards inside their threads.
const _: fn() = || {
    fn is_send<T: Send>() {}
    is_send::<Simulator>();
};

impl Simulator {
    /// Creates a simulator whose randomness derives entirely from `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator::empty(seed, Obs::new())
    }

    /// An empty world recording into `obs`: what [`Simulator::new`] builds,
    /// and what a fork is copied into when no finished branch is at hand.
    fn empty(seed: u64, obs: Obs) -> Self {
        Simulator {
            now: SimTime::ZERO,
            sched: TimerWheel::new(),
            nodes: Vec::new(),
            node_ifaces: Vec::new(),
            node_rngs: Vec::new(),
            channels: Vec::new(),
            fluid_links: Vec::new(),
            link_rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            started: false,
            seed,
            events_processed: 0,
            trace: Trace::new(),
            obs,
            ch_obs: Vec::new(),
            faults: Vec::new(),
            observer: None,
            fx_outputs: Vec::new(),
            fx_timers: Vec::new(),
            outbox: Vec::new(),
            mc_options: None,
        }
    }

    /// The seed this simulator was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Enables or disables the per-channel delivery-rate
    /// [`TimeSeries`](crate::stats::TimeSeries) on every channel created so
    /// far. The series only feeds interactive consumers (Kati's netload
    /// view, EEM samplers); throughput-bound runs turn it off so
    /// steady-state delivery stays allocation-free.
    pub fn set_record_series(&mut self, on: bool) {
        for ch in &mut self.channels {
            ch.series.set_enabled(on);
        }
    }

    /// Installs a fault configuration on one directed channel, replacing any
    /// previous one. Fault decisions draw from a dedicated RNG seeded with
    /// `fault_seed`, never from the link RNG, so installing (or clearing)
    /// faults cannot perturb the loss models' draw order.
    pub fn install_link_faults(&mut self, ch: ChannelId, cfg: FaultConfig, fault_seed: u64) {
        if self.faults.len() < self.channels.len() {
            self.faults.resize_with(self.channels.len(), || None);
        }
        self.faults[ch.0] = Some(FaultState::new(cfg, fault_seed));
    }

    /// Fault counters of a channel, when faults are installed on it.
    pub fn fault_stats(&self, ch: ChannelId) -> Option<FaultStats> {
        self.faults.get(ch.0)?.as_ref().map(|f| f.stats)
    }

    /// Attaches a fluid background population to a channel (replacing any
    /// previous one) and runs its first rate-solver epoch now.
    ///
    /// The population's schedule derives from `(world seed, key)` via a
    /// dedicated stream salt (loss streams use salts 0/1, fluid uses 2),
    /// so — exactly like [`Simulator::connect_keyed`] — the background
    /// load is identical no matter which shard the channel lands in or
    /// how crowded that shard is.
    ///
    /// Later epochs are not events: the channel catches up only when
    /// something reads it, so no reader sees it lag ([`Simulator::fluid`]).
    pub fn attach_fluid(&mut self, ch: ChannelId, cfg: FluidConfig, key: u64) {
        let mut state = FluidState::new(cfg, stream_seed(self.seed, key, 2));
        state.solve_at(self.now, self.channels[ch.0].params.bandwidth_bps);
        if self.channels[ch.0].fluid.replace(Box::new(state)).is_none() {
            self.fluid_links.push(ch);
        }
        self.fluid_catch_up(ch, self.now);
    }

    /// Changes a channel's bandwidth, keeping any attached fluid model
    /// consistent: epochs due before now run at the old capacity, then one
    /// re-solves now at the new one. Fault-plan churn routes through here.
    /// On a fluid channel this is the only correct way: after a write
    /// through [`Simulator::channel_mut`] the next catch-up panics rather
    /// than re-price the epochs since the link was last read.
    pub fn set_link_bandwidth(&mut self, ch: ChannelId, bps: u64) {
        let before = SimTime::from_micros(self.now.as_micros().saturating_sub(1));
        self.fluid_catch_up(ch, before);
        self.channels[ch.0].params.bandwidth_bps = bps;
        if let Some(fluid) = self.channels[ch.0].fluid.as_mut() {
            fluid.solve_at(self.now, bps);
            self.fluid_catch_up(ch, self.now);
        }
    }

    /// The one path fluid state advances by: applies `ch_id`'s epochs due
    /// by `through` ([`FluidState::catch_up`]) and publishes the last one's
    /// `link.fluid_*` gauges. A no-op on a fluid-free channel.
    fn fluid_catch_up(&mut self, ch_id: ChannelId, through: SimTime) {
        let ch = &mut self.channels[ch_id.0];
        let (capacity, limit) = (ch.params.bandwidth_bps, ch.params.queue_limit_bytes);
        let Some(fluid) = ch.fluid.as_mut() else {
            return;
        };
        let Some(at) = fluid.catch_up(through, capacity, limit) else {
            return;
        };
        if self.obs.is_enabled() {
            let (active, residual, qbytes) =
                (fluid.active_flows(), fluid.residual_bps(), fluid.queue_bytes_at(at, limit));
            let (obs, ch) = self.link_obs(ch_id);
            obs.gauge(&ch.scope, "link.fluid_active", active as f64);
            obs.gauge(&ch.scope, "link.fluid_residual_bps", residual as f64);
            obs.gauge(&ch.scope, "link.fluid_queue_bytes", qbytes as f64);
        }
    }

    /// Catches every fluid channel up through now.
    fn fluid_catch_up_all(&mut self) {
        for i in 0..self.fluid_links.len() {
            self.fluid_catch_up(self.fluid_links[i], self.now);
        }
    }

    /// Ends every run method. Obs reads fluid links too: a lit run ends
    /// with each one current, and its `link.fluid_*` gauges with it.
    fn end_run(&mut self) {
        if self.obs.is_enabled() {
            self.fluid_catch_up_all();
        }
    }

    /// `ch`'s fluid population caught up through now (`None` if it has
    /// none). Readers of fluid state catch up first: this one, a packet,
    /// [`Simulator::set_link_bandwidth`], [`Simulator::fluid_totals`],
    /// [`Simulator::state_hash`], and obs at the end of a run.
    pub fn fluid(&mut self, ch: ChannelId) -> Option<&FluidState> {
        self.fluid_catch_up(ch, self.now);
        self.channels[ch.0].fluid.as_deref()
    }

    /// Aggregate fluid-model statistics summed over every channel, each
    /// caught up through now first.
    pub fn fluid_totals(&mut self) -> FluidTotals {
        self.fluid_catch_up_all();
        let mut t = FluidTotals::default();
        for ch in &self.fluid_links {
            if let Some(f) = self.channels[ch.0].fluid.as_ref() {
                t.links += 1;
                t.users += f.users() as u64;
                t.active += f.active_flows() as u64;
                t.epochs += f.epochs();
                t.flow_visits += f.flow_visits();
            }
        }
        t
    }

    /// Packets offered to links, summed over every channel: the
    /// denominator that turns `events_processed` into events per packet
    /// moved, a figure free of wall-clock noise.
    pub fn link_pkts(&self) -> u64 {
        self.channels.iter().map(|ch| ch.stats.offered_pkts).sum()
    }

    /// Installs a packet observer (conformance oracle); replaces any
    /// previous one, returning it.
    pub fn set_packet_observer(
        &mut self,
        obs: Box<dyn PacketObserver>,
    ) -> Option<Box<dyn PacketObserver>> {
        self.observer.replace(obs)
    }

    /// Removes and returns the installed packet observer.
    pub fn take_packet_observer(&mut self) -> Option<Box<dyn PacketObserver>> {
        self.observer.take()
    }

    /// Runs `f` on the installed packet observer, borrowed in place as a
    /// `T`; `None` (and nothing run) when no observer is installed or it
    /// is not a `T`.
    pub fn with_packet_observer<T: 'static, R>(&mut self, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let observer: &mut dyn Any = self.observer.as_deref_mut()?;
        observer.downcast_mut::<T>().map(f)
    }

    /// Typed read access to the installed packet observer; `None` when
    /// there is none or it is not a `T`.
    pub fn packet_observer<T: 'static>(&self) -> Option<&T> {
        let observer: &dyn Any = self.observer.as_deref()?;
        observer.downcast_ref::<T>()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Adds a node, returning its id. The node's RNG stream derives from
    /// its insertion index; use [`Simulator::add_node_keyed`] when the
    /// stream must be stable across different partitionings.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let key = self.nodes.len() as u64;
        self.add_node_keyed(node, key)
    }

    /// Adds a node whose RNG stream derives from `(world seed, key)`
    /// instead of the insertion index, so the stream is identical no
    /// matter which shard — or how crowded a shard — the node lands in.
    /// Passing the insertion index as the key reproduces
    /// [`Simulator::add_node`] exactly.
    pub fn add_node_keyed(&mut self, node: Box<dyn Node>, key: u64) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.node_ifaces.push(Vec::new());
        self.node_rngs.push(SmallRng::seed_from_u64(
            self.seed ^ key.wrapping_mul(0xa076_1d64_78bd_642f).wrapping_add(1),
        ));
        self.nodes.push(NodeCell::new(node));
        id
    }

    /// Connects two nodes with a full-duplex link, returning the two
    /// directed channels `(a→b, b→a)`. New interfaces are appended to each
    /// node's interface list. Loss draws come from the simulator-wide link
    /// RNG; use [`Simulator::connect_keyed`] for partition-stable streams.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        ab: LinkParams,
        ba: LinkParams,
    ) -> (ChannelId, ChannelId) {
        let a_iface = IfaceId(self.node_ifaces[a.0].len());
        let b_iface = IfaceId(self.node_ifaces[b.0].len());
        let ch_ab = self.add_channel(Channel::new(a, b, b_iface, ab));
        let ch_ba = self.add_channel(Channel::new(b, a, a_iface, ba));
        self.node_ifaces[a.0].push(ch_ab);
        self.node_ifaces[b.0].push(ch_ba);
        (ch_ab, ch_ba)
    }

    fn add_channel(&mut self, ch: Channel) -> ChannelId {
        let id = ChannelId(self.channels.len());
        self.channels.push(ch);
        id
    }

    /// The obs handle and channel `ch`'s lit-run state, for one write. Only
    /// reached behind an `is_enabled` check.
    fn link_obs(&mut self, ch: ChannelId) -> (&Obs, &mut ChannelObs) {
        for i in self.ch_obs.len()..self.channels.len() {
            self.ch_obs.push(ChannelObs {
                scope: format!("ch{i}"),
                ..ChannelObs::default()
            });
        }
        (&self.obs, &mut self.ch_obs[ch.0])
    }

    /// The loss-RNG stream of the keyed link `key` in direction `salt`.
    fn loss_stream(&self, key: u64, salt: u64) -> Option<SmallRng> {
        Some(SmallRng::seed_from_u64(stream_seed(self.seed, key, salt)))
    }

    /// [`Simulator::connect`] with per-channel loss-RNG streams derived
    /// from `(world seed, key, direction)`: the a→b channel draws from
    /// salt 0, b→a from salt 1. Two simulators built with the same world
    /// seed give a channel with the same key an identical loss stream,
    /// regardless of what else they contain — the keyed twin of
    /// [`Simulator::add_node_keyed`].
    pub fn connect_keyed(
        &mut self,
        a: NodeId,
        b: NodeId,
        ab: LinkParams,
        ba: LinkParams,
        key: u64,
    ) -> (ChannelId, ChannelId) {
        let (ch_ab, ch_ba) = self.connect(a, b, ab, ba);
        self.channels[ch_ab.0].loss_rng = self.loss_stream(key, 0);
        self.channels[ch_ba.0].loss_rng = self.loss_stream(key, 1);
        (ch_ab, ch_ba)
    }

    /// Attaches one end of a cross-shard link to `local`, returning
    /// `(egress, ingress)` channel ids that together form this side's half
    /// of the link; the peer shard calls this with the same `key` and the
    /// opposite `egress_salt` for the other half.
    ///
    /// The egress channel carries the full link semantics for the outgoing
    /// direction — serialization, queueing, loss (from the keyed stream
    /// `(seed, key, egress_salt)`, matching [`Simulator::connect_keyed`]'s
    /// direction salts), and any installed faults — but completed
    /// transmissions are exported to the simulator's outbox under
    /// `boundary` instead of being delivered locally. The ingress channel
    /// is the delivery endpoint for packets arriving from the peer shard
    /// via [`Simulator::inject_boundary`]; its parameters only matter for
    /// the `up` flag and stats (QoS was already applied at the remote
    /// egress). Both map to a single new interface on `local`.
    pub fn connect_boundary(
        &mut self,
        local: NodeId,
        boundary: u32,
        egress: LinkParams,
        ingress: LinkParams,
        key: u64,
        egress_salt: u64,
    ) -> (ChannelId, ChannelId) {
        let iface = IfaceId(self.node_ifaces[local.0].len());
        let mut eg_ch = Channel::new(local, local, iface, egress);
        eg_ch.loss_rng = self.loss_stream(key, egress_salt);
        eg_ch.remote = Some(boundary);
        let eg = self.add_channel(eg_ch);
        let ing = self.add_channel(Channel::new(local, local, iface, ingress));
        self.node_ifaces[local.0].push(eg);
        (eg, ing)
    }

    /// Schedules a packet that arrived from a peer shard for delivery on
    /// an ingress channel (created by [`Simulator::connect_boundary`]) at
    /// absolute time `at` (clamped to now). Delivery then follows the
    /// normal channel path: `up` check, stats, trace, observer, dispatch.
    pub fn inject_boundary(&mut self, ingress: ChannelId, at: SimTime, pkt: Packet) {
        let at = at.max(self.now);
        self.push(
            at,
            Event::Deliver {
                channel: ingress,
                pkt,
            },
        );
    }

    /// Moves every pending outbox export `(boundary id, arrival time,
    /// packet)` into `into`, preserving event order.
    pub fn drain_outbox(&mut self, into: &mut Vec<(u32, SimTime, Packet)>) {
        into.append(&mut self.outbox);
    }

    /// Returns the node's display name.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.nodes[id.0].get().name()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Returns a channel by id.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.0]
    }

    /// Returns a channel mutably (for parameter changes).
    pub fn channel_mut(&mut self, id: ChannelId) -> &mut Channel {
        &mut self.channels[id.0]
    }

    /// Typed read access to a node's internals; `None` when the node is
    /// not a `T`. A read leaves the node shared and its digest cached.
    pub fn node_ref<T: 'static>(&self, id: NodeId) -> Option<&T> {
        let node: &dyn Any = self.nodes[id.0].get();
        node.downcast_ref::<T>()
    }

    /// Typed write access to a node's internals; `None` when the node is
    /// not a `T`. A write copies a node a snapshot still shares and drops
    /// its cached digest: read through [`Simulator::node_ref`].
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.node_ref::<T>(id)?;
        let node: &mut dyn Any = self.nodes[id.0].get_mut();
        node.downcast_mut::<T>()
    }

    /// Runs `f` with typed access to a node and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the node is not of type `T`.
    pub fn with_node<T: 'static, R>(&mut self, id: NodeId, f: impl FnOnce(&mut T) -> R) -> R {
        f(self.node_mut::<T>(id).unwrap_or_else(|| panic!("node {} is not of the requested type", id.0)))
    }

    /// Finds the first node whose [`Node::addresses`] contains `addr`.
    pub fn node_by_addr(&self, addr: Ipv4Addr) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|cell| cell.get().addresses().contains(&addr))
            .map(NodeId)
    }

    /// Schedules a control closure at time `at` (clamped to now).
    pub fn at(&mut self, at: SimTime, f: impl FnOnce(&mut Simulator) + Send + 'static) {
        let time = at.max(self.now);
        self.push(time, Event::Control(Box::new(f)));
    }

    /// Schedules a node timer at absolute time `at` (clamped to now),
    /// returning a handle that cancels it.
    pub fn schedule_timer(&mut self, at: SimTime, node: NodeId, token: u64) -> TimerHandle {
        let time = at.max(self.now);
        let handle = self.sched.cancel.alloc();
        self.sched
            .schedule_cancellable(time, handle, Event::Timer { node, token });
        handle
    }

    /// Cancels a pending timer; returns `true` if it had not yet fired.
    /// Stale handles (fired, already cancelled, or [`TimerHandle::NONE`])
    /// are inert.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.sched.cancel(handle)
    }

    /// Snapshot of the scheduler's counters and gauges.
    pub fn sched_stats(&self) -> WheelStats {
        self.sched.stats()
    }

    /// Injects a packet as if `node` had sent it on `iface` right now.
    pub fn inject(&mut self, node: NodeId, iface: IfaceId, pkt: Packet) {
        self.transmit(node, iface, pkt);
    }

    fn push(&mut self, time: SimTime, event: Event) {
        self.sched.schedule(time, event);
    }

    /// Runs every node's `on_start` hook now (idempotent; every run method
    /// calls it). The sharded runner calls this before its first
    /// synchronization round so [`Simulator::next_event_time`] sees the
    /// events start-up generates.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.dispatch(NodeId(i), |node, ctx| node.on_start(ctx));
        }
    }

    /// Time of the earliest pending event, or `None` when the queue is
    /// empty. Start the simulator first ([`Simulator::start`] or any run
    /// method); before start-up the queue may be trivially empty.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.sched.next_time()
    }

    /// Runs until the event queue is empty or `horizon` is reached, leaving
    /// `now` at the horizon (or at the last event if the queue drained).
    pub fn run_until(&mut self, horizon: SimTime) {
        self.start();
        while let Some((time, event)) = self.sched.pop_due(horizon) {
            self.now = time;
            self.handle(event);
        }
        self.now = self.now.max(horizon);
        self.end_run();
        self.obs_sched_gauges();
    }

    /// Processes a single event; returns its time, or `None` if idle.
    pub fn step(&mut self) -> Option<SimTime> {
        self.start();
        let (time, event) = self.sched.pop()?;
        self.now = time;
        self.handle(event);
        self.end_run();
        Some(self.now)
    }

    /// Publishes scheduler gauges under the `sched` scope (called at the
    /// end of every [`Simulator::run_until`]); values depend only on the
    /// deterministic event stream, so seeded obs exports stay
    /// byte-identical.
    fn obs_sched_gauges(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        let s = self.sched.stats();
        self.obs.gauge("sched", "queue_depth", s.queue_depth as f64);
        self.obs.gauge("sched", "wheel_occupancy", s.wheel_occupancy as f64);
        self.obs.gauge("sched", "overflow_len", s.overflow_len as f64);
        self.obs.gauge("sched", "scheduled", s.scheduled as f64);
        self.obs.gauge("sched", "fired", s.fired as f64);
        self.obs.gauge("sched", "cancelled", s.cancelled as f64);
        self.obs.gauge("sched", "purged", s.purged as f64);
    }

    /// Total discrete events processed since construction (benchmarks use
    /// this to report simulator event throughput).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Renders every captured trace entry as `(time µs, line)` with nodes
    /// identified by *name* instead of shard-local id. Node ids are only
    /// meaningful within one simulator, so cross-shard trace merges (and
    /// the sharded-vs-single-shard golden digests) compare these lines:
    /// with unique node names the rendering is partition-invariant.
    pub fn render_trace_named(&self) -> Vec<(u64, String)> {
        let name = |id: NodeId| self.node_name(id);
        self.trace
            .entries()
            .iter()
            .map(|e| (e.time.as_micros(), e.event.line(name)))
            .collect()
    }

    fn handle(&mut self, event: Event) {
        self.events_processed += 1;
        match event {
            Event::TxComplete { channel, pkt } => self.tx_complete(channel, pkt),
            Event::Deliver { channel, pkt } => self.deliver(channel, pkt),
            Event::Timer { node, token } => {
                self.dispatch(node, |n, ctx| n.on_timer(ctx, token));
            }
            Event::Control(f) => f(self),
        }
    }

    fn dispatch(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Node, &mut NodeCtx<'_>)) {
        let iface_count = self.node_ifaces[node.0].len();
        // Hand the recycled effect buffers to the context; a re-entrant
        // dispatch (a control closure driving another node) sees empty
        // vectors and simply allocates its own — correctness never depends
        // on the recycling.
        let fx_outputs = std::mem::take(&mut self.fx_outputs);
        let fx_timers = std::mem::take(&mut self.fx_timers);
        let (mut outputs, mut timers) = {
            let mut ctx = NodeCtx::new(
                self.now,
                node,
                iface_count,
                &mut self.node_rngs[node.0],
                &mut self.trace,
            )
            .with_obs(&self.obs)
            .with_timer_slab(&mut self.sched.cancel)
            .with_effect_buffers(fx_outputs, fx_timers);
            f(self.nodes[node.0].get_mut(), &mut ctx);
            ctx.take_effects()
        };
        for (iface, pkt) in outputs.drain(..) {
            self.transmit(node, iface, pkt);
        }
        // One timer path: every context timer carries a live handle minted
        // from this wheel's slab (the context was attached to it above).
        for (at, token, handle) in timers.drain(..) {
            let at = at.max(self.now);
            self.sched
                .schedule_cancellable(at, handle, Event::Timer { node, token });
        }
        self.fx_outputs = outputs;
        self.fx_timers = timers;
    }

    /// The one place a link-level drop is recorded: the trace line, the
    /// channel's `ChannelStats` field, the `link.drop.*` counter and the
    /// flight-recorder event all derive from `reason`. `ch` is `None` only
    /// for a packet sent on an interface with no channel behind it.
    fn drop_packet(&mut self, ch: Option<ChannelId>, node: NodeId, reason: DropReason, pkt: &Packet) {
        self.trace.drop_pkt(self.now, node, reason, || pkt.summary());
        let Some(ch) = ch else {
            if self.obs.is_enabled() {
                self.obs
                    .inc(self.nodes[node.0].get().name(), "link.drop.no_route");
            }
            return;
        };
        let stats = &mut self.channels[ch.0].stats;
        let (key, tag) = match reason {
            DropReason::QueueFull => {
                stats.queue_drops += 1;
                ("link.drop.queue_full", "queue_full")
            }
            DropReason::Loss => {
                stats.loss_drops += 1;
                ("link.drop.loss", "loss")
            }
            DropReason::LinkDown => {
                stats.down_drops += 1;
                ("link.drop.down", "down")
            }
            // Counted by the channel's `FaultStats`.
            DropReason::Corrupt => ("link.drop.corrupt", "corrupt"),
            other => unreachable!("{other} is not a link-level drop"),
        };
        if self.obs.is_enabled() {
            let now = self.now.as_micros();
            let (obs, ch) = self.link_obs(ch);
            obs.inc(&ch.scope, key);
            obs.event(now, &ch.scope, "link.drop", fields!(reason = tag, len = pkt.wire_len()));
        }
    }

    fn transmit(&mut self, node: NodeId, iface: IfaceId, pkt: Packet) {
        let Some(&ch_id) = self.node_ifaces[node.0].get(iface.0) else {
            return self.drop_packet(None, node, DropReason::NoRoute, &pkt);
        };
        self.trace.tx(self.now, node, || pkt.summary());
        if let Some(obs) = self.observer.as_mut() {
            obs.on_tx(self.now, node, &pkt);
        }
        if self.obs.is_enabled() {
            let (obs, ch) = self.link_obs(ch_id);
            ch.offered.inc(obs, &ch.scope, "link.offered");
        }
        let ch = &mut self.channels[ch_id.0];
        ch.stats.offered_pkts += 1;
        if !ch.params.up {
            return self.drop_packet(Some(ch_id), node, DropReason::LinkDown, &pkt);
        }
        if ch.busy {
            // Admission reads the fluid queue.
            self.fluid_catch_up(ch_id, self.now);
            if !self.channels[ch_id.0].enqueue(self.now, pkt.clone()) {
                self.drop_packet(Some(ch_id), node, DropReason::QueueFull, &pkt);
            } else if self.obs.is_enabled() {
                let (obs, ch) = self.link_obs(ch_id);
                ch.enqueued.inc(obs, &ch.scope, "link.enqueued");
            }
            return;
        }
        self.start_tx(ch_id, pkt);
    }

    fn start_tx(&mut self, ch_id: ChannelId, pkt: Packet) {
        self.fluid_catch_up(ch_id, self.now);
        let ch = &mut self.channels[ch_id.0];
        ch.busy = true;
        // Fluid-enabled channels serialize foreground packets at the
        // residual bandwidth the background allocation leaves them.
        let tx_time = match ch.fluid.as_ref() {
            Some(f) => tx_time_at(f.residual_bps(), pkt.wire_len()),
            None => ch.params.tx_time(pkt.wire_len()),
        };
        let at = self.now + tx_time;
        self.push(
            at,
            Event::TxComplete {
                channel: ch_id,
                pkt,
            },
        );
    }

    fn tx_complete(&mut self, ch_id: ChannelId, pkt: Packet) {
        let len = pkt.wire_len();
        let (lost, down, latency, src_node) = {
            let ch = &mut self.channels[ch_id.0];
            ch.busy = false;
            let down = !ch.params.up;
            let lost = !down && {
                // Keyed channels draw from their private stream so the
                // outcome is independent of the rest of the simulator.
                let rng = match ch.loss_rng.as_mut() {
                    Some(rng) => rng,
                    None => &mut self.link_rng,
                };
                ch.params.loss.sample(&mut ch.loss_state, len, rng)
            };
            (lost, down, ch.params.latency, ch.src_node)
        };
        if down {
            self.drop_packet(Some(ch_id), src_node, DropReason::LinkDown, &pkt);
        } else if lost {
            self.drop_packet(Some(ch_id), src_node, DropReason::Loss, &pkt);
        } else {
            let mut pkt = pkt;
            let mut at = self.now + latency;
            let mut deliver = true;
            let mut duplicate = false;
            if let Some(fs) = self.faults.get_mut(ch_id.0).and_then(Option::as_mut) {
                let action = fs.sample(&mut pkt);
                deliver = action.deliver;
                duplicate = action.duplicate;
                at += action.extra_delay;
                if self.obs.is_enabled() {
                    let (obs, ch) = self.link_obs(ch_id);
                    if action.corrupted_in_place {
                        obs.inc(&ch.scope, "link.fault.corrupt_delivered");
                    }
                    if action.duplicate {
                        obs.inc(&ch.scope, "link.fault.duplicated");
                    }
                    if action.extra_delay > SimDuration::ZERO {
                        obs.inc(&ch.scope, "link.fault.reordered");
                    }
                }
            }
            if !deliver {
                self.drop_packet(Some(ch_id), src_node, DropReason::Corrupt, &pkt);
            } else if let Some(boundary) = self.channels[ch_id.0].remote {
                // Boundary egress: the packet survived this side's link
                // semantics (loss, faults); export it to the peer shard
                // instead of delivering locally. The runner forwards it to
                // the matching ingress channel at the same arrival time.
                if duplicate {
                    self.outbox.push((boundary, at, pkt.clone()));
                }
                self.outbox.push((boundary, at, pkt));
            } else {
                if duplicate {
                    self.push(
                        at,
                        Event::Deliver {
                            channel: ch_id,
                            pkt: pkt.clone(),
                        },
                    );
                }
                self.push(
                    at,
                    Event::Deliver {
                        channel: ch_id,
                        pkt,
                    },
                );
            }
        }
        // Start the next queued packet regardless of this packet's fate.
        if let Some(next) = self.channels[ch_id.0].dequeue() {
            if self.obs.is_enabled() {
                let (obs, ch) = self.link_obs(ch_id);
                ch.dequeued.inc(obs, &ch.scope, "link.dequeued");
            }
            self.start_tx(ch_id, next);
        }
    }

    fn deliver(&mut self, ch_id: ChannelId, pkt: Packet) {
        let ch = &self.channels[ch_id.0];
        let (src_node, dst_node, dst_iface) = (ch.src_node, ch.dst_node, ch.dst_iface);
        if !ch.params.up {
            return self.drop_packet(Some(ch_id), src_node, DropReason::LinkDown, &pkt);
        }
        let len = pkt.wire_len();
        let now = self.now;
        self.channels[ch_id.0].record_delivery(now, len);
        if self.obs.is_enabled() {
            let (obs, ch) = self.link_obs(ch_id);
            ch.delivered_pkts.inc(obs, &ch.scope, "link.delivered_pkts");
            ch.delivered_bytes.add(obs, &ch.scope, "link.delivered_bytes", len as u64);
        }
        self.trace.rx(self.now, dst_node, || pkt.summary());
        if let Some(obs) = self.observer.as_mut() {
            obs.on_deliver(self.now, dst_node, &pkt);
        }
        self.dispatch(dst_node, |n, ctx| n.on_packet(ctx, dst_iface, pkt));
    }

    // ------------------------------------------------------------------
    // Model checking: snapshot/restore, canonical fingerprints, and
    // explicit branch-point stepping (see the `comma-mc` crate).
    // ------------------------------------------------------------------

    /// Copies the world — scheduler (with pending events), nodes,
    /// channels, RNG streams, fault state, observer — so a model checker
    /// can restore it and explore a different branch.
    ///
    /// A fork copies only what a step can change. Nodes are shared until
    /// written: a fork shares every node, the first fork of a node's
    /// state asks [`Node::can_clone`], and the first write to a node the
    /// other world still holds copies it ([`Node::clone_node`]).
    /// Configuration no step writes is shared by refcount too: a proxy's
    /// filter catalog, registration table and metrics source, the oracle's
    /// configuration, and its per-endpoint stream logs until the next
    /// segment extends one. Every write to shared state goes through
    /// the [`make_mut`](std::sync::Arc::make_mut) pattern, so the type
    /// system — not a dirty flag — keeps the fork and its original apart.
    /// Tables read per packet (interface lists, addresses, routing tables)
    /// are copied inline; a fork through a [`ForkPool`] copies the
    /// simulator's own tables into a finished branch's buffers, which
    /// allocates nothing. The pending events' cached digest words
    /// ([`Simulator::state_hash`]) are copied with the scheduler.
    ///
    /// Fails, naming the culprit, when the world holds state that cannot
    /// be duplicated: a pending [`Simulator::at`] control closure
    /// (`FnOnce`, run scenario setup to completion first), a node whose
    /// current state cannot be cloned ([`Node::can_clone`], asked once per
    /// written state), or a packet observer without
    /// [`PacketObserver::clone_observer`].
    ///
    /// The one thing shared rather than copied is [`Simulator::obs`]: the
    /// copy holds the same registry, and every resolved counter or gauge a
    /// lit world carries (link counters here, the engine's and the TCP
    /// hosts' inside the nodes) keeps pointing at the original's cells, so
    /// both worlds add into one export.
    pub fn snapshot(&self) -> Result<Simulator, String> {
        let mut fork = Simulator::empty(self.seed, self.obs.clone());
        self.snapshot_into(&mut fork)?;
        Ok(fork)
    }

    /// The one fork path, behind [`Simulator::snapshot`] and
    /// [`ForkPool::fork`]: overwrites `fork` with a copy of this world,
    /// each growable part copied into `fork`'s own buffer and the observer
    /// into `fork`'s when it can take the copy in place, so a fork into a
    /// finished branch allocates nothing. Nodes are shared, not copied. On
    /// failure `fork` holds a partial copy.
    fn snapshot_into(&self, fork: &mut Simulator) -> Result<(), String> {
        self.sched.clone_into_with(&mut fork.sched, |ev| {
            ev.try_clone().ok_or_else(|| {
                "cannot snapshot: pending control event (run scenario setup to completion first)"
                    .to_string()
            })
        })?;
        fork.nodes.clear();
        fork.nodes.reserve(self.nodes.len());
        for (i, cell) in self.nodes.iter().enumerate() {
            let copy = cell.fork().ok_or_else(|| {
                format!(
                    "cannot snapshot: node {i} ({}) does not implement clone_node",
                    cell.get().name()
                )
            })?;
            fork.nodes.push(copy);
        }
        let mut kept = fork.observer.take();
        fork.observer = match &self.observer {
            None => None,
            Some(o) if kept.as_deref_mut().is_some_and(|into| o.clone_observer_into(into)) => kept,
            Some(o) => Some(o.clone_observer().ok_or_else(|| {
                "cannot snapshot: packet observer does not implement clone_observer".to_string()
            })?),
        };
        fork.now = self.now;
        fork.node_ifaces.clone_from(&self.node_ifaces);
        fork.node_rngs.clone_from(&self.node_rngs);
        fork.channels.clone_from(&self.channels);
        fork.fluid_links.clone_from(&self.fluid_links);
        fork.link_rng = self.link_rng.clone();
        fork.started = self.started;
        fork.seed = self.seed;
        fork.events_processed = self.events_processed;
        fork.trace.clone_from(&self.trace);
        // The obs handle is shared (Arc), not duplicated: snapshots are
        // meant for model checking, where recording stays disabled. The
        // resolved link counters go with it — a lit snapshot adds into the
        // cells the original adds into, exactly as by-name writes to the
        // shared handle would.
        fork.obs = self.obs.clone();
        fork.ch_obs.clone_from(&self.ch_obs);
        fork.faults.clone_from(&self.faults);
        fork.outbox.clone_from(&self.outbox);
        Ok(())
    }

    /// Canonical fingerprint ([`comma_rt::digest::StateHasher`] — in
    /// memory only, never recorded) of the world's *behavior-relevant*
    /// state: simulated time, pending events in `(time, seq)` pop order
    /// (sequence numbers themselves excluded, so interleavings that
    /// converge to the same pending set hash equal), one word per node
    /// ([`Node::state_digest`] hashed on its own, cached until the node is
    /// next written and shared with forks), every RNG stream, and
    /// per-channel link state, fluid population caught up through now
    /// ([`FluidState::state_digest`]), whatever was read before.
    /// Packets — pending and queued — are folded field by field
    /// ([`Packet::state_digest`]), never through their trace summary.
    /// Diagnostic records (trace, stats, `events_processed`) are
    /// deliberately left out for the same convergence reason.
    ///
    /// A pending event is one word too, its digest hashed on its own. An
    /// event never changes while it waits, so the word is computed by the
    /// first fingerprint that meets it and kept beside its scheduler cell
    /// under the event's sequence number, copied into forks with the
    /// scheduler ([`TimerWheel::digest_pending`]). Only this method fills
    /// that cache: a world nobody fingerprints never digests an event.
    ///
    /// Iteration never touches a hash map, and `Bytes` payloads are hashed
    /// by content — the fingerprint is independent of allocation addresses
    /// and map iteration order, and stable across runs of the same world.
    pub fn state_hash(&mut self) -> u64 {
        self.fluid_catch_up_all();
        let mut h = comma_rt::digest::StateHasher::new();
        h.update_u64(self.now.as_micros());
        self.sched.digest_pending(Event::digest, |time, word| {
            h.update_u64(time).update_u64(word);
        });
        for (i, cell) in self.nodes.iter().enumerate() {
            h.update_u64(i as u64);
            h.update_u64(cell.digest());
        }
        for rng in &self.node_rngs {
            for w in rng.state_words() {
                h.update_u64(w);
            }
        }
        for w in self.link_rng.state_words() {
            h.update_u64(w);
        }
        for ch in &self.channels {
            h.update_u64(ch.busy as u64);
            h.update_u64(ch.queued_bytes as u64);
            for pkt in &ch.queue {
                pkt.state_digest(&mut h);
            }
            h.update_u64(ch.loss_state.bad as u64);
            h.update_u64(ch.params.up as u64);
            h.update_u64(ch.params.bandwidth_bps);
            h.update_u64(ch.params.latency.as_micros());
            if let Some(rng) = ch.loss_rng.as_ref() {
                for w in rng.state_words() {
                    h.update_u64(w);
                }
            }
            if let Some(fluid) = ch.fluid.as_ref() {
                fluid.state_digest(&mut h);
            }
        }
        for fs in self.faults.iter().flatten() {
            for w in fs.rng.state_words() {
                h.update_u64(w);
            }
        }
        h.finish()
    }

    /// The branch alternatives at the current decision point: one entry
    /// per live event in the earliest due batch (all at the same
    /// microsecond), in FIFO order. `is_delivery` marks packet-delivery
    /// events, which additionally branch over [`McAction`] fault
    /// placements; every other event only branches on fire order. Empty
    /// means the world is quiescent. Runs `on_start` hooks if the world
    /// has not started yet. The list lives in the simulator and is
    /// rewritten by the next call, so a decision point allocates nothing
    /// once it has grown.
    pub fn mc_options(&mut self) -> &[McOption] {
        self.start();
        let options = self.mc_options.get_or_insert_with(Box::default);
        options.clear();
        for (index, (time, ev)) in self.sched.due_batch().enumerate() {
            let is_delivery = matches!(ev, Event::Deliver { .. });
            options.push(McOption { index, time, is_delivery });
        }
        options
    }

    /// Executes one model-checking step: fires the `index`-th event of the
    /// current due batch (as enumerated by [`Simulator::mc_options`]),
    /// applying `action` if it is a delivery. Non-delivery events accept
    /// only [`McAction::Deliver`] (plain firing).
    ///
    /// `Duplicate` re-schedules a copy at the same instant — the wheel's
    /// FIFO places it behind every event already in the batch. `Reorder`
    /// does not fire the event at all: it re-schedules the delivery at the
    /// time of the next pending event, behind it, modeling a packet
    /// overtaken by whatever happens next (a plain deliver when nothing
    /// else is pending).
    pub fn mc_step(&mut self, index: usize, action: McAction) -> Result<(), String> {
        self.start();
        let is_delivery = match self.sched.peek_due_nth(index) {
            Some((_, ev)) => matches!(ev, Event::Deliver { .. }),
            None => return Err(format!("mc_step: no due event at index {index}")),
        };
        if !is_delivery && action != McAction::Deliver {
            return Err(format!("mc_step: {action:?} requires a delivery event"));
        }
        let (time, event) = self.sched.pop_due_nth(index).expect("peeked above");
        self.now = time;
        match action {
            McAction::Deliver => self.handle(event),
            McAction::Drop => {
                let Event::Deliver { channel, pkt } = event else {
                    unreachable!("checked above")
                };
                self.events_processed += 1;
                let src = self.channels[channel.0].src_node;
                self.drop_packet(Some(channel), src, DropReason::Loss, &pkt);
            }
            McAction::Duplicate => {
                let Event::Deliver { channel, pkt } = &event else {
                    unreachable!("checked above")
                };
                self.push(
                    self.now,
                    Event::Deliver {
                        channel: *channel,
                        pkt: pkt.clone(),
                    },
                );
                self.handle(event);
            }
            McAction::Reorder => {
                let next = self.sched.next_time();
                match next {
                    // Nothing to slip behind: degenerate to a plain deliver.
                    None => self.handle(event),
                    Some(at) => self.push(at.max(self.now), event),
                }
            }
        }
        self.end_run();
        Ok(())
    }
}

/// Finished model-checking branches, kept for their buffers.
///
/// A depth-first search forks, explores and drops a world at every branch
/// point. Forking through the pool instead copies the world into a
/// finished branch, whose scheduler slab, node, channel and RNG tables
/// keep their capacity, and whose observer takes the copy in place
/// ([`PacketObserver::clone_observer_into`]): a fork then allocates
/// nothing until a step writes a node it shares. A kept branch holds no
/// nodes, events or packets, and its observer only what
/// [`PacketObserver::release`] left: empty buffers. Branches are boxed: a
/// simulator is 2 KiB of inline wheel slots, which a live branch and a
/// kept one should not both hold, one on the stack and one in the pool.
#[derive(Default)]
pub struct ForkPool {
    // Boxed on purpose (see above): a branch moves in and out of the pool
    // by pointer, and a live one keeps no copy of the slots on the stack.
    #[allow(clippy::vec_box)]
    spares: Vec<Box<Simulator>>,
}

impl ForkPool {
    /// [`Simulator::snapshot`] of `sim`, built in a kept branch when the
    /// pool has one.
    pub fn fork(&mut self, sim: &Simulator) -> Result<Box<Simulator>, String> {
        let mut fork = match self.spares.pop() {
            Some(spare) => spare,
            None => Box::new(Simulator::empty(sim.seed, sim.obs.clone())),
        };
        sim.snapshot_into(&mut fork)?;
        Ok(fork)
    }

    /// Keeps a finished branch's buffers for the next [`ForkPool::fork`],
    /// releasing what it holds.
    pub fn recycle(&mut self, mut branch: Box<Simulator>) {
        branch.sched.clear();
        branch.nodes.clear();
        branch.channels.clear();
        if !branch.observer.as_mut().is_some_and(|o| o.release()) {
            branch.observer = None;
        }
        branch.outbox.clear();
        self.spares.push(branch);
    }
}

/// Fault placement applied to a delivery at a model-checking branch point
/// (see [`Simulator::mc_step`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum McAction {
    /// Fire the event normally (the only action valid for non-deliveries).
    Deliver,
    /// Discard the packet (a link loss placed exactly here).
    Drop,
    /// Deliver, and deliver an identical copy right behind the current
    /// batch.
    Duplicate,
    /// Do not fire: re-schedule the delivery behind the next pending
    /// event (the packet is overtaken).
    Reorder,
}

/// One branch alternative reported by [`Simulator::mc_options`].
#[derive(Clone, Copy, Debug)]
pub struct McOption {
    /// Index into the current due batch (pass to [`Simulator::mc_step`]).
    pub index: usize,
    /// The event's due time.
    pub time: SimTime,
    /// Whether this is a packet delivery (branches over [`McAction`]).
    pub is_delivery: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LossModel;
    use crate::packet::{IcmpMessage, TcpFlags, TcpSegment};
    use crate::time::SimDuration;
    use crate::trace::{TraceEntry, TraceEvent};
    use comma_rt::Bytes;
    use std::any::Any;
    use std::sync::Arc;

    /// Test node: replies to echo requests, counts deliveries.
    struct Ponger {
        addr: Ipv4Addr,
        received: Vec<Packet>,
    }

    impl Node for Ponger {
        fn name(&self) -> &str {
            "ponger"
        }
        fn addresses(&self) -> Vec<Ipv4Addr> {
            vec![self.addr]
        }
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, pkt: Packet) {
            if let crate::packet::IpPayload::Icmp(IcmpMessage::EchoRequest { id, seq, payload }) =
                &pkt.body
            {
                let reply = Packet::icmp(
                    self.addr,
                    pkt.ip.src,
                    IcmpMessage::EchoReply {
                        id: *id,
                        seq: *seq,
                        payload: payload.clone(),
                    },
                );
                ctx.send(iface, reply);
            }
            self.received.push(pkt);
        }
        fn clone_node(&self) -> Option<Arc<dyn Node>> {
            Some(Arc::new(Ponger { addr: self.addr, received: self.received.clone() }))
        }
    }

    fn two_node_sim(ab: LinkParams, ba: LinkParams) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Ponger {
            addr: "10.0.0.1".parse().unwrap(),
            received: Vec::new(),
        }));
        let b = sim.add_node(Box::new(Ponger {
            addr: "10.0.0.2".parse().unwrap(),
            received: Vec::new(),
        }));
        sim.connect(a, b, ab, ba);
        (sim, a, b)
    }

    fn ping(src: &str, dst: &str, seq: u16, len: usize) -> Packet {
        Packet::icmp(
            src.parse().unwrap(),
            dst.parse().unwrap(),
            IcmpMessage::EchoRequest {
                id: 1,
                seq,
                payload: Bytes::from(vec![0u8; len]),
            },
        )
    }

    #[test]
    fn ping_rtt_matches_link_parameters() {
        let params = LinkParams::wired()
            .with_bandwidth(1_000_000)
            .with_latency(SimDuration::from_millis(10));
        let (mut sim, a, b) = two_node_sim(params.clone(), params);
        // 100-byte payload → 128-byte packet → 1.024 ms serialization.
        sim.inject(a, IfaceId(0), ping("10.0.0.1", "10.0.0.2", 1, 100));
        sim.run_until(SimTime::from_secs(1));
        let received = &sim.with_node::<Ponger, _>(a, |p| p.received.clone());
        assert_eq!(received.len(), 1, "reply should arrive");
        // One-way: 1.024 ms tx + 10 ms prop; reply identical → RTT ≈ 22.048 ms.
        assert_eq!(sim.with_node::<Ponger, _>(b, |p| p.received.len()), 1);
    }

    #[test]
    fn serialization_delays_queueing() {
        // Slow link: packets must queue behind each other.
        let params = LinkParams::wired()
            .with_bandwidth(80_000) // 10 KB/s.
            .with_latency(SimDuration::ZERO);
        let (mut sim, a, b) = two_node_sim(params.clone(), params);
        for seq in 0..3 {
            sim.inject(a, IfaceId(0), ping("10.0.0.1", "10.0.0.2", seq, 972)); // 1000-byte pkt.
        }
        // Each packet takes 100 ms to serialize; the third finishes at 300 ms.
        sim.run_until(SimTime::from_millis(150));
        assert_eq!(sim.with_node::<Ponger, _>(b, |p| p.received.len()), 1);
        sim.run_until(SimTime::from_millis(350));
        assert_eq!(sim.with_node::<Ponger, _>(b, |p| p.received.len()), 3);
    }

    #[test]
    fn queue_overflow_drops() {
        let params = LinkParams::wired()
            .with_bandwidth(80_000)
            .with_queue_limit(2_000); // Two 1000-byte packets.
        let (mut sim, a, b) = two_node_sim(params.clone(), params);
        for seq in 0..10 {
            sim.inject(a, IfaceId(0), ping("10.0.0.1", "10.0.0.2", seq, 972));
        }
        sim.run_until(SimTime::from_secs(2));
        // One in flight + two queued = 3 delivered, 7 dropped.
        assert_eq!(sim.with_node::<Ponger, _>(b, |p| p.received.len()), 3);
        let ch = sim.channel(ChannelId(0));
        assert_eq!(ch.stats.queue_drops, 7);
    }

    #[test]
    fn lossy_link_drops_packets() {
        let params = LinkParams::wireless().with_loss(LossModel::Uniform { p: 1.0 });
        let (mut sim, a, b) = two_node_sim(params, LinkParams::wired());
        sim.inject(a, IfaceId(0), ping("10.0.0.1", "10.0.0.2", 0, 10));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.with_node::<Ponger, _>(b, |p| p.received.len()), 0);
        assert_eq!(sim.channel(ChannelId(0)).stats.loss_drops, 1);
    }

    #[test]
    fn link_down_drops_and_control_reenables() {
        let (mut sim, a, b) = two_node_sim(LinkParams::wired(), LinkParams::wired());
        sim.channel_mut(ChannelId(0)).params.up = false;
        sim.inject(a, IfaceId(0), ping("10.0.0.1", "10.0.0.2", 0, 10));
        sim.at(SimTime::from_millis(100), |sim| {
            sim.channel_mut(ChannelId(0)).params.up = true;
        });
        sim.at(SimTime::from_millis(200), move |sim| {
            sim.inject(a, IfaceId(0), ping("10.0.0.1", "10.0.0.2", 1, 10));
        });
        sim.run_until(SimTime::from_secs(1));
        let received = sim.with_node::<Ponger, _>(b, |p| p.received.len());
        assert_eq!(received, 1, "only the post-reconnect ping arrives");
        assert_eq!(sim.channel(ChannelId(0)).stats.down_drops, 1);
    }

    #[test]
    fn determinism_same_seed_same_counters() {
        fn run(_seed: u64) -> Vec<crate::link::ChannelStats> {
            let params = LinkParams::wireless().with_loss(LossModel::Uniform { p: 0.3 });
            let (mut sim, a, _b) = two_node_sim(params, LinkParams::wired());
            for seq in 0..200 {
                let at = SimTime::from_millis(seq as u64 * 10);
                sim.at(at, move |sim| {
                    sim.inject(a, IfaceId(0), ping("10.0.0.1", "10.0.0.2", seq, 100));
                });
            }
            // Reseed the whole simulator via construction: handled by caller.
            sim.run_until(SimTime::from_secs(10));
            (0..sim.channel_count()).map(|i| sim.channel(ChannelId(i)).stats).collect()
        }
        let first = run(5);
        assert_eq!(first, run(5));
        assert!(first[0].loss_drops > 0 && first[0].delivered_pkts > 0, "{first:?}");
    }

    #[test]
    fn node_by_addr_and_names() {
        let (sim, a, _) = two_node_sim(LinkParams::wired(), LinkParams::wired());
        assert_eq!(sim.node_by_addr("10.0.0.1".parse().unwrap()), Some(a));
        assert_eq!(sim.node_by_addr("9.9.9.9".parse().unwrap()), None);
        assert_eq!(sim.node_name(a), "ponger");
        assert_eq!(sim.node_count(), 2);
        assert_eq!(sim.channel_count(), 2);
    }

    #[test]
    fn step_processes_one_event() {
        let (mut sim, a, _) = two_node_sim(LinkParams::wired(), LinkParams::wired());
        sim.inject(a, IfaceId(0), ping("10.0.0.1", "10.0.0.2", 0, 10));
        let first = sim.step();
        assert!(first.is_some());
    }

    #[test]
    fn send_on_missing_iface_is_counted_drop() {
        let (mut sim, a, _) = two_node_sim(LinkParams::wired(), LinkParams::wired());
        sim.trace.set_capture(true);
        sim.inject(a, IfaceId(7), ping("10.0.0.1", "10.0.0.2", 0, 10));
        let entries = sim.trace.entries();
        assert!(
            matches!(
                entries,
                [TraceEntry { event: TraceEvent::Drop { reason: DropReason::NoRoute, .. }, .. }]
            ),
            "{entries:?}"
        );
    }

    #[test]
    fn mc_drop_is_counted_like_any_loss_and_not_hashed() {
        let (mut sim, a, b) = two_node_sim(LinkParams::wired(), LinkParams::wired());
        sim.inject(a, IfaceId(0), ping("10.0.0.1", "10.0.0.2", 0, 10));
        sim.step().expect("tx completes");
        assert!(sim.mc_options()[0].is_delivery);
        sim.mc_step(0, McAction::Drop).unwrap();
        assert_eq!(sim.with_node::<Ponger, _>(b, |p| p.received.len()), 0);
        assert_eq!(sim.channel(ChannelId(0)).stats.loss_drops, 1);
        assert_eq!(sim.channel(ChannelId(1)).stats.loss_drops, 0);
        // ChannelStats are diagnostics: the uncounted world hashes equal.
        let counted = sim.state_hash();
        sim.channel_mut(ChannelId(0)).stats.loss_drops = 0;
        assert_eq!(sim.state_hash(), counted);
    }

    /// Fluid state is part of the fingerprint: worlds that differ only in
    /// their background population's stream hash apart (pending epochs are
    /// no longer events, so nothing else would tell them apart), and a
    /// snapshot hashes like its original, before and after both run on.
    #[test]
    fn state_hash_covers_fluid_state_and_survives_snapshots() {
        let world = |key| {
            let (mut sim, _, _) = two_node_sim(LinkParams::wired(), LinkParams::wired());
            sim.attach_fluid(ChannelId(0), FluidConfig::users(200), key);
            sim
        };
        // Nobody has arrived yet: only the populations' streams differ.
        assert_ne!(world(1).state_hash(), world(2).state_hash(), "two fluid streams hash apart");
        let (mut a, mut b) = (world(1), world(2));
        a.run_until(SimTime::from_millis(500));
        b.run_until(SimTime::from_millis(500));
        assert_ne!(a.state_hash(), b.state_hash());
        let mut copy = a.snapshot().expect("no control events pending");
        assert_eq!(copy.state_hash(), a.state_hash());
        a.run_until(SimTime::from_millis(1_234));
        assert_ne!(copy.state_hash(), a.state_hash(), "epochs move the fingerprint");
        copy.run_until(SimTime::from_millis(1_234));
        assert_eq!(copy.state_hash(), a.state_hash());
        assert_eq!(copy.fluid_totals(), a.fluid_totals());
    }

    #[test]
    fn with_packet_observer_is_typed_and_leaves_the_observer_installed() {
        struct Count(u64);
        impl PacketObserver for Count {
            fn on_tx(&mut self, _: SimTime, _: NodeId, _: &Packet) {
                self.0 += 1;
            }
            fn on_deliver(&mut self, _: SimTime, _: NodeId, _: &Packet) {}
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let (mut sim, a, _) = two_node_sim(LinkParams::wired(), LinkParams::wired());
        assert_eq!(sim.with_packet_observer(|c: &mut Count| c.0), None, "none attached");
        sim.set_packet_observer(Box::new(Count(0)));
        assert_eq!(sim.with_packet_observer(|p: &mut Ponger| p.received.len()), None, "wrong type");
        sim.inject(a, IfaceId(0), ping("10.0.0.1", "10.0.0.2", 0, 10));
        assert_eq!(sim.with_packet_observer(|c: &mut Count| c.0), Some(1), "still installed");
    }

    /// `obs` is a public field: whoever replaces it mid-run must find the
    /// link counters in the new registry and the old one left alone, and a
    /// snapshot adds into the cells its original adds into.
    #[test]
    fn link_counters_follow_the_obs_field_and_are_shared_with_snapshots() {
        let (mut sim, a, _) = two_node_sim(LinkParams::wired(), LinkParams::wired());
        let first = Obs::enabled();
        sim.obs = first.clone();
        sim.inject(a, IfaceId(0), ping("10.0.0.1", "10.0.0.2", 0, 10));
        sim.run_until(SimTime::from_millis(100));
        // Echo request out on ch0, reply back on ch1.
        let read = |obs: &Obs| ["ch0", "ch1"].map(|ch| obs.counter(ch, "link.delivered_pkts"));
        assert_eq!(read(&first), [1, 1]);
        let second = Obs::enabled();
        sim.obs = second.clone();
        sim.inject(a, IfaceId(0), ping("10.0.0.1", "10.0.0.2", 1, 10));
        sim.run_until(SimTime::from_millis(200));
        assert_eq!(read(&first), [1, 1], "nothing more reaches the replaced handle");
        assert_eq!(read(&second), [1, 1]);
        let mut copy = sim.snapshot().expect("no control events pending");
        copy.inject(a, IfaceId(0), ping("10.0.0.1", "10.0.0.2", 2, 10));
        copy.run_until(SimTime::from_millis(300));
        assert_eq!(read(&second), [2, 2], "one registry, shared cells");
        assert_eq!(second.counter("ch0", "link.offered"), 2);
    }

    #[test]
    fn tcp_packet_transits() {
        let (mut sim, a, b) = two_node_sim(LinkParams::wired(), LinkParams::wired());
        let seg = TcpSegment::new(1000, 2000, 5, 0, TcpFlags::SYN);
        sim.inject(
            a,
            IfaceId(0),
            Packet::tcp(
                "10.0.0.1".parse().unwrap(),
                "10.0.0.2".parse().unwrap(),
                seg,
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        let got = sim.with_node::<Ponger, _>(b, |p| p.received.clone());
        assert_eq!(got.len(), 1);
        assert!(got[0].as_tcp().unwrap().flags.syn());
    }

    /// A node without `clone_node` makes `snapshot` fail up front, and the
    /// error names the node.
    #[test]
    fn snapshot_refuses_a_node_without_clone_node() {
        struct Mute;
        impl Node for Mute {
            fn name(&self) -> &str {
                "mute"
            }
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: IfaceId, _: Packet) {}
        }
        let (mut sim, _, _) = two_node_sim(LinkParams::wired(), LinkParams::wired());
        assert!(sim.snapshot().is_ok());
        sim.add_node(Box::new(Mute));
        assert_eq!(
            sim.snapshot().err().as_deref(),
            Some("cannot snapshot: node 2 (mute) does not implement clone_node")
        );
    }
}

#[cfg(test)]
mod control_tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::node::{IfaceId, Node, NodeCtx};
    use crate::packet::{IcmpMessage, Packet};
    use comma_rt::Bytes;

    struct Counter {
        addr: Ipv4Addr,
        received: usize,
    }

    impl Node for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn addresses(&self) -> Vec<Ipv4Addr> {
            vec![self.addr]
        }
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _iface: IfaceId, _pkt: Packet) {
            self.received += 1;
        }
    }

    /// Time-varying QoS: a control event shrinks the bandwidth mid-run and
    /// later deliveries slow accordingly.
    #[test]
    fn bandwidth_change_mid_run_slows_delivery() {
        let mut sim = Simulator::new(3);
        let a = sim.add_node(Box::new(Counter { addr: "1.0.0.1".parse().unwrap(), received: 0 }));
        let b = sim.add_node(Box::new(Counter { addr: "1.0.0.2".parse().unwrap(), received: 0 }));
        let (down, _) = sim.connect(
            a,
            b,
            LinkParams::wired().with_bandwidth(800_000), // 100 KB/s.
            LinkParams::wired(),
        );
        let ping = |seq: u16| {
            Packet::icmp(
                "1.0.0.1".parse().unwrap(),
                "1.0.0.2".parse().unwrap(),
                IcmpMessage::EchoRequest { id: 1, seq, payload: Bytes::from(vec![0u8; 972]) },
            )
        };
        // Ten 1000-byte packets at t=0: 10 ms each, all delivered by ~101 ms.
        for s in 0..10 {
            sim.inject(a, IfaceId(0), ping(s));
        }
        sim.at(SimTime::from_millis(200), move |sim| {
            sim.set_link_bandwidth(down, 80_000); // 10 KB/s.
        });
        sim.at(SimTime::from_millis(210), move |sim| {
            for s in 10..20 {
                sim.inject(a, IfaceId(0), ping(s));
            }
        });
        sim.run_until(SimTime::from_millis(150));
        assert_eq!(sim.with_node::<Counter, _>(b, |n| n.received), 10, "fast phase done");
        // The slow phase needs 100 ms per packet: not finished by 500 ms...
        sim.run_until(SimTime::from_millis(500));
        let mid = sim.with_node::<Counter, _>(b, |n| n.received);
        assert!(mid < 20, "slow phase still in progress at 500 ms (got {mid})");
        // ...but complete by 1.3 s.
        sim.run_until(SimTime::from_millis(1300));
        assert_eq!(sim.with_node::<Counter, _>(b, |n| n.received), 20);
    }

    /// Node timers fire in order and `node_by_addr` resolves wrapped nodes.
    #[test]
    fn scheduled_timer_reaches_node() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn name(&self) -> &str {
                "timer"
            }
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: IfaceId, _: Packet) {}
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut sim = Simulator::new(4);
        let n = sim.add_node(Box::new(TimerNode { fired: Vec::new() }));
        sim.schedule_timer(SimTime::from_millis(30), n, 3);
        sim.schedule_timer(SimTime::from_millis(10), n, 1);
        sim.schedule_timer(SimTime::from_millis(20), n, 2);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.with_node::<TimerNode, _>(n, |t| t.fired.clone()), vec![1, 2, 3]);
    }
}
