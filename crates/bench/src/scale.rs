//! Scale workloads for the discrete-event core.
//!
//! Two macro workloads exercise the scheduler (`comma_netsim::sched`) at
//! depths the single-connection experiments never reach:
//!
//! - [`run_many_flows`] — N concurrent TCP transfers (N ∈ {16, 64, 256} in
//!   the macro bench) from the wired host through the filtered Service
//!   Proxy over a lossy wireless link to N sinks on the mobile host. This
//!   is the milliProxy/Hermes regime: hundreds of per-flow states behind
//!   one proxy, hundreds of outstanding RTO/delayed-ACK timers in the
//!   event queue at once.
//! - [`run_event_core`] — the event-dominated workload: many light nodes
//!   exchanging small packets on self-rescheduled timers. Node callbacks
//!   do near-zero work, so wall time is dominated by the event core itself
//!   (schedule, queue, pop, dispatch); its `events_per_sec` is the macro
//!   headline for scheduler throughput.

use std::time::Instant;

use comma::topology::{addrs, CommaBuilder};
use comma_faultcheck::FaultPlan;
use comma_netsim::fluid::{FluidConfig, FluidState};
use comma_netsim::link::{LinkParams, LossModel};
use comma_netsim::node::{IfaceId, Node, NodeCtx, NodeId};
use comma_netsim::packet::{IcmpMessage, IpPayload, Packet, TcpFlags, TcpSegment};
use comma_netsim::sim::Simulator;
use comma_netsim::time::{SimDuration, SimTime};
use comma_proxy::engine::FilterEngine;
use comma_proxy::filter::NullMetrics;
use comma_proxy::{ServiceProxy, WildKey};
use comma_rt::{Bytes, Rng, SeedableRng, SmallRng};
use comma_tcp::apps::{BulkSender, Sink};

/// Result of one many-flows run.
#[derive(Clone, Debug, Default)]
pub struct ScaleResult {
    /// Number of concurrent TCP transfers.
    pub flows: usize,
    /// Bytes each flow transfers.
    pub bytes_per_flow: u64,
    /// Total bytes delivered across all sinks (must equal
    /// `flows * bytes_per_flow`).
    pub delivered: u64,
    /// Discrete events processed by the simulator.
    pub sim_events: u64,
    /// Packets offered to links.
    pub link_pkts: u64,
    /// `sim_events / link_pkts`: exact per seed, so CI can gate on it.
    pub events_per_link_pkt: f64,
    /// Wall-clock milliseconds for the run.
    pub wall_ms: f64,
    /// `sim_events / wall seconds`. A scheduler figure, not a speed
    /// headline: removing cheap events lowers it while `wall_ms` falls.
    pub events_per_sec: f64,
    /// Simulated completion time of the whole batch.
    pub sim_time: SimTime,
    /// The most requested bytes the run held at once, world construction
    /// included ([`comma_rt::alloc::AllocScope::peak_live_bytes`]): a memory
    /// high-water that repeats exactly on any host. `None` unless built
    /// with `comma-rt/alloc-stats`.
    pub peak_live_bytes: Option<u64>,
    /// Filter instances the proxy created over the run and the settling
    /// time after it: four per flow, plus a chain for each packet that
    /// arrived after its stream had closed (the wired host's ACK of a FIN
    /// the mobile retransmitted).
    pub instances_created: u64,
    /// Filter instances still live once every stream has had
    /// [`SETTLE`] to close after the last byte arrived.
    pub live_instances: usize,
}

/// Simulated time a many-flows world keeps running after its last byte is
/// delivered, untimed, so that every FIN exchange (retransmissions
/// included) ends before the proxy's instances are counted.
pub const SETTLE: SimDuration = SimDuration::from_secs(120);

impl ScaleResult {
    /// [`ScaleResult::peak_live_bytes`] over the flows, rounded down.
    pub fn peak_live_bytes_per_flow(&self) -> Option<u64> {
        self.peak_live_bytes.map(|b| b / self.flows.max(1) as u64)
    }
}

/// Builds the many-flows world: N bulk senders on the wired host, N sinks
/// on the mobile host (ports `9000..9000+N`), the standard 4-filter chain
/// installed wildcard on the Service Proxy, and a lossy wireless link.
fn build_many_flows(
    flows: usize,
    bytes_per_flow: usize,
    seed: u64,
    observability: bool,
) -> comma::topology::CommaWorld {
    let loss = LossModel::Gilbert {
        p_good_to_bad: 0.02,
        p_bad_to_good: 0.5,
        loss_good: 0.005,
        loss_bad: 0.15,
    };
    let mut senders: Vec<Box<dyn comma_tcp::apps::App>> = Vec::with_capacity(flows);
    let mut sinks: Vec<Box<dyn comma_tcp::apps::App>> = Vec::with_capacity(flows);
    for i in 0..flows {
        let port = 9000 + i as u16;
        senders.push(Box::new(BulkSender::new((addrs::MOBILE, port), bytes_per_flow)));
        sinks.push(Box::new(Sink::new(port)));
    }
    let mut world = CommaBuilder::new(seed)
        .eem(false)
        .observability(observability)
        .wireless(
            LinkParams::wireless()
                .with_bandwidth(8_000_000)
                .with_queue_limit(128 * 1024)
                .with_loss(loss.clone()),
            LinkParams::wireless()
                .with_bandwidth(8_000_000)
                .with_queue_limit(128 * 1024)
                .with_loss(loss),
        )
        .build(senders, sinks);
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 0");
    world.sp("add snoop 0.0.0.0 0 11.11.10.10 0");
    world.sp("add wsize 0.0.0.0 0 11.11.10.10 0 scale 90");
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 0");
    world
}

/// Runs `flows` concurrent TCP transfers of `bytes_per_flow` each through
/// the filtered proxy over a lossy wireless link; panics unless every flow
/// completes.
pub fn run_many_flows(flows: usize, bytes_per_flow: usize, seed: u64) -> ScaleResult {
    drive_many_flows(flows, bytes_per_flow, "many-flows", || {
        build_many_flows(flows, bytes_per_flow, seed, false)
    })
}

/// Steps `world` in one-second increments until the sinks hold `target`
/// bytes (or an hour of simulated time passes), so the clock stops with
/// the work, not at a fixed far horizon. Returns the bytes delivered.
fn run_to_completion(world: &mut comma::topology::CommaWorld, target: u64) -> u64 {
    let mut delivered = 0u64;
    for sec in 1..=3_600u64 {
        world.run_until(SimTime::from_secs(sec));
        delivered = world
            .mobile_app_ids
            .clone()
            .into_iter()
            .map(|id| world.mobile_app::<Sink, _>(id, |s| s.bytes_received) as u64)
            .sum();
        if delivered >= target {
            break;
        }
    }
    delivered
}

/// Builds a world with `build` and times [`run_to_completion`] on it;
/// `sim_time` is the batch's completion time (to the second).
fn drive_many_flows(
    flows: usize,
    bytes_per_flow: usize,
    what: &str,
    build: impl FnOnce() -> comma::topology::CommaWorld,
) -> ScaleResult {
    let scope = comma_rt::alloc::AllocScope::begin();
    let mut world = build();
    let target = flows as u64 * bytes_per_flow as u64;
    let t = Instant::now();
    let delivered = run_to_completion(&mut world, target);
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(
        delivered, target,
        "{what}: not every transfer completed within the horizon"
    );
    let sim_events = world.sim.events_processed();
    let link_pkts = world.sim.link_pkts();
    let peak_live_bytes = comma_rt::alloc::enabled().then(|| scope.peak_live_bytes());
    let sim_time = world.sim.now();
    world.run_until(sim_time + SETTLE);
    let (instances_created, live_instances) =
        world.sim.with_node::<ServiceProxy, _>(world.proxy, |sp| {
            (sp.engine.totals.instances_created, sp.engine.live_instances())
        });
    ScaleResult {
        flows,
        bytes_per_flow: bytes_per_flow as u64,
        delivered,
        sim_events,
        link_pkts,
        events_per_link_pkt: sim_events as f64 / link_pkts.max(1) as f64,
        wall_ms: wall * 1e3,
        events_per_sec: sim_events as f64 / wall,
        sim_time,
        peak_live_bytes,
        instances_created,
        live_instances,
    }
}

/// Requested bytes the many-flows world still holds per flow once every
/// transfer has finished and every TIME-WAIT has run out: `alloc_bytes −
/// dealloc_bytes` over the run (world construction excluded), divided by
/// `flows`. A count of requests, so it repeats exactly; zero unless built
/// with `comma-rt/alloc-stats`.
pub fn finished_flow_retained_bytes(flows: usize, bytes_per_flow: usize, seed: u64) -> u64 {
    let mut world = build_many_flows(flows, bytes_per_flow, seed, false);
    let target = (flows * bytes_per_flow) as u64;
    let scope = comma_rt::alloc::AllocScope::begin();
    assert_eq!(run_to_completion(&mut world, target), target, "transfers incomplete");
    let quiet = world.sim.now() + SimDuration::from_secs(300);
    world.run_until(quiet);
    let held = scope.delta();
    (held.alloc_bytes - held.dealloc_bytes) / flows as u64
}

/// Runs `world` to completion under full packet-trace capture and returns
/// the FNV-1a digest of the rendered trace.
fn captured_trace_digest(world: &mut comma::topology::CommaWorld, target: u64, what: &str) -> u64 {
    world.sim.trace.set_capture(true);
    world.sim.trace.set_max_entries(1 << 21);
    let delivered = run_to_completion(world, target);
    assert_eq!(delivered, target, "{what}: transfers incomplete");
    world.sim.trace.digest()
}

/// The standard churn plan for the scale workloads: light reorder /
/// duplication / checksum-caught corruption on every wireless packet
/// stream, plus two link flaps and a mid-run bandwidth dip. Everything
/// derives from `seed`, so a (world seed, plan seed) pair replays
/// byte-identically.
pub fn churn_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .reorder(0.01, SimDuration::from_millis(10))
        .duplicate(0.005)
        .corrupt(0.005)
        .flap(SimTime::from_secs(2), SimDuration::from_millis(500))
        .flap(SimTime::from_secs(9), SimDuration::from_millis(300))
        .bandwidth_step(SimTime::from_secs(5), 2_000_000)
        .bandwidth_step(SimTime::from_secs(7), 8_000_000)
}

/// [`run_many_flows`] under the standard [`churn_plan`]: N concurrent
/// transfers while the wireless link reorders, duplicates, corrupts,
/// flaps, and steps bandwidth. Every flow must still complete — the
/// fault plan perturbs timing, never correctness.
pub fn run_many_flows_churn(flows: usize, bytes_per_flow: usize, seed: u64) -> ScaleResult {
    drive_many_flows(flows, bytes_per_flow, "many-flows/churn", || {
        let mut world = build_many_flows(flows, bytes_per_flow, seed, false);
        world.apply_fault_plan(&churn_plan(seed ^ 0xc4e7));
        world
    })
}

/// Runs the many-flows workload under [`churn_plan`] with full
/// packet-trace capture and the conformance oracle attached; panics on
/// any oracle violation and returns the FNV-1a trace digest (used by the
/// determinism suite: faulted runs must replay byte-identically).
pub fn many_flows_churn_trace_digest(flows: usize, bytes_per_flow: usize, seed: u64) -> u64 {
    let mut world = build_many_flows(flows, bytes_per_flow, seed, false);
    world.apply_fault_plan(&churn_plan(seed ^ 0xc4e7));
    world.attach_oracle();
    let target = flows as u64 * bytes_per_flow as u64;
    let digest = captured_trace_digest(&mut world, target, "many-flows/churn");
    world.assert_oracle_clean();
    digest
}

/// Runs the many-flows workload with observability enabled and returns the
/// deterministic JSONL export (used by the determinism suite: same seed
/// must produce a byte-identical export).
pub fn many_flows_obs_export(flows: usize, bytes_per_flow: usize, seed: u64) -> String {
    let mut world = build_many_flows(flows, bytes_per_flow, seed, true);
    run_to_completion(&mut world, flows as u64 * bytes_per_flow as u64);
    world.obs.export_jsonl()
}

/// Runs the many-flows workload with full packet-trace capture and
/// returns the FNV-1a digest of the rendered trace (used by the
/// determinism suite: same seed must produce byte-identical traces).
pub fn many_flows_trace_digest(flows: usize, bytes_per_flow: usize, seed: u64) -> u64 {
    let mut world = build_many_flows(flows, bytes_per_flow, seed, false);
    let target = flows as u64 * bytes_per_flow as u64;
    captured_trace_digest(&mut world, target, "many-flows")
}

/// A light node for the event-core workload: every timer fire sends one
/// small echo-request to its peer and re-arms the timer at a per-node
/// deterministic pseudo-random interval. Packet handlers only count, so
/// per-event node work is negligible next to the event machinery.
struct TickNode {
    name: String,
    addr: comma_netsim::addr::Ipv4Addr,
    /// Prototype payload, cloned per send: a `Bytes` clone is a refcount
    /// bump, so the steady-state timer path stays allocation-free.
    payload: Bytes,
    /// Fixed re-arm period in µs; `None` draws 200..1000 µs per tick.
    /// The allocation probes pin it so every sync window carries an
    /// identical event batch: the worst case is then exercised during
    /// warmup instead of being discovered (and allocated for) later.
    period_us: Option<u64>,
    received: u64,
    sent: u64,
}

impl Node for TickNode {
    fn name(&self) -> &str {
        &self.name
    }
    fn addresses(&self) -> Vec<comma_netsim::addr::Ipv4Addr> {
        vec![self.addr]
    }
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let jitter = ctx.rng.gen_range(0..1_000u64);
        ctx.set_timer_after(SimDuration::from_micros(jitter), 0);
    }
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _iface: IfaceId, pkt: Packet) {
        if let IpPayload::Icmp(IcmpMessage::EchoRequest { .. }) = pkt.body {
            self.received += 1;
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
        let pkt = Packet::icmp(
            self.addr,
            self.addr, // Delivery is by channel, not by address.
            IcmpMessage::EchoRequest {
                id: 0,
                seq: (self.sent & 0xffff) as u16,
                payload: self.payload.clone(),
            },
        );
        ctx.send(IfaceId(0), pkt);
        self.sent += 1;
        let delay = self
            .period_us
            .unwrap_or_else(|| 200 + ctx.rng.gen_range(0..800u64));
        ctx.set_timer_after(SimDuration::from_micros(delay), 0);
    }
}

impl TickNode {
    fn new(name: String, addr: comma_netsim::addr::Ipv4Addr) -> Self {
        TickNode {
            name,
            addr,
            payload: Bytes::from_static(&[0u8; 64]),
            period_us: None,
            received: 0,
            sent: 0,
        }
    }

    fn with_period(mut self, period_us: u64) -> Self {
        self.period_us = Some(period_us);
        self
    }
}

/// Result of one event-core run.
#[derive(Clone, Debug)]
pub struct EventCoreResult {
    /// Nodes in the world (paired by wired links).
    pub nodes: usize,
    /// Discrete events processed.
    pub sim_events: u64,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// `sim_events / wall seconds` — the scheduler-throughput headline.
    pub events_per_sec: f64,
    /// Echo requests delivered across all nodes (sanity).
    pub delivered: u64,
}

/// The event-dominated macro workload: `nodes` light nodes (paired by
/// wired links) exchange 64-byte packets on self-rescheduled timers for
/// `horizon_ms` of simulated time. Every event is cheap, so the measured
/// `events_per_sec` is the throughput of the event core itself.
pub fn run_event_core(nodes: usize, horizon_ms: u64, seed: u64) -> EventCoreResult {
    let (mut sim, ids) = build_event_core(nodes, seed);
    let t = Instant::now();
    sim.run_until(SimTime::from_millis(horizon_ms));
    let wall = t.elapsed().as_secs_f64();
    let sim_events = sim.events_processed();
    let mut delivered = 0u64;
    for id in ids {
        delivered += sim.with_node::<TickNode, _>(id, |n| n.received);
    }
    assert!(delivered > 0, "event-core: no packets delivered");
    EventCoreResult {
        nodes,
        sim_events,
        wall_ms: wall * 1e3,
        events_per_sec: sim_events as f64 / wall,
        delivered,
    }
}

/// Builds the event-core world: `nodes` `TickNode`s paired by fast wired
/// links, with per-channel rate series off (nothing reads them here, and
/// the allocation harness asserts this loop heap-silent). Public so probes
/// and benches can drive the world in custom segments.
pub fn build_event_core(nodes: usize, seed: u64) -> (Simulator, Vec<NodeId>) {
    assert!(
        nodes >= 2 && nodes.is_multiple_of(2),
        "event-core needs node pairs"
    );
    let mut sim = Simulator::new(seed);
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| {
            sim.add_node(Box::new(TickNode::new(
                format!("tick{i}"),
                comma_netsim::addr::Ipv4Addr::new(
                    10,
                    (i >> 8) as u8,
                    (i >> 4 & 0xf) as u8,
                    (i & 0xf) as u8,
                ),
            )))
        })
        .collect();
    let fast = LinkParams::wired()
        .with_bandwidth(100_000_000)
        .with_latency(SimDuration::from_micros(50));
    for pair in ids.chunks(2) {
        sim.connect(pair[0], pair[1], fast.clone(), fast.clone());
    }
    sim.set_record_series(false);
    (sim, ids)
}

/// Two-segment allocation probe for the serial event core: two simulated
/// seconds to warm every recycled buffer (the timer wheel's slab has to
/// reach the peak number of simultaneously pending entries, the ready
/// batch its largest microsecond), then a segment whose heap-allocation
/// count is the steady-state figure. Returns `(warmup_allocs, steady_allocs,
/// steady_events)` for the calling thread — the allocation counts are zero
/// unless built with `comma-rt/alloc-stats`, and `steady_allocs` must be
/// zero even with it (pinned by the allocation-regression tests).
pub fn event_core_alloc_probe(nodes: usize, seed: u64) -> (u64, u64, u64) {
    let (mut sim, _ids) = build_event_core(nodes, seed);
    let warm = comma_rt::alloc::AllocScope::begin();
    sim.run_until(SimTime::from_secs(2));
    let warm = warm.delta().allocs;
    let events = sim.events_processed();
    let steady = comma_rt::alloc::AllocScope::begin();
    sim.run_until(SimTime::from_secs(4));
    (warm, steady.delta().allocs, sim.events_processed() - events)
}

/// An engine with the reference chain (`tcp → snoop → wsize scale 90 →
/// tcp`) registered for every stream.
pub fn four_filter_engine() -> FilterEngine {
    let mut engine = FilterEngine::new(comma_filters::standard_catalog(comma_filters::ALL_FILTERS));
    let scale = vec!["scale".to_string(), "90".to_string()];
    let chain = [("tcp", vec![]), ("snoop", vec![]), ("wsize", scale), ("tcp", vec![])];
    for (filter, args) in chain {
        engine
            .register(WildKey::ANY, filter, args)
            .expect("standard filter is loaded");
    }
    engine
}

/// Two-segment allocation probe for the proxy's packet path: 200 in-order
/// data segments of one flow warm [`four_filter_engine`] (snoop's cache
/// reaches its byte limit) and the caller-owned buffers, then 1,000 more
/// go through [`FilterEngine::process_batch`] one at a time — the entry
/// and buffer discipline `ServiceProxy::on_packet` uses — and must not
/// touch the heap. Returns `(warmup_allocs, steady_allocs)`.
pub fn engine_alloc_probe() -> (u64, u64) {
    engine_alloc_probe_on(&mut four_filter_engine())
}

/// [`engine_alloc_probe`] on a caller-prepared [`four_filter_engine`] (the
/// lit pin shares an enabled `Obs` with it first and reads both books
/// afterwards).
pub fn engine_alloc_probe_on(engine: &mut FilterEngine) -> (u64, u64) {
    let mut rng = SmallRng::seed_from_u64(1);
    let payload = Bytes::from(vec![0xabu8; 1400]);
    let (mut input, mut out, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
    let mut seq = 0u32;
    let mut feed = |n: u32| {
        for _ in 0..n {
            let mut seg = TcpSegment::new(7, 1169, seq, 0, TcpFlags::ACK);
            seg.payload = payload.clone();
            seq = seq.wrapping_add(1400);
            input.push(Packet::tcp(addrs::WIRED, addrs::MOBILE, seg));
            engine.process_batch(
                SimTime::ZERO,
                &mut rng,
                &NullMetrics,
                &mut input,
                &mut out,
                &mut dropped,
            );
            out.clear();
            dropped.clear();
        }
    };
    let warm = comma_rt::alloc::AllocScope::begin();
    feed(200);
    let warm = warm.delta().allocs;
    let steady = comma_rt::alloc::AllocScope::begin();
    feed(1_000);
    (warm, steady.delta().allocs)
}

/// Worker-thread count for the sharded benchmarks: the machine's available
/// parallelism, capped at the flows_10k reference configuration of 4. The
/// bench report must never claim more workers than the host has cores —
/// time-slicing 4 threads on 1 core is not parallelism (and measured
/// "speedups" from it are noise).
pub fn shard_worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Two-segment allocation probe for the sharded window loop: `shards`
/// `TickNode`s in a boundary ring (shard `i` egresses to `i+1`), driven
/// by the lane-based runner. Allocation counts come from
/// [`comma_netsim::shard::ShardStats::allocs`], i.e. they are measured on
/// the worker threads inside the window loop itself. Returns
/// `(warmup_allocs, steady_allocs, steady_windows)`; steady state must
/// allocate zero times under `comma-rt/alloc-stats`.
pub fn sharded_alloc_probe(shards: usize, workers: usize, seed: u64) -> (u64, u64, u64) {
    use comma_netsim::shard::{ShardPlan, ShardWiring, ShardedSimulator};
    assert!(shards >= 2, "a boundary ring needs at least two shards");
    let latency = SimDuration::from_millis(10);
    let mut plan = ShardPlan::new(seed, latency);
    for i in 0..shards {
        let prev = ((i + shards - 1) % shards) as u32;
        plan.add_shard(|sim| {
            let node = sim.add_node_keyed(
                Box::new(
                    TickNode::new(
                        format!("ring{i}"),
                        comma_netsim::addr::Ipv4Addr::new(10, 9, i as u8, 1),
                    )
                    .with_period(500),
                ),
                100 + i as u64,
            );
            let wired = LinkParams::wired().with_latency(latency);
            // Egress toward shard i+1 under boundary id i; the returned
            // ingress channel receives boundary (i-1)'s traffic.
            let (_, ingress) =
                sim.connect_boundary(node, i as u32, wired.clone(), wired, 500 + i as u64, 0);
            sim.set_record_series(false);
            (ShardWiring::new().ingress(prev, ingress), ())
        });
    }
    for i in 0..shards {
        plan.declare_boundary(i, (i + 1) % shards);
    }
    let mut s = ShardedSimulator::new(plan, workers);
    s.run_until(SimTime::from_secs(2));
    let warm_stats = s.stats();
    s.run_until(SimTime::from_secs(4));
    let stats = s.stats();
    (
        warm_stats.allocs,
        stats.allocs - warm_stats.allocs,
        stats.windows - warm_stats.windows,
    )
}

/// Link the fluid probes solve against: the metro cell's 8 Mbit/s,
/// 128 KiB wireless hop. 100 and 1,000 default users leave it underloaded
/// (the O(1) decision), 10,000 overload it (the water-filling walk).
const FLUID_PROBE_LINK: (u64, usize) = (8_000_000, 128 * 1024);

/// One epoch of a fluid probe: re-solves at `*t` and advances it to the
/// next pending epoch.
pub fn step_fluid(state: &mut FluidState, t: &mut SimTime) {
    let (capacity, limit) = FLUID_PROBE_LINK;
    *t = state
        .epoch(*t, capacity, limit)
        .expect("a non-empty population always has a pending toggle");
}

/// A default-config population of `users` stepped through 20 simulated
/// seconds — past the arrival ramp and several on/off cycles, so the
/// active set sits at its steady third of the population — and the time
/// of its next epoch: what the fluid benches and the allocation probe
/// step.
pub fn warmed_fluid(users: usize, seed: u64) -> (FluidState, SimTime) {
    let mut state = FluidState::new(FluidConfig::users(users), seed);
    let mut t = SimTime::ZERO;
    while t < SimTime::from_secs(20) {
        step_fluid(&mut state, &mut t);
    }
    (state, t)
}

/// Two-segment allocation probe for `FluidState::epoch`: construction and
/// warm-up grow the active set to its high-water capacity, then 2,000
/// further epochs must not touch the heap. Returns
/// `(warmup_allocs, steady_allocs)` like [`event_core_alloc_probe`].
pub fn fluid_alloc_probe(users: usize, seed: u64) -> (u64, u64) {
    let warm = comma_rt::alloc::AllocScope::begin();
    let (mut state, mut t) = warmed_fluid(users, seed);
    let warm = warm.delta().allocs;
    let steady = comma_rt::alloc::AllocScope::begin();
    for _ in 0..2_000 {
        step_fluid(&mut state, &mut t);
    }
    (warm, steady.delta().allocs)
}

/// Result of one sharded multi-cell run.
#[derive(Clone, Debug, Default)]
pub struct ShardScaleResult {
    /// Wireless cells (one shard each, plus the backbone shard).
    pub cells: usize,
    /// Concurrent TCP transfers per cell.
    pub flows_per_cell: usize,
    /// Bytes each flow transfers.
    pub bytes_per_flow: u64,
    /// Total bytes delivered (must equal `cells × flows × bytes`).
    pub delivered: u64,
    /// Discrete events processed across all shards.
    pub sim_events: u64,
    /// Packets offered to links across all shards.
    pub link_pkts: u64,
    /// `sim_events / link_pkts`: exact per seed; `Snapshot::gates` checks it.
    pub events_per_link_pkt: f64,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// `sim_events / wall seconds` across all shards (a scheduler figure;
    /// see [`ScaleResult::events_per_sec`]).
    pub events_per_sec: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Synchronization windows executed.
    pub windows: u64,
    /// Whole lookahead windows the global clock skipped (adaptive window
    /// advancement).
    pub windows_skipped: u64,
    /// Packets ferried across shard boundaries.
    pub xfer_pkts: u64,
    /// Retained transfer-lane capacity in bytes at the end of the run.
    pub lane_bytes: u64,
}

/// Builds the sharded multi-cell world: `cells` wireless cells, each with
/// `flows_per_cell` bulk transfers (ports `9000..`) from its wired host
/// through its filtered Service Proxy over a lossy wireless link — the
/// `build_many_flows` recipe instantiated per cell, compiled onto the
/// sharded runner (or into one shard with `single_shard`). The 10 ms
/// wired backbone is the inter-shard boundary and sets the conservative
/// lookahead; it is split across `backbone_shards` shards (1 = the old
/// single-backbone layout — results are identical either way).
pub fn build_cells(
    cells: usize,
    flows_per_cell: usize,
    bytes_per_flow: u64,
    seed: u64,
    workers: usize,
    backbone_shards: usize,
    single_shard: bool,
) -> comma::topo::ShardedWorld {
    let loss = LossModel::Gilbert {
        p_good_to_bad: 0.02,
        p_bad_to_good: 0.5,
        loss_good: 0.005,
        loss_bad: 0.15,
    };
    let wireless = || {
        LinkParams::wireless()
            .with_bandwidth(8_000_000)
            .with_queue_limit(128 * 1024)
            .with_loss(loss.clone())
    };
    let mut builder = comma::topo::TopologyBuilder::new(seed)
        .backbone(LinkParams::wired().with_latency(SimDuration::from_millis(10)))
        .workers(workers)
        .backbone_shards(backbone_shards)
        .record_series(false);
    if single_shard {
        builder = builder.single_shard();
    }
    for c in 0..cells {
        let mut spec = comma::topo::CellSpec::new(format!("cell{c}"))
            .wireless(wireless(), wireless())
            .filter("add tcp 0.0.0.0 0 {mobile} 0")
            .filter("add snoop 0.0.0.0 0 {mobile} 0")
            .filter("add wsize 0.0.0.0 0 {mobile} 0 scale 90")
            .filter("add tcp 0.0.0.0 0 {mobile} 0");
        for f in 0..flows_per_cell {
            spec = spec.transfer(9000 + f as u16, bytes_per_flow);
        }
        builder = builder.cell(spec);
    }
    builder.build().expect("sharded scale topology is valid")
}

/// Drives a sharded world in one-second increments until `target` bytes
/// are delivered (or the horizon runs out), returning `(delivered, wall
/// seconds)`.
fn drive_to_target(world: &mut comma::topo::ShardedWorld, target: u64) -> (u64, f64) {
    let t = Instant::now();
    let mut delivered = 0u64;
    for sec in 1..=3_600u64 {
        world.run_until(SimTime::from_secs(sec));
        delivered = world.total_delivered();
        if delivered >= target {
            break;
        }
    }
    (delivered, t.elapsed().as_secs_f64())
}

fn shard_scale_result(
    cells: usize,
    flows_per_cell: usize,
    bytes_per_flow: u64,
    workers: usize,
    delivered: u64,
    wall: f64,
    world: &mut comma::topo::ShardedWorld,
) -> ShardScaleResult {
    let stats = world.stats();
    let link_pkts = world.link_pkts();
    ShardScaleResult {
        cells,
        flows_per_cell,
        bytes_per_flow,
        delivered,
        sim_events: stats.events,
        link_pkts,
        events_per_link_pkt: stats.events as f64 / link_pkts.max(1) as f64,
        wall_ms: wall * 1e3,
        events_per_sec: stats.events as f64 / wall,
        workers,
        windows: stats.windows,
        windows_skipped: stats.windows_skipped,
        xfer_pkts: stats.xfer_pkts,
        lane_bytes: stats.lane_bytes,
    }
}

/// Runs `cells × flows_per_cell` concurrent transfers on the sharded
/// runner with `workers` threads; panics unless every flow completes.
pub fn run_sharded_flows(
    cells: usize,
    flows_per_cell: usize,
    bytes_per_flow: u64,
    seed: u64,
    workers: usize,
    backbone_shards: usize,
) -> ShardScaleResult {
    let mut world = build_cells(
        cells,
        flows_per_cell,
        bytes_per_flow,
        seed,
        workers,
        backbone_shards,
        false,
    );
    let target = cells as u64 * flows_per_cell as u64 * bytes_per_flow;
    let (delivered, wall) = drive_to_target(&mut world, target);
    assert_eq!(
        delivered, target,
        "sharded flows: not every transfer completed within the horizon"
    );
    shard_scale_result(cells, flows_per_cell, bytes_per_flow, workers, delivered, wall, &mut world)
}

/// [`run_sharded_flows`]' delivered-bytes digest: FNV-1a over every
/// sink's final byte count. Identical for every worker count.
pub fn sharded_delivered_digest(
    cells: usize,
    flows_per_cell: usize,
    bytes_per_flow: u64,
    seed: u64,
    workers: usize,
) -> u64 {
    let mut world = build_cells(cells, flows_per_cell, bytes_per_flow, seed, workers, 1, false);
    let target = cells as u64 * flows_per_cell as u64 * bytes_per_flow;
    let (delivered, _) = drive_to_target(&mut world, target);
    assert_eq!(delivered, target, "sharded flows: transfers incomplete");
    world.delivered_digest()
}

/// Full merged-trace digest of the sharded multi-cell workload —
/// byte-identical across worker counts, across backbone splits, *and*
/// across the partitioned vs
/// [`comma::topo::TopologyBuilder::single_shard`] builds.
pub fn sharded_trace_digest(
    cells: usize,
    flows_per_cell: usize,
    bytes_per_flow: u64,
    seed: u64,
    workers: usize,
    backbone_shards: usize,
    single_shard: bool,
) -> u64 {
    let mut world = build_cells(
        cells,
        flows_per_cell,
        bytes_per_flow,
        seed,
        workers,
        backbone_shards,
        single_shard,
    );
    world.set_trace_capture(true, 1 << 21);
    let target = cells as u64 * flows_per_cell as u64 * bytes_per_flow;
    let (delivered, _) = drive_to_target(&mut world, target);
    assert_eq!(delivered, target, "sharded flows: transfers incomplete");
    world.trace_digest()
}

/// Result of one metro-scale hybrid fluid/packet run.
#[derive(Clone, Debug, Default)]
pub struct MetroResult {
    /// Wireless cells.
    pub cells: usize,
    /// Total fluid background users across all cells.
    pub bg_users: u64,
    /// Background flows in their on period at the end of the run.
    pub bg_active: u64,
    /// Packet-level foreground TCP transfers (total).
    pub fg_flows: usize,
    /// Bytes each foreground flow transfers.
    pub bytes_per_flow: u64,
    /// Foreground bytes delivered within the fixed horizon. Completion of
    /// every transfer is asserted after a grace window; a loss-delayed
    /// straggler may leave this slightly below `fg_flows × bytes`.
    pub delivered: u64,
    /// Discrete events processed across all shards — grows with fluid
    /// *epochs*, not with background packet volume.
    pub sim_events: u64,
    /// Fluid rate-solver epochs executed across all links.
    pub fluid_epochs: u64,
    /// Links carrying a fluid population.
    pub fluid_links: u64,
    /// Flow slots the solver examined or its active-set merges wrote per
    /// epoch ([`comma_netsim::fluid::FluidTotals::flow_visits`] / epochs):
    /// deterministic, and a few percent of users-per-link while epochs
    /// cost O(due toggles) rather than O(population).
    pub fluid_visits_per_epoch: f64,
    /// Foreground packets offered to links within the horizon.
    pub link_pkts: u64,
    /// `sim_events / link_pkts` (exact per seed). Fluid epochs are events
    /// too, so this reads far above the packet path's own ratio.
    pub events_per_link_pkt: f64,
    /// Wall-clock milliseconds for the fixed-horizon run.
    pub wall_ms: f64,
    /// `sim_events / wall seconds` (a scheduler figure; see
    /// [`ScaleResult::events_per_sec`]).
    pub events_per_sec: f64,
    /// Aggregate foreground goodput over the simulated horizon.
    pub fg_goodput_bps: f64,
    /// Fixed simulated horizon of the run.
    pub horizon: SimTime,
    /// Worker threads used.
    pub workers: usize,
}

/// Builds the metro-scale hybrid world: the [`build_cells`] recipe (bulk
/// transfers through a filtered Service Proxy over a lossy 8 Mbit/s
/// wireless link) plus `bg_users_per_cell` *fluid* background users on
/// every cell's downlink. Background load is aggregate — O(rate-change
/// epochs), not O(packets) — so metro populations fit in the event
/// budget while the foreground stays packet-exact and oracle-clean.
pub fn build_metro(
    cells: usize,
    bg_users_per_cell: usize,
    fg_flows_per_cell: usize,
    bytes_per_flow: u64,
    seed: u64,
    workers: usize,
    single_shard: bool,
) -> comma::topo::ShardedWorld {
    let loss = LossModel::Gilbert {
        p_good_to_bad: 0.02,
        p_bad_to_good: 0.5,
        loss_good: 0.005,
        loss_bad: 0.15,
    };
    let wireless = || {
        LinkParams::wireless()
            .with_bandwidth(8_000_000)
            .with_queue_limit(128 * 1024)
            .with_loss(loss.clone())
    };
    let mut builder = comma::topo::TopologyBuilder::new(seed)
        .backbone(LinkParams::wired().with_latency(SimDuration::from_millis(10)))
        .workers(workers)
        .record_series(false);
    if single_shard {
        builder = builder.single_shard();
    }
    for c in 0..cells {
        let mut spec = comma::topo::CellSpec::new(format!("metro{c}"))
            .wireless(wireless(), wireless())
            .background_users(bg_users_per_cell)
            .filter("add tcp 0.0.0.0 0 {mobile} 0")
            .filter("add snoop 0.0.0.0 0 {mobile} 0")
            .filter("add wsize 0.0.0.0 0 {mobile} 0 scale 90")
            .filter("add tcp 0.0.0.0 0 {mobile} 0");
        for f in 0..fg_flows_per_cell {
            spec = spec.transfer(9000 + f as u16, bytes_per_flow);
        }
        builder = builder.cell(spec);
    }
    builder.build().expect("metro topology is valid")
}

/// Runs the metro workload for a *fixed* horizon (the background
/// population toggles forever, so "until idle" never comes) and
/// snapshots every headline number there — the fixed horizon is what
/// makes `sim_events` comparable across background populations; the
/// O(epochs) claim is `sim_events(2 × users) ≈ sim_events(users)`. The
/// world then runs a grace window in which every foreground transfer
/// must finish: under bursty loss a flow can sit several RTO backoffs
/// behind the pack, and stretching the measured horizon to cover the
/// worst straggler would dilute the numbers for everyone else.
pub fn run_metro(
    cells: usize,
    bg_users_per_cell: usize,
    fg_flows_per_cell: usize,
    bytes_per_flow: u64,
    horizon_secs: u64,
    seed: u64,
    workers: usize,
) -> MetroResult {
    let mut world = build_metro(
        cells,
        bg_users_per_cell,
        fg_flows_per_cell,
        bytes_per_flow,
        seed,
        workers,
        false,
    );
    let fg_flows = cells * fg_flows_per_cell;
    let target = fg_flows as u64 * bytes_per_flow;
    let t = Instant::now();
    world.run_until(SimTime::from_secs(horizon_secs));
    let wall = t.elapsed().as_secs_f64();
    let delivered = world.total_delivered();
    let stats = world.stats();
    let fluid = world.fluid_totals();
    let link_pkts = world.link_pkts();
    assert_eq!(fluid.users, (cells * bg_users_per_cell) as u64);
    world.run_until(SimTime::from_secs(horizon_secs + 30));
    assert_eq!(
        world.total_delivered(),
        target,
        "metro: a foreground transfer failed to complete even with grace"
    );
    MetroResult {
        cells,
        bg_users: fluid.users,
        bg_active: fluid.active,
        fg_flows,
        bytes_per_flow,
        delivered,
        sim_events: stats.events,
        fluid_epochs: fluid.epochs,
        fluid_links: fluid.links,
        fluid_visits_per_epoch: fluid.flow_visits as f64 / fluid.epochs.max(1) as f64,
        link_pkts,
        events_per_link_pkt: stats.events as f64 / link_pkts.max(1) as f64,
        wall_ms: wall * 1e3,
        events_per_sec: stats.events as f64 / wall,
        fg_goodput_bps: delivered as f64 * 8.0 / horizon_secs as f64,
        horizon: SimTime::from_secs(horizon_secs),
        workers,
    }
}

/// Merged-trace digest of the metro workload with the conformance oracle
/// attached — the fluid background must leave the foreground exact:
/// byte-identical across worker counts and across the partitioned vs
/// single-shard builds, with zero oracle violations.
#[allow(clippy::too_many_arguments)]
pub fn metro_trace_digest(
    cells: usize,
    bg_users_per_cell: usize,
    fg_flows_per_cell: usize,
    bytes_per_flow: u64,
    horizon_secs: u64,
    seed: u64,
    workers: usize,
    single_shard: bool,
) -> u64 {
    let mut world = build_metro(
        cells,
        bg_users_per_cell,
        fg_flows_per_cell,
        bytes_per_flow,
        seed,
        workers,
        single_shard,
    );
    world.attach_oracle();
    world.set_trace_capture(true, 1 << 21);
    // Same grace-window shape as `run_metro`: both builds run to the same
    // final time, so the digests stay comparable.
    world.run_until(SimTime::from_secs(horizon_secs + 30));
    let target = cells as u64 * fg_flows_per_cell as u64 * bytes_per_flow;
    assert_eq!(
        world.total_delivered(),
        target,
        "metro: foreground transfers incomplete"
    );
    world.assert_oracle_clean();
    world.trace_digest()
}

/// The sharded churn workload: every cell's wireless link runs the one
/// standard [`churn_plan`] (each cell draws its own stream from it) with
/// the conformance oracle attached to every shard; panics on any violation
/// or incomplete flow.
pub fn run_sharded_churn(
    cells: usize,
    flows_per_cell: usize,
    bytes_per_flow: u64,
    seed: u64,
    workers: usize,
) -> ShardScaleResult {
    let loss = LossModel::Gilbert {
        p_good_to_bad: 0.02,
        p_bad_to_good: 0.5,
        loss_good: 0.005,
        loss_bad: 0.15,
    };
    let wireless = || {
        LinkParams::wireless()
            .with_bandwidth(8_000_000)
            .with_queue_limit(128 * 1024)
            .with_loss(loss.clone())
    };
    let mut builder = comma::topo::TopologyBuilder::new(seed)
        .backbone(LinkParams::wired().with_latency(SimDuration::from_millis(10)))
        .workers(workers);
    for c in 0..cells {
        let mut spec = comma::topo::CellSpec::new(format!("cell{c}"))
            .wireless(wireless(), wireless())
            .filter("add tcp 0.0.0.0 0 {mobile} 0")
            .filter("add snoop 0.0.0.0 0 {mobile} 0")
            .filter("add wsize 0.0.0.0 0 {mobile} 0 scale 90")
            .filter("add tcp 0.0.0.0 0 {mobile} 0")
            .fault_plan(churn_plan(seed ^ 0xc4e7));
        for f in 0..flows_per_cell {
            spec = spec.transfer(9000 + f as u16, bytes_per_flow);
        }
        builder = builder.cell(spec);
    }
    let mut world = builder.build().expect("sharded churn topology is valid");
    world.attach_oracle();
    let target = cells as u64 * flows_per_cell as u64 * bytes_per_flow;
    let (delivered, wall) = drive_to_target(&mut world, target);
    assert_eq!(
        delivered, target,
        "sharded churn: not every transfer completed within the horizon"
    );
    world.assert_oracle_clean();
    shard_scale_result(cells, flows_per_cell, bytes_per_flow, workers, delivered, wall, &mut world)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn many_flows_small_batch_completes() {
        let r = run_many_flows(4, 8_192, 11);
        assert_eq!(r.delivered, 4 * 8_192);
        assert!(r.sim_events > 0);
    }

    #[test]
    fn many_flows_churn_small_batch_completes() {
        let r = run_many_flows_churn(4, 8_192, 11);
        assert_eq!(r.delivered, 4 * 8_192);
        assert!(r.sim_events > 0);
    }

    #[test]
    fn event_core_runs_and_counts() {
        let r = run_event_core(8, 50, 5);
        assert!(r.sim_events > 100, "got {} events", r.sim_events);
        assert!(r.delivered > 0);
    }

    #[test]
    fn sharded_small_batch_completes_and_is_worker_invariant() {
        let r = run_sharded_flows(2, 2, 4_096, 11, 2, 1);
        assert_eq!(r.delivered, 2 * 2 * 4_096);
        assert!(r.windows > 0);
        assert!(r.xfer_pkts > 0, "no packets crossed shard boundaries");
        let d1 = sharded_delivered_digest(2, 2, 4_096, 11, 1);
        let d2 = sharded_delivered_digest(2, 2, 4_096, 11, 2);
        assert_eq!(d1, d2, "delivered digest differs across worker counts");
    }

    #[test]
    fn split_backbone_matches_single_backbone() {
        let single = sharded_trace_digest(3, 2, 4_096, 11, 2, 1, false);
        let split = sharded_trace_digest(3, 2, 4_096, 11, 2, 3, false);
        assert_eq!(single, split, "backbone split must not change the trace");
    }

    #[test]
    fn alloc_probes_run_and_warm_up() {
        // Behavioural smoke test in every configuration; the alloc-stats
        // regression suite additionally pins steady == 0.
        let (warm_serial, steady_serial, _) = event_core_alloc_probe(8, 5);
        let (warm_sharded, steady_sharded, _) = sharded_alloc_probe(4, 2, 5);
        if comma_rt::alloc::enabled() {
            assert!(warm_serial > 0, "warmup must allocate");
            assert!(warm_sharded > 0, "warmup must allocate");
        } else {
            assert_eq!((warm_serial, steady_serial), (0, 0));
            assert_eq!((warm_sharded, steady_sharded), (0, 0));
        }
    }

    #[test]
    fn sharded_churn_small_batch_is_oracle_clean() {
        let r = run_sharded_churn(2, 2, 4_096, 11, 2);
        assert_eq!(r.delivered, 2 * 2 * 4_096);
    }

    #[test]
    fn metro_small_completes_with_fluid_background() {
        let r = run_metro(2, 300, 2, 4_096, 3, 11, 2);
        assert_eq!(r.delivered, 2 * 2 * 4_096);
        assert_eq!(r.bg_users, 600);
        assert_eq!(r.fluid_links, 2);
        assert!(r.fluid_epochs > 0, "the rate solver must run epochs");
        assert!(r.fg_goodput_bps > 0.0);
    }

    #[test]
    fn metro_events_grow_with_epochs_not_users() {
        // 10× the background users on the same epoch grid: the discrete
        // event count must stay nearly flat (the O(epochs) claim, pinned
        // at CI scale by the bench gate).
        let a = run_metro(2, 250, 2, 4_096, 3, 11, 1);
        let b = run_metro(2, 2_500, 2, 4_096, 3, 11, 1);
        assert!(
            (b.sim_events as f64) <= a.sim_events as f64 * 1.5,
            "sim_events must track epochs, not users: {} vs {}",
            a.sim_events,
            b.sim_events
        );
    }
}
