//! Scheduler-level guarantees of the timer-wheel event core: stale-timer
//! cancellation must shrink the event stream, the many-flows scale
//! workload must stay deterministic, and idle work — a quiet flow, a fluid
//! background nobody reads — costs no events, with fluid links caught up
//! exactly as if every epoch had been an event.
//!
//! The exact-order equivalence with the old `BinaryHeap` scheduler is
//! pinned in `determinism.rs::timer_wheel_trace_matches_binary_heap_golden`
//! against digests recorded before the swap.

use comma_repro::netsim::prelude::{
    ChannelId, FluidState, IcmpMessage, IfaceId, Ipv4Addr, Router, RoutingTable,
};
use comma_repro::prelude::*;
use comma_repro::rt::prop::{gen, Runner};

/// One bulk transfer over a bursty lossy wireless link: RTO restarts and
/// delayed-ACK rescheduling churn the timer queue.
fn retransmit_events(seed: u64) -> (u64, u64) {
    let loss = LossModel::Gilbert {
        p_good_to_bad: 0.05,
        p_bad_to_good: 0.4,
        loss_good: 0.01,
        loss_bad: 0.3,
    };
    let mut world = CommaBuilder::new(seed)
        .eem(false)
        .wireless(
            LinkParams::wireless().with_loss(loss.clone()),
            LinkParams::wireless().with_loss(loss),
        )
        .build(
            vec![Box::new(BulkSender::new((addrs::MOBILE, 9000), 65_536))],
            vec![Box::new(Sink::new(9000))],
        );
    world.run_until(SimTime::from_secs(300));
    let got = world.mobile_app::<Sink, _>(world.mobile_app_ids[0], |s| s.bytes_received);
    assert_eq!(got, 65_536, "transfer completes under loss");
    let cancelled = world.sim.sched_stats().cancelled;
    (world.sim.events_processed(), cancelled)
}

/// Before timer cancellation, every TCP effects batch re-armed the
/// connection timer and relied on deadline checks to ignore stale fires:
/// this exact scenario processed 615 events on the pre-change scheduler.
/// Cancelling superseded RTO/delayed-ACK timers must drop that count.
#[test]
fn stale_timer_cancellation_drops_event_count() {
    let (events, cancelled) = retransmit_events(77);
    assert!(
        events < 615,
        "expected fewer events than the pre-cancellation baseline of 615, got {events}"
    );
    assert!(
        cancelled > 0,
        "the retransmitting connection must actually cancel superseded timers"
    );
}

/// Acceptance gate: the 256-flow scale workload completes and two
/// same-seed runs produce byte-identical packet traces.
#[test]
fn many_flows_256_same_seed_trace_digests_match() {
    let a = comma_bench::scale::many_flows_trace_digest(256, 8_192, 42);
    let b = comma_bench::scale::many_flows_trace_digest(256, 8_192, 42);
    assert_eq!(
        a, b,
        "256-flow runs with one seed must replay the identical trace"
    );
}

/// Connects, sends once, and keeps the connection open with nothing more
/// to say — a flow that is present at the proxy but not in flight.
struct HoldOpen {
    remote: (comma_repro::netsim::addr::Ipv4Addr, u16),
    bytes: usize,
}

impl App for HoldOpen {
    fn name(&self) -> &str {
        "hold-open"
    }

    fn on_start(&mut self, ctx: &mut AppCtx) {
        ctx.connect(self.remote);
    }

    fn on_connected(&mut self, ctx: &mut AppCtx, sock: comma_repro::tcp::apps::SocketId) {
        ctx.send(sock, vec![0x5a; self.bytes]);
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// An established, fully acknowledged flow through the standard chain
/// costs nothing while it idles: filter timers are demand-driven, so with
/// the snoop cache drained not one event is scheduled at the proxy (and
/// TCP itself keeps no timer running on an idle connection).
#[test]
fn idle_established_flow_processes_zero_events() {
    use comma_repro::filters::snoop::Snoop;
    const BYTES: usize = 32 * 1024;
    let mut world = CommaBuilder::new(11).eem(false).build(
        vec![Box::new(HoldOpen { remote: (addrs::MOBILE, 9000), bytes: BYTES })],
        vec![Box::new(Sink::new(9000))],
    );
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 0");
    world.sp("add snoop 0.0.0.0 0 11.11.10.10 0");
    world.sp("add wsize 0.0.0.0 0 11.11.10.10 0 scale 90");
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 0");
    world.run_until(SimTime::from_secs(5));
    let got = world.mobile_app::<Sink, _>(world.mobile_app_ids[0], |s| s.bytes_received);
    assert_eq!(got, BYTES, "the transfer is complete and acknowledged");
    let (cached, live) = world.sim.with_node::<ServiceProxy, _>(world.proxy, |sp| {
        let cached = sp.engine.instances_ref::<Snoop>("snoop").next().map(|s| s.stats.cached);
        (cached, sp.engine.live_instances())
    });
    assert!(cached.unwrap_or(0) > 0, "snoop saw the flow: {cached:?}");
    assert_eq!(live, 4, "the flow is still established: all four filters are live");

    let before = world.sim.events_processed();
    world.run_until(SimTime::from_secs(15));
    assert_eq!(
        world.sim.events_processed() - before,
        0,
        "an idle flow must not cost events"
    );
}

/// Two routers joined by a 2 Mbit/s wireless link whose downlink carries
/// `users` fluid background users in front of a `queue_limit`-byte queue;
/// returns the world, the sending router and the fluid channel.
fn fluid_link_world(seed: u64, users: usize, queue_limit: usize) -> (Simulator, NodeId, ChannelId) {
    let mut sim = Simulator::new(seed);
    let a = sim.add_node(Box::new(Router::new("a", vec![], RoutingTable::new())));
    let b = sim.add_node(Box::new(Router::new("b", vec![], RoutingTable::new())));
    let link = LinkParams::wireless().with_bandwidth(2_000_000).with_queue_limit(queue_limit);
    let (down, _) = sim.connect(a, b, link.clone(), link);
    sim.attach_fluid(down, FluidConfig::users(users), 7);
    (sim, a, down)
}

/// A 500-byte echo request from `a` to `b`.
fn ping(seq: u16) -> Packet {
    let payload = Bytes::from(vec![0u8; 472]);
    let echo = IcmpMessage::EchoRequest { id: 1, seq, payload };
    Packet::icmp(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), echo)
}

/// A standalone copy of a channel's fluid population, stepped one epoch
/// at a time the way the timer wheel used to step it.
struct SteppedFluid {
    state: FluidState,
    next: Option<SimTime>,
    capacity: u64,
    limit: usize,
}

impl SteppedFluid {
    /// Copies the population `ch` holds now, before any later epoch.
    fn of(sim: &mut Simulator, ch: ChannelId) -> Self {
        let params = &sim.channel(ch).params;
        let (capacity, limit) = (params.bandwidth_bps, params.queue_limit_bytes);
        let state = sim.fluid(ch).expect("fluid attached").clone();
        SteppedFluid {
            next: state.next_epoch(),
            state,
            capacity,
            limit,
        }
    }

    /// Runs every epoch due before `t`, or at or before it when
    /// `inclusive`.
    fn advance(&mut self, t: SimTime, inclusive: bool) {
        while let Some(at) = self.next.filter(|&at| at < t || inclusive && at == t) {
            self.next = self.state.epoch(at, self.capacity, self.limit);
        }
    }

    /// A capacity change at `t`: the epochs before it at the old
    /// capacity, then a re-solve at `t` at the new one.
    fn step_capacity(&mut self, t: SimTime, bps: u64) {
        self.advance(t, false);
        self.capacity = bps;
        self.next = self.state.epoch(t, bps, self.limit);
    }

    /// Whether the simulator's totals and `ch`'s fluid state read what
    /// this copy reads at the simulator's current instant. The first of the
    /// two readers meets the link as it lags, so `totals_first` picks which
    /// one's catch-up is on trial.
    fn matches(&self, sim: &mut Simulator, ch: ChannelId, totals_first: bool) -> Result<(), String> {
        let (now, st) = (sim.now(), &self.state);
        let early = totals_first.then(|| sim.fluid_totals());
        let live = sim.fluid(ch).expect("fluid attached");
        let live = (live.residual_bps(), live.active_flows(), live.queue_bytes_at(now, self.limit));
        let totals = early.unwrap_or_else(|| sim.fluid_totals());
        let expect = FluidTotals {
            links: 1,
            users: st.users() as u64,
            active: st.active_flows() as u64,
            epochs: st.epochs(),
            flow_visits: st.flow_visits(),
        };
        ensure_eq!(totals, expect, "totals at {now:?}");
        ensure_eq!(live.0, st.residual_bps(), "residual at {now:?}");
        ensure_eq!(live.1, st.active_flows(), "active flows at {now:?}");
        ensure_eq!(live.2, st.queue_bytes_at(now, self.limit), "fluid queue at {now:?}");
        Ok(())
    }
}

/// A fluid population on a link no packet uses costs no events: epochs
/// are not scheduled, runs leave the link where it was, and a read after
/// each run catches it up to exactly where a population stepped epoch by
/// epoch stands — after `step` included.
#[test]
fn idle_fluid_link_processes_zero_events() {
    let (mut sim, _, ch) = fluid_link_world(5, 2_000, 32 * 1024);
    let mut stepped = SteppedFluid::of(&mut sim, ch);
    for secs in [1, 10, 30] {
        let t = SimTime::from_secs(secs);
        sim.run_until(t);
        stepped.advance(t, true);
        assert_eq!(stepped.matches(&mut sim, ch, false), Ok(()));
    }
    assert_eq!(sim.events_processed(), 0, "an idle fluid link must not cost events");
    assert!(sim.fluid_totals().epochs > 2_900, "the epochs did run: {:?}", sim.fluid_totals());
    let t = SimTime::from_micros(31_234_567);
    sim.at(t, |_| {});
    assert_eq!(sim.step(), Some(t));
    stepped.advance(t, true);
    assert_eq!(stepped.matches(&mut sim, ch, false), Ok(()));
}

/// A capacity written past `set_link_bandwidth` cannot re-price a lagging
/// fluid link in silence: the next read would run every epoch since the
/// link was last read at a capacity it only has now, so it panics.
#[test]
#[should_panic(expected = "fluid capacity changed without a re-solve")]
fn fluid_capacity_written_around_set_link_bandwidth_fails_loudly() {
    let (mut sim, _, ch) = fluid_link_world(5, 2_000, 32 * 1024);
    sim.run_until(SimTime::from_secs(1));
    sim.channel_mut(ch).params.bandwidth_bps = 500_000;
    sim.run_until(SimTime::from_secs(2));
    sim.fluid(ch);
}

/// One [`fluid_reads_and_steps_match_stepped_epochs`] case: times in µs,
/// half of them on the 10 ms epoch grid.
#[derive(Debug)]
struct FluidReadCase {
    seed: u64,
    users: usize,
    steps: Vec<(u64, u64)>,
    reads: Vec<u64>,
    peeks: Vec<u64>,
    stops: Vec<u64>,
}

fn fluid_time(rng: &mut SmallRng) -> u64 {
    if rng.gen_bool(0.5) {
        rng.gen_range(0u64..300) * 10_000
    } else {
        rng.gen_range(0u64..3_000_000)
    }
}

/// Who reads the fluid link besides its packets and capacity steps, in
/// one arm of [`fluid_reads_and_steps_match_stepped_epochs`].
#[derive(Clone, Copy, PartialEq)]
enum Readers {
    /// Nobody before the run's end, where `state_hash` reads first.
    None,
    /// The stepped check at every stop, `fluid(ch)` first.
    Stops,
    /// `fluid(ch)`, `fluid_totals` and `state_hash` at the case's `peeks`,
    /// and the stepped check at every stop, `fluid_totals` first.
    Anywhere,
}

/// Packet reads (a transmission start or a queue admission) and capacity
/// steps at random instants, exact grid µs included, never move the fluid
/// timeline: after every `run_until` the link reads what a population
/// stepped epoch by epoch reads, a step re-solving at its own instant.
/// Nor does who else reads it, or when: a world nobody reads between
/// stops, one checked at every stop and one also read through every
/// accessor at random instants end with one trace digest, one
/// `fluid_totals` and one `state_hash`. At an instant shared with a step,
/// packets and accessors read after it, as the stepped copy assumes.
#[test]
fn fluid_reads_and_steps_match_stepped_epochs() {
    Runner::new("fluid_reads_and_steps_match_stepped_epochs")
        .cases(60)
        .run(
            |rng| {
                let mut stops = gen::vec_of(rng, 1..6, fluid_time);
                stops.push(3_000_000);
                stops.sort_unstable();
                FluidReadCase {
                    seed: rng.gen::<u64>(),
                    users: rng.gen_range(50usize..1_500),
                    steps: gen::vec_of(rng, 0..5, |rng| {
                        (fluid_time(rng), rng.gen_range(200_000u64..4_000_000))
                    }),
                    reads: gen::vec_of(rng, 0..20, fluid_time),
                    peeks: gen::vec_of(rng, 0..20, fluid_time),
                    stops,
                }
            },
            |case| {
                let run = |readers: Readers| {
                    let (mut sim, a, ch) = fluid_link_world(case.seed, case.users, 32 * 1024);
                    sim.trace.set_capture(true);
                    let mut stepped = SteppedFluid::of(&mut sim, ch);
                    for &(at, bps) in &case.steps {
                        sim.at(SimTime::from_micros(at), move |sim| sim.set_link_bandwidth(ch, bps));
                    }
                    for (seq, &at) in case.reads.iter().enumerate() {
                        let ping = ping(seq as u16);
                        sim.at(SimTime::from_micros(at), move |sim| sim.inject(a, IfaceId(0), ping));
                    }
                    if readers == Readers::Anywhere {
                        for &at in &case.peeks {
                            sim.at(SimTime::from_micros(at), move |sim| {
                                sim.fluid(ch).expect("fluid attached");
                                sim.fluid_totals();
                                sim.state_hash();
                            });
                        }
                    }
                    let mut steps = case.steps.clone();
                    steps.sort_by_key(|&(at, _)| at);
                    let mut steps = steps.into_iter().peekable();
                    for &stop in &case.stops {
                        sim.run_until(SimTime::from_micros(stop));
                        while let Some((at, bps)) = steps.next_if(|&(at, _)| at <= stop) {
                            stepped.step_capacity(SimTime::from_micros(at), bps);
                        }
                        stepped.advance(SimTime::from_micros(stop), true);
                        if readers != Readers::None {
                            stepped.matches(&mut sim, ch, readers == Readers::Anywhere)?;
                        }
                    }
                    let hash = sim.state_hash();
                    stepped.matches(&mut sim, ch, false)?;
                    Ok::<_, String>((sim.trace.digest(), sim.fluid_totals(), hash))
                };
                let never = run(Readers::None)?;
                ensure_eq!(run(Readers::Stops)?, never, "checked at every stop vs read never");
                ensure_eq!(run(Readers::Anywhere)?, never, "read anywhere vs read never");
                Ok(())
            },
        );
}

/// One [`lazy_fluid_catch_up_matches_eager_epochs`] case: a background
/// offering about the link's capacity into an 8 KB queue, and bursts of
/// pings at random instants.
#[derive(Debug)]
struct LazyEagerCase {
    seed: u64,
    users: usize,
    bursts: Vec<(u64, u16)>,
}

/// Lazy catch-up is invisible to packets. The same world, with the link
/// caught up at every epoch instant by a control action queued ahead of
/// all packet traffic (the timer wheel's eager stepping, epoch first
/// within an instant), sends, queues, drops and delivers every packet at
/// the same µs and ends in the same fluid state. The fluid queue hovers
/// near its limit, so a stale read at admission or at a transmission start
/// changes which packets are dropped and when the rest leave.
#[test]
fn lazy_fluid_catch_up_matches_eager_epochs() {
    const HORIZON: SimTime = SimTime::from_secs(3);
    Runner::new("lazy_fluid_catch_up_matches_eager_epochs")
        .cases(24)
        .run(
            |rng| LazyEagerCase {
                seed: rng.gen::<u64>(),
                users: rng.gen_range(1_000usize..2_000),
                bursts: gen::vec_of(rng, 10..60, |rng| (fluid_time(rng), rng.gen_range(1u16..12))),
            },
            |case| {
                let run = |eager: bool| {
                    let (mut sim, a, ch) = fluid_link_world(case.seed, case.users, 8 * 1024);
                    sim.trace.set_capture(true);
                    if eager {
                        let mut stepped = SteppedFluid::of(&mut sim, ch);
                        let capacity = stepped.capacity;
                        while let Some(at) = stepped.next.filter(|&at| at <= HORIZON) {
                            sim.at(at, move |sim| sim.set_link_bandwidth(ch, capacity));
                            stepped.advance(at, true);
                        }
                    }
                    for &(at, n) in &case.bursts {
                        sim.at(SimTime::from_micros(at), move |sim| {
                            (0..n).for_each(|seq| sim.inject(a, IfaceId(0), ping(seq)))
                        });
                    }
                    sim.run_until(HORIZON);
                    let stats = sim.channel(ch).stats;
                    let fate = (stats.queue_drops, stats.delivered_pkts, stats.delivered_bytes);
                    (sim.render_trace_named(), fate, sim.fluid_totals())
                };
                let (lazy, eager) = (run(false), run(true));
                ensure_eq!(lazy.1, eager.1, "queue drops and deliveries");
                ensure_eq!(lazy.2, eager.2, "fluid totals");
                ensure!(lazy.0 == eager.0, "packet traces differ");
                Ok(())
            },
        );
}
