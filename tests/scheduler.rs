//! Scheduler-level guarantees of the timer-wheel event core: stale-timer
//! cancellation must shrink the event stream, and the many-flows scale
//! workload must stay deterministic.
//!
//! The exact-order equivalence with the old `BinaryHeap` scheduler is
//! pinned in `determinism.rs::timer_wheel_trace_matches_binary_heap_golden`
//! against digests recorded before the swap.

use comma_repro::prelude::*;

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
        let cached = sp.engine.instance_as::<Snoop>("snoop").map(|s| s.stats.cached);
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
