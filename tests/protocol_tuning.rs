//! E06/E07/E08 — the protocol-tuning services of §8.2 demonstrated
//! quantitatively: snoop on a lossy link, BSSP window prioritization, and
//! ZWSM disconnection management.

use comma_repro::prelude::*;

fn lossy(p: f64) -> LinkParams {
    LinkParams::wireless().with_loss(LossModel::Uniform { p })
}

/// Runs a 200 KB transfer over a lossy wireless link; returns (completion
/// seconds, sender timeouts).
fn run_lossy_transfer(seed: u64, loss: f64, with_snoop: bool) -> (f64, u64) {
    let sender = BulkSender::new((addrs::MOBILE, 9000), 200_000);
    // Era-faithful TCP (536-byte MSS, 1 s minimum RTO): the configuration
    // against which snoop's gains were reported.
    let mut world = CommaBuilder::new(seed)
        .tcp(TcpConfig::era_1998())
        .wireless(lossy(loss), lossy(loss / 4.0))
        .build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");
    if with_snoop {
        world.sp("add snoop 0.0.0.0 0 11.11.10.10 9000");
    }
    world.attach_oracle();
    world.run_until(SimTime::from_secs(300));
    let sink = world.mobile_app_ids[0];
    let (bytes, finished) =
        world.mobile_app::<Sink, _>(sink, |s| (s.bytes_received, s.last_data_at));
    assert_eq!(
        bytes, 200_000,
        "transfer completed (snoop={with_snoop}, loss={loss})"
    );
    let timeouts = world.sim.with_node::<Host, _>(world.wired, |h| {
        h.socket_infos().iter().map(|s| s.stats.timeouts).sum()
    });
    world.assert_oracle_clean();
    (finished.expect("data arrived").as_secs_f64(), timeouts)
}

/// E06 — snoop hides wireless losses from the sender: transfers finish
/// substantially faster and with fewer end-to-end timeouts at 10% loss.
#[test]
fn snoop_beats_plain_tcp_on_lossy_link() {
    let (plain_t, plain_to) = run_lossy_transfer(61, 0.10, false);
    let (snoop_t, snoop_to) = run_lossy_transfer(61, 0.10, true);
    assert!(
        snoop_t * 1.5 < plain_t,
        "snoop {snoop_t:.1}s vs plain {plain_t:.1}s at 10% loss"
    );
    assert!(
        snoop_to < plain_to,
        "snoop timeouts {snoop_to} < plain {plain_to}"
    );
}

/// E06 control — at zero loss, snoop costs (almost) nothing.
#[test]
fn snoop_harmless_without_loss() {
    let (plain_t, _) = run_lossy_transfer(62, 0.0, false);
    let (snoop_t, _) = run_lossy_transfer(62, 0.0, true);
    assert!(
        snoop_t < plain_t * 1.15,
        "snoop {snoop_t:.2}s vs plain {plain_t:.2}s at 0% loss"
    );
}

/// E07 — BSSP prioritization: shrinking the advertised window of a
/// background stream shifts wireless bandwidth to the priority stream.
#[test]
fn wsize_prioritization_shifts_bandwidth() {
    fn run(seed: u64, scale_background: bool) -> (usize, usize) {
        let priority = BulkSender::new((addrs::MOBILE, 9001), 2_000_000);
        let background = BulkSender::new((addrs::MOBILE, 9002), 2_000_000);
        let mut world = CommaBuilder::new(seed).build(
            vec![Box::new(priority), Box::new(background)],
            vec![Box::new(Sink::new(9001)), Box::new(Sink::new(9002))],
        );
        world.sp("add tcp 0.0.0.0 0 11.11.10.10 0");
        if scale_background {
            world.sp("add wsize 0.0.0.0 0 11.11.10.10 9002 scale 10");
        }
        world.attach_oracle();
        // Measure mid-flight, while both streams still compete.
        world.run_until(SimTime::from_secs(10));
        let p = world.mobile_app::<Sink, _>(world.mobile_app_ids[0], |s| s.bytes_received);
        let b = world.mobile_app::<Sink, _>(world.mobile_app_ids[1], |s| s.bytes_received);
        world.assert_oracle_clean();
        (p, b)
    }

    let (p_fair, b_fair) = run(63, false);
    let (p_prio, b_prio) = run(63, true);
    // Unmanaged: roughly fair sharing.
    let fair_ratio = p_fair as f64 / b_fair.max(1) as f64;
    assert!(
        (0.5..2.0).contains(&fair_ratio),
        "fair split, got {fair_ratio:.2}"
    );
    // Managed: the priority stream gets the lion's share.
    assert!(
        p_prio as f64 > b_prio as f64 * 2.5,
        "priority {p_prio} vs background {b_prio}"
    );
    assert!(p_prio > p_fair, "priority stream strictly gains");
}

/// E08 — ZWSM disconnection management: with the service, a stream frozen
/// by a zero window resumes promptly after a 30 s disconnection; without
/// it, exponential backoff and slow start delay recovery.
#[test]
fn zwsm_recovers_faster_from_disconnection() {
    fn run(seed: u64, with_zwsm: bool) -> f64 {
        let sender = BulkSender::new((addrs::MOBILE, 9000), 1_500_000);
        let mut world =
            CommaBuilder::new(seed).build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
        world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");
        if with_zwsm {
            world.sp("add wsize 0.0.0.0 0 11.11.10.10 9000 zwsm wireless.up");
        }
        world.attach_oracle();
        // Disconnect 3s in, reconnect at 33s.
        world.set_wireless_up_at(SimTime::from_secs(3), false);
        world.set_wireless_up_at(SimTime::from_secs(33), true);
        world.run_until(SimTime::from_secs(200));
        let sink = world.mobile_app_ids[0];
        let (bytes, finished) =
            world.mobile_app::<Sink, _>(sink, |s| (s.bytes_received, s.last_data_at));
        assert_eq!(
            bytes, 1_500_000,
            "transfer survives the disconnection (zwsm={with_zwsm})"
        );
        world.assert_oracle_clean();
        finished.expect("finished").as_secs_f64()
    }

    let without = run(64, false);
    let with = run(64, true);
    assert!(
        with + 5.0 < without,
        "zwsm {with:.1}s vs plain {without:.1}s end-to-end"
    );
}

/// The zero-window freeze itself: during the outage the ZWSM-managed
/// sender records freezes instead of congestion timeouts.
#[test]
fn zwsm_converts_timeouts_to_freezes() {
    let sender = BulkSender::new((addrs::MOBILE, 9000), 1_500_000);
    let mut world =
        CommaBuilder::new(65).build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    world.sp("add wsize 0.0.0.0 0 11.11.10.10 9000 zwsm wireless.up");
    world.attach_oracle();
    world.set_wireless_up_at(SimTime::from_secs(3), false);
    world.set_wireless_up_at(SimTime::from_secs(23), true);
    world.run_until(SimTime::from_secs(120));
    let (freezes, _timeouts) = world.sim.with_node::<Host, _>(world.wired, |h| {
        let infos = h.socket_infos();
        (
            infos
                .iter()
                .map(|s| s.stats.zero_window_freezes)
                .sum::<u64>(),
            infos.iter().map(|s| s.stats.timeouts).sum::<u64>(),
        )
    });
    assert!(freezes > 0, "the ZWSM put the sender into persist-freeze");
    world.assert_oracle_clean();
    // SimDuration imported for future tuning; silence unused warnings.
    let _ = SimDuration::from_secs(1);
}

/// Diagnostic (ignored): print snoop internals at 10% loss.
#[test]
#[ignore]
fn snoop_diagnostics() {
    use comma_filters::snoop::Snoop;
    use comma_proxy::ServiceProxy;
    let sender = BulkSender::new((addrs::MOBILE, 9000), 200_000);
    let mut world = CommaBuilder::new(61)
        .tcp(TcpConfig::era_1998())
        .wireless(lossy(0.10), lossy(0.025))
        .build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");
    world.sp("add snoop 0.0.0.0 0 11.11.10.10 9000");
    world.run_until(SimTime::from_secs(5));
    let mid = world.sim.with_node::<ServiceProxy, _>(world.proxy, |sp| {
        sp.engine.instances_ref::<Snoop>("snoop").next().map(|s| s.stats)
    });
    println!("snoop stats mid: {mid:?}");
    let live = world
        .sim
        .with_node::<ServiceProxy, _>(world.proxy, |sp| sp.engine.live_instances());
    println!("live instances at 5s: {live}");
    world.run_until(SimTime::from_secs(300));
    let stats = world.sim.with_node::<ServiceProxy, _>(world.proxy, |sp| {
        sp.engine.instances_ref::<Snoop>("snoop").next().map(|s| s.stats)
    });
    println!("snoop stats: {stats:?}");
    let log = world
        .sim
        .with_node::<ServiceProxy, _>(world.proxy, |sp| sp.engine.log.clone());
    println!(
        "proxy log ({} lines): {:?}",
        log.len(),
        &log[..log.len().min(10)]
    );
    let sender_stats = world.sim.with_node::<Host, _>(world.wired, |h| {
        h.socket_infos().iter().map(|s| s.stats).collect::<Vec<_>>()
    });
    println!("sender: {sender_stats:?}");
    let sink = world.mobile_app_ids[0];
    let t = world.mobile_app::<Sink, _>(sink, |s| s.last_data_at);
    println!("finish: {t:?}");
    let drops = world.sim.channel(world.wireless_ch.0).stats.loss_drops;
    println!("wireless drops: {drops}");
}

/// Diagnostic (ignored): era-config timing without loss.
#[test]
#[ignore]
fn era_baseline_diagnostics() {
    let (t0, to0) = run_lossy_transfer(70, 0.0, false);
    println!("era 0% loss: {t0:.2}s timeouts={to0}");
    let (t5, to5) = run_lossy_transfer(70, 0.05, false);
    println!("era 5% loss: {t5:.2}s timeouts={to5}");
    let (t5s, to5s) = run_lossy_transfer(70, 0.05, true);
    println!("era 5% loss + snoop: {t5s:.2}s timeouts={to5s}");
}

/// Diagnostic (ignored): snoop progress trace at 10% loss.
#[test]
#[ignore]
fn snoop_progress_trace() {
    use comma_filters::snoop::Snoop;
    use comma_proxy::ServiceProxy;
    let sender = BulkSender::new((addrs::MOBILE, 9000), 200_000);
    let mut world = CommaBuilder::new(61)
        .tcp(TcpConfig::era_1998())
        .wireless(lossy(0.10), lossy(0.025))
        .build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    world.sp("add snoop 0.0.0.0 0 11.11.10.10 9000");
    for t in 1..=30u64 {
        world.run_until(SimTime::from_secs(t));
        let bytes = world.mobile_app::<Sink, _>(world.mobile_app_ids[0], |s| s.bytes_received);
        let (cwnd, wnd, flight) = world.sim.with_node::<Host, _>(world.wired, |h| {
            let c = h.connection(comma_tcp::SocketId(0)).unwrap();
            (c.cwnd(), c.snd_wnd(), c.flight_size())
        });
        let snoop = world.sim.with_node::<ServiceProxy, _>(world.proxy, |sp| {
            sp.engine.instances_ref::<Snoop>("snoop").next().map(|s| s.stats)
        });
        println!("t={t}s sink={bytes} cwnd={cwnd} wnd={wnd} flight={flight} snoop={snoop:?}");
        if bytes >= 200_000 {
            break;
        }
    }
}
