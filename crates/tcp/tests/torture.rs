//! TCP torture tests: correctness under sustained loss, tiny windows,
//! bidirectional traffic, and pathological timing.

use comma_netsim::link::{ChannelStats, LinkParams, LossModel};
use comma_netsim::prelude::*;
use comma_tcp::apps::{BulkSender, EchoServer, RequestResponse, Sink};
use comma_tcp::host::{AppId, Host};
use comma_tcp::{Recovery, TcpConfig};

fn addr(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

fn lossy_pair(
    seed: u64,
    cfg: TcpConfig,
    loss_ab: f64,
    loss_ba: f64,
) -> (
    Simulator,
    comma_netsim::node::NodeId,
    comma_netsim::node::NodeId,
) {
    let mut sim = Simulator::new(seed);
    let mut a = Host::new("a", addr(1));
    a.set_default_config(cfg.clone());
    let mut b = Host::new("b", addr(2));
    b.set_default_config(cfg);
    let a = sim.add_node(Box::new(a));
    let b = sim.add_node(Box::new(b));
    sim.connect(
        a,
        b,
        LinkParams::wireless().with_loss(LossModel::Uniform { p: loss_ab }),
        LinkParams::wireless().with_loss(LossModel::Uniform { p: loss_ba }),
    );
    (sim, a, b)
}

fn install_transfer(
    sim: &mut Simulator,
    a: comma_netsim::node::NodeId,
    b: comma_netsim::node::NodeId,
    bytes: usize,
) {
    sim.with_node::<Host, _>(a, |h| {
        h.add_app(Box::new(BulkSender::new((addr(2), 9000), bytes)));
    });
    sim.with_node::<Host, _>(b, |h| {
        h.add_app(Box::new(Sink::new(9000).with_capture(bytes)));
    });
}

fn check_exact(sim: &mut Simulator, b: comma_netsim::node::NodeId, bytes: usize) {
    let capture = sim.with_node::<Host, _>(b, |h| h.app_mut::<Sink>(AppId(0)).capture.clone());
    assert_eq!(capture.len(), bytes, "full delivery");
    for (i, byte) in capture.iter().enumerate() {
        assert_eq!(*byte as usize, i % 251, "byte {i} corrupted");
    }
}

#[test]
fn exact_delivery_at_heavy_bidirectional_loss() {
    for recovery in [Recovery::Reno, Recovery::Tahoe] {
        let cfg = TcpConfig::default().with_recovery(recovery);
        let (mut sim, a, b) = lossy_pair(31, cfg, 0.15, 0.15);
        install_transfer(&mut sim, a, b, 150_000);
        sim.run_until(SimTime::from_secs(600));
        check_exact(&mut sim, b, 150_000);
    }
}

#[test]
fn exact_delivery_with_tiny_receive_buffer() {
    // A 2 KB receive buffer forces constant window limiting.
    let cfg = TcpConfig::default()
        .with_recv_buffer(2048)
        .with_delayed_ack(false);
    let (mut sim, a, b) = lossy_pair(32, cfg, 0.05, 0.0);
    install_transfer(&mut sim, a, b, 60_000);
    sim.run_until(SimTime::from_secs(300));
    check_exact(&mut sim, b, 60_000);
}

#[test]
fn era_config_survives_burst_loss() {
    let cfg = TcpConfig::era_1998();
    let mut sim = Simulator::new(33);
    let mut a = Host::new("a", addr(1));
    a.set_default_config(cfg.clone());
    let mut b = Host::new("b", addr(2));
    b.set_default_config(cfg);
    let a = sim.add_node(Box::new(a));
    let b = sim.add_node(Box::new(b));
    let gilbert = LossModel::Gilbert {
        p_good_to_bad: 0.03,
        p_bad_to_good: 0.25,
        loss_good: 0.01,
        loss_bad: 0.5,
    };
    sim.connect(
        a,
        b,
        LinkParams::wireless().with_loss(gilbert.clone()),
        LinkParams::wireless().with_loss(gilbert),
    );
    install_transfer(&mut sim, a, b, 100_000);
    sim.run_until(SimTime::from_secs(900));
    check_exact(&mut sim, b, 100_000);
}

#[test]
fn interactive_traffic_under_loss() {
    let (mut sim, a, b) = lossy_pair(34, TcpConfig::default(), 0.08, 0.08);
    sim.with_node::<Host, _>(a, |h| {
        h.add_app(Box::new(RequestResponse::new((addr(2), 7), 256, 40)));
    });
    sim.with_node::<Host, _>(b, |h| {
        h.add_app(Box::new(EchoServer::new(7)));
    });
    sim.run_until(SimTime::from_secs(300));
    let (completed, done) = sim.with_node::<Host, _>(a, |h| {
        let app = h.app_mut::<RequestResponse>(AppId(0));
        (app.completed(), app.done)
    });
    assert_eq!(completed, 40, "every transaction completed despite loss");
    assert!(done, "connection closed cleanly");
}

#[test]
fn many_parallel_streams_all_complete() {
    let (mut sim, a, b) = lossy_pair(35, TcpConfig::default(), 0.03, 0.01);
    const STREAMS: usize = 8;
    for i in 0..STREAMS {
        let size = 30_000 + i * 7_000;
        sim.with_node::<Host, _>(a, |h| {
            h.add_app(Box::new(BulkSender::new((addr(2), 9000 + i as u16), size)));
        });
        sim.with_node::<Host, _>(b, |h| {
            h.add_app(Box::new(Sink::new(9000 + i as u16)));
        });
    }
    sim.run_until(SimTime::from_secs(300));
    for i in 0..STREAMS {
        let expect = 30_000 + i * 7_000;
        let got = sim.with_node::<Host, _>(b, |h| h.app_mut::<Sink>(AppId(i)).bytes_received);
        assert_eq!(got, expect, "stream {i}");
    }
    // Aggregate accounting is consistent: retransmissions happened but
    // delivered bytes match exactly.
    let retrans = sim.with_node::<Host, _>(a, |h| h.retrans_segs());
    assert!(retrans > 0, "loss produced retransmissions");
}

#[test]
fn determinism_across_identical_runs() {
    fn run() -> (usize, u64, Vec<ChannelStats>) {
        let (mut sim, a, b) = lossy_pair(36, TcpConfig::default(), 0.10, 0.05);
        install_transfer(&mut sim, a, b, 80_000);
        sim.run_until(SimTime::from_secs(120));
        let bytes = sim.with_node::<Host, _>(b, |h| h.app_mut::<Sink>(AppId(0)).bytes_received);
        let retrans = sim.with_node::<Host, _>(a, |h| h.retrans_segs());
        let links = (0..sim.channel_count()).map(|i| sim.channel(ChannelId(i)).stats).collect();
        (bytes, retrans, links)
    }
    let first = run();
    let second = run();
    assert_eq!(first, second, "identical seeds give identical runs");
    assert_eq!(first.0, 80_000);
    assert!(first.2.iter().all(|s| s.loss_drops > 0), "both directions lost packets");
}
