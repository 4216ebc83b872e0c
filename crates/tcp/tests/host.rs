//! Host-level integration tests: demultiplexing, listeners, RST
//! generation, UDP binding, ICMP echo, and application plumbing — all
//! through the simulator.

use std::any::Any;

use comma_rt::Bytes;
use comma_netsim::link::LinkParams;
use comma_netsim::prelude::*;
use comma_tcp::apps::{
    App, AppCtx, AppOp, BulkSender, EchoServer, RequestResponse, Sink, SocketId,
};
use comma_tcp::host::{AppId, Host};
use comma_tcp::TcpState;

fn addr(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

fn pair_with(
    a_apps: Vec<Box<dyn App>>,
    b_apps: Vec<Box<dyn App>>,
) -> (
    Simulator,
    comma_netsim::node::NodeId,
    comma_netsim::node::NodeId,
) {
    let mut sim = Simulator::new(77);
    let mut a = Host::new("a", addr(1));
    for app in a_apps {
        a.add_app(app);
    }
    let mut b = Host::new("b", addr(2));
    for app in b_apps {
        b.add_app(app);
    }
    let a = sim.add_node(Box::new(a));
    let b = sim.add_node(Box::new(b));
    sim.connect(a, b, LinkParams::wired(), LinkParams::wired());
    (sim, a, b)
}

#[test]
fn listener_accepts_and_counts() {
    let (mut sim, a, b) = pair_with(
        vec![Box::new(BulkSender::new((addr(2), 9000), 64_000))],
        vec![Box::new(Sink::new(9000))],
    );
    sim.run_until(SimTime::from_secs(10));
    let (accepted, closed, bytes) = sim.with_node::<Host, _>(b, |h| {
        let s = h.app_mut::<Sink>(AppId(0));
        (s.accepted, s.closed, s.bytes_received)
    });
    assert_eq!(accepted, 1);
    assert_eq!(closed, 1);
    assert_eq!(bytes, 64_000);
    let (active, passive) = sim.with_node::<Host, _>(a, |h| {
        (h.counters.tcp_active_opens, h.counters.tcp_passive_opens)
    });
    assert_eq!(active, 1);
    assert_eq!(passive, 0);
    let passive_b = sim.with_node::<Host, _>(b, |h| h.counters.tcp_passive_opens);
    assert_eq!(passive_b, 1);
}

#[test]
fn connection_refused_resets_client() {
    // No listener on port 9999: the SYN elicits a RST and the client app
    // sees the connection fail (on_closed).
    let (mut sim, a, b) = pair_with(
        vec![Box::new(BulkSender::new((addr(2), 9999), 1000))],
        vec![],
    );
    sim.run_until(SimTime::from_secs(5));
    let estab_resets = sim.with_node::<Host, _>(b, |h| h.counters.tcp_estab_resets);
    assert_eq!(estab_resets, 1, "server sent a RST");
    let state = sim.with_node::<Host, _>(a, |h| h.connection(SocketId(0)).map(|c| c.state()));
    assert_eq!(state, Some(TcpState::Closed));
}

#[test]
fn icmp_echo_replied() {
    let (mut sim, a, b) = pair_with(vec![], vec![]);
    sim.inject(
        a,
        comma_netsim::node::IfaceId(0),
        Packet::icmp(
            addr(1),
            addr(2),
            IcmpMessage::EchoRequest {
                id: 7,
                seq: 1,
                payload: Bytes::from_static(b"ping"),
            },
        ),
    );
    sim.run_until(SimTime::from_secs(1));
    let (sent, rcvd) =
        sim.with_node::<Host, _>(b, |h| (h.counters.icmp_out_msgs, h.counters.icmp_in_msgs));
    assert_eq!(rcvd, 1);
    assert_eq!(sent, 1, "echo reply generated");
    let a_in = sim.with_node::<Host, _>(a, |h| h.counters.icmp_in_msgs);
    assert_eq!(a_in, 1, "reply delivered");
}

/// An app exercising UDP binding and app timers.
struct UdpPing {
    peer: (Ipv4Addr, u16),
    got: Vec<Vec<u8>>,
    fired: u32,
}

impl App for UdpPing {
    fn name(&self) -> &str {
        "udp-ping"
    }
    fn on_start(&mut self, ctx: &mut AppCtx) {
        ctx.op(AppOp::BindUdp { port: 4000 });
        ctx.timer(comma_netsim::time::SimDuration::from_millis(100), 1);
    }
    fn on_timer(&mut self, ctx: &mut AppCtx, _token: u64) {
        self.fired += 1;
        ctx.op(AppOp::SendUdp {
            src_port: 4000,
            dst: self.peer,
            payload: Bytes::from(vec![self.fired as u8]),
        });
        if self.fired < 3 {
            ctx.timer(comma_netsim::time::SimDuration::from_millis(100), 1);
        }
    }
    fn on_udp(&mut self, _ctx: &mut AppCtx, _from: (Ipv4Addr, u16), _dst: u16, payload: Bytes) {
        self.got.push(payload.to_vec());
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Echoes UDP datagrams back.
struct UdpEcho;
impl App for UdpEcho {
    fn name(&self) -> &str {
        "udp-echo"
    }
    fn on_start(&mut self, ctx: &mut AppCtx) {
        ctx.op(AppOp::BindUdp { port: 4000 });
    }
    fn on_udp(&mut self, ctx: &mut AppCtx, from: (Ipv4Addr, u16), _dst: u16, payload: Bytes) {
        ctx.op(AppOp::SendUdp {
            src_port: 4000,
            dst: from,
            payload,
        });
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn udp_bind_send_receive_and_timers() {
    let (mut sim, a, b) = pair_with(
        vec![Box::new(UdpPing {
            peer: (addr(2), 4000),
            got: Vec::new(),
            fired: 0,
        })],
        vec![Box::new(UdpEcho)],
    );
    sim.run_until(SimTime::from_secs(2));
    let (got, fired) = sim.with_node::<Host, _>(a, |h| {
        let app = h.app_mut::<UdpPing>(AppId(0));
        (app.got.clone(), app.fired)
    });
    assert_eq!(fired, 3, "timer chain fired three times");
    assert_eq!(
        got,
        vec![vec![1u8], vec![2], vec![3]],
        "all pings echoed in order"
    );
    let no_ports = sim.with_node::<Host, _>(b, |h| h.counters.udp_no_ports);
    assert_eq!(no_ports, 0);
}

#[test]
fn unbound_udp_counted() {
    let (mut sim, a, b) = pair_with(vec![], vec![]);
    sim.inject(
        a,
        comma_netsim::node::IfaceId(0),
        Packet::udp(
            addr(1),
            addr(2),
            UdpDatagram {
                src_port: 1,
                dst_port: 5555,
                payload: Bytes::from_static(b"x"),
            },
        ),
    );
    sim.run_until(SimTime::from_secs(1));
    let no_ports = sim.with_node::<Host, _>(b, |h| h.counters.udp_no_ports);
    assert_eq!(no_ports, 1);
}

#[test]
fn concurrent_connections_demultiplex() {
    // Two clients from the same host to the same server port, plus an
    // interactive stream: all complete and stay separated.
    let (mut sim, a, b) = pair_with(
        vec![
            Box::new(BulkSender::new((addr(2), 9000), 50_000)),
            Box::new(BulkSender::new((addr(2), 9000), 70_000)),
            Box::new(RequestResponse::new((addr(2), 7), 100, 10)),
        ],
        vec![Box::new(Sink::new(9000)), Box::new(EchoServer::new(7))],
    );
    sim.run_until(SimTime::from_secs(20));
    let bytes = sim.with_node::<Host, _>(b, |h| h.app_mut::<Sink>(AppId(0)).bytes_received);
    assert_eq!(bytes, 120_000);
    let completed =
        sim.with_node::<Host, _>(a, |h| h.app_mut::<RequestResponse>(AppId(2)).completed());
    assert_eq!(completed, 10);
    // Each client connection used a distinct ephemeral port.
    let ports = sim.with_node::<Host, _>(a, |h| {
        let infos = h.socket_infos();
        let mut ports: Vec<u16> = infos.iter().map(|i| i.local.1).collect();
        ports.sort_unstable();
        ports.dedup();
        (infos.len(), ports.len())
    });
    assert_eq!(
        ports.0, ports.1,
        "no ephemeral port reuse among live sockets"
    );
}

#[test]
fn curr_estab_tracks_lifecycle() {
    let (mut sim, _a, b) = pair_with(
        vec![Box::new(BulkSender::new((addr(2), 9000), 2_000_000))],
        vec![Box::new(Sink::new(9000))],
    );
    sim.run_until(SimTime::from_millis(500));
    let mid = sim.with_node::<Host, _>(b, |h| h.curr_estab());
    assert_eq!(mid, 1, "connection established mid-transfer");
    sim.run_until(SimTime::from_secs(60));
    let after = sim.with_node::<Host, _>(b, |h| h.curr_estab());
    assert_eq!(after, 0, "connection closed after transfer");
}

/// A TCP segment from `src:5555` to b's port 9000, injected on a's wire.
fn seg_to_b(src: Ipv4Addr, seq: u32, flags: TcpFlags) -> Packet {
    Packet::tcp(src, addr(2), TcpSegment::new(5555, 9000, seq, 0, flags))
}

#[test]
fn passive_open_on_a_closed_tuple_reaches_the_new_socket() {
    // The peer address is not a's, so a discards b's replies and the
    // injected segments are the whole conversation.
    let (mut sim, a, b) = pair_with(vec![], vec![Box::new(Sink::new(9000))]);
    let iface = comma_netsim::node::IfaceId(0);
    let states = |sim: &mut Simulator| {
        sim.with_node::<Host, _>(b, |h| {
            h.socket_infos().iter().map(|i| i.state).collect::<Vec<_>>()
        })
    };
    let mut at = 0;
    let mut step = |sim: &mut Simulator, seq: u32, flags: TcpFlags| {
        sim.inject(a, iface, seg_to_b(addr(9), seq, flags));
        at += 10;
        sim.run_until(SimTime::from_millis(at));
        states(sim)
    };
    assert_eq!(step(&mut sim, 100, TcpFlags::SYN), [TcpState::SynRcvd]);
    assert_eq!(step(&mut sim, 101, TcpFlags::RST), [TcpState::Closed]);
    assert_eq!(
        step(&mut sim, 5000, TcpFlags::SYN),
        [TcpState::Closed, TcpState::SynRcvd],
        "the closed socket does not shadow the listener"
    );
    assert_eq!(
        step(&mut sim, 5001, TcpFlags::RST),
        [TcpState::Closed, TcpState::Closed],
        "the tuple's segments reach the new socket"
    );
    let resets = sim.with_node::<Host, _>(b, |h| h.counters.tcp_estab_resets);
    assert_eq!(resets, 0, "nothing fell through to the unmatched path");
}

#[test]
fn segment_for_a_closed_tuple_without_listener_draws_rst() {
    let (mut sim, a, b) = pair_with(
        vec![Box::new(BulkSender::new((addr(2), 9000), 1000))],
        vec![Box::new(Sink::new(9000))],
    );
    sim.run_until(SimTime::from_secs(300));
    let info = sim.with_node::<Host, _>(a, |h| h.socket_infos()[0].clone());
    assert_eq!(info.state, TcpState::Closed, "past TIME-WAIT");
    let stray = TcpSegment::new(9000, info.local.1, 1, 1, TcpFlags::ACK);
    sim.inject(b, comma_netsim::node::IfaceId(0), Packet::tcp(addr(2), addr(1), stray));
    sim.run_until(SimTime::from_secs(301));
    let resets = sim.with_node::<Host, _>(a, |h| h.counters.tcp_estab_resets);
    assert_eq!(resets, 1, "a closed socket does not swallow its tuple's segments");
}
