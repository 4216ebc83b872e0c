//! E11: monitor-generated traffic (§6.1.2) — per-metric client polling vs
//! server-push periodic updates vs interrupt notifications.

use std::any::Any;

use comma_rt::Bytes;
use comma_eem::{Attr, EemClient, EemServer, MetricsHub, Mode, Operator, Value, VarId};
use comma_netsim::link::LinkParams;
use comma_netsim::prelude::*;
use comma_netsim::time::SimDuration;
use comma_tcp::apps::{App, AppCtx};
use comma_tcp::host::Host;

use super::{world_seed, Claim, Experiment};
use crate::table::{n, Table};

const METRICS: [&str; 5] = [
    "cpuLoadAvg",
    "netLatency",
    "bytes_rx",
    "bytes_tx",
    "tcpCurrEstab",
];

/// A client that polls each metric once per second (the active approach
/// the thesis argues against).
struct Poller {
    client: EemClient,
    interval: SimDuration,
}

impl Poller {
    fn new(server: Ipv4Addr) -> Self {
        Poller {
            client: EemClient::new(5001, server),
            interval: SimDuration::from_secs(1),
        }
    }

    fn poll_all(&mut self, ctx: &mut AppCtx) {
        for name in METRICS {
            let id = VarId::named(name).expect("known var");
            let mut attr = Attr::init();
            attr.set_lbound(Value::Double(f64::MIN));
            attr.set_operator(Operator::Gte).expect("op");
            let _ = self.client.query_getvalue_once(ctx, &id, &attr);
        }
    }
}

impl App for Poller {
    fn name(&self) -> &str {
        "poller"
    }
    fn on_start(&mut self, ctx: &mut AppCtx) {
        self.client.init(ctx);
        ctx.timer(self.interval, 1);
    }
    fn on_timer(&mut self, ctx: &mut AppCtx, _token: u64) {
        self.poll_all(ctx);
        ctx.timer(self.interval, 1);
    }
    fn on_udp(&mut self, _ctx: &mut AppCtx, from: (Ipv4Addr, u16), dst: u16, payload: Bytes) {
        self.client.handle_udp(from, dst, &payload);
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A client using server-push registrations (periodic or interrupt).
struct Pusher {
    client: EemClient,
    mode: Mode,
}

impl App for Pusher {
    fn name(&self) -> &str {
        "pusher"
    }
    fn on_start(&mut self, ctx: &mut AppCtx) {
        self.client.init(ctx);
        for name in METRICS {
            let id = VarId::named(name).expect("known var");
            let mut attr = Attr::init();
            match self.mode {
                Mode::Interrupt => {
                    // Only interested in an alarm condition.
                    attr.set_lbound(Value::Double(0.9));
                    attr.set_operator(Operator::Gte).expect("op");
                }
                _ => {
                    attr.set_lbound(Value::Double(f64::MIN));
                    attr.set_operator(Operator::Gte).expect("op");
                }
            }
            let _ = self.client.var_register(ctx, &id, &attr, self.mode);
        }
    }
    fn on_udp(&mut self, _ctx: &mut AppCtx, from: (Ipv4Addr, u16), dst: u16, payload: Bytes) {
        self.client.handle_udp(from, dst, &payload);
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

fn run(style: &str, seed: u64) -> (u64, u64) {
    let mut sim = Simulator::new(world_seed(611, seed));
    let server_addr: Ipv4Addr = "11.11.10.1".parse().unwrap();
    let client_addr: Ipv4Addr = "11.11.10.10".parse().unwrap();
    let hub = MetricsHub::shared();
    // Metrics change every 5 s (two of the five each time).
    for t in 0..=100u64 {
        let hub = hub.clone();
        sim.at(SimTime::from_secs(t), move |_| {
            let mut h = hub.lock().unwrap();
            h.set("gw", "cpuLoadAvg", Value::Double((t % 10) as f64 / 10.0));
            h.set("gw", "netLatency", Value::Double(5.0 + (t / 5) as f64));
            h.set("gw", "bytes_rx", Value::Long((t / 5) as i64 * 1000));
            h.set("gw", "bytes_tx", Value::Long(42));
            h.set("gw", "tcpCurrEstab", Value::Long(3));
        });
    }
    let mut server_host = Host::new("gw", server_addr);
    server_host.add_app(Box::new(EemServer::new("gw", hub.clone())));
    let mut client_host = Host::new("mobile", client_addr);
    match style {
        "poll" => {
            client_host.add_app(Box::new(Poller::new(server_addr)));
        }
        "periodic" => {
            client_host.add_app(Box::new(Pusher {
                client: EemClient::new(5001, server_addr),
                mode: Mode::Periodic,
            }));
        }
        "interrupt" => {
            client_host.add_app(Box::new(Pusher {
                client: EemClient::new(5001, server_addr),
                mode: Mode::Interrupt,
            }));
        }
        _ => unreachable!(),
    }
    let s = sim.add_node(Box::new(server_host));
    let c = sim.add_node(Box::new(client_host));
    // The monitor traffic crosses the wireless link — exactly the resource
    // §6.1.2 wants to spare.
    let (down, up) = sim.connect(s, c, LinkParams::wireless(), LinkParams::wireless());
    sim.run_until(SimTime::from_secs(100));
    let bytes = sim.channel(down).stats.delivered_bytes + sim.channel(up).stats.delivered_bytes;
    let pkts = sim.channel(down).stats.delivered_pkts + sim.channel(up).stats.delivered_pkts;
    (bytes, pkts)
}

/// E11 — wireless bytes spent on monitoring, per notification style.
pub fn e11_monitor_traffic(seed: u64) -> Experiment {
    let mut t = Table::new(
        "E11: monitor-generated wireless traffic, 5 metrics over 100 s (§6.1.2)",
        &["style", "wireless bytes", "wireless pkts"],
    );
    let mut bytes = Vec::new();
    for style in ["poll", "periodic", "interrupt"] {
        let (b, pkts) = run(style, seed);
        t.row(&[style.to_string(), n(b), n(pkts)]);
        bytes.push(b);
    }
    // "Far less": each push style spends under a tenth of polling's bytes.
    let (poll, periodic, interrupt) = (bytes[0], bytes[1], bytes[2]);
    let claim = Claim {
        id: "E11",
        thesis_ref: "§6.1.2",
        statement: "server-push (periodic/interrupt) ≪ per-metric polling",
        holds: 10 * periodic < poll && 10 * interrupt < poll,
        evidence: format!(
            "polling spends {:.0}x the bytes of periodic push and {:.0}x those of interrupts (bound 10x)",
            poll as f64 / periodic as f64,
            poll as f64 / interrupt as f64
        ),
    };
    Experiment::decided(t, vec![claim])
}
