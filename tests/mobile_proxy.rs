//! The full architecture in one scenario: Mobile IP mobility underneath,
//! Service Proxies at each cell's gateway, and proxy-state handoff
//! (§10.2.3) moving the service configuration as the mobile moves.
//!
//! Topology:
//!
//! ```text
//! corr ── gw ──┬── HA
//!              ├── SP1 ── FA1 ──(cell 1)── mobile
//!              └── SP2 ── FA2 ──(cell 2)────┘
//! ```

use comma_netsim::prelude::*;
use comma_repro::prelude::*;

struct World {
    sim: Simulator,
    mobile: NodeId,
    sp1: NodeId,
    sp2: NodeId,
    w1: (ChannelId, ChannelId),
    w2: (ChannelId, ChannelId),
}

fn addr(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

fn build(seed: u64) -> World {
    let mut sim = Simulator::new(seed);
    let corr_addr = addr("11.11.5.1");
    let ha_addr = addr("11.11.1.1");
    let fa1_addr = addr("11.11.20.1");
    let fa2_addr = addr("11.11.30.1");
    let mobile_home = addr("11.11.1.10");

    let mut corr = Host::new("corr", corr_addr);
    corr.add_app(Box::new(BulkSender::new((mobile_home, 9000), 1_200_000)));
    let corr = sim.add_node(Box::new(corr));

    let mut gw_table = RoutingTable::new();
    gw_table.add("11.11.5.0/24".parse().unwrap(), IfaceId(0));
    gw_table.add("11.11.1.0/24".parse().unwrap(), IfaceId(1));
    gw_table.add("11.11.20.0/24".parse().unwrap(), IfaceId(2));
    gw_table.add("11.11.30.0/24".parse().unwrap(), IfaceId(3));
    let gw = sim.add_node(Box::new(Router::new(
        "gw",
        vec![addr("11.11.5.254")],
        gw_table,
    )));

    let mut ha_table = RoutingTable::new();
    ha_table.add_default(IfaceId(0));
    let ha = sim.add_node(Box::new(HomeAgent::new("ha", ha_addr, ha_table)));

    // Service proxies sit between the gateway and each FA: the routing
    // bottleneck of their cell (§5.1.1).
    let mut sp_table = RoutingTable::new();
    sp_table.add_default(IfaceId(0)); // Toward the gateway.
    sp_table.add("11.11.20.0/24".parse().unwrap(), IfaceId(1));
    let sp1 = sim.add_node(Box::new(ServiceProxy::new(
        "sp1",
        vec![addr("11.11.20.2")],
        sp_table,
        FilterEngine::new(standard_catalog(comma_filters::ALL_FILTERS)),
        seed,
    )));
    let mut sp_table = RoutingTable::new();
    sp_table.add_default(IfaceId(0));
    sp_table.add("11.11.30.0/24".parse().unwrap(), IfaceId(1));
    let sp2 = sim.add_node(Box::new(ServiceProxy::new(
        "sp2",
        vec![addr("11.11.30.2")],
        sp_table,
        FilterEngine::new(standard_catalog(comma_filters::ALL_FILTERS)),
        seed ^ 1,
    )));

    let mut fa_table = RoutingTable::new();
    fa_table.add_default(IfaceId(0));
    let mut fa1_node = ForeignAgent::new("fa1", fa1_addr, fa_table.clone());
    fa1_node.advertise_ifaces = vec![IfaceId(1)];
    let fa1 = sim.add_node(Box::new(fa1_node));
    let mut fa2_node = ForeignAgent::new("fa2", fa2_addr, fa_table);
    fa2_node.advertise_ifaces = vec![IfaceId(1)];
    let fa2 = sim.add_node(Box::new(fa2_node));

    let mut mhost = Host::new("mobile", mobile_home);
    mhost.add_app(Box::new(Sink::new(9000)));
    let mobile = sim.add_node(Box::new(MobileHost::new(mhost, ha_addr)));

    sim.connect(corr, gw, LinkParams::wired(), LinkParams::wired());
    sim.connect(gw, ha, LinkParams::wired(), LinkParams::wired());
    sim.connect(gw, sp1, LinkParams::wired(), LinkParams::wired());
    sim.connect(gw, sp2, LinkParams::wired(), LinkParams::wired());
    sim.connect(sp1, fa1, LinkParams::wired(), LinkParams::wired());
    sim.connect(sp2, fa2, LinkParams::wired(), LinkParams::wired());
    let w1 = sim.connect(fa1, mobile, LinkParams::wireless(), LinkParams::wireless());
    let w2 = sim.connect(fa2, mobile, LinkParams::wireless(), LinkParams::wireless());
    sim.channel_mut(w2.0).params.up = false;
    sim.channel_mut(w2.1).params.up = false;
    World {
        sim,
        mobile,
        sp1,
        sp2,
        w1,
        w2,
    }
}

#[test]
fn services_follow_the_mobile_across_cells() {
    let mut w = build(91);

    // The user arms snoop + housekeeping for the mobile at the current
    // cell's proxy.
    let now = w.sim.now();
    w.sim.with_node::<ServiceProxy, _>(w.sp1, |sp| {
        sp.exec(now, "add tcp 0.0.0.0 0 11.11.1.10 0");
        sp.exec(now, "add snoop 0.0.0.0 0 11.11.1.10 0");
    });

    w.sim.run_until(SimTime::from_secs(3));
    let sp1_pkts = w
        .sim
        .with_node::<ServiceProxy, _>(w.sp1, |sp| sp.engine.totals.pkts);
    assert!(
        sp1_pkts > 0,
        "cell-1 proxy is filtering the tunneled stream"
    );

    // The mobile moves; the operator transfers the service configuration.
    let (w1, w2) = (w.w1, w.w2);
    w.sim.at(SimTime::from_secs(3), move |sim| {
        sim.channel_mut(w1.0).params.up = false;
        sim.channel_mut(w1.1).params.up = false;
        sim.channel_mut(w2.0).params.up = true;
        sim.channel_mut(w2.1).params.up = true;
    });
    w.sim.run_until(SimTime::from_millis(3_100));
    let report = transfer_services(&mut w.sim, w.sp1, w.sp2);
    assert_eq!(report.moved, 2);
    assert_eq!(report.rejected, 0);

    w.sim.run_until(SimTime::from_secs(120));

    // The transfer completed over the new path, serviced by SP2.
    let bytes = w.sim.with_node::<MobileHost, _>(w.mobile, |m| {
        m.host.app_mut::<Sink>(AppId(0)).bytes_received
    });
    assert_eq!(bytes, 1_200_000);
    // SP2 serviced the stream, and the stream's close tore its chain down.
    let (sp2_pkts, sp2_closes, sp2_live) = w.sim.with_node::<ServiceProxy, _>(w.sp2, |sp| {
        let closes = sp.engine.log.iter().filter(|l| l.ends_with("closed; filters removed"));
        (sp.engine.totals.pkts, closes.count(), sp.engine.live_instances())
    });
    assert!(sp2_pkts > 0, "the new proxy saw the stream");
    assert_eq!(sp2_closes, 1, "the chain instantiated at the new proxy closed once");
    assert_eq!(sp2_live, 0, "a finished stream leaves no instance at the new proxy");
    let sp1_regs = w
        .sim
        .with_node::<ServiceProxy, _>(w.sp1, |sp| sp.engine.registrations().len());
    assert_eq!(sp1_regs, 0, "old proxy relinquished the services");
    let handoffs = w.sim.with_node::<MobileHost, _>(w.mobile, |m| m.handoffs);
    assert_eq!(handoffs, 1);
}

#[test]
fn snoop_at_cell_proxy_helps_lossy_cell() {
    // Make cell 1's wireless leg lossy; compare with/without the snoop
    // service at that cell's proxy.
    fn run(seed: u64, with_snoop: bool) -> f64 {
        let mut w = build(seed);
        let (down, _up) = w.w1;
        w.sim.channel_mut(down).params.loss = comma_netsim::link::LossModel::Uniform { p: 0.08 };
        if with_snoop {
            let now = w.sim.now();
            w.sim.with_node::<ServiceProxy, _>(w.sp1, |sp| {
                sp.exec(now, "add snoop 0.0.0.0 0 11.11.1.10 0");
            });
        }
        w.sim.run_until(SimTime::from_secs(300));
        let (bytes, at) = w.sim.with_node::<MobileHost, _>(w.mobile, |m| {
            let s = m.host.app_mut::<Sink>(AppId(0));
            (s.bytes_received, s.last_data_at)
        });
        assert_eq!(bytes, 1_200_000, "with_snoop={with_snoop}");
        at.expect("finished").as_secs_f64()
    }
    let plain = run(92, false);
    let snooped = run(92, true);
    assert!(
        snooped < plain,
        "snoop at the cell proxy speeds the lossy cell: {snooped:.1}s vs {plain:.1}s"
    );
    let _ = SimDuration::from_secs(1);
}
