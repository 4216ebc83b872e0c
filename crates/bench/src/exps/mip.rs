//! E09/E10: Mobile IP behaviour — triangular routing and handoff loss
//! (§2.1) — with the proposed remedies (binding caches; forward-on-
//! handoff).

use comma_mobileip::{ForeignAgent, HandoffPolicy, HomeAgent, MobileHost};
use comma_netsim::link::{ChannelId, LinkParams};
use comma_netsim::node::{IfaceId, NodeId};
use comma_netsim::prelude::*;
use comma_netsim::routing::RoutingTable;
use comma_netsim::time::SimDuration;
use comma_tcp::apps::{BulkSender, EchoServer, RequestResponse, Sink};
use comma_tcp::host::Host;

use super::{world_seed, Claim, Experiment};
use crate::table::{f, n, Table};

/// The Mobile IP testbed: correspondent — gateway — {HA (far), FA1, FA2}.
pub struct MipWorld {
    /// The simulator.
    pub sim: Simulator,
    /// Correspondent host.
    pub corr: NodeId,
    /// Mobile host node.
    pub mobile: NodeId,
    /// Home agent.
    pub ha: NodeId,
    /// Foreign agents.
    pub fa1: NodeId,
    /// Second foreign agent.
    pub fa2: NodeId,
    /// Wireless channel pairs per FA cell.
    pub w1: (ChannelId, ChannelId),
    /// Second cell.
    pub w2: (ChannelId, ChannelId),
}

/// Builds the testbed. `ha_detour` sets the extra one-way latency of the
/// gateway↔HA link (a "distant" home network); `route_opt` turns on HA
/// binding updates plus a caching gateway; `forward` sets the old-FA
/// forwarding policy.
pub fn build(
    seed: u64,
    ha_detour: SimDuration,
    route_opt: bool,
    forward: bool,
    corr_apps: Vec<Box<dyn comma_tcp::App>>,
    mobile_apps: Vec<Box<dyn comma_tcp::App>>,
) -> MipWorld {
    let mut sim = Simulator::new(seed);
    let corr_addr: Ipv4Addr = "11.11.5.1".parse().unwrap();
    let ha_addr: Ipv4Addr = "11.11.1.1".parse().unwrap();
    let fa1_addr: Ipv4Addr = "11.11.20.1".parse().unwrap();
    let fa2_addr: Ipv4Addr = "11.11.30.1".parse().unwrap();
    let mobile_home: Ipv4Addr = "11.11.1.10".parse().unwrap();

    let mut corr_host = Host::new("corr", corr_addr);
    for app in corr_apps {
        corr_host.add_app(app);
    }
    let corr = sim.add_node(Box::new(corr_host));

    let mut gw_table = RoutingTable::new();
    gw_table.add("11.11.5.0/24".parse().unwrap(), IfaceId(0));
    gw_table.add("11.11.1.0/24".parse().unwrap(), IfaceId(1));
    gw_table.add("11.11.20.0/24".parse().unwrap(), IfaceId(2));
    gw_table.add("11.11.30.0/24".parse().unwrap(), IfaceId(3));
    let gw: NodeId = if route_opt {
        sim.add_node(Box::new(comma_mobileip::BindingCacheRouter::new(
            "gw",
            vec!["11.11.5.254".parse().unwrap()],
            gw_table,
        )))
    } else {
        sim.add_node(Box::new(Router::new(
            "gw",
            vec!["11.11.5.254".parse().unwrap()],
            gw_table,
        )))
    };

    let mut ha_table = RoutingTable::new();
    ha_table.add_default(IfaceId(0));
    let mut ha_node = HomeAgent::new("ha", ha_addr, ha_table);
    ha_node.route_optimization = route_opt;
    ha_node.notify_old_fa = forward;
    let ha = sim.add_node(Box::new(ha_node));

    let mut fa_table = RoutingTable::new();
    fa_table.add_default(IfaceId(0));
    let mut fa1_node = ForeignAgent::new("fa1", fa1_addr, fa_table.clone());
    fa1_node.advertise_ifaces = vec![IfaceId(1)];
    fa1_node.policy = if forward {
        HandoffPolicy::Forward
    } else {
        HandoffPolicy::Drop
    };
    let fa1 = sim.add_node(Box::new(fa1_node));
    let mut fa2_node = ForeignAgent::new("fa2", fa2_addr, fa_table);
    fa2_node.advertise_ifaces = vec![IfaceId(1)];
    fa2_node.policy = if forward {
        HandoffPolicy::Forward
    } else {
        HandoffPolicy::Drop
    };
    let fa2 = sim.add_node(Box::new(fa2_node));

    let mut mhost = Host::new("mobile", mobile_home);
    for app in mobile_apps {
        mhost.add_app(app);
    }
    let mobile = sim.add_node(Box::new(MobileHost::new(mhost, ha_addr)));

    sim.connect(corr, gw, LinkParams::wired(), LinkParams::wired());
    let ha_link = LinkParams::wired().with_latency(ha_detour);
    sim.connect(gw, ha, ha_link.clone(), ha_link);
    sim.connect(gw, fa1, LinkParams::wired(), LinkParams::wired());
    sim.connect(gw, fa2, LinkParams::wired(), LinkParams::wired());
    let w1 = sim.connect(fa1, mobile, LinkParams::wireless(), LinkParams::wireless());
    let w2 = sim.connect(fa2, mobile, LinkParams::wireless(), LinkParams::wireless());
    sim.channel_mut(w2.0).params.up = false;
    sim.channel_mut(w2.1).params.up = false;
    let _ = gw;
    MipWorld {
        sim,
        corr,
        mobile,
        ha,
        fa1,
        fa2,
        w1,
        w2,
    }
}

/// E09 — triangular routing: the HA detour inflates mobile-bound latency;
/// a binding cache at the correspondent's gateway removes it.
pub fn e09_triangular_routing(seed: u64) -> Experiment {
    let mut t = Table::new(
        "E09: triangular routing (§2.1, Fig 2.1)",
        &[
            "HA detour (one-way)",
            "route optimization",
            "mean transaction ms",
            "via HA pkts",
            "direct pkts",
        ],
    );
    let mut cells = Vec::new();
    for detour_ms in [5u64, 50] {
        for route_opt in [false, true] {
            let client = RequestResponse::new(("11.11.5.1".parse().unwrap(), 7), 200, 30)
                .with_think_time(SimDuration::from_millis(100));
            let mut w = build(
                world_seed(609, seed),
                SimDuration::from_millis(detour_ms),
                route_opt,
                false,
                vec![Box::new(EchoServer::new(7))],
                vec![Box::new(client)],
            );
            w.sim.run_until(SimTime::from_secs(60));
            let mean = w.sim.with_node::<MobileHost, _>(w.mobile, |m| {
                m.host
                    .app_mut::<RequestResponse>(comma_tcp::host::AppId(0))
                    .latencies_ms
                    .mean()
            });
            let tunneled = w.sim.with_node::<HomeAgent, _>(w.ha, |h| h.tunneled);
            let direct = if route_opt {
                w.sim
                    .with_node::<comma_mobileip::BindingCacheRouter, _>(NodeId(1), |r| r.optimized)
            } else {
                0
            };
            t.row(&[
                format!("{detour_ms} ms"),
                if route_opt { "yes".into() } else { "no".into() },
                f(mean, 1),
                n(tunneled),
                n(direct),
            ]);
            cells.push((mean, tunneled, direct));
        }
    }
    // Rows: (5 ms, off), (5 ms, on), (50 ms, off), (50 ms, on). Without
    // caches nothing goes direct; with them all but the first packet does,
    // so the far detour costs the cached path nothing.
    let [near_off, near_on, far_off, far_on] = [cells[0], cells[1], cells[2], cells[3]];
    let claim = Claim {
        id: "E09",
        thesis_ref: "§2.1",
        statement: "all mobile-bound traffic detours via the HA; binding caches fix it",
        holds: [near_off, far_off].iter().all(|c| c.1 > 0 && c.2 == 0)
            && [near_on, far_on].iter().all(|c| c.1 <= 1 && c.2 > 0)
            && far_off.0 > 2.0 * far_on.0
            && far_on.0 < 1.1 * near_on.0,
        evidence: format!(
            "uncached {} + {} packets via the HA, 0 direct; cached {} + {} via the HA; 50 ms detour {:.1} -> {:.1} ms, cached 5 ms detour {:.1} ms",
            near_off.1, far_off.1, near_on.1, far_on.1, far_off.0, far_on.0, near_on.0
        ),
    };
    Experiment::decided(t, vec![claim])
}

/// E10 — handoff loss: packets in flight to the old FA are dropped (or
/// forwarded, with the binding-update extension), and TCP stalls follow.
pub fn e10_handoff_loss(seed: u64) -> Experiment {
    let mut t = Table::new(
        "E10: packet fate across handoff (§2.1)",
        &[
            "old-FA policy",
            "lost in old cell",
            "dropped at old FA",
            "re-forwarded",
            "longest stall s",
            "completion s",
        ],
    );
    let mut arms = Vec::new();
    for forward in [false, true] {
        let sender = BulkSender::new(("11.11.1.10".parse().unwrap(), 9000), 1_000_000);
        let sink = Sink::new(9000);
        let mut w = build(
            world_seed(610, seed),
            SimDuration::from_millis(5),
            false,
            forward,
            vec![Box::new(sender)],
            vec![Box::new(sink)],
        );
        // Sample sink arrivals to find the longest stall around handoff.
        let (w1, w2) = (w.w1, w.w2);
        w.sim.at(SimTime::from_secs(4), move |sim| {
            sim.channel_mut(w1.0).params.up = false;
            sim.channel_mut(w1.1).params.up = false;
            sim.channel_mut(w2.0).params.up = true;
            sim.channel_mut(w2.1).params.up = true;
        });
        let mut last_bytes = 0usize;
        let mut last_progress = 0.0f64;
        let (mut longest_stall, mut handoff_stall) = (0.0f64, 0.0f64);
        let mut completion = f64::NAN;
        for tick in 1..=1200u64 {
            let now = SimTime::from_millis(tick * 100);
            w.sim.run_until(now);
            let bytes = w.sim.with_node::<MobileHost, _>(w.mobile, |m| {
                m.host
                    .app_mut::<Sink>(comma_tcp::host::AppId(0))
                    .bytes_received
            });
            let t_now = now.as_secs_f64();
            if bytes > last_bytes {
                last_bytes = bytes;
                if t_now - last_progress > longest_stall {
                    longest_stall = t_now - last_progress;
                }
                // The gap that spans the move, not the start-up one.
                if t_now > 4.0 {
                    handoff_stall = handoff_stall.max(t_now - last_progress);
                }
                last_progress = t_now;
            }
            if bytes >= 1_000_000 {
                completion = t_now;
                break;
            }
        }
        let dropped = w.sim.with_node::<ForeignAgent, _>(w.fa1, |f| f.dropped);
        let reforwarded = w.sim.with_node::<ForeignAgent, _>(w.fa1, |f| f.reforwarded);
        // Packets transmitted into the dead cell before the old FA learns
        // of the move are lost on the downed wireless channel.
        let lost_in_cell = w.sim.channel(w1.0).stats.down_drops;
        t.row(&[
            if forward {
                "forward to new FA".into()
            } else {
                "drop (default)".into()
            },
            n(lost_in_cell),
            n(dropped),
            n(reforwarded),
            f(longest_stall, 1),
            f(completion, 1),
        ]);
        let row = (
            lost_in_cell,
            dropped,
            reforwarded,
            longest_stall,
            completion,
        );
        arms.push((row, handoff_stall));
    }
    // The drop arm decides: packets die, delivery stalls across the move
    // for at least two 100 ms samples, and TCP still delivers every byte.
    let [(drop_row, stall), (fwd_row, _)] = [arms[0], arms[1]];
    let (lost, done) = (drop_row.0 + drop_row.1, drop_row.4);
    let claim = Claim {
        id: "E10",
        thesis_ref: "§2.1",
        statement: "packets in transit to the old FA are lost and higher layers must recover",
        holds: lost > 0 && stall > 0.15 && done.is_finite() && fwd_row.4.is_finite(),
        evidence: format!(
            "drop arm loses {lost} packets, stalls {stall:.1} s across the move, completes at {done:.1} s; forward arm re-forwards {} packets{}",
            fwd_row.2,
            if fwd_row == drop_row { ", so its row equals the drop arm's" } else { "" }
        ),
    };
    t.note("the stall is dominated by movement detection (advert interval) plus TCP recovery");
    Experiment::decided(t, vec![claim])
}
