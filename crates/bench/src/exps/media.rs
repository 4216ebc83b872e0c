//! E12: hierarchical discard for layered real-time media (§8.3.2).

use comma::media::{MediaSink, MediaSource};
use comma::topology::{addrs, CommaBuilder};
use comma_netsim::link::LinkParams;
use comma_netsim::time::{SimDuration, SimTime};

use super::{world_seed, Claim, Experiment};
use crate::table::{f, Table};

fn run(with_hdiscard: bool, seed: u64) -> ([u64; 3], [f64; 3], u64) {
    // A 3-layer source at ~3x the capacity of a degraded wireless link:
    // 3 layers x 900B every 40 ms ≈ 67.5 KB/s ≈ 540 kbit/s of payload,
    // against a link throttled to 300 kbit/s mid-run.
    let source = MediaSource::new((addrs::MOBILE, 5004), 3, 900, SimDuration::from_millis(40));
    let mut world = CommaBuilder::new(world_seed(612, seed))
        .wireless(
            LinkParams::wireless().with_queue_limit(24 * 1024),
            LinkParams::wireless(),
        )
        .build(vec![Box::new(source)], vec![Box::new(MediaSink::new(5004))]);
    if with_hdiscard {
        world.sp("add hdiscard 0.0.0.0 0 11.11.10.10 5004 adaptive wireless.qlen 3 4000 12000");
    }
    // The wireless link degrades to 300 kbit/s at t=5s.
    let down = world.wireless_ch.0;
    world.sim.at(SimTime::from_secs(5), move |sim| {
        sim.set_link_bandwidth(down, 300_000);
    });
    world.run_until(SimTime::from_secs(35));

    let sink = world.mobile_app_ids[0];
    let (recv, lat) = world.mobile_app::<MediaSink, _>(sink, |s| {
        (
            [
                s.received_by_layer[0],
                s.received_by_layer[1],
                s.received_by_layer[2],
            ],
            [
                s.latency_ms_by_layer[0].mean(),
                s.latency_ms_by_layer[1].mean(),
                s.latency_ms_by_layer[2].mean(),
            ],
        )
    });
    let queue_drops = world.sim.channel(world.wireless_ch.0).stats.queue_drops;
    (recv, lat, queue_drops)
}

/// E12 — base-layer freshness with and without hierarchical discard when
/// the wireless link degrades below the stream rate.
pub fn e12_hierarchical_discard(seed: u64) -> Experiment {
    let mut t = Table::new(
        "E12: hierarchical discard on a degrading link (§8.3.2)",
        &[
            "service",
            "L0 recv",
            "L1 recv",
            "L2 recv",
            "L0 latency ms",
            "L1 latency ms",
            "L2 latency ms",
            "queue drops",
        ],
    );
    let mut arms = Vec::new();
    for with in [false, true] {
        let (recv, lat, drops) = run(with, seed);
        t.row(&[
            if with {
                "hdiscard adaptive".into()
            } else {
                "none".into()
            },
            recv[0].to_string(),
            recv[1].to_string(),
            recv[2].to_string(),
            f(lat[0], 1),
            f(lat[1], 1),
            f(lat[2], 1),
            drops.to_string(),
        ]);
        arms.push((recv[0], lat[0], drops));
    }
    // The base layer arrives sooner (under three quarters of the latency)
    // and no less often, and the drop-tail queue sheds less.
    let [(l0_none, lat_none, drops_none), (l0_with, lat_with, drops_with)] = [arms[0], arms[1]];
    let claim = Claim {
        id: "E12",
        thesis_ref: "§8.3.2",
        statement: "dropping enhancement layers keeps base-layer timing under low QoS",
        holds: lat_with < 0.75 * lat_none && l0_with >= l0_none && drops_with < drops_none,
        evidence: format!(
            "base-layer latency {lat_none:.1} -> {lat_with:.1} ms (bound 0.75x), delivered {l0_none} -> {l0_with}, queue drops {drops_none} -> {drops_with}"
        ),
    };
    t.note("without the service, all layers queue behind the saturated link (high latency, random drops)");
    Experiment::decided(t, vec![claim])
}
