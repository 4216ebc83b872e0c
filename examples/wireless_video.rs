//! Layered real-time video over a degrading wireless link, with and
//! without the adaptive hierarchical-discard service (§8.3.2) — the
//! workload class the thesis's introduction motivates.
//!
//! Run with: `cargo run --example wireless_video`

use comma_repro::prelude::*;

fn run(with_service: bool) {
    let source = MediaSource::new((addrs::MOBILE, 5004), 3, 900, SimDuration::from_millis(40));
    let mut world = CommaBuilder::new(99)
        .wireless(
            LinkParams::wireless().with_queue_limit(24 * 1024),
            LinkParams::wireless(),
        )
        .build(vec![Box::new(source)], vec![Box::new(MediaSink::new(5004))]);

    if with_service {
        // A third party (not the video application!) arms the adaptive
        // service: drop layer 2 when the wireless queue exceeds 4 KB, and
        // layer 1 as well beyond 12 KB.
        world.sp("add hdiscard 0.0.0.0 0 11.11.10.10 5004 adaptive wireless.qlen 3 4000 12000");
    }

    // The link degrades mid-session: 1 Mbit/s → 300 kbit/s.
    let down = world.wireless_ch.0;
    world.sim.at(SimTime::from_secs(5), move |sim| {
        sim.set_link_bandwidth(down, 300_000);
    });
    world.run_until(SimTime::from_secs(35));

    let sink = world.mobile_app_ids[0];
    println!(
        "--- {} ---",
        if with_service {
            "with hdiscard (adaptive)"
        } else {
            "no service"
        }
    );
    world.mobile_app::<MediaSink, _>(sink, |s| {
        for layer in 0..3 {
            println!(
                "  layer {layer}: {:4} frames, mean latency {:7.1} ms",
                s.received_by_layer[layer],
                s.latency_ms_by_layer[layer].mean()
            );
        }
    });
    let drops = world.sim.channel(world.wireless_ch.0).stats.queue_drops;
    println!("  wireless queue drops (indiscriminate): {drops}");
}

fn main() {
    println!("3-layer video at ~540 kbit/s; the wireless link drops to 300 kbit/s at t=5s\n");
    run(false);
    run(true);
    println!();
    println!("The service sacrifices the enhancement layers deliberately, keeping the");
    println!("base layer fresh — instead of random queue drops hitting every layer.");
}
