//! Sharded simulation: many wireless cells running in parallel.
//!
//! Each cell — wired host, Service Proxy, lossy wireless link, mobile
//! host — is declared once with `CellSpec` and becomes its own shard;
//! the wired backbone is the shard boundary, and its 10 ms latency is
//! the conservative lookahead that lets every shard run a window of
//! events without waiting on the others. The result is bit-exact with
//! the serial build at any worker count.
//!
//! Run with: `cargo run --release --example sharded_cells`
//! Try:      `cargo run --release --example sharded_cells -- 8` (workers)

use std::time::Instant;

use comma_repro::prelude::*;

fn build(cells: usize, workers: usize) -> ShardedWorld {
    let loss = LossModel::Gilbert {
        p_good_to_bad: 0.02,
        p_bad_to_good: 0.5,
        loss_good: 0.005,
        loss_bad: 0.15,
    };
    let wireless = || LinkParams::wireless().with_loss(loss.clone());
    let mut builder = TopologyBuilder::new(7)
        .backbone(LinkParams::wired().with_latency(SimDuration::from_millis(10)))
        .workers(workers);
    for c in 0..cells {
        builder = builder.cell(
            CellSpec::new(format!("cell{c}"))
                .wireless(wireless(), wireless())
                // Third-party service control, declaratively: the snoop
                // retransmitter guards every cell's wireless hop.
                .filter("add tcp 0.0.0.0 0 {mobile} 0")
                .filter("add snoop 0.0.0.0 0 {mobile} 0")
                .transfer(9000, 100_000)
                .transfer(9001, 100_000),
        );
    }
    builder.build().expect("valid topology")
}

fn main() {
    let cells = 16;
    let workers = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(4);
    let target = (cells as u64) * 2 * 100_000;

    // Serial baseline: workers(1) drives every shard on one thread — it
    // IS the reference event order, not an approximation of it.
    let mut serial = build(cells, 1);
    serial.set_trace_capture(true, 1 << 21);
    let t = Instant::now();
    serial.run_until(SimTime::from_secs(60));
    let serial_wall = t.elapsed();
    assert_eq!(serial.total_delivered(), target);

    let mut sharded = build(cells, workers);
    sharded.set_trace_capture(true, 1 << 21);
    let t = Instant::now();
    sharded.run_until(SimTime::from_secs(60));
    let sharded_wall = t.elapsed();
    assert_eq!(sharded.total_delivered(), target);

    let stats = sharded.stats();
    println!(
        "{cells} cells × 2 flows, {} bytes delivered",
        sharded.total_delivered()
    );
    println!(
        "serial (1 worker): {:>7.1} ms   sharded ({} workers): {:>7.1} ms",
        serial_wall.as_secs_f64() * 1e3,
        workers,
        sharded_wall.as_secs_f64() * 1e3,
    );
    println!(
        "{} sync windows, {} cross-shard packets, {} events",
        stats.windows, stats.xfer_pkts, stats.events
    );

    // The point: parallelism is invisible in the results.
    let (a, b) = (serial.trace_digest(), sharded.trace_digest());
    assert_eq!(a, b, "sharded trace diverged from serial");
    println!("merged trace digest {a:#018x} — identical at 1 and {workers} workers");
}
