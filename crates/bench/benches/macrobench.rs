//! Macro-benchmark: the perf trajectory the repo tracks over time.
//!
//! Drives the event-dominated scheduler workload, a full wired→wireless
//! TCP transfer through a 4-filter proxy chain, the many-flows scale
//! workload (N ∈ {16, 64, 256}, plain and under churn), the sharded
//! `flows_10k` and `metro` workloads, a direct filter-engine dispatch
//! loop, warmed fluid epochs and the experiment suite into one typed
//! [`Snapshot`], then:
//!
//! - writes `BENCH_macro.json` (repo root), the latest snapshot — field
//!   meanings are on [`Snapshot`] and in DESIGN.md "Performance";
//! - appends one entry to `BENCH.json`, the trajectory array;
//! - checks [`Snapshot::gates`], prints every failure and exits non-zero.
//!
//! Run via `cargo bench -p comma-bench --bench macrobench`; set
//! `COMMA_BENCH_FAST=1` for the CI smoke configuration (smaller packet
//! counts and transfers, same report shape).

use std::time::Instant;

use comma::topology::{addrs, CommaBuilder};
use comma_bench::exps;
use comma_bench::scale::{
    event_core_alloc_probe, four_filter_engine, run_event_core, run_many_flows,
    run_many_flows_churn, run_metro, run_sharded_flows, shard_worker_count, sharded_alloc_probe,
    step_fluid, warmed_fluid,
};
use comma_bench::snapshot::Snapshot;
use comma_netsim::packet::{Packet, TcpFlags, TcpSegment};
use comma_netsim::time::SimTime;
use comma_proxy::filter::NullMetrics;
use comma_proxy::ServiceProxy;
use comma_rt::{Bytes, SeedableRng, SmallRng};
use comma_tcp::apps::{BulkSender, Sink};

/// Direct dispatch cost: ns per packet through a 4-filter chain
/// (tcp → snoop → wsize → tcp), no simulator in the loop.
fn engine_ns_per_pkt(pkts: u64) -> f64 {
    let mut engine = four_filter_engine();

    let payload = Bytes::from(vec![0xabu8; 1400]);
    let src = "11.11.10.99".parse().unwrap();
    let dst = "11.11.10.10".parse().unwrap();
    let mut rng = SmallRng::seed_from_u64(1);

    // Prime the flow (queue expansion happens on the first packet).
    let mut seg = TcpSegment::new(7, 1169, 0, 0, TcpFlags::ACK);
    seg.payload = payload.clone();
    engine.process(SimTime::ZERO, &mut rng, &NullMetrics, Packet::tcp(src, dst, seg));

    let t = Instant::now();
    for i in 0..pkts {
        let mut seg = TcpSegment::new(7, 1169, (i as u32).wrapping_mul(1400), 0, TcpFlags::ACK);
        seg.payload = payload.clone();
        let out = engine.process(SimTime::ZERO, &mut rng, &NullMetrics, Packet::tcp(src, dst, seg));
        std::hint::black_box(out);
    }
    t.elapsed().as_nanos() as f64 / pkts as f64
}

/// End-to-end transfer through the standard topology with the same
/// 4-filter chain installed on the Service Proxy. Returns
/// `(pkts_per_sec, events_per_sec, engine_pkts, sim_events)`.
fn end_to_end(bytes: u64) -> (f64, f64, u64, u64) {
    let mut world = CommaBuilder::new(7).eem(false).build(
        vec![Box::new(BulkSender::new((addrs::MOBILE, 9000), bytes as usize))],
        vec![Box::new(Sink::new(9000))],
    );
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");
    world.sp("add snoop 0.0.0.0 0 11.11.10.10 9000");
    world.sp("add wsize 0.0.0.0 0 11.11.10.10 9000 scale 90");
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");

    let t = Instant::now();
    world.run_until(SimTime::from_secs(300));
    let wall = t.elapsed().as_secs_f64();

    let received =
        world.mobile_app::<Sink, _>(world.mobile_app_ids[0], |s| s.bytes_received) as u64;
    assert_eq!(received, bytes, "transfer did not complete within the run window");
    let pkts = world
        .sim
        .with_node::<ServiceProxy, _>(world.proxy, |sp| sp.engine.totals.pkts);
    let events = world.sim.events_processed();
    (pkts as f64 / wall, events as f64 / wall, pkts, events)
}

/// Median of the event-dominated workload's `events_per_sec` over
/// `runs` repetitions (the scheduler-throughput headline).
fn event_core_median(nodes: usize, horizon_ms: u64, runs: usize) -> f64 {
    let mut rates: Vec<f64> =
        (0..runs).map(|_| run_event_core(nodes, horizon_ms, 9).events_per_sec).collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

/// ns per `FluidState::epoch` of a warmed default population of `users`
/// on the metro link: due toggles applied to the maintained sorted active
/// set, then the O(1) underload decision (100 / 1,000 users) or the
/// water-filling walk (10,000 users overload the link).
fn fluid_solver_ns(users: usize) -> f64 {
    let (mut state, mut t) = warmed_fluid(users, 9);
    let iters = 20_000u32;
    let started = Instant::now();
    for _ in 0..iters {
        step_fluid(&mut state, &mut t);
    }
    std::hint::black_box(state.residual_bps());
    started.elapsed().as_nanos() as f64 / iters as f64
}

/// Lines in the `.{ext}` files under `dir`, recursively.
fn count_lines(dir: &std::path::Path, ext: &str) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| e.path())
        .map(|p| {
            if p.is_dir() {
                count_lines(&p, ext)
            } else if p.extension().is_some_and(|x| x == ext) {
                std::fs::read_to_string(&p).map_or(0, |s| s.lines().count())
            } else {
                0
            }
        })
        .sum()
}

/// The `loc` block: source lines per crate (`crates/<name>/src/**/*.rs`)
/// plus `tests/` and `scripts/`, so the size trend sits beside the speed
/// trend.
fn loc(root: &std::path::Path) -> Vec<(String, usize)> {
    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    crates.sort_unstable();
    let mut loc: Vec<(String, usize)> = crates
        .into_iter()
        .map(|c| {
            let lines = count_lines(&root.join("crates").join(&c).join("src"), "rs");
            (c, lines)
        })
        .collect();
    loc.push(("tests".into(), count_lines(&root.join("tests"), "rs")));
    loc.push(("scripts".into(), count_lines(&root.join("scripts"), "sh")));
    loc
}

fn append_trajectory(root: &std::path::Path, entry: &str) {
    let path = root.join("BENCH.json");
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let array = existing.trim().strip_prefix('[').and_then(|s| s.strip_suffix(']'));
    let body = array.unwrap_or("").trim();
    let sep = if body.is_empty() { "" } else { ",\n" };
    std::fs::write(&path, format!("[\n{body}{sep}{entry}\n]\n")).expect("write BENCH.json");
}

fn main() {
    let fast = std::env::var("COMMA_BENCH_FAST").is_ok_and(|v| v == "1");
    let engine_pkts: u64 = if fast { 50_000 } else { 400_000 };
    let transfer_bytes: u64 = if fast { 262_144 } else { 2_097_152 };
    let (core_nodes, core_horizon_ms, core_runs) = if fast { (256, 50, 3) } else { (256, 200, 5) };
    let scale_bytes: usize = if fast { 8_192 } else { 32_768 };

    eprintln!(
        "macrobench: event core ({core_nodes} nodes, {core_horizon_ms} ms, \
         median of {core_runs})..."
    );
    let events_per_sec = event_core_median(core_nodes, core_horizon_ms, core_runs);

    eprintln!("macrobench: engine dispatch ({engine_pkts} pkts, 4-filter chain)...");
    let engine_ns_per_pkt = engine_ns_per_pkt(engine_pkts);

    eprintln!("macrobench: end-to-end transfer ({transfer_bytes} B)...");
    let (pkts_per_sec, transfer_events_per_sec, proxy_pkts, sim_events) =
        end_to_end(transfer_bytes);

    eprintln!("macrobench: many-flows scale workload, plain and churned ({scale_bytes} B/flow)...");
    let mut scale = Vec::new();
    for n in [16usize, 64, 256] {
        scale.push((format!("flows_{n}"), run_many_flows(n, scale_bytes, 42)));
    }
    for n in [16usize, 64, 256] {
        scale.push((format!("flows_churn_{n}"), run_many_flows_churn(n, scale_bytes, 42)));
    }

    let (shard_cells, shard_flows) = (100usize, 100usize);
    let shard_bytes: u64 = if fast { 1_024 } else { 4_096 };
    // Honest parallelism: workers come from the host's actual core count
    // (capped at the 4-worker reference config), and `cores` is reported
    // once at top level — the speedup gate keys off it.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let shard_workers = shard_worker_count();
    // Fixed backbone split so the workload partition (and its golden
    // digest) is host-independent; worker count is the only knob that
    // follows the hardware.
    let shard_backbone = 4usize;
    eprintln!(
        "macrobench: sharded flows_10k workload ({shard_cells} cells × \
         {shard_flows} flows, {shard_bytes} B/flow, {cores} cores)..."
    );
    let run_flows_10k = |workers| {
        run_sharded_flows(shard_cells, shard_flows, shard_bytes, 42, workers, shard_backbone)
    };
    let flows_10k_serial = run_flows_10k(1);
    // With one worker the "parallel" run would be the identical
    // configuration re-measured — any wall-clock delta is cache-warming
    // noise masquerading as speedup — so it is skipped and 1.0 recorded.
    let flows_10k_serial_wall_ms = flows_10k_serial.wall_ms;
    let flows_10k =
        if shard_workers > 1 { run_flows_10k(shard_workers) } else { flows_10k_serial };

    // Metro workload: fg transfers ride a fluid background population whose
    // packets are never simulated — only max-min re-solve epochs on a 10 ms
    // grid. The doubled-population run lets `Snapshot::gates` check that
    // sim_events track epochs, not background packet volume.
    let (metro_cells, metro_bg, metro_fg) = (32usize, 2_000usize, 8usize);
    // Horizons leave room for loss-delayed stragglers (a lost SYN puts a
    // flow a full RTO behind) while staying fixed across the 1x/2x runs so
    // sim_events stay comparable.
    let (metro_bytes, metro_horizon) = if fast { (2_048u64, 6u64) } else { (16_384, 12) };
    eprintln!(
        "macrobench: metro workload ({metro_cells} cells × {metro_bg} bg users + \
         {} fg flows, {metro_bytes} B/flow, {metro_horizon} s horizon), then 2x bg users...",
        metro_cells * metro_fg
    );
    let run_metro_bg = |bg_users| {
        run_metro(metro_cells, bg_users, metro_fg, metro_bytes, metro_horizon, 42, shard_workers)
    };
    let metro = run_metro_bg(metro_bg);
    let metro_sim_events_2x_bg = run_metro_bg(metro_bg * 2).sim_events;

    eprintln!("macrobench: fluid epoch (warmed FluidState::epoch at 100/1k/10k users)...");
    let fluid_solver_ns = [100usize, 1_000, 10_000].map(fluid_solver_ns);

    // The allocation headlines measure the machinery itself on the pinned
    // probe workloads (see DESIGN.md): the serial event core and the
    // sharded window loop, both after a two-simulated-second warmup.
    // flows_10k's node work (TCP bookkeeping, flow teardown) allocates by
    // design and is not what the zero-allocation contract covers.
    let per = |(_warmup, allocs, n): (u64, u64, u64)| allocs as f64 / n.max(1) as f64;
    let counting = comma_rt::alloc::enabled();
    let allocs_per_event = counting.then(|| per(event_core_alloc_probe(32, 7)));
    let allocs_per_window = counting.then(|| per(sharded_alloc_probe(4, shard_workers, 7)));

    eprintln!("macrobench: experiment suite...");
    let t = Instant::now();
    std::hint::black_box(exps::run_all(0));
    let exps_wall_ms = t.elapsed().as_secs_f64() * 1e3;

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let snapshot = Snapshot {
        fast,
        cores,
        allocs_per_event,
        allocs_per_window,
        event_core_nodes: core_nodes,
        events_per_sec,
        engine_pkts,
        engine_ns_per_pkt,
        transfer_bytes,
        proxy_pkts,
        pkts_per_sec,
        sim_events,
        transfer_events_per_sec,
        scale,
        flows_10k,
        flows_10k_serial_wall_ms,
        metro,
        metro_sim_events_2x_bg,
        fluid_solver_ns,
        exps_wall_ms,
        loc: loc(&root),
    };
    let unix_ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let rendered = snapshot.to_json().render();
    std::fs::write(root.join("BENCH_macro.json"), format!("{rendered}\n"))
        .expect("write BENCH_macro.json");
    append_trajectory(&root, &format!("  {}", snapshot.trajectory_entry(unix_ts).render()));
    println!("{rendered}");
    eprintln!("macrobench: wrote BENCH_macro.json and appended BENCH.json");

    let failed = snapshot.gates();
    for failure in &failed {
        eprintln!("macrobench gate FAILED: {failure}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
    eprintln!("macrobench: all gates ok");
}
