//! Macro-benchmark: the perf trajectory the repo tracks over time.
//!
//! Drives the event-dominated scheduler workload, a full wired→wireless
//! TCP transfer through a 4-filter proxy chain, the many-flows scale
//! workload (N ∈ {16, 64, 256} concurrent transfers through a filtered
//! proxy over a lossy wireless link), a direct filter-engine dispatch
//! loop, and the experiment suite (serial vs parallel), then writes:
//!
//! - `BENCH_macro.json` (repo root) — the latest snapshot. Headlines:
//!   `events_per_sec` (median scheduler throughput on the event-dominated
//!   workload, where node work is negligible), `pkts_per_sec`,
//!   `engine_ns_per_pkt`, the per-N `scale` block, the `metro` block
//!   (foreground transfers over a fluid background population, plus a
//!   doubled-population run proving sim_events track epochs rather than
//!   background packet volume), `fluid_solver_ns`, and `exps_wall_ms`.
//!   The transfer-derived rate is reported as `transfer_events_per_sec`;
//!   it is *not* the scheduler headline because timer cancellation
//!   removes cheap events from both numerator and wall time, so it can
//!   move either way while real throughput improves. The `events_per_sec`
//!   inside the `scale` and `metro` blocks is the same kind of figure:
//!   there `wall_ms` is the speed number and `events_per_link_pkt`
//!   (events per packet offered to a link, exact per seed) the one CI
//!   gates on.
//! - `BENCH.json` (repo root) — the append-only trajectory array.
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
    step_fluid, warmed_fluid, ScaleResult,
};
use comma_netsim::packet::{Packet, TcpFlags, TcpSegment};
use comma_netsim::time::SimTime;
use comma_proxy::filter::NullMetrics;
use comma_proxy::ServiceProxy;
use comma_rt::{Bytes, SeedableRng, SmallRng};
use comma_tcp::apps::{BulkSender, Sink};

/// The per-N fields of the `scale` block. `wall_ms` and the exact
/// `events_per_link_pkt` lead; `events_per_sec` is kept as a scheduler
/// figure (it falls when cheap events are removed, while wall improves).
fn scale_fields(r: &ScaleResult) -> String {
    format!(
        "\"wall_ms\": {:.1}, \"events_per_link_pkt\": {:.3}, \"sim_events\": {}, \
         \"link_pkts\": {}, \"events_per_sec\": {:.1}",
        r.wall_ms, r.events_per_link_pkt, r.sim_events, r.link_pkts, r.events_per_sec
    )
}

fn fast_mode() -> bool {
    std::env::var("COMMA_BENCH_FAST").map(|v| v == "1").unwrap_or(false)
}

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
/// `(pkts_per_sec, events_per_sec, engine_pkts, sim_events, bytes_received)`.
fn end_to_end(bytes: u64) -> (f64, f64, u64, u64, u64) {
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
    (
        pkts as f64 / wall,
        events as f64 / wall,
        pkts,
        events,
        received,
    )
}

/// Median of the event-dominated workload's `events_per_sec` over
/// `runs` repetitions (the scheduler-throughput headline).
fn event_core_median(nodes: usize, horizon_ms: u64, runs: usize) -> (f64, u64) {
    let mut rates: Vec<f64> = Vec::with_capacity(runs);
    let mut events = 0u64;
    for _ in 0..runs {
        let r = run_event_core(nodes, horizon_ms, 9);
        events = r.sim_events;
        rates.push(r.events_per_sec);
    }
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (rates[rates.len() / 2], events)
}

/// Experiment-suite wall clock, serial vs parallel; asserts the rendered
/// reports are byte-identical. On a 1-worker host `run_all` degenerates to
/// the identical serial run, so re-measuring it would report cache-warming
/// noise as a phantom speedup — the duplicate run is skipped and `None`
/// (rendered as `"speedup": null`) returned instead.
fn exps_wall_ms() -> (f64, Option<f64>) {
    let t = Instant::now();
    let serial = exps::run_all_serial();
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;

    if exps::worker_count() < 2 {
        return (serial_ms, None);
    }

    let t = Instant::now();
    let parallel = exps::run_all();
    let parallel_ms = t.elapsed().as_secs_f64() * 1e3;

    assert_eq!(
        serial, parallel,
        "parallel experiment report diverged from serial"
    );
    (serial_ms, Some(parallel_ms))
}

/// What `fluid_solver_ns` times since PR 13, recorded beside the numbers
/// so the `BENCH.json` trajectory shows where the definition changed.
const FLUID_SOLVER_MEASURES: &str = "warmed FluidState::epoch (max_min_rates before PR 13)";

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
fn loc_json(root: &std::path::Path) -> String {
    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    crates.sort_unstable();
    let src = |c: &String| root.join("crates").join(c).join("src");
    crates
        .iter()
        .map(|c| (c.as_str(), count_lines(&src(c), "rs")))
        .chain([
            ("tests", count_lines(&root.join("tests"), "rs")),
            ("scripts", count_lines(&root.join("scripts"), "sh")),
        ])
        .map(|(name, lines)| format!("\"{name}\": {lines}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn append_trajectory(root: &std::path::Path, entry: &str) {
    let path = root.join("BENCH.json");
    let existing = std::fs::read_to_string(&path).unwrap_or_else(|_| "[]".to_string());
    let trimmed = existing.trim();
    let body = trimmed
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .unwrap_or("")
        .trim();
    let joined = if body.is_empty() {
        format!("[\n{entry}\n]\n")
    } else {
        format!("[\n{body},\n{entry}\n]\n")
    };
    std::fs::write(&path, joined).expect("write BENCH.json");
}

fn main() {
    let fast = fast_mode();
    let engine_pkts: u64 = if fast { 50_000 } else { 400_000 };
    let transfer_bytes: u64 = if fast { 262_144 } else { 2_097_152 };
    let (core_nodes, core_horizon_ms, core_runs) = if fast { (256, 50, 3) } else { (256, 200, 5) };
    let scale_bytes: usize = if fast { 8_192 } else { 32_768 };

    eprintln!(
        "macrobench: event core ({core_nodes} nodes, {core_horizon_ms} ms, \
         median of {core_runs})..."
    );
    let (events_per_sec, core_events) = event_core_median(core_nodes, core_horizon_ms, core_runs);
    eprintln!("macrobench:   events_per_sec = {events_per_sec:.0} ({core_events} events/run)");

    eprintln!("macrobench: engine dispatch ({engine_pkts} pkts, 4-filter chain)...");
    let ns_per_pkt = engine_ns_per_pkt(engine_pkts);
    eprintln!("macrobench:   engine_ns_per_pkt = {ns_per_pkt:.1}");

    eprintln!("macrobench: end-to-end transfer ({transfer_bytes} B)...");
    let (pkts_per_sec, transfer_events_per_sec, pkts, events, received) =
        end_to_end(transfer_bytes);
    eprintln!(
        "macrobench:   pkts_per_sec = {pkts_per_sec:.0} ({pkts} pkts), \
         transfer_events_per_sec = {transfer_events_per_sec:.0} ({events} events), \
         {received} B delivered"
    );

    // Runs one scale family at N ∈ {16, 64, 256}, logging each row.
    let run_scale = |label: &str, run: fn(usize, usize, u64) -> ScaleResult| -> Vec<ScaleResult> {
        [16usize, 64, 256]
            .iter()
            .map(|&flows| {
                let r = run(flows, scale_bytes, 42);
                eprintln!(
                    "macrobench:   {label}_{flows}: wall_ms = {:.1}, events_per_link_pkt = {:.3} \
                     ({} events, {} link pkts, {:.0} ev/s)",
                    r.wall_ms, r.events_per_link_pkt, r.sim_events, r.link_pkts, r.events_per_sec
                );
                r
            })
            .collect()
    };
    eprintln!("macrobench: many-flows scale workload ({scale_bytes} B/flow)...");
    let scale = run_scale("flows", run_many_flows);
    eprintln!("macrobench: many-flows scale workload under churn ({scale_bytes} B/flow)...");
    let scale_churn = run_scale("flows_churn", run_many_flows_churn);

    let (shard_cells, shard_flows_per_cell) = (100usize, 100usize);
    let shard_bytes: u64 = if fast { 1_024 } else { 4_096 };
    // Honest parallelism: workers come from the host's actual core count
    // (capped at the 4-worker reference config), and `cores` is reported
    // once at top level — the ci.sh speedup floors key off it.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let shard_workers = shard_worker_count();
    // Fixed backbone split so the workload partition (and its golden
    // digest) is host-independent; worker count is the only knob that
    // follows the hardware.
    let shard_backbone = 4usize;
    eprintln!(
        "macrobench: sharded flows_10k workload ({shard_cells} cells × \
         {shard_flows_per_cell} flows, {shard_bytes} B/flow, {cores} cores)..."
    );
    let shard_serial =
        run_sharded_flows(shard_cells, shard_flows_per_cell, shard_bytes, 42, 1, shard_backbone);
    // With one worker the "parallel" run would be the identical
    // configuration re-measured — any wall-clock delta is cache-warming
    // noise masquerading as speedup — so it is skipped and 1.0 recorded.
    let (shard_par, speedup_vs_serial) = if shard_workers > 1 {
        let par = run_sharded_flows(
            shard_cells,
            shard_flows_per_cell,
            shard_bytes,
            42,
            shard_workers,
            shard_backbone,
        );
        let speedup = shard_serial.wall_ms / par.wall_ms.max(1e-9);
        (par, speedup)
    } else {
        (shard_serial.clone(), 1.0)
    };
    eprintln!(
        "macrobench:   flows_10k: wall_ms = {:.1}, events_per_link_pkt = {:.3} ({} events, \
         {} link pkts, {:.0} ev/s) at {shard_workers} workers vs {:.1} ms serial \
         ({speedup_vs_serial:.2}x, {} xfer pkts, {} windows, {} skipped)",
        shard_par.wall_ms,
        shard_par.events_per_link_pkt,
        shard_par.sim_events,
        shard_par.link_pkts,
        shard_par.events_per_sec,
        shard_serial.wall_ms,
        shard_par.xfer_pkts,
        shard_par.windows,
        shard_par.windows_skipped
    );

    // Metro workload: fg transfers ride a fluid background population whose
    // packets are never simulated — only max-min re-solve epochs on a 10 ms
    // grid. The doubled-population run exists to demonstrate (and let ci.sh
    // gate) that sim_events track epochs, not background packet volume.
    let (metro_cells, metro_bg, metro_fg) = (32usize, 2_000usize, 8usize);
    // Horizons leave room for loss-delayed stragglers (a lost SYN puts a
    // flow a full RTO behind) while staying fixed across the 1x/2x runs so
    // sim_events stay comparable.
    let (metro_bytes, metro_horizon) = if fast { (2_048u64, 6u64) } else { (16_384, 12) };
    eprintln!(
        "macrobench: metro workload ({metro_cells} cells × {metro_bg} bg users + \
         {} fg flows, {metro_bytes} B/flow, {metro_horizon} s horizon)...",
        metro_cells * metro_fg
    );
    let metro = run_metro(
        metro_cells,
        metro_bg,
        metro_fg,
        metro_bytes,
        metro_horizon,
        42,
        shard_workers,
    );
    let metro_2x = run_metro(
        metro_cells,
        metro_bg * 2,
        metro_fg,
        metro_bytes,
        metro_horizon,
        42,
        shard_workers,
    );
    eprintln!(
        "macrobench:   metro: wall_ms = {:.1}, fg_goodput_bps = {:.0}, \
         events_per_link_pkt = {:.3} ({} bg users, {} active, {} epochs, {} sim events, \
         {} link pkts, {:.0} ev/s; 2x bg users → {} sim events, {:.2}x)",
        metro.wall_ms,
        metro.fg_goodput_bps,
        metro.events_per_link_pkt,
        metro.bg_users,
        metro.bg_active,
        metro.fluid_epochs,
        metro.sim_events,
        metro.link_pkts,
        metro.events_per_sec,
        metro_2x.sim_events,
        metro_2x.sim_events as f64 / metro.sim_events.max(1) as f64
    );

    eprintln!("macrobench: fluid epoch (warmed FluidState::epoch at 100/1k/10k users)...");
    let fluid_ns: Vec<f64> = [100usize, 1_000, 10_000].iter().map(|&n| fluid_solver_ns(n)).collect();
    eprintln!(
        "macrobench:   fluid_solver_ns = {:.0} / {:.0} / {:.0}",
        fluid_ns[0], fluid_ns[1], fluid_ns[2]
    );

    // The allocation headlines measure the machinery itself on the pinned
    // probe workloads (see DESIGN.md): the serial event core and the
    // sharded window loop, both after a two-simulated-second warmup. The
    // flows_10k TCP workload's node work (TCP bookkeeping, flow teardown)
    // allocates by design and is not what the zero-allocation contract
    // covers.
    let (allocs_per_event, allocs_per_window) = if comma_rt::alloc::enabled() {
        let (_, core_allocs, core_events) = event_core_alloc_probe(32, 7);
        let (_, loop_allocs, loop_windows) = sharded_alloc_probe(4, shard_workers, 7);
        (
            format!("{:.6}", core_allocs as f64 / core_events.max(1) as f64),
            format!("{:.4}", loop_allocs as f64 / loop_windows.max(1) as f64),
        )
    } else {
        ("null".to_string(), "null".to_string())
    };
    eprintln!(
        "macrobench:   allocs_per_event = {allocs_per_event} (event core), \
         allocs_per_window = {allocs_per_window} (sharded window loop)"
    );

    let workers = exps::worker_count();
    eprintln!("macrobench: experiment suite serial vs parallel ({workers} workers)...");
    let (serial_ms, parallel_ms) = exps_wall_ms();
    // JSON fragments: parallel wall and speedup are null on 1-worker hosts
    // (no duplicate run to compare against).
    let (parallel_json, speedup_json) = match parallel_ms {
        Some(p) => (format!("{p:.1}"), format!("{:.2}", serial_ms / p.max(1e-9))),
        None => ("null".to_string(), "null".to_string()),
    };
    match parallel_ms {
        Some(p) => eprintln!(
            "macrobench:   exps_wall_ms serial = {serial_ms:.0}, parallel = {p:.0} \
             ({:.2}x)",
            serial_ms / p.max(1e-9)
        ),
        None => eprintln!(
            "macrobench:   exps_wall_ms serial = {serial_ms:.0}, parallel skipped \
             (1 worker, speedup: null)"
        ),
    }

    let scale_json = scale
        .iter()
        .map(|r| {
            format!("    \"flows_{}\": {{ {} }}", r.flows, scale_fields(r))
        })
        .chain(scale_churn.iter().map(|r| {
            format!("    \"flows_churn_{}\": {{ {} }}", r.flows, scale_fields(r))
        }))
        .chain(std::iter::once(format!(
            "    \"flows_10k\": {{ \"wall_ms\": {:.1}, \"events_per_link_pkt\": {:.3}, \
             \"sim_events\": {}, \"link_pkts\": {}, \"events_per_sec\": {:.1}, \
             \"flows\": {}, \"workers\": {}, \
             \"serial_wall_ms\": {:.1}, \"speedup_vs_serial\": {:.3}, \
             \"windows\": {}, \"windows_skipped\": {}, \"xfer_pkts\": {}, \
             \"lane_bytes\": {} }}",
            shard_par.wall_ms,
            shard_par.events_per_link_pkt,
            shard_par.sim_events,
            shard_par.link_pkts,
            shard_par.events_per_sec,
            shard_cells * shard_flows_per_cell,
            shard_par.workers,
            shard_serial.wall_ms,
            speedup_vs_serial,
            shard_par.windows,
            shard_par.windows_skipped,
            shard_par.xfer_pkts,
            shard_par.lane_bytes
        )))
        .collect::<Vec<_>>()
        .join(",\n");

    let unix_ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = format!(
        "  {{\n    \"unix_ts\": {unix_ts},\n    \"fast\": {fast},\n    \
         \"engine_ns_per_pkt\": {ns_per_pkt:.1},\n    \
         \"pkts_per_sec\": {pkts_per_sec:.1},\n    \
         \"events_per_sec\": {events_per_sec:.1},\n    \
         \"transfer_events_per_sec\": {transfer_events_per_sec:.1},\n    \
         \"scale_events_per_sec\": {{ \"flows_16\": {:.1}, \"flows_64\": {:.1}, \
         \"flows_256\": {:.1} }},\n    \
         \"flows_10k_wall_ms\": {:.1},\n    \
         \"flows_10k_events_per_link_pkt\": {:.3},\n    \
         \"flows_10k_speedup_vs_serial\": {speedup_vs_serial:.3},\n    \
         \"metro_events_per_sec\": {:.1},\n    \
         \"metro_fg_goodput_bps\": {:.1},\n    \
         \"fluid_solver_ns\": {{ \"measures\": \"{FLUID_SOLVER_MEASURES}\", \
         \"flows_100\": {:.1}, \"flows_1000\": {:.1}, \"flows_10000\": {:.1} }},\n    \
         \"exps_wall_ms\": {{ \"serial\": {serial_ms:.1}, \"parallel\": {parallel_json} }}\n  }}",
        scale[0].events_per_sec,
        scale[1].events_per_sec,
        scale[2].events_per_sec,
        shard_par.wall_ms,
        shard_par.events_per_link_pkt,
        metro.events_per_sec,
        metro.fg_goodput_bps,
        fluid_ns[0],
        fluid_ns[1],
        fluid_ns[2]
    );

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let snapshot = format!(
        "{{\n  \"schema\": \"comma-macro-bench-v2\",\n  \"fast\": {fast},\n  \
         \"cores\": {cores},\n  \
         \"allocs_per_event\": {allocs_per_event},\n  \
         \"allocs_per_window\": {allocs_per_window},\n  \
         \"windows_skipped\": {},\n  \
         \"event_core_nodes\": {core_nodes},\n  \
         \"events_per_sec\": {events_per_sec:.1},\n  \
         \"engine_pkts\": {engine_pkts},\n  \
         \"engine_ns_per_pkt\": {ns_per_pkt:.1},\n  \
         \"transfer_bytes\": {transfer_bytes},\n  \
         \"proxy_pkts\": {pkts},\n  \
         \"pkts_per_sec\": {pkts_per_sec:.1},\n  \
         \"sim_events\": {events},\n  \
         \"transfer_events_per_sec\": {transfer_events_per_sec:.1},\n  \
         \"scale\": {{\n{scale_json}\n  }},\n  \
         \"metro\": {{\n    \
         \"cells\": {metro_cells},\n    \
         \"bg_users\": {},\n    \
         \"bg_active\": {},\n    \
         \"fg_flows\": {},\n    \
         \"bytes_per_flow\": {metro_bytes},\n    \
         \"horizon_secs\": {metro_horizon},\n    \
         \"fg_goodput_bps\": {:.1},\n    \
         \"events_per_sec\": {:.1},\n    \
         \"sim_events\": {},\n    \
         \"sim_events_2x_bg\": {},\n    \
         \"fluid_epochs\": {},\n    \
         \"fluid_links\": {},\n    \
         \"fluid_visits_per_epoch\": {:.3},\n    \
         \"link_pkts\": {},\n    \
         \"events_per_link_pkt\": {:.3},\n    \
         \"wall_ms\": {:.1},\n    \
         \"workers\": {}\n  }},\n  \
         \"fluid_solver_ns\": {{ \"measures\": \"{FLUID_SOLVER_MEASURES}\", \
         \"flows_100\": {:.1}, \"flows_1000\": {:.1}, \"flows_10000\": {:.1} }},\n  \
         \"exps_wall_ms\": {{ \"serial\": {serial_ms:.1}, \"parallel\": {parallel_json}, \
         \"speedup\": {speedup_json}, \"workers\": {workers} }},\n  \
         \"loc\": {{ {} }}\n}}\n",
        shard_par.windows_skipped,
        metro.bg_users,
        metro.bg_active,
        metro.fg_flows,
        metro.fg_goodput_bps,
        metro.events_per_sec,
        metro.sim_events,
        metro_2x.sim_events,
        metro.fluid_epochs,
        metro.fluid_links,
        metro.fluid_visits_per_epoch,
        metro.link_pkts,
        metro.events_per_link_pkt,
        metro.wall_ms,
        metro.workers,
        fluid_ns[0],
        fluid_ns[1],
        fluid_ns[2],
        loc_json(&root)
    );
    std::fs::write(root.join("BENCH_macro.json"), &snapshot).expect("write BENCH_macro.json");
    append_trajectory(&root, &entry);
    println!("{snapshot}");
    eprintln!("macrobench: wrote BENCH_macro.json and appended BENCH.json");
}
