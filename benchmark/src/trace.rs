//! The traced run: per-layer metrics from three outside-in passes.
//!
//! - *counter pass*: one rep with a packet observer on every simulator
//!   and the public statistics structs read at the end. Every count is
//!   exact and repeats from run to run.
//! - *replay pass*: inputs captured by the observer are fed to one layer's
//!   public functions in isolation and timed.
//! - *differential pass*: the rep is re-run with one public builder option
//!   flipped; `x.extra_s` is wall with the layer minus wall without, each
//!   the minimum of [`DIFF_REPS`] reps.
//!
//! Every pass, rep and replay is a span; the spans are written to
//! `out/trace-<workload>.jsonl` when the run ends.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use comma_faultcheck::{Oracle, OracleConfig};
use comma_filters::codec::{lzss_compress, lzss_decompress};
use comma_filters::{standard_catalog, ALL_FILTERS};
use comma_mc::build_scenario;
use comma_netsim::fluid::{FluidConfig, FluidState};
use comma_netsim::packet::Packet;
use comma_netsim::routing::RoutingTable;
use comma_netsim::sched::TimerWheel;
use comma_netsim::sim::McAction;
use comma_netsim::time::SimTime;
use comma_netsim::wire;
use comma_proxy::engine::FilterEngine;
use comma_proxy::{NullMetrics, ServiceProxy};
use comma_rt::alloc::{thread_counts, AllocCounts};
use comma_rt::{Rng, SeedableRng, SmallRng};
use comma_tcp::buffer::SendBuffer;
use comma_tcp::TcpConfig;

use crate::cli::{Args, USAGE};
use crate::metrics::{result_line, Reading, PER_LAYER};
use crate::run::{disagreement, one_rep};
use crate::spans::Spans;
use crate::stats::{pin_to_current_cpu, pinned};
use crate::tap::{install_tap, remove_tap, sim_counters, table_occupancy, SimCounters, TapData};
use crate::workloads::{Options, RepResult, Scenario, Workload, World, LIT_CHAIN};

/// Reps behind each side of a differential, and behind the baseline.
const DIFF_REPS: usize = 3;

/// Per-layer readings by name; anything never set reads 0 (`absent`).
#[derive(Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every catalogue metric, in catalogue order.
    pub fn readings(&self) -> Vec<Reading> {
        PER_LAYER
            .iter()
            .map(|m| Reading {
                name: m.name,
                unit: m.unit,
                value: self.get(m.name),
            })
            .collect()
    }
}

/// Outcome of one workload's traced run.
pub struct TraceReport {
    pub scenario: Scenario,
    /// Untraced wall of one rep inside the traced binary (minimum of
    /// [`DIFF_REPS`]): what the differentials and `trace.overhead_s` are
    /// measured against. Not `wall_s` — the counting allocator is
    /// installed here.
    pub base_wall_s: f64,
    pub ledger: Ledger,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub span_file: PathBuf,
}

/// Running tally of what the traced reps attempted and got wrong.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn rep(&mut self, rep: &RepResult) {
        self.attempted += rep.ops_total;
        self.failed += rep.ops_failed;
        self.failures.extend(rep.failures.iter().cloned());
    }
}

/// The minimum wall of `DIFF_REPS` reps under `opts`, each a span, and the
/// first rep's result. Reps of one configuration must agree with each
/// other; a flipped configuration is a different simulation, so each call
/// checks against its own first rep.
fn min_wall(
    scn: &Scenario,
    opts: &Options,
    label: &str,
    spans: &mut Spans,
    tally: &mut Tally,
) -> (f64, RepResult) {
    let pass = spans.enter(label);
    let reps = if scn.smoke { 1 } else { DIFF_REPS };
    let mut best = f64::INFINITY;
    let mut first: Option<RepResult> = None;
    for i in 0..reps {
        let span = spans.enter(format!("{label}.rep{i}"));
        let (wall, rep) = one_rep(scn, opts);
        spans.exit(span);
        best = best.min(wall);
        tally.rep(&rep);
        match &first {
            None => first = Some(rep),
            Some(reference) => {
                if let Some(why) = disagreement(reference, &rep) {
                    tally.failed += 1;
                    tally.failures.push(format!("{label}: {why}"));
                }
            }
        }
    }
    spans.exit(pass);
    (best, first.expect("at least one rep ran"))
}

/// Allocation counters of the thread the simulation runs on.
fn sim_thread_allocs(world: &mut World) -> AllocCounts {
    match world {
        World::Cells(c) => c.world.runner.with_shard(0, |_| thread_counts()),
        _ => thread_counts(),
    }
}

struct CounterPass {
    wall_s: f64,
    tap: TapData,
    sims: SimCounters,
    allocs: AllocCounts,
    flow_table_peak: u64,
    editmap_peak: u64,
    shard: Option<comma_netsim::shard::ShardStats>,
    mc: Option<comma_mc::McReport>,
    rep: RepResult,
}

fn counter_pass(scn: &Scenario, spans: &mut Spans) -> CounterPass {
    let pass = spans.enter("pass.counter");
    let build = spans.enter("counter.build");
    let mut world = scn.build(&Options::default());
    world.arm_checks();
    world.each_sim(install_tap);
    spans.exit(build);

    let (mut flow_table_peak, mut editmap_peak) = (0, 0);
    let mut probe = |w: &mut World| {
        let (flows, records) = w
            .each_sim(table_occupancy)
            .into_iter()
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        flow_table_peak = flow_table_peak.max(flows);
        editmap_peak = editmap_peak.max(records);
    };

    let run = spans.enter("counter.run");
    let before = sim_thread_allocs(&mut world);
    let t = Instant::now();
    world.drive(Some(&mut probe));
    let mut tap = TapData::default();
    for data in world.each_sim(remove_tap) {
        tap.merge(data);
    }
    world.finish();
    let wall_s = t.elapsed().as_secs_f64();
    let allocs = sim_thread_allocs(&mut world) - before;
    spans.exit(run);

    let collect = spans.enter("counter.collect");
    let mut sims = SimCounters::default();
    for c in world.each_sim(sim_counters) {
        sims.merge(c);
    }
    let shard = match &world {
        World::Cells(c) => Some(c.world.stats()),
        _ => None,
    };
    world.settle();
    let rep = world.collect();
    let mc = match &mut world {
        World::Mc(mc) => mc.report.take(),
        _ => None,
    };
    spans.exit(collect);
    spans.exit(pass);
    CounterPass {
        wall_s,
        tap,
        sims,
        allocs,
        flow_table_peak,
        editmap_peak,
        shard,
        mc,
        rep,
    }
}

/// Best of `rounds` timings of `f`, in seconds.
fn best_of(rounds: usize, mut f: impl FnMut()) -> f64 {
    (0..rounds)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs `f` inside a span named `name`.
fn in_span<R>(spans: &mut Spans, name: &str, f: impl FnOnce() -> R) -> R {
    let span = spans.enter(name);
    let out = f();
    spans.exit(span);
    out
}

/// `wire::encode_into` + `wire::verify` over the captured packets;
/// returns ns per packet.
fn replay_wire(ingress: &[(SimTime, Packet)]) -> f64 {
    if ingress.is_empty() {
        return 0.0;
    }
    let mut buf = Vec::with_capacity(2048);
    let secs = best_of(3, || {
        for (_, pkt) in ingress {
            wire::encode_into(&mut buf, pkt);
            black_box(wire::verify(&buf).is_ok());
        }
    });
    secs * 1e9 / ingress.len() as f64
}

/// The captured proxy-ingress sequence through a fresh engine holding the
/// same registrations, in batches of the observed depth; returns ns per
/// packet. Filter timers do not fire here: the replay isolates dispatch
/// and per-packet filter work.
fn replay_engine(scn: &Scenario, ingress: &[(SimTime, Packet)], depth: usize) -> f64 {
    if ingress.is_empty() {
        return 0.0;
    }
    // The chain's `{mobile}` is whoever the first connection was opened to.
    let mobile = ingress
        .iter()
        .filter_map(|(_, p)| {
            p.as_tcp()
                .filter(|s| s.flags.syn() && !s.flags.ack())
                .map(|_| p.ip.dst)
        })
        .next();
    let Some(mobile) = mobile else { return 0.0 };
    let chain: Vec<String> = match scn.workload {
        Workload::BulkLit => LIT_CHAIN.iter().map(|c| c.to_string()).collect(),
        Workload::Flows10k | Workload::Metro => crate::workloads::PASS_THROUGH_CHAIN
            .iter()
            .map(|c| c.replace("{mobile}", &mobile.to_string()))
            .collect(),
        Workload::McTtsf => scn.mc_config().service_cmds,
    };
    let secs = best_of(2, || {
        let mut sp = ServiceProxy::new(
            "replay",
            Vec::new(),
            RoutingTable::new(),
            FilterEngine::new(standard_catalog(ALL_FILTERS)),
            scn.seed,
        );
        for cmd in &chain {
            sp.exec(SimTime::ZERO, cmd);
        }
        let mut rng = SmallRng::seed_from_u64(scn.seed);
        let (mut input, mut out, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
        for chunk in ingress.chunks(depth.max(1)) {
            input.extend(chunk.iter().map(|(_, p)| p.clone()));
            sp.engine.process_batch(
                chunk[0].0,
                &mut rng,
                &NullMetrics,
                &mut input,
                &mut out,
                &mut dropped,
            );
            out.clear();
            dropped.clear();
        }
        black_box(sp.engine.totals.pkts);
    });
    secs * 1e9 / ingress.len() as f64
}

/// `lzss_compress` then `lzss_decompress` over the captured payloads (at
/// most 8 MiB of them); returns ns per payload byte.
fn replay_codec(ingress: &[(SimTime, Packet)]) -> f64 {
    let mut payloads = Vec::new();
    let mut total = 0usize;
    for (_, pkt) in ingress {
        if let Some(seg) = pkt.as_tcp().filter(|s| !s.payload.is_empty()) {
            total += seg.payload.len();
            payloads.push(seg.payload.clone());
            if total >= 8 << 20 {
                break;
            }
        }
    }
    if total == 0 {
        return 0.0;
    }
    let secs = best_of(2, || {
        for p in &payloads {
            let packed = lzss_compress(p);
            black_box(lzss_decompress(&packed).is_ok());
        }
    });
    secs * 1e9 / total as f64
}

/// One flow's send buffer: push the flow's bytes, then `slice` every
/// segment and `ack_to` every `stride` segments; returns ns per ACK.
fn replay_sendbuf(bytes_per_flow: usize, stride: usize) -> f64 {
    let mss = TcpConfig::default().mss as usize;
    let chunk = vec![0x5au8; 16 * 1024];
    let mut acks = 0u64;
    let secs = best_of(2, || {
        let mut buf = SendBuffer::new(0);
        let mut left = bytes_per_flow;
        while left > 0 {
            let n = left.min(chunk.len());
            buf.push(&chunk[..n]);
            left -= n;
        }
        acks = 0;
        let (mut seq, mut since_ack) = (0u32, 0usize);
        while (seq as usize) < bytes_per_flow {
            let seg = buf.slice(seq, mss);
            seq += seg.len() as u32;
            black_box(seg);
            since_ack += 1;
            if since_ack == stride || seq as usize == bytes_per_flow {
                buf.ack_to(seq);
                acks += 1;
                since_ack = 0;
            }
        }
    });
    secs * 1e9 / acks.max(1) as f64
}

/// A bare timer wheel driven with the run's schedule/cancel/fire counts at
/// a steady depth; returns ns per fired event.
fn replay_sched(c: &SimCounters, seed: u64) -> f64 {
    if c.fired == 0 {
        return 0.0;
    }
    const CHUNK: u64 = 4096;
    let cancel_every = c
        .scheduled
        .checked_div(c.cancelled)
        .unwrap_or(u64::MAX)
        .max(2);
    let mut fired = 0u64;
    let secs = best_of(2, || {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut now = 0u64;
        let mut scheduled = 0u64;
        fired = 0;
        while scheduled < c.scheduled {
            let mut live = 0;
            for i in 0..CHUNK.min(c.scheduled - scheduled) {
                // Most of a TCP world's timers sit 1 µs – 200 ms ahead.
                let at = SimTime::from_micros(now + 1 + rng.gen_range(0..200_000u64));
                let handle = wheel.schedule_with_handle(at, i);
                if (scheduled + i).is_multiple_of(cancel_every) {
                    wheel.cancel(handle);
                } else {
                    live += 1;
                }
            }
            scheduled += CHUNK.min(c.scheduled - scheduled);
            for _ in 0..live {
                if let Some((t, item)) = wheel.pop() {
                    now = t.as_micros();
                    black_box(item);
                    fired += 1;
                }
            }
        }
    });
    secs * 1e9 / fired.max(1) as f64
}

/// `FluidState::new` + `epoch` stepped alone over the horizon, one state
/// per link; returns µs per epoch.
fn replay_fluid(scn: &Scenario) -> f64 {
    let Some((horizon_secs, links, users)) = scn.fluid_shape() else {
        return 0.0;
    };
    let horizon = SimTime::from_secs(horizon_secs);
    let mut epochs = 0u64;
    let t = Instant::now();
    for link in 0..links as u64 {
        let cfg = FluidConfig::users(users);
        let mut next = Some(SimTime::from_micros(cfg.quantum.as_micros().max(1)));
        let mut state = FluidState::new(cfg, scn.seed ^ link.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        while let Some(at) = next.filter(|&at| at <= horizon) {
            next = state.epoch(at, 8_000_000, 128 * 1024);
        }
        epochs += state.epochs();
    }
    t.elapsed().as_secs_f64() * 1e6 / epochs.max(1) as f64
}

/// `snapshot`, `state_hash` and `mc_step` timed call by call along the
/// default path of the scenario; returns µs per call of each.
fn replay_mc(scn: &Scenario) -> (f64, f64, f64) {
    let cfg = scn.mc_config();
    let (mut snap, mut hash, mut step, mut calls) = (0.0, 0.0, 0.0, 0u64);
    for _ in 0..if scn.smoke { 2 } else { 40 } {
        let mut world = build_scenario(&cfg);
        while !world.sim.mc_options().is_empty() {
            let t = Instant::now();
            black_box(world.sim.snapshot().is_ok());
            snap += t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(world.sim.state_hash());
            hash += t.elapsed().as_secs_f64();
            let t = Instant::now();
            world
                .sim
                .mc_step(0, McAction::Deliver)
                .expect("index 0 of a non-empty batch");
            step += t.elapsed().as_secs_f64();
            calls += 1;
        }
    }
    let per = 1e6 / calls.max(1) as f64;
    (snap * per, hash * per, step * per)
}

struct OracleReplay {
    ns_per_entry: f64,
    secs: f64,
    violations: u64,
}

/// `Oracle::replay_trace` over the packet trace captured from one more rep
/// of the workload.
fn replay_oracle(scn: &Scenario) -> OracleReplay {
    let mut world = scn.build(&Options {
        trace_capture: true,
        ..Options::default()
    });
    world.run();
    let World::Lit(lit) = &world else {
        unreachable!("only bulk_lit attaches the oracle");
    };
    let w = &lit.world;
    let endpoints = vec![
        (w.wired, comma::topology::addrs::WIRED),
        (w.mobile, comma::topology::addrs::MOBILE),
    ];
    let mut oracle = Oracle::new(OracleConfig::new(endpoints.clone()));
    // The churn plan reorders and duplicates deliveries, and the chain
    // rewrites payload, exactly as in the live run.
    oracle.set_allow_reordered_delivery(true);
    oracle.set_strict(false);
    let t = Instant::now();
    oracle.replay_trace(&w.sim.trace, &endpoints);
    let secs = t.elapsed().as_secs_f64();
    OracleReplay {
        ns_per_entry: secs * 1e9 / w.sim.trace.entries().len().max(1) as f64,
        secs,
        violations: oracle.finish().total_violations,
    }
}

/// Runs the three passes for one workload.
pub fn trace_workload(scn: Scenario) -> TraceReport {
    let w = scn.workload;
    let mut spans = Spans::new(w.name());
    let mut ledger = Ledger::default();
    let mut tally = Tally::default();
    let base_opts = Options::default();

    // The untraced reference inside this binary: what the differentials
    // and the tracing overhead are measured against.
    let (base_wall, reference) =
        min_wall(&scn, &base_opts, "pass.baseline", &mut spans, &mut tally);

    // Counter pass.
    let cp = counter_pass(&scn, &mut spans);
    tally.rep(&cp.rep);
    if let Some(why) = disagreement(&reference, &cp.rep) {
        tally.failed += 1;
        tally.failures.push(format!("counter pass: {why}"));
    }
    let (c, tap) = (&cp.sims, &cp.tap);
    // Heap traffic is per simulator event; per executed step on `mc_ttsf`.
    let events = cp.mc.as_ref().map_or(c.events, |r| r.steps_executed).max(1) as f64;
    ledger.set("rt.allocs_per_event", cp.allocs.allocs as f64 / events);
    ledger.set(
        "rt.alloc_bytes_per_event",
        cp.allocs.alloc_bytes as f64 / events,
    );
    ledger.set("sched.events", c.events as f64);
    ledger.set("sched.scheduled", c.scheduled as f64);
    ledger.set("sched.cancelled", c.cancelled as f64);
    ledger.set("sched.purged", c.purged as f64);
    ledger.set("link.tx_pkts", c.link_tx_pkts as f64);
    ledger.set("link.drops", c.link_drops as f64);
    ledger.set("faults.reordered", c.reordered as f64);
    ledger.set("faults.duplicated", c.duplicated as f64);
    ledger.set("faults.corrupt_drops", c.corrupt_drops as f64);
    ledger.set("wire.pkts", tap.tx_pkts as f64);
    ledger.set("wire.bytes", tap.tx_bytes as f64);
    ledger.set("tcp.segments", tap.tcp_segments as f64);
    ledger.set("tcp.retransmits", tap.tcp_retransmits as f64);
    ledger.set("tcp.acks", tap.tcp_acks as f64);
    ledger.set("engine.pkts", c.engine_pkts as f64);
    ledger.set("engine.batches", c.engine_batches as f64);
    let depth = c.engine_batch_pkts as f64 / c.engine_batches.max(1) as f64;
    ledger.set("engine.batch_depth_avg", depth);
    ledger.set("engine.modified", c.engine_modified as f64);
    ledger.set("engine.drops", c.engine_drops as f64);
    ledger.set("engine.injected", c.engine_injected as f64);
    ledger.set("flow.table_len", cp.flow_table_peak as f64);
    let removed = tap.proxy_in_payload.saturating_sub(tap.proxy_out_payload);
    let rewrites = removed > 0;
    if rewrites {
        ledger.set("ttsf.bytes_removed", removed as f64);
        ledger.set(
            "ttsf.compress_ratio",
            tap.proxy_in_payload as f64 / tap.proxy_out_payload.max(1) as f64,
        );
    }
    ledger.set("ttsf.editmap_records_peak", cp.editmap_peak as f64);
    ledger.set("fluid.epochs", c.fluid_epochs as f64);
    ledger.set("fluid.links", c.fluid_links as f64);
    if let Some(s) = cp.shard {
        ledger.set("shard.windows", s.windows as f64);
        ledger.set("shard.windows_skipped", s.windows_skipped as f64);
        ledger.set("shard.xfer_pkts", s.xfer_pkts as f64);
        ledger.set("shard.barrier_wait_s", s.barrier_wait_ns as f64 / 1e9);
    }
    ledger.set("oracle.violations", cp.rep.violations as f64);
    if let Some(r) = &cp.mc {
        ledger.set("mc.states", r.states_explored as f64);
        ledger.set("mc.pruned", r.states_pruned as f64);
        ledger.set("mc.steps", r.steps_executed as f64);
        ledger.set("mc.dedup_ratio", r.dedup_ratio());
        ledger.set("mc.terminal_schedules", r.terminal_states as f64);
        ledger.set("mc.violations", u64::from(r.violation.is_some()) as f64);
    }
    ledger.set("topo.nodes", c.nodes as f64);
    ledger.set("topo.channels", c.channels as f64);
    ledger.set("trace.overhead_s", cp.wall_s - base_wall);

    // Replay pass. `attributed` sums the layers that sit side by side on
    // the run's path; wire and codec replays are parts of what the engine
    // replay already covers and are reported, not added.
    let pass = spans.enter("pass.replay");
    let mut attributed = 0.0;
    if let Some(report) = &cp.mc {
        let (snapshot_us, hash_us, step_us) = in_span(&mut spans, "replay.mc", || replay_mc(&scn));
        ledger.set("mc.snapshot_us", snapshot_us);
        ledger.set("mc.state_hash_us", hash_us);
        ledger.set("mc.step_us", step_us);
        // `McReport` does not say how many snapshots the search took, so
        // their cost stays in the remainder.
        attributed += report.steps_executed as f64 * (hash_us + step_us) / 1e6;
    } else {
        let ns = in_span(&mut spans, "replay.sched", || replay_sched(c, scn.seed));
        ledger.set("sched.replay_ns_per_event", ns);
        attributed += ns * c.fired as f64 / 1e9;

        let ns = in_span(&mut spans, "replay.wire", || replay_wire(&tap.ingress));
        ledger.set("wire.replay_ns_per_pkt", ns);

        let (_, bytes_per_flow) = scn.flow_shape();
        let stride = (tap.tcp_data_segments as f64 / tap.tcp_acks.max(1) as f64)
            .round()
            .max(1.0);
        let ns = in_span(&mut spans, "replay.sendbuf", || {
            replay_sendbuf(bytes_per_flow, stride as usize)
        });
        ledger.set("tcp.sendbuf_replay_ns_per_ack", ns);
        attributed += ns * tap.tcp_acks as f64 / 1e9;

        let ns = in_span(&mut spans, "replay.engine", || {
            replay_engine(&scn, &tap.ingress, depth.round() as usize)
        });
        ledger.set("engine.replay_ns_per_pkt", ns);
        attributed += ns * c.engine_pkts as f64 / 1e9;

        if rewrites {
            let ns = in_span(&mut spans, "replay.codec", || replay_codec(&tap.ingress));
            ledger.set("codec.replay_ns_per_byte", ns);
        }
        if c.fluid_links > 0 {
            let us = in_span(&mut spans, "replay.fluid", || replay_fluid(&scn));
            ledger.set("fluid.replay_us_per_epoch", us);
            attributed += us * c.fluid_epochs as f64 / 1e6;
        }
        if matches!(w, Workload::BulkLit) {
            let o = in_span(&mut spans, "replay.oracle", || replay_oracle(&scn));
            ledger.set("oracle.replay_ns_per_pkt", o.ns_per_entry);
            if o.violations > 0 {
                tally.failed += 1;
                tally
                    .failures
                    .push(format!("oracle replay found {} violations", o.violations));
            }
            attributed += o.secs;
        }
    }
    spans.exit(pass);
    ledger.set("host.unattributed_s", base_wall - attributed);

    // Differential pass: wall with the layer minus wall without it.
    let pass = spans.enter("pass.differential");
    let mut flip = |name: &'static str, label: &str, set: fn(&mut Options), on_in_base: bool| {
        let mut opts = base_opts;
        set(&mut opts);
        let (flipped, _) = min_wall(&scn, &opts, label, &mut spans, &mut tally);
        let extra = if on_in_base {
            base_wall - flipped
        } else {
            flipped - base_wall
        };
        ledger.set(name, extra);
    };
    let no_filters: fn(&mut Options) = |o| o.filters = false;
    match w {
        Workload::BulkLit => {
            flip("engine.extra_s", "diff.no_filters", no_filters, true);
            flip(
                "obs.extra_s",
                "diff.no_obs",
                |o| o.observability = false,
                true,
            );
            flip(
                "oracle.extra_s",
                "diff.no_oracle",
                |o| o.oracle = false,
                true,
            );
            flip(
                "trace.extra_s",
                "diff.trace_capture",
                |o| o.trace_capture = true,
                false,
            );
        }
        Workload::Flows10k => flip("engine.extra_s", "diff.no_filters", no_filters, true),
        Workload::Metro => {
            flip(
                "fluid.extra_s",
                "diff.no_background",
                |o| o.background = false,
                true,
            );
        }
        Workload::McTtsf => {}
    }
    spans.exit(pass);

    let span_file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", w.name()));
    if let Err(e) = spans.write_jsonl(&span_file) {
        tally.failed += 1;
        tally
            .failures
            .push(format!("cannot write {}: {e}", span_file.display()));
    }
    TraceReport {
        scenario: scn,
        base_wall_s: base_wall,
        ledger,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        failures: tally.failures,
        span_file,
    }
}

fn print_trace(r: &TraceReport, cpu: Option<usize>) {
    let w = r.scenario.workload;
    println!(
        "== {} (seed {}{}, {}) — per-layer ledger",
        w.name(),
        r.scenario.seed,
        if r.scenario.smoke { ", smoke" } else { "" },
        pinned(cpu)
    );
    println!(
        "  {:<30} {:>18.6} s  (reference for extra_s/overhead_s; counting allocator installed)",
        "untraced rep in this binary", r.base_wall_s
    );
    for reading in r.ledger.readings() {
        if reading.value == 0.0 {
            println!("  {:<30} {:>18}", reading.name, "absent");
        } else {
            println!(
                "  {:<30} {:>18.6} {}",
                reading.name, reading.value, reading.unit
            );
        }
    }
    println!("  spans written to {}", r.span_file.display());
    println!("  {:<30} {:>18}", "ops_total", r.attempted);
    println!("  {:<30} {:>18}", "ops_failed", r.failed);
    for why in r.failures.iter().take(10) {
        println!("  FAILED: {why}");
    }
}

/// Entry point of the traced binary: `[--workload W] [--seed N] [--smoke]`.
pub fn main() -> ExitCode {
    let mut argv = vec!["trace".to_string()];
    argv.extend(std::env::args().skip(1));
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("comma-benchmark-traced: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpu = pin_to_current_cpu();
    let mut ok = true;
    for workload in args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]) {
        let report = trace_workload(Scenario {
            workload,
            seed: args.seed,
            smoke: args.smoke,
        });
        print_trace(&report, cpu);
        println!(
            "{}",
            result_line(
                report.failed == 0,
                report.attempted,
                report.failed,
                &report.ledger.readings()
            )
        );
        ok &= report.failed == 0;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
