//! The four workloads: how each world is built from the seed, run to
//! completion, and checked.
//!
//! The benchmark owns these definitions on purpose. They follow the shapes
//! of `examples/legacy_compression.rs`, `comma_bench::scale` and
//! `comma_mc::McConfig::default()`, but a later change to those files must
//! not silently change what the benchmark measures.
//!
//! Every workload is a closed, fixed-work batch: all flows start at
//! simulated t = 0 and a rep ends when the work is done. One worker thread
//! everywhere — the host has two shared cores.

use comma::topo::{CellSpec, ShardedWorld, TopologyBuilder};
use comma::topology::{addrs, CommaBuilder, CommaWorld};
use comma_faultcheck::{FaultPlan, OracleReport};
use comma_mc::{build_scenario, explore, McConfig, McReport, McWorld};
use comma_netsim::link::{LinkParams, LossModel};
use comma_netsim::sim::Simulator;
use comma_netsim::time::{SimDuration, SimTime};
use comma_proxy::ServiceProxy;
use comma_rt::digest::{fnv1a, Fnv1a};
use comma_rt::Bytes;
use comma_tcp::apps::{App, Sink};
use comma_tcp::host::{AppId, Host};

use crate::inputs::{rotated_digest, seeded_text, TextSender};

/// States `comma-mc` explores at its shipped bounds; the search is
/// exhaustive, so any other count means the scenario or the checker moved.
pub const MC_DEFAULT_STATES: u64 = 50_475;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BulkLit,
    Flows10k,
    Metro,
    McTtsf,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BulkLit,
        Workload::Flows10k,
        Workload::Metro,
        Workload::McTtsf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkLit => "bulk_lit",
            Workload::Flows10k => "flows_10k",
            Workload::Metro => "metro",
            Workload::McTtsf => "mc_ttsf",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BulkLit => {
                "8 long LZSS-compressed transfers, obs and oracle on: the packet path that writes payload does the work"
            }
            Workload::Flows10k => {
                "10,000 short pass-through flows, dark: set-up/teardown, flow table, timer wheel and memory dominate"
            }
            Workload::Metro => {
                "64,000 fluid background users, 256 packet flows: fluid epochs do the work, the packet path little"
            }
            Workload::McTtsf => {
                "exhaustive 2-flow TTSF exploration: the same code driven through snapshot/state_hash/mc_step"
            }
        }
    }

    /// Construct-and-drop iterations per `setup_s` batch, sized so a batch
    /// takes at least ~50 ms on the reference host (a single `mc_ttsf` or
    /// `bulk_lit` build is far below timer-and-allocator jitter).
    pub fn setup_batch(self) -> usize {
        match self {
            Workload::BulkLit => 8,
            Workload::Flows10k => 16,
            Workload::Metro => 20,
            Workload::McTtsf => 8_000,
        }
    }
}

/// The builder options the traced run's differential pass flips, one at a
/// time. Each is an existing public option of the world builders; the
/// defaults are the benchmarked configuration.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Register the workload's filter chain on its proxies.
    pub filters: bool,
    /// `CommaBuilder::observability` (`bulk_lit` only; the sharded worlds
    /// are dark by construction).
    pub observability: bool,
    /// Attach the conformance oracle (`bulk_lit` only).
    pub oracle: bool,
    /// Capture the full packet trace (`bulk_lit` only).
    pub trace_capture: bool,
    /// Attach the fluid background population (`metro` only).
    pub background: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            filters: true,
            observability: true,
            oracle: true,
            trace_capture: false,
            background: true,
        }
    }
}

/// A workload instance: which one, from which seed, at which size.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    pub workload: Workload,
    pub seed: u64,
    /// Shrinks the workload to well under a second (harness self-test).
    pub smoke: bool,
}

/// What the seed adds to a radio hop's nominal latency: 0–7 µs.
///
/// Every RNG stream already derives from the seed, but bursty loss does
/// not reach every flow: the median of 10,000 short flows is set by queue
/// overflow and RTO grids, and `mc_ttsf` has no stochastic input at all.
/// This keeps every workload's simulated timeline a function of the seed
/// without changing its shape (the explored state space and the event
/// counts stay what they are at the nominal latency).
fn radio_jitter(seed: u64) -> SimDuration {
    let mut mix = seed;
    SimDuration::from_micros(comma_rt::rng::splitmix64(&mut mix) & 7)
}

/// Wireless link of every cell: 8 Mbit/s, 3 ms (+ seed jitter), 128 KiB
/// queue, bursty loss.
fn lossy_wireless(seed: u64) -> LinkParams {
    LinkParams::wireless()
        .with_latency(SimDuration::from_micros(3_000) + radio_jitter(seed))
        .with_bandwidth(8_000_000)
        .with_queue_limit(128 * 1024)
        .with_loss(LossModel::Gilbert {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.5,
            loss_good: 0.005,
            loss_bad: 0.15,
        })
}

/// Light reorder / duplication / checksum-caught corruption on every
/// wireless packet, two link flaps and a mid-run bandwidth dip.
pub fn churn_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .reorder(0.01, SimDuration::from_millis(10))
        .duplicate(0.005)
        .corrupt(0.005)
        .flap(SimTime::from_secs(2), SimDuration::from_millis(500))
        .flap(SimTime::from_secs(9), SimDuration::from_millis(300))
        .bandwidth_step(SimTime::from_secs(5), 2_000_000)
        .bandwidth_step(SimTime::from_secs(7), 8_000_000)
}

/// The pass-through chain of the sharded workloads: header reads only.
pub const PASS_THROUGH_CHAIN: [&str; 4] = [
    "add tcp 0.0.0.0 0 {mobile} 0",
    "add snoop 0.0.0.0 0 {mobile} 0",
    "add wsize 0.0.0.0 0 {mobile} 0 scale 90",
    "add tcp 0.0.0.0 0 {mobile} 0",
];

/// The main-proxy chain of `bulk_lit`: the TTSF compressor writes payload.
pub const LIT_CHAIN: [&str; 4] = [
    "add tcp 0.0.0.0 0 11.11.10.10 0",
    "add compress 0.0.0.0 0 11.11.10.10 0 lzss",
    "add snoop 0.0.0.0 0 11.11.10.10 0",
    "add wsize 0.0.0.0 0 11.11.10.10 0 scale 90",
];

/// The mobile-side stub chain of `bulk_lit`.
pub const LIT_STUB_CHAIN: [&str; 1] = ["add decompress 0.0.0.0 0 11.11.10.10 0"];

/// Simulated seconds `metro` measures before its grace window.
pub const METRO_GRACE_SECS: u64 = 30;

struct CellShape {
    cells: usize,
    flows_per_cell: usize,
    bytes_per_flow: u64,
    backbone_shards: usize,
    bg_users_per_cell: usize,
    /// `Some` makes the run fixed-horizon (metro); `None` runs to
    /// completion.
    horizon_secs: Option<u64>,
}

impl Scenario {
    /// `(flows, bytes per flow)` of `bulk_lit`.
    fn lit_shape(&self) -> (usize, usize) {
        if self.smoke {
            (2, 128 * 1024)
        } else {
            (8, 4 * 1024 * 1024)
        }
    }

    fn cell_shape(&self) -> CellShape {
        match (self.workload, self.smoke) {
            (Workload::Flows10k, false) => CellShape {
                cells: 100,
                flows_per_cell: 100,
                bytes_per_flow: 4096,
                backbone_shards: 4,
                bg_users_per_cell: 0,
                horizon_secs: None,
            },
            (Workload::Flows10k, true) => CellShape {
                cells: 4,
                flows_per_cell: 25,
                bytes_per_flow: 4096,
                backbone_shards: 2,
                bg_users_per_cell: 0,
                horizon_secs: None,
            },
            (Workload::Metro, false) => CellShape {
                cells: 32,
                flows_per_cell: 8,
                bytes_per_flow: 16_384,
                backbone_shards: 1,
                bg_users_per_cell: 2_000,
                horizon_secs: Some(12),
            },
            (Workload::Metro, true) => CellShape {
                cells: 4,
                flows_per_cell: 4,
                bytes_per_flow: 16_384,
                backbone_shards: 1,
                bg_users_per_cell: 300,
                horizon_secs: Some(3),
            },
            _ => unreachable!("{} is not a cell workload", self.workload.name()),
        }
    }

    /// `(flows, bytes per flow)` of the workload.
    pub fn flow_shape(&self) -> (usize, usize) {
        match self.workload {
            Workload::BulkLit => self.lit_shape(),
            Workload::Flows10k | Workload::Metro => {
                let s = self.cell_shape();
                (s.cells * s.flows_per_cell, s.bytes_per_flow as usize)
            }
            Workload::McTtsf => {
                let cfg = self.mc_config();
                (cfg.flows, cfg.transfer_bytes)
            }
        }
    }

    /// Simulated seconds the fluid layer runs for, and users per link
    /// (`metro` only).
    pub fn fluid_shape(&self) -> Option<(u64, usize, usize)> {
        (self.workload == Workload::Metro).then(|| {
            let s = self.cell_shape();
            (
                s.horizon_secs.unwrap_or(0) + METRO_GRACE_SECS,
                s.cells,
                s.bg_users_per_cell,
            )
        })
    }

    pub fn mc_config(&self) -> McConfig {
        // Both hops share the jittered latency: equal hops are what keep
        // the races in same-microsecond batches, and the explored space is
        // the same 50,475 states at every value.
        McConfig {
            seed: self.seed,
            link_latency: SimDuration::from_millis(1) + radio_jitter(self.seed),
            // One fault per path is the shipped bound; the smoke run drops
            // it so the search finishes in milliseconds.
            max_faults: if self.smoke { 0 } else { 1 },
            ..McConfig::default()
        }
    }

    /// Constructs one ready-to-run world: input generation, topology
    /// build, filter install, fault plan, oracle/obs attach. This is what
    /// `setup_s` times.
    pub fn build(&self, opts: &Options) -> World {
        match self.workload {
            Workload::BulkLit => World::Lit(self.build_lit(opts)),
            Workload::Flows10k | Workload::Metro => World::Cells(self.build_cells(opts)),
            Workload::McTtsf => {
                let cfg = self.mc_config();
                World::Mc(Mc {
                    world: build_scenario(&cfg),
                    cfg,
                    report: None,
                    expect_states: (!self.smoke).then_some(MC_DEFAULT_STATES),
                })
            }
        }
    }

    fn build_lit(&self, opts: &Options) -> Lit {
        let (flows, bytes) = self.lit_shape();
        let text = seeded_text(self.seed, bytes);
        let mut senders: Vec<Box<dyn App>> = Vec::with_capacity(flows);
        let mut sinks: Vec<Box<dyn App>> = Vec::with_capacity(flows);
        let mut offsets = Vec::with_capacity(flows);
        for i in 0..flows {
            let port = 9000 + i as u16;
            let offset = i * (bytes / flows);
            offsets.push(offset);
            senders.push(Box::new(TextSender::new(
                (addrs::MOBILE, port),
                text.clone(),
                offset,
            )));
            sinks.push(Box::new(Sink::new(port).with_capture(bytes)));
        }
        let mut world = CommaBuilder::new(self.seed)
            .eem(false)
            .double_proxy(true)
            .observability(opts.observability)
            .wireless(lossy_wireless(self.seed), lossy_wireless(self.seed))
            .build(senders, sinks);
        if opts.filters {
            for cmd in LIT_CHAIN {
                world.sp(cmd);
            }
            for cmd in LIT_STUB_CHAIN {
                world.stub_sp(cmd);
            }
            let (proxy, stub) = (world.proxy, world.stub.expect("double-proxy world"));
            for (node, want) in [(proxy, LIT_CHAIN.len()), (stub, LIT_STUB_CHAIN.len())] {
                let got = world
                    .sim
                    .with_node::<ServiceProxy, _>(node, |sp| sp.engine.registrations().len());
                assert_eq!(got, want, "a filter registration was refused");
            }
        }
        world.apply_fault_plan(&churn_plan(self.seed ^ 0xc4e7));
        if opts.oracle {
            world.attach_oracle();
        }
        if opts.trace_capture {
            world.sim.trace.set_capture(true);
            world.sim.trace.set_max_entries(1 << 22);
        }
        Lit {
            world,
            text,
            offsets,
            oracle: opts.oracle,
            report: None,
        }
    }

    fn build_cells(&self, opts: &Options) -> Cells {
        let shape = self.cell_shape();
        let mut builder = TopologyBuilder::new(self.seed)
            .backbone(LinkParams::wired().with_latency(SimDuration::from_millis(10)))
            .workers(1)
            .backbone_shards(shape.backbone_shards)
            .record_series(false);
        let prefix = if shape.bg_users_per_cell > 0 {
            "metro"
        } else {
            "cell"
        };
        for c in 0..shape.cells {
            let mut spec = CellSpec::new(format!("{prefix}{c}"))
                .wireless(lossy_wireless(self.seed), lossy_wireless(self.seed));
            if opts.background && shape.bg_users_per_cell > 0 {
                spec = spec.background_users(shape.bg_users_per_cell);
            }
            if opts.filters {
                for cmd in PASS_THROUGH_CHAIN {
                    spec = spec.filter(cmd);
                }
            }
            for f in 0..shape.flows_per_cell {
                spec = spec.transfer(9000 + f as u16, shape.bytes_per_flow);
            }
            builder = builder.cell(spec);
        }
        let world = builder.build().expect("benchmark topology is valid");
        Cells { world, shape }
    }
}

/// `bulk_lit`'s world: the double-proxy deployment plus what its checks
/// need.
pub struct Lit {
    pub world: CommaWorld,
    text: Bytes,
    offsets: Vec<usize>,
    oracle: bool,
    report: Option<OracleReport>,
}

/// A sharded multi-cell world (`flows_10k`, `metro`).
pub struct Cells {
    pub world: ShardedWorld,
    shape: CellShape,
}

impl Cells {
    /// Application bytes the world's transfers carry in total.
    fn target(&self) -> u64 {
        (self.shape.cells * self.shape.flows_per_cell) as u64 * self.shape.bytes_per_flow
    }
}

/// `mc_ttsf`: the search configuration and one built scenario.
pub struct Mc {
    pub cfg: McConfig,
    pub world: McWorld,
    pub report: Option<McReport>,
    expect_states: Option<u64>,
}

/// A built, ready-to-run world.
pub enum World {
    Lit(Lit),
    Cells(Cells),
    Mc(Mc),
}

/// What one rep produced, gathered after its clock stopped.
#[derive(Clone, Debug, Default)]
pub struct RepResult {
    /// Discrete events the simulator processed (states explored for
    /// `mc_ttsf`).
    pub sim_events: u64,
    /// Digest of everything delivered; reps of one scenario must agree.
    pub digest: u64,
    /// Operations attempted: flows, or explored states for `mc_ttsf`.
    pub ops_total: u64,
    /// Flows not delivered byte-exact, or violations for `mc_ttsf`.
    pub ops_failed: u64,
    /// Oracle (or checker) violations.
    pub violations: u64,
    /// Application bytes delivered.
    pub delivered_bytes: u64,
    /// Per-flow completion times in simulated seconds, ascending.
    pub fct_s: Vec<f64>,
    /// Human-readable reasons for every failure counted above.
    pub failures: Vec<String>,
}

impl RepResult {
    /// Mean over flows of the goodput each one saw: its application bytes
    /// × 8 / its completion time, in Mbit/s. (Every flow of a workload
    /// carries the same number of bytes.) The aggregate to the *last*
    /// delivered byte is set by whichever flow sat longest in RTO
    /// back-off and swings 25× between seeds on `metro`; the per-flow mean
    /// is what the modelled users saw and moves by a few percent.
    pub fn goodput_mbps(&self) -> f64 {
        let flows = self.fct_s.len().max(1) as f64;
        let bits_per_flow = self.delivered_bytes as f64 * 8.0 / flows;
        self.fct_s
            .iter()
            .map(|t| bits_per_flow / t / 1e6)
            .sum::<f64>()
            / flows
    }
}

impl World {
    /// Advances the run phase by one step (a simulated second, one leg of
    /// metro's fixed horizon, or the whole search) and reports whether
    /// the work is done.
    fn advance(&mut self, step: u64) -> bool {
        match self {
            World::Lit(lit) => {
                let target = (lit.offsets.len() * lit.text.len()) as u64;
                lit.world.run_until(SimTime::from_secs(step));
                let ids = lit.world.mobile_app_ids.clone();
                let delivered: u64 = ids
                    .into_iter()
                    .map(|id| lit.world.mobile_app::<Sink, _>(id, |s| s.bytes_received) as u64)
                    .sum();
                delivered >= target || step >= 3_600
            }
            World::Cells(c) => match c.shape.horizon_secs {
                // Fixed horizon, then the grace window in which every
                // foreground transfer must finish.
                Some(horizon) => {
                    let grace = if step > 1 { METRO_GRACE_SECS } else { 0 };
                    c.world.run_until(SimTime::from_secs(horizon + grace));
                    step > 1
                }
                // The clock stops at 99 % of the bytes: the last percent
                // are flows in SYN-RTO back-off (3 → 6 → 12 s). How many
                // there are swings with the seed, and simulating them is
                // idle timer ticking, not flow work — on two seeds in ten
                // it made a rep 1.7× longer. They finish in `settle`.
                None => {
                    c.world.run_until(SimTime::from_secs(step));
                    c.world.total_delivered() * 100 >= c.target() * 99 || step >= 3_600
                }
            },
            World::Mc(mc) => {
                mc.report = Some(explore(&mc.cfg));
                true
            }
        }
    }

    /// Drives the world until the work is done. `probe` runs between
    /// steps; the traced run samples table occupancy there, the timed run
    /// passes `None`.
    pub fn drive(&mut self, mut probe: Option<&mut dyn FnMut(&mut World)>) {
        for step in 1.. {
            let done = self.advance(step);
            if let Some(p) = probe.as_mut() {
                p(self);
            }
            if done {
                break;
            }
        }
    }

    /// The completion checks that belong to the run: finalising the
    /// conformance oracle where one is attached.
    pub fn finish(&mut self) {
        if let World::Lit(lit) = self {
            if lit.oracle {
                lit.report = Some(lit.world.oracle_report());
            }
        }
    }

    /// The run phase `wall_s` times: from the first `run_until`/`explore`
    /// call until the completion checks have run.
    pub fn run(&mut self) {
        self.drive(None);
        self.finish();
    }

    /// Switches on what the output checks need and the program under test
    /// does not: sinks of the sharded worlds keep what they receive, so
    /// delivery is checked byte for byte. Not part of `setup_s` — ten
    /// thousand cross-thread calls would make that a measure of thread
    /// wake-up latency.
    pub fn arm_checks(&mut self) {
        if let World::Cells(c) = self {
            let limit = c.shape.bytes_per_flow as usize;
            for cell in 0..c.shape.cells {
                for id in c.world.sink_ids(cell) {
                    c.world
                        .mobile_app::<Sink, _>(cell, id, move |s| s.capture_limit = limit);
                }
            }
        }
    }

    /// Lets flows that were still in back-off when the clock stopped run
    /// to completion, off the clock, so every flow is checked.
    pub fn settle(&mut self) {
        if let World::Cells(c) = self {
            let mut sec = c.world.now().as_micros() / 1_000_000;
            while c.world.total_delivered() < c.target() && sec < 3_600 {
                sec += 1;
                c.world.run_until(SimTime::from_secs(sec));
            }
        }
    }

    /// Calls `f` on every simulator of the world (each shard's, in its
    /// worker thread) and returns the results in shard order.
    pub fn each_sim<R: Send + 'static>(&mut self, f: fn(&mut Simulator) -> R) -> Vec<R> {
        match self {
            World::Lit(lit) => vec![f(&mut lit.world.sim)],
            World::Cells(c) => (0..c.world.runner.shard_count())
                .map(|shard| c.world.runner.with_shard(shard, f))
                .collect(),
            World::Mc(mc) => vec![f(&mut mc.world.sim)],
        }
    }

    /// Checks the rep's outputs and gathers its simulated statistics.
    /// Runs after the clock stopped; never panics on a wrong output — it
    /// counts it.
    pub fn collect(&mut self) -> RepResult {
        match self {
            World::Lit(lit) => collect_lit(lit),
            World::Cells(c) => collect_cells(c),
            World::Mc(mc) => collect_mc(mc),
        }
    }
}

fn sink_facts(s: &mut Sink) -> (u64, Option<SimTime>, u64) {
    (s.bytes_received as u64, s.last_data_at, fnv1a(&s.capture))
}

/// Folds one flow's outcome into the rep result.
fn tally_flow(
    r: &mut RepResult,
    digest: &mut Fnv1a,
    label: &dyn Fn() -> String,
    want: (u64, u64),
    got: (u64, Option<SimTime>, u64),
) {
    let (bytes, last, captured) = got;
    r.ops_total += 1;
    r.delivered_bytes += bytes;
    digest.update_u64(bytes).update_u64(captured);
    if (bytes, captured) != want {
        r.ops_failed += 1;
        r.failures.push(format!(
            "{}: delivered {bytes} B digest {captured:016x}, expected {} B digest {:016x}",
            label(),
            want.0,
            want.1
        ));
    }
    if let Some(t) = last {
        digest.update_u64(t.as_micros());
        r.fct_s.push(t.as_secs_f64());
    }
}

fn collect_lit(lit: &mut Lit) -> RepResult {
    let mut r = RepResult {
        sim_events: lit.world.sim.events_processed(),
        ..RepResult::default()
    };
    let mut digest = Fnv1a::new();
    let ids = lit.world.mobile_app_ids.clone();
    for (i, id) in ids.into_iter().enumerate() {
        let got = lit.world.mobile_app::<Sink, _>(id, sink_facts);
        let want = (
            lit.text.len() as u64,
            rotated_digest(lit.text.as_slice(), lit.offsets[i]),
        );
        tally_flow(&mut r, &mut digest, &|| format!("flow {i}"), want, got);
    }
    if let Some(report) = &lit.report {
        r.violations = report.total_violations;
        if !report.is_clean() {
            r.ops_failed = r.ops_failed.max(1);
            r.failures.push(format!("oracle:\n{}", report.render()));
        }
    }
    r.fct_s.sort_by(f64::total_cmp);
    r.digest = digest.finish();
    r
}

fn collect_cells(c: &mut Cells) -> RepResult {
    let mut r = RepResult {
        sim_events: c.world.stats().events,
        ..RepResult::default()
    };
    // Every transfer of these workloads carries `BulkSender`'s default
    // pattern, so one expected digest serves all sinks.
    let expected: Vec<u8> = (0..c.shape.bytes_per_flow as usize)
        .map(|i| (i % 251) as u8)
        .collect();
    let want = (c.shape.bytes_per_flow, fnv1a(&expected));
    let mut digest = Fnv1a::new();
    for cell in 0..c.shape.cells {
        for (i, id) in c.world.sink_ids(cell).into_iter().enumerate() {
            let got = c.world.mobile_app::<Sink, _>(cell, id, sink_facts);
            tally_flow(
                &mut r,
                &mut digest,
                &|| format!("cell {cell} flow {i}"),
                want,
                got,
            );
        }
    }
    r.fct_s.sort_by(f64::total_cmp);
    r.digest = digest.finish();
    r
}

fn collect_mc(mc: &mut Mc) -> RepResult {
    let report = mc.report.take().expect("collect follows run");
    let mut r = RepResult {
        sim_events: report.states_explored,
        ops_total: report.states_explored,
        ..RepResult::default()
    };
    let mut digest = Fnv1a::new();
    digest
        .update_u64(report.states_explored)
        .update_u64(report.states_pruned)
        .update_u64(report.steps_executed)
        .update_u64(report.terminal_states)
        .update_u64(report.max_depth_reached as u64);
    if !report.exhausted_clean() {
        r.violations = 1;
        r.ops_failed = 1;
        r.failures
            .push(format!("search not clean:\n{}", report.render()));
    }
    if mc
        .expect_states
        .is_some_and(|n| n != report.states_explored)
    {
        r.ops_failed = r.ops_failed.max(1);
        r.failures.push(format!(
            "explored {} states, the shipped bounds give {MC_DEFAULT_STATES}",
            report.states_explored
        ));
    }
    mc.report = Some(report);

    // The search has no single timeline, so the simulated statistics are
    // those of the fault-free default schedule: the scenario run forward.
    let sim = &mut mc.world.sim;
    sim.run_until(SimTime::from_secs(60));
    let flows = mc.cfg.flows;
    for (flow, sink_host) in [addrs::MOBILE, addrs::WIRED]
        .into_iter()
        .take(flows)
        .enumerate()
    {
        let node = sim.node_by_addr(sink_host).expect("scenario host");
        let (bytes, last, _) =
            sim.with_node::<Host, _>(node, |h| sink_facts(h.app_mut::<Sink>(AppId(flow))));
        r.delivered_bytes += bytes;
        digest.update_u64(bytes);
        // No decompressor sits behind the scenario's compressor, so the
        // sink holds the compressed stream: shorter than what was sent,
        // never empty.
        if bytes == 0 || bytes > mc.cfg.transfer_bytes as u64 {
            r.ops_failed = r.ops_failed.max(1);
            r.failures
                .push(format!("default schedule: flow {flow} delivered {bytes} B"));
        }
        if let Some(t) = last {
            digest.update_u64(t.as_micros());
            r.fct_s.push(t.as_secs_f64());
        }
    }
    r.fct_s.sort_by(f64::total_cmp);
    r.digest = digest.finish();
    r
}
