//! The macrobench report as one typed value: [`Snapshot`] renders itself
//! (`BENCH_macro.json`, the `BENCH.json` trajectory entry) through
//! [`comma_rt::Json`], and [`Snapshot::gates`] checks every CI threshold
//! on the typed fields — nothing reads a report file back.

use comma_rt::Json;

use crate::scale::{MetroResult, ScaleResult, ShardScaleResult};

/// Ceiling on `flows_10k` events per packet offered to a link. Exact per
/// seed, so it holds on a noisy host where no wall-time gate can: a
/// per-flow timer that fires whether or not the flow has work reads
/// 9.7–13.6 here, a demand-driven proxy 2.1–2.2.
pub const FLOWS_10K_MAX_EVENTS_PER_LINK_PKT: f64 = 2.5;
/// Ceiling on `metro` events per packet offered to a link. Fluid epochs
/// are caught up when a link is read, not scheduled, so `metro` prices
/// its packets like `flows_10k` (2.19 fast); epochs on the timer wheel
/// read 5.58.
pub const METRO_MAX_EVENTS_PER_LINK_PKT: f64 = 2.5;
/// `metro` foreground goodput must exceed this: the packet flows finish.
pub const METRO_MIN_FG_GOODPUT_BPS: f64 = 0.0;
/// Doubling `metro`'s background users may grow `sim_events` by at most
/// this factor: background load schedules no events at all, so only the
/// foreground's reaction to a busier link may move the count (1.000
/// measured fast; 1.021 while epochs were events).
pub const METRO_MAX_EVENT_GROWTH_AT_2X_BG: f64 = 1.1;
/// A fluid epoch may examine at most this share of a link's users (due
/// toggles, plus the active set when contended, plus its share of the
/// active-set merges); a full scan reads > 1.0.
pub const METRO_MAX_FLUID_VISIT_SHARE: f64 = 0.05;
/// Floor on `flows_10k` sharded speedup over the serial run, enforced
/// only with [`SPEEDUP_GATE_MIN_PARALLELISM`] cores and workers.
pub const FLOWS_10K_MIN_SPEEDUP: f64 = 2.5;
/// Cores *and* workers the speedup floor needs before it means anything.
pub const SPEEDUP_GATE_MIN_PARALLELISM: usize = 4;
/// Steady-state heap allocations per sharded window under `alloc-stats`.
pub const MAX_ALLOCS_PER_WINDOW: f64 = 0.0;
/// Ceiling on `flows_256` peak live bytes per flow under `alloc-stats`
/// (the run's high-water, world construction included, over its flows),
/// fast run (8 KiB a flow): measures 5,057; 12,762 while every
/// `BulkSender` write was a copy of its pattern.
pub const FLOWS_256_MAX_PEAK_LIVE_BYTES_PER_FLOW_FAST: u64 = 5_120;
/// The same ceiling for the full run (32 KiB a flow): measures 5,630.
pub const FLOWS_256_MAX_PEAK_LIVE_BYTES_PER_FLOW: u64 = 5_696;
/// Filter instances each `flows_256` flow's own chain creates
/// (`tcp, snoop, wsize, tcp`).
pub const FLOWS_256_INSTANCES_PER_FLOW: u64 = 4;
/// Instances `flows_256` may create beyond [`FLOWS_256_INSTANCES_PER_FLOW`]
/// a flow, fast run: chains rebuilt for a packet that arrived after its
/// stream closed, the wired host's ACK of a FIN the mobile retransmitted
/// because the covering ACK was lost. Measures 16 (four chains); closing
/// on the second FIN+ACK rebuilt one for every flow, 1,024.
pub const FLOWS_256_MAX_REBUILT_INSTANCES_FAST: u64 = 16;
/// The same ceiling for the full run: measures 20.
pub const FLOWS_256_MAX_REBUILT_INSTANCES: u64 = 20;

/// Everything one macrobench run measured.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Whether `COMMA_BENCH_FAST=1` shrank the workloads.
    pub fast: bool,
    /// The host's available parallelism.
    pub cores: usize,
    /// Event-core allocations per event; `None` without `alloc-stats`.
    pub allocs_per_event: Option<f64>,
    /// Allocations per sharded window; `None` without `alloc-stats`.
    pub allocs_per_window: Option<f64>,
    /// Nodes in the event-dominated scheduler workload.
    pub event_core_nodes: usize,
    /// Median scheduler throughput on that workload.
    pub events_per_sec: f64,
    /// Packets pushed through the bare 4-filter engine.
    pub engine_pkts: u64,
    /// Dispatch cost per packet on the bare engine.
    pub engine_ns_per_pkt: f64,
    /// Bytes of the end-to-end transfer.
    pub transfer_bytes: u64,
    /// Packets the proxy engine saw during it.
    pub proxy_pkts: u64,
    /// Proxy packets per wall second during it.
    pub pkts_per_sec: f64,
    /// Simulator events of the transfer.
    pub sim_events: u64,
    /// Transfer events per wall second (not the scheduler headline).
    pub transfer_events_per_sec: f64,
    /// The many-flows workload at N ∈ {16, 64, 256}, plain (`flows_N`) and
    /// under the churn fault plan (`flows_churn_N`), by row name.
    pub scale: Vec<(String, ScaleResult)>,
    /// `flows_10k` on the sharded runner at the host's worker count.
    pub flows_10k: ShardScaleResult,
    /// Wall of the same workload on one worker.
    pub flows_10k_serial_wall_ms: f64,
    /// The metro hybrid-fidelity run.
    pub metro: MetroResult,
    /// `sim_events` of the metro run with twice the background users.
    pub metro_sim_events_2x_bg: u64,
    /// ns per warmed fluid epoch at 100 / 1,000 / 10,000 users.
    pub fluid_solver_ns: [f64; 3],
    /// Wall of the experiment suite.
    pub exps_wall_ms: f64,
    /// Source lines per crate, then `tests` and `scripts`.
    pub loc: Vec<(String, usize)>,
}

/// The fields every `scale` row leads with, read by name off a
/// [`ScaleResult`] or [`ShardScaleResult`]. `events_per_sec` is kept as a
/// scheduler figure (it falls when cheap events are removed).
macro_rules! scale_row {
    ($r:expr) => {
        vec![
            ("wall_ms".to_string(), Json::F64($r.wall_ms, 1)),
            ("events_per_link_pkt".to_string(), Json::F64($r.events_per_link_pkt, 3)),
            ("sim_events".to_string(), Json::U64($r.sim_events)),
            ("link_pkts".to_string(), Json::U64($r.link_pkts)),
            ("events_per_sec".to_string(), Json::F64($r.events_per_sec, 1)),
        ]
    };
}

impl Snapshot {
    /// `flows_10k` wall on one worker over wall at the host's worker count
    /// (1.0 when the host has one: the parallel run is not repeated).
    pub fn speedup_vs_serial(&self) -> f64 {
        self.flows_10k_serial_wall_ms / self.flows_10k.wall_ms.max(1e-9)
    }

    /// The `BENCH_macro.json` document.
    pub fn to_json(&self) -> Json {
        let (f, m) = (&self.flows_10k, &self.metro);
        let mut scale: Vec<(String, Json)> = self
            .scale
            .iter()
            .map(|(name, r)| {
                let mut row = scale_row!(r);
                let per_flow = r.peak_live_bytes_per_flow().map_or(Json::Null, Json::U64);
                row.push(("peak_live_bytes_per_flow".into(), per_flow));
                row.push(("instances_created".into(), Json::U64(r.instances_created)));
                row.push(("live_instances".into(), Json::U64(r.live_instances as u64)));
                (name.clone(), Json::Obj(row))
            })
            .collect();
        let mut flows_10k: Vec<(String, Json)> = scale_row!(f);
        flows_10k.extend([
            ("flows".into(), Json::U64((f.cells * f.flows_per_cell) as u64)),
            ("workers".into(), Json::U64(f.workers as u64)),
            ("serial_wall_ms".into(), Json::F64(self.flows_10k_serial_wall_ms, 1)),
            ("speedup_vs_serial".into(), Json::F64(self.speedup_vs_serial(), 3)),
            ("windows".into(), Json::U64(f.windows)),
            ("windows_skipped".into(), Json::U64(f.windows_skipped)),
            ("xfer_pkts".into(), Json::U64(f.xfer_pkts)),
            ("lane_bytes".into(), Json::U64(f.lane_bytes)),
        ]);
        scale.push(("flows_10k".into(), Json::Obj(flows_10k)));
        let metro = Json::obj([
            ("cells", Json::U64(m.cells as u64)),
            ("bg_users", Json::U64(m.bg_users)),
            ("bg_active", Json::U64(m.bg_active)),
            ("fg_flows", Json::U64(m.fg_flows as u64)),
            ("bytes_per_flow", Json::U64(m.bytes_per_flow)),
            ("horizon_secs", Json::U64(m.horizon.as_micros() / 1_000_000)),
            ("fg_goodput_bps", Json::F64(m.fg_goodput_bps, 1)),
            ("events_per_sec", Json::F64(m.events_per_sec, 1)),
            ("sim_events", Json::U64(m.sim_events)),
            ("sim_events_2x_bg", Json::U64(self.metro_sim_events_2x_bg)),
            ("fluid_epochs", Json::U64(m.fluid_epochs)),
            ("fluid_links", Json::U64(m.fluid_links)),
            ("fluid_visits_per_epoch", Json::F64(m.fluid_visits_per_epoch, 3)),
            ("link_pkts", Json::U64(m.link_pkts)),
            ("events_per_link_pkt", Json::F64(m.events_per_link_pkt, 3)),
            ("wall_ms", Json::F64(m.wall_ms, 1)),
            ("workers", Json::U64(m.workers as u64)),
        ]);
        let [ns_100, ns_1k, ns_10k] = self.fluid_solver_ns;
        let fluid_solver_ns = Json::obj([
            // The definition changed in PR 13; the key name did not.
            ("measures", Json::Str("warmed FluidState::epoch (max_min_rates before PR 13)".into())),
            ("flows_100", Json::F64(ns_100, 1)),
            ("flows_1000", Json::F64(ns_1k, 1)),
            ("flows_10000", Json::F64(ns_10k, 1)),
        ]);
        let opt_f64 = |v: Option<f64>, decimals| v.map_or(Json::Null, |v| Json::F64(v, decimals));
        Json::obj([
            ("schema", Json::Str("comma-macro-bench-v3".into())),
            ("fast", Json::Bool(self.fast)),
            ("cores", Json::U64(self.cores as u64)),
            ("allocs_per_event", opt_f64(self.allocs_per_event, 6)),
            ("allocs_per_window", opt_f64(self.allocs_per_window, 4)),
            ("windows_skipped", Json::U64(f.windows_skipped)),
            ("event_core_nodes", Json::U64(self.event_core_nodes as u64)),
            ("events_per_sec", Json::F64(self.events_per_sec, 1)),
            ("engine_pkts", Json::U64(self.engine_pkts)),
            ("engine_ns_per_pkt", Json::F64(self.engine_ns_per_pkt, 1)),
            ("transfer_bytes", Json::U64(self.transfer_bytes)),
            ("proxy_pkts", Json::U64(self.proxy_pkts)),
            ("pkts_per_sec", Json::F64(self.pkts_per_sec, 1)),
            ("sim_events", Json::U64(self.sim_events)),
            ("transfer_events_per_sec", Json::F64(self.transfer_events_per_sec, 1)),
            ("scale", Json::Obj(scale)),
            ("metro", metro),
            ("fluid_solver_ns", fluid_solver_ns),
            ("exps_wall_ms", Json::F64(self.exps_wall_ms, 1)),
            ("loc", Json::obj(self.loc.iter().map(|(k, n)| (k.as_str(), Json::U64(*n as u64))))),
        ])
    }

    /// One `BENCH.json` trajectory entry: wall clock plus deterministic
    /// counters only (rates derived from both are left to the snapshot).
    pub fn trajectory_entry(&self, unix_ts: u64) -> Json {
        let (f, m) = (&self.flows_10k, &self.metro);
        Json::obj([
            ("unix_ts", Json::U64(unix_ts)),
            ("fast", Json::Bool(self.fast)),
            ("engine_ns_per_pkt", Json::F64(self.engine_ns_per_pkt, 1)),
            ("pkts_per_sec", Json::F64(self.pkts_per_sec, 1)),
            ("flows_10k_wall_ms", Json::F64(f.wall_ms, 1)),
            ("flows_10k_events_per_link_pkt", Json::F64(f.events_per_link_pkt, 3)),
            ("flows_10k_sim_events", Json::U64(f.sim_events)),
            ("metro_wall_ms", Json::F64(m.wall_ms, 1)),
            ("metro_sim_events", Json::U64(m.sim_events)),
            ("metro_fluid_visits_per_epoch", Json::F64(m.fluid_visits_per_epoch, 3)),
            ("exps_wall_ms", Json::F64(self.exps_wall_ms, 1)),
            ("loc", Json::U64(self.loc.iter().map(|(_, n)| *n as u64).sum())),
        ])
    }

    /// Every CI threshold this report is held to; one message per failure,
    /// empty when the run passes. Deterministic counters gate everywhere,
    /// the speedup floor only where the hardware can show it.
    pub fn gates(&self) -> Vec<String> {
        let (f, m) = (&self.flows_10k, &self.metro);
        let mut failed = Vec::new();
        let mut require = |ok: bool, otherwise: String| {
            if !ok {
                failed.push(otherwise);
            }
        };
        let per_pkt = f.events_per_link_pkt;
        require(
            per_pkt > 0.0 && per_pkt <= FLOWS_10K_MAX_EVENTS_PER_LINK_PKT,
            format!(
                "flows_10k events_per_link_pkt {per_pkt:.3} outside (0, \
                 {FLOWS_10K_MAX_EVENTS_PER_LINK_PKT}]: something at the proxy fires per flow \
                 rather than per packet"
            ),
        );
        let per_pkt = m.events_per_link_pkt;
        require(
            per_pkt > 0.0 && per_pkt <= METRO_MAX_EVENTS_PER_LINK_PKT,
            format!(
                "metro events_per_link_pkt {per_pkt:.3} outside (0, \
                 {METRO_MAX_EVENTS_PER_LINK_PKT}]: the fluid background is scheduling events again"
            ),
        );
        let goodput = m.fg_goodput_bps;
        require(
            goodput > METRO_MIN_FG_GOODPUT_BPS,
            format!("metro fg_goodput_bps {goodput:.1} not above {METRO_MIN_FG_GOODPUT_BPS}"),
        );
        let (events, events_2x) = (m.sim_events, self.metro_sim_events_2x_bg);
        require(
            events_2x as f64 <= events as f64 * METRO_MAX_EVENT_GROWTH_AT_2X_BG,
            format!(
                "metro sim_events {events} -> {events_2x} at 2x background users (> \
                 {METRO_MAX_EVENT_GROWTH_AT_2X_BG}x): background traffic is leaking per-packet cost"
            ),
        );
        let users_per_link = m.bg_users.checked_div(m.fluid_links).unwrap_or(0);
        require(
            m.fluid_visits_per_epoch <= METRO_MAX_FLUID_VISIT_SHARE * users_per_link as f64,
            format!(
                "metro fluid_visits_per_epoch {:.3} exceeds {METRO_MAX_FLUID_VISIT_SHARE} of \
                 {users_per_link} users per link: epochs are scanning the population again",
                m.fluid_visits_per_epoch
            ),
        );
        let (speedup, parallelism) = (self.speedup_vs_serial(), self.cores.min(f.workers));
        require(
            parallelism < SPEEDUP_GATE_MIN_PARALLELISM || speedup >= FLOWS_10K_MIN_SPEEDUP,
            format!(
                "flows_10k speedup_vs_serial {speedup:.3} < {FLOWS_10K_MIN_SPEEDUP} at {} workers \
                 on {} cores",
                f.workers, self.cores
            ),
        );
        let allocs = self.allocs_per_window;
        require(
            !comma_rt::alloc::enabled() || allocs == Some(MAX_ALLOCS_PER_WINDOW),
            format!("allocs_per_window {allocs:?} under alloc-stats (must be Some(0.0))"),
        );
        let flows_256 = self.scale.iter().find(|(name, _)| name == "flows_256").map(|(_, r)| r);
        let (created, live, flows) = flows_256
            .map_or((0, 0, 0), |r| (r.instances_created, r.live_instances as u64, r.flows as u64));
        let own = FLOWS_256_INSTANCES_PER_FLOW * flows;
        let rebuilt = created.saturating_sub(own);
        let ceiling = if self.fast {
            FLOWS_256_MAX_REBUILT_INSTANCES_FAST
        } else {
            FLOWS_256_MAX_REBUILT_INSTANCES
        };
        require(
            flows > 0 && created >= own && rebuilt <= ceiling,
            format!(
                "flows_256 instances_created {created} for {flows} flows: more than \
                 {FLOWS_256_INSTANCES_PER_FLOW} a flow plus {ceiling} rebuilt after a close"
            ),
        );
        require(
            live <= rebuilt,
            format!(
                "flows_256 live_instances {live} at the end, beyond the {rebuilt} rebuilt after \
                 a close: a finished flow keeps its chain"
            ),
        );
        let peak = flows_256.and_then(|r| r.peak_live_bytes_per_flow());
        let ceiling = if self.fast {
            FLOWS_256_MAX_PEAK_LIVE_BYTES_PER_FLOW_FAST
        } else {
            FLOWS_256_MAX_PEAK_LIVE_BYTES_PER_FLOW
        };
        require(
            !comma_rt::alloc::enabled() || peak.is_some_and(|b| b <= ceiling),
            format!(
                "flows_256 peak_live_bytes_per_flow {peak:?} under alloc-stats (must be at most \
                 {ceiling}): a flow holds more memory"
            ),
        );
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fast-run numbers: every gate passes.
    fn passing() -> Snapshot {
        let counting = comma_rt::alloc::enabled();
        Snapshot {
            fast: true,
            cores: 2,
            allocs_per_window: counting.then_some(0.0),
            scale: vec![(
                "flows_256".into(),
                ScaleResult {
                    flows: 256,
                    peak_live_bytes: counting.then_some(256 * 5_057),
                    instances_created: 4 * 256 + 16,
                    live_instances: 16,
                    ..Default::default()
                },
            )],
            flows_10k: ShardScaleResult {
                events_per_link_pkt: 2.083,
                wall_ms: 335.8,
                workers: 2,
                ..Default::default()
            },
            flows_10k_serial_wall_ms: 644.4,
            metro: MetroResult {
                bg_users: 64_000,
                fluid_links: 32,
                fluid_visits_per_epoch: 27.418,
                sim_events: 11_828,
                events_per_link_pkt: 2.188,
                fg_goodput_bps: 696_320.0,
                ..Default::default()
            },
            metro_sim_events_2x_bg: 11_828,
            ..Default::default()
        }
    }

    /// `gates()` of `passing()` after `edit`, expected to be exactly one
    /// message containing `needle`.
    fn assert_fails(needle: &str, edit: impl FnOnce(&mut Snapshot)) {
        let mut s = passing();
        edit(&mut s);
        let failed = s.gates();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains(needle), "{failed:?}");
    }

    #[test]
    fn each_gate_fails_on_its_own_bound() {
        assert_eq!(passing().gates(), Vec::<String>::new());
        assert_fails("flows_10k events_per_link_pkt 2.501", |s| {
            s.flows_10k.events_per_link_pkt = 2.501
        });
        assert_fails("events_per_link_pkt 0.000", |s| s.flows_10k.events_per_link_pkt = 0.0);
        assert_fails("events_per_link_pkt NaN", |s| s.flows_10k.events_per_link_pkt = f64::NAN);
        assert_fails("metro events_per_link_pkt 5.579", |s| s.metro.events_per_link_pkt = 5.579);
        assert_fails("metro events_per_link_pkt 0.000", |s| s.metro.events_per_link_pkt = 0.0);
        assert_fails("fg_goodput_bps 0.0", |s| s.metro.fg_goodput_bps = 0.0);
        assert_fails("11828 -> 13011", |s| s.metro_sim_events_2x_bg = 13_011);
        assert_fails("visits_per_epoch 100.001", |s| s.metro.fluid_visits_per_epoch = 100.001);
        assert_fails("of 0 users per link", |s| s.metro.fluid_links = 0);
        assert_fails("instances_created 1041", |s| s.scale[0].1.instances_created += 1);
        assert_fails("instances_created 1023", |s| {
            s.scale[0].1.instances_created = 1_023;
            s.scale[0].1.live_instances = 0;
        });
        assert_fails("live_instances 17", |s| s.scale[0].1.live_instances = 17);
        assert_fails("instances_created 2048", |s| {
            // Closing on the second FIN+ACK: every final ACK rebuilt a chain.
            s.scale[0].1.instances_created = 2 * 4 * 256;
            s.scale[0].1.live_instances = 4 * 256;
        });
        assert_fails("live_instances 1024", |s| {
            // No close at all.
            s.scale[0].1.instances_created = 4 * 256;
            s.scale[0].1.live_instances = 4 * 256;
        });
        // Exactly on each bound passes.
        let mut s = passing();
        s.flows_10k.events_per_link_pkt = 2.5;
        s.metro.events_per_link_pkt = 2.5;
        s.metro_sim_events_2x_bg = 13_010;
        s.metro.fluid_visits_per_epoch = 100.0;
        assert_eq!(s.gates(), Vec::<String>::new());
        (s.fast, s.scale[0].1.instances_created) = (false, 4 * 256 + 20);
        assert_eq!(s.gates(), Vec::<String>::new());
    }

    #[test]
    fn speedup_floor_needs_four_cores_and_four_workers() {
        // 1.919x on the 2-core host: recorded, not gated.
        assert!(passing().speedup_vs_serial() < FLOWS_10K_MIN_SPEEDUP);
        for (cores, workers) in [(2, 2), (8, 2), (2, 4)] {
            let mut s = passing();
            (s.cores, s.flows_10k.workers) = (cores, workers);
            assert_eq!(s.gates(), Vec::<String>::new(), "{cores} cores, {workers} workers");
        }
        assert_fails("speedup_vs_serial 1.919", |s| (s.cores, s.flows_10k.workers) = (4, 4));
        let mut s = passing();
        (s.cores, s.flows_10k.workers, s.flows_10k_serial_wall_ms) = (4, 4, 335.8 * 2.5);
        assert_eq!(s.gates(), Vec::<String>::new());
    }

    #[test]
    fn alloc_gate_follows_the_compiled_in_allocator() {
        fn peak(s: &mut Snapshot) -> &mut Option<u64> {
            &mut s.scale[0].1.peak_live_bytes
        }
        if comma_rt::alloc::enabled() {
            assert_fails("allocs_per_window None", |s| s.allocs_per_window = None);
            assert_fails("allocs_per_window Some(0.25)", |s| s.allocs_per_window = Some(0.25));
            assert_fails("peak_live_bytes_per_flow None", |s| *peak(s) = None);
            assert_fails("peak_live_bytes_per_flow Some(5121)", |s| {
                *peak(s) = Some(256 * 5_121)
            });
            assert_fails("peak_live_bytes_per_flow Some(5697)", |s| {
                s.fast = false;
                *peak(s) = Some(256 * 5_697)
            });
            // Exactly on each ceiling passes.
            let mut s = passing();
            *peak(&mut s) = Some(256 * 5_120 + 255);
            assert_eq!(s.gates(), Vec::<String>::new());
            (s.fast, *peak(&mut s)) = (false, Some(256 * 5_696));
            assert_eq!(s.gates(), Vec::<String>::new());
            let mut s = passing();
            s.scale.clear();
            let failed = s.gates();
            assert_eq!(failed.len(), 2, "{failed:?}");
            assert!(failed[0].contains("for 0 flows") && failed[1].contains("bytes_per_flow None"));
        } else {
            // Without the counting allocator the figures are `null` and ungated.
            assert_eq!(passing().allocs_per_window, None);
            assert_eq!(passing().scale[0].1.peak_live_bytes_per_flow(), None);
            assert_eq!(passing().gates(), Vec::<String>::new());
        }
    }
}
