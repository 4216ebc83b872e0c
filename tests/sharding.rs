//! Sharded parallel simulation: determinism, partition invariance, and the
//! partition-aware topology API.
//!
//! The conservative sharded runner (`comma_netsim::shard`) must be a pure
//! performance transform: for one topology and one seed, the merged packet
//! trace and the delivered bytes are byte-identical whether the world runs
//! in one shard, in N shards on one worker, or in N shards on eight
//! workers. These tests pin that property — including a golden digest for
//! the 256-flow workload — and exercise the `TopologyBuilder` validation
//! surface (typed errors, never panics).

use comma_bench::scale::{
    build_cells, metro_trace_digest, run_sharded_churn, sharded_delivered_digest,
    sharded_trace_digest,
};
use comma_repro::prelude::*;

/// Golden 256-flow digest: 16 cells × 16 flows × 4096 B, seed 42, captured
/// from the single-shard (serial) build. The sharded run at 4 workers must
/// reproduce it byte-for-byte — this is the acceptance gate for the
/// conservative windowed rounds: lookahead, cross-shard merge order, and
/// the keyed RNG streams together make partitioning invisible.
///
/// Re-recorded when `tcp` began closing a stream on the ACK that covers the
/// second FIN rather than on the second FIN+ACK. A mobile that retransmits
/// its FIN+ACK after that ACK was lost on the wireless hop now finds no
/// chain (the services match mobile-bound keys, so an uplink packet builds
/// none) and keeps the window it sent (32,768, not 29,491); before, the
/// chain the final ACK had rebuilt was still there, and its `wsize` scaled
/// it.
const GOLDEN_256_FLOW_TRACE: u64 = 0xa3dd_4ad1_57f1_c462;

#[test]
fn golden_256_flow_sharded_trace_matches_serial() {
    let serial = sharded_trace_digest(16, 16, 4_096, 42, 1, 1, true);
    let sharded = sharded_trace_digest(16, 16, 4_096, 42, 4, 1, false);
    assert_eq!(
        serial, sharded,
        "sharded 256-flow trace must be byte-identical to the serial build"
    );
    assert_eq!(
        serial, GOLDEN_256_FLOW_TRACE,
        "256-flow trace digest drifted from the recorded golden"
    );
}

/// Splitting the backbone across shards is a pure partition change: the
/// 256-flow trace with the backbone round-robined over 4 shards must still
/// equal the single-backbone golden. Different cells' wired hosts never
/// interact and RNG streams are keyed, so the only thing the split may
/// change is which worker executes which host.
#[test]
fn backbone_split_preserves_golden_trace() {
    let split = sharded_trace_digest(16, 16, 4_096, 42, 4, 4, false);
    assert_eq!(
        split, GOLDEN_256_FLOW_TRACE,
        "backbone split (4 shards) drifted from the single-backbone golden"
    );
}

/// Property: delivered-bytes digests are invariant across worker counts
/// {1, 2, 4, 8} for several seeds. Workers only change which OS thread
/// drives a shard; every cross-shard effect is barrier-separated and
/// merged in `(time, src_shard, seq)` order, so the digest cannot move.
#[test]
fn delivered_digest_invariant_across_worker_counts_and_seeds() {
    for seed in [1u64, 42, 0xc0ffee] {
        let baseline = sharded_delivered_digest(4, 4, 4_096, seed, 1);
        for workers in [2usize, 4, 8] {
            let d = sharded_delivered_digest(4, 4, 4_096, seed, workers);
            assert_eq!(
                d, baseline,
                "seed {seed}: delivered digest at {workers} workers \
                 diverged from workers=1"
            );
        }
    }
}

/// The 64-flow churn workload (8 cells × 8 flows, per-cell reorder /
/// duplicate / corrupt / link-flap / bandwidth-step plans) must complete
/// every transfer and leave the per-shard conformance oracles clean on
/// the sharded runner.
#[test]
fn sharded_churn_64_flows_is_oracle_clean() {
    let r = run_sharded_churn(8, 8, 4_096, 42, 4);
    assert_eq!(r.delivered, 8 * 8 * 4_096);
    assert!(r.xfer_pkts > 0, "churn run never crossed a shard boundary");
}

/// Fluid background populations are shard-local state driven by keyed RNG
/// streams, so partitioning must stay invisible with them attached: the
/// metro trace (foreground packets sharing each cell's downlink with 250
/// fluid users) is byte-identical between the single-shard build and the
/// sharded build at 2 workers, and the per-shard conformance oracles stay
/// clean on both.
#[test]
fn metro_fluid_trace_invariant_across_partitioning() {
    let serial = metro_trace_digest(2, 250, 2, 4_096, 3, 11, 1, true);
    let sharded = metro_trace_digest(2, 250, 2, 4_096, 3, 11, 2, false);
    assert_eq!(
        serial, sharded,
        "fluid-backed metro trace must not depend on the partitioning"
    );
    assert_eq!(
        serial, GOLDEN_METRO_FLUID_TRACE,
        "fluid-backed metro trace drifted from the recorded golden"
    );
}

/// Golden small-metro digest: `metro_trace_digest(2, 250, 2, 4_096, 3, 11,
/// 1, true)`, recorded while fluid epochs were still timer-wheel events.
/// Serial-vs-sharded agreement alone cannot catch a fluid timeline that
/// is wrong the same way on both sides; this pins the timeline itself.
const GOLDEN_METRO_FLUID_TRACE: u64 = 0x47b6_a592_1085_6cd5;

/// Trace digest and fluid epoch count of a two-cell fluid world whose
/// `FaultPlan` steps the wireless capacity on a 10 ms grid slot (1,500 ms)
/// and between slots (2,345 ms) while the foreground transfers are still
/// running. At 1 Mbit/s the 1,000-user background contends, so the step's
/// re-solve takes the water-filling path.
fn stepped_fluid_world(workers: usize, single_shard: bool) -> (u64, u64) {
    let plan = FaultPlan::new(3)
        .bandwidth_step(SimTime::from_millis(1_500), 1_000_000)
        .bandwidth_step(SimTime::from_millis(2_345), 3_000_000);
    let mut builder = TopologyBuilder::new(17).workers(workers);
    for cell in ["a", "b"] {
        let link = LinkParams::wireless().with_bandwidth(2_000_000);
        let spec = CellSpec::new(cell)
            .wireless(link.clone(), link)
            .background_users(1_000)
            .transfer(9000, 300_000)
            .transfer(9001, 300_000);
        builder = builder.cell(spec.fault_plan(plan.clone()));
    }
    if single_shard {
        builder = builder.single_shard();
    }
    let mut world = builder.build().expect("valid topology");
    world.set_trace_capture(true, 1 << 20);
    world.run_until(SimTime::from_secs(1));
    assert!(world.total_delivered() < 4 * 300_000, "the steps land mid-transfer");
    world.run_until(SimTime::from_secs(40));
    assert_eq!(world.total_delivered(), 4 * 300_000);
    (world.trace_digest(), world.fluid_totals().epochs)
}

/// Golden `(trace digest, fluid epochs)` of [`stepped_fluid_world`],
/// recorded while fluid epochs were still timer-wheel events: a capacity
/// step re-solves at its own instant, toggles due in that slot included.
const GOLDEN_STEPPED_FLUID: (u64, u64) = (0xe9b8_3064_b12a_2e36, 7_625);

#[test]
fn fluid_capacity_steps_on_and_off_the_grid_match_golden() {
    let serial = stepped_fluid_world(1, true);
    assert_eq!(serial, stepped_fluid_world(2, false), "partitioning is invisible");
    assert_eq!(serial, GOLDEN_STEPPED_FLUID, "stepped fluid world drifted from its golden");
}

/// One `FaultPlan` handed to every cell. A cell's fault streams are keyed
/// by its wireless link, not by the channel numbers the link happens to get
/// inside its simulator (2 and 3 in *every* cell shard), so the faulted
/// trace is the same whether the four cells share one simulator or each has
/// its own — and no two cells fault in lockstep.
#[test]
fn faulted_trace_invariant_across_partitioning() {
    let digests = |single: bool| {
        let plan = FaultPlan::new(77)
            .reorder(0.05, SimDuration::from_millis(3))
            .duplicate(0.02);
        let mut builder = TopologyBuilder::new(21).workers(2);
        for cell in 0..4 {
            let spec = CellSpec::new(format!("cell{cell}")).transfer(9000, 40_000);
            builder = builder.cell(spec.fault_plan(plan.clone()));
        }
        if single {
            builder = builder.single_shard();
        }
        let mut world = builder.build().expect("valid topology");
        world.set_trace_capture(true, 1 << 20);
        world.run_until(SimTime::from_secs(30));
        assert_eq!(world.total_delivered(), 4 * 40_000);
        (world.trace_digest(), world.delivered_digest())
    };
    assert_eq!(
        digests(true),
        digests(false),
        "a shared fault plan must not make the trace depend on the partitioning"
    );
}

/// Lights on in the shards: a shard's own `sim.obs` is switched on through
/// `with_shard` like any other simulator's, and what it records — links,
/// TCP connections, the proxy's filters — is byte-identical whatever the
/// worker count.
#[test]
fn per_shard_obs_export_invariant_across_worker_counts() {
    // Shard 0 is the backbone (wired hosts), shard 1 the first cell.
    let exports = |workers: usize| {
        let mut world = build_cells(16, 16, 4_096, 42, workers, 1, false);
        for shard in [0, 1] {
            world.runner.with_shard(shard, |sim| sim.obs.set_enabled(true));
        }
        world.run_until(SimTime::from_secs(5));
        [0, 1].map(|shard| world.runner.with_shard(shard, |sim| sim.obs.export_jsonl()))
    };
    let serial = exports(1);
    assert_eq!(serial, exports(2), "a shard's export must not depend on the worker count");
    for (shard, key) in [(0, "link."), (0, "tcp."), (1, "link."), (1, "tcp."), (1, "filter.")] {
        let quoted = format!("\"{key}");
        assert!(serial[shard].contains(&quoted), "shard {shard} export has no {key}* line");
    }
}

/// The metro-scale acceptance run: 32 cells × 1,600 background users
/// (51,200 total — none of them simulated packet-by-packet) under the
/// oracle, byte-identical between the serial and sharded builds. Ignored
/// in the default (debug) test pass; `scripts/ci.sh shard` runs it in
/// release mode.
#[test]
#[ignore = "metro-scale release-mode run; exercised by scripts/ci.sh shard"]
fn metro_scale_50k_bg_users_oracle_clean_and_partition_invariant() {
    let serial = metro_trace_digest(32, 1_600, 4, 8_192, 5, 42, 1, true);
    let sharded = metro_trace_digest(32, 1_600, 4, 8_192, 5, 42, 4, false);
    assert_eq!(
        serial, sharded,
        "metro-scale fluid trace must be byte-identical serial vs sharded"
    );
}

#[test]
fn builder_rejects_empty_topology() {
    assert_eq!(
        TopologyBuilder::new(1).build().err(),
        Some(TopologyError::NoCells)
    );
}

#[test]
fn builder_rejects_duplicate_cell_names() {
    let err = TopologyBuilder::new(1)
        .cell(CellSpec::new("alpha"))
        .cell(CellSpec::new("alpha"))
        .build()
        .err();
    assert_eq!(err, Some(TopologyError::DuplicateCell("alpha".into())));
}

#[test]
fn builder_rejects_wireless_backbone() {
    let err = TopologyBuilder::new(1)
        .cell(CellSpec::new("alpha"))
        .backbone(LinkParams::wireless())
        .build()
        .err();
    assert_eq!(err, Some(TopologyError::WirelessBoundary));
}

#[test]
fn builder_rejects_zero_latency_backbone() {
    let err = TopologyBuilder::new(1)
        .cell(CellSpec::new("alpha"))
        .backbone(LinkParams::wired().with_latency(SimDuration::ZERO))
        .build()
        .err();
    assert_eq!(err, Some(TopologyError::ZeroLookahead));
}

/// Typed errors render as readable diagnostics (the builder never panics
/// on a bad topology).
#[test]
fn builder_errors_display_cleanly() {
    let msg = TopologyError::DuplicateCell("alpha".into()).to_string();
    assert!(msg.contains("\"alpha\""), "got: {msg}");
    assert!(!TopologyError::NoCells.to_string().is_empty());
}

/// The `single_shard()` escape hatch runs the identical cell topology
/// inside one simulator — same world surface, no worker threads.
#[test]
fn single_shard_escape_hatch_delivers() {
    let mut world = TopologyBuilder::new(5)
        .cell(
            CellSpec::new("solo")
                .transfer(9000, 20_000)
                .filter("add tcp 0.0.0.0 0 {mobile} 0"),
        )
        .single_shard()
        .build()
        .expect("valid topology");
    world.run_until(SimTime::from_secs(20));
    assert_eq!(world.total_delivered(), 20_000);
    assert_eq!(world.cell_count(), 1);
    assert_eq!(world.cell_name(0), "solo");
}

/// One oracle lifecycle behind both builds: the partitioned build's
/// per-shard reports merge to the segment total the single-shard oracle
/// reports (each emission checked where it is sent, each delivery where it
/// lands), with every cross-shard flow tracked once from each end.
#[test]
fn oracle_report_totals_match_single_shard_vs_partitioned() {
    let report = |single: bool| {
        let mut builder = TopologyBuilder::new(9).workers(2);
        for cell in ["a", "b"] {
            let spec = CellSpec::new(cell).transfer(9000, 20_000);
            builder = builder.cell(spec.filter("add tcp 0.0.0.0 0 {mobile} 0"));
        }
        if single {
            builder = builder.single_shard();
        }
        let mut world = builder.build().expect("valid topology");
        world.attach_oracle();
        world.run_until(SimTime::from_secs(20));
        let report = world.oracle_report();
        assert!(report.is_clean(), "{}", report.render());
        report
    };
    let (single, split) = (report(true), report(false));
    assert!(single.segments_checked > 100, "the transfers were observed");
    assert_eq!(split.segments_checked, single.segments_checked);
    assert_eq!((single.flows, split.flows), (2, 4));
}

/// The sharded runner exposes `shard.*` gauges through the merged Obs
/// surface.
#[test]
fn shard_gauges_exported() {
    let mut world = TopologyBuilder::new(3)
        .cell(CellSpec::new("a").transfer(9000, 8_192))
        .cell(CellSpec::new("b").transfer(9000, 8_192))
        .workers(2)
        .build()
        .expect("valid topology");
    world.runner.obs.set_enabled(true);
    world.run_until(SimTime::from_secs(10));
    let get = |k: &str| {
        world
            .runner
            .obs
            .gauge_value("shard", k)
            .unwrap_or_else(|| panic!("missing shard.{k} gauge"))
    };
    assert_eq!(get("shards") as usize, 3, "two cells + backbone");
    assert_eq!(get("workers") as usize, 2);
    assert!(get("windows") > 0.0);
    assert!(get("xfer_pkts") > 0.0);
    assert!(get("lookahead_us") > 0.0);
}
