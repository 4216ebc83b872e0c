//! The metric catalogue: every name, unit and direction the benchmark
//! reports, in the order it prints them. `BENCHMARK.json` carries the same
//! list; `tests/contract.rs` fails when the two drift.

/// An end-to-end metric: what a user of the simulator pays or sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The six end-to-end metrics, the same on every workload.
///
/// The bounds are what ten runs on ten seeds need on a shared two-core
/// host (README, "Noise study"): a neighbour can slow every rep of a run
/// by 25 % for minutes, and the simulated statistics move with the loss
/// pattern each seed draws. For one seed the simulated statistics are
/// exact: any change in them is a change in behaviour, whatever the bound.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "wall_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.05 },
    EndToEnd { name: "sim_goodput_mbps", unit: "Mbit/s", better: "higher", bound: 0.15 },
    EndToEnd { name: "sim_fct_p50_s", unit: "sim_s", better: "lower", bound: 0.15 },
    EndToEnd { name: "sim_fct_p99_s", unit: "sim_s", better: "lower", bound: 0.25 },
];

/// A per-layer metric of the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric, outside in. A metric whose layer does no work
/// on a workload reads 0 there and prints as `absent`.
pub const PER_LAYER: [PerLayer; 58] = [
    // Runtime: heap traffic of the counter pass, per simulator event.
    layer("rt.allocs_per_event", "count", "lower"),
    layer("rt.alloc_bytes_per_event", "B", "lower"),
    // Event core.
    layer("sched.events", "count", "lower"),
    layer("sched.scheduled", "count", "lower"),
    layer("sched.cancelled", "count", "lower"),
    layer("sched.purged", "count", "lower"),
    layer("sched.replay_ns_per_event", "ns", "lower"),
    // Links and injected faults.
    layer("link.tx_pkts", "count", "lower"),
    layer("link.drops", "count", "lower"),
    layer("faults.reordered", "count", "lower"),
    layer("faults.duplicated", "count", "lower"),
    layer("faults.corrupt_drops", "count", "lower"),
    // Wire format.
    layer("wire.pkts", "count", "lower"),
    layer("wire.bytes", "B", "lower"),
    layer("wire.replay_ns_per_pkt", "ns", "lower"),
    // TCP endpoints.
    layer("tcp.segments", "count", "lower"),
    layer("tcp.retransmits", "count", "lower"),
    layer("tcp.acks", "count", "lower"),
    layer("tcp.sendbuf_replay_ns_per_ack", "ns", "lower"),
    // Filter engine and flow table.
    layer("engine.pkts", "count", "lower"),
    layer("engine.batches", "count", "lower"),
    layer("engine.batch_depth_avg", "count", "higher"),
    layer("engine.modified", "count", "lower"),
    layer("engine.drops", "count", "lower"),
    layer("engine.injected", "count", "lower"),
    layer("engine.replay_ns_per_pkt", "ns", "lower"),
    layer("engine.extra_s", "s", "lower"),
    layer("flow.table_len", "count", "lower"),
    // TTSF and its codec.
    layer("ttsf.bytes_removed", "B", "higher"),
    layer("ttsf.editmap_records_peak", "count", "lower"),
    layer("ttsf.compress_ratio", "ratio", "higher"),
    layer("codec.replay_ns_per_byte", "ns", "lower"),
    // Fluid background layer.
    layer("fluid.epochs", "count", "lower"),
    layer("fluid.links", "count", "lower"),
    layer("fluid.replay_us_per_epoch", "us", "lower"),
    layer("fluid.extra_s", "s", "lower"),
    // Sharded runner.
    layer("shard.windows", "count", "lower"),
    layer("shard.windows_skipped", "count", "higher"),
    layer("shard.xfer_pkts", "count", "lower"),
    layer("shard.barrier_wait_s", "s", "lower"),
    // Observability, oracle, trace capture.
    layer("obs.extra_s", "s", "lower"),
    layer("oracle.extra_s", "s", "lower"),
    layer("oracle.replay_ns_per_pkt", "ns", "lower"),
    layer("oracle.violations", "count", "lower"),
    layer("trace.extra_s", "s", "lower"),
    // Model checker.
    layer("mc.states", "count", "lower"),
    layer("mc.pruned", "count", "lower"),
    layer("mc.steps", "count", "lower"),
    layer("mc.dedup_ratio", "ratio", "higher"),
    layer("mc.terminal_schedules", "count", "lower"),
    layer("mc.violations", "count", "lower"),
    layer("mc.snapshot_us", "us", "lower"),
    layer("mc.state_hash_us", "us", "lower"),
    layer("mc.step_us", "us", "lower"),
    // Topology size (moves `setup_s`).
    layer("topo.nodes", "count", "lower"),
    layer("topo.channels", "count", "lower"),
    // The ledger's remainder and the price of tracing.
    layer("host.unattributed_s", "s", "lower"),
    layer("trace.overhead_s", "s", "lower"),
];

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Renders the driver's result line: one JSON object, exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, every value with all
/// its digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, readings: &[Reading]) -> String {
    let metrics: Vec<String> = readings
        .iter()
        .map(|r| {
            let value = if r.value.is_finite() { r.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                r.name, r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_line(
            true,
            8,
            0,
            &[Reading {
                name: "wall_s",
                unit: "s",
                value: 2.123456789012,
            }],
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.as_obj().unwrap().len(), 4);
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(
            wall.get("value").and_then(Value::as_f64),
            Some(2.123456789012)
        );
    }
}
