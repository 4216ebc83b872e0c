//! The shipped model-checking scenario and its per-step invariants.

use comma::topology::{addrs, CommaBuilder};
use comma_faultcheck::Oracle;
use comma_filters::Ttsf;
use comma_netsim::link::LinkParams;
use comma_netsim::node::NodeId;
use comma_netsim::sim::Simulator;
use comma_netsim::time::SimDuration;
use comma_proxy::ServiceProxy;
use comma_tcp::apps::{BulkSender, Sink};

pub use comma_filters::TTSF_KINDS;

/// Scenario and search parameters.
///
/// The defaults are the *shipped* configuration: the exploration the CI
/// gate runs must finish clean at exactly these bounds.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// World seed (drives every RNG stream in the scenario).
    pub seed: u64,
    /// Bytes each wired-side bulk sender pushes to its mobile sink.
    pub transfer_bytes: usize,
    /// Concurrent transfers (1 or 2), on ports `9000..9000+flows`. Flow 0
    /// runs wired→mobile; flow 1 runs mobile→wired, so data crosses at
    /// the proxy and every host sees same-instant ACK+data batches.
    /// Independent flows commute at every shared instant, so the second
    /// flow multiplies both the interleavings explored and the schedule
    /// convergence the fingerprint pruning collapses.
    pub flows: usize,
    /// SP console commands installing the filter chain before the oracle
    /// attaches. The default installs a transforming compression TTSF.
    pub service_cmds: Vec<String>,
    /// One-way latency of every hop. Both hops share it deliberately: a
    /// window burst and the crossing ACKs then land in the *same*
    /// microsecond batch, which is exactly where fire-order races live.
    pub link_latency: SimDuration,
    /// Link bandwidth. The default is high enough that serialization
    /// delay rounds to zero for every packet — deliveries stay on the
    /// latency grid instead of being spread out (and conflated schedules
    /// stay conflated, which is what makes fingerprint pruning bite).
    pub link_bandwidth_bps: u64,
    /// DFS depth bound (decisions along one path).
    pub max_depth: usize,
    /// Global budget on executed steps across the whole search.
    pub step_budget: u64,
    /// Per-path budget on injected faults (drop/duplicate/reorder).
    pub max_faults: usize,
    /// Arms [`Ttsf::mutate_skip_ack_translation`] — the known-bug mutation
    /// the checker must rediscover (validating the whole detection
    /// pipeline end to end). The mutation arms only after the first ACK
    /// has been translated: the sender must first see a correctly
    /// translated (original-sequence-space) ACK for the later untranslated
    /// (compressed-space) ones to regress below it.
    pub mutate_skip_ack_translation: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            seed: 1,
            transfer_bytes: 1_000,
            flows: 2,
            // Wildcard dport: one registration spawns a TTSF per stream;
            // both directions are covered so every flow runs through a
            // transforming edit map.
            service_cmds: vec![
                format!("add compress 0.0.0.0 0 {} 0 lzss", addrs::MOBILE),
                format!("add compress 0.0.0.0 0 {} 0 lzss", addrs::WIRED),
            ],
            link_latency: SimDuration::from_millis(1),
            link_bandwidth_bps: 100_000_000_000,
            max_depth: 400,
            step_budget: 200_000,
            max_faults: 1,
            mutate_skip_ack_translation: false,
        }
    }
}

/// The built scenario: a snapshot-capable world plus the handles the
/// invariant checks need.
pub struct McWorld {
    /// The simulator, oracle attached, ready for [`Simulator::mc_step`].
    pub sim: Simulator,
    /// The Service Proxy node (edit-map sweeps).
    pub proxy: NodeId,
}

/// Builds the scenario: wired `BulkSender` → Service Proxy (with the
/// configured filter chain) → mobile `Sink`, EEM disabled (its sampler's
/// control closures cannot be snapshotted), link rate series off,
/// conformance oracle attached.
///
/// The oracle runs with reordered delivery allowed (the checker perturbs
/// delivery order by construction) and strict mode off (the default chain
/// rewrites payload bytes); its always-on invariants — ACK regression,
/// window regression, unsent-data delivery, FIN movement — stay live.
pub fn build_scenario(cfg: &McConfig) -> McWorld {
    let hop = |kind: LinkParams| {
        kind.with_latency(cfg.link_latency)
            .with_bandwidth(cfg.link_bandwidth_bps)
    };
    let mut world = CommaBuilder::new(cfg.seed)
        .eem(false)
        .wired(hop(LinkParams::wired()))
        .wireless(hop(LinkParams::wireless()), hop(LinkParams::wireless()))
        .build(
            {
                let mut apps: Vec<Box<dyn comma_tcp::apps::App>> = vec![Box::new(
                    BulkSender::new((addrs::MOBILE, 9000), cfg.transfer_bytes),
                )];
                if cfg.flows > 1 {
                    apps.push(Box::new(Sink::new(9001)));
                }
                apps
            },
            {
                let mut apps: Vec<Box<dyn comma_tcp::apps::App>> =
                    vec![Box::new(Sink::new(9000))];
                if cfg.flows > 1 {
                    apps.push(Box::new(BulkSender::new(
                        (addrs::WIRED, 9001),
                        cfg.transfer_bytes,
                    )));
                }
                apps
            },
        );
    for cmd in &cfg.service_cmds {
        world.sp(cmd);
    }
    // Nothing here reads a link's delivery-rate series, and a recording
    // one grows with simulated time and is copied into every fork.
    world.sim.set_record_series(false);
    world.attach_oracle();
    world.sim.with_packet_observer(|oracle: &mut Oracle| {
        // Duplicate/reorder fault placements legitimately break delivered-
        // ACK monotonicity (V6), so that check is relaxed only when the
        // fault budget can actually inject them; a fault-free exploration
        // keeps the FIFO guarantee and the full always-on set.
        oracle.set_allow_reordered_delivery(cfg.max_faults > 0);
        // The default chain rewrites payload bytes; strict identity checks
        // (V7/V8) are legitimately inapplicable.
        oracle.set_strict(false);
    });
    let proxy = world.proxy;
    McWorld {
        sim: world.sim,
        proxy,
    }
}

/// Arms [`McConfig::mutate_skip_ack_translation`] on every live TTSF
/// instance once the path has seen at least one translated ACK (before
/// that the mutation is invisible: an all-untranslated ACK stream is
/// monotone in compressed space and never regresses). Instances spawn when
/// a stream's first packet arrives, so the explorer and the replayer both
/// call this after every step.
pub fn arm_mutations(sim: &mut Simulator, proxy: NodeId) {
    sim.with_node::<ServiceProxy, _>(proxy, |sp| {
        let mut translated = 0;
        for kind in TTSF_KINDS {
            for t in sp.engine.instances_as::<Ttsf>(kind) {
                translated += t.stats.acks_translated;
            }
        }
        if translated == 0 {
            return;
        }
        for kind in TTSF_KINDS {
            for t in sp.engine.instances_as::<Ttsf>(kind) {
                t.mutate_skip_ack_translation = true;
            }
        }
    });
}

/// Asserts every per-step invariant; returns the first violation found.
///
/// Checked at every explored step (and every replayed step):
///
/// 1. the conformance oracle's live invariants
///    ([`Oracle::first_live_violation`]);
/// 2. every live TTSF edit map's structural invariants
///    ([`comma_filters::EditMap::check_invariants`]) on the proxy.
///
/// A clean check allocates nothing.
pub fn check_invariants(sim: &Simulator, proxy: NodeId) -> Option<String> {
    if let Some(v) = sim.packet_observer::<Oracle>().and_then(Oracle::first_live_violation) {
        return Some(format!("oracle: {v}"));
    }
    let sp = sim.node_ref::<ServiceProxy>(proxy).expect("the proxy node");
    comma_filters::editmap_errors(&sp.engine, "editmap").next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_snapshot_capable() {
        let cfg = McConfig::default();
        let mut world = build_scenario(&cfg);
        // Run a few steps to populate connection and filter state, then
        // snapshot: every node, the observer, and all pending events must
        // be cloneable.
        for _ in 0..20 {
            let options = world.sim.mc_options();
            if options.is_empty() {
                break;
            }
            world
                .sim
                .mc_step(0, comma_netsim::sim::McAction::Deliver)
                .unwrap();
        }
        let mut snap = world.sim.snapshot().expect("scenario must be snapshot-capable");
        assert_eq!(snap.state_hash(), world.sim.state_hash());
    }

    #[test]
    fn scenario_starts_clean() {
        let cfg = McConfig::default();
        let world = build_scenario(&cfg);
        assert!(check_invariants(&world.sim, world.proxy).is_none());
    }
}
