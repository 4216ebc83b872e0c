//! The `comma-mc` interleaving checker as a tier-1 regression surface:
//! fingerprint determinism, snapshot/restore transparency, a debug-sized
//! exhaustive exploration, and the pinned known-bug rediscovery.
//!
//! The full shipped-bounds exploration (50k+ states) runs release-mode in
//! `./scripts/ci.sh mc`; the in-tree tests use reduced configurations so
//! the debug workspace suite stays fast.

use comma_repro::faultcheck::Oracle;
use comma_repro::mc::{explore, replay_mc_trace, McConfig, McDecision, McReport};
use comma_repro::mc::scenario::build_scenario;
use comma_repro::netsim::sim::McAction;
use comma_repro::prelude::*;
use comma_repro::rt::prop::{gen, Runner};

/// Debug-sized exhaustive configuration: both flows, no fault budget.
fn reduced() -> McConfig {
    McConfig {
        max_faults: 0,
        ..McConfig::default()
    }
}

/// The state fingerprint is a pure function of the decision history: two
/// independently built worlds driven through the same schedule report the
/// same hash at every step. This is what makes the visited set sound — a
/// fingerprint that leaked allocation addresses, map iteration order, or
/// slot numbering would diverge here.
#[test]
fn mc_state_hash_deterministic_across_same_seed_runs() {
    let cfg = reduced();
    let mut a = build_scenario(&cfg);
    let mut b = build_scenario(&cfg);
    assert_eq!(a.sim.state_hash(), b.sim.state_hash(), "initial states differ");
    for step in 0..60 {
        let options = a.sim.mc_options();
        if options.is_empty() {
            assert!(b.sim.mc_options().is_empty(), "worlds quiesce together");
            break;
        }
        // Perturb the fire order a little so the property is checked off
        // the default path too.
        let index = if options.len() > 1 { step % 2 } else { 0 };
        a.sim.mc_step(index, McAction::Deliver).unwrap();
        b.sim.mc_step(index, McAction::Deliver).unwrap();
        assert_eq!(
            a.sim.state_hash(),
            b.sim.state_hash(),
            "fingerprints diverged at step {step}"
        );
    }
}

/// Snapshot → restore → re-snapshot is fingerprint-transparent, and the
/// copy stays in lockstep with the original when both are driven through
/// the same decisions afterward.
#[test]
fn mc_state_hash_survives_snapshot_restore_round_trip() {
    let cfg = reduced();
    let mut world = build_scenario(&cfg);
    for _ in 0..30 {
        if world.sim.mc_options().is_empty() {
            break;
        }
        world.sim.mc_step(0, McAction::Deliver).unwrap();
    }
    let mut snap = world.sim.snapshot().expect("snapshot");
    assert_eq!(snap.state_hash(), world.sim.state_hash());
    let mut again = snap.snapshot().expect("re-snapshot");
    assert_eq!(again.state_hash(), world.sim.state_hash());
    for step in 0..15 {
        if world.sim.mc_options().is_empty() {
            break;
        }
        world.sim.mc_step(0, McAction::Deliver).unwrap();
        snap.mc_step(0, McAction::Deliver).unwrap();
        assert_eq!(
            world.sim.state_hash(),
            snap.state_hash(),
            "snapshot diverged from original at step {step}"
        );
    }
}

/// What a fork may share with its original, read back: the fingerprint,
/// the registry and loaded set behind the SP console, and the oracle's
/// report as configured and as a strict copy would give it (which compares
/// the stream logs byte for byte).
fn observe(sim: &mut Simulator, proxy: NodeId) -> (u64, String, Vec<String>, String, String) {
    let (regs, loaded) = sim.with_node::<ServiceProxy, _>(proxy, |sp| {
        (format!("{:?}", sp.engine.registrations()), sp.engine.catalog.loaded_names())
    });
    let reports = sim
        .with_packet_observer(|o: &mut Oracle| {
            let mut strict = o.clone();
            strict.set_strict(true);
            (format!("{:?}", o.clone().finish()), format!("{:?}", strict.finish()))
        })
        .expect("the oracle is attached");
    (sim.state_hash(), regs, loaded, reports.0, reports.1)
}

/// Drives `sim` off the default path and rewrites everything a fork
/// shares with its original until the first write: a non-default
/// decision, the registry and loaded set through the SP console, the
/// oracle's configuration, and further steps that extend its stream logs.
fn diverge(sim: &mut Simulator, proxy: NodeId) {
    let delivery = loop {
        let options = sim.mc_options();
        assert!(!options.is_empty(), "the world went quiet before a delivery was due");
        match options.iter().find(|o| o.is_delivery) {
            Some(o) => break o.index,
            None => sim.mc_step(0, McAction::Deliver).unwrap(),
        }
    };
    sim.mc_step(delivery, McAction::Drop).unwrap();
    let now = sim.now();
    sim.with_node::<ServiceProxy, _>(proxy, |sp| {
        sp.exec(now, &format!("delete compress 0.0.0.0 0 {} 0", addrs::MOBILE));
        sp.exec(now, &format!("add snoop 0.0.0.0 0 {} 0", addrs::WIRED));
        sp.exec(now, "remove /lib/rdrop.so");
        sp.exec(now, "remove /lib/hdiscard.so");
        sp.exec(now, "load /lib/hdiscard.so");
    });
    sim.with_packet_observer(|o: &mut Oracle| {
        o.set_strict(true);
        o.set_allow_reordered_delivery(false);
    });
    for _ in 0..20 {
        if sim.mc_options().is_empty() {
            break;
        }
        sim.mc_step(0, McAction::Deliver).unwrap();
    }
}

/// A fork is isolated from its original in both directions: whatever one
/// world does — a different decision, console commands, oracle setters,
/// more steps — the other reads back exactly as it did at the fork. (The
/// round-trip test above only shows that two worlds driven alike stay
/// alike.)
#[test]
fn mc_snapshot_isolates_fork_from_original() {
    let mut world = build_scenario(&McConfig::default());
    let proxy = world.proxy;
    for _ in 0..40 {
        world.sim.mc_step(0, McAction::Deliver).unwrap();
    }
    let at_fork = observe(&mut world.sim, proxy);

    let mut branch = world.sim.snapshot().expect("snapshot");
    assert_eq!(observe(&mut branch, proxy), at_fork, "a fresh fork reads as its original");
    diverge(&mut branch, proxy);
    let moved = observe(&mut branch, proxy);
    assert_ne!(moved.0, at_fork.0, "the branch's fingerprint moved");
    assert_ne!(moved.1, at_fork.1, "the branch's registry changed");
    assert_ne!(moved.2, at_fork.2, "the branch's loaded set changed");
    assert_ne!(moved.4, at_fork.4, "the branch's stream logs grew");
    assert_eq!(observe(&mut world.sim, proxy), at_fork, "the branch leaked into the original");

    // The other way round: the original diverges under a fresh fork.
    let mut fork = world.sim.snapshot().expect("snapshot");
    diverge(&mut world.sim, proxy);
    assert_eq!(observe(&mut fork, proxy), at_fork, "the original leaked into its fork");
    assert_eq!(observe(&mut branch, proxy), moved, "the original leaked into the first branch");
}

/// A fresh world driven along `path`, fingerprinted once: no digest of it
/// was ever cached.
fn fresh_replay_hash(cfg: &McConfig, path: &[McDecision]) -> u64 {
    let mut world = build_scenario(cfg);
    for d in path {
        world.sim.mc_step(d.index, d.action).expect("the path replays");
    }
    world.sim.state_hash()
}

/// The per-node digest cache is invisible. Random decision paths through
/// the mc scenario fork at random depths and now and then return to the
/// world they forked from; at every step the world's fingerprint, its
/// node digests cached and shared with forks, must equal that of a fresh
/// world replaying the same path, and a world's fingerprint must not move
/// while a fork of it takes steps.
#[test]
fn cached_state_hash_matches_a_fresh_replay() {
    let cfg = McConfig {
        transfer_bytes: 300,
        ..McConfig::default()
    };
    Runner::new("cached_state_hash_matches_a_fresh_replay")
        .cases(32)
        .run(
            |rng| (rng.gen::<u64>(), rng.gen_range(20..70)),
            |&(seed, steps)| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut sim = build_scenario(&cfg).sim;
                let mut path = Vec::new();
                // The worlds this one forked from: (world, path, fingerprint).
                let mut parents: Vec<(Simulator, Vec<McDecision>, u64)> = Vec::new();
                for step in 0..steps {
                    if rng.gen_bool(0.25) {
                        let fork = sim.snapshot()?;
                        let at_fork = sim.state_hash();
                        parents.push((std::mem::replace(&mut sim, fork), path.clone(), at_fork));
                    } else if !parents.is_empty() && rng.gen_bool(0.15) {
                        let (mut parent, parent_path, at_fork) = parents.pop().expect("not empty");
                        if parent.state_hash() != at_fork {
                            return Err(format!("step {step}: a fork's steps moved its parent"));
                        }
                        (sim, path) = (parent, parent_path);
                    }
                    let options = sim.mc_options();
                    if options.is_empty() {
                        break;
                    }
                    let o = options[gen::index(&mut rng, options.len())];
                    let faults = [McAction::Drop, McAction::Duplicate, McAction::Reorder];
                    let action = if o.is_delivery && rng.gen_bool(0.2) {
                        faults[gen::index(&mut rng, faults.len())]
                    } else {
                        McAction::Deliver
                    };
                    sim.mc_step(o.index, action)?;
                    path.push(McDecision { index: o.index, action });
                    if sim.state_hash() != fresh_replay_hash(&cfg, &path) {
                        return Err(format!("step {step}: the fingerprint differs from a fresh replay"));
                    }
                }
                for (mut parent, _, at_fork) in parents {
                    if parent.state_hash() != at_fork {
                        return Err("a fork's steps moved its parent".to_string());
                    }
                }
                Ok(())
            },
        );
}

/// A filter that keeps no copyable state: no `clone_filter`.
struct Opaque;

impl Filter for Opaque {
    fn kind(&self) -> &'static str {
        "opaque"
    }
    fn priority(&self) -> Priority {
        Priority::Normal
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities::READ_ONLY
    }
}

/// Cloneability belongs to a node's current state, not to the node: the
/// proxy forks fine until a packet makes it instantiate a filter without
/// `clone_filter`, and from then on `snapshot` refuses, naming it, though
/// a fork of the same proxy succeeded a few steps earlier.
#[test]
fn mc_snapshot_checks_cloneability_per_written_state() {
    let mut world = build_scenario(&McConfig::default());
    let proxy = world.proxy;
    world.sim.with_node::<ServiceProxy, _>(proxy, |sp| {
        sp.engine.catalog.register_loaded("opaque", Box::new(|_| Ok(Box::new(Opaque))));
        sp.engine.register(WildKey::ANY, "opaque", vec![]).expect("a loaded kind");
    });
    let fork = world.sim.snapshot().expect("no opaque instance yet");
    assert!(world.sim.snapshot().is_ok(), "a second fork of the same state");
    let mut steps = 0;
    let refusal = loop {
        world.sim.mc_step(0, McAction::Deliver).expect("a due event");
        steps += 1;
        match world.sim.snapshot() {
            Ok(_) => {}
            Err(e) => break e,
        }
    };
    assert!(steps > 1, "the first packet reaches the proxy after a step or two");
    assert_eq!(
        refusal,
        format!(
            "cannot snapshot: node {} ({}) does not implement clone_node",
            proxy.0,
            world.sim.node_name(proxy)
        )
    );
    assert!(fork.snapshot().is_ok(), "the earlier fork kept its own proxy");
}

/// A search cut by its step budget says so: the report does not end in a
/// bare "no violations" it has not earned.
#[test]
fn mc_budget_cut_report_says_the_search_is_incomplete() {
    let cut = explore(&McConfig {
        step_budget: 50,
        ..reduced()
    });
    assert!(cut.budget_exhausted && cut.violation.is_none(), "{}", cut.render());
    let text = cut.render();
    assert!(text.contains("STEP BUDGET EXHAUSTED"), "{text}");
    assert!(
        text.ends_with("; no violations within the step budget (search incomplete)"),
        "{text}"
    );
    let clean = McReport::default().render();
    assert!(clean.ends_with("; no violations"), "{clean}");
    assert!(!clean.contains("incomplete"), "{clean}");
}

/// A search cut by its depth bound is not clean, and its report says so.
#[test]
fn mc_depth_cut_is_not_clean() {
    let cut = explore(&McConfig { max_depth: 10, ..reduced() });
    assert!(cut.depth_bound_hits > 0 && cut.violation.is_none(), "{}", cut.render());
    assert!(!cut.exhausted_clean(), "{}", cut.render());
    let text = cut.render();
    assert!(
        text.ends_with("; no violations within the depth bound (search incomplete)"),
        "{text}"
    );
}

/// A debug-sized exhaustive exploration of the two-flow scenario finishes
/// clean, and fingerprint pruning collapses at least 30% of the state
/// arrivals (independent flows commute; conflated schedules must conflate).
#[test]
fn mc_reduced_exploration_exhausts_clean_with_dedup() {
    let report = explore(&reduced());
    assert!(
        report.exhausted_clean(),
        "reduced exploration not clean: {}",
        report.render()
    );
    assert!(report.states_explored > 100, "{}", report.render());
    assert!(
        report.dedup_ratio() >= 0.30,
        "dedup ratio {:.3} < 0.30 — an arrival-history artifact is leaking \
         into a state digest: {}",
        report.dedup_ratio(),
        report.render()
    );
}

/// Partition equivalence, pinned: the five coverage counts of three small
/// explorations (and the length of the mutation's violating trace,
/// asserted below) were recorded *before* the fingerprint moved off
/// formatted strings and FNV-1a, before the wheel snapshot went sparse and
/// before the last alternative stopped being copied. A fingerprint that
/// merges or splits a single state class moves `states_explored` or
/// `states_pruned`; a search that visits in a different order or copies at
/// different points moves `steps_executed`, `terminal_states` or the depth.
#[test]
fn mc_coverage_counts_match_recorded_partition() {
    // (config, [explored, pruned, steps, terminal, max depth])
    let default = McConfig::default;
    let pinned = [
        (
            McConfig { flows: 1, max_faults: 1, ..default() },
            [970, 181, 1_150, 29, 47],
        ),
        (
            McConfig { flows: 2, max_faults: 0, ..default() },
            [2_877, 2_554, 5_430, 4, 66],
        ),
        (
            McConfig { flows: 2, transfer_bytes: 300, max_faults: 1, ..default() },
            [50_475, 42_258, 92_732, 122, 80],
        ),
    ];
    for (cfg, want) in pinned {
        let r = explore(&cfg);
        assert!(r.exhausted_clean(), "{}", r.render());
        let got = [
            r.states_explored,
            r.states_pruned,
            r.steps_executed,
            r.terminal_states,
            r.max_depth_reached as u64,
        ];
        assert_eq!(
            got, want,
            "flows {} bytes {} faults {}: {}",
            cfg.flows,
            cfg.transfer_bytes,
            cfg.max_faults,
            r.render()
        );
    }
}

/// The bounds ROADMAP item 10 banks, pinned like the partition above:
/// twice the fault budget, and two and three times the transfer. The five
/// counts of each were recorded on the tree that still cloned every node
/// on every fork and hashed every node on every fingerprint, so they hold
/// the node cache to the partition that tree drew. A cache that kept a
/// node's digest across a write explored 225,058 states at the default
/// bounds, not 50,475. Too slow for the debug workspace pass: run in
/// release by `./scripts/ci.sh mc`.
#[test]
#[ignore = "release-only: run by ./scripts/ci.sh mc"]
fn mc_banked_bounds_match_recorded_counts() {
    // (config, [explored, pruned, steps, terminal, max depth])
    let default = || McConfig { step_budget: 50_000_000, ..McConfig::default() };
    let pinned = [
        (McConfig { max_faults: 2, ..default() }, [561_412, 429_717, 991_128, 1_834, 94]),
        (McConfig { transfer_bytes: 2_000, ..default() }, [45_191, 31_610, 76_800, 178, 98]),
        (McConfig { transfer_bytes: 3_000, ..default() }, [121_211, 109_910, 231_120, 218, 112]),
    ];
    for (cfg, want) in pinned {
        let r = explore(&cfg);
        assert!(r.exhausted_clean(), "{}", r.render());
        let got = [
            r.states_explored,
            r.states_pruned,
            r.steps_executed,
            r.terminal_states,
            r.max_depth_reached as u64,
        ];
        assert_eq!(
            got, want,
            "bytes {} faults {}: {}",
            cfg.transfer_bytes,
            cfg.max_faults,
            r.render()
        );
    }
}

/// Pinned known-bug rediscovery (the shipped-bounds sweep found no organic
/// counterexample, so this mutation is the checker's teeth): arming
/// `Ttsf::mutate_skip_ack_translation` mid-stream must surface a
/// delivered-ACK regression, and the minimized counterexample must replay.
#[test]
fn regression_mc_rediscovers_skipped_ack_translation() {
    let cfg = McConfig {
        max_faults: 0,
        mutate_skip_ack_translation: true,
        ..McConfig::default()
    };
    let report = explore(&cfg);
    let v = report
        .violation
        .as_ref()
        .expect("mutation must be rediscovered");
    assert!(
        v.detail.contains("delivered-ack-regression"),
        "unexpected violation kind: {}",
        v.detail
    );
    // Recorded with the counts above: the first violating path is the
    // 55-step all-FIFO schedule, and no step of it can be dropped.
    assert_eq!(v.trace.decisions.len(), 55);
    assert_eq!(v.minimized.decisions.len(), 55);
    let replayed = replay_mc_trace(&cfg, &v.minimized);
    let (step, detail) = replayed
        .violation
        .expect("minimized counterexample must replay to a violation");
    assert_eq!(step, v.minimized.decisions.len());
    assert!(detail.contains("delivered-ack-regression"), "{detail}");
}

/// Without the mutation the same configuration is clean — the rediscovery
/// above is the mutation's doing, not a latent bug in the scenario.
#[test]
fn mc_mutation_config_clean_when_unarmed() {
    let report = explore(&reduced());
    assert!(report.violation.is_none(), "{}", report.render());
}

/// The Kati shell's `mc` subcommand runs a self-contained exploration and
/// reports coverage; bad arguments get usage instead of a panic.
#[test]
fn kati_mc_subcommand_reports_coverage() {
    let mut world = CommaBuilder::new(7).eem(false).build(
        vec![Box::new(BulkSender::new((addrs::MOBILE, 9000), 4_000))],
        vec![Box::new(Sink::new(9000))],
    );
    let mut kati = Kati::new(world.proxy);
    let out = kati.exec(&mut world.sim, "mc flows 1 faults 0 steps 20000");
    assert!(out.contains("explored"), "unexpected mc output: {out}");
    assert!(out.trim_end().ends_with("; no violations"), "{out}");
    let cut = kati.exec(&mut world.sim, "mc flows 1 faults 0 steps 10");
    assert!(cut.contains("(search incomplete)"), "{cut}");
    let usage = kati.exec(&mut world.sim, "mc bogus");
    assert!(usage.starts_with("usage: mc"), "{usage}");
    assert!(kati.exec(&mut world.sim, "help").contains("mc [seed N]"));
}
