//! The deterministic fault-injection harness end to end: seeded fault
//! plans perturb live transfers while the conformance oracle watches, and
//! deliberate mutations of the stack prove the oracle actually fires.
//!
//! Three mutation tests cover the classic middlebox sins:
//! - a broken checksum lets corrupted payload through → `payload-integrity`
//! - a proxy acknowledges on the mobile's behalf → `ack-not-from-peer`
//! - a TTSF stops translating uplink ACKs → `delivered-ack-regression`

use comma_repro::prelude::*;
use comma_repro::filters::snoop::Snoop;

/// The suite's standard fault plan: reorder + duplicate + checksum-caught
/// corruption, two flaps, and a bandwidth dip mid-transfer.
fn stress_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .reorder(0.02, SimDuration::from_millis(15))
        .duplicate(0.01)
        .corrupt(0.01)
        .flap(SimTime::from_secs(2), SimDuration::from_millis(400))
        .flap(SimTime::from_secs(6), SimDuration::from_millis(250))
        .bandwidth_step(SimTime::from_secs(4), 1_000_000)
        .bandwidth_step(SimTime::from_secs(8), 5_000_000)
}

/// Re-checks `world`'s captured trace after the run with a fresh oracle set
/// like the live one: the post-hoc pass reads each entry's header facts.
fn replay(world: &CommaWorld, allow_reordered: bool, strict: bool) -> OracleReport {
    let endpoints = vec![(world.wired, addrs::WIRED), (world.mobile, addrs::MOBILE)];
    let mut oracle = Oracle::new(OracleConfig::new(endpoints.clone()));
    oracle.set_allow_reordered_delivery(allow_reordered);
    oracle.set_strict(strict);
    oracle.replay_trace(&world.sim.trace, &endpoints);
    oracle.finish()
}

/// Runs a 300 KB transfer under the stress plan with the oracle attached;
/// asserts completion, a clean report, and a replay of the captured trace
/// that checks the same segments and finds nothing either. Returns the
/// packet-trace digest.
fn run_faulted(seed: u64) -> u64 {
    let sender = BulkSender::new((addrs::MOBILE, 9000), 300_000);
    let mut world = CommaBuilder::new(seed)
        .build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");
    world.apply_fault_plan(&stress_plan(seed ^ 0xfa17));
    world.attach_oracle();
    world.sim.trace.set_capture(true);
    world.sim.trace.set_max_entries(1 << 20);
    world.run_until(SimTime::from_secs(120));
    let sink = world.mobile_app_ids[0];
    let bytes = world.mobile_app::<Sink, _>(sink, |s| s.bytes_received);
    assert_eq!(bytes, 300_000, "transfer survives the fault plan");
    let live = world.oracle_report();
    assert!(live.is_clean(), "live oracle:\n{}", live.render());
    assert!(live.segments_checked > 0);
    let replayed = replay(&world, true, true);
    assert!(replayed.is_clean(), "replayed trace:\n{}", replayed.render());
    assert_eq!(replayed.segments_checked, live.segments_checked, "replay saw what the live oracle saw");
    world.sim.trace.digest()
}

/// A faulted run completes, stays oracle-clean, and the faults really
/// happened (reorders, duplicates, corrupt drops, link flaps).
#[test]
fn faulted_transfer_completes_oracle_clean() {
    let sender = BulkSender::new((addrs::MOBILE, 9000), 300_000);
    let mut world = CommaBuilder::new(901)
        .build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");
    world.apply_fault_plan(&stress_plan(7));
    world.attach_oracle();
    world.run_until(SimTime::from_secs(120));
    let sink = world.mobile_app_ids[0];
    let bytes = world.mobile_app::<Sink, _>(sink, |s| s.bytes_received);
    assert_eq!(bytes, 300_000);
    let stats = world
        .sim
        .fault_stats(world.wireless_ch.0)
        .expect("fault state installed");
    assert!(
        stats.reordered > 0 && stats.duplicated > 0 && stats.corrupt_drops > 0,
        "the plan actually perturbed the downlink: {stats:?}"
    );
    world.assert_oracle_clean();
}

/// Same seed ⇒ byte-identical packet trace, faults and all; different
/// seed ⇒ a different fault schedule.
#[test]
fn faulted_runs_same_seed_byte_identical() {
    let a = run_faulted(902);
    let b = run_faulted(902);
    assert_eq!(a, b, "same (seed, plan) must replay identically");
    let c = run_faulted(903);
    assert_ne!(a, c, "distinct seeds must take distinct fault paths");
}

/// Mutation 1 — a corrupted payload delivered anyway (the packet a broken
/// checksum would have let through) must fail the end-to-end integrity
/// check.
#[test]
fn mutation_corrupt_checksum_bypass_detected() {
    let sender = BulkSender::new((addrs::MOBILE, 9000), 100_000);
    let mut world = CommaBuilder::new(904)
        .build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");
    world.apply_fault_plan(&FaultPlan::new(17).corrupt_deliver(0.01));
    world.attach_oracle();
    world.run_until(SimTime::from_secs(60));
    let report = world.oracle_report();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == "payload-integrity"),
        "flipped bytes must fail the stream digest:\n{}",
        report.render()
    );
}

/// Mutation 2 — a split-connection mutant (the snoop filter fabricating
/// ACKs on the mobile's behalf) must be flagged: nobody in the middle may
/// acknowledge data the receiver never covered.
#[test]
fn mutation_fabricated_proxy_ack_detected() {
    let sender = BulkSender::new((addrs::MOBILE, 9000), 200_000);
    let mut world = CommaBuilder::new(905)
        .build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    world.sp("add snoop 0.0.0.0 0 11.11.10.10 9000");
    world.attach_oracle();
    // Let the connection establish and the snoop instance come live...
    world.run_until(SimTime::from_millis(500));
    world.sim.with_node::<ServiceProxy, _>(world.proxy, |sp| {
        let snoops = sp.engine.instances_as::<Snoop>("snoop");
        assert!(!snoops.is_empty(), "snoop instance live");
        for s in snoops {
            s.mutate_fabricate_acks = true;
        }
    });
    world.run_until(SimTime::from_secs(30));
    let report = world.oracle_report();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == "ack-not-from-peer"),
        "fabricated ACKs must be flagged:\n{}",
        report.render()
    );
}

/// Mutation 3 — a TTSF that stops translating uplink ACKs (losing the
/// edit-map inverse mapping mid-stream) must be flagged: in a FIFO
/// network the ACK stream delivered to the sender never regresses.
#[test]
fn mutation_skipped_ttsf_ack_translation_detected() {
    let sender = RecordSender::synthetic((addrs::MOBILE, 9000), 2000, 300);
    let mut world = CommaBuilder::new(906)
        .build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    world.sp("add removal 0.0.0.0 0 11.11.10.10 9000 2");
    world.attach_oracle();
    world.sim.trace.set_capture(true);
    world.sim.trace.set_max_entries(1 << 20);
    // Run with correct translation first (the sender's delivered ACKs are
    // in the original space, ahead of the shortened stream)...
    world.run_until(SimTime::from_secs(1));
    world.sim.with_node::<ServiceProxy, _>(world.proxy, |sp| {
        let ttsfs = sp.engine.instances_as::<Ttsf>("removal");
        assert!(!ttsfs.is_empty(), "removal instance live");
        for t in ttsfs {
            t.mutate_skip_ack_translation = true;
        }
    });
    world.run_until(SimTime::from_secs(40));
    let report = world.oracle_report();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == "delivered-ack-regression"),
        "untranslated ACKs must be flagged as a regression:\n{}",
        report.render()
    );
    // The post-hoc pass over the captured trace finds it too (the removal
    // service rewrites the stream, so strict findings are off as live).
    let replayed = replay(&world, false, false);
    assert!(
        replayed
            .violations
            .iter()
            .any(|v| v.kind == "delivered-ack-regression"),
        "the replayed trace must show the regression too:\n{}",
        replayed.render()
    );
}
