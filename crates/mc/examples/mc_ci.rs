//! The `./scripts/ci.sh mc` gate runner.
//!
//! Three checks, any failure exits nonzero with a banner:
//!
//! 1. the shipped-default exploration ([`McConfig::default`]) must finish
//!    exhaustively (no step-budget hit) with zero violations, at least
//!    30% fingerprint dedup, and at most one world copy per two steps
//!    (a deterministic count — the wall clock is reported, never gated);
//! 2. the known-bug mutation (`mutate_skip_ack_translation`) must be
//!    rediscovered as a `delivered-ack-regression` within the same budget,
//!    and its minimized trace must replay to a violation;
//! 3. the coverage numbers are written to `BENCH_mc.json` (first argument,
//!    default `BENCH_mc.json`) — this tool's own file, written whole.

use std::process::exit;

use comma_mc::{explore, replay_mc_trace, McConfig};
use comma_rt::Json;

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_mc.json".into());

    let cfg = McConfig::default();
    let t = std::time::Instant::now();
    let report = explore(&cfg);
    let wall_ms = t.elapsed().as_secs_f64() * 1_000.0;
    println!("{}", report.render());
    println!("wall: {wall_ms:.1} ms");
    if !report.exhausted_clean() || report.states_explored == 0 {
        eprintln!("mc gate FAILED: shipped exploration not clean/exhaustive");
        exit(1);
    }
    if report.dedup_ratio() < 0.30 {
        eprintln!(
            "mc gate FAILED: dedup ratio {:.3} < 0.30 — state fingerprints have \
             stopped converging (arrival-history artifact in a digest?)",
            report.dedup_ratio()
        );
        exit(1);
    }

    if report.snapshots_taken * 2 > report.steps_executed {
        eprintln!(
            "mc gate FAILED: {} snapshots for {} steps (> 1 per 2) — the explorer \
             is copying worlds it then throws away (last alternative at a fork?)",
            report.snapshots_taken, report.steps_executed
        );
        exit(1);
    }

    let mcfg = McConfig {
        max_faults: 0,
        mutate_skip_ack_translation: true,
        ..McConfig::default()
    };
    let mreport = explore(&mcfg);
    let Some(v) = &mreport.violation else {
        eprintln!(
            "mc gate FAILED: mutate_skip_ack_translation not rediscovered \
             ({} states explored) — the oracle pipeline is blind",
            mreport.states_explored
        );
        exit(1);
    };
    println!("mutation rediscovered: {}", v.detail);
    println!("  minimized: {}", v.minimized);
    let replayed = replay_mc_trace(&mcfg, &v.minimized);
    if replayed.violation.is_none() {
        eprintln!(
            "mc gate FAILED: minimized counterexample does not replay \
             (error: {:?})",
            replayed.error
        );
        exit(1);
    }

    let doc = Json::obj([
        ("states_explored", Json::U64(report.states_explored)),
        ("states_pruned", Json::U64(report.states_pruned)),
        ("steps_executed", Json::U64(report.steps_executed)),
        ("max_depth", Json::U64(report.max_depth_reached as u64)),
        ("terminal_schedules", Json::U64(report.terminal_states)),
        ("dedup_ratio", Json::F64(report.dedup_ratio(), 3)),
        ("states_per_sec", Json::F64(report.states_explored as f64 / (wall_ms / 1_000.0), 0)),
        ("violations", Json::U64(report.violation.is_some() as u64)),
        ("wall_ms", Json::F64(wall_ms, 1)),
        ("snapshots_taken", Json::U64(report.snapshots_taken)),
    ]);
    if let Err(e) = std::fs::write(&path, format!("{}\n", doc.render())) {
        eprintln!("mc gate FAILED: cannot write {path}: {e}");
        exit(1);
    }
    println!("mc gate ok ({} states, {:.0}% dedup)", report.states_explored, report.dedup_ratio() * 100.0);
}
