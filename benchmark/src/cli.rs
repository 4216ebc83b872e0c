//! Command line of the timed binary: `run`, `trace` (delegated to the
//! traced binary) and `aa`.
//!
//! Each workload runs in a process of its own, so `peak_rss_mb` is that
//! workload's high-water mark and no workload warms another's allocator.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Value};
use crate::metrics::{result_line, Reading, END_TO_END};
use crate::run::{timed_run, RunReport};
use crate::stats::{pin_to_current_cpu, pinned};
use crate::workloads::{Scenario, Workload};

pub const USAGE: &str = "\
usage: comma-benchmark <run|trace|aa> [options]
  run    time the workloads end to end and verify their outputs
  trace  per-layer counters, replays and differentials (traced binary)
  aa     run two full sets back to back and compare them against the bounds
options:
  --workload <bulk_lit|flows_10k|metro|mc_ttsf>   default: all four, one process each
  --seed <n>       workload seed (default 42)
  --seconds <s>    time budget for the timed reps of one workload (default 16)
  --trace <0|1>    with `run`: 1 is the same as `trace`
  --smoke          shrink every workload to well under a second (harness self-test)";

/// Parsed options shared by both binaries.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub command: String,
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Args {
    /// Parses `argv[1..]`; the error is a message for the user.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut it = argv.iter();
        let command = it.next().ok_or("missing command")?.clone();
        if !matches!(command.as_str(), "run" | "trace" | "aa") {
            return Err(format!("unknown command {command:?}"));
        }
        let mut args = Args {
            trace: command == "trace",
            command,
            workload: None,
            seed: 42,
            seconds: 16.0,
            smoke: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    args.workload =
                        Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
                }
                "--seed" => {
                    args.seed = value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?;
                }
                "--seconds" => {
                    args.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds takes a non-negative number")?;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    };
                }
                "--smoke" => args.smoke = true,
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        Ok(args)
    }

    /// The options as a child process takes them, for `workload`.
    fn child_argv(&self, workload: Workload) -> Vec<String> {
        let mut argv = vec![
            "--workload".to_string(),
            workload.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
        ];
        if self.smoke {
            argv.push("--smoke".to_string());
        }
        argv
    }
}

/// The end-to-end readings of one timed run, in catalogue order.
fn end_to_end_readings(r: &RunReport) -> Vec<Reading> {
    let values = [
        r.wall.min,
        r.setup.min,
        r.peak_rss_mb,
        r.sim_goodput_mbps(),
        r.sim_fct_p50_s(),
        r.sim_fct_p99_s(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Reading {
            name: m.name,
            unit: m.unit,
            value,
        })
        .collect()
}

fn print_run(r: &RunReport, cpu: Option<usize>) {
    let w = r.scenario.workload;
    println!(
        "== {} (seed {}{}, {}) — {}",
        w.name(),
        r.scenario.seed,
        if r.scenario.smoke { ", smoke" } else { "" },
        pinned(cpu),
        w.why()
    );
    println!(
        "  {:<18} {:>14.6} s       min of {} timed reps (median {:.6}, max {:.6})",
        "wall_s", r.wall.min, r.wall.n, r.wall.median, r.wall.max
    );
    println!(
        "  {:<18} {:>14.9} s       min of {} batches (median {:.9}, max {:.9})",
        "setup_s", r.setup.min, r.setup.n, r.setup.median, r.setup.max
    );
    println!("  {:<18} {:>14.3} MiB", "peak_rss_mb", r.peak_rss_mb);
    println!(
        "  {:<18} {:>14.6} Mbit/s  simulated",
        "sim_goodput_mbps",
        r.sim_goodput_mbps()
    );
    println!(
        "  {:<18} {:>14.6} sim_s   nearest rank over {} flows",
        "sim_fct_p50_s",
        r.sim_fct_p50_s(),
        r.reference.fct_s.len()
    );
    println!(
        "  {:<18} {:>14.6} sim_s",
        "sim_fct_p99_s",
        r.sim_fct_p99_s()
    );
    println!(
        "  {:<18} {:>14}         per rep; digest {:016x}",
        "sim_events", r.reference.sim_events, r.reference.digest
    );
    println!("  {:<18} {:>14}", "ops_total", r.attempted);
    println!("  {:<18} {:>14}", "ops_failed", r.failed);
    for why in r.failures.iter().take(10) {
        println!("  FAILED: {why}");
    }
}

/// Runs one workload in this process and prints its report and result
/// line. Returns whether every output was correct.
fn run_here(args: &Args, workload: Workload) -> bool {
    let cpu = pin_to_current_cpu();
    let report = timed_run(
        Scenario {
            workload,
            seed: args.seed,
            smoke: args.smoke,
        },
        args.seconds,
    );
    print_run(&report, cpu);
    println!(
        "{}",
        result_line(
            report.correct(),
            report.attempted,
            report.failed,
            &end_to_end_readings(&report)
        )
    );
    report.correct()
}

/// Runs `program argv...`, passing its output through, and returns its
/// result line. A child that found wrong outputs still prints one (with
/// `"correct": false`); a child that died does not, and that is an error.
fn run_child(program: &Path, argv: &[String]) -> Result<Value, String> {
    let out = Command::new(program)
        .args(argv)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    stdout
        .lines()
        .last()
        .and_then(|line| json::parse(line).ok())
        .filter(|v| v.get("correct").is_some())
        .ok_or_else(|| {
            format!(
                "{} {}: no result line ({})",
                program.display(),
                argv.join(" "),
                out.status
            )
        })
}

/// Re-runs this binary once per workload.
fn run_each(args: &Args) -> Result<Vec<(Workload, Value)>, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for w in Workload::ALL {
        let mut argv = vec!["run".to_string()];
        argv.extend(args.child_argv(w));
        results.push((w, run_child(&me, &argv)?));
    }
    Ok(results)
}

/// Hands a traced run to the traced binary, built (if stale) by the same
/// cargo and profile that built this one.
fn delegate_trace(args: &Args) -> Result<(), String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    for w in workloads {
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()))
            .args([
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
            ])
            .arg(&manifest)
            .args(["--bin", "comma-benchmark-traced", "--"])
            .args(args.child_argv(w))
            .status()
            .map_err(|e| format!("cannot start cargo: {e}"))?;
        if !status.success() {
            return Err(format!("traced run of {} failed: {status}", w.name()));
        }
    }
    Ok(())
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `aa`: two full sets of the same code, compared against the bounds.
fn aa(args: &Args) -> Result<bool, String> {
    println!("# aa: set 1");
    let first = run_each(args)?;
    println!("# aa: set 2");
    let second = run_each(args)?;
    println!("# aa: set 1 vs set 2 (difference as a share of set 1, worse is positive)");
    println!(
        "  {:<10} {:<18} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    let mut ok = true;
    for ((w, a), (_, b)) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (x, y) = metric_value(a, m.name)
                .zip(metric_value(b, m.name))
                .ok_or(format!("{} missing from a result line", m.name))?;
            let worse = if m.better == "lower" { y - x } else { x - y };
            let diff = worse / x.abs();
            // Both sets ran the same seed, so the simulated statistics
            // must repeat exactly; only host metrics get the bound.
            let within = if m.name.starts_with("sim_") {
                x == y
            } else {
                diff.abs() <= m.bound
            };
            ok &= within;
            println!(
                "  {:<10} {:<18} {:>16.9} {:>16.9} {:>+8.2}% {:>6.0}% {}",
                w.name(),
                m.name,
                x,
                y,
                diff * 100.0,
                m.bound * 100.0,
                if within { "" } else { "DIFFERS" }
            );
        }
    }
    println!(
        "# aa: {}",
        if ok {
            "host metrics within bounds, simulated statistics identical"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

/// Entry point of the timed binary.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("comma-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.command.as_str(), args.trace, args.workload) {
        ("aa", _, _) => aa(&args),
        (_, true, _) => delegate_trace(&args).map(|()| true),
        (_, false, Some(w)) => Ok(run_here(&args, w)),
        (_, false, None) => run_each(&args).map(|results| {
            results
                .iter()
                .all(|(_, r)| r.get("correct").and_then(Value::as_bool) == Some(true))
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("comma-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse("run --workload metro --seed 7 --seconds 16 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::Metro));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 16.0, false, false)
        );
        assert!(parse("run --trace 1").unwrap().trace);
        assert!(parse("trace").unwrap().trace);
    }

    #[test]
    fn bad_invocations_are_refused() {
        for bad in [
            "",
            "fly",
            "run --workload nope",
            "run --seed x",
            "run --trace 2",
            "run --seed",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
