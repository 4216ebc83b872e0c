//! The harness self-test: every workload shrunk to well under a second,
//! two reps, through both binaries — so the benchmark cannot rot between
//! benchmark runs without costing the repository's tier-1 time.

use std::path::Path;
use std::process::Command;

use comma_benchmark::json::{parse, Value};
use comma_benchmark::metrics::{END_TO_END, PER_LAYER};
use comma_benchmark::workloads::Workload;

fn result_lines(stdout: &str) -> Vec<Value> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| parse(l).expect("result line is JSON"))
        .collect()
}

fn value(result: &Value, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{metric} missing from the result line"))
}

/// The default seed and one the harness was not written against.
#[test]
fn timed_smoke_run_is_correct_on_two_seeds() {
    for seed in ["42", "7"] {
        let out = Command::new(env!("CARGO_BIN_EXE_comma-benchmark"))
            .args(["run", "--smoke", "--seed", seed])
            .output()
            .expect("timed binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "seed {seed} failed:\n{stdout}");
        let results = result_lines(&stdout);
        assert_eq!(
            results.len(),
            Workload::ALL.len(),
            "one result line per workload"
        );
        for r in &results {
            assert_eq!(r.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(r.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = r.get("metrics").and_then(Value::as_obj).expect("metrics");
            assert_eq!(
                metrics.len(),
                END_TO_END.len(),
                "exactly the end-to-end metrics"
            );
            for m in &END_TO_END {
                assert!(value(r, m.name) > 0.0, "{} must never be 0", m.name);
            }
        }
    }
}

#[test]
fn traced_smoke_run_fills_the_ledger_and_writes_spans() {
    for w in Workload::ALL {
        let out = Command::new(env!("CARGO_BIN_EXE_comma-benchmark-traced"))
            .args(["--smoke", "--workload", w.name()])
            .output()
            .expect("traced binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{} failed:\n{stdout}", w.name());
        let r = &result_lines(&stdout)[0];
        let metrics = r.get("metrics").and_then(Value::as_obj).expect("metrics");
        assert_eq!(
            metrics.len(),
            PER_LAYER.len(),
            "exactly the per-layer metrics"
        );

        // Each layer shows on the workloads that use it and nowhere else.
        let present = |name: &str| value(r, name) != 0.0;
        assert_eq!(present("fluid.epochs"), w == Workload::Metro);
        assert_eq!(present("fluid.extra_s"), w == Workload::Metro);
        assert_eq!(present("mc.states"), w == Workload::McTtsf);
        assert_eq!(present("obs.extra_s"), w == Workload::BulkLit);
        assert_eq!(present("oracle.extra_s"), w == Workload::BulkLit);
        assert_eq!(present("ttsf.bytes_removed"), w == Workload::BulkLit);
        assert_eq!(
            present("shard.windows"),
            matches!(w, Workload::Flows10k | Workload::Metro)
        );
        assert_eq!(present("engine.pkts"), w != Workload::McTtsf);
        assert!(
            present("rt.allocs_per_event"),
            "the traced binary counts allocations"
        );
        assert!(present("trace.overhead_s"));

        let spans = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", w.name()));
        let text = std::fs::read_to_string(&spans).expect("span file written");
        assert!(text.lines().count() >= 4, "passes and reps are spans");
        for line in text.lines() {
            let span = parse(line).expect("span is JSON");
            assert_eq!(span.get("workload").and_then(Value::as_str), Some(w.name()));
            assert!(
                span.get("end_ns").and_then(Value::as_f64)
                    >= span.get("start_ns").and_then(Value::as_f64)
            );
        }
    }
}
