//! A tiny benchmark harness: warmup, calibrated iteration counts, and
//! median/p95 wall-clock reporting.
//!
//! The shape mirrors how the bench crate used criterion — groups of named
//! benchmarks, optional byte-throughput annotation, batched setup — but the
//! output is a plain table on stdout and the whole harness is ~200 lines,
//! which is all a deterministic single-threaded simulator needs.
//!
//! 30 samples of 5 ms each by default; `COMMA_BENCH_FAST=1` takes 5 samples
//! of 1 ms for CI smoke runs.
//!
//! ```no_run
//! use comma_rt::bench::Bench;
//!
//! let mut bench = Bench::new();
//! let mut g = bench.group("codec");
//! g.throughput_bytes(16_384);
//! g.bench("compress_16k", || {
//!     // work under test
//! });
//! g.finish();
//! bench.finish();
//! ```

use std::time::{Duration, Instant};

/// Top-level harness: owns the result table and prints it on
/// [`Bench::finish`].
pub struct Bench {
    rows: Vec<Row>,
    samples: usize,
    sample_target: Duration,
}

struct Row {
    group: String,
    id: String,
    median_ns: f64,
    p95_ns: f64,
    throughput: Option<u64>,
}

impl Bench {
    /// Creates a harness, sized by `COMMA_BENCH_FAST`.
    pub fn new() -> Self {
        let fast = std::env::var("COMMA_BENCH_FAST").map(|v| v == "1").unwrap_or(false);
        let (samples, ms) = if fast { (5, 1) } else { (30, 5) };
        Bench { rows: Vec::new(), samples, sample_target: Duration::from_millis(ms) }
    }

    /// Opens a named group of benchmarks.
    pub fn group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            bench: self,
            name: name.into(),
            throughput: None,
            sample_size: None,
        }
    }

    /// Prints the result table.
    pub fn finish(self) {
        let width = self
            .rows
            .iter()
            .map(|r| r.group.len() + r.id.len() + 1)
            .max()
            .unwrap_or(10)
            .max(10);
        println!();
        println!("{:<width$}  {:>12}  {:>12}  {:>12}", "benchmark", "median", "p95", "throughput");
        println!("{}", "-".repeat(width + 44));
        for r in &self.rows {
            let name = format!("{}/{}", r.group, r.id);
            let thr = match r.throughput {
                Some(bytes) if r.median_ns > 0.0 => {
                    let mbps = bytes as f64 / r.median_ns * 1e9 / (1024.0 * 1024.0);
                    format!("{mbps:>9.1} MiB/s")
                }
                _ => String::new(),
            };
            println!(
                "{name:<width$}  {:>12}  {:>12}  {thr:>12}",
                fmt_ns(r.median_ns),
                fmt_ns(r.p95_ns),
            );
        }
        println!();
    }
}

impl Default for Bench {
    fn default() -> Self {
        Bench::new()
    }
}

/// A named group; benchmarks registered here share throughput/sample
/// settings and a common prefix in the report.
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    throughput: Option<u64>,
    sample_size: Option<usize>,
}

impl Group<'_> {
    /// Annotates subsequent benchmarks with bytes processed per iteration
    /// (reported as MiB/s).
    pub fn throughput_bytes(&mut self, bytes: u64) {
        self.throughput = Some(bytes);
    }

    /// Overrides the sample count for this group (e.g. for slow end-to-end
    /// simulations).
    pub fn sample_size(&mut self, n: usize) {
        self.sample_size = Some(n.max(2));
    }

    /// Measures `f`, whose return value is sunk through
    /// [`std::hint::black_box`] so the optimizer cannot elide the work.
    pub fn bench<R>(&mut self, id: impl Into<String>, mut f: impl FnMut() -> R) {
        self.bench_batched(id, || (), move |()| f());
    }

    /// Measures `routine` over inputs produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn bench_batched<I, R>(
        &mut self,
        id: impl Into<String>,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
    ) {
        let id = id.into();
        let samples = self.sample_size.unwrap_or(self.bench.samples);
        let target = self.bench.sample_target;

        // Warmup + calibration: time single iterations until we know
        // roughly how many fit in one sample.
        let mut one = Duration::ZERO;
        for _ in 0..3 {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(routine(input));
            one = one.max(t.elapsed());
        }
        let iters = if one.is_zero() {
            1024
        } else {
            (target.as_nanos() / one.as_nanos().max(1)).clamp(1, 1 << 20) as usize
        };

        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let t = Instant::now();
            for input in inputs {
                std::hint::black_box(routine(input));
            }
            per_iter_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let median = per_iter_ns[per_iter_ns.len() / 2];
        let p95 = per_iter_ns[(per_iter_ns.len() * 95 / 100).min(per_iter_ns.len() - 1)];
        eprintln!("{}/{id}: median {} p95 {}", self.name, fmt_ns(median), fmt_ns(p95));
        self.bench.rows.push(Row {
            group: self.name.clone(),
            id,
            median_ns: median,
            p95_ns: p95,
            throughput: self.throughput,
        });
    }

    /// Closes the group (consumes it; results live in the parent harness).
    pub fn finish(self) {}
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        std::env::set_var("COMMA_BENCH_FAST", "1");
        let mut bench = Bench::new();
        let mut g = bench.group("smoke");
        g.throughput_bytes(64);
        let mut acc = 0u64;
        g.bench("sum64", || {
            for i in 0..64u64 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        g.bench_batched("batched", || vec![1u8; 64], |v| v.iter().map(|&b| b as u64).sum::<u64>());
        g.finish();
        assert_eq!(bench.rows.len(), 2);
        assert!(bench.rows.iter().all(|r| r.median_ns >= 0.0 && r.p95_ns >= r.median_ns));
        bench.finish();
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert!(fmt_ns(12.0).contains("ns"));
        assert!(fmt_ns(12_000.0).contains("µs"));
        assert!(fmt_ns(12_000_000.0).contains("ms"));
        assert!(fmt_ns(12_000_000_000.0).ends_with(" s"));
    }
}
