//! The timed run: end-to-end metrics with tracing off.
//!
//! Shape of one run: one untimed warm-up rep (after which `peak_rss_mb` is
//! read), the `setup_s` batches, then timed reps of the whole workload
//! until the time budget is spent (at least [`MIN_REPS`], at most
//! [`MAX_REPS`]). Host-time metrics are the minimum over the timed reps;
//! simulated statistics are exact and must be identical in every rep.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{nearest_rank, peak_rss_mb, Spread};
use crate::workloads::{Options, RepResult, Scenario};

/// Timed reps are never cut below this, whatever the time budget.
pub const MIN_REPS: usize = 5;
/// More reps than this stop paying: the minimum has settled.
pub const MAX_REPS: usize = 8;
/// `setup_s` is the minimum over this many construct-and-drop batches.
pub const SETUP_BATCHES: usize = 5;

/// Everything one timed run measured.
pub struct RunReport {
    pub scenario: Scenario,
    /// Host seconds of one rep's run phase.
    pub wall: Spread,
    /// Host seconds to construct (and drop) one ready-to-run world.
    pub setup: Spread,
    /// `VmHWM` after the first rep of the process, MiB.
    pub peak_rss_mb: f64,
    /// Outputs and simulated statistics of the reference (first) rep.
    pub reference: RepResult,
    /// Operations attempted over all reps, the warm-up included.
    pub attempted: u64,
    /// Operations failed over all reps, plus one per rep that disagreed
    /// with the reference rep.
    pub failed: u64,
    /// Why, for every failure counted.
    pub failures: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn sim_goodput_mbps(&self) -> f64 {
        self.reference.goodput_mbps()
    }

    pub fn sim_fct_p50_s(&self) -> f64 {
        nearest_rank(&self.reference.fct_s, 50.0)
    }

    pub fn sim_fct_p99_s(&self) -> f64 {
        nearest_rank(&self.reference.fct_s, 99.0)
    }
}

/// Times `SETUP_BATCHES` batches of construct-and-drop and returns the
/// per-world seconds of each.
pub fn time_setup(scn: &Scenario, opts: &Options) -> Vec<f64> {
    let k = if scn.smoke {
        1
    } else {
        scn.workload.setup_batch()
    };
    (0..SETUP_BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..k {
                drop(black_box(scn.build(opts)));
            }
            t.elapsed().as_secs_f64() / k as f64
        })
        .collect()
}

/// One rep: build and arm the checks (untimed), run (timed), settle and
/// collect (untimed).
pub fn one_rep(scn: &Scenario, opts: &Options) -> (f64, RepResult) {
    let mut world = scn.build(opts);
    world.arm_checks();
    let t = Instant::now();
    world.run();
    let wall = t.elapsed().as_secs_f64();
    world.settle();
    (wall, world.collect())
}

/// Compares a rep against the reference rep of the same scenario.
pub fn disagreement(reference: &RepResult, rep: &RepResult) -> Option<String> {
    ((reference.sim_events, reference.digest) != (rep.sim_events, rep.digest)).then(|| {
        format!(
            "rep disagrees with rep 1: sim_events {} vs {}, digest {:016x} vs {:016x}",
            rep.sim_events, reference.sim_events, rep.digest, reference.digest
        )
    })
}

/// Runs the workload for about `seconds` of timed reps.
pub fn timed_run(scn: Scenario, seconds: f64) -> RunReport {
    let opts = Options::default();

    // The first rep in the process sets the reference outputs and is not
    // timed: it pays the first touch of every page the workload will ever
    // use (up to 2× on `flows_10k`). The high-water mark right after it is
    // what one build-and-run of the workload costs; read at process end it
    // would add what the allocator retained across reps, which on
    // `flows_10k` lands on either of two values 6 % apart.
    let (_, reference) = one_rep(&scn, &opts);
    let peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    let (mut attempted, mut failed) = (reference.ops_total, reference.ops_failed);
    let mut failures = reference.failures.clone();
    if reference.fct_s.is_empty() {
        failed += 1;
        failures.push("no flow delivered a byte".to_string());
    }

    let setup = Spread::of(&time_setup(&scn, &opts));

    // The smoke run is a harness self-test: two timed reps.
    let (min_reps, max_reps) = if scn.smoke {
        (2, 2)
    } else {
        (MIN_REPS, MAX_REPS)
    };
    let mut walls = Vec::with_capacity(max_reps);
    let started = Instant::now();
    while walls.len() < max_reps {
        let (wall, rep) = one_rep(&scn, &opts);
        walls.push(wall);
        attempted += rep.ops_total;
        failed += rep.ops_failed;
        failures.extend(rep.failures.iter().cloned());
        if let Some(why) = disagreement(&reference, &rep) {
            failed += 1;
            failures.push(why);
        }
        let spent = started.elapsed().as_secs_f64();
        let next = spent / walls.len() as f64;
        if walls.len() >= min_reps && spent + next > seconds {
            break;
        }
    }
    RunReport {
        scenario: scn,
        wall: Spread::of(&walls),
        setup,
        peak_rss_mb,
        reference,
        attempted: attempted.max(1),
        failed,
        failures,
    }
}
