//! The experiment suite: one module per group of tables/figures from the
//! DESIGN.md experiment index.
//!
//! Each experiment is a self-contained `fn(seed) -> Experiment`: it builds
//! its own seeded [`comma_netsim::sim::Simulator`] worlds, runs them,
//! decides the thesis claims its rows test, and renders a report block
//! whose claim notes are those decisions. Seed 0 is the published report;
//! [`run_all`] runs the table in order (0.42–0.44 s in release on a
//! 2-core host, conformance oracles attached to E04–E08).

pub mod ablations;
pub mod matrix;
pub mod media;
pub mod mip;
pub mod monitor;
pub mod services;
pub mod sessions;
pub mod tuning;

/// A thesis claim, decided by the rows of the experiment that tests it.
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// The experiment's id, with a suffix when it decides two claims.
    pub id: &'static str,
    /// Where the thesis makes the claim.
    pub thesis_ref: &'static str,
    /// The claim in words.
    pub statement: &'static str,
    /// Whether this run's rows satisfy the claim's predicate.
    pub holds: bool,
    /// The numbers the predicate read.
    pub evidence: String,
}

impl Claim {
    /// The report line: the claim, its verdict and its evidence.
    pub fn line(&self) -> String {
        let verdict = if self.holds { "holds" } else { "FAILS" };
        format!(
            "claim {} ({}): {} — {verdict}: {}",
            self.id, self.thesis_ref, self.statement, self.evidence
        )
    }
}

/// What one experiment run produces.
#[derive(Clone, Debug, PartialEq)]
pub struct Experiment {
    /// The rendered report block, claim lines included.
    pub block: String,
    /// The claims the block decides; empty for the worked examples.
    pub claims: Vec<Claim>,
}

impl Experiment {
    /// The table's block, its notes ending in one line per claim.
    fn decided(mut t: crate::table::Table, claims: Vec<Claim>) -> Self {
        for claim in &claims {
            t.note(claim.line());
        }
        Experiment {
            block: t.render(),
            claims,
        }
    }
}

/// A block that decides no claim.
impl From<String> for Experiment {
    fn from(block: String) -> Self {
        Experiment {
            block,
            claims: Vec::new(),
        }
    }
}

/// The simulator seed of a world whose seed-0 value is `base`: each sweep
/// seed moves every world of an experiment to fresh randomness.
pub(crate) fn world_seed(base: u64, seed: u64) -> u64 {
    base + 1_000 * seed
}

/// Every experiment, in report order.
pub const EXPERIMENTS: [fn(u64) -> Experiment; 16] = [
    sessions::e01_sp_session,
    sessions::e02_eem_example,
    sessions::e03_kati_session,
    services::e04_removal,
    services::e05_compression,
    tuning::e06_snoop_sweep,
    tuning::e07_prioritization,
    tuning::e08_zwsm,
    mip::e09_triangular_routing,
    mip::e10_handoff_loss,
    monitor::e11_monitor_traffic,
    media::e12_hierarchical_discard,
    services::e13_reduction_matrix,
    matrix::e14_comparison_matrix,
    ablations::a1_snoop_rto_clamp,
    ablations::a2_compress_block_size,
];

/// Runs every experiment at `seed` on the calling thread, in table order.
pub fn run_all(seed: u64) -> Vec<Experiment> {
    EXPERIMENTS.iter().map(|exp| exp(seed)).collect()
}
