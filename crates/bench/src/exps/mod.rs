//! The experiment suite: one module per group of tables/figures from the
//! DESIGN.md experiment index.
//!
//! Each experiment is a self-contained `fn() -> String`: it builds its own
//! seeded [`comma_netsim::sim::Simulator`] world, runs it, and renders a
//! report block; [`run_all`] runs the table in order (about 0.6 s in all).

pub mod ablations;
pub mod matrix;
pub mod media;
pub mod mip;
pub mod monitor;
pub mod services;
pub mod sessions;
pub mod tuning;

/// Every experiment, in report order.
pub const EXPERIMENTS: [fn() -> String; 16] = [
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

/// Runs every experiment on the calling thread and returns the rendered
/// report blocks in table order.
pub fn run_all() -> Vec<String> {
    EXPERIMENTS.iter().map(|exp| exp()).collect()
}
