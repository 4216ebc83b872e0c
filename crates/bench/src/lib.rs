//! The Comma reproduction's benchmark and experiment harness.
//!
//! `cargo bench -p comma-bench` runs two targets:
//!
//! - `micro` — `comma_rt::bench` micro-benchmarks of the hot paths (edit
//!   map, filter engine, wire codec, compressors, simulator event rate);
//! - `experiments` — the full table/figure regeneration harness: one block
//!   per experiment in DESIGN.md's index, each ending in the paper's claims
//!   as its rows decide them (`exps::Claim`).

#![warn(missing_docs)]

pub mod exps;
pub mod scale;
pub mod snapshot;
/// The experiment harness renders through the shared table formatter.
pub use comma_obs::table;

/// Runs every experiment, printing each block as it completes.
pub fn run_and_print_all() {
    println!("Comma reproduction — experiment harness");
    println!("=======================================");
    println!();
    for exp in exps::run_all(0) {
        println!("{}", exp.block);
    }
    println!("E15 (filter-queue ordering) and E16 (EEM API surface) are covered by");
    println!("`tests/filter_queue_order.rs` and `crates/eem` unit tests respectively.");
}
