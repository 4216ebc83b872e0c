//! The Comma benchmark (see `README.md` in this directory).
//!
//! Two binaries share this library: `comma-benchmark` times the four
//! workloads end to end with nothing interposed, and
//! `comma-benchmark-traced` runs the per-layer passes with the counting
//! allocator installed. Both measure every layer from outside, through the
//! crates' public functions only.

pub mod cli;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stats;
pub mod tap;
pub mod trace;
pub mod workloads;
