//! `comma-rt` — the hermetic runtime underpinning the Comma workspace.
//!
//! Every other crate in the workspace depends only on `std` and this crate,
//! so the whole reproduction builds offline with an empty cargo registry.
//! The crate bundles the four runtime services the workspace previously
//! pulled from crates.io:
//!
//! - [`rng`]: a seeded, deterministic PRNG ([`SmallRng`], xoshiro256++)
//!   behind [`Rng`]/[`SeedableRng`] traits mirroring the `rand` API subset
//!   the simulator uses;
//! - [`bytes`]: reference-counted, zero-copy [`Bytes`] buffers
//!   so payload slicing in the edit map, filter engine, and TCP reassembly
//!   stays allocation-free on the hot path;
//! - [`prop`]: a minimal seeded property-test runner (generate, iterate,
//!   failure-seed reporting) powering `tests/properties.rs`;
//! - [`mod@bench`]: a tiny benchmark harness (warmup, calibrated iterations,
//!   median/p95 reporting) keeping the bench crate runnable;
//! - [`json`]: the one report writer ([`Json`], render-only) behind
//!   `BENCH_macro.json`, `BENCH.json` and `BENCH_mc.json`.
//!
//! Plus [`digest`], a small FNV-1a hasher used by the determinism tests to
//! fingerprint traces, [`shed`], the shed-oldest retention policy of every
//! capped log ([`ShedVec`]), and [`alloc`], a counting global-allocator harness
//! (feature `alloc-stats`) that lets benches and CI assert
//! allocations-per-event budgets instead of guessing.
//!
//! # Examples
//!
//! ```
//! use comma_rt::{Bytes, Rng, SeedableRng, SmallRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let roll: u32 = rng.gen();
//! let again: u32 = SmallRng::seed_from_u64(7).gen();
//! assert_eq!(roll, again); // same seed, same stream
//!
//! let payload = Bytes::from(vec![1, 2, 3, 4]);
//! let tail = payload.slice(2..); // zero-copy view
//! assert_eq!(&tail[..], &[3, 4]);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod bench;
pub mod bytes;
pub mod digest;
pub mod json;
pub mod prop;
pub mod rng;
pub mod shed;

pub use bytes::Bytes;
pub use digest::{FnvBuildHasher, FnvHashMap, FnvHashSet, FnvHasher};
pub use json::Json;
pub use rng::{Rng, SeedableRng, SmallRng};
pub use shed::ShedVec;

/// Mirror of `rand::rngs` so call sites migrate with an import swap.
pub mod rngs {
    pub use crate::rng::SmallRng;
}
