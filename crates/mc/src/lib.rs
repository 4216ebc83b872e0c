//! `comma-mc`: a depth-bounded explicit-state model checker for the Comma
//! deployment.
//!
//! Simulation under a fixed seed explores exactly one interleaving of
//! deliveries, timer pops, and faults per run. The conformance oracle and
//! the TTSF edit-map invariants have therefore only ever been exercised
//! along the schedules the seeds happened to pick. This crate explores the
//! *schedule space* itself: a small scenario (one bulk transfer through
//! the Service Proxy with a transforming TTSF service installed) is run
//! under systematic exploration of every event interleaving and fault
//! placement up to a depth bound.
//!
//! Branch points, per step:
//!
//! - **Fire order** — every live event in the earliest due batch (all at
//!   the same simulated microsecond) may fire first
//!   ([`comma_netsim::sim::Simulator::mc_options`]).
//! - **Fault placement** — a packet delivery may additionally be dropped,
//!   duplicated, or reordered behind the next pending event
//!   ([`comma_netsim::sim::McAction`]), charged against a per-path fault
//!   budget.
//!
//! The explorer ([`Explorer`]) does a depth-first search over those
//! decisions using world snapshots
//! ([`comma_netsim::sim::Simulator::snapshot`]; forks copy all but the
//! last alternative, which runs on the original) and prunes revisited
//! states by their canonical 64-bit fingerprint
//! ([`comma_netsim::sim::Simulator::state_hash`]). After every applied
//! step it asserts the oracle's always-on invariants and every live TTSF
//! edit map's structural invariants; a violation is greedily minimized
//! ([`minimize_mc_trace`]) and reported as a replayable decision list
//! ([`McTrace`], [`replay_mc_trace`]).
//!
//! Soundness caveats: the search is exhaustive only up to the configured
//! depth, step budget, and fault budget; and the state fingerprint covers
//! the *world* (scheduler, nodes, channels, RNG streams), not the oracle's
//! observation history, so two converging interleavings are merged even
//! when the oracle remembers different pasts. Violations are checked
//! before merging, so nothing already-triggered is lost; a violation whose
//! trigger lies beyond a merge point on the second history can be missed.
//! The visited set keys on the 64-bit fingerprint alone, so two distinct
//! states that collide are merged as well.
//! See `DESIGN.md` ("Model checking").

pub mod explore;
pub mod scenario;
pub mod trace;

pub use explore::{explore, Explorer, McReport, McViolation};
pub use scenario::{build_scenario, check_invariants, McConfig, McWorld};
pub use trace::{minimize_mc_trace, replay_mc_trace, McDecision, McTrace, ReplayOutcome};
