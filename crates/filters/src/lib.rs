//! The Comma filter library (Chapter 8): transparency-support filters,
//! protocol-tuning filters, and data-manipulation services.
//!
//! Contents:
//!
//! - [`basic`]: the `tcp` housekeeping filter, the `launcher`, and `rdrop`
//!   (the Fig 5.3 session's filter set);
//! - [`editmap`] and [`ttsf`]: the TCP-Transparency-Support Filter and its
//!   sequence-number edit map (§8.1) — the thesis's core contribution;
//! - [`transform`]: the stream services that run under the TTSF
//!   (compression, record removal, data-type translation; §8.1.6, §8.3);
//! - [`wsize`]: BSSP-style window modification — prioritization and ZWSM
//!   disconnection management (§8.2.2);
//! - [`snoop`]: TCP-aware local retransmission at the base station
//!   (§8.2.1);
//! - [`hdiscard`]: hierarchical discard for layered media (§8.3.2);
//! - [`codec`] and [`appdata`]: the from-scratch compressors and the typed
//!   record format the semantic services interpret;
//! - [`catalog`]: the standard filter repository.

#![warn(missing_docs)]

pub mod appdata;
pub mod basic;
pub mod catalog;
pub mod codec;
pub mod editmap;
pub mod hdiscard;
pub mod snoop;
pub mod transform;
pub mod ttsf;
pub mod wsize;

pub use catalog::{standard_catalog, ALL_FILTERS};
pub use editmap::EditMap;
pub use ttsf::{editmap_errors, registered_kinds, Ttsf, TRANSFORMING, TTSF_KINDS};
