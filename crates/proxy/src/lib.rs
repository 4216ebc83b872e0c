//! The Comma Service Proxy (Chapter 5): packet interception, wild-card
//! stream keys, prioritized in/out filter queues, filter accounting,
//! capability enforcement (Chapter 9), and the SP command interface.
//!
//! The proxy sits at the routing bottleneck between the wired and wireless
//! portions of the network and applies *transparent* services to streams of
//! unmodified applications. Filters are provided by the `comma-filters`
//! crate; this crate defines the mechanism.
//!
//! # Examples
//!
//! A minimal read-only filter and an engine pass:
//!
//! ```
//! use comma_netsim::prelude::*;
//! use comma_proxy::engine::{FilterCatalog, FilterEngine};
//! use comma_proxy::filter::{Capabilities, Filter, FilterCtx, NullMetrics, Priority};
//! use comma_proxy::key::StreamKey;
//! use comma_rt::SeedableRng;
//!
//! struct Counter(u64);
//! impl Filter for Counter {
//!     fn kind(&self) -> &'static str { "counter" }
//!     fn priority(&self) -> Priority { Priority::Normal }
//!     fn capabilities(&self) -> Capabilities { Capabilities::READ_ONLY }
//!     fn on_in(&mut self, _: &mut FilterCtx<'_>, _: StreamKey, _: &Packet) { self.0 += 1 }
//! }
//!
//! let mut catalog = FilterCatalog::new();
//! catalog.register_loaded("counter", Box::new(|_| Ok(Box::new(Counter(0)))));
//! let mut engine = FilterEngine::new(catalog);
//! engine.register(comma_proxy::key::WildKey::ANY, "counter", vec![]).unwrap();
//!
//! let pkt = Packet::tcp(
//!     "11.11.10.99".parse().unwrap(),
//!     "11.11.10.10".parse().unwrap(),
//!     TcpSegment::new(7, 1169, 0, 0, TcpFlags::SYN),
//! );
//! let mut rng = comma_rt::SmallRng::seed_from_u64(0);
//! let out = engine.process(SimTime::ZERO, &mut rng, &NullMetrics, pkt);
//! assert_eq!(out.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod command;
pub mod engine;
pub mod filter;
pub mod flow;
pub mod key;
pub mod node;

pub use engine::{EngineLog, FilterCatalog, FilterEngine, InstanceStats, Registration};
pub use flow::FlowTable;
pub use filter::{Capabilities, Filter, FilterCtx, MetricsSource, NullMetrics, Priority, Verdict};
pub use key::{StreamKey, WildKey};
pub use node::ServiceProxy;
