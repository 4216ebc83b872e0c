//! Comma — transparent communication management in wireless networks.
//!
//! This is the integration crate of the reproduction: it assembles the
//! substrate crates into the thesis's architecture (Fig 4.1) and adds the
//! future-work extensions of §10.2:
//!
//! - [`topology`]: the standard deployment — wired host, Service Proxy at
//!   the wired/wireless boundary, mobile host — with EEM instrumentation
//!   and an optional mobile-side stub proxy (double-proxy, §10.2.4);
//! - [`metrics`]: the sampling loop feeding the EEM hub and the adapter
//!   exposing it to adaptive filters;
//! - [`services`]: the layered service abstraction (§10.2.1) — named
//!   services expanding to filter stacks;
//! - [`handoff`]: proxy-state handoff between gateways (§10.2.3);
//! - [`media`]: the layered real-time media workload of §8.3.2.
//!
//! # Examples
//!
//! A bulk transfer through the proxy with the housekeeping filter applied:
//!
//! ```
//! use comma::topology::{addrs, CommaBuilder};
//! use comma_netsim::time::SimTime;
//! use comma_tcp::apps::{BulkSender, Sink};
//!
//! let mut world = CommaBuilder::new(7).build(
//!     vec![Box::new(BulkSender::new((addrs::MOBILE, 9000), 50_000))],
//!     vec![Box::new(Sink::new(9000))],
//! );
//! world.sp("add tcp 0.0.0.0 0 11.11.10.10 0");
//! world.run_until(SimTime::from_secs(10));
//! let sink = world.mobile_app_ids[0];
//! let got = world.mobile_app::<Sink, _>(sink, |s| s.bytes_received);
//! assert_eq!(got, 50_000);
//! ```

#![warn(missing_docs)]

pub mod handoff;
pub mod media;
pub mod metrics;
pub mod services;
pub mod topo;
pub mod topology;

/// One-import surface for driving the standard Comma deployment.
///
/// Pulls in the topology builder, the simulated clock, the bundled TCP
/// applications, the filter/proxy control types, the EEM monitoring types,
/// Mobile-IP agents, and the `comma_rt` runtime essentials — everything the
/// examples and integration tests need:
///
/// ```
/// use comma::prelude::*;
///
/// let mut world = CommaBuilder::new(7).build(
///     vec![Box::new(BulkSender::new((addrs::MOBILE, 9000), 10_000))],
///     vec![Box::new(Sink::new(9000))],
/// );
/// world.run_until(SimTime::from_secs(5));
/// ```
pub mod prelude {
    pub use crate::handoff::{transfer_services, HandoffReport};
    pub use crate::media::{MediaSink, MediaSource, RecordSender};
    pub use crate::metrics::{install_sampler, HubMetrics, SamplerSpec};
    pub use crate::services::{apply_service, find_service, standard_services, ServiceDef};
    pub use crate::topo::{CellSpec, ShardedWorld, TopologyBuilder, TopologyError};
    pub use crate::topology::{addrs, CommaBuilder, CommaWorld};

    pub use comma_rt::{ensure, ensure_eq, ensure_ne, Bytes, Rng, SeedableRng, SmallRng};

    pub use comma_obs::{fields, obs_event, FieldValue, Obs};

    pub use comma_netsim::fluid::{FluidConfig, FluidTotals};
    pub use comma_netsim::link::{LinkKind, LinkParams, LossModel};
    pub use comma_netsim::node::NodeId;
    pub use comma_netsim::shard::{ShardPlan, ShardStats, ShardWiring, ShardedSimulator};
    pub use comma_netsim::packet::{Packet, TcpFlags, TcpOption, TcpSegment, UdpDatagram};
    pub use comma_netsim::sched::TimerHandle;
    pub use comma_netsim::sim::Simulator;
    pub use comma_netsim::time::{SimDuration, SimTime};

    pub use comma_tcp::apps::{App, AppCtx, BulkSender, Sink};
    pub use comma_tcp::host::{AppId, Host};
    pub use comma_tcp::{TcpConfig, TcpState};

    pub use comma_proxy::engine::{FilterCatalog, FilterEngine};
    pub use comma_proxy::filter::{
        Capabilities, Filter, FilterCtx, NullMetrics, Priority, Verdict,
    };
    pub use comma_proxy::key::{StreamKey, WildKey};
    pub use comma_proxy::ServiceProxy;

    pub use comma_filters::{standard_catalog, EditMap, Ttsf, ALL_FILTERS};

    pub use comma_faultcheck::{FaultPlan, Oracle, OracleConfig, OracleReport, Violation};

    pub use comma_eem::{
        Attr, EemServer, MetricsHub, Mode, MonitorApp, Operator, Value, VarId,
    };

    pub use comma_mobileip::{ForeignAgent, HomeAgent, MobileHost};
}

pub use handoff::{transfer_services, HandoffReport};
pub use media::{MediaSink, MediaSource};
pub use metrics::{install_sampler, HubMetrics, SamplerSpec};
pub use services::{apply_service, find_service, standard_services, ServiceDef};
pub use topo::{CellSpec, ShardedWorld, TopologyBuilder, TopologyError};
pub use topology::{addrs, CommaBuilder, CommaWorld};

#[cfg(test)]
mod tests {
    use super::topology::{addrs, CommaBuilder};
    use comma_netsim::time::SimTime;
    use comma_tcp::apps::{BulkSender, Sink};

    #[test]
    fn plain_transfer_through_idle_proxy() {
        let mut world = CommaBuilder::new(1).build(
            vec![Box::new(BulkSender::new((addrs::MOBILE, 9000), 300_000))],
            vec![Box::new(Sink::new(9000))],
        );
        world.attach_oracle();
        world.run_until(SimTime::from_secs(20));
        let sink = world.mobile_app_ids[0];
        let got = world.mobile_app::<Sink, _>(sink, |s| s.bytes_received);
        assert_eq!(got, 300_000);
        world.assert_oracle_clean();
    }

    #[test]
    fn ttsf_identity_preserves_stream_exactly() {
        let mut world = CommaBuilder::new(2).build(
            vec![Box::new(BulkSender::new((addrs::MOBILE, 9000), 150_000))],
            vec![Box::new(Sink::new(9000).with_capture(150_000))],
        );
        world.sp("add tcp 0.0.0.0 0 11.11.10.10 0");
        world.sp("add ttsf 0.0.0.0 0 11.11.10.10 9000");
        world.attach_oracle();
        world.run_until(SimTime::from_secs(20));
        let sink = world.mobile_app_ids[0];
        let capture = world.mobile_app::<Sink, _>(sink, |s| s.capture.clone());
        assert_eq!(capture.len(), 150_000);
        // The BulkSender pattern is i % 251.
        for (i, b) in capture.iter().enumerate() {
            assert_eq!(*b as usize, i % 251, "byte {i} corrupted");
        }
        // The identity TTSF neither fabricates ACKs nor changes bytes:
        // even the strict oracle checks must hold.
        world.assert_oracle_clean();
    }

    #[test]
    fn compress_decompress_double_proxy_exact_delivery() {
        // Highly compressible payload.
        let sender =
            BulkSender::new((addrs::MOBILE, 9000), 200_000).with_pattern(|i| b"abab"[i % 4]);
        let mut world = CommaBuilder::new(3).double_proxy(true).build(
            vec![Box::new(sender)],
            vec![Box::new(Sink::new(9000).with_capture(200_000))],
        );
        world.sp("add compress 0.0.0.0 0 11.11.10.10 9000 lzss");
        world.stub_sp("add decompress 0.0.0.0 0 11.11.10.10 9000");
        world.run_until(SimTime::from_secs(30));

        let sink = world.mobile_app_ids[0];
        let capture = world.mobile_app::<Sink, _>(sink, |s| s.capture.clone());
        assert_eq!(capture.len(), 200_000, "received {} bytes", capture.len());
        for (i, b) in capture.iter().enumerate() {
            assert_eq!(*b, b"abab"[i % 4], "byte {i} corrupted");
        }
        // The wireless hop carried far fewer bytes than the payload.
        let wireless = world.wireless_down_bytes();
        assert!(
            wireless < 120_000,
            "wireless carried {wireless} bytes for a 200000-byte transfer"
        );
    }

    #[test]
    fn eem_hub_populated_during_run() {
        let mut world = CommaBuilder::new(4).build(
            vec![Box::new(BulkSender::new((addrs::MOBILE, 9000), 50_000))],
            vec![Box::new(Sink::new(9000))],
        );
        world.run_until(SimTime::from_secs(5));
        let hub = world.hub.lock().unwrap();
        assert!(hub.get("sp", "wireless.up").is_some());
        assert!(hub.get("wired", "tcpOutSegs").is_some());
        assert!(hub.get("mobile", "tcpInSegs").is_some());
    }
}
