//! Deterministic discrete-event network simulator underpinning the Comma
//! reproduction.
//!
//! The simulator provides the substrate the thesis assumed: IPv4-style
//! addressing and routing, full-duplex links with finite bandwidth,
//! propagation delay, drop-tail queues and configurable loss models
//! (including bursty wireless loss), and an event loop with per-node timers.
//!
//! Everything is deterministic: simulated time is integer microseconds and
//! all randomness flows from a single run seed through per-node
//! [`comma_rt::SmallRng`] streams.
//!
//! # Examples
//!
//! ```
//! use comma_netsim::prelude::*;
//!
//! let mut sim = Simulator::new(7);
//! assert_eq!(sim.now(), SimTime::ZERO);
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.now(), SimTime::from_secs(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod checksum;
pub mod fault;
pub mod fluid;
pub mod link;
pub mod node;
pub mod packet;
pub mod routing;
pub mod sched;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wire;

/// Convenience re-exports of the most commonly used simulator types.
pub mod prelude {
    pub use crate::{
        addr::{Ipv4Addr, Subnet},
        fault::{FaultConfig, FaultStats},
        fluid::{FluidConfig, FluidState, FluidTotals},
        link::{ChannelId, LinkKind, LinkParams, LossModel},
        node::{IfaceId, Node, NodeCtx, NodeId},
        packet::{
            IcmpMessage, IpPayload, IpProto, Ipv4Header, Packet, TcpFlags, TcpSegment, UdpDatagram,
        },
        routing::{Route, Router, RoutingTable},
        sched::{TimerHandle, TimerWheel, WheelStats},
        shard::{BoundaryId, ShardPlan, ShardStats, ShardWiring, ShardedSimulator},
        sim::Simulator,
        time::{SimDuration, SimTime},
    };
}
