//! Directed channels: bandwidth, propagation delay, drop-tail queueing and
//! loss models.
//!
//! A full-duplex link between two nodes is a pair of independent channels,
//! so the wired→wireless and wireless→wired directions can have different
//! QoS — the asymmetry the thesis's proxy placement exploits.

use std::collections::VecDeque;

use comma_rt::SmallRng;
use comma_rt::Rng;

use crate::fluid::FluidState;
use crate::node::{IfaceId, NodeId};
use crate::packet::Packet;
use crate::stats::TimeSeries;
use crate::time::{SimDuration, SimTime};

/// Identifier of a directed channel within a [`crate::sim::Simulator`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChannelId(pub usize);

/// Packet-loss model applied at the end of serialization.
#[derive(Clone, Debug, PartialEq)]
pub enum LossModel {
    /// No losses (typical wired link).
    None,
    /// Independent uniform loss with probability `p`.
    Uniform {
        /// Per-packet drop probability in `[0, 1]`.
        p: f64,
    },
    /// Per-bit errors: a packet of `n` bytes is dropped with probability
    /// `1 - (1 - ber)^(8n)`.
    BitError {
        /// Bit error rate.
        ber: f64,
    },
    /// Two-state Gilbert-Elliott burst-loss model. The channel alternates
    /// between a good and a bad state with per-packet transition
    /// probabilities, each state having its own drop probability.
    Gilbert {
        /// Probability of moving good→bad, evaluated per packet.
        p_good_to_bad: f64,
        /// Probability of moving bad→good, evaluated per packet.
        p_bad_to_good: f64,
        /// Drop probability while in the good state.
        loss_good: f64,
        /// Drop probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Samples whether a packet of `len` bytes is lost, advancing any model
    /// state.
    pub fn sample(&self, state: &mut LossState, len: usize, rng: &mut SmallRng) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Uniform { p } => rng.gen_bool(p.clamp(0.0, 1.0)),
            LossModel::BitError { ber } => {
                let p_ok = (1.0 - ber).powi((len * 8) as i32);
                rng.gen_bool((1.0 - p_ok).clamp(0.0, 1.0))
            }
            LossModel::Gilbert {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                if state.bad {
                    if rng.gen_bool(p_bad_to_good.clamp(0.0, 1.0)) {
                        state.bad = false;
                    }
                } else if rng.gen_bool(p_good_to_bad.clamp(0.0, 1.0)) {
                    state.bad = true;
                }
                let p = if state.bad { *loss_bad } else { *loss_good };
                rng.gen_bool(p.clamp(0.0, 1.0))
            }
        }
    }
}

/// Mutable state carried by stateful loss models.
#[derive(Clone, Copy, Debug, Default)]
pub struct LossState {
    /// Gilbert-Elliott: currently in the bad state.
    pub bad: bool,
}

/// The physical class of a link: wired links may cross shard boundaries
/// in a [`crate::shard::ShardedSimulator`] (their latency funds the
/// conservative lookahead window); wireless links must stay inside one
/// shard (one cell = one shard). The marker carries no simulation
/// semantics of its own — QoS comes from the other [`LinkParams`] fields.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkKind {
    /// A wired link (backbone / internet path).
    Wired,
    /// A wireless link (cell-internal last hop).
    Wireless,
}

/// Configurable parameters of a directed channel.
#[derive(Clone, Debug)]
pub struct LinkParams {
    /// Serialization rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Drop-tail queue capacity in bytes (of queued wire bytes).
    pub queue_limit_bytes: usize,
    /// Loss model applied after serialization.
    pub loss: LossModel,
    /// Whether the channel is up; packets sent on a down channel are dropped
    /// (modeling disconnection).
    pub up: bool,
    /// Physical class (wired/wireless); partition-aware builders only let
    /// wired links cross shard boundaries.
    pub kind: LinkKind,
}

impl LinkParams {
    /// A fast, reliable wired link: 10 Mbit/s, 1 ms, 64 KiB queue.
    pub fn wired() -> Self {
        LinkParams {
            bandwidth_bps: 10_000_000,
            latency: SimDuration::from_millis(1),
            queue_limit_bytes: 64 * 1024,
            loss: LossModel::None,
            up: true,
            kind: LinkKind::Wired,
        }
    }

    /// A WaveLAN-class wireless link of the era: 1 Mbit/s, 3 ms, 32 KiB
    /// queue, no loss (add a model with [`LinkParams::with_loss`]).
    pub fn wireless() -> Self {
        LinkParams {
            bandwidth_bps: 1_000_000,
            latency: SimDuration::from_millis(3),
            queue_limit_bytes: 32 * 1024,
            loss: LossModel::None,
            up: true,
            kind: LinkKind::Wireless,
        }
    }

    /// Returns `self` with the given bandwidth.
    pub fn with_bandwidth(mut self, bps: u64) -> Self {
        self.bandwidth_bps = bps;
        self
    }

    /// Returns `self` with the given one-way latency.
    pub fn with_latency(mut self, latency: SimDuration) -> Self {
        self.latency = latency;
        self
    }

    /// Returns `self` with the given loss model.
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Returns `self` with the given queue limit in bytes.
    pub fn with_queue_limit(mut self, bytes: usize) -> Self {
        self.queue_limit_bytes = bytes;
        self
    }

    /// Time to serialize `len` bytes at the channel bandwidth.
    pub fn tx_time(&self, len: usize) -> SimDuration {
        tx_time_at(self.bandwidth_bps, len)
    }
}

/// Time to serialize `len` bytes at `bps` bits per second. Fluid-enabled
/// channels call this with their residual bandwidth instead of the
/// configured line rate; zero behaves as "practically never".
pub fn tx_time_at(bps: u64, len: usize) -> SimDuration {
    if bps == 0 {
        return SimDuration::from_secs(3600);
    }
    let micros = (len as u128 * 8 * 1_000_000).div_ceil(bps as u128);
    SimDuration::from_micros(micros as u64)
}

/// Counters kept per channel.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChannelStats {
    /// Packets handed to the channel for transmission.
    pub offered_pkts: u64,
    /// Packets fully delivered to the far end.
    pub delivered_pkts: u64,
    /// Bytes fully delivered to the far end.
    pub delivered_bytes: u64,
    /// Packets dropped because the queue was full.
    pub queue_drops: u64,
    /// Packets dropped by the loss model.
    pub loss_drops: u64,
    /// Packets dropped because the channel was down.
    pub down_drops: u64,
}

/// A directed channel from one node interface to another.
#[derive(Clone, Debug)]
pub struct Channel {
    /// Current parameters; mutable at run time for time-varying QoS.
    pub params: LinkParams,
    /// Destination node.
    pub dst_node: NodeId,
    /// Destination interface on that node.
    pub dst_iface: IfaceId,
    /// Source node (for tracing).
    pub src_node: NodeId,
    /// Transmission currently in progress.
    pub busy: bool,
    /// Queued packets waiting for the transmitter, with queued byte total.
    pub queue: VecDeque<Packet>,
    /// Total wire bytes currently queued.
    pub queued_bytes: usize,
    /// Loss-model state.
    pub loss_state: LossState,
    /// Counters.
    pub stats: ChannelStats,
    /// Delivered-bytes time series for monitoring (netload, EEM).
    pub series: TimeSeries,
    /// Private loss-RNG stream, present on channels created through
    /// [`crate::sim::Simulator::connect_keyed`]: loss draws come from here
    /// instead of the simulator-wide link RNG, so the stream depends only
    /// on the (world seed, channel key) pair — not on how many other
    /// channels share the simulator. This is what makes a partitioned
    /// topology reproduce the single-shard run bit-exactly.
    pub loss_rng: Option<SmallRng>,
    /// When set, this channel is the *egress half* of a cross-shard
    /// boundary: completed transmissions are exported to the simulator's
    /// outbox under this boundary id instead of being delivered locally.
    pub remote: Option<u32>,
    /// Aggregate fluid background population contending for this channel
    /// (see [`crate::fluid`]); boxed so fluid-free channels pay one
    /// pointer. When present, foreground serialization runs at the
    /// residual bandwidth and drop-tail admission sees the configured
    /// limit minus the fluid queue occupancy. It lags until read: only
    /// [`crate::sim::Simulator::fluid`] and the other catching-up readers see it.
    pub(crate) fluid: Option<Box<FluidState>>,
}

impl Channel {
    /// Creates an idle channel with the given parameters.
    pub fn new(src_node: NodeId, dst_node: NodeId, dst_iface: IfaceId, params: LinkParams) -> Self {
        Channel {
            params,
            dst_node,
            dst_iface,
            src_node,
            busy: false,
            queue: VecDeque::new(),
            queued_bytes: 0,
            loss_state: LossState::default(),
            stats: ChannelStats::default(),
            series: TimeSeries::new(SimDuration::from_millis(100)),
            loss_rng: None,
            remote: None,
            fluid: None,
        }
    }

    /// Attempts to enqueue a packet behind the transmitter; returns `false`
    /// if the queue is full — the simulator records that drop, like every
    /// other. The drop-tail budget is the configured limit minus the fluid
    /// queue occupancy at `now`, which the simulator catches up first.
    pub(crate) fn enqueue(&mut self, now: SimTime, pkt: Packet) -> bool {
        let (len, limit) = (pkt.wire_len(), self.params.queue_limit_bytes);
        let fluid = self.fluid.as_ref().map_or(0, |f| f.queue_bytes_at(now, limit) as usize);
        if self.queued_bytes + len > limit.saturating_sub(fluid) {
            return false;
        }
        self.queued_bytes += len;
        self.queue.push_back(pkt);
        true
    }

    /// Pops the next queued packet, updating the byte count.
    pub fn dequeue(&mut self) -> Option<Packet> {
        let pkt = self.queue.pop_front()?;
        self.queued_bytes -= pkt.wire_len();
        Some(pkt)
    }

    /// Records a successful delivery at `now`.
    pub fn record_delivery(&mut self, now: SimTime, len: usize) {
        self.stats.delivered_pkts += 1;
        self.stats.delivered_bytes += len as u64;
        self.series.record(now, len as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comma_rt::SeedableRng;

    #[test]
    fn tx_time_rounds_up() {
        let p = LinkParams::wired().with_bandwidth(1_000_000);
        // 125 bytes = 1000 bits = 1 ms at 1 Mbit/s.
        assert_eq!(p.tx_time(125), SimDuration::from_millis(1));
        assert_eq!(p.tx_time(1), SimDuration::from_micros(8));
        // Zero bandwidth behaves as "practically never".
        assert!(p.clone().with_bandwidth(0).tx_time(10) >= SimDuration::from_secs(3600));
    }

    #[test]
    fn uniform_loss_rate_close_to_p() {
        let model = LossModel::Uniform { p: 0.3 };
        let mut rng = SmallRng::seed_from_u64(1);
        let mut state = LossState::default();
        let drops = (0..20_000)
            .filter(|_| model.sample(&mut state, 1000, &mut rng))
            .count() as f64;
        let rate = drops / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn gilbert_burstier_than_uniform() {
        // Compare the mean burst length (consecutive drops) between a
        // Gilbert model and a uniform model of equal average loss.
        fn mean_burst(drops: &[bool]) -> f64 {
            let mut bursts = Vec::new();
            let mut run = 0usize;
            for &d in drops {
                if d {
                    run += 1;
                } else if run > 0 {
                    bursts.push(run);
                    run = 0;
                }
            }
            if run > 0 {
                bursts.push(run);
            }
            if bursts.is_empty() {
                return 0.0;
            }
            bursts.iter().sum::<usize>() as f64 / bursts.len() as f64
        }

        let mut rng = SmallRng::seed_from_u64(2);
        let gilbert = LossModel::Gilbert {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.2,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        let mut state = LossState::default();
        let g: Vec<bool> = (0..50_000)
            .map(|_| gilbert.sample(&mut state, 500, &mut rng))
            .collect();
        let g_loss = g.iter().filter(|&&d| d).count() as f64 / g.len() as f64;

        let uniform = LossModel::Uniform { p: g_loss };
        let mut state = LossState::default();
        let u: Vec<bool> = (0..50_000)
            .map(|_| uniform.sample(&mut state, 500, &mut rng))
            .collect();

        assert!(
            mean_burst(&g) > 1.5 * mean_burst(&u),
            "g={} u={}",
            mean_burst(&g),
            mean_burst(&u)
        );
    }

    #[test]
    fn bit_error_scales_with_length() {
        let model = LossModel::BitError { ber: 1e-5 };
        let mut rng = SmallRng::seed_from_u64(3);
        let mut state = LossState::default();
        let small = (0..20_000)
            .filter(|_| model.sample(&mut state, 100, &mut rng))
            .count();
        let large = (0..20_000)
            .filter(|_| model.sample(&mut state, 1400, &mut rng))
            .count();
        assert!(large > small * 5, "small={small} large={large}");
    }

    #[test]
    fn queue_limit_enforced() {
        use crate::addr::Ipv4Addr;
        use crate::packet::{Packet, TcpFlags, TcpSegment};
        let params = LinkParams::wired().with_queue_limit(100);
        let mut ch = Channel::new(NodeId(0), NodeId(1), IfaceId(0), params);
        let pkt = Packet::tcp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            TcpSegment::new(1, 2, 0, 0, TcpFlags::ACK),
        );
        assert_eq!(pkt.wire_len(), 40);
        assert!(ch.enqueue(SimTime::ZERO, pkt.clone()));
        assert!(ch.enqueue(SimTime::ZERO, pkt.clone()));
        assert!(
            !ch.enqueue(SimTime::ZERO, pkt.clone()),
            "third 40-byte packet exceeds 100-byte limit"
        );
        assert!(ch.dequeue().is_some());
        assert_eq!(ch.queued_bytes, 40);
    }
}
