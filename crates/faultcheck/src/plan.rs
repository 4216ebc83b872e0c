//! Seeded, schedulable fault plans: link-layer fault models plus scripted
//! churn, applied to any set of simulator channels.

use comma_netsim::fault::FaultConfig;
use comma_netsim::link::ChannelId;
use comma_netsim::sim::Simulator;
use comma_netsim::time::{SimDuration, SimTime};

/// One scripted churn action.
#[derive(Clone, Debug)]
enum ChurnEvent {
    /// Take the channels down at `at`, back up `down_for` later.
    Flap { at: SimTime, down_for: SimDuration },
    /// Set the channels' bandwidth at `at`.
    BandwidthStep { at: SimTime, bps: u64 },
}

/// A deterministic fault plan: per-packet fault models (reorder, duplicate,
/// corrupt) plus a script of churn events, all derived from one seed.
///
/// Build with the fluent methods, then [`FaultPlan::apply`] it to a
/// simulator and the channels it should disturb. Applying the same plan
/// with the same seeds to the same world replays the identical fault
/// sequence — faulted runs stay byte-identical per seed.
///
/// ```
/// use comma_faultcheck::FaultPlan;
/// use comma_netsim::time::{SimDuration, SimTime};
///
/// let plan = FaultPlan::new(7)
///     .reorder(0.02, SimDuration::from_millis(20))
///     .duplicate(0.01)
///     .corrupt(0.01)
///     .flap(SimTime::from_secs(3), SimDuration::from_millis(400))
///     .bandwidth_step(SimTime::from_secs(6), 256_000);
/// assert!(!plan.is_noop());
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
    churn: Vec<ChurnEvent>,
}

impl FaultPlan {
    /// Creates an empty plan whose fault decisions derive from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            cfg: FaultConfig::default(),
            churn: Vec::new(),
        }
    }

    /// Reorders packets with probability `p` by holding each back up to
    /// `extra` (drawn uniformly), letting later packets overtake.
    pub fn reorder(mut self, p: f64, extra: SimDuration) -> Self {
        self.cfg.reorder_p = p;
        self.cfg.reorder_extra = extra;
        self
    }

    /// Duplicates packets with probability `p`.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.cfg.duplicate_p = p;
        self
    }

    /// Corrupts packets with probability `p`; the receiver's checksum
    /// catches the damage, so the packet is dropped (a `corrupt` drop,
    /// distinct from loss-model drops).
    pub fn corrupt(mut self, p: f64) -> Self {
        self.cfg.corrupt_p = p;
        self.cfg.corrupt_deliver = false;
        self
    }

    /// Corrupts packets with probability `p` and delivers them anyway (a
    /// flipped TCP payload byte) — the packet a broken checksum would have
    /// let through. Exists so integrity oracles can prove they fire; real
    /// fault suites should use [`FaultPlan::corrupt`].
    pub fn corrupt_deliver(mut self, p: f64) -> Self {
        self.cfg.corrupt_p = p;
        self.cfg.corrupt_deliver = true;
        self
    }

    /// Scripts a down/up flap: channels go down at `at` and recover
    /// `down_for` later.
    pub fn flap(mut self, at: SimTime, down_for: SimDuration) -> Self {
        self.churn.push(ChurnEvent::Flap { at, down_for });
        self
    }

    /// Scripts a bandwidth change at `at`.
    pub fn bandwidth_step(mut self, at: SimTime, bps: u64) -> Self {
        self.churn.push(ChurnEvent::BandwidthStep { at, bps });
        self
    }

    /// Returns `true` when the plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.cfg.is_noop() && self.churn.is_empty()
    }

    /// Returns `true` when the plan can deliver packets out of their
    /// emission order (reordering or duplication) — harnesses use this to
    /// relax the oracle's delivered-ACK monotonicity check.
    pub fn perturbs_delivery_order(&self) -> bool {
        self.cfg.reorder_p > 0.0 || self.cfg.duplicate_p > 0.0
    }

    /// The per-channel fault seed: distinct channels must get distinct RNG
    /// streams or parallel links would fault in lockstep.
    fn channel_seed(&self, key: u64) -> u64 {
        self.seed
            ^ key
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x6b75_6d71_7561_7421)
    }

    /// Installs the fault models on every `(channel, stream key)` pair and
    /// schedules the churn script against all of the channels. The key
    /// picks the channel's fault RNG stream: it must be distinct per
    /// channel across the *whole world* and must not depend on how the
    /// world is partitioned into simulators (a `ChannelId` is only unique
    /// within one).
    pub fn apply(&self, sim: &mut Simulator, channels: &[(ChannelId, u64)]) {
        if !self.cfg.is_noop() {
            for &(ch, key) in channels {
                sim.install_link_faults(ch, self.cfg.clone(), self.channel_seed(key));
            }
        }
        for ev in &self.churn {
            let chs: Vec<ChannelId> = channels.iter().map(|&(ch, _)| ch).collect();
            match *ev {
                ChurnEvent::Flap { at, down_for } => {
                    let chs_up = chs.clone();
                    sim.at(at, move |sim| {
                        for ch in &chs {
                            sim.channel_mut(*ch).params.up = false;
                        }
                    });
                    sim.at(at + down_for, move |sim| {
                        for ch in &chs_up {
                            sim.channel_mut(*ch).params.up = true;
                        }
                    });
                }
                ChurnEvent::BandwidthStep { at, bps } => {
                    // Route through the simulator so any fluid background
                    // population on the channel re-solves at the new
                    // capacity (a capacity change is a fluid epoch).
                    sim.at(at, move |sim| {
                        for ch in &chs {
                            sim.set_link_bandwidth(*ch, bps);
                        }
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comma_netsim::addr::Ipv4Addr;
    use comma_netsim::link::LinkParams;
    use comma_netsim::node::{IfaceId, Node, NodeCtx, NodeId};
    use comma_netsim::packet::{IcmpMessage, IpPayload, Packet};
    use comma_netsim::trace::{DropReason, TraceEvent};
    use comma_rt::Bytes;

    struct Counter {
        addr: Ipv4Addr,
        received: usize,
    }

    impl Node for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn addresses(&self) -> Vec<Ipv4Addr> {
            vec![self.addr]
        }
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _iface: IfaceId, pkt: Packet) {
            if matches!(pkt.body, IpPayload::Icmp(IcmpMessage::EchoRequest { .. })) {
                self.received += 1;
            }
        }
    }

    fn world() -> (Simulator, NodeId, ChannelId) {
        let mut sim = Simulator::new(3);
        let a = sim.add_node(Box::new(Counter {
            addr: "1.0.0.1".parse().unwrap(),
            received: 0,
        }));
        let b = sim.add_node(Box::new(Counter {
            addr: "1.0.0.2".parse().unwrap(),
            received: 0,
        }));
        let (down, _) = sim.connect(a, b, LinkParams::wired(), LinkParams::wired());
        let _ = b;
        (sim, a, down)
    }

    fn ping(seq: u16) -> Packet {
        Packet::icmp(
            "1.0.0.1".parse().unwrap(),
            "1.0.0.2".parse().unwrap(),
            IcmpMessage::EchoRequest {
                id: 1,
                seq,
                payload: Bytes::from(vec![0u8; 100]),
            },
        )
    }

    #[test]
    fn duplicate_plan_delivers_twice() {
        let (mut sim, a, down) = world();
        FaultPlan::new(5).duplicate(1.0).apply(&mut sim, &[(down, 0)]);
        sim.inject(a, IfaceId(0), ping(0));
        sim.run_until(SimTime::from_secs(1));
        let b = NodeId(1);
        assert_eq!(sim.with_node::<Counter, _>(b, |n| n.received), 2);
        assert_eq!(sim.fault_stats(down).unwrap().duplicated, 1);
    }

    #[test]
    fn corrupt_plan_drops_with_corrupt_reason() {
        let (mut sim, a, down) = world();
        FaultPlan::new(5).corrupt(1.0).apply(&mut sim, &[(down, 0)]);
        sim.trace.set_capture(true);
        sim.inject(a, IfaceId(0), ping(0));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.with_node::<Counter, _>(NodeId(1), |n| n.received), 0);
        assert_eq!(sim.fault_stats(down).unwrap().corrupt_drops, 1);
        let drops: Vec<DropReason> = sim
            .trace
            .entries()
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::Drop { reason, .. } => Some(reason),
                _ => None,
            })
            .collect();
        assert_eq!(drops, [DropReason::Corrupt], "the one drop is the corrupt one");
    }

    #[test]
    fn flap_drops_mid_window_traffic() {
        let (mut sim, a, down) = world();
        FaultPlan::new(5)
            .flap(SimTime::from_millis(100), SimDuration::from_millis(200))
            .apply(&mut sim, &[(down, 0)]);
        for (i, at) in [(0u16, 50u64), (1, 150), (2, 400)] {
            sim.at(SimTime::from_millis(at), move |sim| {
                sim.inject(a, IfaceId(0), ping(i));
            });
        }
        sim.run_until(SimTime::from_secs(1));
        // The t=150ms ping hits the down window; the others pass.
        assert_eq!(sim.with_node::<Counter, _>(NodeId(1), |n| n.received), 2);
        assert_eq!(sim.channel(down).stats.down_drops, 1);
    }

    #[test]
    fn reorder_plan_swaps_back_to_back_packets() {
        // With p=1 and a large extra delay range, two back-to-back packets
        // almost surely swap for this seed; assert determinism instead of a
        // specific order by running twice.
        fn run() -> usize {
            let (mut sim, a, down) = world();
            FaultPlan::new(11)
                .reorder(1.0, SimDuration::from_millis(50))
                .apply(&mut sim, &[(down, 0)]);
            for i in 0..4 {
                sim.inject(a, IfaceId(0), ping(i));
            }
            sim.run_until(SimTime::from_secs(1));
            sim.fault_stats(down).unwrap().reordered as usize
        }
        assert_eq!(run(), 4);
        assert_eq!(run(), run());
    }

    #[test]
    fn same_plan_same_seed_identical_fault_stats() {
        fn run(seed: u64) -> (u64, u64, u64) {
            let (mut sim, a, down) = world();
            FaultPlan::new(seed)
                .reorder(0.3, SimDuration::from_millis(10))
                .duplicate(0.3)
                .corrupt(0.1)
                .apply(&mut sim, &[(down, 0)]);
            for i in 0..100 {
                let at = SimTime::from_millis(i as u64 * 10);
                sim.at(at, move |sim| sim.inject(a, IfaceId(0), ping(i)));
            }
            sim.run_until(SimTime::from_secs(5));
            let s = sim.fault_stats(down).unwrap();
            (s.reordered, s.duplicated, s.corrupt_drops)
        }
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22), "distinct fault seeds diverge");
    }
}
