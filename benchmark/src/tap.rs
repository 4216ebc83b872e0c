//! What the counter pass sees from outside: a packet observer on every
//! simulator and the public statistics structs read when the run ends.

use std::any::Any;

use comma_filters::Ttsf;
use comma_mc::scenario::TTSF_KINDS;
use comma_netsim::link::ChannelId;
use comma_netsim::node::NodeId;
use comma_netsim::packet::Packet;
use comma_netsim::sim::{PacketObserver, Simulator};
use comma_netsim::time::SimTime;
use comma_proxy::{ServiceProxy, StreamKey};
use comma_rt::FnvHashMap;
use comma_tcp::host::Host;

/// Proxy-ingress packets kept per simulator for the replay pass.
const INGRESS_CAP: usize = 400_000;

/// Counts and captures of one simulator's [`Tap`].
#[derive(Default)]
pub struct TapData {
    /// Packets handed to any channel, and their wire bytes.
    pub tx_pkts: u64,
    pub tx_bytes: u64,
    /// TCP segments sent by the true endpoints (not by proxies).
    pub tcp_segments: u64,
    /// Of those, segments carrying payload.
    pub tcp_data_segments: u64,
    /// Of those, segments occupying sequence space (payload, SYN, FIN)
    /// that start below the highest sequence their flow had already sent.
    pub tcp_retransmits: u64,
    /// Pure acknowledgements: ACK set, no payload, no SYN/FIN/RST.
    pub tcp_acks: u64,
    /// TCP payload bytes entering and leaving the simulator's first
    /// Service Proxy; the difference is what its filters removed.
    pub proxy_in_payload: u64,
    pub proxy_out_payload: u64,
    /// Packets delivered into the simulator's first Service Proxy, with
    /// their delivery times, in order (at most [`INGRESS_CAP`]).
    pub ingress: Vec<(SimTime, Packet)>,
    highest_seq: FnvHashMap<StreamKey, u32>,
}

impl TapData {
    /// Folds another simulator's counts into this one; the capture kept
    /// is the first non-empty one (one cell's proxy is a faithful sample
    /// of a hundred identical cells).
    pub fn merge(&mut self, other: TapData) {
        self.tx_pkts += other.tx_pkts;
        self.tx_bytes += other.tx_bytes;
        self.tcp_segments += other.tcp_segments;
        self.tcp_data_segments += other.tcp_data_segments;
        self.tcp_retransmits += other.tcp_retransmits;
        self.tcp_acks += other.tcp_acks;
        self.proxy_in_payload += other.proxy_in_payload;
        self.proxy_out_payload += other.proxy_out_payload;
        if self.ingress.is_empty() {
            self.ingress = other.ingress;
        }
    }
}

/// The counter pass's packet observer. It forwards to the observer it
/// displaced (the conformance oracle on `bulk_lit`), so the run it watches
/// is the run that is benchmarked.
pub struct Tap {
    /// Indexed by node id: whether the node is a TCP endpoint host.
    is_endpoint: Vec<bool>,
    proxy: Option<NodeId>,
    inner: Option<Box<dyn PacketObserver>>,
    data: TapData,
}

impl PacketObserver for Tap {
    fn on_tx(&mut self, now: SimTime, node: NodeId, pkt: &Packet) {
        let d = &mut self.data;
        d.tx_pkts += 1;
        d.tx_bytes += pkt.wire_len() as u64;
        if self.proxy == Some(node) {
            d.proxy_out_payload += pkt.as_tcp().map_or(0, |s| s.payload.len()) as u64;
        }
        if self.is_endpoint[node.0] {
            if let (Some(seg), Some(key)) = (pkt.as_tcp(), StreamKey::of_packet(pkt)) {
                d.tcp_segments += 1;
                let f = seg.flags;
                if seg.payload.is_empty() && f.ack() && !f.syn() && !f.fin() && !f.rst() {
                    d.tcp_acks += 1;
                }
                if !seg.payload.is_empty() {
                    d.tcp_data_segments += 1;
                }
                // Anything that occupies sequence space (payload, SYN,
                // FIN) and starts below what the flow already sent is a
                // retransmission.
                if seg.seq_len() > 0 {
                    let end = seg.seq.wrapping_add(seg.seq_len());
                    match d.highest_seq.get_mut(&key) {
                        Some(high) if (seg.seq.wrapping_sub(*high) as i32) < 0 => {
                            d.tcp_retransmits += 1;
                        }
                        Some(high) => *high = end,
                        None => {
                            d.highest_seq.insert(key, end);
                        }
                    }
                }
            }
        }
        if let Some(inner) = &mut self.inner {
            inner.on_tx(now, node, pkt);
        }
    }

    fn on_deliver(&mut self, now: SimTime, node: NodeId, pkt: &Packet) {
        if self.proxy == Some(node) {
            self.data.proxy_in_payload += pkt.as_tcp().map_or(0, |s| s.payload.len()) as u64;
            if self.data.ingress.len() < INGRESS_CAP {
                self.data.ingress.push((now, pkt.clone()));
            }
        }
        if let Some(inner) = &mut self.inner {
            inner.on_deliver(now, node, pkt);
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Installs a [`Tap`] on `sim`, in front of whatever observer it has.
pub fn install_tap(sim: &mut Simulator) {
    let nodes = (0..sim.node_count()).map(NodeId);
    let is_endpoint = nodes
        .clone()
        .map(|n| sim.node_mut::<Host>(n).is_some())
        .collect();
    let proxy = nodes
        .clone()
        .find(|&n| sim.node_mut::<ServiceProxy>(n).is_some());
    let inner = sim.take_packet_observer();
    sim.set_packet_observer(Box::new(Tap {
        is_endpoint,
        proxy,
        inner,
        data: TapData::default(),
    }));
}

/// Removes the [`Tap`] from `sim`, puts the observer it displaced back,
/// and returns what it saw.
pub fn remove_tap(sim: &mut Simulator) -> TapData {
    let Some(mut observer) = sim.take_packet_observer() else {
        return TapData::default();
    };
    let Some(tap) = observer.as_any().downcast_mut::<Tap>() else {
        sim.set_packet_observer(observer);
        return TapData::default();
    };
    let data = std::mem::take(&mut tap.data);
    if let Some(inner) = tap.inner.take() {
        sim.set_packet_observer(inner);
    }
    data
}

/// The public statistics of one simulator, read when its run has ended.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimCounters {
    pub events: u64,
    pub scheduled: u64,
    pub fired: u64,
    pub cancelled: u64,
    pub purged: u64,
    pub link_tx_pkts: u64,
    pub link_drops: u64,
    pub reordered: u64,
    pub duplicated: u64,
    pub corrupt_drops: u64,
    pub engine_pkts: u64,
    pub engine_batches: u64,
    pub engine_batch_pkts: u64,
    pub engine_modified: u64,
    pub engine_drops: u64,
    pub engine_injected: u64,
    pub fluid_epochs: u64,
    pub fluid_links: u64,
    pub nodes: u64,
    pub channels: u64,
}

impl SimCounters {
    pub fn merge(&mut self, o: SimCounters) {
        self.events += o.events;
        self.scheduled += o.scheduled;
        self.fired += o.fired;
        self.cancelled += o.cancelled;
        self.purged += o.purged;
        self.link_tx_pkts += o.link_tx_pkts;
        self.link_drops += o.link_drops;
        self.reordered += o.reordered;
        self.duplicated += o.duplicated;
        self.corrupt_drops += o.corrupt_drops;
        self.engine_pkts += o.engine_pkts;
        self.engine_batches += o.engine_batches;
        self.engine_batch_pkts += o.engine_batch_pkts;
        self.engine_modified += o.engine_modified;
        self.engine_drops += o.engine_drops;
        self.engine_injected += o.engine_injected;
        self.fluid_epochs += o.fluid_epochs;
        self.fluid_links += o.fluid_links;
        self.nodes += o.nodes;
        self.channels += o.channels;
    }
}

fn proxies(sim: &mut Simulator) -> Vec<NodeId> {
    (0..sim.node_count())
        .map(NodeId)
        .filter(|&n| sim.node_mut::<ServiceProxy>(n).is_some())
        .collect()
}

/// Reads every public counter of `sim`.
pub fn sim_counters(sim: &mut Simulator) -> SimCounters {
    let wheel = sim.sched_stats();
    let fluid = sim.fluid_totals();
    let mut c = SimCounters {
        events: sim.events_processed(),
        scheduled: wheel.scheduled,
        fired: wheel.fired,
        cancelled: wheel.cancelled,
        purged: wheel.purged,
        fluid_epochs: fluid.epochs,
        fluid_links: fluid.links,
        nodes: sim.node_count() as u64,
        channels: sim.channel_count() as u64,
        ..SimCounters::default()
    };
    for ch in (0..sim.channel_count()).map(ChannelId) {
        let s = sim.channel(ch).stats;
        c.link_tx_pkts += s.offered_pkts;
        c.link_drops += s.queue_drops + s.loss_drops + s.down_drops;
        if let Some(f) = sim.fault_stats(ch) {
            c.reordered += f.reordered;
            c.duplicated += f.duplicated;
            c.corrupt_drops += f.corrupt_drops;
        }
    }
    for node in proxies(sim) {
        sim.with_node::<ServiceProxy, _>(node, |sp| {
            let t = sp.engine.totals;
            c.engine_pkts += t.pkts;
            c.engine_batches += t.batches;
            c.engine_batch_pkts += t.batch_pkts;
            c.engine_modified += t.modified;
            c.engine_drops += t.drops;
            c.engine_injected += t.injected;
        });
    }
    c
}

/// `(flow-table entries, live edit-map records)` across `sim`'s proxies,
/// sampled between steps of the counter pass.
pub fn table_occupancy(sim: &mut Simulator) -> (u64, u64) {
    let mut occ = (0, 0);
    for node in proxies(sim) {
        sim.with_node::<ServiceProxy, _>(node, |sp| {
            occ.0 += sp.engine.streams().len() as u64;
            for kind in TTSF_KINDS {
                for t in sp.engine.instances_as::<Ttsf>(kind) {
                    occ.1 += t.map().map_or(0, |m| m.len()) as u64;
                }
            }
        });
    }
    occ
}
