//! Home and foreign agents (§2.1).

use std::collections::HashMap;

use comma_rt::Bytes;
use comma_netsim::addr::Ipv4Addr;
use comma_netsim::node::{IfaceId, Node, NodeCtx};
use comma_netsim::packet::{AgentAdvertisement, IcmpMessage, IpPayload, Packet, UdpDatagram};
use comma_netsim::routing::{forward_step, RoutingTable};
use comma_netsim::time::{SimDuration, SimTime};

use crate::msg::{MipMessage, BINDING_PORT, MIP_PORT};

/// What to do with packets tunneled to an FA whose mobile has moved away.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HandoffPolicy {
    /// Drop them (the default Mobile IP behaviour the thesis criticizes).
    Drop,
    /// Forward them to the mobile's new care-of address (requires binding
    /// updates from the HA).
    Forward,
}

struct Binding {
    care_of: Ipv4Addr,
    expires: SimTime,
}

/// The Home Agent: intercepts traffic for registered mobiles on the home
/// network and tunnels it to their current care-of address.
pub struct HomeAgent {
    name: String,
    addr: Ipv4Addr,
    /// Forwarding table for non-mobile traffic.
    pub table: RoutingTable,
    bindings: HashMap<Ipv4Addr, Binding>,
    /// Previous care-of per mobile (handoff forwarding).
    previous: HashMap<Ipv4Addr, Ipv4Addr>,
    /// Send binding updates to correspondents (route optimization, §2.1's
    /// proposed triangular-routing fix).
    pub route_optimization: bool,
    /// Send binding updates to the old FA at handoff.
    pub notify_old_fa: bool,
    /// Packets tunneled toward mobiles.
    pub tunneled: u64,
    /// Registrations processed.
    pub registrations: u64,
}

impl HomeAgent {
    /// Creates a home agent.
    pub fn new(name: impl Into<String>, addr: Ipv4Addr, table: RoutingTable) -> Self {
        HomeAgent {
            name: name.into(),
            addr,
            table,
            bindings: HashMap::new(),
            previous: HashMap::new(),
            route_optimization: false,
            notify_old_fa: false,
            tunneled: 0,
            registrations: 0,
        }
    }

    /// Current care-of address of `mobile`, if registered and unexpired.
    pub fn binding(&self, mobile: Ipv4Addr) -> Option<Ipv4Addr> {
        self.bindings.get(&mobile).map(|b| b.care_of)
    }

    fn forward(&mut self, ctx: &mut NodeCtx<'_>, mut pkt: Packet) {
        if let Some(iface) = forward_step(ctx, &self.table, &mut pkt) {
            ctx.send(iface, pkt);
        }
    }

    fn handle_registration(&mut self, ctx: &mut NodeCtx<'_>, src: Ipv4Addr, msg: MipMessage) {
        let MipMessage::RegistrationRequest {
            home_addr,
            care_of,
            lifetime,
            id,
            ..
        } = msg
        else {
            return;
        };
        self.registrations += 1;
        let old = self.bindings.get(&home_addr).map(|b| b.care_of);
        if let Some(old_care_of) = old {
            if old_care_of != care_of {
                self.previous.insert(home_addr, old_care_of);
                if self.notify_old_fa {
                    let update = MipMessage::BindingUpdate {
                        home_addr,
                        care_of,
                        lifetime,
                    };
                    let pkt = Packet::udp(
                        self.addr,
                        old_care_of,
                        UdpDatagram {
                            src_port: MIP_PORT,
                            dst_port: BINDING_PORT,
                            payload: Bytes::from(update.encode().into_bytes()),
                        },
                    );
                    self.forward(ctx, pkt);
                }
            }
        }
        self.bindings.insert(
            home_addr,
            Binding {
                care_of,
                expires: ctx.now + SimDuration::from_secs(lifetime as u64),
            },
        );
        ctx.log(format_args!("HA: registered {home_addr} at care-of {care_of}"));
        let reply = MipMessage::RegistrationReply {
            home_addr,
            code: 0,
            id,
            lifetime,
        };
        let pkt = Packet::udp(
            self.addr,
            src,
            UdpDatagram {
                src_port: MIP_PORT,
                dst_port: MIP_PORT,
                payload: Bytes::from(reply.encode().into_bytes()),
            },
        );
        self.forward(ctx, pkt);
    }
}

impl Node for HomeAgent {
    fn name(&self) -> &str {
        &self.name
    }

    fn addresses(&self) -> Vec<Ipv4Addr> {
        vec![self.addr]
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _iface: IfaceId, pkt: Packet) {
        // Registration traffic addressed to the HA itself.
        if pkt.ip.dst == self.addr {
            if let IpPayload::Udp(dgram) = &pkt.body {
                if dgram.dst_port == MIP_PORT {
                    if let Some(msg) = std::str::from_utf8(&dgram.payload)
                        .ok()
                        .and_then(MipMessage::decode)
                    {
                        let src = pkt.ip.src;
                        self.handle_registration(ctx, src, msg);
                    }
                }
            }
            return;
        }
        // Mobile-bound traffic: tunnel if a binding exists.
        let now = ctx.now;
        if let Some(binding) = self.bindings.get(&pkt.ip.dst) {
            if binding.expires > now {
                let care_of = binding.care_of;
                self.tunneled += 1;
                if self.route_optimization {
                    // Tell the correspondent's side about the binding so
                    // future packets can bypass the HA.
                    let update = MipMessage::BindingUpdate {
                        home_addr: pkt.ip.dst,
                        care_of,
                        lifetime: 60,
                    };
                    let bu = Packet::udp(
                        self.addr,
                        pkt.ip.src,
                        UdpDatagram {
                            src_port: MIP_PORT,
                            dst_port: BINDING_PORT,
                            payload: Bytes::from(update.encode().into_bytes()),
                        },
                    );
                    self.forward(ctx, bu);
                }
                let tunneled = Packet::encap(self.addr, care_of, pkt);
                self.forward(ctx, tunneled);
                return;
            }
        }
        self.forward(ctx, pkt);
    }
}

/// The Foreign Agent: advertises itself on its wireless interfaces,
/// relays registrations, and decapsulates tunneled traffic for visiting
/// mobiles.
pub struct ForeignAgent {
    name: String,
    addr: Ipv4Addr,
    /// Forwarding table for the wired side.
    pub table: RoutingTable,
    /// Interfaces on which agent advertisements are broadcast.
    pub advertise_ifaces: Vec<IfaceId>,
    /// Visiting mobiles: home address → interface toward the mobile.
    visitors: HashMap<Ipv4Addr, IfaceId>,
    /// Pending relayed registrations: home address → mobile-side iface.
    pending: HashMap<Ipv4Addr, IfaceId>,
    /// Forward-on-handoff state: mobiles that moved away, and where to.
    departed: HashMap<Ipv4Addr, Ipv4Addr>,
    /// Handoff policy for tunneled packets without a visitor entry.
    pub policy: HandoffPolicy,
    advert_seq: u16,
    /// Advertisement interval.
    pub advert_interval: SimDuration,
    /// Packets decapsulated for visitors.
    pub decapsulated: u64,
    /// Packets re-forwarded to a new care-of (Forward policy).
    pub reforwarded: u64,
    /// Packets dropped for departed/unknown mobiles.
    pub dropped: u64,
}

const ADVERT_TOKEN: u64 = (1 << 62) | 1;

impl ForeignAgent {
    /// Creates a foreign agent.
    pub fn new(name: impl Into<String>, addr: Ipv4Addr, table: RoutingTable) -> Self {
        ForeignAgent {
            name: name.into(),
            addr,
            table,
            advertise_ifaces: Vec::new(),
            visitors: HashMap::new(),
            pending: HashMap::new(),
            departed: HashMap::new(),
            policy: HandoffPolicy::Drop,
            advert_seq: 0,
            advert_interval: SimDuration::from_millis(500),
            decapsulated: 0,
            reforwarded: 0,
            dropped: 0,
        }
    }

    fn forward(&mut self, ctx: &mut NodeCtx<'_>, mut pkt: Packet) {
        if let Some(iface) = forward_step(ctx, &self.table, &mut pkt) {
            ctx.send(iface, pkt);
        }
    }

    fn advertise(&mut self, ctx: &mut NodeCtx<'_>) {
        self.advert_seq = self.advert_seq.wrapping_add(1);
        for &iface in &self.advertise_ifaces {
            let msg = IcmpMessage::RouterAdvertisement {
                addrs: vec![self.addr],
                lifetime: 3,
                agent: Some(AgentAdvertisement {
                    sequence: self.advert_seq,
                    registration_lifetime: 300,
                    care_of: self.addr,
                    home_agent: false,
                    foreign_agent: true,
                }),
            };
            ctx.send(iface, Packet::icmp(self.addr, Ipv4Addr::BROADCAST, msg));
        }
        ctx.set_timer_after(self.advert_interval, ADVERT_TOKEN);
    }

    fn deliver_to_mobile(&mut self, ctx: &mut NodeCtx<'_>, inner: Packet) {
        let dst = inner.ip.dst;
        if let Some(&iface) = self.visitors.get(&dst) {
            self.decapsulated += 1;
            ctx.send(iface, inner);
            return;
        }
        match (self.policy, self.departed.get(&dst)) {
            (HandoffPolicy::Forward, Some(&new_care_of)) => {
                self.reforwarded += 1;
                let retunneled = Packet::encap(self.addr, new_care_of, inner);
                self.forward(ctx, retunneled);
            }
            _ => {
                self.dropped += 1;
                let reason = comma_netsim::trace::DropReason::NoRoute;
                ctx.trace.drop_pkt(ctx.now, ctx.node, reason, || inner.summary());
            }
        }
    }
}

impl Node for ForeignAgent {
    fn name(&self) -> &str {
        &self.name
    }

    fn addresses(&self) -> Vec<Ipv4Addr> {
        vec![self.addr]
    }

    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.advertise(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if token == ADVERT_TOKEN {
            self.advertise(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, pkt: Packet) {
        if pkt.ip.dst == self.addr {
            match pkt.body {
                IpPayload::Encap(inner) => {
                    self.deliver_to_mobile(ctx, *inner);
                }
                IpPayload::Udp(ref dgram) if dgram.dst_port == MIP_PORT => {
                    let Some(msg) = std::str::from_utf8(&dgram.payload)
                        .ok()
                        .and_then(MipMessage::decode)
                    else {
                        return;
                    };
                    match msg {
                        MipMessage::RegistrationRequest {
                            home_addr,
                            home_agent,
                            ..
                        } => {
                            // Relay from the mobile to the HA; remember the
                            // mobile-side interface.
                            self.pending.insert(home_addr, iface);
                            let relay = Packet::udp(
                                self.addr,
                                home_agent,
                                UdpDatagram {
                                    src_port: MIP_PORT,
                                    dst_port: MIP_PORT,
                                    payload: dgram.payload.clone(),
                                },
                            );
                            self.forward(ctx, relay);
                        }
                        MipMessage::RegistrationReply {
                            home_addr, code, ..
                        } => {
                            if let Some(m_iface) = self.pending.remove(&home_addr) {
                                if code == 0 {
                                    self.visitors.insert(home_addr, m_iface);
                                    self.departed.remove(&home_addr);
                                    ctx.log(format_args!("FA: {home_addr} registered here"));
                                }
                                let relay = Packet::udp(
                                    self.addr,
                                    home_addr,
                                    UdpDatagram {
                                        src_port: MIP_PORT,
                                        dst_port: MIP_PORT,
                                        payload: dgram.payload.clone(),
                                    },
                                );
                                ctx.send(m_iface, relay);
                            }
                        }
                        MipMessage::BindingUpdate {
                            home_addr, care_of, ..
                        } => {
                            // The mobile moved to another FA.
                            self.visitors.remove(&home_addr);
                            self.departed.insert(home_addr, care_of);
                            ctx.log(format_args!("FA: {home_addr} departed to {care_of}"));
                        }
                    }
                }
                _ => {}
            }
            return;
        }
        // Transit traffic (e.g. from a visiting mobile toward the wired
        // network): plain forwarding.
        self.forward(ctx, pkt);
    }
}

/// A wired router that maintains a binding cache: it snoops binding
/// updates passing through and tunnels mobile-bound traffic directly to
/// the care-of address, eliminating triangular routing (§2.1).
pub struct BindingCacheRouter {
    name: String,
    addrs: Vec<Ipv4Addr>,
    /// Forwarding table.
    pub table: RoutingTable,
    cache: HashMap<Ipv4Addr, Ipv4Addr>,
    /// Whether the cache is consulted (off = plain router).
    pub enabled: bool,
    /// Packets sent directly to a care-of address.
    pub optimized: u64,
}

impl BindingCacheRouter {
    /// Creates the router.
    pub fn new(name: impl Into<String>, addrs: Vec<Ipv4Addr>, table: RoutingTable) -> Self {
        BindingCacheRouter {
            name: name.into(),
            addrs,
            table,
            cache: HashMap::new(),
            enabled: true,
            optimized: 0,
        }
    }

    /// Cached care-of for a mobile.
    pub fn cached(&self, mobile: Ipv4Addr) -> Option<Ipv4Addr> {
        self.cache.get(&mobile).copied()
    }
}

impl Node for BindingCacheRouter {
    fn name(&self) -> &str {
        &self.name
    }

    fn addresses(&self) -> Vec<Ipv4Addr> {
        self.addrs.clone()
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _iface: IfaceId, mut pkt: Packet) {
        // Snoop binding updates in transit.
        if let IpPayload::Udp(dgram) = &pkt.body {
            if dgram.dst_port == BINDING_PORT {
                if let Some(MipMessage::BindingUpdate {
                    home_addr, care_of, ..
                }) = std::str::from_utf8(&dgram.payload)
                    .ok()
                    .and_then(MipMessage::decode)
                {
                    self.cache.insert(home_addr, care_of);
                    ctx.log(format_args!("binding cache: {home_addr} via {care_of}"));
                }
            }
        }
        if self.addrs.contains(&pkt.ip.dst) {
            return;
        }
        if self.enabled {
            if let Some(&care_of) = self.cache.get(&pkt.ip.dst) {
                self.optimized += 1;
                let src = self.addrs.first().copied().unwrap_or(pkt.ip.src);
                let mut tunneled = Packet::encap(src, care_of, pkt);
                if let Some(iface) = forward_step(ctx, &self.table, &mut tunneled) {
                    ctx.send(iface, tunneled);
                }
                return;
            }
        }
        if let Some(iface) = forward_step(ctx, &self.table, &mut pkt) {
            ctx.send(iface, pkt);
        }
    }
}
