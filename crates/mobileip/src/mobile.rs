//! The mobile host: a TCP host that discovers foreign agents through ICMP
//! agent advertisements and keeps its home agent's binding current.


use comma_rt::Bytes;
use comma_netsim::addr::Ipv4Addr;
use comma_netsim::node::{IfaceId, Node, NodeCtx};
use comma_netsim::packet::{IcmpMessage, IpPayload, Packet, UdpDatagram};
use comma_netsim::sched::TimerHandle;
use comma_netsim::time::{SimDuration, SimTime};
use comma_tcp::host::{Host, WRAPPER_TIMER_BIT};

use crate::msg::{MipMessage, MIP_PORT};

/// Timer token for re-registration.
const REREG_TOKEN: u64 = WRAPPER_TIMER_BIT | 1;

/// A mobile host: wraps [`Host`], adding Mobile IP client behaviour.
pub struct MobileHost {
    /// The wrapped host (applications, sockets, counters).
    pub host: Host,
    home_agent: Ipv4Addr,
    /// Currently registered care-of address.
    pub care_of: Option<Ipv4Addr>,
    /// Care-of being registered (awaiting the reply).
    pending_care_of: Option<(Ipv4Addr, u32)>,
    next_reg_id: u32,
    lifetime: u16,
    registered_at: Option<SimTime>,
    /// Completed registrations.
    pub registrations: u64,
    /// Care-of changes after the first registration (handoffs).
    pub handoffs: u64,
    /// Interface the most recent advertisement arrived on.
    pub active_iface: Option<IfaceId>,
    /// Pending re-registration timer; a confirmed registration after a
    /// handoff cancels the superseded one instead of letting it fire.
    rereg_timer: Option<TimerHandle>,
}

impl MobileHost {
    /// Creates a mobile host whose permanent address is `host`'s address.
    pub fn new(host: Host, home_agent: Ipv4Addr) -> Self {
        MobileHost {
            host,
            home_agent,
            care_of: None,
            pending_care_of: None,
            next_reg_id: 1,
            lifetime: 300,
            registered_at: None,
            registrations: 0,
            handoffs: 0,
            active_iface: None,
            rereg_timer: None,
        }
    }

    /// The mobile's permanent home address.
    pub fn home_addr(&self) -> Ipv4Addr {
        self.host.addr()
    }

    fn send_registration(&mut self, ctx: &mut NodeCtx<'_>, care_of: Ipv4Addr, iface: IfaceId) {
        let id = self.next_reg_id;
        self.next_reg_id += 1;
        self.pending_care_of = Some((care_of, id));
        let req = MipMessage::RegistrationRequest {
            home_addr: self.home_addr(),
            home_agent: self.home_agent,
            care_of,
            lifetime: self.lifetime,
            id,
        };
        let pkt = Packet::udp(
            self.home_addr(),
            care_of,
            UdpDatagram {
                src_port: MIP_PORT,
                dst_port: MIP_PORT,
                payload: Bytes::from(req.encode().into_bytes()),
            },
        );
        ctx.send(iface, pkt);
        ctx.log(format_args!("mobile: registering care-of {care_of}"));
    }

    fn on_advertisement(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, care_of: Ipv4Addr) {
        // Track the freshest agent and route through it.
        self.active_iface = Some(iface);
        self.host.table.add_default(iface);
        let needs_registration = match self.care_of {
            None => true,
            Some(current) => current != care_of,
        };
        let reregister_due = self
            .registered_at
            .map(|t| {
                ctx.now.saturating_since(t) >= SimDuration::from_secs(self.lifetime as u64 / 2)
            })
            .unwrap_or(false);
        let already_pending = self.pending_care_of.map(|(c, _)| c) == Some(care_of);
        if (needs_registration || reregister_due) && !already_pending {
            self.send_registration(ctx, care_of, iface);
        }
    }

    fn on_reply(&mut self, ctx: &mut NodeCtx<'_>, msg: MipMessage) {
        let MipMessage::RegistrationReply {
            home_addr,
            code,
            id,
            ..
        } = msg
        else {
            return;
        };
        if home_addr != self.home_addr() || code != 0 {
            return;
        }
        if let Some((care_of, pending_id)) = self.pending_care_of {
            if pending_id == id {
                if self.care_of.is_some() && self.care_of != Some(care_of) {
                    self.handoffs += 1;
                }
                self.care_of = Some(care_of);
                self.pending_care_of = None;
                self.registrations += 1;
                self.registered_at = Some(ctx.now);
                ctx.log(format_args!("mobile: registration confirmed via {care_of}"));
                if let Some(h) = self.rereg_timer.take() {
                    ctx.cancel_timer(h);
                }
                self.rereg_timer = Some(ctx.set_timer_after(
                    SimDuration::from_secs(self.lifetime as u64 / 2),
                    REREG_TOKEN,
                ));
            }
        }
    }
}

impl Node for MobileHost {
    fn name(&self) -> &str {
        self.host.name()
    }

    fn addresses(&self) -> Vec<Ipv4Addr> {
        self.host.addresses()
    }

    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.host.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, pkt: Packet) {
        match &pkt.body {
            IpPayload::Icmp(IcmpMessage::RouterAdvertisement {
                agent: Some(agent), ..
            }) => {
                let care_of = agent.care_of;
                self.on_advertisement(ctx, iface, care_of);
            }
            IpPayload::Udp(dgram)
                if dgram.dst_port == MIP_PORT && pkt.ip.dst == self.home_addr() =>
            {
                if let Some(msg) = std::str::from_utf8(&dgram.payload)
                    .ok()
                    .and_then(MipMessage::decode)
                {
                    self.on_reply(ctx, msg);
                }
            }
            _ => self.host.on_packet(ctx, iface, pkt),
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if token & WRAPPER_TIMER_BIT != 0 {
            if token == REREG_TOKEN {
                self.rereg_timer = None;
                if let (Some(care_of), Some(iface)) = (self.care_of, self.active_iface) {
                    self.send_registration(ctx, care_of, iface);
                }
            }
            return;
        }
        self.host.on_timer(ctx, token);
    }
}
