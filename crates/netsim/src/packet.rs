//! In-simulator packet representation: IPv4 datagrams carrying TCP, UDP,
//! ICMP, or encapsulated (IP-in-IP) payloads.
//!
//! Packets are kept in typed form inside the simulator so that filters can
//! inspect and rewrite fields directly, exactly as the thesis's Service
//! Proxy does; the [`crate::wire`] module provides byte-exact encoding with
//! real Internet checksums for length accounting and verification.

use std::fmt;

use comma_rt::digest::StateHasher;
use comma_rt::Bytes;

use crate::addr::Ipv4Addr;

/// IP protocol numbers used by the simulator (matching IANA assignments).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// IP-in-IP encapsulation (4), used by Mobile IP tunneling.
    IpInIp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
}

impl IpProto {
    /// Returns the IANA protocol number.
    pub const fn number(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::IpInIp => 4,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
        }
    }

    /// Looks up a protocol by IANA number.
    pub const fn from_number(n: u8) -> Option<IpProto> {
        match n {
            1 => Some(IpProto::Icmp),
            4 => Some(IpProto::IpInIp),
            6 => Some(IpProto::Tcp),
            17 => Some(IpProto::Udp),
            _ => None,
        }
    }
}

/// An IPv4 header (the fields the simulator models).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Time to live; routers decrement this and drop at zero.
    pub ttl: u8,
    /// Carried protocol; kept consistent with the body by constructors.
    pub protocol: IpProto,
    /// Identification field (used only for tracing/debugging).
    pub id: u16,
    /// Type-of-service byte; filters may use it for prioritization.
    pub tos: u8,
}

impl Ipv4Header {
    /// Default TTL for newly created packets.
    pub const DEFAULT_TTL: u8 = 64;

    /// Creates a header with default TTL, id 0 and TOS 0.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProto) -> Self {
        Ipv4Header {
            src,
            dst,
            ttl: Self::DEFAULT_TTL,
            protocol,
            id: 0,
            tos: 0,
        }
    }
}

/// TCP header flags, stored as the low six bits of the flags byte.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN: sender has finished sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: the acknowledgement field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: the urgent pointer is significant.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Returns `true` if every flag in `other` is set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns the union of two flag sets.
    pub const fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// Convenience accessors for individual flags.
    pub const fn syn(self) -> bool {
        self.contains(TcpFlags::SYN)
    }
    /// Returns `true` if the ACK flag is set.
    pub const fn ack(self) -> bool {
        self.contains(TcpFlags::ACK)
    }
    /// Returns `true` if the FIN flag is set.
    pub const fn fin(self) -> bool {
        self.contains(TcpFlags::FIN)
    }
    /// Returns `true` if the RST flag is set.
    pub const fn rst(self) -> bool {
        self.contains(TcpFlags::RST)
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        self.union(rhs)
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::URG, "URG"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// TCP header options modeled by the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpOption {
    /// Maximum segment size, sent on SYN segments.
    Mss(u16),
}

impl TcpOption {
    /// Encoded length of the option in bytes.
    pub const fn wire_len(self) -> usize {
        match self {
            TcpOption::Mss(_) => 4,
        }
    }
}

/// A TCP segment: header fields plus payload bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of SYN/FIN).
    pub seq: u32,
    /// Acknowledgement number (valid when the ACK flag is set).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes.
    pub window: u16,
    /// Header options (MSS on SYNs).
    pub options: Vec<TcpOption>,
    /// Payload bytes.
    pub payload: Bytes,
}

impl TcpSegment {
    /// Creates a bare segment with no payload or options.
    pub fn new(src_port: u16, dst_port: u16, seq: u32, ack: u32, flags: TcpFlags) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 0,
            options: Vec::new(),
            payload: Bytes::new(),
        }
    }

    /// Length of the encoded TCP header including options, padded to a
    /// multiple of four bytes.
    pub fn header_len(&self) -> usize {
        let opts: usize = self.options.iter().map(|o| o.wire_len()).sum();
        20 + opts.div_ceil(4) * 4
    }

    /// Returns the amount of sequence space this segment occupies: payload
    /// length plus one for SYN and one for FIN.
    pub fn seq_len(&self) -> u32 {
        let mut len = self.payload.len() as u32;
        if self.flags.syn() {
            len += 1;
        }
        if self.flags.fin() {
            len += 1;
        }
        len
    }

    /// Returns the negotiated MSS option if present.
    pub fn mss_option(&self) -> Option<u16> {
        self.options
            .iter()
            .map(|o| match o {
                TcpOption::Mss(v) => *v,
            })
            .next()
    }
}

/// A UDP datagram.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

/// A Mobile IP agent advertisement extension carried on ICMP router
/// advertisements (RFC 2002 §2.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AgentAdvertisement {
    /// Sequence number of the advertisement.
    pub sequence: u16,
    /// Registration lifetime offered, in seconds.
    pub registration_lifetime: u16,
    /// Care-of address offered by the agent.
    pub care_of: Ipv4Addr,
    /// Agent is willing to serve as a home agent.
    pub home_agent: bool,
    /// Agent is willing to serve as a foreign agent.
    pub foreign_agent: bool,
}

/// The ICMP messages the simulator models.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IcmpMessage {
    /// Echo request (ping), carrying an identifier/sequence pair and payload.
    EchoRequest {
        /// Identifier chosen by the sender.
        id: u16,
        /// Sequence number of this probe.
        seq: u16,
        /// Probe payload.
        payload: Bytes,
    },
    /// Echo reply mirroring a request.
    EchoReply {
        /// Identifier copied from the request.
        id: u16,
        /// Sequence number copied from the request.
        seq: u16,
        /// Payload copied from the request.
        payload: Bytes,
    },
    /// Router advertisement (RFC 1256), optionally with a Mobile IP agent
    /// advertisement extension.
    RouterAdvertisement {
        /// Advertised router addresses.
        addrs: Vec<Ipv4Addr>,
        /// Advertisement lifetime in seconds.
        lifetime: u16,
        /// Optional Mobile IP extension.
        agent: Option<AgentAdvertisement>,
    },
    /// Router solicitation (RFC 1256).
    RouterSolicitation,
    /// Destination unreachable, carrying a short description.
    Unreachable {
        /// ICMP code (e.g. 1 = host unreachable).
        code: u8,
    },
}

/// The transport payload of an IPv4 packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IpPayload {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
    /// An ICMP message.
    Icmp(IcmpMessage),
    /// An encapsulated IP packet (IP-in-IP, Mobile IP tunnels).
    Encap(Box<Packet>),
}

impl IpPayload {
    /// Returns the protocol number matching this payload variant.
    pub fn protocol(&self) -> IpProto {
        match self {
            IpPayload::Tcp(_) => IpProto::Tcp,
            IpPayload::Udp(_) => IpProto::Udp,
            IpPayload::Icmp(_) => IpProto::Icmp,
            IpPayload::Encap(_) => IpProto::IpInIp,
        }
    }
}

/// A complete IPv4 packet as carried through the simulator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// IP header.
    pub ip: Ipv4Header,
    /// Transport payload.
    pub body: IpPayload,
}

impl Packet {
    /// Creates a packet, deriving the IP protocol field from the body.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, body: IpPayload) -> Self {
        let ip = Ipv4Header::new(src, dst, body.protocol());
        Packet { ip, body }
    }

    /// Creates a TCP packet.
    pub fn tcp(src: Ipv4Addr, dst: Ipv4Addr, seg: TcpSegment) -> Self {
        Packet::new(src, dst, IpPayload::Tcp(seg))
    }

    /// Creates a UDP packet.
    pub fn udp(src: Ipv4Addr, dst: Ipv4Addr, dgram: UdpDatagram) -> Self {
        Packet::new(src, dst, IpPayload::Udp(dgram))
    }

    /// Creates an ICMP packet.
    pub fn icmp(src: Ipv4Addr, dst: Ipv4Addr, msg: IcmpMessage) -> Self {
        Packet::new(src, dst, IpPayload::Icmp(msg))
    }

    /// Encapsulates `inner` in an IP-in-IP tunnel from `src` to `dst`.
    pub fn encap(src: Ipv4Addr, dst: Ipv4Addr, inner: Packet) -> Self {
        Packet::new(src, dst, IpPayload::Encap(Box::new(inner)))
    }

    /// Returns the TCP segment if this packet carries one.
    pub fn as_tcp(&self) -> Option<&TcpSegment> {
        match &self.body {
            IpPayload::Tcp(seg) => Some(seg),
            _ => None,
        }
    }

    /// Returns the TCP segment mutably if this packet carries one.
    pub fn as_tcp_mut(&mut self) -> Option<&mut TcpSegment> {
        match &mut self.body {
            IpPayload::Tcp(seg) => Some(seg),
            _ => None,
        }
    }

    /// Returns the UDP datagram if this packet carries one.
    pub fn as_udp(&self) -> Option<&UdpDatagram> {
        match &self.body {
            IpPayload::Udp(dgram) => Some(dgram),
            _ => None,
        }
    }

    /// Total on-the-wire length in bytes (IP header + transport header +
    /// payload), consistent with [`crate::wire::encode`].
    pub fn wire_len(&self) -> usize {
        20 + match &self.body {
            IpPayload::Tcp(seg) => seg.header_len() + seg.payload.len(),
            IpPayload::Udp(dgram) => 8 + dgram.payload.len(),
            IpPayload::Icmp(msg) => icmp_wire_len(msg),
            IpPayload::Encap(inner) => inner.wire_len(),
        }
    }

    /// What a trace keeps of this packet: its header facts, which render
    /// as e.g. `11.11.10.99:7 > 11.11.10.10:1169 TCP SYN seq=0 ack=0
    /// win=8760 len=0`.
    pub fn summary(&self) -> PacketSummary {
        let body = match &self.body {
            IpPayload::Tcp(seg) => SummaryBody::Tcp {
                src_port: seg.src_port,
                dst_port: seg.dst_port,
                flags: seg.flags,
                seq: seg.seq,
                ack: seg.ack,
                window: seg.window,
                len: seg.payload.len() as u32,
            },
            IpPayload::Udp(dgram) => SummaryBody::Udp {
                src_port: dgram.src_port,
                dst_port: dgram.dst_port,
                len: dgram.payload.len() as u32,
            },
            IpPayload::Icmp(msg) => SummaryBody::Icmp(icmp_kind(msg)),
            IpPayload::Encap(inner) => SummaryBody::Ipip(Box::new(inner.summary())),
        };
        PacketSummary { src: self.ip.src, dst: self.ip.dst, body }
    }

    /// Folds every field that can change what a receiver or a filter does
    /// with this packet into a state fingerprint (see
    /// [`crate::sim::Simulator::state_hash`]): addresses, TTL, TOS and
    /// protocol, then the transport header field by field, the TCP option
    /// list, and the payload by content (length-framed). `ip.id` is left
    /// out: nothing reads it and nothing sets it, and a sender that did
    /// number its datagrams would be recording send history, which
    /// converging schedules must not be told apart by.
    pub fn state_digest(&self, h: &mut StateHasher) {
        h.update_u64((self.ip.src.0 as u64) << 32 | self.ip.dst.0 as u64);
        h.update_u64(
            (self.ip.ttl as u64) << 24
                | (self.ip.tos as u64) << 16
                | (self.ip.protocol.number() as u64) << 8
                | self.body.protocol().number() as u64,
        );
        let ports = |src: u16, dst: u16| (src as u64) << 16 | dst as u64;
        match &self.body {
            IpPayload::Tcp(seg) => {
                h.update_u64(
                    ports(seg.src_port, seg.dst_port) << 32
                        | (seg.window as u64) << 8
                        | seg.flags.0 as u64,
                );
                h.update_u64((seg.seq as u64) << 32 | seg.ack as u64);
                h.update_u64(seg.options.len() as u64);
                for opt in &seg.options {
                    match opt {
                        TcpOption::Mss(mss) => h.update_u64(*mss as u64),
                    };
                }
                h.update(&seg.payload[..]);
            }
            IpPayload::Udp(dgram) => {
                h.update_u64(ports(dgram.src_port, dgram.dst_port));
                h.update(&dgram.payload[..]);
            }
            IpPayload::Icmp(msg) => match msg {
                IcmpMessage::EchoRequest { id, seq, payload }
                | IcmpMessage::EchoReply { id, seq, payload } => {
                    let reply = matches!(msg, IcmpMessage::EchoReply { .. }) as u64;
                    h.update_u64(reply << 32 | ports(*id, *seq));
                    h.update(&payload[..]);
                }
                IcmpMessage::RouterAdvertisement {
                    addrs,
                    lifetime,
                    agent,
                } => {
                    h.update_u64(2 << 32 | *lifetime as u64);
                    h.update_u64(addrs.len() as u64);
                    for a in addrs {
                        h.update_u64(a.0 as u64);
                    }
                    match agent {
                        None => h.update_u64(u64::MAX),
                        Some(ad) => h
                            .update_u64(
                                (ad.home_agent as u64) << 33
                                    | (ad.foreign_agent as u64) << 32
                                    | ports(ad.sequence, ad.registration_lifetime),
                            )
                            .update_u64(ad.care_of.0 as u64),
                    };
                }
                IcmpMessage::RouterSolicitation => {
                    h.update_u64(3 << 32);
                }
                IcmpMessage::Unreachable { code } => {
                    h.update_u64(4 << 32 | *code as u64);
                }
            },
            IpPayload::Encap(inner) => inner.state_digest(h),
        }
    }
}

/// Encoded length of an ICMP message, consistent with [`crate::wire`].
pub(crate) fn icmp_wire_len(msg: &IcmpMessage) -> usize {
    match msg {
        IcmpMessage::EchoRequest { payload, .. } | IcmpMessage::EchoReply { payload, .. } => {
            8 + payload.len()
        }
        IcmpMessage::RouterAdvertisement { addrs, agent, .. } => {
            // 8-byte base + 8 bytes per (addr, preference) pair + optional
            // 12-byte mobility extension.
            8 + addrs.len() * 8 + if agent.is_some() { 12 } else { 0 }
        }
        IcmpMessage::RouterSolicitation => 8,
        IcmpMessage::Unreachable { .. } => 8,
    }
}

/// A packet's header facts as a trace records them ([`Packet::summary`]).
/// Its text is made only when someone reads it, through `Display`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PacketSummary {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// What the packet carries.
    pub body: SummaryBody,
}

/// The transport facts of a [`PacketSummary`]: the header fields of a
/// [`TcpSegment`] or [`UdpDatagram`] and its payload length.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SummaryBody {
    /// A TCP segment.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Control flags.
        flags: TcpFlags,
        /// Sequence number.
        seq: u32,
        /// Acknowledgement number.
        ack: u32,
        /// Advertised window.
        window: u16,
        /// Payload bytes.
        len: u32,
    },
    /// A UDP datagram.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Payload bytes.
        len: u32,
    },
    /// An ICMP message's kind, e.g. `echo-request`.
    Icmp(&'static str),
    /// An IP-in-IP tunnel around the inner packet's summary.
    Ipip(Box<PacketSummary>),
}

impl fmt::Display for PacketSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (src, dst) = (self.src, self.dst);
        match &self.body {
            SummaryBody::Tcp { src_port, dst_port, flags, seq, ack, window, len } => write!(
                f,
                "{src}:{src_port} > {dst}:{dst_port} TCP {flags} seq={seq} ack={ack} win={window} len={len}"
            ),
            SummaryBody::Udp { src_port, dst_port, len } => {
                write!(f, "{src}:{src_port} > {dst}:{dst_port} UDP len={len}")
            }
            SummaryBody::Icmp(kind) => write!(f, "{src} > {dst} ICMP {kind:?}"),
            SummaryBody::Ipip(inner) => write!(f, "{src} > {dst} IPIP [{inner}]"),
        }
    }
}

fn icmp_kind(msg: &IcmpMessage) -> &'static str {
    match msg {
        IcmpMessage::EchoRequest { .. } => "echo-request",
        IcmpMessage::EchoReply { .. } => "echo-reply",
        IcmpMessage::RouterAdvertisement { .. } => "router-advertisement",
        IcmpMessage::RouterSolicitation => "router-solicitation",
        IcmpMessage::Unreachable { .. } => "unreachable",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn flags_display_and_ops() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.syn() && f.ack() && !f.fin());
        assert_eq!(f.to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::EMPTY.to_string(), "-");
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut seg = TcpSegment::new(1, 2, 100, 0, TcpFlags::SYN);
        assert_eq!(seg.seq_len(), 1);
        seg.flags = TcpFlags::FIN | TcpFlags::ACK;
        seg.payload = Bytes::from_static(b"abc");
        assert_eq!(seg.seq_len(), 4);
    }

    #[test]
    fn header_len_pads_options() {
        let mut seg = TcpSegment::new(1, 2, 0, 0, TcpFlags::SYN);
        assert_eq!(seg.header_len(), 20);
        seg.options.push(TcpOption::Mss(1460));
        assert_eq!(seg.header_len(), 24);
        assert_eq!(seg.mss_option(), Some(1460));
    }

    #[test]
    fn wire_len_matches_structure() {
        let seg = TcpSegment::new(1, 2, 0, 0, TcpFlags::EMPTY);
        let pkt = Packet::tcp(addr(1), addr(2), seg);
        assert_eq!(pkt.wire_len(), 40);

        let udp = Packet::udp(
            addr(1),
            addr(2),
            UdpDatagram {
                src_port: 5,
                dst_port: 6,
                payload: Bytes::from_static(b"hello"),
            },
        );
        assert_eq!(udp.wire_len(), 20 + 8 + 5);

        let tunneled = Packet::encap(addr(3), addr(4), udp.clone());
        assert_eq!(tunneled.wire_len(), 20 + udp.wire_len());
    }

    #[test]
    fn protocol_derived_from_body() {
        let pkt = Packet::icmp(addr(1), addr(2), IcmpMessage::RouterSolicitation);
        assert_eq!(pkt.ip.protocol, IpProto::Icmp);
        assert_eq!(IpProto::from_number(6), Some(IpProto::Tcp));
        assert_eq!(IpProto::from_number(99), None);
    }

    /// The summary text as it was formatted when the trace stored it: the
    /// reference `PacketSummary`'s `Display` must reproduce byte for byte.
    fn reference_summary(pkt: &Packet) -> String {
        match &pkt.body {
            IpPayload::Tcp(seg) => format!(
                "{}:{} > {}:{} TCP {} seq={} ack={} win={} len={}",
                pkt.ip.src,
                seg.src_port,
                pkt.ip.dst,
                seg.dst_port,
                seg.flags,
                seg.seq,
                seg.ack,
                seg.window,
                seg.payload.len()
            ),
            IpPayload::Udp(dgram) => format!(
                "{}:{} > {}:{} UDP len={}",
                pkt.ip.src,
                dgram.src_port,
                pkt.ip.dst,
                dgram.dst_port,
                dgram.payload.len()
            ),
            IpPayload::Icmp(msg) => {
                format!("{} > {} ICMP {:?}", pkt.ip.src, pkt.ip.dst, icmp_kind(msg))
            }
            IpPayload::Encap(inner) => {
                format!("{} > {} IPIP [{}]", pkt.ip.src, pkt.ip.dst, reference_summary(inner))
            }
        }
    }

    /// A random packet for the rendering property: TCP with any flag
    /// subset, sequence numbers near the wrap and extreme windows, UDP,
    /// every ICMP message, and IP-in-IP up to three deep.
    fn random_packet(rng: &mut comma_rt::SmallRng, depth: u32) -> Packet {
        use comma_rt::prop::gen;
        use comma_rt::Rng;
        let (src, dst) = (Ipv4Addr(rng.gen()), Ipv4Addr(rng.gen()));
        let payload = |rng: &mut comma_rt::SmallRng| Bytes::from(gen::bytes(rng, 0..1_500));
        let near_wrap = |rng: &mut comma_rt::SmallRng| match rng.gen_range(0u32..3) {
            0 => u32::MAX - rng.gen_range(0u32..4),
            1 => rng.gen_range(0u32..4),
            _ => rng.gen(),
        };
        match rng.gen_range(0u32..if depth < 3 { 10 } else { 8 }) {
            0..=3 => {
                let (seq, ack) = (near_wrap(rng), near_wrap(rng));
                let mut seg = TcpSegment::new(rng.gen(), rng.gen(), seq, ack, TcpFlags(rng.gen()));
                seg.window = [0, u16::MAX, rng.gen()][rng.gen_range(0..3)];
                seg.payload = payload(rng);
                Packet::tcp(src, dst, seg)
            }
            4 => {
                let dgram = UdpDatagram {
                    src_port: rng.gen(),
                    dst_port: rng.gen(),
                    payload: payload(rng),
                };
                Packet::udp(src, dst, dgram)
            }
            5..=7 => {
                let (id, seq) = (rng.gen(), rng.gen());
                let msg = match rng.gen_range(0u32..5) {
                    0 => IcmpMessage::EchoRequest { id, seq, payload: payload(rng) },
                    1 => IcmpMessage::EchoReply { id, seq, payload: payload(rng) },
                    2 => IcmpMessage::RouterAdvertisement {
                        addrs: vec![Ipv4Addr(rng.gen())],
                        lifetime: rng.gen(),
                        agent: None,
                    },
                    3 => IcmpMessage::RouterSolicitation,
                    _ => IcmpMessage::Unreachable { code: rng.gen() },
                };
                Packet::icmp(src, dst, msg)
            }
            _ => Packet::encap(src, dst, random_packet(rng, depth + 1)),
        }
    }

    #[test]
    fn summary_is_stable() {
        let mut seg = TcpSegment::new(7, 1169, 0, 0, TcpFlags::SYN);
        seg.window = 8760;
        let pkt = Packet::tcp(
            Ipv4Addr::new(11, 11, 10, 99),
            Ipv4Addr::new(11, 11, 10, 10),
            seg,
        );
        assert_eq!(
            pkt.summary().to_string(),
            "11.11.10.99:7 > 11.11.10.10:1169 TCP SYN seq=0 ack=0 win=8760 len=0"
        );
    }

    #[test]
    fn summary_display_matches_reference() {
        use comma_rt::ensure_eq;
        use comma_rt::prop::Runner;

        for flags in 0..=u8::MAX {
            let seg = TcpSegment::new(7, 1169, u32::MAX, 0, TcpFlags(flags));
            let pkt = Packet::tcp(addr(1), addr(2), seg);
            assert_eq!(pkt.summary().to_string(), reference_summary(&pkt));
        }
        Runner::new("summary_display_matches_reference").cases(200).run(
            |rng| random_packet(rng, 0),
            |pkt| {
                ensure_eq!(pkt.summary().to_string(), reference_summary(pkt), "{pkt:?}");
                Ok(())
            },
        );
    }

    fn fingerprint(pkt: &Packet) -> u64 {
        let mut h = StateHasher::new();
        pkt.state_digest(&mut h);
        h.finish()
    }

    fn tcp(pkt: &mut Packet) -> &mut TcpSegment {
        pkt.as_tcp_mut().expect("a TCP packet")
    }

    /// Every field a receiver or a filter can act on moves the
    /// fingerprint; where the payload bytes live does not.
    #[test]
    fn state_digest_sees_every_behaviour_field_and_no_address() {
        let mut seg = TcpSegment::new(7, 1169, 1_000, 2_000, TcpFlags::ACK);
        seg.window = 8760;
        seg.options.push(TcpOption::Mss(1460));
        seg.payload = Bytes::from_static(b"0123456789abcdef!");
        let base = Packet::tcp(addr(1), addr(2), seg);

        let edits: [(&str, fn(&mut Packet)); 15] = [
            ("src", |p| p.ip.src = addr(3)),
            ("dst", |p| p.ip.dst = addr(3)),
            ("ttl", |p| p.ip.ttl -= 1),
            ("tos", |p| p.ip.tos = 0x10),
            ("sport", |p| tcp(p).src_port = 8),
            ("dport", |p| tcp(p).dst_port = 1170),
            ("flags", |p| tcp(p).flags = TcpFlags::ACK | TcpFlags::PSH),
            ("seq", |p| tcp(p).seq += 1),
            ("ack", |p| tcp(p).ack += 1),
            ("window", |p| tcp(p).window += 1),
            ("mss value", |p| tcp(p).options[0] = TcpOption::Mss(536)),
            ("mss absent", |p| tcp(p).options.clear()),
            ("payload byte", |p| tcp(p).payload = Bytes::from_static(b"0123456789abcdeF!")),
            ("payload shorter", |p| tcp(p).payload = Bytes::from_static(b"0123456789abcdef")),
            ("payload longer", |p| tcp(p).payload = Bytes::from_static(b"0123456789abcdef!\0")),
        ];
        let mut seen = vec![("nothing", fingerprint(&base))];
        for (what, edit) in edits {
            let mut p = base.clone();
            edit(&mut p);
            let f = fingerprint(&p);
            if let Some((other, _)) = seen.iter().find(|(_, g)| *g == f) {
                panic!("changing {what} hashes like changing {other}");
            }
            seen.push((what, f));
        }

        // Equal content in another allocation: equal fingerprint.
        let mut moved = base.clone();
        tcp(&mut moved).payload = Bytes::from(b"0123456789abcdef!".to_vec());
        assert!(!tcp(&mut moved).payload.ptr_eq(&base.as_tcp().expect("tcp").payload));
        assert_eq!(fingerprint(&moved), fingerprint(&base));

        // A tunnel header is part of the state, and so is what it wraps.
        let outer = Packet::encap(addr(8), addr(9), base.clone());
        let mut inner_changed = base.clone();
        tcp(&mut inner_changed).seq += 1;
        assert_ne!(fingerprint(&outer), fingerprint(&base));
        assert_ne!(
            fingerprint(&outer),
            fingerprint(&Packet::encap(addr(8), addr(9), inner_changed))
        );
    }
}
