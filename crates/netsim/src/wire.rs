//! Byte-exact wire encoding of simulator packets.
//!
//! The simulator carries packets in typed form, but every length used for
//! bandwidth accounting comes from this codec, and the `tcp` checksum filter
//! and the test suite verify real RFC 791/793 checksums through it.

use std::fmt;

use comma_rt::Bytes;

use crate::addr::Ipv4Addr;
use crate::checksum::{internet_checksum, Checksum};
use crate::packet::{
    AgentAdvertisement, IcmpMessage, IpPayload, IpProto, Ipv4Header, Packet, TcpFlags, TcpOption,
    TcpSegment, UdpDatagram,
};

/// Error produced when decoding malformed wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before a complete header/payload.
    Truncated(&'static str),
    /// A header field held an unsupported value.
    Unsupported(&'static str),
    /// A checksum did not verify.
    BadChecksum(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated(what) => write!(f, "truncated {what}"),
            WireError::Unsupported(what) => write!(f, "unsupported {what}"),
            WireError::BadChecksum(what) => write!(f, "bad checksum in {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a packet to wire bytes with valid checksums.
///
/// Single-buffer: headers, options, and payload are written once into one
/// `Vec` sized by [`Packet::wire_len`] — no intermediate body allocation
/// (this runs per packet under the `tcp` housekeeping filter, so encode
/// cost is dispatch-path cost).
pub fn encode(pkt: &Packet) -> Vec<u8> {
    let mut out = Vec::with_capacity(pkt.wire_len());
    encode_into(&mut out, pkt);
    out
}

/// Encodes a packet by appending to an existing buffer, letting callers on
/// the per-packet path reuse one allocation across packets (`clear()` keeps
/// capacity).
pub fn encode_into(out: &mut Vec<u8>, pkt: &Packet) {
    let hdr = out.len();
    let total_len = pkt.wire_len();
    out.push(0x45); // Version 4, IHL 5.
    out.push(pkt.ip.tos);
    out.extend_from_slice(&(total_len as u16).to_be_bytes());
    out.extend_from_slice(&pkt.ip.id.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // Flags/fragment offset: never fragmented.
    out.push(pkt.ip.ttl);
    out.push(pkt.ip.protocol.number());
    out.extend_from_slice(&[0, 0]); // Header checksum placeholder.
    out.extend_from_slice(&pkt.ip.src.octets());
    out.extend_from_slice(&pkt.ip.dst.octets());
    let ck = internet_checksum(&out[hdr..hdr + 20]);
    out[hdr + 10..hdr + 12].copy_from_slice(&ck.to_be_bytes());
    match &pkt.body {
        IpPayload::Tcp(seg) => encode_tcp_into(out, &pkt.ip, seg),
        IpPayload::Udp(dgram) => encode_udp_into(out, &pkt.ip, dgram),
        IpPayload::Icmp(msg) => encode_icmp_into(out, msg),
        IpPayload::Encap(inner) => encode_into(out, inner),
    }
}

fn encode_tcp_into(out: &mut Vec<u8>, ip: &Ipv4Header, seg: &TcpSegment) {
    let start = out.len();
    let header_len = seg.header_len();
    out.extend_from_slice(&seg.src_port.to_be_bytes());
    out.extend_from_slice(&seg.dst_port.to_be_bytes());
    out.extend_from_slice(&seg.seq.to_be_bytes());
    out.extend_from_slice(&seg.ack.to_be_bytes());
    out.push(((header_len / 4) as u8) << 4);
    out.push(seg.flags.0);
    out.extend_from_slice(&seg.window.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // Checksum placeholder.
    out.extend_from_slice(&[0, 0]); // Urgent pointer (unused).
    for opt in &seg.options {
        match opt {
            TcpOption::Mss(mss) => {
                out.push(2);
                out.push(4);
                out.extend_from_slice(&mss.to_be_bytes());
            }
        }
    }
    while out.len() - start < header_len {
        out.push(0); // End-of-options padding.
    }
    out.extend_from_slice(&seg.payload);

    let mut ck = Checksum::new();
    ck.add_addr(ip.src);
    ck.add_addr(ip.dst);
    ck.add_u16(IpProto::Tcp.number() as u16);
    ck.add_u16((out.len() - start) as u16);
    ck.add_bytes(&out[start..]);
    let sum = ck.finish();
    out[start + 16..start + 18].copy_from_slice(&sum.to_be_bytes());
}

fn encode_udp_into(out: &mut Vec<u8>, ip: &Ipv4Header, dgram: &UdpDatagram) {
    let start = out.len();
    let len = 8 + dgram.payload.len();
    out.extend_from_slice(&dgram.src_port.to_be_bytes());
    out.extend_from_slice(&dgram.dst_port.to_be_bytes());
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&dgram.payload);
    let mut ck = Checksum::new();
    ck.add_addr(ip.src);
    ck.add_addr(ip.dst);
    ck.add_u16(IpProto::Udp.number() as u16);
    ck.add_u16(len as u16);
    ck.add_bytes(&out[start..]);
    let mut sum = ck.finish();
    if sum == 0 {
        sum = 0xffff; // RFC 768: transmitted as all-ones when computed zero.
    }
    out[start + 6..start + 8].copy_from_slice(&sum.to_be_bytes());
}

fn encode_icmp_into(out: &mut Vec<u8>, msg: &IcmpMessage) {
    let start = out.len();
    match msg {
        IcmpMessage::EchoRequest { id, seq, payload }
        | IcmpMessage::EchoReply { id, seq, payload } => {
            let ty = if matches!(msg, IcmpMessage::EchoRequest { .. }) {
                8
            } else {
                0
            };
            out.push(ty);
            out.push(0);
            out.extend_from_slice(&[0, 0]);
            out.extend_from_slice(&id.to_be_bytes());
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(payload);
        }
        IcmpMessage::RouterAdvertisement {
            addrs,
            lifetime,
            agent,
        } => {
            out.push(9);
            out.push(0);
            out.extend_from_slice(&[0, 0]);
            out.push(addrs.len() as u8);
            out.push(2); // Address entry size in 32-bit words.
            out.extend_from_slice(&lifetime.to_be_bytes());
            for addr in addrs {
                out.extend_from_slice(&addr.octets());
                out.extend_from_slice(&0u32.to_be_bytes()); // Preference.
            }
            if let Some(agent) = agent {
                out.push(16); // Mobility agent advertisement extension type.
                out.push(10); // Length of the remaining extension bytes.
                out.extend_from_slice(&agent.sequence.to_be_bytes());
                out.extend_from_slice(&agent.registration_lifetime.to_be_bytes());
                let mut flags = 0u8;
                if agent.home_agent {
                    flags |= 0x20;
                }
                if agent.foreign_agent {
                    flags |= 0x10;
                }
                out.push(flags);
                out.push(0);
                out.extend_from_slice(&agent.care_of.octets());
            }
        }
        IcmpMessage::RouterSolicitation => {
            out.push(10);
            out.push(0);
            out.extend_from_slice(&[0, 0]);
            out.extend_from_slice(&0u32.to_be_bytes());
        }
        IcmpMessage::Unreachable { code } => {
            out.push(3);
            out.push(*code);
            out.extend_from_slice(&[0, 0]);
            out.extend_from_slice(&0u32.to_be_bytes());
        }
    }
    let ck = internet_checksum(&out[start..]);
    out[start + 2..start + 4].copy_from_slice(&ck.to_be_bytes());
}

/// Decodes wire bytes into a packet, verifying all checksums.
pub fn decode(bytes: &[u8]) -> Result<Packet, WireError> {
    if bytes.len() < 20 {
        return Err(WireError::Truncated("ipv4 header"));
    }
    if bytes[0] != 0x45 {
        return Err(WireError::Unsupported("ip version/ihl"));
    }
    if internet_checksum(&bytes[..20]) != 0 {
        return Err(WireError::BadChecksum("ipv4 header"));
    }
    let total_len = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
    if total_len < 20 || total_len > bytes.len() {
        return Err(WireError::Truncated("ipv4 total length"));
    }
    let tos = bytes[1];
    let id = u16::from_be_bytes([bytes[4], bytes[5]]);
    let ttl = bytes[8];
    let protocol = IpProto::from_number(bytes[9]).ok_or(WireError::Unsupported("ip protocol"))?;
    let src = Ipv4Addr(u32::from_be_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15],
    ]));
    let dst = Ipv4Addr(u32::from_be_bytes([
        bytes[16], bytes[17], bytes[18], bytes[19],
    ]));
    let ip = Ipv4Header {
        src,
        dst,
        ttl,
        protocol,
        id,
        tos,
    };
    let body_bytes = &bytes[20..total_len];
    let body = match protocol {
        IpProto::Tcp => IpPayload::Tcp(decode_tcp(&ip, body_bytes)?),
        IpProto::Udp => IpPayload::Udp(decode_udp(&ip, body_bytes)?),
        IpProto::Icmp => IpPayload::Icmp(decode_icmp(body_bytes)?),
        IpProto::IpInIp => IpPayload::Encap(Box::new(decode(body_bytes)?)),
    };
    Ok(Packet { ip, body })
}

/// Verifies structural integrity and every checksum of a wire buffer
/// without building a [`Packet`] — zero allocation.
///
/// Mirrors [`decode`]'s bounds, option, and checksum checks (ICMP bodies
/// are checksum-validated without re-walking router-advertisement
/// entries); [`verify_packet`] runs this after [`encode`] for the packets
/// it cannot judge from their structure, so it must not copy payloads the
/// way [`decode`] must.
pub fn verify(bytes: &[u8]) -> Result<(), WireError> {
    if bytes.len() < 20 {
        return Err(WireError::Truncated("ipv4 header"));
    }
    if bytes[0] != 0x45 {
        return Err(WireError::Unsupported("ip version/ihl"));
    }
    if internet_checksum(&bytes[..20]) != 0 {
        return Err(WireError::BadChecksum("ipv4 header"));
    }
    let total_len = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
    if total_len < 20 || total_len > bytes.len() {
        return Err(WireError::Truncated("ipv4 total length"));
    }
    let protocol = IpProto::from_number(bytes[9]).ok_or(WireError::Unsupported("ip protocol"))?;
    let src = Ipv4Addr(u32::from_be_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15],
    ]));
    let dst = Ipv4Addr(u32::from_be_bytes([
        bytes[16], bytes[17], bytes[18], bytes[19],
    ]));
    let body = &bytes[20..total_len];
    match protocol {
        IpProto::Tcp => verify_tcp(src, dst, body),
        IpProto::Udp => verify_udp(src, dst, body),
        IpProto::Icmp => verify_icmp(body),
        IpProto::IpInIp => verify(body),
    }
}

/// Verifies a typed packet exactly as [`encode`]-then-[`verify`] would,
/// without materializing the wire buffer.
///
/// Structure alone decides that verdict. The encoder writes every
/// checksum, and a buffer summed together with its own checksum folds to
/// zero whatever it holds: the folded sum `s` plus `!s` folds to
/// `0xffff`, and so does `s` plus UDP's all-ones stand-in for a computed
/// zero. So the common cases read no payload: TCP re-walks the data
/// offset and the options its header would carry, and UDP has nothing
/// left to check. ICMP and encapsulated bodies, oversized packets (total
/// length beyond the 16-bit field), and TCP headers past the 60-byte
/// data-offset limit take the encode-and-verify path so the verdict stays
/// byte-identical to the wire codec's in every case.
pub fn verify_packet(pkt: &Packet) -> Result<(), WireError> {
    if pkt.wire_len() > u16::MAX as usize {
        return verify(&encode(pkt));
    }
    match &pkt.body {
        IpPayload::Tcp(seg) if seg.header_len() <= 60 => verify_packet_tcp(seg),
        IpPayload::Udp(_) => Ok(()),
        _ => verify(&encode(pkt)),
    }
}

/// The data offset and options of `seg` as the encoder lays them out,
/// through [`verify_tcp`]'s structural checks.
fn verify_packet_tcp(seg: &TcpSegment) -> Result<(), WireError> {
    let header_len = seg.header_len();
    let mut hdr = [0u8; 60];
    hdr[12] = ((header_len / 4) as u8) << 4;
    // Option padding past the options is already zero.
    let mut o = 20;
    for opt in &seg.options {
        match opt {
            TcpOption::Mss(mss) => {
                hdr[o] = 2;
                hdr[o + 1] = 4;
                hdr[o + 2..o + 4].copy_from_slice(&mss.to_be_bytes());
                o += 4;
            }
        }
    }
    verify_tcp_options(&hdr, header_len + seg.payload.len())
}

fn verify_tcp(src: Ipv4Addr, dst: Ipv4Addr, bytes: &[u8]) -> Result<(), WireError> {
    if bytes.len() < 20 {
        return Err(WireError::Truncated("tcp header"));
    }
    let mut ck = Checksum::new();
    ck.add_addr(src);
    ck.add_addr(dst);
    ck.add_u16(IpProto::Tcp.number() as u16);
    ck.add_u16(bytes.len() as u16);
    ck.add_bytes(bytes);
    if ck.finish() != 0 {
        return Err(WireError::BadChecksum("tcp segment"));
    }
    verify_tcp_options(bytes, bytes.len())
}

/// Checks the data offset of a `tcp_len`-byte segment whose header starts
/// `hdr`, and walks its options.
fn verify_tcp_options(hdr: &[u8], tcp_len: usize) -> Result<(), WireError> {
    let data_off = ((hdr[12] >> 4) as usize) * 4;
    if data_off < 20 || data_off > tcp_len {
        return Err(WireError::Truncated("tcp options"));
    }
    let mut i = 20;
    while i < data_off {
        match hdr[i] {
            0 => break,
            1 => i += 1,
            2 => {
                if i + 4 > data_off {
                    return Err(WireError::Truncated("tcp mss option"));
                }
                i += 4;
            }
            _ => {
                if i + 1 >= data_off {
                    return Err(WireError::Truncated("tcp option"));
                }
                let len = hdr[i + 1] as usize;
                if len < 2 || i + len > data_off {
                    return Err(WireError::Truncated("tcp option length"));
                }
                i += len;
            }
        }
    }
    Ok(())
}

fn verify_udp(src: Ipv4Addr, dst: Ipv4Addr, bytes: &[u8]) -> Result<(), WireError> {
    if bytes.len() < 8 {
        return Err(WireError::Truncated("udp header"));
    }
    let len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
    if len < 8 || len > bytes.len() {
        return Err(WireError::Truncated("udp length"));
    }
    let mut ck = Checksum::new();
    ck.add_addr(src);
    ck.add_addr(dst);
    ck.add_u16(IpProto::Udp.number() as u16);
    ck.add_u16(len as u16);
    ck.add_bytes(&bytes[..len]);
    if ck.finish() != 0 {
        return Err(WireError::BadChecksum("udp datagram"));
    }
    Ok(())
}

fn verify_icmp(bytes: &[u8]) -> Result<(), WireError> {
    if bytes.len() < 8 {
        return Err(WireError::Truncated("icmp header"));
    }
    if internet_checksum(bytes) != 0 {
        return Err(WireError::BadChecksum("icmp message"));
    }
    match bytes[0] {
        0 | 8 | 9 | 10 | 3 => Ok(()),
        _ => Err(WireError::Unsupported("icmp type")),
    }
}

fn decode_tcp(ip: &Ipv4Header, bytes: &[u8]) -> Result<TcpSegment, WireError> {
    if bytes.len() < 20 {
        return Err(WireError::Truncated("tcp header"));
    }
    let mut ck = Checksum::new();
    ck.add_addr(ip.src);
    ck.add_addr(ip.dst);
    ck.add_u16(IpProto::Tcp.number() as u16);
    ck.add_u16(bytes.len() as u16);
    ck.add_bytes(bytes);
    if ck.finish() != 0 {
        return Err(WireError::BadChecksum("tcp segment"));
    }
    let data_off = ((bytes[12] >> 4) as usize) * 4;
    if data_off < 20 || data_off > bytes.len() {
        return Err(WireError::Truncated("tcp options"));
    }
    let mut options = Vec::new();
    let mut i = 20;
    while i < data_off {
        match bytes[i] {
            0 => break,
            1 => i += 1,
            2 => {
                if i + 4 > data_off {
                    return Err(WireError::Truncated("tcp mss option"));
                }
                options.push(TcpOption::Mss(u16::from_be_bytes([
                    bytes[i + 2],
                    bytes[i + 3],
                ])));
                i += 4;
            }
            _ => {
                // Skip unknown options by their length byte.
                if i + 1 >= data_off {
                    return Err(WireError::Truncated("tcp option"));
                }
                let len = bytes[i + 1] as usize;
                if len < 2 || i + len > data_off {
                    return Err(WireError::Truncated("tcp option length"));
                }
                i += len;
            }
        }
    }
    Ok(TcpSegment {
        src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
        dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
        seq: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        ack: u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
        flags: TcpFlags(bytes[13] & 0x3f),
        window: u16::from_be_bytes([bytes[14], bytes[15]]),
        options,
        payload: Bytes::copy_from_slice(&bytes[data_off..]),
    })
}

fn decode_udp(ip: &Ipv4Header, bytes: &[u8]) -> Result<UdpDatagram, WireError> {
    if bytes.len() < 8 {
        return Err(WireError::Truncated("udp header"));
    }
    let len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
    if len < 8 || len > bytes.len() {
        return Err(WireError::Truncated("udp length"));
    }
    let mut ck = Checksum::new();
    ck.add_addr(ip.src);
    ck.add_addr(ip.dst);
    ck.add_u16(IpProto::Udp.number() as u16);
    ck.add_u16(len as u16);
    ck.add_bytes(&bytes[..len]);
    if ck.finish() != 0 {
        return Err(WireError::BadChecksum("udp datagram"));
    }
    Ok(UdpDatagram {
        src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
        dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
        payload: Bytes::copy_from_slice(&bytes[8..len]),
    })
}

fn decode_icmp(bytes: &[u8]) -> Result<IcmpMessage, WireError> {
    if bytes.len() < 8 {
        return Err(WireError::Truncated("icmp header"));
    }
    if internet_checksum(bytes) != 0 {
        return Err(WireError::BadChecksum("icmp message"));
    }
    let ty = bytes[0];
    let code = bytes[1];
    match ty {
        0 | 8 => {
            let id = u16::from_be_bytes([bytes[4], bytes[5]]);
            let seq = u16::from_be_bytes([bytes[6], bytes[7]]);
            let payload = Bytes::copy_from_slice(&bytes[8..]);
            Ok(if ty == 8 {
                IcmpMessage::EchoRequest { id, seq, payload }
            } else {
                IcmpMessage::EchoReply { id, seq, payload }
            })
        }
        9 => {
            let count = bytes[4] as usize;
            let lifetime = u16::from_be_bytes([bytes[6], bytes[7]]);
            let mut addrs = Vec::with_capacity(count);
            let mut i = 8;
            for _ in 0..count {
                if i + 8 > bytes.len() {
                    return Err(WireError::Truncated("router advertisement entries"));
                }
                addrs.push(Ipv4Addr(u32::from_be_bytes([
                    bytes[i],
                    bytes[i + 1],
                    bytes[i + 2],
                    bytes[i + 3],
                ])));
                i += 8;
            }
            let agent = if i + 12 <= bytes.len() && bytes[i] == 16 {
                let sequence = u16::from_be_bytes([bytes[i + 2], bytes[i + 3]]);
                let registration_lifetime = u16::from_be_bytes([bytes[i + 4], bytes[i + 5]]);
                let flags = bytes[i + 6];
                let care_of = Ipv4Addr(u32::from_be_bytes([
                    bytes[i + 8],
                    bytes[i + 9],
                    bytes[i + 10],
                    bytes[i + 11],
                ]));
                Some(AgentAdvertisement {
                    sequence,
                    registration_lifetime,
                    care_of,
                    home_agent: flags & 0x20 != 0,
                    foreign_agent: flags & 0x10 != 0,
                })
            } else {
                None
            };
            Ok(IcmpMessage::RouterAdvertisement {
                addrs,
                lifetime,
                agent,
            })
        }
        10 => Ok(IcmpMessage::RouterSolicitation),
        3 => Ok(IcmpMessage::Unreachable { code }),
        _ => Err(WireError::Unsupported("icmp type")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TcpFlags;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(11, 11, 10, last)
    }

    fn roundtrip(pkt: &Packet) {
        let bytes = encode(pkt);
        assert_eq!(
            bytes.len(),
            pkt.wire_len(),
            "wire_len mismatch for {}",
            pkt.summary()
        );
        verify(&bytes).expect("verify");
        let decoded = decode(&bytes).expect("decode");
        assert_eq!(&decoded, pkt);
    }

    #[test]
    fn verify_agrees_with_decode_on_corruption() {
        let mut seg = TcpSegment::new(7, 1169, 9, 4, TcpFlags::ACK | TcpFlags::PSH);
        seg.payload = Bytes::from(vec![0x5au8; 600]);
        let good = encode(&Packet::tcp(addr(99), addr(10), seg));
        assert_eq!(verify(&good), Ok(()));
        // Flip every byte in turn: verify must reject exactly when decode
        // does (a checksum or structural failure somewhere).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xff;
            assert_eq!(
                verify(&bad).is_ok(),
                decode(&bad).is_ok(),
                "verify/decode disagree at corrupted byte {i}"
            );
        }
        assert!(verify(&good[..15]).is_err());
    }

    /// A typed packet for the `verify_packet` property, and whether it is
    /// a UDP datagram built so its computed checksum is zero.
    #[derive(Debug)]
    struct Typed {
        pkt: Packet,
        zero_sum_udp: bool,
    }

    /// A payload length: mostly segment-sized, sometimes within a few bytes
    /// either side of the one that makes a `headers`-byte packet total
    /// 65,535 bytes.
    fn payload_len(rng: &mut comma_rt::SmallRng, headers: usize) -> usize {
        use comma_rt::Rng;
        match rng.gen_range(0u32..4) {
            0 => (u16::MAX as usize - headers).saturating_add_signed(rng.gen_range(-3isize..4)),
            _ => rng.gen_range(0..1_500),
        }
    }

    fn random_typed(rng: &mut comma_rt::SmallRng) -> Typed {
        use comma_rt::prop::gen;
        use comma_rt::Rng;
        let (src, dst) = (Ipv4Addr(rng.gen()), Ipv4Addr(rng.gen()));
        let (sport, dport) = (rng.gen(), rng.gen());
        let udp = |payload: Vec<u8>| {
            let dgram = UdpDatagram {
                src_port: sport,
                dst_port: dport,
                payload: Bytes::from(payload),
            };
            Packet::udp(src, dst, dgram)
        };
        match rng.gen_range(0u32..10) {
            // Up to 12 MSS options: past 10, the header outgrows the
            // 60 bytes its data offset can say.
            0..=4 => {
                let mut seg = TcpSegment::new(sport, dport, rng.gen(), rng.gen(), TcpFlags(rng.gen()));
                seg.window = rng.gen();
                let options = if rng.gen_bool(0.5) { rng.gen_range(0..13) } else { 0 };
                seg.options = (0..options).map(|_| TcpOption::Mss(rng.gen())).collect();
                let len = payload_len(rng, 20 + seg.header_len());
                seg.payload = Bytes::from(gen::bytes(rng, len..len));
                Typed {
                    pkt: Packet::tcp(src, dst, seg),
                    zero_sum_udp: false,
                }
            }
            5 | 6 => {
                let len = payload_len(rng, 28);
                Typed {
                    pkt: udp(gen::bytes(rng, len..len)),
                    zero_sum_udp: false,
                }
            }
            // An even payload whose last word cancels the rest of the sum,
            // so the encoder sends its all-ones stand-in for zero.
            7 | 8 => {
                let n = rng.gen_range(1..700) * 2;
                let mut payload = gen::bytes(rng, n..n);
                payload[n - 2..].fill(0);
                let mut ck = Checksum::new();
                ck.add_addr(src);
                ck.add_addr(dst);
                ck.add_u16(IpProto::Udp.number() as u16);
                ck.add_u16(8 + n as u16);
                for word in [sport, dport, 8 + n as u16] {
                    ck.add_u16(word);
                }
                ck.add_bytes(&payload);
                payload[n - 2..].copy_from_slice(&ck.finish().to_be_bytes());
                Typed {
                    pkt: udp(payload),
                    zero_sum_udp: true,
                }
            }
            _ => {
                let echo = IcmpMessage::EchoRequest {
                    id: rng.gen(),
                    seq: rng.gen(),
                    payload: Bytes::from(gen::bytes(rng, 0..64)),
                };
                let pkt = Packet::icmp(src, dst, echo);
                Typed {
                    pkt: match rng.gen_bool(0.5) {
                        true => Packet::encap(dst, src, pkt),
                        false => pkt,
                    },
                    zero_sum_udp: false,
                }
            }
        }
    }

    /// `verify_packet` reads no payload for TCP and UDP, yet its verdict
    /// equals `verify(&encode(p))` for random packets: totals up to and
    /// past 65,535 bytes, TCP options up to and past 40 bytes, and UDP
    /// datagrams whose computed checksum is zero.
    #[test]
    fn verify_packet_agrees_with_encode_verify() {
        use comma_rt::ensure_eq;
        use comma_rt::prop::Runner;

        Runner::new("verify_packet_agrees_with_encode_verify").cases(300).run(
            random_typed,
            |t| {
                let wire = encode(&t.pkt);
                ensure_eq!(verify_packet(&t.pkt), verify(&wire), "{}", t.pkt.summary());
                if t.zero_sum_udp {
                    ensure_eq!(wire[26..28], [0xff, 0xff], "all-ones checksum");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn tcp_roundtrip_with_options_and_payload() {
        let mut seg = TcpSegment::new(7, 1169, 0x01020304, 0x0a0b0c0d, TcpFlags::SYN);
        seg.window = 8760;
        seg.options.push(TcpOption::Mss(536));
        roundtrip(&Packet::tcp(addr(99), addr(10), seg.clone()));
        seg.flags = TcpFlags::ACK | TcpFlags::PSH;
        seg.options.clear();
        seg.payload = Bytes::from(vec![0xaa; 1000]);
        roundtrip(&Packet::tcp(addr(99), addr(10), seg));
    }

    #[test]
    fn udp_and_icmp_roundtrip() {
        roundtrip(&Packet::udp(
            addr(1),
            addr(2),
            UdpDatagram {
                src_port: 9000,
                dst_port: 9001,
                payload: Bytes::from_static(b"eem"),
            },
        ));
        roundtrip(&Packet::icmp(
            addr(1),
            addr(2),
            IcmpMessage::EchoRequest {
                id: 3,
                seq: 4,
                payload: Bytes::from_static(b"ping"),
            },
        ));
        roundtrip(&Packet::icmp(
            addr(1),
            addr(2),
            IcmpMessage::RouterSolicitation,
        ));
        roundtrip(&Packet::icmp(
            addr(1),
            addr(2),
            IcmpMessage::Unreachable { code: 1 },
        ));
    }

    #[test]
    fn agent_advertisement_roundtrip() {
        roundtrip(&Packet::icmp(
            addr(1),
            Ipv4Addr::BROADCAST,
            IcmpMessage::RouterAdvertisement {
                addrs: vec![addr(1)],
                lifetime: 1800,
                agent: Some(AgentAdvertisement {
                    sequence: 42,
                    registration_lifetime: 300,
                    care_of: addr(1),
                    home_agent: false,
                    foreign_agent: true,
                }),
            },
        ));
    }

    #[test]
    fn encap_roundtrip() {
        let inner = Packet::udp(
            addr(5),
            addr(6),
            UdpDatagram {
                src_port: 1,
                dst_port: 2,
                payload: Bytes::from_static(b"x"),
            },
        );
        roundtrip(&Packet::encap(addr(3), addr(4), inner));
    }

    #[test]
    fn corruption_detected() {
        let seg = TcpSegment::new(1, 2, 3, 4, TcpFlags::ACK);
        let mut bytes = encode(&Packet::tcp(addr(1), addr(2), seg));
        // Corrupt a payload-side byte: TCP checksum must fail.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(decode(&bytes), Err(WireError::BadChecksum(_))));
        // Corrupt the IP header: IP checksum must fail.
        let seg = TcpSegment::new(1, 2, 3, 4, TcpFlags::ACK);
        let mut bytes = encode(&Packet::tcp(addr(1), addr(2), seg));
        bytes[8] ^= 0x01;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn truncation_detected() {
        let seg = TcpSegment::new(1, 2, 3, 4, TcpFlags::ACK);
        let bytes = encode(&Packet::tcp(addr(1), addr(2), seg));
        assert!(decode(&bytes[..10]).is_err());
    }
}
