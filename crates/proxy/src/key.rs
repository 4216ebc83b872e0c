//! Stream keys and wild-card keys (§5.2).
//!
//! A key is the ordered quadruple (source address, source port,
//! destination address, destination port); streams are directional, and
//! most have an associated reverse stream. Wild-card keys leave portions
//! blank (`0.0.0.0` / port `0`) to match families of streams.

use std::fmt;
use std::str::FromStr;

use comma_netsim::addr::Ipv4Addr;
use comma_netsim::packet::{IpPayload, Packet};
use comma_rt::digest::StateHasher;

/// A fully specified, directional stream key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamKey {
    /// Source address.
    pub src: Ipv4Addr,
    /// Source port.
    pub sport: u16,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dport: u16,
}

impl StreamKey {
    /// Creates a key.
    pub fn new(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16) -> Self {
        StreamKey {
            src,
            sport,
            dst,
            dport,
        }
    }

    /// The key of the stream flowing in the opposite direction.
    pub fn reverse(self) -> StreamKey {
        StreamKey {
            src: self.dst,
            sport: self.dport,
            dst: self.src,
            dport: self.sport,
        }
    }

    /// Extracts the key of a TCP packet, if it carries one.
    pub fn of_packet(pkt: &Packet) -> Option<StreamKey> {
        match &pkt.body {
            IpPayload::Tcp(seg) => Some(StreamKey {
                src: pkt.ip.src,
                sport: seg.src_port,
                dst: pkt.ip.dst,
                dport: seg.dst_port,
            }),
            IpPayload::Udp(dgram) => Some(StreamKey {
                src: pkt.ip.src,
                sport: dgram.src_port,
                dst: pkt.ip.dst,
                dport: dgram.dst_port,
            }),
            _ => None,
        }
    }

    /// Folds the key into a state fingerprint as two words (address and
    /// port of each end; both stay below 2^48, so `u64::MAX` is free for
    /// "no key").
    pub fn state_digest(&self, h: &mut StateHasher) {
        h.update_u64((self.src.0 as u64) << 16 | self.sport as u64);
        h.update_u64((self.dst.0 as u64) << 16 | self.dport as u64);
    }

    /// [`StreamKey::state_digest`] for a filter's not-yet-bound key:
    /// `None` folds as the single word `u64::MAX`.
    pub fn digest_option(key: Option<StreamKey>, h: &mut StateHasher) {
        match key {
            None => {
                h.update_u64(u64::MAX);
            }
            Some(k) => k.state_digest(h),
        }
    }
}

impl fmt::Display for StreamKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} -> {} {}",
            self.src, self.sport, self.dst, self.dport
        )
    }
}

/// A wild-card key: `None` portions match anything (§5.2).
///
/// # Examples
///
/// ```
/// use comma_proxy::key::{StreamKey, WildKey};
///
/// // Match every stream bound for any port on the mobile host.
/// let wild: WildKey = "0.0.0.0 0 11.11.10.10 0".parse().unwrap();
/// let key: StreamKey = "11.11.10.99 7 11.11.10.10 1169".parse().unwrap();
/// assert!(wild.matches(key));
/// assert!(!wild.matches(key.reverse()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct WildKey {
    /// Source address to match, if specified.
    pub src: Option<Ipv4Addr>,
    /// Source port to match, if specified.
    pub sport: Option<u16>,
    /// Destination address to match, if specified.
    pub dst: Option<Ipv4Addr>,
    /// Destination port to match, if specified.
    pub dport: Option<u16>,
}

impl WildKey {
    /// The key matching every stream.
    pub const ANY: WildKey = WildKey {
        src: None,
        sport: None,
        dst: None,
        dport: None,
    };

    /// Creates the wild-card form of an exact key.
    pub fn exact(key: StreamKey) -> WildKey {
        WildKey {
            src: Some(key.src),
            sport: Some(key.sport),
            dst: Some(key.dst),
            dport: Some(key.dport),
        }
    }

    /// Returns `true` if every specified portion matches `key`.
    pub fn matches(self, key: StreamKey) -> bool {
        self.src.is_none_or(|a| a == key.src)
            && self.sport.is_none_or(|p| p == key.sport)
            && self.dst.is_none_or(|a| a == key.dst)
            && self.dport.is_none_or(|p| p == key.dport)
    }

    /// Returns `true` if this key has no blank portions.
    pub fn is_exact(self) -> bool {
        self.src.is_some() && self.sport.is_some() && self.dst.is_some() && self.dport.is_some()
    }

    /// Converts to an exact key if fully specified.
    pub fn to_exact(self) -> Option<StreamKey> {
        Some(StreamKey {
            src: self.src?,
            sport: self.sport?,
            dst: self.dst?,
            dport: self.dport?,
        })
    }

    /// Folds the key into a state fingerprint as four words, a blank
    /// portion as `u64::MAX` (unlike the display form, which prints a
    /// blank and an explicit zero alike).
    pub fn state_digest(&self, h: &mut StateHasher) {
        h.update_u64(self.src.map_or(u64::MAX, |a| a.0 as u64));
        h.update_u64(self.sport.map_or(u64::MAX, |p| p as u64));
        h.update_u64(self.dst.map_or(u64::MAX, |a| a.0 as u64));
        h.update_u64(self.dport.map_or(u64::MAX, |p| p as u64));
    }
}

impl From<StreamKey> for WildKey {
    fn from(key: StreamKey) -> WildKey {
        WildKey::exact(key)
    }
}

impl fmt::Display for WildKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let src = self.src.unwrap_or(Ipv4Addr::UNSPECIFIED);
        let dst = self.dst.unwrap_or(Ipv4Addr::UNSPECIFIED);
        write!(
            f,
            "{} {} -> {} {}",
            src,
            self.sport.unwrap_or(0),
            dst,
            self.dport.unwrap_or(0)
        )
    }
}

/// Error parsing a key from the SP command syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyParseError(pub String);

impl fmt::Display for KeyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid key: {}", self.0)
    }
}

impl std::error::Error for KeyParseError {}

fn parse_parts(s: &str) -> Result<(Ipv4Addr, u16, Ipv4Addr, u16), KeyParseError> {
    // Accept both "a p b q" and "a p -> b q".
    let cleaned = s.replace("->", " ");
    let parts: Vec<&str> = cleaned.split_whitespace().collect();
    if parts.len() != 4 {
        return Err(KeyParseError(s.to_string()));
    }
    let src = parts[0].parse().map_err(|_| KeyParseError(s.to_string()))?;
    let sport = parts[1].parse().map_err(|_| KeyParseError(s.to_string()))?;
    let dst = parts[2].parse().map_err(|_| KeyParseError(s.to_string()))?;
    let dport = parts[3].parse().map_err(|_| KeyParseError(s.to_string()))?;
    Ok((src, sport, dst, dport))
}

impl FromStr for StreamKey {
    type Err = KeyParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (src, sport, dst, dport) = parse_parts(s)?;
        Ok(StreamKey {
            src,
            sport,
            dst,
            dport,
        })
    }
}

impl FromStr for WildKey {
    type Err = KeyParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (src, sport, dst, dport) = parse_parts(s)?;
        Ok(WildKey {
            src: (!src.is_unspecified()).then_some(src),
            sport: (sport != 0).then_some(sport),
            dst: (!dst.is_unspecified()).then_some(dst),
            dport: (dport != 0).then_some(dport),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_thesis_format() {
        let key: StreamKey = "11.11.10.99 7 11.11.10.10 1169".parse().unwrap();
        assert_eq!(key.to_string(), "11.11.10.99 7 -> 11.11.10.10 1169");
        let wild: WildKey = "11.11.10.10 0 0.0.0.0 0".parse().unwrap();
        assert_eq!(wild.to_string(), "11.11.10.10 0 -> 0.0.0.0 0");
    }

    #[test]
    fn arrow_form_accepted() {
        let a: StreamKey = "1.2.3.4 5 -> 6.7.8.9 10".parse().unwrap();
        let b: StreamKey = "1.2.3.4 5 6.7.8.9 10".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reverse_roundtrips() {
        let key: StreamKey = "1.2.3.4 5 6.7.8.9 10".parse().unwrap();
        assert_eq!(key.reverse().reverse(), key);
        assert_ne!(key.reverse(), key);
    }

    #[test]
    fn wildcard_matching() {
        let key: StreamKey = "11.11.10.99 7 11.11.10.10 1169".parse().unwrap();
        let by_dst: WildKey = "0.0.0.0 0 11.11.10.10 0".parse().unwrap();
        let by_port: WildKey = "0.0.0.0 7 0.0.0.0 0".parse().unwrap();
        let exact = WildKey::exact(key);
        assert!(by_dst.matches(key));
        assert!(by_port.matches(key));
        assert!(exact.matches(key));
        assert!(!exact.matches(key.reverse()));
        assert!(WildKey::ANY.matches(key));
        assert!(exact.is_exact());
        assert!(!by_dst.is_exact());
        assert_eq!(exact.to_exact(), Some(key));
        assert_eq!(by_dst.to_exact(), None);
    }

    #[test]
    fn parse_errors() {
        assert!("1.2.3.4 5 6.7.8.9".parse::<StreamKey>().is_err());
        assert!("x 5 6.7.8.9 10".parse::<StreamKey>().is_err());
        assert!("1.2.3.4 99999 6.7.8.9 10".parse::<StreamKey>().is_err());
    }

    #[test]
    fn key_of_packet() {
        use comma_rt::Bytes;
        use comma_netsim::packet::{IcmpMessage, TcpFlags, TcpSegment, UdpDatagram};
        let src: Ipv4Addr = "1.1.1.1".parse().unwrap();
        let dst: Ipv4Addr = "2.2.2.2".parse().unwrap();
        let tcp = Packet::tcp(src, dst, TcpSegment::new(10, 20, 0, 0, TcpFlags::SYN));
        assert_eq!(
            StreamKey::of_packet(&tcp),
            Some(StreamKey::new(src, 10, dst, 20))
        );
        let udp = Packet::udp(
            src,
            dst,
            UdpDatagram {
                src_port: 3,
                dst_port: 4,
                payload: Bytes::new(),
            },
        );
        assert_eq!(
            StreamKey::of_packet(&udp),
            Some(StreamKey::new(src, 3, dst, 4))
        );
        let icmp = Packet::icmp(src, dst, IcmpMessage::RouterSolicitation);
        assert_eq!(StreamKey::of_packet(&icmp), None);
    }
}
