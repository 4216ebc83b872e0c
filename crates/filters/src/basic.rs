//! The base filters of the Fig 5.3 session: `tcp` (housekeeping),
//! `launcher`, and `rdrop`.


use comma_netsim::packet::Packet;
use comma_netsim::wire;
use comma_proxy::filter::{Capabilities, Filter, FilterCtx, Priority, Verdict};
use comma_proxy::key::{StreamKey, WildKey};
use comma_rt::Rng;

/// The `tcp` housekeeping filter (HIGH priority in the thesis session): it
/// watches TCP streams, re-validates the wire encoding after all other
/// filters have modified the packet, and deletes all filters associated
/// with a stream when the stream closes: on the ACK that covers the later
/// of the two FINs, or on a RST.
///
/// A FIN is recorded by the end of its sequence space (`seq + len + 1`) as
/// it is forwarded (`on_out`, which runs after every other filter), and an
/// ACK is compared with it as it arrived (`on_in`, which runs before any).
/// Both views are the ones the peer holds, so a TTSF that rewrites the
/// byte stream between them cannot put FIN and ACK in different sequence
/// spaces.
#[derive(Clone)]
pub struct TcpHousekeeping {
    key: Option<StreamKey>,
    /// Per direction (`key`, then its reverse): the end of the FIN last
    /// forwarded, and whether an ACK from the other side has covered it.
    fin_end: [Option<u32>; 2],
    fin_acked: [bool; 2],
    /// Packets whose wire encoding was verified.
    pub verified: u64,
    /// Packets that failed wire verification (should stay zero).
    pub corrupt: u64,
}

impl TcpHousekeeping {
    /// Creates the filter.
    pub fn new() -> Self {
        TcpHousekeeping {
            key: None,
            fin_end: [None; 2],
            fin_acked: [false; 2],
            verified: 0,
            corrupt: 0,
        }
    }

    /// Index of `key`'s direction: 0 for the stream's own, 1 for the reverse.
    fn dir(&self, key: StreamKey) -> usize {
        usize::from(Some(key) != self.key)
    }
}

impl Default for TcpHousekeeping {
    fn default() -> Self {
        TcpHousekeeping::new()
    }
}

impl Filter for TcpHousekeeping {
    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn priority(&self) -> Priority {
        Priority::Highest
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::READ_ONLY
    }

    fn insert(&mut self, _ctx: &mut FilterCtx<'_>, key: StreamKey) -> Vec<StreamKey> {
        self.key = Some(key);
        vec![key, key.reverse()]
    }

    fn on_in(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey, pkt: &Packet) {
        let Some(seg) = pkt.as_tcp().filter(|s| s.flags.ack()) else {
            return;
        };
        let other = 1 - self.dir(key);
        if let Some(end) = self.fin_end[other] {
            // Serial-number order (RFC 1982): `ack` at or past `end`.
            self.fin_acked[other] |= seg.ack.wrapping_sub(end) as i32 >= 0;
        }
        if self.fin_acked == [true; 2] {
            if let Some(k) = self.key {
                ctx.stream_closed(k);
            }
        }
    }

    fn on_out(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey, pkt: &mut Packet) -> Verdict {
        // Highest priority: the out method runs last, after every
        // modification. Packets here are typed, and the wire encoder
        // computes every checksum afresh (the thesis's "recalculating IP
        // checksums as necessary"), so what a modification can break is
        // structure: a total past 65,535 bytes or options past 40.
        // `wire::verify_packet` returns the encode-then-verify verdict
        // without materializing the wire buffer or reading the payload.
        match wire::verify_packet(pkt) {
            Ok(()) => self.verified += 1,
            Err(e) => {
                self.corrupt += 1;
                ctx.count("tcp.checksum_failures", 1);
                ctx.event(
                    "tcp.checksum_failure",
                    vec![("error", comma_obs::FieldValue::Str(e.to_string()))],
                );
            }
        }
        if let Some(seg) = pkt.as_tcp() {
            if seg.flags.fin() {
                let dir = self.dir(key);
                self.fin_end[dir] = Some(seg.seq.wrapping_add(seg.seq_len()));
            }
            if seg.flags.rst() {
                // A reset ends the stream at once; the orderly close waits
                // for the ACK that covers the second FIN (`on_in`).
                if let Some(k) = self.key {
                    ctx.stream_closed(k);
                }
            }
        }
        Verdict::Continue
    }

    fn clone_filter(&self) -> Option<Box<dyn Filter>> {
        Some(Box::new(self.clone()))
    }

    fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        StreamKey::digest_option(self.key, h);
        for (end, acked) in self.fin_end.iter().zip(self.fin_acked) {
            h.update_u64(end.map_or(u64::MAX, u64::from));
            h.update_u64(acked as u64);
        }
    }
}

/// The `launcher` filter: bound to a wild-card key, it attaches a list of
/// services to every new stream that matches (the thesis session uses it to
/// apply `tcp` and `wsize` to new mobile-bound streams).
#[derive(Clone)]
pub struct Launcher {
    /// Service specs: `name[:arg[:arg...]]`.
    specs: Vec<(String, Vec<String>)>,
    /// Streams launched.
    pub launched: u64,
}

impl Launcher {
    /// Parses specs of the form `name:arg1:arg2`.
    pub fn new(specs: &[String]) -> Self {
        let specs = specs
            .iter()
            .map(|s| {
                let mut it = s.split(':');
                let name = it.next().unwrap_or("").to_string();
                (name, it.map(|a| a.to_string()).collect())
            })
            .filter(|(n, _)| !n.is_empty())
            .collect();
        Launcher { specs, launched: 0 }
    }
}

impl Filter for Launcher {
    fn kind(&self) -> &'static str {
        "launcher"
    }

    fn priority(&self) -> Priority {
        Priority::Highest
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::READ_ONLY
    }

    fn insert(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey) -> Vec<StreamKey> {
        self.launched += 1;
        for (name, args) in &self.specs {
            ctx.add_service(WildKey::exact(key), name.clone(), args.clone());
        }
        ctx.event(
            "launcher.applied",
            comma_obs::fields!(services = self.specs.len(), key = key.to_string()),
        );
        vec![key]
    }

    fn clone_filter(&self) -> Option<Box<dyn Filter>> {
        Some(Box::new(self.clone()))
    }
    // state_digest: the spec list is fixed at instantiation and the count
    // is diagnostic, so the default (empty) digest is exact.
}

/// The `rdrop` filter (Fig 5.3): randomly drops packets with a given
/// percentage, emulating a lossy link at the proxy.
#[derive(Clone)]
pub struct RandomDrop {
    /// Drop probability in `[0, 1]`.
    pub rate: f64,
    /// Packets dropped.
    pub dropped: u64,
    /// Packets passed.
    pub passed: u64,
}

impl RandomDrop {
    /// Creates a dropper from a percentage argument (`"50"` = 50%).
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let pct: f64 = args
            .first()
            .ok_or_else(|| "rdrop requires a percentage argument".to_string())?
            .parse()
            .map_err(|_| "rdrop: percentage must be numeric".to_string())?;
        if !(0.0..=100.0).contains(&pct) {
            return Err("rdrop: percentage must be in 0..=100".to_string());
        }
        Ok(RandomDrop {
            rate: pct / 100.0,
            dropped: 0,
            passed: 0,
        })
    }
}

impl Filter for RandomDrop {
    fn kind(&self) -> &'static str {
        "rdrop"
    }

    fn priority(&self) -> Priority {
        Priority::Low
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::DROP
    }

    fn on_out(&mut self, ctx: &mut FilterCtx<'_>, _key: StreamKey, _pkt: &mut Packet) -> Verdict {
        if ctx.rng.gen_bool(self.rate) {
            self.dropped += 1;
            Verdict::Drop
        } else {
            self.passed += 1;
            Verdict::Continue
        }
    }

    fn clone_filter(&self) -> Option<Box<dyn Filter>> {
        Some(Box::new(self.clone()))
    }
    // state_digest: the rate is fixed and draws come from the proxy's RNG
    // (hashed by the node), so the default (empty) digest is exact.
}

#[cfg(test)]
mod tests {
    use super::*;
    use comma_netsim::packet::{TcpFlags, TcpSegment};
    use comma_netsim::time::SimTime;
    use comma_proxy::filter::NullMetrics;
    use comma_rt::SmallRng;
    use comma_rt::SeedableRng;

    fn pkt(flags: TcpFlags) -> Packet {
        Packet::tcp(
            "11.11.10.99".parse().unwrap(),
            "11.11.10.10".parse().unwrap(),
            TcpSegment::new(7, 1169, 100, 0, flags),
        )
    }

    #[test]
    fn housekeeping_verifies_every_packet() {
        let mut f = TcpHousekeeping::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let metrics = NullMetrics;
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &metrics);
        let key: StreamKey = "11.11.10.99 7 11.11.10.10 1169".parse().unwrap();
        let keys = f.insert(&mut ctx, key);
        assert_eq!(keys, vec![key, key.reverse()]);

        let mut p = pkt(TcpFlags::ACK);
        assert_eq!(f.on_out(&mut ctx, key, &mut p), Verdict::Continue);
        assert_eq!(f.verified, 1);
        assert_eq!(f.corrupt, 0);
    }

    /// The close of one stream, packet by packet, as the proxy sees it:
    /// `down` is the stream's own direction (seq space from 1,000), `up`
    /// the reverse (from 5,000).
    struct Close {
        f: TcpHousekeeping,
        key: StreamKey,
        rng: SmallRng,
    }

    impl Close {
        fn new() -> Self {
            let mut c = Close {
                f: TcpHousekeeping::new(),
                key: "11.11.10.99 7 11.11.10.10 1169".parse().unwrap(),
                rng: SmallRng::seed_from_u64(1),
            };
            let mut ctx = FilterCtx::new(SimTime::ZERO, &mut c.rng, &NullMetrics);
            c.f.insert(&mut ctx, c.key);
            c
        }

        /// Runs one packet through `on_in` then `on_out` (the tcp filter
        /// is first in and last out) and says whether it closed the stream.
        fn pass(&mut self, down: bool, seq: u32, ack: u32, flags: TcpFlags, len: usize) -> bool {
            let key = if down { self.key } else { self.key.reverse() };
            let (src, dst) = ("11.11.10.99".parse().unwrap(), "11.11.10.10".parse().unwrap());
            let (src, dst) = if down { (src, dst) } else { (dst, src) };
            let mut seg = TcpSegment::new(key.sport, key.dport, seq, ack, flags);
            seg.payload = comma_rt::Bytes::from(vec![0u8; len]);
            let mut p = Packet::tcp(src, dst, seg);
            let mut ctx = FilterCtx::new(SimTime::ZERO, &mut self.rng, &NullMetrics);
            self.f.on_in(&mut ctx, key, &p);
            self.f.on_out(&mut ctx, key, &mut p);
            let closed = ctx.take_closed_streams();
            assert!(closed.iter().all(|&k| k == self.key), "closes name the stream");
            !closed.is_empty()
        }
    }

    const FA: TcpFlags = TcpFlags::FIN.union(TcpFlags::ACK);

    #[test]
    fn a_fin_ack_does_not_close() {
        let mut c = Close::new();
        assert!(!c.pass(true, 1_000, 5_000, FA, 100), "the first FIN");
        assert!(!c.pass(false, 5_000, 1_101, FA, 0), "the second FIN acks the first");
    }

    #[test]
    fn an_ack_short_of_the_later_fin_does_not_close() {
        let mut c = Close::new();
        c.pass(true, 1_000, 5_000, FA, 100);
        c.pass(false, 5_000, 1_101, FA, 20); // the later FIN ends at 5,021
        assert!(!c.pass(true, 1_101, 5_020, TcpFlags::ACK, 0), "one short of the FIN");
        assert!(!c.pass(true, 1_101, 5_000, TcpFlags::ACK, 0), "an old ACK");
        assert!(c.pass(true, 1_101, 5_021, TcpFlags::ACK, 0), "the covering ACK");
    }

    #[test]
    fn the_covering_ack_closes_whichever_side_fins_first() {
        let mut c = Close::new();
        c.pass(false, 5_000, 1_000, FA, 0);
        assert!(!c.pass(true, 1_000, 5_001, FA, 0));
        assert!(c.pass(false, 5_001, 1_001, TcpFlags::ACK, 0), "up ACK covers the down FIN");
    }

    #[test]
    fn the_covering_ack_closes_across_the_sequence_wrap() {
        let mut c = Close::new();
        c.pass(true, u32::MAX - 10, 5_000, FA, 10); // ends at 0
        c.pass(false, 5_000, 0, FA, 0);
        assert!(c.pass(true, 0, 5_001, TcpFlags::ACK, 0));
    }

    #[test]
    fn a_rst_closes() {
        let mut c = Close::new();
        assert!(!c.pass(true, 1_000, 5_000, TcpFlags::ACK, 100));
        assert!(c.pass(false, 5_000, 0, TcpFlags::RST, 0));
    }

    #[test]
    fn rdrop_rate() {
        let mut f = RandomDrop::from_args(&["50".to_string()]).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let metrics = NullMetrics;
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &metrics);
        let key: StreamKey = "1.1.1.1 1 2.2.2.2 2".parse().unwrap();
        let mut drops = 0;
        for _ in 0..2000 {
            let mut p = pkt(TcpFlags::ACK);
            if f.on_out(&mut ctx, key, &mut p) == Verdict::Drop {
                drops += 1;
            }
        }
        assert!((drops as f64 / 2000.0 - 0.5).abs() < 0.05);
        assert_eq!(f.dropped + f.passed, 2000);
    }

    #[test]
    fn rdrop_rejects_bad_args() {
        assert!(RandomDrop::from_args(&[]).is_err());
        assert!(RandomDrop::from_args(&["abc".into()]).is_err());
        assert!(RandomDrop::from_args(&["150".into()]).is_err());
        assert!(RandomDrop::from_args(&["0".into()]).is_ok());
    }

    #[test]
    fn launcher_requests_services() {
        let mut f = Launcher::new(&["tcp".to_string(), "rdrop:50".to_string()]);
        let mut rng = SmallRng::seed_from_u64(3);
        let metrics = NullMetrics;
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &metrics);
        let key: StreamKey = "1.1.1.1 1 2.2.2.2 2".parse().unwrap();
        f.insert(&mut ctx, key);
        assert_eq!(f.launched, 1);
        // Two service requests queued, with parsed args.
        let reqs = ctx.take_service_requests();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].1, "tcp");
        assert_eq!(reqs[1].1, "rdrop");
        assert_eq!(reqs[1].2, vec!["50".to_string()]);
    }
}
