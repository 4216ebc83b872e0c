//! The base filters of the Fig 5.3 session: `tcp` (housekeeping),
//! `launcher`, and `rdrop`.

use std::any::Any;

use comma_netsim::packet::Packet;
use comma_netsim::wire;
use comma_proxy::filter::{Capabilities, Filter, FilterCtx, Priority, Verdict};
use comma_proxy::key::{StreamKey, WildKey};
use comma_rt::Rng;

/// The `tcp` housekeeping filter (HIGH priority in the thesis session): it
/// watches TCP streams, re-validates the wire encoding after all other
/// filters have modified the packet, and deletes all filters associated
/// with a stream when the stream closes.
#[derive(Clone)]
pub struct TcpHousekeeping {
    key: Option<StreamKey>,
    fin_down: bool,
    fin_up: bool,
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
            fin_down: false,
            fin_up: false,
            verified: 0,
            corrupt: 0,
        }
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
                if Some(key) == self.key {
                    self.fin_down = true;
                } else {
                    self.fin_up = true;
                }
            }
            if seg.flags.rst() || (self.fin_down && self.fin_up && seg.flags.ack()) {
                // Stream fully closing: tear down its filters (the final
                // ACK of the second FIN, or a reset).
                if let Some(k) = self.key {
                    ctx.stream_closed(k);
                }
            }
        }
        Verdict::Continue
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_filter(&self) -> Option<Box<dyn Filter>> {
        Some(Box::new(self.clone()))
    }

    fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        StreamKey::digest_option(self.key, h);
        h.update_u64(self.fin_down as u64);
        h.update_u64(self.fin_up as u64);
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

    fn as_any(&mut self) -> &mut dyn Any {
        self
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

    fn as_any(&mut self) -> &mut dyn Any {
        self
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
    fn housekeeping_verifies_and_detects_close() {
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

        // FIN both ways then final ACK triggers stream teardown.
        let mut fin_down = pkt(TcpFlags::FIN | TcpFlags::ACK);
        f.on_out(&mut ctx, key, &mut fin_down);
        let mut fin_up = pkt(TcpFlags::FIN | TcpFlags::ACK);
        f.on_out(&mut ctx, key.reverse(), &mut fin_up);
        let mut last_ack = pkt(TcpFlags::ACK);
        f.on_out(&mut ctx, key, &mut last_ack);
        let closed = ctx.take_closed_streams();
        assert!(closed.contains(&key));
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
