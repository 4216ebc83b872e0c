//! The `snoop` filter (§8.2.1, after Balakrishnan et al.): a TCP-aware
//! cache at the base station that retransmits lost segments locally and
//! suppresses the duplicate ACKs that would otherwise trigger the sender's
//! congestion response.

use std::any::Any;
use std::collections::BTreeMap;

use comma_netsim::packet::{Packet, TcpFlags};
use comma_netsim::time::{SimDuration, SimTime};
use comma_proxy::filter::{Capabilities, Filter, FilterCtx, Priority, Verdict};
use comma_proxy::key::StreamKey;
use comma_tcp::seq::seq_lt;

/// Snoop counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnoopStats {
    /// Segments cached.
    pub cached: u64,
    /// Local retransmissions (dup-ACK triggered).
    pub local_retx: u64,
    /// Local retransmissions (timeout triggered).
    pub timeout_retx: u64,
    /// Duplicate ACKs suppressed.
    pub dupacks_suppressed: u64,
}

#[derive(Clone)]
struct CachedSeg {
    pkt: Packet,
    sent_at: SimTime,
    retx: u32,
}

/// The snoop filter.
#[derive(Clone)]
pub struct Snoop {
    down_key: Option<StreamKey>,
    base: Option<u32>,
    /// Cache keyed by the segment's offset from the ISN (monotonic across
    /// sequence wraparound).
    cache: BTreeMap<u64, CachedSeg>,
    /// Running wire-byte total of `cache` (kept in sync at every insert,
    /// remove, and clear so the per-packet admission check is O(1)).
    cached_bytes: usize,
    last_ack: Option<u32>,
    last_win: Option<u16>,
    dup_count: u32,
    srtt_us: f64,
    last_local_retx_at: Option<SimTime>,
    /// Instant of `insert`: origin of the tick grid. Ticks fire only at
    /// `grid_origin + k·TICK`, whenever they are armed.
    grid_origin: SimTime,
    /// A tick is pending on the proxy's timer facility.
    tick_armed: bool,
    /// Upper clamp on the local RTO (ablation knob; default 200 ms).
    pub max_local_rto: SimDuration,
    /// Fault-injection hook for the conformance harness: when set, the
    /// filter acknowledges cached downlink data toward the sender on the
    /// mobile's behalf — the split-connection behavior (I-TCP) that snoop
    /// exists to avoid. Never set outside mutation tests.
    pub mutate_fabricate_acks: bool,
    /// Counters.
    pub stats: SnoopStats,
}

const TIMER_TOKEN: u64 = 7;
const TICK: SimDuration = SimDuration::from_millis(50);
/// Cap on cached bytes (a base station has finite buffer).
const CACHE_LIMIT_BYTES: usize = 256 * 1024;

impl Snoop {
    /// Creates the filter.
    pub fn new() -> Self {
        Snoop {
            down_key: None,
            base: None,
            cache: BTreeMap::new(),
            cached_bytes: 0,
            last_ack: None,
            last_win: None,
            dup_count: 0,
            srtt_us: 20_000.0,
            last_local_retx_at: None,
            grid_origin: SimTime::ZERO,
            tick_armed: false,
            max_local_rto: SimDuration::from_millis(200),
            mutate_fabricate_acks: false,
            stats: SnoopStats::default(),
        }
    }

    /// Overrides the local-RTO ceiling (used by the ablation study).
    pub fn with_max_local_rto(mut self, max: SimDuration) -> Self {
        self.max_local_rto = max;
        self
    }

    /// Smoothed wireless-hop round-trip estimate in microseconds (the
    /// local RTO is twice this, clamped).
    pub fn srtt_us(&self) -> f64 {
        self.srtt_us
    }

    fn rel(&self, seq: u32) -> u64 {
        seq.wrapping_sub(self.base.unwrap_or(seq)) as u64
    }

    fn local_rto(&self) -> SimDuration {
        // The wireless hop is one link: clamp the local RTO to a tight
        // range so delayed-ACK-inflated samples cannot push recovery out
        // to sender-RTO timescales.
        SimDuration::from_micros((self.srtt_us * 2.0) as u64)
            .max(SimDuration::from_millis(20))
            .min(self.max_local_rto)
    }

    fn cache_bytes(&self) -> usize {
        debug_assert_eq!(
            self.cached_bytes,
            self.cache.values().map(|c| c.pkt.wire_len()).sum::<usize>()
        );
        self.cached_bytes
    }

    /// Arms the tick for the next grid point strictly after `now`, unless
    /// one is already pending. Called only while the cache holds a segment
    /// the tick could retransmit, so a flow with nothing cached schedules
    /// no events. Skipping a grid point equal to `now` loses nothing: a
    /// segment cached in this microsecond has age 0, below the 20 ms floor
    /// of [`Snoop::local_rto`].
    fn arm_tick(&mut self, ctx: &mut FilterCtx<'_>) {
        if self.tick_armed {
            return;
        }
        let phase = ctx.now.saturating_since(self.grid_origin).as_micros() % TICK.as_micros();
        ctx.set_timer(SimDuration::from_micros(TICK.as_micros() - phase), TIMER_TOKEN);
        self.tick_armed = true;
    }
}

impl Default for Snoop {
    fn default() -> Self {
        Snoop::new()
    }
}

impl Filter for Snoop {
    fn kind(&self) -> &'static str {
        "snoop"
    }

    fn priority(&self) -> Priority {
        Priority::High
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::DROP.with(Capabilities::INJECT)
    }

    fn insert(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey) -> Vec<StreamKey> {
        self.down_key = Some(key);
        self.grid_origin = ctx.now;
        vec![key, key.reverse()]
    }

    fn on_out(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey, pkt: &mut Packet) -> Verdict {
        let down = Some(key) == self.down_key;
        let Some(seg) = pkt.as_tcp() else {
            return Verdict::Continue;
        };
        if down {
            if seg.flags.syn() {
                self.base = Some(seg.seq.wrapping_add(1));
                return Verdict::Continue;
            }
            if seg.flags.rst() {
                self.cache.clear();
                self.cached_bytes = 0;
                return Verdict::Continue;
            }
            if !seg.payload.is_empty() {
                if self.base.is_none() {
                    self.base = Some(seg.seq);
                }
                if self.mutate_fabricate_acks {
                    // Split-connection mutant: acknowledge the data here,
                    // spoofing the mobile, before it ever crosses the
                    // wireless link.
                    let fab_ack = seg.seq.wrapping_add(seg.payload.len() as u32);
                    let mut fab = comma_netsim::packet::TcpSegment::new(
                        seg.dst_port,
                        seg.src_port,
                        seg.ack,
                        fab_ack,
                        TcpFlags::ACK,
                    );
                    fab.window = self.last_win.unwrap_or(u16::MAX);
                    ctx.inject(Packet::tcp(pkt.ip.dst, pkt.ip.src, fab));
                }
                if self.cache_bytes() + pkt.wire_len() <= CACHE_LIMIT_BYTES {
                    let rel = self.rel(seg.seq);
                    self.stats.cached += 1;
                    self.cached_bytes += pkt.wire_len();
                    if let Some(old) = self.cache.insert(
                        rel,
                        CachedSeg {
                            pkt: pkt.clone(),
                            sent_at: ctx.now,
                            retx: 0,
                        },
                    ) {
                        // Retransmission replaced an existing entry.
                        self.cached_bytes -= old.pkt.wire_len();
                    }
                    self.arm_tick(ctx);
                }
            }
            return Verdict::Continue;
        }

        // Uplink: ACK processing.
        if !seg.flags.ack() || self.base.is_none() {
            return Verdict::Continue;
        }
        let ack = seg.ack;
        let ack_rel = self.rel(ack);

        // Clean acknowledged segments and take an RTT sample from the
        // newest fully covered one.
        let covered: Vec<u64> = self
            .cache
            .range(..ack_rel)
            .filter(|(&rel, c)| {
                let seg_len = c.pkt.as_tcp().map(|s| s.payload.len()).unwrap_or(0) as u64;
                rel + seg_len <= ack_rel
            })
            .map(|(&rel, _)| rel)
            .collect();
        for rel in covered {
            if let Some(c) = self.cache.remove(&rel) {
                self.cached_bytes -= c.pkt.wire_len();
                if c.retx == 0 {
                    let sample = ctx.now.saturating_since(c.sent_at).as_micros() as f64;
                    self.srtt_us = 0.875 * self.srtt_us + 0.125 * sample;
                }
            }
        }

        let is_new_ack = match self.last_ack {
            None => true,
            Some(last) => seq_lt(last, ack),
        };
        // A true duplicate repeats both the ACK number and the advertised
        // window; a changed window is a window update the sender must see.
        let same_window = self.last_win == Some(seg.window);
        if is_new_ack || !same_window {
            self.last_ack = Some(ack);
            self.last_win = Some(seg.window);
            if is_new_ack {
                self.dup_count = 0;
            }
            if is_new_ack || !same_window {
                // Forward new ACKs and window updates untouched; fall
                // through only for true duplicates.
            }
            if is_new_ack {
                return Verdict::Continue;
            }
            if !same_window {
                return Verdict::Continue;
            }
        }

        // Duplicate ACK with cached data beyond it: handle locally.
        let has_hole_data = seg.payload.is_empty() && self.cache.range(ack_rel..).next().is_some();
        if self.last_ack == Some(ack) && has_hole_data {
            self.dup_count += 1;
            // Retransmit the missing segment at most once per local RTO.
            let may_retx = self
                .last_local_retx_at
                .map(|t| ctx.now.saturating_since(t) >= self.local_rto())
                .unwrap_or(true);
            if may_retx {
                if let Some((_, cached)) = self.cache.range_mut(ack_rel..).next() {
                    let retx = cached.pkt.clone();
                    cached.retx += 1;
                    cached.sent_at = ctx.now;
                    self.stats.local_retx += 1;
                    self.last_local_retx_at = Some(ctx.now);
                    ctx.inject(retx);
                }
            }
            // Suppress the duplicate so the sender never sees it.
            self.stats.dupacks_suppressed += 1;
            return Verdict::Drop;
        }
        Verdict::Continue
    }

    fn on_timer(&mut self, ctx: &mut FilterCtx<'_>, token: u64) {
        if token != TIMER_TOKEN {
            return;
        }
        self.tick_armed = false;
        // Local timeout: retransmit the oldest cached segment if it has
        // waited longer than the local RTO.
        let rto = self.local_rto();
        if let Some((_, cached)) = self.cache.iter_mut().next() {
            if ctx.now.saturating_since(cached.sent_at) >= rto && cached.retx < 50 {
                cached.retx += 1;
                cached.sent_at = ctx.now;
                self.stats.timeout_retx += 1;
                ctx.inject(cached.pkt.clone());
            }
            self.arm_tick(ctx);
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_filter(&self) -> Option<Box<dyn Filter>> {
        Some(Box::new(self.clone()))
    }

    fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        StreamKey::digest_option(self.down_key, h);
        h.update_u64(self.base.map_or(u64::MAX, |b| b as u64));
        for (off, seg) in &self.cache {
            h.update_u64(*off);
            seg.pkt.state_digest(h);
            h.update_u64(seg.sent_at.as_micros());
            h.update_u64(seg.retx as u64);
        }
        h.update_u64(self.cached_bytes as u64);
        h.update_u64(self.last_ack.map_or(u64::MAX, |a| a as u64));
        h.update_u64(self.last_win.map_or(u64::MAX, |w| w as u64));
        h.update_u64(self.dup_count as u64);
        h.update_u64(self.srtt_us.to_bits());
        h.update_u64(self.last_local_retx_at.map_or(u64::MAX, |t| t.as_micros()));
        h.update_u64(self.grid_origin.as_micros());
        h.update_u64(self.tick_armed as u64);
        h.update_u64(self.mutate_fabricate_acks as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comma_rt::Bytes;
    use comma_netsim::packet::{TcpFlags, TcpSegment};
    use comma_proxy::filter::NullMetrics;
    use comma_rt::SmallRng;
    use comma_rt::SeedableRng;

    fn data_pkt(seq: u32, len: usize) -> Packet {
        let mut seg = TcpSegment::new(7, 1169, seq, 0, TcpFlags::ACK);
        seg.payload = Bytes::from(vec![9u8; len]);
        Packet::tcp(
            "11.11.10.99".parse().unwrap(),
            "11.11.10.10".parse().unwrap(),
            seg,
        )
    }

    fn ack_pkt(ack: u32) -> Packet {
        let seg = TcpSegment::new(1169, 7, 0, ack, TcpFlags::ACK);
        Packet::tcp(
            "11.11.10.10".parse().unwrap(),
            "11.11.10.99".parse().unwrap(),
            seg,
        )
    }

    fn key() -> StreamKey {
        "11.11.10.99 7 11.11.10.10 1169".parse().unwrap()
    }

    #[test]
    fn caches_and_cleans_on_ack() {
        let mut f = Snoop::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let m = NullMetrics;
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &m);
        f.insert(&mut ctx, key());
        for i in 0..4u32 {
            let mut p = data_pkt(1000 + i * 100, 100);
            f.on_out(&mut ctx, key(), &mut p);
        }
        assert_eq!(f.stats.cached, 4);
        assert_eq!(f.cache.len(), 4);
        let mut a = ack_pkt(1200);
        assert_eq!(
            f.on_out(&mut ctx, key().reverse(), &mut a),
            Verdict::Continue
        );
        assert_eq!(f.cache.len(), 2, "two segments fully covered");
    }

    #[test]
    fn dupack_triggers_local_retx_and_suppression() {
        let mut f = Snoop::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let m = NullMetrics;
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &m);
        f.insert(&mut ctx, key());
        for i in 0..4u32 {
            let mut p = data_pkt(1000 + i * 100, 100);
            f.on_out(&mut ctx, key(), &mut p);
        }
        // First ACK establishes last_ack.
        let mut a0 = ack_pkt(1100);
        assert_eq!(
            f.on_out(&mut ctx, key().reverse(), &mut a0),
            Verdict::Continue
        );
        // Duplicates: suppressed, first one triggers a local retransmit.
        for _ in 0..3 {
            let mut dup = ack_pkt(1100);
            assert_eq!(f.on_out(&mut ctx, key().reverse(), &mut dup), Verdict::Drop);
        }
        let injected = ctx.take_injections();
        assert_eq!(f.stats.dupacks_suppressed, 3);
        assert_eq!(f.stats.local_retx, 1, "rate-limited to one per local RTO");
        assert_eq!(injected.len(), 1);
        assert_eq!(injected[0].as_tcp().unwrap().seq, 1100);
    }

    #[test]
    fn timeout_retransmits_oldest() {
        let mut f = Snoop::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let m = NullMetrics;
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &m);
        f.insert(&mut ctx, key());
        let mut p = data_pkt(1000, 100);
        f.on_out(&mut ctx, key(), &mut p);
        drop(ctx);
        // Far in the future: the local RTO has certainly expired.
        let mut ctx = FilterCtx::new(SimTime::from_secs(5), &mut rng, &m);
        f.on_timer(&mut ctx, TIMER_TOKEN);
        assert_eq!(f.stats.timeout_retx, 1);
        assert_eq!(ctx.take_injections().len(), 1);
    }

    #[test]
    fn syn_sets_base_and_rst_clears() {
        let mut f = Snoop::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let m = NullMetrics;
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &m);
        f.insert(&mut ctx, key());
        let mut syn = Packet::tcp(
            "11.11.10.99".parse().unwrap(),
            "11.11.10.10".parse().unwrap(),
            TcpSegment::new(7, 1169, 999, 0, TcpFlags::SYN),
        );
        f.on_out(&mut ctx, key(), &mut syn);
        assert_eq!(f.base, Some(1000));
        let mut p = data_pkt(1000, 50);
        f.on_out(&mut ctx, key(), &mut p);
        assert_eq!(f.cache.len(), 1);
        let mut rst = Packet::tcp(
            "11.11.10.99".parse().unwrap(),
            "11.11.10.10".parse().unwrap(),
            TcpSegment::new(7, 1169, 1000, 0, TcpFlags::RST),
        );
        f.on_out(&mut ctx, key(), &mut rst);
        assert!(f.cache.is_empty());
    }

    /// Snoop retransmits the cached bytes themselves, so two caches that
    /// differ in one payload byte under identical headers are different
    /// states.
    #[test]
    fn state_digest_sees_cached_payload_bytes() {
        let digest_after_caching = |byte: u8| {
            let mut f = Snoop::new();
            let mut rng = SmallRng::seed_from_u64(0);
            let m = NullMetrics;
            let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &m);
            f.insert(&mut ctx, key());
            let mut p = data_pkt(1000, 100);
            let mut bytes = vec![9u8; 100];
            bytes[57] = byte;
            p.as_tcp_mut().unwrap().payload = Bytes::from(bytes);
            f.on_out(&mut ctx, key(), &mut p);
            assert_eq!(f.cache.len(), 1);
            let mut h = comma_rt::digest::StateHasher::new();
            f.state_digest(&mut h);
            h.finish()
        };
        assert_eq!(digest_after_caching(9), digest_after_caching(9));
        assert_ne!(digest_after_caching(9), digest_after_caching(8));
    }
}
