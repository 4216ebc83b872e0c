//! The `snoop` filter (§8.2.1, after Balakrishnan et al.): a TCP-aware
//! cache at the base station that retransmits lost segments locally and
//! suppresses the duplicate ACKs that would otherwise trigger the sender's
//! congestion response.

use std::collections::VecDeque;

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
    /// Cached segments with their offset from the ISN (monotonic across
    /// sequence wraparound), in ascending offset order, at most one per
    /// offset. An empty cache holds no allocation, so an idle or finished
    /// flow's instance costs no cache memory.
    cache: VecDeque<(u64, CachedSeg)>,
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
            cache: VecDeque::new(),
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
            self.cache.iter().map(|(_, c)| c.pkt.wire_len()).sum::<usize>()
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
                self.cache = VecDeque::new();
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
                    let entry = (
                        rel,
                        CachedSeg {
                            pkt: pkt.clone(),
                            sent_at: ctx.now,
                            retx: 0,
                        },
                    );
                    // New data lands at the back, a re-cut retransmission
                    // in offset order; one at a cached offset replaces it.
                    match self.cache.binary_search_by_key(&rel, |&(off, _)| off) {
                        Ok(at) => {
                            let (_, old) = std::mem::replace(&mut self.cache[at], entry);
                            self.cached_bytes -= old.pkt.wire_len();
                        }
                        Err(at) => self.cache.insert(at, entry),
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

        // Clean the fully acknowledged segments, oldest first, taking an
        // RTT sample from each never-retransmitted one. A segment is
        // covered by its end, so the covered entries need not be a prefix:
        // after a re-cut retransmission a longer entry at a lower offset
        // can outlive a shorter one after it.
        let (srtt_us, cached_bytes) = (&mut self.srtt_us, &mut self.cached_bytes);
        self.cache.retain(|(rel, c)| {
            let seg_len = c.pkt.as_tcp().map_or(0, |s| s.payload.len()) as u64;
            if rel + seg_len > ack_rel {
                return true;
            }
            *cached_bytes -= c.pkt.wire_len();
            if c.retx == 0 {
                let sample = ctx.now.saturating_since(c.sent_at).as_micros() as f64;
                *srtt_us = 0.875 * *srtt_us + 0.125 * sample;
            }
            false
        });
        if self.cache.is_empty() {
            self.cache = VecDeque::new();
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

        // Duplicate ACK with cached data beyond it: handle locally. The
        // first entry at or past the ACK is what a local retransmission
        // resends.
        let hole = self.cache.partition_point(|&(rel, _)| rel < ack_rel);
        let has_hole_data = seg.payload.is_empty() && hole < self.cache.len();
        if self.last_ack == Some(ack) && has_hole_data {
            self.dup_count += 1;
            // Retransmit the missing segment at most once per local RTO.
            let may_retx = self
                .last_local_retx_at
                .map(|t| ctx.now.saturating_since(t) >= self.local_rto())
                .unwrap_or(true);
            if may_retx {
                if let Some((_, cached)) = self.cache.get_mut(hole) {
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
        if let Some((_, cached)) = self.cache.front_mut() {
            if ctx.now.saturating_since(cached.sent_at) >= rto && cached.retx < 50 {
                cached.retx += 1;
                cached.sent_at = ctx.now;
                self.stats.timeout_retx += 1;
                ctx.inject(cached.pkt.clone());
            }
            self.arm_tick(ctx);
        }
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

    /// The sorted-`VecDeque` cache against the parent's `BTreeMap` one, over
    /// random streams: new data, retransmissions re-cut at other boundaries
    /// (stale ones too), new, duplicate and stale ACKs, window updates, RSTs
    /// and ticks at random instants. Verdicts, injections, counters, the
    /// RTT estimate and the digest agree after every step.
    #[test]
    fn snoop_cache_matches_btreemap_reference() {
        use super::reference::ReferenceSnoop;
        use comma_rt::prop::Runner;
        use comma_rt::{ensure, ensure_eq, Rng};

        #[derive(Debug)]
        enum Op {
            Syn,
            /// Downlink stream bytes `[from, from + len)`.
            Data { from: u32, len: u32 },
            /// Uplink ACK of the first `upto` stream bytes.
            Ack { upto: u32, win: u16 },
            Rst,
            /// Advances the clock by `us`, then delivers a tick if `tick`.
            Advance { us: u64, tick: bool },
        }

        Runner::new("snoop_cache_matches_btreemap_reference").cases(300).run(
            |rng| {
                let isn = match rng.gen_range(0u32..3) {
                    0 => u32::MAX - rng.gen_range(0u32..5_000),
                    _ => rng.gen(),
                };
                let (mut frontier, mut acked, mut win) = (0u32, 0u32, 8_192u16);
                let mut ops = Vec::new();
                if rng.gen_bool(0.5) {
                    ops.push(Op::Syn);
                }
                for _ in 0..rng.gen_range(1usize..200) {
                    let op = match rng.gen_range(0u32..100) {
                        0..=34 => {
                            let len = rng.gen_range(1u32..1_461);
                            frontier += len;
                            Op::Data { from: frontier - len, len }
                        }
                        35..=49 if frontier > 0 => {
                            let from = rng.gen_range(acked.saturating_sub(1_000)..frontier);
                            let len = rng.gen_range(1..(frontier - from).min(1_460) + 1);
                            Op::Data { from, len }
                        }
                        50..=74 => {
                            let upto = match rng.gen_range(0u32..10) {
                                0..=4 if acked < frontier => {
                                    acked = rng.gen_range(acked + 1..frontier + 1);
                                    acked
                                }
                                5 => {
                                    win = win.wrapping_add(rng.gen_range(1u16..512));
                                    acked
                                }
                                6 => acked.saturating_sub(rng.gen_range(1u32..3_000)),
                                _ => acked,
                            };
                            Op::Ack { upto, win }
                        }
                        75..=77 => Op::Rst,
                        _ => Op::Advance {
                            us: match rng.gen_range(0u32..3) {
                                0 => rng.gen_range(0u64..1_000),
                                1 => rng.gen_range(0u64..60_000),
                                _ => rng.gen_range(0u64..400_000),
                            },
                            tick: rng.gen_bool(0.7),
                        },
                    };
                    ops.push(op);
                }
                (isn, ops)
            },
            |(isn, ops)| {
                let seq_of = |off: u32| isn.wrapping_add(1).wrapping_add(off);
                let server = "11.11.10.99".parse().unwrap();
                let mobile = "11.11.10.10".parse().unwrap();
                let down = |seq: u32, flags: TcpFlags| {
                    Packet::tcp(server, mobile, TcpSegment::new(7, 1169, seq, 0, flags))
                };
                let m = NullMetrics;
                let mut rng_a = SmallRng::seed_from_u64(0);
                let mut rng_b = rng_a.clone();
                let mut now = SimTime::from_millis(3);
                let mut got = Snoop::new();
                let mut want = ReferenceSnoop::new();
                got.insert(&mut FilterCtx::new(now, &mut rng_a, &m), key());
                want.insert(&mut FilterCtx::new(now, &mut rng_b, &m), key());
                let digest = |f: &dyn Filter| {
                    let mut h = comma_rt::digest::StateHasher::new();
                    f.state_digest(&mut h);
                    h.finish()
                };
                for (i, op) in ops.iter().enumerate() {
                    let pkt = match *op {
                        Op::Syn => Some((key(), down(*isn, TcpFlags::SYN))),
                        Op::Data { from, len } => {
                            let mut pkt = down(seq_of(from), TcpFlags::ACK);
                            let bytes = (from..from + len).map(|b| (b % 251) as u8).collect();
                            pkt.as_tcp_mut().expect("tcp").payload = bytes;
                            Some((key(), pkt))
                        }
                        Op::Ack { upto, win } => {
                            let mut seg = TcpSegment::new(1169, 7, 0, seq_of(upto), TcpFlags::ACK);
                            seg.window = win;
                            Some((key().reverse(), Packet::tcp(mobile, server, seg)))
                        }
                        Op::Rst => Some((key(), down(seq_of(0), TcpFlags::RST))),
                        Op::Advance { us, tick } => {
                            now += SimDuration::from_micros(us);
                            if tick {
                                let mut a = FilterCtx::new(now, &mut rng_a, &m);
                                let mut b = FilterCtx::new(now, &mut rng_b, &m);
                                got.on_timer(&mut a, TIMER_TOKEN);
                                want.on_timer(&mut b, TIMER_TOKEN);
                                let (ia, ib) = (a.take_injections(), b.take_injections());
                                ensure_eq!(ia, ib, "op {i} {op:?}: tick injections");
                            }
                            None
                        }
                    };
                    if let Some((k, pkt)) = pkt {
                        let (mut pa, mut pb) = (pkt.clone(), pkt);
                        let mut a = FilterCtx::new(now, &mut rng_a, &m);
                        let mut b = FilterCtx::new(now, &mut rng_b, &m);
                        let verdict = got.on_out(&mut a, k, &mut pa);
                        ensure_eq!(verdict, want.on_out(&mut b, k, &mut pb), "op {i} {op:?}");
                        ensure_eq!(pa, pb, "op {i} {op:?}: packet");
                        let (ia, ib) = (a.take_injections(), b.take_injections());
                        ensure_eq!(ia, ib, "op {i} {op:?}: injections");
                    }
                    ensure_eq!(got.stats, want.stats, "op {i} {op:?}");
                    ensure_eq!(got.srtt_us.to_bits(), want.srtt_us.to_bits(), "op {i} {op:?}");
                    ensure_eq!(got.tick_armed, want.tick_armed, "op {i} {op:?}: tick");
                    ensure_eq!(digest(&got), digest(&want), "op {i} {op:?}: digest");
                    let holds_memory = got.cache.is_empty() && got.cache.capacity() > 0;
                    ensure!(!holds_memory, "op {i}: an empty cache holds memory");
                }
                Ok(())
            },
        );
    }
}

/// `snoop` as `10cc205` shipped it, its cache a `BTreeMap` keyed by offset:
/// the model the sorted-`VecDeque` cache must agree with on every verdict,
/// injection, counter, RTT estimate and digest. The parent's code but for
/// its name, its comments, the debug-only byte-count check, and what the
/// property never uses: `with_max_local_rto`, `srtt_us()` and the
/// `mutate_fabricate_acks` branch (the flag is kept, unset, for the
/// digest).
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use comma_netsim::packet::Packet;
    use comma_netsim::time::{SimDuration, SimTime};
    use comma_proxy::filter::{Capabilities, Filter, FilterCtx, Priority, Verdict};
    use comma_proxy::key::StreamKey;
    use comma_tcp::seq::seq_lt;

    use super::{CachedSeg, SnoopStats, CACHE_LIMIT_BYTES, TICK, TIMER_TOKEN};

    pub(super) struct ReferenceSnoop {
        down_key: Option<StreamKey>,
        base: Option<u32>,
        cache: BTreeMap<u64, CachedSeg>,
        cached_bytes: usize,
        last_ack: Option<u32>,
        last_win: Option<u16>,
        dup_count: u32,
        pub(super) srtt_us: f64,
        last_local_retx_at: Option<SimTime>,
        grid_origin: SimTime,
        pub(super) tick_armed: bool,
        max_local_rto: SimDuration,
        mutate_fabricate_acks: bool,
        pub(super) stats: SnoopStats,
    }

    impl ReferenceSnoop {
        pub(super) fn new() -> Self {
            ReferenceSnoop {
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

        fn rel(&self, seq: u32) -> u64 {
            seq.wrapping_sub(self.base.unwrap_or(seq)) as u64
        }

        fn local_rto(&self) -> SimDuration {
            SimDuration::from_micros((self.srtt_us * 2.0) as u64)
                .max(SimDuration::from_millis(20))
                .min(self.max_local_rto)
        }

        fn arm_tick(&mut self, ctx: &mut FilterCtx<'_>) {
            if self.tick_armed {
                return;
            }
            let phase = ctx.now.saturating_since(self.grid_origin).as_micros() % TICK.as_micros();
            ctx.set_timer(SimDuration::from_micros(TICK.as_micros() - phase), TIMER_TOKEN);
            self.tick_armed = true;
        }
    }

    impl Filter for ReferenceSnoop {
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
                    if self.cached_bytes + pkt.wire_len() <= CACHE_LIMIT_BYTES {
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
                            self.cached_bytes -= old.pkt.wire_len();
                        }
                        self.arm_tick(ctx);
                    }
                }
                return Verdict::Continue;
            }

            if !seg.flags.ack() || self.base.is_none() {
                return Verdict::Continue;
            }
            let ack = seg.ack;
            let ack_rel = self.rel(ack);
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

            let has_hole_data =
                seg.payload.is_empty() && self.cache.range(ack_rel..).next().is_some();
            if self.last_ack == Some(ack) && has_hole_data {
                self.dup_count += 1;
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
}
