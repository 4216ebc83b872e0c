//! The TCP-Transparency-Support Filter (TTSF, §8.1, Fig 8.2).
//!
//! The TTSF lets a content service ([`StreamTransformer`]) rewrite the
//! bytes of a live TCP stream *without splitting the connection*: it keeps
//! end-to-end semantics by
//!
//! - transforming only in-order downlink payload and recording every edit
//!   in an [`EditMap`],
//! - rewriting downlink sequence numbers into the transformed space,
//! - replaying recorded output byte-exactly for retransmissions (the
//!   receiver always observes one consistent stream),
//! - translating uplink acknowledgements conservatively back into the
//!   sender's sequence space (the sender is never told about bytes the
//!   receiver has not effectively covered), and
//! - flushing the service at FIN so the stream end stays aligned.
//!
//! ACKs are only ever produced by the real receiver — the proxy never
//! fabricates acknowledgements, which is precisely the end-to-end-semantics
//! repair over split-connection proxies the thesis argues for (§5.1.2).


use comma_obs::fields;
use comma_rt::Bytes;
use comma_netsim::packet::{Packet, TcpFlags};
use comma_proxy::engine::FilterEngine;
use comma_proxy::filter::{Capabilities, Filter, FilterCtx, Priority, Verdict};
use comma_proxy::key::StreamKey;
use comma_tcp::seq::{seq_diff, seq_le, seq_lt};

use crate::editmap::EditMap;
use crate::transform::StreamTransformer;

/// Catalog kinds backed by a [`Ttsf`], whose edit map must stay
/// structurally sound (swept by the oracle finalizers and the model
/// checker's per-step invariants).
pub const TTSF_KINDS: &[&str] = &["ttsf", "compress", "decompress", "removal", "translate"];

/// Catalog kinds that rewrite payload bytes or sequence spaces, making the
/// oracle's strict end-to-end identity checks legitimately inapplicable.
pub const TRANSFORMING: &[&str] = &[
    "compress",
    "decompress",
    "removal",
    "translate",
    "rdrop",
    "hdiscard",
];

/// The edit-map sweep: every structural-invariant failure among the
/// engine's live TTSF-backed instances, each prefixed with `label`. Lazy:
/// a failure is formatted only when the caller reaches it, so a clean
/// sweep allocates nothing.
pub fn editmap_errors<'a>(engine: &'a FilterEngine, label: &'a str) -> impl Iterator<Item = String> + 'a {
    TTSF_KINDS
        .iter()
        .flat_map(move |&kind| engine.instances_ref::<Ttsf>(kind))
        .filter_map(|ttsf| ttsf.map()?.check_invariants().err())
        .map(move |e| format!("{label}: {e}"))
}

/// The filter kinds the engine has registrations for (compare against
/// [`TRANSFORMING`] to decide whether strict oracle checks apply).
pub fn registered_kinds(engine: &FilterEngine) -> Vec<String> {
    let regs = engine.registrations();
    regs.into_iter().map(|r| r.filter).collect()
}

/// TTSF counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct TtsfStats {
    /// Original downlink payload bytes consumed (first pass).
    pub in_bytes: u64,
    /// Transformed bytes emitted for new data.
    pub out_bytes: u64,
    /// Bytes re-emitted for retransmissions.
    pub replayed_bytes: u64,
    /// Out-of-order downlink segments dropped (sender retransmits).
    pub ooo_drops: u64,
    /// Uplink ACKs translated.
    pub acks_translated: u64,
    /// Edit records created.
    pub records: u64,
}

/// The TCP-Transparency-Support Filter.
pub struct Ttsf {
    service: Box<dyn StreamTransformer>,
    down_key: Option<StreamKey>,
    map: Option<EditMap>,
    fin_orig: Option<u32>,
    fin_flushed: bool,
    /// Maximum payload bytes per emitted packet.
    pub emit_cap: usize,
    /// Fault-injection hook for the conformance harness: when set, uplink
    /// acknowledgements pass through *without* edit-map translation — the
    /// exact bug a TTSF implementation would have if it forgot the inverse
    /// mapping. Never set outside mutation tests.
    pub mutate_skip_ack_translation: bool,
    /// Counters.
    pub stats: TtsfStats,
}

impl Ttsf {
    /// Creates a TTSF running `service` over the stream it is added to.
    pub fn new(service: Box<dyn StreamTransformer>) -> Self {
        Ttsf {
            service,
            down_key: None,
            map: None,
            fin_orig: None,
            fin_flushed: false,
            emit_cap: 1460,
            mutate_skip_ack_translation: false,
            stats: TtsfStats::default(),
        }
    }

    /// Net wireless bytes saved so far.
    pub fn bytes_saved(&self) -> i64 {
        self.stats.in_bytes as i64 - self.stats.out_bytes as i64
    }

    /// Read-only view of the edit map (None before the first downlink
    /// segment), for monitoring and diagnostics.
    pub fn map(&self) -> Option<&EditMap> {
        self.map.as_ref()
    }

    fn handle_downlink(&mut self, ctx: &mut FilterCtx<'_>, pkt: &mut Packet) -> Verdict {
        let Some(seg) = pkt.as_tcp_mut() else {
            return Verdict::Continue;
        };
        if seg.flags.rst() {
            return Verdict::Continue;
        }
        if seg.flags.syn() {
            self.map = Some(EditMap::new(seg.seq.wrapping_add(1)));
            if let Some(mss) = seg.mss_option() {
                self.emit_cap = self.emit_cap.min(mss as usize);
            }
            return Verdict::Continue;
        }
        if self.map.is_none() {
            // Mid-stream attachment: everything before this point is
            // identity.
            self.map = Some(EditMap::new(seg.seq));
        }
        let seq = seg.seq;
        let len = seg.payload.len() as u32;
        let has_fin = seg.flags.fin();
        let frontier = self.map.as_ref().expect("map").frontier_orig();

        if len == 0 && !has_fin {
            // Pure ACK in the downlink direction: remap the sequence field.
            seg.seq = self.map.as_ref().expect("map").map_seq(seq);
            return Verdict::Continue;
        }

        if (len > 0 || has_fin) && seq_lt(frontier, seq) {
            // A hole: an earlier downlink segment has not reached us. The
            // service is stream-stateful, so out-of-order bytes cannot be
            // transformed; drop and let the sender retransmit in order.
            self.stats.ooo_drops += 1;
            ctx.count("ttsf.ooo_drops", 1);
            ctx.event("ttsf.ooo_drop", fields!(seq = seq, frontier = frontier));
            return Verdict::Drop;
        }

        // Split the payload into a replayed prefix and a new suffix.
        let payload = seg.payload.clone();
        let seg_end = seq.wrapping_add(len);
        let mut emit_start: Option<u32> = None;
        let mut emission = Emission::One(Bytes::new());

        if len > 0 && seq_lt(seq, frontier) {
            // Retransmitted range [seq, min(seg_end, frontier)).
            let replay_end = if seq_le(seg_end, frontier) {
                seg_end
            } else {
                frontier
            };
            let map = self.map.as_ref().expect("map");
            let covering = map.covering(seq, seq_diff(replay_end, seq));
            for edit in covering {
                if emit_start.is_none() {
                    emit_start = Some(edit.new_start);
                }
                emission.push(&edit.out);
            }
            self.stats.replayed_bytes += emission.len() as u64;
        }

        if len > 0 && seq_lt(frontier, seg_end) {
            // New in-order bytes [frontier, seg_end).
            let offset = seq_diff(frontier, seq) as usize;
            let fresh = &payload[offset..];
            self.stats.in_bytes += fresh.len() as u64;
            let out = Bytes::from(self.service.transform(fresh));
            let identity = out.as_slice() == fresh;
            let map = self.map.as_mut().expect("map");
            let new_start = map.push(fresh.len() as u32, out.clone(), identity);
            self.stats.records += 1;
            self.stats.out_bytes += out.len() as u64;
            if emit_start.is_none() {
                emit_start = Some(new_start);
            }
            emission.push(&out);
        }

        if has_fin {
            let fin_orig = seg_end;
            match self.fin_orig {
                None => {
                    self.fin_orig = Some(fin_orig);
                    if !self.fin_flushed {
                        self.fin_flushed = true;
                        let tail = Bytes::from(self.service.flush());
                        if !tail.is_empty() {
                            let map = self.map.as_mut().expect("map");
                            let new_start = map.push(0, tail.clone(), false);
                            self.stats.records += 1;
                            self.stats.out_bytes += tail.len() as u64;
                            if emit_start.is_none() {
                                emit_start = Some(new_start);
                            }
                            emission.push(&tail);
                        }
                    }
                }
                Some(f) if f == fin_orig => {
                    // Retransmitted FIN; flush already happened.
                }
                Some(_) => {
                    ctx.event("ttsf.fin_mismatch", fields!(seq = fin_orig));
                }
            }
        }

        // Assemble the emission into one packet plus injected continuations.
        let map = self.map.as_ref().expect("map");
        let start = emit_start.unwrap_or_else(|| map.map_seq(seq));
        let cap = self.emit_cap.max(1);
        let emission = emission.into_bytes();
        let seg = pkt.as_tcp_mut().expect("tcp");
        if emission.len() <= cap {
            seg.seq = start;
            seg.payload = emission;
            // FIN flag stays on this (single) packet.
            Verdict::Continue
        } else {
            let fin_flags = seg.flags;
            let base_flags = TcpFlags(seg.flags.0 & !TcpFlags::FIN.0);
            seg.seq = start;
            seg.flags = base_flags;
            seg.payload = emission.slice(..cap);
            let mut offset = cap;
            let template = pkt.clone();
            let mut chunks = Vec::new();
            while offset < emission.len() {
                let end = (offset + cap).min(emission.len());
                let mut cont = template.clone();
                let cseg = cont.as_tcp_mut().expect("tcp");
                cseg.seq = start.wrapping_add(offset as u32);
                cseg.payload = emission.slice(offset..end);
                if end == emission.len() {
                    cseg.flags = fin_flags; // FIN (if any) rides the last chunk.
                }
                chunks.push(cont);
                offset = end;
            }
            for c in chunks {
                ctx.inject(c);
            }
            Verdict::Continue
        }
    }

    fn handle_uplink(&mut self, pkt: &mut Packet) -> Verdict {
        let Some(map) = self.map.as_mut() else {
            return Verdict::Continue;
        };
        let Some(seg) = pkt.as_tcp_mut() else {
            return Verdict::Continue;
        };
        if !seg.flags.ack() {
            return Verdict::Continue;
        }
        if self.mutate_skip_ack_translation {
            return Verdict::Continue;
        }
        let new_ack = seg.ack;
        let orig_ack = map.inverse_ack(new_ack);
        if orig_ack != new_ack {
            self.stats.acks_translated += 1;
        }
        seg.ack = orig_ack;
        map.trim(new_ack);
        // Window translation: scale by the observed output/input ratio so
        // the sender cannot overrun the receiver through an expanding
        // service; pure shrinking services keep the window (conservative).
        if !self.service.is_identity() && self.stats.in_bytes > 0 {
            let ratio = self.stats.out_bytes as f64 / self.stats.in_bytes as f64;
            if ratio > 1.0 {
                let scaled = (seg.window as f64 / ratio * 0.9) as u16;
                seg.window = scaled.max(1);
            }
        }
        Verdict::Continue
    }
}

/// The payload one downlink packet carries, assembled in stream order from
/// edit-map records. While it is one record it *is* that record's buffer,
/// shared with the map rather than copied; a second record makes it a copy.
enum Emission {
    One(Bytes),
    Many(Vec<u8>),
}

impl Emission {
    fn push(&mut self, part: &Bytes) {
        match self {
            Emission::One(first) if first.is_empty() => *first = part.clone(),
            Emission::One(first) if !part.is_empty() => {
                *self = Emission::Many([first.as_slice(), part].concat());
            }
            Emission::One(_) => {}
            Emission::Many(bytes) => bytes.extend_from_slice(part),
        }
    }

    fn len(&self) -> usize {
        match self {
            Emission::One(bytes) => bytes.len(),
            Emission::Many(bytes) => bytes.len(),
        }
    }

    fn into_bytes(self) -> Bytes {
        match self {
            Emission::One(bytes) => bytes,
            Emission::Many(bytes) => Bytes::from(bytes),
        }
    }
}

impl Filter for Ttsf {
    fn kind(&self) -> &'static str {
        "ttsf"
    }

    fn priority(&self) -> Priority {
        Priority::Normal
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::MODIFY_HEADERS
            .with(Capabilities::MODIFY_PAYLOAD)
            .with(Capabilities::DROP)
            .with(Capabilities::INJECT)
    }

    fn insert(&mut self, _ctx: &mut FilterCtx<'_>, key: StreamKey) -> Vec<StreamKey> {
        self.down_key = Some(key);
        vec![key, key.reverse()]
    }

    fn on_out(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey, pkt: &mut Packet) -> Verdict {
        let v = if Some(key) == self.down_key {
            let records_before = self.stats.records;
            let v = self.handle_downlink(ctx, pkt);
            if self.stats.records > records_before {
                ctx.count("ttsf.translations", self.stats.records - records_before);
            }
            v
        } else {
            let acks_before = self.stats.acks_translated;
            let v = self.handle_uplink(pkt);
            if self.stats.acks_translated > acks_before {
                ctx.count(
                    "ttsf.acks_translated",
                    self.stats.acks_translated - acks_before,
                );
            }
            v
        };
        // Edit-map occupancy after every serviced packet: how much state the
        // transparency mechanism is holding for this stream.
        if let Some(map) = self.map.as_ref() {
            ctx.gauge("ttsf.editmap_records", map.len() as f64);
            ctx.gauge("ttsf.editmap_bytes", map.stored_bytes() as f64);
        }
        v
    }

    fn can_clone(&self) -> bool {
        self.service.can_clone()
    }

    fn clone_filter(&self) -> Option<Box<dyn Filter>> {
        Some(Box::new(Ttsf {
            service: self.service.clone_transformer()?,
            down_key: self.down_key,
            map: self.map.clone(),
            fin_orig: self.fin_orig,
            fin_flushed: self.fin_flushed,
            emit_cap: self.emit_cap,
            mutate_skip_ack_translation: self.mutate_skip_ack_translation,
            stats: self.stats,
        }))
    }

    fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        StreamKey::digest_option(self.down_key, h);
        match &self.map {
            None => {
                h.update_u64(u64::MAX);
            }
            Some(m) => m.state_digest(h),
        }
        h.update_u64(self.fin_orig.map_or(u64::MAX, |s| s as u64));
        h.update_u64(self.fin_flushed as u64);
        h.update_u64(self.emit_cap as u64);
        h.update_u64(self.mutate_skip_ack_translation as u64);
        self.service.state_digest(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{Compressor, Identity, StreamTransformer};
    use comma_netsim::time::SimTime;
    use comma_proxy::filter::NullMetrics;
    use comma_rt::SmallRng;
    use comma_rt::SeedableRng;

    /// A toy service: halves the stream by keeping every second byte.
    struct Halver;
    impl StreamTransformer for Halver {
        fn name(&self) -> &'static str {
            "halver"
        }
        fn transform(&mut self, chunk: &[u8]) -> Vec<u8> {
            chunk.iter().copied().step_by(2).collect()
        }
    }

    fn key() -> StreamKey {
        "11.11.10.99 7 11.11.10.10 1169".parse().unwrap()
    }

    fn down_pkt(seq: u32, payload: &[u8], flags: TcpFlags) -> Packet {
        let mut seg = comma_netsim::packet::TcpSegment::new(7, 1169, seq, 0, flags);
        seg.payload = Bytes::copy_from_slice(payload);
        Packet::tcp(
            "11.11.10.99".parse().unwrap(),
            "11.11.10.10".parse().unwrap(),
            seg,
        )
    }

    fn up_ack(ack: u32, window: u16) -> Packet {
        let mut seg = comma_netsim::packet::TcpSegment::new(1169, 7, 0, ack, TcpFlags::ACK);
        seg.window = window;
        Packet::tcp(
            "11.11.10.10".parse().unwrap(),
            "11.11.10.99".parse().unwrap(),
            seg,
        )
    }

    struct Rig {
        ttsf: Ttsf,
        rng: SmallRng,
    }

    impl Rig {
        fn new(service: Box<dyn StreamTransformer>) -> Self {
            let mut ttsf = Ttsf::new(service);
            let mut rng = SmallRng::seed_from_u64(8);
            let m = NullMetrics;
            let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &m);
            let keys = ttsf.insert(&mut ctx, key());
            assert_eq!(keys.len(), 2);
            // Open with a SYN at ISS 999 so the map starts at 1000.
            let mut syn = down_pkt(999, &[], TcpFlags::SYN);
            ttsf.on_out(&mut ctx, key(), &mut syn);
            Rig { ttsf, rng }
        }

        fn send(&mut self, pkt: &mut Packet, k: StreamKey) -> (Verdict, Vec<Packet>) {
            let m = NullMetrics;
            let mut ctx = FilterCtx::new(SimTime::ZERO, &mut self.rng, &m);
            let v = self.ttsf.on_out(&mut ctx, k, pkt);
            (v, ctx.take_injections())
        }
    }

    #[test]
    fn downlink_shrinks_and_remaps() {
        let mut rig = Rig::new(Box::new(Halver));
        let mut p1 = down_pkt(1000, &[0, 1, 2, 3, 4, 5, 6, 7], TcpFlags::ACK);
        let (v, inj) = rig.send(&mut p1, key());
        assert_eq!(v, Verdict::Continue);
        assert!(inj.is_empty());
        let seg = p1.as_tcp().unwrap();
        assert_eq!(seg.seq, 1000);
        assert_eq!(&seg.payload[..], &[0, 2, 4, 6]);
        // Next segment starts at the shifted position.
        let mut p2 = down_pkt(1008, &[8, 9, 10, 11], TcpFlags::ACK);
        rig.send(&mut p2, key());
        assert_eq!(p2.as_tcp().unwrap().seq, 1004);
        assert_eq!(&p2.as_tcp().unwrap().payload[..], &[8, 10]);
        assert_eq!(rig.ttsf.stats.in_bytes, 12);
        assert_eq!(rig.ttsf.stats.out_bytes, 6);
        assert_eq!(rig.ttsf.bytes_saved(), 6);
    }

    #[test]
    fn retransmission_replays_identically() {
        let mut rig = Rig::new(Box::new(Halver));
        let mut p1 = down_pkt(1000, &[0, 1, 2, 3, 4, 5, 6, 7], TcpFlags::ACK);
        rig.send(&mut p1, key());
        let first = p1.as_tcp().unwrap().payload.clone();
        // The sender retransmits the same original range.
        let mut retx = down_pkt(1000, &[0, 1, 2, 3, 4, 5, 6, 7], TcpFlags::ACK);
        let (v, _) = rig.send(&mut retx, key());
        assert_eq!(v, Verdict::Continue);
        assert_eq!(retx.as_tcp().unwrap().seq, 1000);
        assert_eq!(retx.as_tcp().unwrap().payload, first, "byte-exact replay");
        assert_eq!(rig.ttsf.stats.replayed_bytes, first.len() as u64);
        // The service saw the bytes only once.
        assert_eq!(rig.ttsf.stats.in_bytes, 8);
    }

    #[test]
    fn emission_shares_one_record_and_copies_several() {
        let mut rig = Rig::new(Box::new(Halver));
        let mut p1 = down_pkt(1000, &[0, 1, 2, 3], TcpFlags::ACK);
        let mut p2 = down_pkt(1004, &[4, 5, 6, 7], TcpFlags::ACK);
        rig.send(&mut p1, key());
        rig.send(&mut p2, key());
        let map = rig.ttsf.map().unwrap();
        let records: Vec<Bytes> = map.records().map(|r| r.out.clone()).collect();
        assert!(p1.as_tcp().unwrap().payload.ptr_eq(&records[0]), "one record: its own buffer");
        assert!(p2.as_tcp().unwrap().payload.ptr_eq(&records[1]));
        // A retransmission spanning both records carries both, in order.
        let mut retx = down_pkt(1000, &[0, 1, 2, 3, 4, 5, 6, 7], TcpFlags::ACK);
        rig.send(&mut retx, key());
        assert_eq!(&retx.as_tcp().unwrap().payload[..], &[0, 2, 4, 6]);
        assert_eq!(rig.ttsf.stats.replayed_bytes, 4);
    }

    #[test]
    fn out_of_order_downlink_dropped() {
        let mut rig = Rig::new(Box::new(Halver));
        let mut hole = down_pkt(1008, &[8, 9], TcpFlags::ACK);
        let (v, _) = rig.send(&mut hole, key());
        assert_eq!(
            v,
            Verdict::Drop,
            "stream-stateful service cannot skip a hole"
        );
        assert_eq!(rig.ttsf.stats.ooo_drops, 1);
    }

    #[test]
    fn ack_translation_is_conservative() {
        let mut rig = Rig::new(Box::new(Halver));
        let mut p1 = down_pkt(1000, &[0; 8], TcpFlags::ACK);
        rig.send(&mut p1, key());
        // Mobile acks half the transformed bytes: nothing original covered.
        let mut partial = up_ack(1002, 8192);
        rig.send(&mut partial, key().reverse());
        assert_eq!(partial.as_tcp().unwrap().ack, 1000);
        // Mobile acks all 4 transformed bytes: all 8 originals covered.
        let mut full = up_ack(1004, 8192);
        rig.send(&mut full, key().reverse());
        assert_eq!(full.as_tcp().unwrap().ack, 1008);
        assert!(rig.ttsf.stats.acks_translated >= 1);
    }

    #[test]
    fn fin_flushes_service_and_maps() {
        let mut rig = Rig::new(Box::new(Compressor::new(crate::codec::Method::Rle, 512)));
        let mut data = down_pkt(1000, &[7u8; 100], TcpFlags::ACK);
        rig.send(&mut data, key());
        let out_len = data.as_tcp().unwrap().payload.len() as u32;
        // FIN with no payload at the frontier.
        let mut fin = down_pkt(1100, &[], TcpFlags::FIN | TcpFlags::ACK);
        let (v, _) = rig.send(&mut fin, key());
        assert_eq!(v, Verdict::Continue);
        let seg = fin.as_tcp().unwrap();
        assert!(seg.flags.fin());
        assert_eq!(seg.seq, 1000 + out_len, "FIN lands at the mapped frontier");
        // The mobile acking past the FIN maps back past the original FIN.
        let mut ack = up_ack(1000 + out_len + 1, 8192);
        rig.send(&mut ack, key().reverse());
        assert_eq!(ack.as_tcp().unwrap().ack, 1101);
    }

    #[test]
    fn oversize_emission_splits_into_injections() {
        // An expanding service: doubles every byte.
        struct Doubler;
        impl StreamTransformer for Doubler {
            fn name(&self) -> &'static str {
                "doubler"
            }
            fn transform(&mut self, chunk: &[u8]) -> Vec<u8> {
                chunk.iter().flat_map(|&b| [b, b]).collect()
            }
        }
        let mut rig = Rig::new(Box::new(Doubler));
        rig.ttsf.emit_cap = 100;
        let mut p = down_pkt(1000, &[5u8; 150], TcpFlags::ACK);
        let (v, inj) = rig.send(&mut p, key());
        assert_eq!(v, Verdict::Continue);
        // 300 output bytes at cap 100: the packet plus two continuations.
        assert_eq!(p.as_tcp().unwrap().payload.len(), 100);
        assert_eq!(inj.len(), 2);
        assert_eq!(inj[0].as_tcp().unwrap().seq, 1100);
        assert_eq!(inj[1].as_tcp().unwrap().seq, 1200);
        let total: usize = 100
            + inj
                .iter()
                .map(|p| p.as_tcp().unwrap().payload.len())
                .sum::<usize>();
        assert_eq!(total, 300);
    }

    #[test]
    fn identity_service_leaves_stream_untouched() {
        let mut rig = Rig::new(Box::new(Identity));
        let mut p = down_pkt(1000, b"hello", TcpFlags::ACK);
        rig.send(&mut p, key());
        assert_eq!(p.as_tcp().unwrap().seq, 1000);
        assert_eq!(&p.as_tcp().unwrap().payload[..], b"hello");
        let mut ack = up_ack(1005, 4096);
        rig.send(&mut ack, key().reverse());
        assert_eq!(ack.as_tcp().unwrap().ack, 1005);
        assert_eq!(
            ack.as_tcp().unwrap().window,
            4096,
            "no window scaling for identity"
        );
    }

    #[test]
    fn mid_stream_attach_initializes_at_first_seq() {
        let mut ttsf = Ttsf::new(Box::new(Identity));
        let mut rng = SmallRng::seed_from_u64(9);
        let m = NullMetrics;
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &m);
        ttsf.insert(&mut ctx, key());
        // No SYN observed: the first data packet seeds the map.
        let mut p = down_pkt(555_000, b"mid-stream", TcpFlags::ACK);
        let v = ttsf.on_out(&mut ctx, key(), &mut p);
        assert_eq!(v, Verdict::Continue);
        assert_eq!(p.as_tcp().unwrap().seq, 555_000);
    }
}
