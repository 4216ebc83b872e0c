//! The TCP conformance oracle: a pure observer asserting per-flow,
//! per-direction protocol invariants over everything the simulator moves.
//!
//! The oracle watches the two *true* TCP endpoints of a deployment (the
//! wired and mobile hosts) and ignores relays (the Service Proxy and the
//! stub), because Comma's transparency claim is exactly that whatever the
//! relays do in the middle, the conversation *as seen by the endpoints*
//! stays a legal TCP conversation:
//!
//! - **V1 ack-regression** — an endpoint's emitted ACK field never
//!   decreases (mod 2³²): `RCV.NXT` is monotone.
//! - **V2 ack-beyond-sent** — an ACK *delivered to* an endpoint never
//!   covers sequence space that endpoint has not transmitted. This is the
//!   "no proxy-fabricated ACKs" end of the thesis's promise and it holds
//!   even under transforming filters, because the TTSF's `inverse_ack` is
//!   deliberately conservative.
//! - **V3 seq-gap** — an endpoint never emits a segment starting beyond
//!   its own highest sent right edge (no holes in `SND.NXT`).
//! - **V4 retransmit-mismatch / inconsistent-delivery** — a sequence-space
//!   byte, once emitted (or once delivered to an endpoint), never changes
//!   value on retransmission or redelivery.
//! - **V5 window-overrun** — an endpoint never sends sequence space beyond
//!   the highest `ACK + window` credit ever delivered to it, plus one byte
//!   of slack for the zero-window persist probe and FIN.
//! - **V7 payload-integrity** (strict mode) — the byte stream one endpoint
//!   emitted equals the byte stream delivered to the other, where both are
//!   known.
//! - **V8 ack-not-from-peer** (strict mode) — an ACK delivered to an
//!   endpoint never exceeds the highest ACK its peer has actually emitted:
//!   nobody in the middle may acknowledge data the receiver has not yet
//!   acknowledged.
//!
//! Strict-mode checks (V7/V8) are only valid when no registered service
//! rewrites payload bytes or sequence spaces (compression, record removal,
//! translation): a TTSF legitimately re-times and re-values ACKs and
//! rewrites payloads, conservatively but not identically. The oracle
//! records those findings unconditionally and the report includes them
//! only when [`OracleConfig::strict`] (or [`Oracle::set_strict`]) says the
//! deployment is untransformed.
//!
//! The oracle never draws randomness and never mutates the world: same
//! run, same violations, byte for byte.

use std::sync::Arc;

use comma_netsim::addr::Ipv4Addr;
use comma_netsim::node::NodeId;
use comma_netsim::packet::{IpPayload, Packet, PacketSummary, SummaryBody, TcpFlags};
use comma_netsim::sim::PacketObserver;
use comma_netsim::time::SimTime;
use comma_netsim::trace::{Trace, TraceEvent};
use comma_obs::{Counter, Obs};

// Modulo-2³² sequence arithmetic (RFC 793 §3.3). Local copies: this crate
// sits below `comma-tcp` in the dependency graph on purpose, so the oracle
// can check any TCP implementation, including a broken one.

#[inline]
fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

#[inline]
fn seq_gt(a: u32, b: u32) -> bool {
    seq_lt(b, a)
}

#[inline]
fn seq_max(a: u32, b: u32) -> u32 {
    if seq_lt(a, b) {
        b
    } else {
        a
    }
}

#[inline]
fn seq_diff(to: u32, from: u32) -> u32 {
    to.wrapping_sub(from)
}

/// One invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Simulated time of the offending packet (or of report assembly for
    /// stream-comparison findings).
    pub time: SimTime,
    /// Invariant identifier (`"ack-regression"`, `"payload-integrity"`, ...).
    pub kind: &'static str,
    /// The flow, rendered `a:pa<->b:pb`.
    pub flow: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.time, self.kind, self.flow, self.detail
        )
    }
}

/// Oracle configuration.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// The true TCP endpoints: `(node, its address)`. Transmissions by any
    /// other node (relays) are not treated as endpoint emissions.
    pub endpoints: Vec<(NodeId, Ipv4Addr)>,
    /// Addresses of true endpoints hosted by another simulator (a peer
    /// shard): flows between an endpoint here and one of these are
    /// tracked, from this side only. Without them a per-shard oracle
    /// would see no flow with both ends known and check nothing.
    pub remote_endpoints: Vec<Ipv4Addr>,
    /// Enable strict-mode findings (V7 payload identity, V8 ack
    /// provenance) in the report. Set to `false` when a registered service
    /// legitimately rewrites payloads or sequence spaces.
    pub strict: bool,
    /// Per-direction cap on retained stream bytes; beyond it the stream is
    /// marked truncated and byte-level checks cover only the prefix.
    pub max_stream_bytes: usize,
    /// Cap on retained violation records. Every finding is still counted
    /// by kind, and the first record of each kind is kept past the cap, so
    /// a flood of one kind cannot hide another.
    pub max_violations: usize,
    /// Disables the delivered-ACK monotonicity check (V6). In a FIFO
    /// network (links and proxies preserve per-flow order) the ACK stream
    /// an endpoint *receives* is monotone; a fault plan that reorders or
    /// duplicates packets legitimately breaks that, so harnesses set this
    /// when such a plan is active.
    pub allow_reordered_delivery: bool,
}

impl OracleConfig {
    /// A config watching the given endpoints, strict by default.
    pub fn new(endpoints: Vec<(NodeId, Ipv4Addr)>) -> Self {
        OracleConfig {
            endpoints,
            remote_endpoints: Vec::new(),
            strict: true,
            max_stream_bytes: 1 << 20,
            max_violations: 200,
            allow_reordered_delivery: false,
        }
    }
}

/// What the oracle found.
#[derive(Clone, Debug, Default)]
pub struct OracleReport {
    /// Retained violation records, in event order: the first
    /// `max_violations`, and past them the first of each kind.
    pub violations: Vec<Violation>,
    /// Total violations (≥ `violations.len()` if the cap was hit).
    pub total_violations: u64,
    /// Reported violations by kind, in the order each kind first
    /// occurred; the counts sum to `total_violations`.
    pub kinds: Vec<(&'static str, u64)>,
    /// Strict-mode findings suppressed because strict mode was off.
    pub suppressed_strict: u64,
    /// TCP flows tracked.
    pub flows: usize,
    /// TCP segments checked (emissions + deliveries).
    pub segments_checked: u64,
    /// Flows whose byte-level checks were truncated by the stream cap.
    pub truncated_flows: usize,
}

impl OracleReport {
    /// True when no reportable violation was found.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Appends a finding made outside the oracle (an edit-map sweep's),
    /// counted like the oracle's own.
    pub fn push(&mut self, v: Violation) {
        self.count(v.kind, 1);
        self.violations.push(v);
    }

    /// Folds a peer shard's report into this one.
    pub fn merge(&mut self, other: OracleReport) {
        for (kind, n) in other.kinds {
            self.count(kind, n);
        }
        self.violations.extend(other.violations);
        self.suppressed_strict += other.suppressed_strict;
        self.flows += other.flows;
        self.segments_checked += other.segments_checked;
        self.truncated_flows += other.truncated_flows;
    }

    fn count(&mut self, kind: &'static str, n: u64) {
        self.total_violations += n;
        match self.kinds.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, total)) => *total += n,
            None => self.kinds.push((kind, n)),
        }
    }

    /// Renders every retained violation, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

/// A sparse byte-stream log: sequence-space bytes by offset from the ISN.
/// `data` holds the bytes, `known` one bit per byte of `data` (bit `i % 64`
/// of word `i / 64`) saying whether that byte has been seen — a hole left
/// by a segment still in flight reads as zero and unknown.
#[derive(Clone, Default)]
struct StreamLog {
    data: Vec<u8>,
    known: Vec<u64>,
    truncated: bool,
}

/// The bits of word `w` that fall inside the bit range `lo..hi`.
fn word_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let from = lo.max(w * 64) - w * 64;
    let to = hi.min(w * 64 + 64) - w * 64;
    (u64::MAX >> (64 - (to - from))) << from
}

impl StreamLog {
    fn is_known(&self, pos: usize) -> bool {
        self.known[pos / 64] >> (pos % 64) & 1 == 1
    }

    /// How many bytes of the non-empty range `lo..hi` are known: all, none,
    /// or — neither — some.
    fn known_in(&self, lo: usize, hi: usize) -> (bool, bool) {
        let (mut all, mut none) = (true, true);
        for w in lo / 64..=(hi - 1) / 64 {
            let mask = word_mask(w, lo, hi);
            all &= self.known[w] & mask == mask;
            none &= self.known[w] & mask == 0;
        }
        (all, none)
    }

    fn mark_known(&mut self, lo: usize, hi: usize) {
        for w in lo / 64..=(hi - 1) / 64 {
            self.known[w] |= word_mask(w, lo, hi);
        }
    }

    /// The first offset at which both logs know a byte and the bytes
    /// differ. Unknown bytes are zero in `data`, so equal chunks need no
    /// look at the bits.
    fn first_difference(&self, other: &StreamLog) -> Option<usize> {
        let n = self.data.len().min(other.data.len());
        let chunks = self.data[..n].chunks(64).zip(other.data[..n].chunks(64));
        for (w, (mine, theirs)) in chunks.enumerate() {
            if mine == theirs {
                continue;
            }
            let differs = |i: &usize| {
                mine[i - w * 64] != theirs[i - w * 64] && self.is_known(*i) && other.is_known(*i)
            };
            if let Some(i) = (w * 64..w * 64 + mine.len()).find(differs) {
                return Some(i);
            }
        }
        None
    }

    /// Records `bytes` at `off`, returning the first remembered-byte
    /// mismatch as `(offset, old, new)`. Bytes at or beyond `cap` are not
    /// kept and mark the log truncated.
    fn record(&mut self, off: u32, bytes: &[u8], cap: usize) -> Option<(u32, u8, u8)> {
        let off = off as usize;
        let room = cap.saturating_sub(off);
        if bytes.len() > room {
            self.truncated = true;
        }
        let bytes = &bytes[..bytes.len().min(room)];
        if bytes.is_empty() {
            return None;
        }
        let end = off + bytes.len();
        if end > self.data.len() {
            self.data.resize(end, 0);
            self.known.resize(end.div_ceil(64), 0);
        }
        // New data (in order, or filling a hole) is one copy; an exact
        // retransmission is one compare.
        let (all, none) = self.known_in(off, end);
        if none {
            self.data[off..end].copy_from_slice(bytes);
            self.mark_known(off, end);
            return None;
        }
        if all && self.data[off..end] == *bytes {
            return None;
        }
        // Partly known, or known and different: byte by byte, to fill the
        // unknown bytes and name the first known one that changed.
        let mut mismatch = None;
        for (pos, &b) in (off..end).zip(bytes) {
            if !self.is_known(pos) {
                self.data[pos] = b;
            } else if self.data[pos] != b && mismatch.is_none() {
                mismatch = Some((pos as u32, self.data[pos], b));
            }
        }
        self.mark_known(off, end);
        mismatch
    }
}

/// Per-flow state of one endpoint.
#[derive(Clone, Default)]
struct EndState {
    /// ISN of the stream this endpoint emits (from its SYN).
    isn: Option<u32>,
    /// Highest `seq + seq_len` this endpoint has emitted.
    sent_right: Option<u32>,
    /// Last ACK value this endpoint emitted (V1).
    last_ack_sent: Option<u32>,
    /// Highest ACK value this endpoint emitted (peer's V8 bound).
    max_ack_sent: Option<u32>,
    /// Last ACK value delivered to this endpoint (V6).
    last_ack_delivered: Option<u32>,
    /// Highest `ack + window` credit ever delivered to this endpoint (V5).
    window_limit: Option<u32>,
    /// ISN of the stream delivered to this endpoint (from the peer's SYN
    /// as delivered, which a transform may re-base).
    rcv_isn: Option<u32>,
    /// Bytes this endpoint emitted, by stream offset. The two logs are
    /// the bulk of a flow's state and a model-checking step extends at
    /// most one of them, so a cloned oracle shares both and a write goes
    /// through [`Arc::make_mut`], copying only the log it extends.
    sent_stream: Arc<StreamLog>,
    /// Bytes delivered to this endpoint, by delivered-stream offset.
    rcvd_stream: Arc<StreamLog>,
}

#[derive(Clone)]
struct FlowState {
    a: (Ipv4Addr, u16),
    b: (Ipv4Addr, u16),
    ea: EndState,
    eb: EndState,
}

impl FlowState {
    fn label(&self) -> String {
        format!(
            "{}:{}<->{}:{}",
            self.a.0, self.a.1, self.b.0, self.b.1
        )
    }
}

/// The minimal per-segment facts both observation paths (live packets and
/// replayed trace entries' [`PacketSummary`]s) reduce to. `payload` is
/// `None` when only the length is known (trace replay), which disables
/// byte-level checks.
struct SegFacts<'a> {
    src: (Ipv4Addr, u16),
    dst: (Ipv4Addr, u16),
    flags: TcpFlags,
    seq: u32,
    ack: u32,
    window: u16,
    payload_len: u32,
    payload: Option<&'a [u8]>,
}

impl SegFacts<'_> {
    fn seq_len(&self) -> u32 {
        let mut n = self.payload_len;
        if self.flags.syn() {
            n += 1;
        }
        if self.flags.fin() {
            n += 1;
        }
        n
    }
}

/// The conformance oracle. Install with
/// `Simulator::set_packet_observer(Box::new(oracle))`, run the scenario,
/// then retrieve it with `take_packet_observer` and call
/// [`Oracle::finish`].
pub struct Oracle {
    /// Shared with clones; the two setters write through [`Arc::make_mut`].
    cfg: Arc<OracleConfig>,
    /// Tracked flows, sorted by their `(a, b)` endpoint pair.
    flows: Vec<FlowState>,
    /// Every finding, recorded unconditionally and tagged with whether it
    /// only applies in strict mode. The strict decision is made in
    /// [`Oracle::finish`], so `set_strict` may be called at any point
    /// before the report — including after the run, once the harness
    /// knows whether a transforming service was installed.
    violations: Vec<(Violation, bool)>,
    /// Every finding's count by kind, tagged strict-only like the records,
    /// in the order each kind first occurred (the retained `violations`
    /// buffer is capped at `max_violations`; these counts are not).
    kinds: Vec<(&'static str, u64, bool)>,
    segments_checked: u64,
    obs: Option<Obs>,
    /// `oracle.segments`, resolved against `obs` when it was attached.
    segments: Option<Counter>,
}

impl Oracle {
    /// Creates an oracle for the given configuration.
    pub fn new(cfg: OracleConfig) -> Self {
        Oracle {
            cfg: Arc::new(cfg),
            flows: Vec::new(),
            violations: Vec::new(),
            kinds: Vec::new(),
            segments_checked: 0,
            obs: None,
            segments: None,
        }
    }

    /// Attaches an observability handle: the oracle counts checked
    /// segments and violations under the `oracle` scope.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.segments = Some(obs.counter_handle("oracle", "oracle.segments"));
        self.obs = Some(obs);
        self
    }

    /// Turns strict-mode findings (V7/V8) on or off for the report.
    pub fn set_strict(&mut self, strict: bool) {
        Arc::make_mut(&mut self.cfg).strict = strict;
    }

    /// The first violation recorded so far that applies in the current
    /// (non-strict vs strict) mode, if any: the model checker's live
    /// invariant probe, usable mid-run without consuming the oracle the way
    /// [`Oracle::finish`] does. The end-of-stream V7 comparison is not
    /// included; it only runs at `finish`. The first finding of every kind
    /// is retained past the cap, so a buffer filled by one kind still
    /// holds the first finding of any other.
    pub fn first_live_violation(&self) -> Option<&Violation> {
        self.violations
            .iter()
            .find(|(_, strict_only)| self.cfg.strict || !strict_only)
            .map(|(v, _)| v)
    }

    /// Relaxes (or restores) the delivered-ACK monotonicity check; set
    /// before the run when a fault plan reorders or duplicates packets.
    pub fn set_allow_reordered_delivery(&mut self, allow: bool) {
        Arc::make_mut(&mut self.cfg).allow_reordered_delivery = allow;
    }

    fn node_addr(&self, node: NodeId) -> Option<Ipv4Addr> {
        self.cfg
            .endpoints
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, a)| *a)
    }

    fn is_endpoint_addr(&self, addr: Ipv4Addr) -> bool {
        self.cfg.endpoints.iter().any(|(_, a)| *a == addr)
            || self.cfg.remote_endpoints.contains(&addr)
    }

    fn push_violation(
        &mut self,
        time: SimTime,
        kind: &'static str,
        flow: String,
        detail: String,
        strict_only: bool,
    ) {
        let first_of_kind = match self.kinds.iter_mut().find(|(k, _, _)| *k == kind) {
            Some((_, n, _)) => {
                *n += 1;
                false
            }
            None => {
                self.kinds.push((kind, 1, strict_only));
                true
            }
        };
        if first_of_kind || self.violations.len() < self.cfg.max_violations {
            self.violations.push((
                Violation {
                    time,
                    kind,
                    flow,
                    detail,
                },
                strict_only,
            ));
        }
    }

    /// Reduces a (possibly IP-in-IP-encapsulated) packet to TCP facts.
    fn tcp_facts(p: &Packet) -> Option<SegFacts<'_>> {
        match &p.body {
            IpPayload::Tcp(seg) => Some(SegFacts {
                src: (p.ip.src, seg.src_port),
                dst: (p.ip.dst, seg.dst_port),
                flags: seg.flags,
                seq: seg.seq,
                ack: seg.ack,
                window: seg.window,
                payload_len: seg.payload.len() as u32,
                payload: Some(&seg.payload),
            }),
            IpPayload::Encap(inner) => Self::tcp_facts(inner),
            _ => None,
        }
    }

    /// Reduces a (possibly IP-in-IP-encapsulated) packet's trace summary
    /// to TCP facts, without payload bytes.
    fn summary_facts(s: &PacketSummary) -> Option<SegFacts<'static>> {
        match s.body {
            SummaryBody::Tcp { src_port, dst_port, flags, seq, ack, window, len } => Some(SegFacts {
                src: (s.src, src_port),
                dst: (s.dst, dst_port),
                flags,
                seq,
                ack,
                window,
                payload_len: len,
                payload: None,
            }),
            SummaryBody::Ipip(ref inner) => Self::summary_facts(inner),
            _ => None,
        }
    }

    fn flow_entry(&mut self, facts: &SegFacts<'_>) -> &mut FlowState {
        let (a, b) = if facts.src <= facts.dst {
            (facts.src, facts.dst)
        } else {
            (facts.dst, facts.src)
        };
        let at = match self.flows.binary_search_by_key(&(a, b), |f| (f.a, f.b)) {
            Ok(at) => at,
            Err(at) => {
                let (ea, eb) = (EndState::default(), EndState::default());
                self.flows.insert(at, FlowState { a, b, ea, eb });
                at
            }
        };
        &mut self.flows[at]
    }

    /// An endpoint emitted `facts`.
    fn check_tx(&mut self, now: SimTime, facts: &SegFacts<'_>) {
        let max_stream = self.cfg.max_stream_bytes;
        let mut pending: Vec<(&'static str, String)> = Vec::new();
        let flow = self.flow_entry(facts);
        let src_is_a = flow.a == facts.src;
        let me = if src_is_a { &mut flow.ea } else { &mut flow.eb };

        // V1: the emitted ACK field is monotone.
        if facts.flags.ack() {
            if let Some(last) = me.last_ack_sent {
                if seq_lt(facts.ack, last) {
                    pending.push((
                        "ack-regression",
                        format!("emitted ack {} after {}", facts.ack, last),
                    ));
                }
            }
            me.last_ack_sent = Some(facts.ack);
            me.max_ack_sent = Some(match me.max_ack_sent {
                Some(m) => seq_max(m, facts.ack),
                None => facts.ack,
            });
        }

        if facts.flags.syn() && me.isn.is_none() {
            me.isn = Some(facts.seq);
        }

        // V3: no gap beyond the endpoint's own right edge.
        let end = facts.seq.wrapping_add(facts.seq_len());
        if let Some(right) = me.sent_right {
            if seq_gt(facts.seq, right) {
                pending.push((
                    "seq-gap",
                    format!("emitted seq {} beyond right edge {}", facts.seq, right),
                ));
            }
            me.sent_right = Some(seq_max(right, end));
        } else {
            me.sent_right = Some(end);
        }

        // V5: stay within the delivered window credit (+1 for the persist
        // probe and FIN, which legally occupy one byte past the window).
        if facts.seq_len() > 0 {
            if let Some(limit) = me.window_limit {
                if seq_gt(end, limit.wrapping_add(1)) {
                    pending.push((
                        "window-overrun",
                        format!("sent through {} but credit ends at {}", end, limit),
                    ));
                }
            }
        }

        // V4 (sent side): a sequence-space byte never changes value.
        if let (Some(isn), Some(payload)) = (me.isn, facts.payload) {
            if facts.payload_len > 0 {
                let off = seq_diff(facts.seq, isn.wrapping_add(1));
                let log = Arc::make_mut(&mut me.sent_stream);
                if let Some((at, old, new)) = log.record(off, payload, max_stream) {
                    pending.push((
                        "retransmit-mismatch",
                        format!("offset {} retransmitted as {:#04x}, was {:#04x}", at, new, old),
                    ));
                }
            }
        }

        if pending.is_empty() {
            return;
        }
        let label = flow.label();
        for (kind, detail) in pending {
            self.push_violation(now, kind, label.clone(), detail, false);
        }
    }

    /// `facts` was delivered to an endpoint.
    fn check_deliver(&mut self, now: SimTime, facts: &SegFacts<'_>) {
        let max_stream = self.cfg.max_stream_bytes;
        let allow_reordered = self.cfg.allow_reordered_delivery;
        let mut pending: Vec<(&'static str, String, bool)> = Vec::new();
        let flow = self.flow_entry(facts);
        let dst_is_a = flow.a == facts.dst;
        let (me, peer) = if dst_is_a {
            (&mut flow.ea, &mut flow.eb)
        } else {
            (&mut flow.eb, &mut flow.ea)
        };

        if facts.flags.ack() {
            // V2: the ACK must lie within what this endpoint actually sent.
            // Holds under transforms too: `inverse_ack` is conservative.
            if let Some(right) = me.sent_right {
                if seq_gt(facts.ack, right) {
                    pending.push((
                        "ack-beyond-sent",
                        format!(
                            "delivered ack {} but endpoint sent through {}",
                            facts.ack, right
                        ),
                        false,
                    ));
                }
            }
            // V8 (strict): the ACK must have been emitted by the peer —
            // nobody in the middle acknowledges on the receiver's behalf.
            let fabricated = match peer.max_ack_sent {
                Some(m) => seq_gt(facts.ack, m),
                None => true,
            };
            if fabricated {
                pending.push((
                    "ack-not-from-peer",
                    format!(
                        "delivered ack {} exceeds peer's own max emitted ack {:?}",
                        facts.ack, peer.max_ack_sent
                    ),
                    true,
                ));
            }
            // V6: in a FIFO network the delivered ACK stream is monotone.
            // A middlebox that drops a sequence-space translation (or
            // fabricates then abandons ACKs) shows up as a regression
            // here. Disabled when a fault plan reorders/duplicates.
            if !allow_reordered {
                if let Some(last) = me.last_ack_delivered {
                    if seq_lt(facts.ack, last) {
                        pending.push((
                            "delivered-ack-regression",
                            format!("delivered ack {} after {}", facts.ack, last),
                            false,
                        ));
                    }
                }
            }
            me.last_ack_delivered = Some(facts.ack);
            me.window_limit = Some(match me.window_limit {
                Some(l) => seq_max(l, facts.ack.wrapping_add(facts.window as u32)),
                None => facts.ack.wrapping_add(facts.window as u32),
            });
        }

        if facts.flags.syn() && me.rcv_isn.is_none() {
            me.rcv_isn = Some(facts.seq);
        }

        // V4 (delivered side): redelivery never changes a byte.
        if let (Some(isn), Some(payload)) = (me.rcv_isn, facts.payload) {
            if facts.payload_len > 0 {
                let off = seq_diff(facts.seq, isn.wrapping_add(1));
                let log = Arc::make_mut(&mut me.rcvd_stream);
                if let Some((at, old, new)) = log.record(off, payload, max_stream) {
                    pending.push((
                        "inconsistent-delivery",
                        format!("offset {} redelivered as {:#04x}, was {:#04x}", at, new, old),
                        false,
                    ));
                }
            }
        }

        if pending.is_empty() {
            return;
        }
        let label = flow.label();
        for (kind, detail, strict_only) in pending {
            self.push_violation(now, kind, label.clone(), detail, strict_only);
        }
    }

    fn observe(&mut self, now: SimTime, node: NodeId, pkt: &Packet, delivered: bool) {
        if let Some(facts) = Self::tcp_facts(pkt) {
            self.check(now, self.node_addr(node), &facts, delivered);
        }
    }

    /// The tail both observation paths share: `facts` was emitted
    /// (`delivered` false) or received by the node at `addr`, and is
    /// checked when both ends are endpoints and the node is the right one.
    /// A reset is counted but checks nothing.
    fn check(&mut self, now: SimTime, addr: Option<Ipv4Addr>, facts: &SegFacts<'_>, delivered: bool) {
        if !self.is_endpoint_addr(facts.src.0) || !self.is_endpoint_addr(facts.dst.0) {
            return;
        }
        let end = if delivered { facts.dst.0 } else { facts.src.0 };
        if addr != Some(end) {
            return;
        }
        self.segments_checked += 1;
        if let Some(segments) = &self.segments {
            segments.inc();
        }
        if facts.flags.rst() {
            return;
        }
        if delivered {
            self.check_deliver(now, facts);
        } else {
            self.check_tx(now, facts);
        }
    }

    /// Replays a captured packet trace through the oracle (the post-hoc
    /// pass): each `Tx`/`Rx` entry's [`PacketSummary`] becomes segment
    /// facts, IP-in-IP unwrapped as on the live path. Payload bytes are
    /// not in the trace, so byte-level checks (V4/V7) are inert on this
    /// path; header invariants all run.
    pub fn replay_trace(&mut self, trace: &Trace, node_addrs: &[(NodeId, Ipv4Addr)]) {
        let addr_of = |n: NodeId| node_addrs.iter().find(|(id, _)| *id == n).map(|(_, a)| *a);
        for entry in trace.entries() {
            let (node, summary, delivered) = match &entry.event {
                TraceEvent::Tx { node, summary } => (*node, summary, false),
                TraceEvent::Rx { node, summary } => (*node, summary, true),
                _ => continue,
            };
            if let Some(facts) = Self::summary_facts(summary) {
                self.check(entry.time, addr_of(node), &facts, delivered);
            }
        }
    }

    /// Finalizes the oracle: runs the whole-stream comparisons and returns
    /// the report.
    pub fn finish(mut self) -> OracleReport {
        // V7 (strict): emitted stream == delivered stream, byte for byte,
        // wherever both sides are known.
        let mut findings = Vec::new();
        let mut truncated = 0usize;
        for flow in &self.flows {
            for (sender, receiver, dir) in
                [(&flow.ea, &flow.eb, "a->b"), (&flow.eb, &flow.ea, "b->a")]
            {
                if sender.sent_stream.truncated || receiver.rcvd_stream.truncated {
                    truncated += 1;
                    continue;
                }
                let (sent, rcvd) = (&sender.sent_stream, &receiver.rcvd_stream);
                if let Some(i) = sent.first_difference(rcvd) {
                    findings.push((
                        flow.label(),
                        format!(
                            "{dir} offset {}: sent {:#04x}, delivered {:#04x}",
                            i, sent.data[i], rcvd.data[i]
                        ),
                    ));
                }
            }
        }
        for (flow, detail) in findings {
            self.push_violation(SimTime::MAX, "payload-integrity", flow, detail, true);
        }
        // The strict decision happens here, not at record time: strict-only
        // findings are dropped from the report iff the configuration says
        // the deployment transformed the stream.
        let strict = self.cfg.strict;
        let included: Vec<Violation> = self
            .violations
            .into_iter()
            .filter(|(_, strict_only)| strict || !strict_only)
            .map(|(v, _)| v)
            .collect();
        let (mut total_violations, mut suppressed_strict) = (0, 0);
        let mut kinds = Vec::with_capacity(self.kinds.len());
        for (kind, n, strict_only) in self.kinds {
            if strict || !strict_only {
                total_violations += n;
                kinds.push((kind, n));
            } else {
                suppressed_strict += n;
            }
        }
        if let Some(obs) = &self.obs {
            for _ in 0..total_violations {
                obs.inc("oracle", "oracle.violations");
            }
        }
        OracleReport {
            violations: included,
            total_violations,
            kinds,
            suppressed_strict,
            flows: self.flows.len(),
            segments_checked: self.segments_checked,
            truncated_flows: truncated,
        }
    }
}

/// `clone_from` reuses the target's buffers: a model checker's fork into a
/// finished branch copies the flow table without allocating.
impl Clone for Oracle {
    fn clone(&self) -> Self {
        Oracle {
            cfg: Arc::clone(&self.cfg),
            flows: self.flows.clone(),
            violations: self.violations.clone(),
            kinds: self.kinds.clone(),
            segments_checked: self.segments_checked,
            obs: self.obs.clone(),
            segments: self.segments.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.cfg = Arc::clone(&source.cfg);
        self.flows.clone_from(&source.flows);
        self.violations.clone_from(&source.violations);
        self.kinds.clone_from(&source.kinds);
        self.segments_checked = source.segments_checked;
        self.obs.clone_from(&source.obs);
        self.segments.clone_from(&source.segments);
    }
}

impl PacketObserver for Oracle {
    fn on_tx(&mut self, now: SimTime, node: NodeId, pkt: &Packet) {
        self.observe(now, node, pkt, false);
    }

    fn on_deliver(&mut self, now: SimTime, node: NodeId, pkt: &Packet) {
        self.observe(now, node, pkt, true);
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn clone_observer(&self) -> Option<Box<dyn PacketObserver>> {
        Some(Box::new(self.clone()))
    }

    fn clone_observer_into(&self, into: &mut dyn PacketObserver) -> bool {
        let Some(into) = into.as_any().downcast_mut::<Oracle>() else {
            return false;
        };
        into.clone_from(self);
        true
    }

    fn release(&mut self) -> bool {
        self.flows.clear();
        self.violations.clear();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comma_netsim::packet::TcpSegment;
    use comma_rt::Bytes;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const NA: NodeId = NodeId(0);
    const NB: NodeId = NodeId(1);

    fn oracle() -> Oracle {
        Oracle::new(OracleConfig::new(vec![(NA, A), (NB, B)]))
    }

    fn seg(seq: u32, ack: u32, flags: TcpFlags, payload: &[u8]) -> TcpSegment {
        let mut s = TcpSegment::new(1000, 2000, seq, ack, flags);
        s.window = 65_535;
        s.payload = Bytes::from(payload.to_vec());
        s
    }

    /// Plays one legal exchange: handshake, `data` from A in `chunk`-byte
    /// segments, cumulative ACKs from B, FIN both ways. `isn_a` exercises
    /// wrap boundaries.
    fn play_clean(o: &mut Oracle, isn_a: u32, isn_b: u32, data: &[u8], chunk: usize) {
        let t = SimTime::from_millis(1);
        let send = |o: &mut Oracle, from_a: bool, s: TcpSegment| {
            let (src, dst, tx_node, rx_node) = if from_a {
                (A, B, NA, NB)
            } else {
                (B, A, NB, NA)
            };
            let mut s = s;
            if !from_a {
                s.src_port = 2000;
                s.dst_port = 1000;
            }
            let pkt = Packet::tcp(src, dst, s);
            o.on_tx(t, tx_node, &pkt);
            o.on_deliver(t, rx_node, &pkt);
        };
        send(o, true, seg(isn_a, 0, TcpFlags::SYN, &[]));
        send(
            o,
            false,
            seg(isn_b, isn_a.wrapping_add(1), TcpFlags::SYN | TcpFlags::ACK, &[]),
        );
        send(
            o,
            true,
            seg(isn_a.wrapping_add(1), isn_b.wrapping_add(1), TcpFlags::ACK, &[]),
        );
        let mut off = 0usize;
        while off < data.len() {
            let end = (off + chunk).min(data.len());
            let seq = isn_a.wrapping_add(1).wrapping_add(off as u32);
            send(
                o,
                true,
                seg(seq, isn_b.wrapping_add(1), TcpFlags::ACK, &data[off..end]),
            );
            let ack = isn_a.wrapping_add(1).wrapping_add(end as u32);
            send(o, false, seg(isn_b.wrapping_add(1), ack, TcpFlags::ACK, &[]));
            off = end;
        }
        let fin_seq = isn_a.wrapping_add(1).wrapping_add(data.len() as u32);
        send(
            o,
            true,
            seg(fin_seq, isn_b.wrapping_add(1), TcpFlags::FIN | TcpFlags::ACK, &[]),
        );
        send(
            o,
            false,
            seg(
                isn_b.wrapping_add(1),
                fin_seq.wrapping_add(1),
                TcpFlags::ACK,
                &[],
            ),
        );
    }

    #[test]
    fn clean_exchange_is_clean() {
        let mut o = oracle();
        play_clean(&mut o, 100, 9_000, b"hello world, twelve bytes etc.", 8);
        let r = o.finish();
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.flows, 1);
        assert!(r.segments_checked > 10);
    }

    #[test]
    fn clean_exchange_across_seq_wrap_is_clean() {
        // ISN 12 bytes before the 2³² boundary: data spans the wrap.
        let mut o = oracle();
        play_clean(&mut o, u32::MAX - 12, u32::MAX - 3, &[b'x'; 64], 16);
        let r = o.finish();
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn ack_regression_detected() {
        let mut o = oracle();
        let t = SimTime::from_millis(1);
        let p1 = Packet::tcp(A, B, seg(1, 500, TcpFlags::ACK, &[]));
        let p2 = Packet::tcp(A, B, seg(1, 400, TcpFlags::ACK, &[]));
        o.on_tx(t, NA, &p1);
        o.on_tx(t, NA, &p2);
        let r = o.finish();
        assert_eq!(r.violations[0].kind, "ack-regression");
    }

    #[test]
    fn ack_regression_detected_across_wrap() {
        let mut o = oracle();
        let t = SimTime::from_millis(1);
        // 5 is *after* u32::MAX-5 in sequence space; going back to
        // u32::MAX-5 afterwards is a regression even though it is
        // numerically larger.
        let p1 = Packet::tcp(A, B, seg(1, 5, TcpFlags::ACK, &[]));
        let p2 = Packet::tcp(A, B, seg(1, u32::MAX - 5, TcpFlags::ACK, &[]));
        o.on_tx(t, NA, &p1);
        o.on_tx(t, NA, &p2);
        let r = o.finish();
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == "ack-regression"), "{}", r.render());
    }

    #[test]
    fn fabricated_ack_detected() {
        let mut o = oracle();
        let t = SimTime::from_millis(1);
        // A sends 100 bytes; an ACK covering them is delivered back to A
        // although B never emitted any ACK at all.
        let data = Packet::tcp(A, B, seg(1, 0, TcpFlags::ACK, &[7u8; 100]));
        o.on_tx(t, NA, &data);
        o.on_deliver(t, NB, &data);
        let mut back = seg(9_000, 101, TcpFlags::ACK, &[]);
        back.src_port = 2000;
        back.dst_port = 1000;
        let fake = Packet::tcp(B, A, back);
        o.on_deliver(t, NA, &fake);
        let r = o.finish();
        assert!(
            r.violations.iter().any(|v| v.kind == "ack-not-from-peer"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn ack_beyond_sent_detected() {
        let mut o = oracle();
        let t = SimTime::from_millis(1);
        let data = Packet::tcp(A, B, seg(1, 0, TcpFlags::ACK, &[7u8; 100]));
        o.on_tx(t, NA, &data);
        // Delivered ack acknowledges 1000 bytes A never sent.
        let mut back = seg(9_000, 1_101, TcpFlags::ACK, &[]);
        back.src_port = 2000;
        back.dst_port = 1000;
        o.on_deliver(t, NA, &Packet::tcp(B, A, back));
        let r = o.finish();
        assert!(
            r.violations.iter().any(|v| v.kind == "ack-beyond-sent"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn corrupted_delivery_fails_payload_integrity() {
        let mut o = oracle();
        let t = SimTime::from_millis(1);
        let syn = Packet::tcp(A, B, seg(0, 0, TcpFlags::SYN, &[]));
        o.on_tx(t, NA, &syn);
        o.on_deliver(t, NB, &syn);
        let sent = Packet::tcp(A, B, seg(1, 0, TcpFlags::ACK, &[7u8; 32]));
        o.on_tx(t, NA, &sent);
        // The link flipped a byte; the endpoint's checksum let it through.
        let corrupted = Packet::tcp(A, B, seg(1, 0, TcpFlags::ACK, &[8u8; 32]));
        o.on_deliver(t, NB, &corrupted);
        let r = o.finish();
        assert!(
            r.violations.iter().any(|v| v.kind == "payload-integrity"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn strict_findings_suppressed_when_transformed() {
        let mut o = oracle();
        o.set_strict(false);
        let t = SimTime::from_millis(1);
        let syn = Packet::tcp(A, B, seg(0, 0, TcpFlags::SYN, &[]));
        o.on_tx(t, NA, &syn);
        o.on_deliver(t, NB, &syn);
        let sent = Packet::tcp(A, B, seg(1, 0, TcpFlags::ACK, &[7u8; 32]));
        o.on_tx(t, NA, &sent);
        let corrupted = Packet::tcp(A, B, seg(1, 0, TcpFlags::ACK, &[8u8; 32]));
        o.on_deliver(t, NB, &corrupted);
        let r = o.finish();
        assert!(r.is_clean());
        assert!(r.suppressed_strict > 0);
    }

    /// The strict decision applies at report time: a harness may only
    /// learn whether a transforming service ran after the scenario, so
    /// `set_strict(false)` after the observations must still suppress
    /// strict-only findings recorded earlier.
    #[test]
    fn strict_decision_applies_at_finish_time() {
        let mut o = oracle();
        let t = SimTime::from_millis(1);
        let syn = Packet::tcp(A, B, seg(0, 0, TcpFlags::SYN, &[]));
        o.on_tx(t, NA, &syn);
        o.on_deliver(t, NB, &syn);
        let sent = Packet::tcp(A, B, seg(1, 0, TcpFlags::ACK, &[7u8; 32]));
        o.on_tx(t, NA, &sent);
        // Deliver an ACK the peer never emitted (V8, strict-only) while
        // strict is still on...
        let mut back = seg(9_000, 33, TcpFlags::ACK, &[]);
        back.src_port = 2000;
        back.dst_port = 1000;
        o.on_deliver(t, NA, &Packet::tcp(B, A, back));
        // ...then flip strict off post-run, as CommaWorld::oracle_report
        // does once it has scanned the installed filters.
        o.set_strict(false);
        let r = o.finish();
        assert!(r.is_clean(), "{}", r.render());
        assert!(r.suppressed_strict > 0);
    }

    #[test]
    fn retransmit_with_different_bytes_detected() {
        let mut o = oracle();
        let t = SimTime::from_millis(1);
        let syn = Packet::tcp(A, B, seg(0, 0, TcpFlags::SYN, &[]));
        o.on_tx(t, NA, &syn);
        o.on_tx(t, NA, &Packet::tcp(A, B, seg(1, 0, TcpFlags::ACK, b"aaaa")));
        o.on_tx(t, NA, &Packet::tcp(A, B, seg(1, 0, TcpFlags::ACK, b"aBaa")));
        let r = o.finish();
        assert!(
            r.violations.iter().any(|v| v.kind == "retransmit-mismatch"),
            "{}",
            r.render()
        );
    }

    /// `n` always-on `seq-gap` findings on A→B: each segment starts 50
    /// bytes past the last one's end.
    fn seq_gaps(o: &mut Oracle, n: u32) {
        let t = SimTime::from_millis(1);
        o.on_tx(t, NA, &Packet::tcp(A, B, seg(0, 0, TcpFlags::SYN, &[])));
        for i in 0..n {
            o.on_tx(t, NA, &Packet::tcp(A, B, seg(51 + 100 * i, 0, TcpFlags::ACK, b"zz")));
        }
    }

    /// Past the record cap a new kind is still kept and counted: 300
    /// `seq-gap` findings fill the 200 records, then one
    /// `delivered-ack-regression` (B acks 1,000, A is delivered 1,000 and
    /// then 500) is reported beside them.
    #[test]
    fn a_flood_of_one_kind_hides_no_other() {
        let mut o = oracle();
        seq_gaps(&mut o, 300);
        let t = SimTime::from_millis(2);
        let ack = |n| {
            let mut s = seg(0, n, TcpFlags::ACK, &[]);
            (s.src_port, s.dst_port) = (2000, 1000);
            Packet::tcp(B, A, s)
        };
        o.on_tx(t, NB, &ack(1_000));
        o.on_deliver(t, NA, &ack(1_000));
        o.on_deliver(t, NA, &ack(500));
        assert_eq!(o.first_live_violation().map(|v| v.kind), Some("seq-gap"));
        let r = o.finish();
        assert_eq!(r.kinds, [("seq-gap", 300), ("delivered-ack-regression", 1)], "{}", r.render());
        assert_eq!(r.total_violations, 301);
        assert_eq!(r.violations.len(), 201, "the cap, and the first of the later kind");
        assert_eq!(r.violations[200].kind, "delivered-ack-regression");
    }

    /// With strict mode off, a buffer full of strict-only findings still
    /// yields the first always-on one to the live probe the model checker
    /// reads, and the report counts only what applies.
    #[test]
    fn live_probe_finds_an_always_on_finding_behind_strict_ones() {
        let mut o = oracle();
        o.set_strict(false);
        let t = SimTime::from_millis(1);
        // B never acknowledged anything, so every ACK delivered to A is
        // fabricated (V8, strict-only).
        for n in 0..300 {
            let mut s = seg(0, 0, TcpFlags::ACK, &[]);
            (s.src_port, s.dst_port, s.seq) = (2000, 1000, n);
            o.on_deliver(t, NA, &Packet::tcp(B, A, s));
        }
        assert_eq!(o.first_live_violation().map(|v| v.kind), None);
        seq_gaps(&mut o, 1);
        assert_eq!(o.first_live_violation().map(|v| v.kind), Some("seq-gap"));
        let r = o.finish();
        assert_eq!(r.kinds, [("seq-gap", 1)]);
        assert_eq!(r.suppressed_strict, 300);
    }

    #[test]
    fn seq_gap_detected() {
        let mut o = oracle();
        let t = SimTime::from_millis(1);
        o.on_tx(t, NA, &Packet::tcp(A, B, seg(0, 0, TcpFlags::SYN, &[])));
        // Jumps 50 bytes past the right edge (1).
        o.on_tx(t, NA, &Packet::tcp(A, B, seg(51, 0, TcpFlags::ACK, b"zz")));
        let r = o.finish();
        assert!(r.violations.iter().any(|v| v.kind == "seq-gap"), "{}", r.render());
    }

    #[test]
    fn window_overrun_detected() {
        let mut o = oracle();
        let t = SimTime::from_millis(1);
        o.on_tx(t, NA, &Packet::tcp(A, B, seg(0, 0, TcpFlags::SYN, &[])));
        // B grants 8 bytes of credit past ack=1.
        let mut grant = seg(9_000, 1, TcpFlags::ACK, &[]);
        grant.src_port = 2000;
        grant.dst_port = 1000;
        grant.window = 8;
        o.on_deliver(t, NA, &Packet::tcp(B, A, grant));
        // A sends 32 bytes anyway.
        o.on_tx(t, NA, &Packet::tcp(A, B, seg(1, 0, TcpFlags::ACK, &[1u8; 32])));
        let r = o.finish();
        assert!(
            r.violations.iter().any(|v| v.kind == "window-overrun"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn persist_probe_one_past_window_is_legal() {
        let mut o = oracle();
        let t = SimTime::from_millis(1);
        o.on_tx(t, NA, &Packet::tcp(A, B, seg(0, 0, TcpFlags::SYN, &[])));
        let mut grant = seg(9_000, 1, TcpFlags::ACK, &[]);
        grant.src_port = 2000;
        grant.dst_port = 1000;
        grant.window = 0;
        let grant_pkt = Packet::tcp(B, A, grant);
        o.on_tx(t, NB, &grant_pkt);
        o.on_deliver(t, NA, &grant_pkt);
        // The one-byte zero-window probe.
        o.on_tx(t, NA, &Packet::tcp(A, B, seg(1, 0, TcpFlags::ACK, &[1u8; 1])));
        let r = o.finish();
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn trace_replay_detects_seq_gap() {
        use comma_netsim::trace::Trace;
        let mut trace = Trace::new();
        trace.set_capture(true);
        let syn = Packet::tcp(A, B, seg(0, 0, TcpFlags::SYN, &[]));
        trace.tx(SimTime::from_millis(1), NA, || syn.summary());
        let gap = Packet::tcp(A, B, seg(500, 0, TcpFlags::ACK, &[9u8; 10]));
        trace.tx(SimTime::from_millis(2), NA, || gap.summary());
        let mut o = oracle();
        o.replay_trace(&trace, &[(NA, A), (NB, B)]);
        let r = o.finish();
        assert!(r.violations.iter().any(|v| v.kind == "seq-gap"), "{}", r.render());
    }

    /// The byte-at-a-time log the slice paths replaced, kept as the model:
    /// one `bool` per byte, every byte through both vectors.
    #[derive(Default)]
    struct ModelLog {
        data: Vec<u8>,
        known: Vec<bool>,
        truncated: bool,
    }

    impl ModelLog {
        fn record(&mut self, off: u32, bytes: &[u8], cap: usize) -> Option<(u32, u8, u8)> {
            let off = off as usize;
            let mut mismatch = None;
            for (i, &b) in bytes.iter().enumerate() {
                let pos = off + i;
                if pos >= cap {
                    self.truncated = true;
                    break;
                }
                if pos >= self.data.len() {
                    self.data.resize(pos + 1, 0);
                    self.known.resize(pos + 1, false);
                }
                if self.known[pos] {
                    if self.data[pos] != b && mismatch.is_none() {
                        mismatch = Some((pos as u32, self.data[pos], b));
                    }
                } else {
                    self.data[pos] = b;
                    self.known[pos] = true;
                }
            }
            mismatch
        }
    }

    /// Random writes — in order, overlapping, exact and one-byte-flipped
    /// retransmissions, holes, straddling and beyond the cap, empty —
    /// leave the log and the model identical after every step.
    #[test]
    fn stream_log_matches_bytewise_model() {
        use comma_rt::prop::Runner;
        use comma_rt::{ensure_eq, Rng};

        const CAP: usize = 3_000;
        #[derive(Debug)]
        enum Write {
            /// `len` fresh bytes at the current right edge plus `gap`.
            Append { gap: usize, len: usize },
            /// Replays `len` stream bytes from `off`, flipping byte `flip`.
            Replay { off: usize, len: usize, flip: Option<usize> },
            /// Anything anywhere, up to well past the cap.
            Wild { off: u32, len: usize },
        }
        Runner::new("stream_log_matches_bytewise_model").cases(300).run(
            |rng| {
                let writes: Vec<Write> = (0..rng.gen_range(1..60usize))
                    .map(|_| match rng.gen_range(0..10u32) {
                        0..=3 => Write::Append {
                            gap: if rng.gen_range(0..4u32) == 0 { rng.gen_range(1..200usize) } else { 0 },
                            len: rng.gen_range(0..300usize),
                        },
                        4..=7 => {
                            let len = rng.gen_range(0..300usize);
                            let flip = (len > 0 && rng.gen_range(0..2u32) == 0)
                                .then(|| rng.gen_range(0..len));
                            Write::Replay { off: rng.gen_range(0..CAP + 100), len, flip }
                        }
                        8 => Write::Wild { off: rng.gen_range(0..2 * CAP as u32), len: rng.gen_range(0..400usize) },
                        _ => Write::Wild { off: u32::MAX - rng.gen_range(0..5u32), len: rng.gen_range(0..9usize) },
                    })
                    .collect();
                (rng.gen::<u8>(), writes)
            },
            |(salt, writes)| {
                // What the stream "really" is at each offset.
                let truth = |pos: usize| (pos as u8).wrapping_mul(31) ^ salt;
                let (mut log, mut model) = (StreamLog::default(), ModelLog::default());
                for (step, w) in writes.iter().enumerate() {
                    let (off, bytes): (u32, Vec<u8>) = match *w {
                        Write::Append { gap, len } => {
                            let off = model.data.len() + gap;
                            (off as u32, (off..off + len).map(truth).collect())
                        }
                        Write::Replay { off, len, flip } => {
                            let mut bytes: Vec<u8> = (off..off + len).map(truth).collect();
                            if let Some(i) = flip {
                                bytes[i] ^= 0x40;
                            }
                            (off as u32, bytes)
                        }
                        Write::Wild { off, len } => (off, (0..len).map(|i| i as u8 ^ salt).collect()),
                    };
                    let got = log.record(off, &bytes, CAP);
                    let want = model.record(off, &bytes, CAP);
                    ensure_eq!(got, want, "step {step}: mismatch triple of {w:?}");
                    ensure_eq!(log.truncated, model.truncated, "step {step}: truncated");
                    ensure_eq!(log.data, model.data, "step {step}: data");
                    let known: Vec<bool> = (0..log.data.len()).map(|i| log.is_known(i)).collect();
                    ensure_eq!(known, model.known, "step {step}: known set");
                    ensure_eq!(log.known.len(), log.data.len().div_ceil(64), "step {step}: bitset length");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn first_difference_needs_both_sides_known() {
        let (mut sent, mut rcvd) = (StreamLog::default(), StreamLog::default());
        sent.record(0, &[7u8; 200], 1 << 20);
        rcvd.record(0, &[7u8; 90], 1 << 20);
        rcvd.record(130, &[7u8; 70], 1 << 20); // 90..130 is a hole: zero, unknown
        assert_eq!(sent.first_difference(&rcvd), None, "a hole is not a difference");
        rcvd.record(100, &[7, 7, 9, 7], 1 << 20);
        assert_eq!(sent.first_difference(&rcvd), Some(102));
        assert_eq!(rcvd.first_difference(&sent), Some(102));
    }
}
