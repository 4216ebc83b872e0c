//! The TCP connection state machine.
//!
//! The connection is written sans-I/O: every entry point returns the
//! segments to transmit and the events to raise, and the caller (the host
//! node) owns packetization and timers. This makes the full RFC 793 state
//! machine — with Jacobson congestion control, fast retransmit/recovery,
//! persist probes and delayed ACKs — testable without a network.

use comma_rt::Bytes;
use comma_netsim::packet::{TcpFlags, TcpOption, TcpSegment};
use comma_netsim::stats::Summary;
use comma_netsim::time::{SimDuration, SimTime};

use crate::buffer::{RecvBuffer, SendBuffer};
use crate::config::{Recovery, TcpConfig};
use crate::rto::RtoEstimator;
use crate::seq::{seq_diff, seq_ge, seq_gt, seq_le, seq_lt, seq_max};

/// RFC 793 connection states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Waiting for a SYN.
    Listen,
    /// Active open sent, awaiting SYN|ACK.
    SynSent,
    /// SYN received, SYN|ACK sent, awaiting ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// Our FIN sent, awaiting its ACK (or peer FIN).
    FinWait1,
    /// Our FIN acked, awaiting peer FIN.
    FinWait2,
    /// Both FINs crossed; awaiting ACK of ours.
    Closing,
    /// Final 2·MSL hold.
    TimeWait,
    /// Peer FIN received; we may still send.
    CloseWait,
    /// Our FIN sent after peer's; awaiting its ACK.
    LastAck,
}

/// Events surfaced to the owning application.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnEvent {
    /// The three-way handshake completed.
    Connected,
    /// In-order data is available to read.
    DataReadable,
    /// The peer closed its sending side (FIN received).
    PeerClosed,
    /// The connection fully closed.
    Closed,
    /// The connection was reset or the handshake failed.
    Reset,
}

/// Output of a connection entry point. Every entry point appends to an
/// `Effects` its caller owns, so a caller that keeps one (the host does)
/// processes a segment without allocating.
#[derive(Debug, Default)]
pub struct Effects {
    /// Segments to transmit, in order.
    pub segments: Vec<TcpSegment>,
    /// Events to raise to the application.
    pub events: Vec<ConnEvent>,
}

impl Effects {
    /// Whether the entry point asked for nothing.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty() && self.events.is_empty()
    }
}

/// Counters kept per connection.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnStats {
    /// Segments emitted (including retransmissions and pure ACKs).
    pub segs_out: u64,
    /// Segments processed.
    pub segs_in: u64,
    /// Unique payload bytes sent (first transmission only).
    pub bytes_sent: u64,
    /// Payload bytes delivered to the application.
    pub bytes_delivered: u64,
    /// Retransmitted segments (timeout + fast retransmit).
    pub retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Fast retransmits triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
    /// Duplicate ACKs received.
    pub dup_acks: u64,
    /// Zero-window persist probes sent.
    pub persist_probes: u64,
    /// RTO expiries converted to persist-mode freezes by a zero window.
    pub zero_window_freezes: u64,
    /// Round-trip-time samples.
    pub rtt: Summary,
}

/// A TCP connection endpoint.
#[derive(Clone, Debug)]
pub struct TcpConnection {
    cfg: TcpConfig,
    state: TcpState,
    // Send state.
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    /// Highest sequence ever transmitted (BSD's `snd_max`): after a
    /// go-back-N pullback, sequences below it are retransmissions and must
    /// not be RTT-timed (Karn's rule).
    snd_max: u32,
    snd_wnd: u32,
    snd_wl1: u32,
    snd_wl2: u32,
    send_buf: SendBuffer,
    fin_pending: bool,
    fin_seq: Option<u32>,
    // Congestion control.
    cwnd: u32,
    ssthresh: u32,
    dup_acks: u32,
    in_fast_recovery: bool,
    recover: u32,
    // Timers and estimation.
    rto: RtoEstimator,
    rto_deadline: Option<SimTime>,
    rtt_probe: Option<(u32, SimTime)>,
    persist_deadline: Option<SimTime>,
    persist_shift: u32,
    delack_deadline: Option<SimTime>,
    unacked_segs: u32,
    time_wait_deadline: Option<SimTime>,
    syn_retries: u32,
    // Receive state.
    recv: Option<RecvBuffer>,
    peer_fin_seq: Option<u32>,
    peer_mss: u32,
    /// Counters.
    pub stats: ConnStats,
}

const MAX_SYN_RETRIES: u32 = 6;

impl TcpConnection {
    /// Folds every behavior-relevant field — sequence state, buffers,
    /// congestion control, timer deadlines — into a canonical state
    /// fingerprint for model-checking visited-set pruning. Counters
    /// (`stats`) are deliberately excluded: they never influence future
    /// behavior, and hashing them would keep converging interleavings
    /// artificially distinct.
    pub fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        fn time(h: &mut comma_rt::digest::StateHasher, t: &Option<SimTime>) {
            h.update_u64(t.map_or(u64::MAX, |t| t.as_micros()));
        }
        fn seq(h: &mut comma_rt::digest::StateHasher, s: &Option<u32>) {
            h.update_u64(s.map_or(u64::MAX, |s| s as u64));
        }
        h.update_u64(self.state as u64);
        h.update_u64(self.iss as u64);
        h.update_u64(self.snd_una as u64);
        h.update_u64(self.snd_nxt as u64);
        h.update_u64(self.snd_max as u64);
        h.update_u64(self.snd_wnd as u64);
        h.update_u64(self.snd_wl1 as u64);
        h.update_u64(self.snd_wl2 as u64);
        self.send_buf.state_digest(h);
        h.update_u64(self.fin_pending as u64);
        seq(h, &self.fin_seq);
        h.update_u64(self.cwnd as u64);
        h.update_u64(self.ssthresh as u64);
        h.update_u64(self.dup_acks as u64);
        h.update_u64(self.in_fast_recovery as u64);
        h.update_u64(self.recover as u64);
        self.rto.state_digest(h);
        time(h, &self.rto_deadline);
        match &self.rtt_probe {
            None => {
                h.update_u64(u64::MAX);
            }
            Some((s, t)) => {
                h.update_u64(*s as u64);
                h.update_u64(t.as_micros());
            }
        }
        time(h, &self.persist_deadline);
        h.update_u64(self.persist_shift as u64);
        time(h, &self.delack_deadline);
        h.update_u64(self.unacked_segs as u64);
        time(h, &self.time_wait_deadline);
        h.update_u64(self.syn_retries as u64);
        match &self.recv {
            None => {
                h.update_u64(u64::MAX);
            }
            Some(r) => r.state_digest(h),
        }
        seq(h, &self.peer_fin_seq);
        h.update_u64(self.peer_mss as u64);
    }
}

impl TcpConnection {
    /// Creates a closed connection with the given configuration and initial
    /// send sequence number.
    pub fn new(cfg: TcpConfig, iss: u32) -> Self {
        let cwnd = cfg.initial_cwnd();
        let rto = RtoEstimator::new(cfg.initial_rto, cfg.min_rto, cfg.max_rto);
        TcpConnection {
            peer_mss: cfg.mss as u32,
            cfg,
            state: TcpState::Closed,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            snd_wnd: 0,
            snd_wl1: 0,
            snd_wl2: 0,
            send_buf: SendBuffer::new(iss.wrapping_add(1)),
            fin_pending: false,
            fin_seq: None,
            cwnd,
            ssthresh: 64 * 1024,
            dup_acks: 0,
            in_fast_recovery: false,
            recover: iss,
            rto,
            rto_deadline: None,
            rtt_probe: None,
            persist_deadline: None,
            persist_shift: 0,
            delack_deadline: None,
            unacked_segs: 0,
            time_wait_deadline: None,
            syn_retries: 0,
            recv: None,
            peer_fin_seq: None,
            stats: ConnStats::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Returns `true` once the connection has fully terminated.
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    /// Peer-advertised send window in bytes.
    pub fn snd_wnd(&self) -> u32 {
        self.snd_wnd
    }

    /// Bytes in flight (sent but unacknowledged).
    pub fn flight_size(&self) -> u32 {
        seq_diff(self.snd_nxt, self.snd_una)
    }

    /// Bytes buffered for sending but not yet transmitted.
    pub fn unsent_bytes(&self) -> u32 {
        seq_diff(self.send_buf.end_seq(), self.data_nxt())
    }

    /// Smoothed RTT estimate, if measured.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rto.srtt()
    }

    /// Current retransmission timeout (including backoff and clamping).
    pub fn rto(&self) -> SimDuration {
        self.rto.rto()
    }

    /// `snd_nxt` restricted to payload space (excludes a sent FIN).
    fn data_nxt(&self) -> u32 {
        match self.fin_seq {
            Some(fin) if seq_gt(self.snd_nxt, fin) => fin,
            _ => self.snd_nxt,
        }
    }

    // ------------------------------------------------------------------
    // Opening.
    // ------------------------------------------------------------------

    /// Performs an active open: sends a SYN.
    pub fn connect(&mut self, now: SimTime, eff: &mut Effects) {
        debug_assert_eq!(self.state, TcpState::Closed);
        self.state = TcpState::SynSent;
        let mut syn = self.make_seg(self.iss, TcpFlags::SYN, Bytes::new());
        syn.options.push(TcpOption::Mss(self.cfg.mss));
        syn.window = self.cfg.recv_buffer.min(65_535) as u16;
        self.snd_nxt = self.iss.wrapping_add(1);
        self.snd_max = self.snd_nxt;
        self.push_seg(eff, syn);
        self.arm_rto(now);
    }

    /// Performs a passive open: waits for a SYN.
    pub fn listen(&mut self) {
        debug_assert_eq!(self.state, TcpState::Closed);
        self.state = TcpState::Listen;
    }

    // ------------------------------------------------------------------
    // Application interface.
    // ------------------------------------------------------------------

    /// Queues application data and transmits whatever the windows allow.
    /// A `Bytes` is kept, not copied: segments are slices of it.
    pub fn write(&mut self, now: SimTime, data: impl Into<Bytes>, eff: &mut Effects) {
        if self.fin_pending || self.fin_seq.is_some() {
            return; // Write after close is discarded.
        }
        self.send_buf.push(data);
        self.try_send(now, eff);
    }

    /// Closes the sending side: a FIN is queued after any buffered data.
    pub fn close(&mut self, now: SimTime, eff: &mut Effects) {
        match self.state {
            TcpState::Closed | TcpState::Listen => {
                self.state = TcpState::Closed;
                eff.events.push(ConnEvent::Closed);
            }
            TcpState::SynSent => {
                self.state = TcpState::Closed;
                eff.events.push(ConnEvent::Closed);
            }
            _ => {
                self.fin_pending = true;
                self.try_send(now, eff);
            }
        }
    }

    /// Aborts the connection with a RST.
    pub fn abort(&mut self, eff: &mut Effects) {
        if !matches!(self.state, TcpState::Closed | TcpState::Listen) {
            let rst = self.make_seg(self.snd_nxt, TcpFlags::RST | TcpFlags::ACK, Bytes::new());
            self.push_seg(eff, rst);
        }
        self.state = TcpState::Closed;
        eff.events.push(ConnEvent::Closed);
    }

    /// Takes readable bytes for the application. Reading may reopen the
    /// advertised window, in which case a window-update ACK is emitted.
    pub fn take_data(&mut self, _now: SimTime, eff: &mut Effects) -> Bytes {
        let Some(recv) = &mut self.recv else {
            return Bytes::new();
        };
        let before = recv.window();
        let data = recv.take();
        self.stats.bytes_delivered += data.len() as u64;
        let after = self.recv.as_ref().expect("recv").window();
        // Send a window update when the window grows from below one MSS to
        // at least one MSS (silly-window avoidance on the receive side).
        if before < self.peer_mss.min(self.cfg.mss as u32) && after >= self.cfg.mss as u32 {
            let ack = self.make_ack();
            self.push_seg(eff, ack);
        }
        data
    }

    // ------------------------------------------------------------------
    // Segment processing.
    // ------------------------------------------------------------------

    /// Processes an incoming segment.
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment, eff: &mut Effects) {
        self.stats.segs_in += 1;
        match self.state {
            TcpState::Closed => {}
            TcpState::Listen => self.segment_in_listen(seg, eff),
            TcpState::SynSent => self.segment_in_syn_sent(now, seg, eff),
            _ => self.segment_in_synchronized(now, seg, eff),
        }
    }

    fn segment_in_listen(&mut self, seg: &TcpSegment, eff: &mut Effects) {
        if !seg.flags.syn() || seg.flags.rst() {
            return;
        }
        if let Some(mss) = seg.mss_option() {
            self.peer_mss = mss as u32;
        }
        let irs = seg.seq;
        self.recv = Some(RecvBuffer::new(irs.wrapping_add(1), self.cfg.recv_buffer));
        self.update_snd_wnd_unchecked(seg);
        self.state = TcpState::SynRcvd;
        let mut synack = self.make_seg(self.iss, TcpFlags::SYN | TcpFlags::ACK, Bytes::new());
        synack.options.push(TcpOption::Mss(self.cfg.mss));
        self.snd_nxt = self.iss.wrapping_add(1);
        self.snd_max = self.snd_nxt;
        self.push_seg(eff, synack);
    }

    fn segment_in_syn_sent(&mut self, now: SimTime, seg: &TcpSegment, eff: &mut Effects) {
        if seg.flags.rst() {
            self.enter_closed(eff, ConnEvent::Reset);
            return;
        }
        if !seg.flags.syn() {
            return;
        }
        if seg.flags.ack() && seg.ack != self.iss.wrapping_add(1) {
            // Half-open remnant: reset it.
            let rst = TcpSegment::new(0, 0, seg.ack, 0, TcpFlags::RST);
            self.push_seg(eff, rst);
            return;
        }
        if let Some(mss) = seg.mss_option() {
            self.peer_mss = mss as u32;
        }
        let irs = seg.seq;
        self.recv = Some(RecvBuffer::new(irs.wrapping_add(1), self.cfg.recv_buffer));
        if seg.flags.ack() {
            self.snd_una = seg.ack;
            self.send_buf.ack_to(seg.ack);
            self.update_snd_wnd_unchecked(seg);
            self.state = TcpState::Established;
            self.rto_deadline = None;
            self.rto.clear_backoff();
            eff.events.push(ConnEvent::Connected);
            let ack = self.make_ack();
            self.push_seg(eff, ack);
            self.try_send(now, eff);
        } else {
            // Simultaneous open.
            self.state = TcpState::SynRcvd;
            let mut synack = self.make_seg(self.iss, TcpFlags::SYN | TcpFlags::ACK, Bytes::new());
            synack.options.push(TcpOption::Mss(self.cfg.mss));
            self.push_seg(eff, synack);
        }
    }

    fn segment_in_synchronized(&mut self, now: SimTime, seg: &TcpSegment, eff: &mut Effects) {
        if seg.flags.rst() {
            self.enter_closed(eff, ConnEvent::Reset);
            return;
        }
        if seg.flags.syn() {
            // Retransmitted SYN while in SynRcvd: resend the SYN|ACK.
            if self.state == TcpState::SynRcvd {
                let mut synack =
                    self.make_seg(self.iss, TcpFlags::SYN | TcpFlags::ACK, Bytes::new());
                synack.options.push(TcpOption::Mss(self.cfg.mss));
                self.push_seg(eff, synack);
            }
            return;
        }
        if seg.flags.ack() {
            self.process_ack(now, seg, eff);
            if self.state == TcpState::Closed {
                return;
            }
        }
        if !seg.payload.is_empty() {
            self.process_data(now, seg, eff);
        } else if !seg.flags.fin() {
            // RFC 9293 §3.10.7.4: an empty segment entirely before RCV.NXT
            // is unacceptable and must be answered with a current ACK. This
            // regenerates a cumulative ACK lost in transit — without it a
            // retransmission whose transformed replay arrives empty (e.g. a
            // TTSF range already acked and trimmed) elicits nothing and the
            // connection deadlocks.
            if let Some(recv) = &self.recv {
                if seq_lt(seg.seq, recv.rcv_nxt()) {
                    let ack = self.make_ack();
                    self.push_seg(eff, ack);
                }
            }
        }
        if seg.flags.fin() {
            self.process_fin(now, seg, eff);
        }
        self.try_send(now, eff);
    }

    fn process_ack(&mut self, now: SimTime, seg: &TcpSegment, eff: &mut Effects) {
        let ack = seg.ack;
        if self.state == TcpState::SynRcvd && ack == self.iss.wrapping_add(1) {
            self.snd_una = ack;
            self.update_snd_wnd_unchecked(seg);
            self.state = TcpState::Established;
            self.rto_deadline = None;
            self.rto.clear_backoff();
            eff.events.push(ConnEvent::Connected);
        }
        // Continue: the same segment may carry data. Validate against
        // snd_max, not snd_nxt: after a go-back-N pullback the receiver may
        // legitimately ACK buffered out-of-order data beyond snd_nxt.
        if seq_gt(ack, self.snd_max) {
            // Acking data we never sent: tell the peer where we are.
            let a = self.make_ack();
            self.push_seg(eff, a);
            return;
        }
        if seq_le(ack, self.snd_una) {
            // Possible duplicate ACK (RFC 5681 heuristics).
            let is_dup = ack == self.snd_una
                && seg.payload.is_empty()
                && !seg.flags.syn()
                && !seg.flags.fin()
                && self.flight_size() > 0
                && seg.window as u32 == self.snd_wnd;
            if is_dup {
                self.stats.dup_acks += 1;
                self.dup_acks += 1;
                if self.dup_acks == 3 {
                    self.fast_retransmit(now, eff);
                } else if self.dup_acks > 3 && self.in_fast_recovery {
                    // Window inflation per extra duplicate ACK.
                    self.cwnd = self.cwnd.saturating_add(self.cfg.mss as u32);
                }
            }
            self.update_snd_wnd(seg, now);
            return;
        }

        // New data acknowledged. Note RFC 6298 §5.7: the ACK may cover a
        // retransmission, whose RTT is unmeasurable under Karn's rule, so
        // the exponential backoff must survive until `rto.sample()` takes a
        // fresh measurement — clearing it here would let one ambiguous ACK
        // collapse a backed-off timer on a path that is still losing.
        let acked = seq_diff(ack, self.snd_una);
        self.snd_una = ack;
        if seq_lt(self.snd_nxt, self.snd_una) {
            // The ACK overtook a pulled-back snd_nxt (the receiver held the
            // "lost" tail after all): resume sending from the edge.
            self.snd_nxt = self.snd_una;
        }
        self.send_buf.ack_to(ack);
        self.dup_acks = 0;
        self.persist_shift = 0;

        if let Some((probe_seq, sent_at)) = self.rtt_probe {
            if seq_ge(ack, probe_seq) {
                let rtt = now.saturating_since(sent_at);
                self.rto.sample(rtt);
                self.stats.rtt.add(rtt.as_secs_f64() * 1e3);
                self.rtt_probe = None;
            }
        }

        if self.in_fast_recovery {
            if seq_ge(ack, self.recover) {
                self.in_fast_recovery = false;
                self.cwnd = self.ssthresh;
            } else {
                // Partial ACK (NewReno-style): retransmit the next hole and
                // deflate the window by the amount acked.
                self.retransmit_head(now, eff);
                self.cwnd = self
                    .cwnd
                    .saturating_sub(acked)
                    .saturating_add(self.cfg.mss as u32);
            }
        } else {
            // Normal congestion-window growth.
            if self.cwnd < self.ssthresh {
                self.cwnd = self.cwnd.saturating_add(acked.min(self.cfg.mss as u32));
            } else {
                let inc = ((self.cfg.mss as u64 * self.cfg.mss as u64) / self.cwnd.max(1) as u64)
                    .max(1) as u32;
                self.cwnd = self.cwnd.saturating_add(inc);
            }
        }

        self.update_snd_wnd(seg, now);

        // FIN acknowledgement transitions.
        if let Some(fin) = self.fin_seq {
            if seq_gt(ack, fin) {
                match self.state {
                    TcpState::FinWait1 => self.state = TcpState::FinWait2,
                    TcpState::Closing => self.enter_time_wait(now),
                    TcpState::LastAck => {
                        self.enter_closed(eff, ConnEvent::Closed);
                        return;
                    }
                    _ => {}
                }
            }
        }

        if self.flight_size() == 0 {
            self.rto_deadline = None;
        } else {
            self.arm_rto(now);
        }
    }

    fn update_snd_wnd_unchecked(&mut self, seg: &TcpSegment) {
        self.snd_wnd = seg.window as u32;
        self.snd_wl1 = seg.seq;
        self.snd_wl2 = seg.ack;
    }

    fn update_snd_wnd(&mut self, seg: &TcpSegment, now: SimTime) {
        // RFC 793 window-update check prevents stale segments from
        // shrinking the window.
        if seq_lt(self.snd_wl1, seg.seq)
            || (self.snd_wl1 == seg.seq && seq_le(self.snd_wl2, seg.ack))
        {
            let was_zero = self.snd_wnd == 0;
            self.update_snd_wnd_unchecked(seg);
            if self.snd_wnd == 0 {
                if self.pending_send_bytes() > 0 && self.persist_deadline.is_none() {
                    self.arm_persist(now);
                }
            } else {
                self.persist_deadline = None;
                self.persist_shift = 0;
                if was_zero && self.flight_size() > 0 {
                    // Window reopened while data was in flight (it may have
                    // been lost during a zero-window freeze): make sure the
                    // retransmission timer is running again.
                    self.arm_rto(now);
                }
            }
        }
    }

    fn pending_send_bytes(&self) -> u32 {
        seq_diff(self.send_buf.end_seq(), self.data_nxt())
    }

    fn process_data(&mut self, now: SimTime, seg: &TcpSegment, eff: &mut Effects) {
        if !matches!(
            self.state,
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
        ) {
            return;
        }
        let Some(recv) = &mut self.recv else { return };
        let advanced = recv.receive(seg.seq, &seg.payload);
        let out_of_order = !advanced || recv.has_holes();
        if advanced && recv.readable() > 0 {
            eff.events.push(ConnEvent::DataReadable);
        }
        // A FIN that once arrived beyond a hole becomes acceptable when the
        // hole fills.
        if let Some(fin) = self.peer_fin_seq {
            let rcv_nxt = self.recv.as_ref().expect("recv").rcv_nxt();
            if seq_le(fin, rcv_nxt) {
                self.accept_fin(now, eff);
            }
        }
        if out_of_order || !self.cfg.delayed_ack {
            // Immediate ACK: duplicate/straddling segments must generate
            // the duplicate ACKs fast retransmit depends on.
            let ack = self.make_ack();
            self.push_seg(eff, ack);
            self.unacked_segs = 0;
            self.delack_deadline = None;
        } else {
            self.unacked_segs += 1;
            if self.unacked_segs >= 2 {
                let ack = self.make_ack();
                self.push_seg(eff, ack);
                self.unacked_segs = 0;
                self.delack_deadline = None;
            } else if self.delack_deadline.is_none() {
                self.delack_deadline = Some(now + self.cfg.delack_timeout);
            }
        }
    }

    fn process_fin(&mut self, now: SimTime, seg: &TcpSegment, eff: &mut Effects) {
        let Some(recv) = &self.recv else { return };
        let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
        if seq_gt(fin_seq, recv.rcv_nxt()) {
            // FIN beyond a hole: remember it; it will be processed when the
            // hole fills (the peer will retransmit).
            self.peer_fin_seq = Some(fin_seq);
            return;
        }
        if seq_lt(fin_seq, recv.rcv_nxt()) {
            // Old duplicate FIN: re-ACK.
            let ack = self.make_ack();
            self.push_seg(eff, ack);
            return;
        }
        self.accept_fin(now, eff);
    }

    fn accept_fin(&mut self, now: SimTime, eff: &mut Effects) {
        // Consume the FIN's sequence slot, keeping unread bytes intact.
        self.recv.as_mut().expect("recv").consume_fin();
        self.peer_fin_seq = None;
        let ack = self.make_ack();
        self.push_seg(eff, ack);
        match self.state {
            TcpState::Established => {
                self.state = TcpState::CloseWait;
                eff.events.push(ConnEvent::PeerClosed);
            }
            TcpState::FinWait1 => {
                // Our FIN not yet acked.
                self.state = TcpState::Closing;
                eff.events.push(ConnEvent::PeerClosed);
            }
            TcpState::FinWait2 => {
                eff.events.push(ConnEvent::PeerClosed);
                self.enter_time_wait(now);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Transmission.
    // ------------------------------------------------------------------

    fn try_send(&mut self, now: SimTime, eff: &mut Effects) {
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        ) {
            return;
        }
        let mss = self.cfg.mss as u32;
        let wnd = self.snd_wnd.min(self.cwnd);
        loop {
            let flight = self.flight_size();
            // Data between snd_nxt and the buffer's end still needs (re-)
            // transmission; after a go-back-N pullback this includes
            // sequence space sent before the timeout.
            let end = self.send_buf.end_seq();
            let unsent = if seq_lt(self.snd_nxt, end) {
                seq_diff(end, self.snd_nxt)
            } else {
                0
            };
            if unsent > 0 && flight < wnd {
                let room = wnd - flight;
                let take = unsent.min(mss).min(room) as usize;
                if take == 0 {
                    break;
                }
                let payload = self.send_buf.slice(self.snd_nxt, take);
                debug_assert_eq!(payload.len(), take);
                let mut flags = TcpFlags::ACK;
                if unsent as usize == take {
                    flags = flags | TcpFlags::PSH;
                }
                let seg = self.make_seg(self.snd_nxt, flags, payload);
                // Only never-before-sent data may be RTT-timed: a re-send
                // of pulled-back sequence space has an ambiguous ACK under
                // Karn's rule.
                let new_data = seq_ge(self.snd_nxt, self.snd_max);
                self.snd_nxt = self.snd_nxt.wrapping_add(take as u32);
                self.snd_max = seq_max(self.snd_max, self.snd_nxt);
                self.stats.bytes_sent += take as u64;
                if new_data && self.rtt_probe.is_none() {
                    self.rtt_probe = Some((self.snd_nxt, now));
                }
                self.push_seg(eff, seg);
                self.arm_rto_if_unarmed(now);
                continue;
            }
            if unsent == 0 {
                match self.fin_seq {
                    // Re-emit a FIN that a pullback rewound over.
                    Some(fin) if self.snd_nxt == fin => {
                        let seg =
                            self.make_seg(fin, TcpFlags::FIN | TcpFlags::ACK, Bytes::new());
                        self.snd_nxt = fin.wrapping_add(1);
                        self.push_seg(eff, seg);
                        self.arm_rto_if_unarmed(now);
                    }
                    // Queue a FIN once all data has been transmitted.
                    None if self.fin_pending => {
                        let seg = self.make_seg(
                            self.snd_nxt,
                            TcpFlags::FIN | TcpFlags::ACK,
                            Bytes::new(),
                        );
                        self.fin_seq = Some(self.snd_nxt);
                        self.snd_nxt = self.snd_nxt.wrapping_add(1);
                        self.snd_max = seq_max(self.snd_max, self.snd_nxt);
                        self.fin_pending = false;
                        match self.state {
                            TcpState::Established => self.state = TcpState::FinWait1,
                            TcpState::CloseWait => self.state = TcpState::LastAck,
                            _ => {}
                        }
                        self.push_seg(eff, seg);
                        self.arm_rto_if_unarmed(now);
                    }
                    _ => {}
                }
            }
            break;
        }
        // Zero window with pending data: ensure the persist timer runs.
        if self.snd_wnd == 0
            && self.pending_send_bytes() > 0
            && self.persist_deadline.is_none()
            && self.flight_size() == 0
        {
            self.arm_persist(now);
        }
    }

    fn fast_retransmit(&mut self, now: SimTime, eff: &mut Effects) {
        self.stats.fast_retransmits += 1;
        let flight = self.flight_size();
        self.ssthresh = (flight / 2).max(2 * self.cfg.mss as u32);
        self.recover = self.snd_nxt;
        match self.cfg.recovery {
            Recovery::Reno => {
                self.in_fast_recovery = true;
                self.cwnd = self.ssthresh + 3 * self.cfg.mss as u32;
            }
            Recovery::Tahoe => {
                self.cwnd = self.cfg.mss as u32;
                self.in_fast_recovery = false;
            }
        }
        self.retransmit_head(now, eff);
    }

    fn retransmit_head(&mut self, now: SimTime, eff: &mut Effects) {
        self.stats.retransmits += 1;
        self.rtt_probe = None; // Karn's rule.
        let mss = self.cfg.mss as usize;
        let payload = self.send_buf.slice(self.snd_una, mss);
        let seg = if payload.is_empty() {
            match self.fin_seq {
                Some(fin) if fin == self.snd_una => {
                    if seq_lt(self.snd_nxt, fin.wrapping_add(1)) {
                        self.snd_nxt = fin.wrapping_add(1);
                    }
                    self.make_seg(fin, TcpFlags::FIN | TcpFlags::ACK, Bytes::new())
                }
                _ => {
                    if self.state == TcpState::SynSent {
                        let mut syn = self.make_seg(self.iss, TcpFlags::SYN, Bytes::new());
                        syn.options.push(TcpOption::Mss(self.cfg.mss));
                        syn
                    } else if self.state == TcpState::SynRcvd {
                        let mut synack =
                            self.make_seg(self.iss, TcpFlags::SYN | TcpFlags::ACK, Bytes::new());
                        synack.options.push(TcpOption::Mss(self.cfg.mss));
                        synack
                    } else {
                        return;
                    }
                }
            }
        } else {
            // After a go-back-N pullback snd_nxt sits at snd_una; account
            // for the resent head so flight_size() reflects it.
            let end = self.snd_una.wrapping_add(payload.len() as u32);
            if seq_lt(self.snd_nxt, end) {
                self.snd_nxt = end;
            }
            self.make_seg(self.snd_una, TcpFlags::ACK, payload)
        };
        self.push_seg(eff, seg);
        self.arm_rto(now);
    }

    // ------------------------------------------------------------------
    // Timers.
    // ------------------------------------------------------------------

    /// Returns the earliest pending timer deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        [
            self.rto_deadline,
            self.persist_deadline,
            self.delack_deadline,
            self.time_wait_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Services expired timers; safe to call spuriously.
    pub fn on_timer(&mut self, now: SimTime, eff: &mut Effects) {
        if let Some(d) = self.time_wait_deadline {
            if now >= d {
                self.time_wait_deadline = None;
                self.enter_closed(eff, ConnEvent::Closed);
                return;
            }
        }
        if let Some(d) = self.delack_deadline {
            if now >= d {
                self.delack_deadline = None;
                self.unacked_segs = 0;
                if self.recv.is_some() {
                    let ack = self.make_ack();
                    self.push_seg(eff, ack);
                }
            }
        }
        if let Some(d) = self.rto_deadline {
            if now >= d {
                self.rto_timeout(now, eff);
            }
        }
        if let Some(d) = self.persist_deadline {
            if now >= d {
                self.persist_fire(now, eff);
            }
        }
    }

    fn rto_timeout(&mut self, now: SimTime, eff: &mut Effects) {
        self.rto_deadline = None;
        if self.flight_size() == 0 && !matches!(self.state, TcpState::SynSent | TcpState::SynRcvd) {
            return;
        }
        if matches!(self.state, TcpState::SynSent | TcpState::SynRcvd) {
            self.syn_retries += 1;
            if self.syn_retries > MAX_SYN_RETRIES {
                self.enter_closed(eff, ConnEvent::Reset);
                return;
            }
        } else if self.snd_wnd == 0 {
            // Zero-window freeze: a closed window is receiver flow control,
            // not congestion (the behaviour BSSP's ZWSM exploits, §8.2.2).
            // Recovery is handed to the persist timer; cwnd and the RTO
            // estimate stay intact, so transmission restarts at full speed
            // when the window reopens.
            self.stats.zero_window_freezes += 1;
            if self.persist_deadline.is_none() {
                self.arm_persist(now);
            }
            return;
        }
        self.stats.timeouts += 1;
        let flight = self.flight_size().max(self.cfg.mss as u32);
        self.ssthresh = (flight / 2).max(2 * self.cfg.mss as u32);
        self.cwnd = self.cfg.mss as u32;
        self.in_fast_recovery = false;
        self.dup_acks = 0;
        self.rto.backoff();
        // Go-back-N pullback (BSD tcp_timers, REXMT case): the whole flight
        // is presumed lost, so pull snd_nxt back to the cumulative edge and
        // let the normal send path stream the lost range out again under
        // slow start. Without the pullback the lost tail keeps counting
        // toward flight_size(), the one-MSS window never opens past it, and
        // recovery crawls at one segment per backed-off RTO.
        if !matches!(self.state, TcpState::SynSent | TcpState::SynRcvd) {
            self.snd_nxt = self.snd_una;
        }
        self.retransmit_head(now, eff);
    }

    fn persist_fire(&mut self, now: SimTime, eff: &mut Effects) {
        self.persist_deadline = None;
        if self.snd_wnd > 0 || self.pending_send_bytes() == 0 {
            return;
        }
        // Probe with the byte at the window edge. When a previous probe (or
        // a flight frozen by the zero window) is still unacknowledged, this
        // re-sends the first unacked byte rather than consuming fresh
        // sequence space: a conforming receiver discards bytes beyond its
        // advertised window, so each new byte would creep the sender
        // further past the credit without ever being deliverable (BSD
        // resets snd_nxt to snd_una on a closed window for this reason).
        self.stats.persist_probes += 1;
        let probe_seq = if seq_lt(self.snd_una, self.snd_max) {
            self.snd_una
        } else {
            self.data_nxt()
        };
        let payload = self.send_buf.slice(probe_seq, 1);
        if payload.is_empty() {
            return;
        }
        let seg = self.make_seg(probe_seq, TcpFlags::ACK, payload);
        // A fresh probe byte enters the stream: account for it so its ACK
        // is accepted (BSD keeps snd_nxt >= snd_una the same way).
        if probe_seq == self.snd_nxt {
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.snd_max = seq_max(self.snd_max, self.snd_nxt);
        }
        self.push_seg(eff, seg);
        self.persist_shift = (self.persist_shift + 1).min(10);
        self.arm_persist(now);
    }

    fn arm_persist(&mut self, now: SimTime) {
        let interval = self
            .cfg
            .persist_initial
            .saturating_mul(1 << self.persist_shift)
            .min(self.cfg.persist_max);
        self.persist_deadline = Some(now + interval);
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rto.rto());
    }

    fn arm_rto_if_unarmed(&mut self, now: SimTime) {
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
    }

    // ------------------------------------------------------------------
    // Helpers.
    // ------------------------------------------------------------------

    fn enter_time_wait(&mut self, now: SimTime) {
        self.state = TcpState::TimeWait;
        self.time_wait_deadline = Some(now + self.cfg.time_wait);
        self.rto_deadline = None;
        self.persist_deadline = None;
        self.delack_deadline = None;
    }

    fn enter_closed(&mut self, eff: &mut Effects, event: ConnEvent) {
        self.state = TcpState::Closed;
        self.rto_deadline = None;
        self.persist_deadline = None;
        self.delack_deadline = None;
        self.time_wait_deadline = None;
        eff.events.push(event);
    }

    fn make_ack(&self) -> TcpSegment {
        self.make_seg(self.snd_nxt, TcpFlags::ACK, Bytes::new())
    }

    fn make_seg(&self, seq: u32, flags: TcpFlags, payload: Bytes) -> TcpSegment {
        let (ack, window) = match &self.recv {
            Some(recv) => (recv.rcv_nxt(), recv.window() as u16),
            None => (0, self.cfg.recv_buffer.min(65_535) as u16),
        };
        let flags = if self.recv.is_some() && !flags.contains(TcpFlags::SYN) {
            flags | TcpFlags::ACK
        } else {
            flags
        };
        // Ports are filled in by the host layer.
        let mut seg = TcpSegment::new(0, 0, seq, if flags.ack() { ack } else { 0 }, flags);
        seg.window = window;
        seg.payload = payload;
        seg
    }

    fn push_seg(&mut self, eff: &mut Effects, seg: TcpSegment) {
        self.stats.segs_out += 1;
        eff.segments.push(seg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Calls one entry point with a fresh `Effects`; returns what it wrote.
    fn fx(f: impl FnOnce(&mut Effects)) -> Effects {
        let mut eff = Effects::default();
        f(&mut eff);
        eff
    }

    /// [`fx`] for [`TcpConnection::take_data`].
    fn data(f: impl FnOnce(&mut Effects) -> Bytes) -> (Bytes, Effects) {
        let mut eff = Effects::default();
        (f(&mut eff), eff)
    }

    fn pair() -> (TcpConnection, TcpConnection) {
        let cfg = TcpConfig::default().with_delayed_ack(false);
        let mut a = TcpConnection::new(cfg.clone(), 1000);
        let mut b = TcpConnection::new(cfg, 5000);
        b.listen();
        let _ = &mut a;
        (a, b)
    }

    /// Runs segments between two connections until quiescent; returns all
    /// events observed as (endpoint, event).
    fn pump(
        a: &mut TcpConnection,
        b: &mut TcpConnection,
        now: SimTime,
        initial: Effects,
        from_a: bool,
    ) -> Vec<(char, ConnEvent)> {
        let mut events = Vec::new();
        let mut queue: std::collections::VecDeque<(bool, TcpSegment)> =
            initial.segments.into_iter().map(|s| (from_a, s)).collect();
        for e in initial.events {
            events.push((if from_a { 'a' } else { 'b' }, e));
        }
        let mut guard = 0;
        while let Some((is_from_a, seg)) = queue.pop_front() {
            guard += 1;
            assert!(guard < 10_000, "segment storm");
            let (target, tag) = if is_from_a {
                (&mut *b, 'b')
            } else {
                (&mut *a, 'a')
            };
            let eff = fx(|e| target.on_segment(now, &seg, e));
            for e in eff.events {
                events.push((tag, e));
            }
            for s in eff.segments {
                queue.push_back((!is_from_a, s));
            }
        }
        events
    }

    #[test]
    fn three_way_handshake() {
        let (mut a, mut b) = pair();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        assert_eq!(eff.segments.len(), 1);
        assert!(eff.segments[0].flags.syn());
        let events = pump(&mut a, &mut b, now, eff, true);
        assert!(events.contains(&('a', ConnEvent::Connected)));
        assert!(events.contains(&('b', ConnEvent::Connected)));
        assert_eq!(a.state(), TcpState::Established);
        assert_eq!(b.state(), TcpState::Established);
    }

    #[test]
    fn data_transfer_and_read() {
        let (mut a, mut b) = pair();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        pump(&mut a, &mut b, now, eff, true);
        let eff = fx(|e| a.write(now, b"hello wireless world", e));
        let events = pump(&mut a, &mut b, now, eff, true);
        assert!(events.contains(&('b', ConnEvent::DataReadable)));
        let (data, _) = data(|e| b.take_data(now, e));
        assert_eq!(&data[..], b"hello wireless world");
        assert_eq!(b.stats.bytes_delivered, 20);
        assert_eq!(a.stats.bytes_sent, 20);
    }

    #[test]
    fn large_transfer_respects_mss() {
        let (mut a, mut b) = pair();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        pump(&mut a, &mut b, now, eff, true);
        let payload = vec![7u8; 40_000];
        let mut eff = fx(|e| a.write(now, &payload[..], e));
        // cwnd starts at 1 MSS: only one segment goes out initially.
        assert_eq!(eff.segments.len(), 1);
        assert_eq!(eff.segments[0].payload.len(), 1460);
        // Pump to completion; ACKs grow cwnd and release more data.
        let mut received = Vec::new();
        for _round in 0..400 {
            let events = pump(&mut a, &mut b, now, std::mem::take(&mut eff), true);
            if events
                .iter()
                .any(|(t, e)| *t == 'b' && *e == ConnEvent::DataReadable)
            {
                let (data, weff) = data(|e| b.take_data(now, e));
                received.extend_from_slice(&data);
                // Window updates (if any) come from b; feeding them to a may
                // release more segments, all of which originate at a.
                for seg in weff.segments {
                    a.on_segment(now, &seg, &mut eff);
                }
            }
            if received.len() == payload.len() {
                break;
            }
            a.try_send(now, &mut eff);
        }
        assert_eq!(received.len(), payload.len());
        assert!(a.cwnd() > a.cfg.initial_cwnd());
    }

    #[test]
    fn graceful_close_both_sides() {
        let (mut a, mut b) = pair();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        pump(&mut a, &mut b, now, eff, true);
        let eff = fx(|e| a.close(now, e));
        let events = pump(&mut a, &mut b, now, eff, true);
        assert!(events.contains(&('b', ConnEvent::PeerClosed)));
        assert_eq!(a.state(), TcpState::FinWait2);
        assert_eq!(b.state(), TcpState::CloseWait);
        let eff = fx(|e| b.close(now, e));
        let events = pump(&mut a, &mut b, now, eff, false);
        assert!(events.contains(&('b', ConnEvent::Closed)));
        assert_eq!(a.state(), TcpState::TimeWait);
        assert_eq!(b.state(), TcpState::Closed);
        // TIME-WAIT expires.
        let eff = fx(|e| a.on_timer(now + SimDuration::from_secs(10), e));
        assert!(eff.events.contains(&ConnEvent::Closed));
        assert!(a.is_closed());
    }

    #[test]
    fn retransmission_timeout_and_backoff() {
        let (mut a, mut b) = pair();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        pump(&mut a, &mut b, now, eff, true);
        let eff = fx(|e| a.write(now, &[1u8; 1460], e));
        assert_eq!(eff.segments.len(), 1);
        // Drop the segment; fire the RTO.
        let deadline = a.next_deadline().expect("rto armed");
        let eff = fx(|e| a.on_timer(deadline, e));
        assert_eq!(a.stats.timeouts, 1);
        assert_eq!(eff.segments.len(), 1, "retransmission");
        assert_eq!(eff.segments[0].payload.len(), 1460);
        assert_eq!(a.cwnd(), 1460, "cwnd collapsed");
        // Second timeout doubles the RTO.
        let d2 = a.next_deadline().expect("rearmed");
        let eff2 = fx(|e| a.on_timer(d2, e));
        assert_eq!(a.stats.timeouts, 2);
        assert!(!eff2.segments.is_empty());
        let d3 = a.next_deadline().unwrap();
        assert!(d3 - d2 > d2 - deadline, "exponential backoff");
        let _ = b;
    }

    #[test]
    fn fast_retransmit_on_triple_dupack() {
        let cfg = TcpConfig::default().with_delayed_ack(false);
        let mut a = TcpConnection::new(cfg.clone(), 0);
        let mut b = TcpConnection::new(cfg, 0);
        b.listen();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        pump(&mut a, &mut b, now, eff, true);
        // Open the cwnd artificially by acking a warmup transfer.
        let warm = fx(|e| a.write(now, vec![0u8; 1460 * 4], e));
        pump(&mut a, &mut b, now, warm, true);
        data(|e| b.take_data(now, e));
        assert!(a.cwnd() >= 4 * 1460, "cwnd={}", a.cwnd());

        // Send 5 segments; drop the first, deliver the rest.
        let eff = fx(|e| a.write(now, vec![1u8; 1460 * 5], e));
        let segs = eff.segments;
        assert!(
            segs.len() >= 4,
            "need at least 4 segments, got {}",
            segs.len()
        );
        let mut dup_acks = Vec::new();
        for seg in &segs[1..] {
            let eff = fx(|e| b.on_segment(now, seg, e));
            dup_acks.extend(eff.segments);
        }
        assert!(
            dup_acks.len() >= 3,
            "out-of-order segments produce immediate ACKs"
        );
        let mut retx = Vec::new();
        for ack in &dup_acks {
            let eff = fx(|e| a.on_segment(now, ack, e));
            retx.extend(eff.segments);
        }
        assert_eq!(a.stats.fast_retransmits, 1);
        assert!(
            retx.iter().any(|s| s.seq == segs[0].seq),
            "head retransmitted"
        );
        // Deliver the retransmission: receiver's ACK jumps past the hole.
        let eff = fx(|e| b.on_segment(now, retx.iter().find(|s| s.seq == segs[0].seq).unwrap(), e));
        let cumulative = eff.segments.last().expect("ack");
        assert!(seq_ge(cumulative.ack, segs.last().unwrap().seq));
    }

    #[test]
    fn zero_window_triggers_persist_probes() {
        let cfg = TcpConfig::default()
            .with_delayed_ack(false)
            .with_recv_buffer(2920);
        let mut a = TcpConnection::new(cfg.clone(), 0);
        let mut b = TcpConnection::new(cfg, 0);
        b.listen();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        pump(&mut a, &mut b, now, eff, true);
        // Fill the receiver's 2920-byte buffer; the app never reads.
        let eff = fx(|e| a.write(now, vec![3u8; 10_000], e));
        pump(&mut a, &mut b, now, eff, true);
        let mut eff = Effects::default();
        a.try_send(now, &mut eff);
        pump(&mut a, &mut b, now, eff, true);
        assert_eq!(a.snd_wnd(), 0, "receiver advertised zero window");
        assert!(a.pending_send_bytes() > 0);
        // Persist timer must be armed; firing it sends a 1-byte probe.
        let d = a.next_deadline().expect("persist armed");
        let eff = fx(|e| a.on_timer(d, e));
        assert_eq!(a.stats.persist_probes, 1);
        assert_eq!(eff.segments.len(), 1);
        assert_eq!(eff.segments[0].payload.len(), 1);
        // Receiver still full: probe elicits a zero-window ACK.
        let reply = fx(|e| b.on_segment(d, &eff.segments[0], e));
        assert!(!reply.segments.is_empty());
        assert_eq!(reply.segments[0].window, 0);
        // App reads; window-update ACK reopens the stream.
        let (_data, weff) = data(|e| b.take_data(d, e));
        assert!(!weff.segments.is_empty(), "window update sent");
        let eff = fx(|e| a.on_segment(d, &weff.segments[0], e));
        assert!(a.snd_wnd() > 0);
        assert!(!eff.segments.is_empty(), "transmission resumed");
    }

    #[test]
    fn reset_tears_down() {
        let (mut a, mut b) = pair();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        pump(&mut a, &mut b, now, eff, true);
        let eff = fx(|e| a.abort(e));
        let events = pump(&mut a, &mut b, now, eff, true);
        assert!(events.contains(&('b', ConnEvent::Reset)));
        assert!(a.is_closed() && b.is_closed());
    }

    #[test]
    fn syn_gives_up_after_retries() {
        let cfg = TcpConfig::default();
        let mut a = TcpConnection::new(cfg, 0);
        let mut now = SimTime::ZERO;
        let _ = fx(|e| a.connect(now, e));
        let mut gave_up = false;
        for _ in 0..=MAX_SYN_RETRIES + 1 {
            let Some(d) = a.next_deadline() else { break };
            now = d;
            let eff = fx(|e| a.on_timer(now, e));
            if eff.events.contains(&ConnEvent::Reset) {
                gave_up = true;
                break;
            }
        }
        assert!(gave_up);
        assert!(a.is_closed());
    }

    #[test]
    fn tahoe_collapses_cwnd_on_dupacks() {
        let cfg = TcpConfig::default()
            .with_delayed_ack(false)
            .with_recovery(Recovery::Tahoe);
        let mut a = TcpConnection::new(cfg.clone(), 0);
        let mut b = TcpConnection::new(cfg, 0);
        b.listen();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        pump(&mut a, &mut b, now, eff, true);
        let warm = fx(|e| a.write(now, vec![0u8; 1460 * 4], e));
        pump(&mut a, &mut b, now, warm, true);
        data(|e| b.take_data(now, e));
        let eff = fx(|e| a.write(now, vec![1u8; 1460 * 5], e));
        let segs = eff.segments;
        let mut dup_acks = Vec::new();
        for seg in &segs[1..] {
            dup_acks.extend(fx(|e| b.on_segment(now, seg, e)).segments);
        }
        for ack in &dup_acks {
            fx(|e| a.on_segment(now, ack, e));
        }
        assert_eq!(a.cwnd(), 1460, "Tahoe slow-starts after fast retransmit");
    }

    #[test]
    fn backoff_survives_ack_of_retransmission() {
        // RFC 6298 §5.7 regression: the ACK of a retransmitted segment is
        // ambiguous under Karn's rule, so it must NOT collapse the
        // exponential backoff — only a fresh RTT sample may. The bug this
        // pins: clear_backoff() on every new-data ACK let one ambiguous ACK
        // reset a backed-off timer on a path that was still losing.
        let (mut a, mut b) = pair();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        pump(&mut a, &mut b, now, eff, true);
        let _lost = fx(|e| a.write(now, &[1u8; 1460], e)); // never delivered
        let d1 = a.next_deadline().expect("rto armed");
        let _also_lost = fx(|e| a.on_timer(d1, e));
        let d2 = a.next_deadline().expect("rto rearmed");
        let eff = fx(|e| a.on_timer(d2, e));
        assert_eq!(a.rto.backoff_shift(), 2, "two timeouts, two doublings");
        // The second retransmission gets through; its ACK reaches a.
        let reply = fx(|e| b.on_segment(d2, &eff.segments[0], e));
        let ack = reply.segments.last().expect("ack");
        fx(|e| a.on_segment(d2, ack, e));
        assert_eq!(
            a.rto.backoff_shift(),
            2,
            "ambiguous ACK of a retransmission must not clear the backoff"
        );
        // New (never-retransmitted) data yields a measurable RTT sample,
        // which is what legitimately ends the backoff sequence.
        let eff = fx(|e| a.write(d2, &[2u8; 100], e));
        let reply = fx(|e| b.on_segment(d2, &eff.segments[0], e));
        fx(|e| a.on_segment(d2, reply.segments.last().expect("ack"), e));
        assert_eq!(a.rto.backoff_shift(), 0, "fresh sample ends the backoff");
    }

    #[test]
    fn reno_full_ack_deflates_cwnd_to_ssthresh() {
        // Pins the RFC 6582 fast-recovery exit: when the ACK finally covers
        // `recover`, the inflated window must deflate to exactly ssthresh —
        // keeping the inflation would burst into a path that just lost.
        let cfg = TcpConfig::default().with_delayed_ack(false);
        let mut a = TcpConnection::new(cfg.clone(), 0);
        let mut b = TcpConnection::new(cfg, 0);
        b.listen();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        pump(&mut a, &mut b, now, eff, true);
        let warm = fx(|e| a.write(now, vec![0u8; 1460 * 4], e));
        pump(&mut a, &mut b, now, warm, true);
        data(|e| b.take_data(now, e));
        // Drop the head of a 5-segment flight; dupacks trigger recovery.
        let segs = fx(|e| a.write(now, vec![1u8; 1460 * 5], e)).segments;
        let mut dup_acks = Vec::new();
        for seg in &segs[1..] {
            dup_acks.extend(fx(|e| b.on_segment(now, seg, e)).segments);
        }
        let mut retx = Vec::new();
        for ack in &dup_acks {
            retx.extend(fx(|e| a.on_segment(now, ack, e)).segments);
        }
        assert!(a.in_fast_recovery, "triple dupack entered recovery");
        assert!(a.cwnd() > a.ssthresh(), "window inflated during recovery");
        // Deliver the retransmitted head: the receiver's cumulative ACK
        // covers the whole flight (a full ACK past `recover`).
        let head = retx.iter().find(|s| s.seq == segs[0].seq).expect("retx");
        let full = fx(|e| b.on_segment(now, head, e));
        let cumulative = full.segments.last().expect("cumulative ack");
        fx(|e| a.on_segment(now, cumulative, e));
        assert!(!a.in_fast_recovery, "full ACK exits recovery");
        assert_eq!(a.cwnd(), a.ssthresh(), "window deflates to ssthresh");
    }

    /// Drives a pair into a zero-window standoff: `a` has filled `b`'s
    /// 2920-byte receive buffer and still has unsent data queued.
    fn zero_window_pair() -> (TcpConnection, TcpConnection) {
        let cfg = TcpConfig::default()
            .with_delayed_ack(false)
            .with_recv_buffer(2920);
        let mut a = TcpConnection::new(cfg.clone(), 0);
        let mut b = TcpConnection::new(cfg, 0);
        b.listen();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        pump(&mut a, &mut b, now, eff, true);
        let eff = fx(|e| a.write(now, vec![3u8; 10_000], e));
        pump(&mut a, &mut b, now, eff, true);
        let mut eff = Effects::default();
        a.try_send(now, &mut eff);
        pump(&mut a, &mut b, now, eff, true);
        assert_eq!(a.snd_wnd(), 0);
        assert!(a.pending_send_bytes() > 0);
        (a, b)
    }

    /// Fires the sender's persist timer once with the probe lost in
    /// transit (the case where backoff matters: no reply means no reset);
    /// returns the fire time.
    fn fire_persist_probe_lost(a: &mut TcpConnection) -> SimTime {
        let d = a.persist_deadline.expect("persist armed");
        let eff = fx(|e| a.on_timer(d, e));
        assert!(!eff.segments.is_empty(), "probe emitted");
        d
    }

    #[test]
    fn persist_probe_interval_clamps_at_persist_max() {
        // Pins the persist backoff clamp: with probes lost in transit the
        // intervals double from persist_initial but never exceed
        // persist_max (RFC 9293 §3.8.6.1 leaves the cap to the
        // implementation; ours is configured).
        let (mut a, _b) = zero_window_pair();
        let mut fires = Vec::new();
        for _ in 0..12 {
            fires.push(fire_persist_probe_lost(&mut a));
        }
        assert_eq!(a.stats.persist_probes, 12);
        let gaps: Vec<SimDuration> = fires.windows(2).map(|w| w[1] - w[0]).collect();
        for w in gaps.windows(2) {
            assert!(w[1] >= w[0], "persist intervals never shrink mid-standoff");
        }
        for gap in &gaps {
            assert!(*gap <= a.cfg.persist_max, "interval exceeds persist_max");
        }
        assert_eq!(
            *gaps.last().unwrap(),
            a.cfg.persist_max,
            "backoff saturates at persist_max"
        );
    }

    #[test]
    fn persist_backoff_resets_when_window_reopens() {
        // Pins the persist reset: once the peer reopens its window, the
        // next zero-window episode must start probing at persist_initial
        // again, not at the previous episode's backed-off interval.
        let (mut a, mut b) = zero_window_pair();
        for _ in 0..4 {
            fire_persist_probe_lost(&mut a);
        }
        assert!(a.persist_shift >= 4, "backoff built up during standoff");
        // The receiving app drains its buffer; the window-update ACK
        // reopens the stream.
        let now = a.persist_deadline.expect("persist armed");
        let (_data, weff) = data(|e| b.take_data(now, e));
        for seg in &weff.segments {
            fx(|e| a.on_segment(now, seg, e));
        }
        assert!(a.snd_wnd() > 0, "window reopened");
        assert_eq!(a.persist_shift, 0, "backoff cleared on reopen");
        assert_eq!(a.persist_deadline, None, "persist timer disarmed");
    }

    #[test]
    fn accepted_probe_byte_restarts_persist_backoff() {
        // When the receiver accepts and ACKs the probe byte (our elastic
        // receive buffer takes in-order data even at a zero advertised
        // window), the sender made forward progress, so restarting the
        // backoff from persist_initial is the correct behaviour — pin it.
        let (mut a, mut b) = zero_window_pair();
        let d = a.persist_deadline.expect("persist armed");
        let eff = fx(|e| a.on_timer(d, e));
        assert!(a.persist_shift > 0);
        for seg in eff.segments {
            for reply in fx(|e| b.on_segment(d, &seg, e)).segments {
                fx(|e| a.on_segment(d, &reply, e));
            }
        }
        assert_eq!(a.persist_shift, 0, "acked probe byte is forward progress");
        assert!(a.persist_deadline.is_some(), "still zero-window: keep probing");
    }

    #[test]
    fn lost_persist_probes_reprobe_the_window_edge() {
        // Regression (found by the conformance oracle): every persist fire
        // used to send the NEXT unsent byte, so a standoff with lost
        // probes crept the sender one byte further past the advertised
        // window per probe — bytes a conforming receiver must discard. A
        // lost probe must be followed by a re-probe of the same
        // window-edge byte.
        let (mut a, _b) = zero_window_pair();
        let edge = a.snd_una;
        let mut probes = Vec::new();
        for _ in 0..6 {
            let d = a.persist_deadline.expect("persist armed");
            for seg in fx(|e| a.on_timer(d, e)).segments {
                if !seg.payload.is_empty() {
                    probes.push((seg.seq, seg.payload.len()));
                }
            }
        }
        assert_eq!(probes.len(), 6);
        for (seq, len) in &probes {
            assert_eq!(*seq, edge, "probe re-sends the window-edge byte");
            assert_eq!(*len, 1);
        }
        assert_eq!(a.flight_size(), 1, "never more than one byte past the window");
    }

    #[test]
    fn timeout_pullback_streams_lost_flight_without_more_timeouts() {
        // Regression (surfaced by the disconnection workloads once the
        // RFC 6298 backoff fix landed): an RTO used to retransmit only
        // the head segment while snd_nxt stayed at the end of the lost
        // flight, so flight_size() never dropped below the one-MSS window
        // and recovery crawled at one segment per backed-off RTO. The
        // go-back-N pullback lets ACK-clocked slow start stream the whole
        // lost range after a single timeout.
        let (mut a, mut b) = pair();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        pump(&mut a, &mut b, now, eff, true);
        // Warm-up transfer grows cwnd past one segment.
        let warm = fx(|e| a.write(now, vec![0u8; 1460 * 4], e));
        pump(&mut a, &mut b, now, warm, true);
        data(|e| b.take_data(now, e));
        // A multi-segment flight, lost in its entirety.
        let segs = fx(|e| a.write(now, vec![7u8; 1460 * 5], e)).segments;
        assert!(segs.len() >= 2, "flight has {} segments", segs.len());
        let d = a.rto_deadline.expect("rto armed");
        let eff = fx(|e| a.on_timer(d, e));
        assert_eq!(a.stats.timeouts, 1);
        assert_eq!(eff.segments.len(), 1, "the timeout itself resends the head");
        assert_eq!(eff.segments[0].seq, a.snd_una);
        // From here the recovery must be ACK-clocked: no further timer
        // fires, the whole flight arrives.
        pump(&mut a, &mut b, d, eff, true);
        let (data, _weff) = data(|e| b.take_data(d, e));
        assert_eq!(data.len(), 1460 * 5, "full flight recovered via slow start");
        assert_eq!(a.stats.timeouts, 1, "no additional timeouts needed");
        assert_eq!(a.flight_size(), 0);
    }

    #[test]
    fn delayed_ack_batches() {
        let cfg = TcpConfig::default(); // Delayed ACK on.
        let mut a = TcpConnection::new(cfg.clone(), 0);
        let mut b = TcpConnection::new(cfg, 0);
        b.listen();
        let now = SimTime::ZERO;
        let eff = fx(|e| a.connect(now, e));
        pump(&mut a, &mut b, now, eff, true);
        // One in-order segment: no immediate ACK, delack timer armed.
        let seg1 = fx(|e| a.write(now, &[1u8; 100], e)).segments.remove(0);
        let eff = fx(|e| b.on_segment(now, &seg1, e));
        assert!(eff.segments.is_empty(), "first segment's ACK delayed");
        let d = b.next_deadline().expect("delack armed");
        let eff = fx(|e| b.on_timer(d, e));
        assert_eq!(eff.segments.len(), 1, "delayed ACK fires");
        assert!(eff.segments[0].flags.ack());
    }
}
