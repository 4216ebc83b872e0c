//! The host node: socket table, TCP/UDP/ICMP demultiplexing, and the
//! application runtime.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use comma_obs::{fields, LazyGauge};
use comma_rt::Bytes;
use comma_netsim::addr::Ipv4Addr;
use comma_netsim::node::{IfaceId, Node, NodeCtx};
use comma_netsim::packet::{IcmpMessage, IpPayload, Packet, TcpFlags, TcpSegment, UdpDatagram};
use comma_netsim::routing::RoutingTable;
use comma_netsim::sched::TimerHandle;
use comma_netsim::time::SimTime;
use comma_rt::Rng;

use crate::apps::{App, AppCtx, AppOp, SocketId};
use crate::config::TcpConfig;
use crate::conn::{ConnEvent, ConnStats, Effects, TcpConnection, TcpState};

/// Timer-token bit marking application timers (vs. socket timers).
pub const APP_TIMER_BIT: u64 = 1 << 63;
/// Timer-token bit reserved for node wrappers (e.g. Mobile IP hosts); the
/// host ignores such tokens so wrappers can own them.
pub const WRAPPER_TIMER_BIT: u64 = 1 << 62;

/// Identifier of an application installed on a host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AppId(pub usize);

/// SNMP-style host counters sampled by the EEM.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCounters {
    /// IP datagrams received (including misaddressed ones).
    pub ip_in_receives: u64,
    /// IP datagrams delivered to local protocols.
    pub ip_in_delivers: u64,
    /// IP datagrams this host originated.
    pub ip_out_requests: u64,
    /// IP datagrams discarded for lack of a local consumer.
    pub ip_in_discards: u64,
    /// TCP segments received.
    pub tcp_in_segs: u64,
    /// TCP segments sent.
    pub tcp_out_segs: u64,
    /// Active opens initiated.
    pub tcp_active_opens: u64,
    /// Passive opens completed.
    pub tcp_passive_opens: u64,
    /// RSTs sent for unmatched segments.
    pub tcp_estab_resets: u64,
    /// UDP datagrams received for a bound port.
    pub udp_in_datagrams: u64,
    /// UDP datagrams received for an unbound port.
    pub udp_no_ports: u64,
    /// UDP datagrams sent.
    pub udp_out_datagrams: u64,
    /// ICMP messages received.
    pub icmp_in_msgs: u64,
    /// ICMP messages sent.
    pub icmp_out_msgs: u64,
}

/// Snapshot of one socket for monitoring tools (Kati, the EEM).
#[derive(Clone, Debug)]
pub struct SocketInfo {
    /// Socket handle.
    pub sock: SocketId,
    /// Local address/port.
    pub local: (Ipv4Addr, u16),
    /// Remote address/port.
    pub remote: (Ipv4Addr, u16),
    /// Connection state.
    pub state: TcpState,
    /// Per-connection counters.
    pub stats: ConnStats,
    /// Owning application.
    pub app: AppId,
}

/// A connection's local then remote address and port, flat so it packs
/// into 12 bytes.
type SocketKey = (Ipv4Addr, u16, Ipv4Addr, u16);

#[derive(Clone)]
struct SocketEntry {
    conn: TcpConnection,
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),
    app: usize,
    passive: bool,
    /// What the socket keeps only while someone is watching, built on the
    /// first publish: the disabled path never allocates, and a dark socket
    /// carries one null pointer.
    obs: Option<Box<ConnObs>>,
    /// Last state published to the flight recorder.
    last_state: TcpState,
    /// The armed connection timer: `(deadline, handle)`. Re-arming for a
    /// different deadline cancels the pending event; re-arming for the
    /// same deadline is a no-op, so RTO restarts and delayed-ACK
    /// rescheduling stop flooding the scheduler with stale timers.
    timer: Option<(SimTime, TimerHandle)>,
}

/// The `tcp.*` gauges [`Host::publish_obs`] sets after every effects batch.
const CONN_GAUGES: [&str; 12] = [
    "tcp.cwnd",
    "tcp.ssthresh",
    "tcp.rto_us",
    "tcp.srtt_us",
    "tcp.retransmits",
    "tcp.timeouts",
    "tcp.fast_retransmits",
    "tcp.dup_acks",
    "tcp.segs_out",
    "tcp.segs_in",
    "tcp.bytes_sent",
    "tcp.bytes_delivered",
];

/// A connection's obs scope (`<host>.conn.<l>:<lp>-<r>:<rp>`) and its
/// gauges as write sites, one per [`CONN_GAUGES`] key.
#[derive(Clone)]
struct ConnObs {
    scope: String,
    gauges: [LazyGauge; CONN_GAUGES.len()],
}

#[derive(Clone)]
struct Listener {
    port: u16,
    app: usize,
    cfg: Option<TcpConfig>,
}

enum AppEventKind {
    Started,
    Connected(SocketId),
    Accepted(SocketId, (Ipv4Addr, u16)),
    Data(SocketId, Bytes),
    PeerClosed(SocketId),
    Closed(SocketId),
    Timer(u64),
    Udp {
        from: (Ipv4Addr, u16),
        dst_port: u16,
        payload: Bytes,
    },
}

enum Work {
    Effects(usize, Effects),
    AppEvent(usize, AppEventKind),
}

/// An end host: runs applications over the TCP/UDP/ICMP stack.
pub struct Host {
    /// Shared with snapshots (a name never changes).
    name: Arc<str>,
    addrs: Vec<Ipv4Addr>,
    /// Routing table (hosts usually hold a single default route).
    pub table: RoutingTable,
    default_cfg: TcpConfig,
    apps: Vec<Option<Box<dyn App>>>,
    sockets: Vec<SocketEntry>,
    /// `(local, remote)` of each entry of `sockets`, at the same index: the
    /// per-segment demux scans these 12-byte keys instead of whole
    /// entries. Shared with snapshots (a fork copies no keys; the first
    /// connect or accept after one does).
    keys: Arc<Vec<SocketKey>>,
    listeners: Vec<Listener>,
    udp_binds: HashMap<u16, usize>,
    next_port: u16,
    /// SNMP-style counters.
    pub counters: HostCounters,
    /// Kept between calls for their capacity, so that a segment in steady
    /// state allocates nothing: the effect set of the connection call that
    /// starts a run, applied in place, and the queue of the work it leads
    /// to.
    eff: Effects,
    work: VecDeque<Work>,
}

impl Host {
    /// Creates a host with one address and a default route on interface 0.
    pub fn new(name: impl Into<String>, addr: Ipv4Addr) -> Self {
        let mut table = RoutingTable::new();
        table.add_default(IfaceId(0));
        Host {
            name: Arc::from(name.into()),
            addrs: vec![addr],
            table,
            default_cfg: TcpConfig::default(),
            apps: Vec::new(),
            sockets: Vec::new(),
            keys: Arc::default(),
            listeners: Vec::new(),
            udp_binds: HashMap::new(),
            next_port: 1024,
            counters: HostCounters::default(),
            eff: Effects::default(),
            work: VecDeque::new(),
        }
    }

    /// Sets the default TCP configuration for new connections.
    pub fn set_default_config(&mut self, cfg: TcpConfig) {
        self.default_cfg = cfg;
    }

    /// Returns the host's primary address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addrs[0]
    }

    /// Adds an additional local address (e.g. a Mobile IP home address).
    pub fn add_addr(&mut self, addr: Ipv4Addr) {
        if !self.addrs.contains(&addr) {
            self.addrs.push(addr);
        }
    }

    /// Installs an application.
    pub fn add_app(&mut self, app: Box<dyn App>) -> AppId {
        self.apps.push(Some(app));
        AppId(self.apps.len() - 1)
    }

    /// Typed access to an installed application.
    ///
    /// # Panics
    ///
    /// Panics if the application is not of type `T`.
    pub fn app_mut<T: 'static>(&mut self, id: AppId) -> &mut T {
        self.apps[id.0]
            .as_mut()
            .expect("app currently dispatched")
            .as_any()
            .downcast_mut::<T>()
            .expect("app type mismatch")
    }

    /// Returns monitoring snapshots of every socket.
    pub fn socket_infos(&self) -> Vec<SocketInfo> {
        self.sockets
            .iter()
            .enumerate()
            .map(|(i, e)| SocketInfo {
                sock: SocketId(i),
                local: e.local,
                remote: e.remote,
                state: e.conn.state(),
                stats: e.conn.stats,
                app: AppId(e.app),
            })
            .collect()
    }

    /// Number of connections currently in the ESTABLISHED or CLOSE-WAIT
    /// states (the SNMP `tcpCurrEstab` definition).
    pub fn curr_estab(&self) -> u64 {
        self.sockets
            .iter()
            .filter(|e| matches!(e.conn.state(), TcpState::Established | TcpState::CloseWait))
            .count() as u64
    }

    /// Sum of retransmitted segments over all sockets (`tcpRetransSegs`).
    pub fn retrans_segs(&self) -> u64 {
        self.sockets.iter().map(|e| e.conn.stats.retransmits).sum()
    }

    /// Direct access to a connection (used by tests and by the proxy's
    /// stream tools).
    pub fn connection(&self, sock: SocketId) -> Option<&TcpConnection> {
        self.sockets.get(sock.0).map(|e| &e.conn)
    }

    /// Adds a socket and its demux key; returns its index.
    fn push_socket(&mut self, e: SocketEntry) -> usize {
        Arc::make_mut(&mut self.keys).push((e.local.0, e.local.1, e.remote.0, e.remote.1));
        self.sockets.push(e);
        self.sockets.len() - 1
    }

    /// Next ephemeral port no open socket, listener or UDP binding holds.
    /// A closed connection has given its port back (TIME-WAIT has not).
    fn alloc_port(&mut self) -> u16 {
        loop {
            let port = self.next_port;
            self.next_port = self.next_port.checked_add(1).unwrap_or(1024);
            let in_use = self.sockets.iter().any(|e| e.local.1 == port && !e.conn.is_closed())
                || self.listeners.iter().any(|l| l.port == port)
                || self.udp_binds.contains_key(&port);
            if !in_use {
                return port;
            }
        }
    }

    // ------------------------------------------------------------------
    // Work-queue machinery.
    // ------------------------------------------------------------------

    /// Calls `sock`'s connection with the host's own effect set, applies
    /// what the call wrote, and runs the work that leads to. Applying it
    /// first is what queueing it would do: the queue starts empty.
    fn run_conn(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        sock: usize,
        call: impl FnOnce(&mut TcpConnection, &mut Effects),
    ) {
        let (mut eff, mut work) = (std::mem::take(&mut self.eff), std::mem::take(&mut self.work));
        call(&mut self.sockets[sock].conn, &mut eff);
        self.apply_effects(ctx, sock, &mut eff, &mut work);
        self.drain(ctx, &mut work);
        (self.eff, self.work) = (eff, work);
    }

    /// Runs an application event and the work it leads to.
    fn run_app(&mut self, ctx: &mut NodeCtx<'_>, app: usize, kind: AppEventKind) {
        let mut work = std::mem::take(&mut self.work);
        work.push_back(Work::AppEvent(app, kind));
        self.drain(ctx, &mut work);
        self.work = work;
    }

    fn drain(&mut self, ctx: &mut NodeCtx<'_>, work: &mut VecDeque<Work>) {
        let mut guard = 0usize;
        while let Some(item) = work.pop_front() {
            guard += 1;
            if guard > 100_000 {
                ctx.log("host work queue runaway; aborting drain");
                work.clear();
                return;
            }
            match item {
                Work::Effects(sock, mut eff) => self.apply_effects(ctx, sock, &mut eff, work),
                Work::AppEvent(app, kind) => self.fire_app(ctx, app, kind, work),
            }
        }
    }

    fn apply_effects(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        sock: usize,
        eff: &mut Effects,
        work: &mut VecDeque<Work>,
    ) {
        for seg in eff.segments.drain(..) {
            self.emit_segment(ctx, sock, seg);
        }
        for event in eff.events.drain(..) {
            let (app, passive, remote) = {
                let e = &self.sockets[sock];
                (e.app, e.passive, e.remote)
            };
            let kind = match event {
                ConnEvent::Connected => {
                    if passive {
                        self.counters.tcp_passive_opens += 1;
                        AppEventKind::Accepted(SocketId(sock), remote)
                    } else {
                        AppEventKind::Connected(SocketId(sock))
                    }
                }
                ConnEvent::DataReadable => {
                    let mut eff2 = Effects::default();
                    let data = self.sockets[sock].conn.take_data(ctx.now, &mut eff2);
                    if !eff2.is_empty() {
                        work.push_back(Work::Effects(sock, eff2));
                    }
                    if data.is_empty() {
                        continue;
                    }
                    AppEventKind::Data(SocketId(sock), data)
                }
                ConnEvent::PeerClosed => AppEventKind::PeerClosed(SocketId(sock)),
                ConnEvent::Closed | ConnEvent::Reset => AppEventKind::Closed(SocketId(sock)),
            };
            work.push_back(Work::AppEvent(app, kind));
        }
        self.arm_socket_timer(ctx, sock);
        self.publish_obs(ctx, sock);
    }

    /// Publishes this connection's congestion/RTT/loss state into the
    /// observability registry, and a `tcp.state` flight-recorder event on
    /// every state transition. Called after each batch of effects; a single
    /// branch when observability is disabled.
    fn publish_obs(&mut self, ctx: &mut NodeCtx<'_>, sock: usize) {
        let Some(obs) = ctx.obs() else {
            return;
        };
        let entry = &mut self.sockets[sock];
        let ConnObs { scope, gauges } = &mut **entry.obs.get_or_insert_with(|| {
            Box::new(ConnObs {
                scope: format!(
                    "{}.conn.{}:{}-{}:{}",
                    self.name, entry.local.0, entry.local.1, entry.remote.0, entry.remote.1
                ),
                gauges: Default::default(),
            })
        });
        let conn = &entry.conn;
        let st = conn.stats;
        // In `CONN_GAUGES` order; no smoothed RTT before the first sample.
        let values = [
            Some(conn.cwnd() as f64),
            Some(conn.ssthresh() as f64),
            Some(conn.rto().as_micros() as f64),
            conn.srtt().map(|srtt| srtt.as_micros() as f64),
            Some(st.retransmits as f64),
            Some(st.timeouts as f64),
            Some(st.fast_retransmits as f64),
            Some(st.dup_acks as f64),
            Some(st.segs_out as f64),
            Some(st.segs_in as f64),
            Some(st.bytes_sent as f64),
            Some(st.bytes_delivered as f64),
        ];
        for ((gauge, key), v) in gauges.iter_mut().zip(CONN_GAUGES).zip(values) {
            if let Some(v) = v {
                gauge.set(obs, scope, key, v);
            }
        }
        let state = conn.state();
        if state != entry.last_state {
            obs.event(
                ctx.now.as_micros(),
                scope,
                "tcp.state",
                fields!(
                    from = format!("{:?}", entry.last_state),
                    to = format!("{:?}", state),
                    cwnd = conn.cwnd(),
                    ssthresh = conn.ssthresh(),
                ),
            );
            entry.last_state = state;
        }
    }

    fn arm_socket_timer(&mut self, ctx: &mut NodeCtx<'_>, sock: usize) {
        let entry = &mut self.sockets[sock];
        let deadline = entry.conn.next_deadline();
        match (deadline, entry.timer) {
            // Already armed for exactly this deadline: nothing to do.
            (Some(d), Some((armed, _))) if d == armed => {}
            // Deadline moved (RTO restart, delayed-ACK reschedule) or
            // newly needed: cancel the superseded event, arm the new one.
            (Some(d), prev) => {
                if let Some((_, h)) = prev {
                    ctx.cancel_timer(h);
                }
                let h = ctx.set_timer_at(d, sock as u64);
                entry.timer = Some((d, h));
            }
            // No deadline left: kill any pending timer.
            (None, Some((_, h))) => {
                ctx.cancel_timer(h);
                entry.timer = None;
            }
            (None, None) => {}
        }
    }

    fn emit_segment(&mut self, ctx: &mut NodeCtx<'_>, sock: usize, mut seg: TcpSegment) {
        let entry = &self.sockets[sock];
        seg.src_port = entry.local.1;
        seg.dst_port = entry.remote.1;
        let pkt = Packet::tcp(entry.local.0, entry.remote.0, seg);
        self.counters.tcp_out_segs += 1;
        self.send_ip(ctx, pkt);
    }

    fn send_ip(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        self.counters.ip_out_requests += 1;
        match self.table.lookup(pkt.ip.dst) {
            Some(iface) => ctx.send(iface, pkt),
            None => {
                self.counters.ip_in_discards += 1;
            }
        }
    }

    fn fire_app(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        app_idx: usize,
        kind: AppEventKind,
        work: &mut VecDeque<Work>,
    ) {
        let Some(mut app) = self.apps[app_idx].take() else {
            return;
        };
        let mut actx = AppCtx::new(ctx.now);
        match kind {
            AppEventKind::Started => app.on_start(&mut actx),
            AppEventKind::Connected(s) => app.on_connected(&mut actx, s),
            AppEventKind::Accepted(s, peer) => app.on_accepted(&mut actx, s, peer),
            AppEventKind::Data(s, data) => app.on_data(&mut actx, s, data),
            AppEventKind::PeerClosed(s) => app.on_peer_closed(&mut actx, s),
            AppEventKind::Closed(s) => app.on_closed(&mut actx, s),
            AppEventKind::Timer(t) => app.on_timer(&mut actx, t),
            AppEventKind::Udp {
                from,
                dst_port,
                payload,
            } => app.on_udp(&mut actx, from, dst_port, payload),
        }
        self.apps[app_idx] = Some(app);
        let ops = actx.take_ops();
        self.run_ops(ctx, app_idx, ops, work);
    }

    fn run_ops(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        app_idx: usize,
        ops: Vec<AppOp>,
        work: &mut VecDeque<Work>,
    ) {
        for op in ops {
            match op {
                AppOp::Connect { remote, cfg } => {
                    let local_port = self.alloc_port();
                    let cfg = cfg.unwrap_or_else(|| self.default_cfg.clone());
                    let iss: u32 = ctx.rng.gen();
                    let mut conn = TcpConnection::new(cfg, iss);
                    let mut eff = Effects::default();
                    conn.connect(ctx.now, &mut eff);
                    self.counters.tcp_active_opens += 1;
                    let sock = self.push_socket(SocketEntry {
                        conn,
                        local: (self.addrs[0], local_port),
                        remote,
                        app: app_idx,
                        passive: false,
                        obs: None,
                        last_state: TcpState::Closed,
                        timer: None,
                    });
                    work.push_back(Work::Effects(sock, eff));
                }
                AppOp::Listen { port, cfg } => {
                    self.listeners.push(Listener {
                        port,
                        app: app_idx,
                        cfg,
                    });
                }
                AppOp::Send { sock, data } => {
                    if let Some(entry) = self.sockets.get_mut(sock.0) {
                        let mut eff = Effects::default();
                        entry.conn.write(ctx.now, data, &mut eff);
                        work.push_back(Work::Effects(sock.0, eff));
                    }
                }
                AppOp::Close { sock } => {
                    if let Some(entry) = self.sockets.get_mut(sock.0) {
                        let mut eff = Effects::default();
                        entry.conn.close(ctx.now, &mut eff);
                        work.push_back(Work::Effects(sock.0, eff));
                    }
                }
                AppOp::BindUdp { port } => {
                    self.udp_binds.insert(port, app_idx);
                }
                AppOp::SendUdp {
                    src_port,
                    dst,
                    payload,
                } => {
                    self.counters.udp_out_datagrams += 1;
                    let dgram = UdpDatagram {
                        src_port,
                        dst_port: dst.1,
                        payload,
                    };
                    let pkt = Packet::udp(self.addrs[0], dst.0, dgram);
                    self.send_ip(ctx, pkt);
                }
                AppOp::Timer { delay, token } => {
                    let enc = APP_TIMER_BIT | ((app_idx as u64) << 32) | (token & 0xffff_ffff);
                    ctx.set_timer_after(delay, enc);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Packet input.
    // ------------------------------------------------------------------

    /// Handles a packet addressed to this host; exposed so wrappers (Mobile
    /// IP hosts) can feed decapsulated traffic through the same path.
    pub fn handle_local(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        self.counters.ip_in_delivers += 1;
        match pkt.body {
            IpPayload::Tcp(seg) => self.handle_tcp(ctx, pkt.ip.src, pkt.ip.dst, seg),
            IpPayload::Udp(dgram) => self.handle_udp(ctx, pkt.ip.src, dgram),
            IpPayload::Icmp(msg) => self.handle_icmp(ctx, pkt.ip.src, pkt.ip.dst, msg),
            IpPayload::Encap(inner) => {
                // A bare host receiving a tunnel unwraps it only if the
                // inner packet is also addressed to it.
                if self.addrs.contains(&inner.ip.dst) {
                    self.handle_local(ctx, *inner);
                } else {
                    self.counters.ip_in_discards += 1;
                }
            }
        }
    }

    fn handle_tcp(&mut self, ctx: &mut NodeCtx<'_>, src: Ipv4Addr, dst: Ipv4Addr, seg: TcpSegment) {
        self.counters.tcp_in_segs += 1;
        let key = (dst, seg.dst_port, src, seg.src_port);
        let found = self
            .keys
            .iter()
            .zip(&self.sockets)
            .position(|(&k, e)| k == key && !e.conn.is_closed());
        let now = ctx.now;
        if let Some(sock) = found {
            self.run_conn(ctx, sock, |conn, eff| conn.on_segment(now, &seg, eff));
            return;
        }
        // No established socket: try a listener.
        if seg.flags.syn() && !seg.flags.ack() {
            if let Some(listener) = self.listeners.iter().find(|l| l.port == seg.dst_port) {
                let app = listener.app;
                let cfg = listener
                    .cfg
                    .clone()
                    .unwrap_or_else(|| self.default_cfg.clone());
                let iss: u32 = ctx.rng.gen();
                let mut conn = TcpConnection::new(cfg, iss);
                conn.listen();
                let sock = self.push_socket(SocketEntry {
                    conn,
                    local: (dst, seg.dst_port),
                    remote: (src, seg.src_port),
                    app,
                    passive: true,
                    obs: None,
                    last_state: TcpState::Closed,
                    timer: None,
                });
                self.run_conn(ctx, sock, |conn, eff| conn.on_segment(now, &seg, eff));
                return;
            }
        }
        // Unmatched: reset (RFC 793) unless the segment itself is a RST.
        if !seg.flags.rst() {
            self.counters.tcp_estab_resets += 1;
            let mut rst = if seg.flags.ack() {
                TcpSegment::new(seg.dst_port, seg.src_port, seg.ack, 0, TcpFlags::RST)
            } else {
                let ack = seg.seq.wrapping_add(seg.seq_len());
                TcpSegment::new(
                    seg.dst_port,
                    seg.src_port,
                    0,
                    ack,
                    TcpFlags::RST | TcpFlags::ACK,
                )
            };
            rst.window = 0;
            let pkt = Packet::tcp(dst, src, rst);
            self.counters.tcp_out_segs += 1;
            self.send_ip(ctx, pkt);
        }
    }

    fn handle_udp(&mut self, ctx: &mut NodeCtx<'_>, src: Ipv4Addr, dgram: UdpDatagram) {
        match self.udp_binds.get(&dgram.dst_port).copied() {
            Some(app) => {
                self.counters.udp_in_datagrams += 1;
                let kind = AppEventKind::Udp {
                    from: (src, dgram.src_port),
                    dst_port: dgram.dst_port,
                    payload: dgram.payload,
                };
                self.run_app(ctx, app, kind);
            }
            None => {
                self.counters.udp_no_ports += 1;
            }
        }
    }

    fn handle_icmp(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        msg: IcmpMessage,
    ) {
        self.counters.icmp_in_msgs += 1;
        if let IcmpMessage::EchoRequest { id, seq, payload } = msg {
            let reply = Packet::icmp(dst, src, IcmpMessage::EchoReply { id, seq, payload });
            self.counters.icmp_out_msgs += 1;
            self.send_ip(ctx, reply);
        }
    }
}

impl Node for Host {
    fn name(&self) -> &str {
        &self.name
    }

    fn addresses(&self) -> Vec<Ipv4Addr> {
        self.addrs.clone()
    }

    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // Every application at once: a burst with a queue of its own, so
        // the host does not keep its capacity.
        let mut work: VecDeque<Work> =
            (0..self.apps.len()).map(|i| Work::AppEvent(i, AppEventKind::Started)).collect();
        self.drain(ctx, &mut work);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _iface: IfaceId, pkt: Packet) {
        self.counters.ip_in_receives += 1;
        if self.addrs.contains(&pkt.ip.dst) || pkt.ip.dst.is_broadcast() {
            self.handle_local(ctx, pkt);
        } else {
            // Plain hosts do not forward.
            self.counters.ip_in_discards += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if token & WRAPPER_TIMER_BIT != 0 {
            return; // Owned by a wrapping node.
        }
        if token & APP_TIMER_BIT != 0 {
            let app = ((token >> 32) & 0x3fff_ffff) as usize;
            let user = token & 0xffff_ffff;
            self.run_app(ctx, app, AppEventKind::Timer(user));
            return;
        }
        let sock = token as usize;
        if sock >= self.sockets.len() {
            return;
        }
        // The fired event consumed its handle; forget it before re-arming.
        self.sockets[sock].timer = None;
        let now = ctx.now;
        self.run_conn(ctx, sock, |conn, eff| conn.on_timer(now, eff));
    }

    fn can_clone(&self) -> bool {
        self.apps.iter().all(|slot| slot.as_ref().is_some_and(|app| app.can_clone()))
    }

    fn clone_node(&self) -> Option<Arc<dyn Node>> {
        let mut apps: Vec<Option<Box<dyn App>>> = Vec::with_capacity(self.apps.len());
        for slot in &self.apps {
            apps.push(Some(slot.as_ref()?.clone_app()?));
        }
        Some(Arc::new(Host {
            name: self.name.clone(),
            addrs: self.addrs.clone(),
            table: self.table.clone(),
            default_cfg: self.default_cfg.clone(),
            apps,
            sockets: self.sockets.clone(),
            keys: self.keys.clone(),
            listeners: self.listeners.clone(),
            udp_binds: self.udp_binds.clone(),
            next_port: self.next_port,
            counters: self.counters,
            eff: Effects::default(),
            work: VecDeque::new(),
        }))
    }

    fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        for a in &self.addrs {
            h.update_u64(a.0 as u64);
        }
        // Socket slot order records accept/connect history (two SYNs in
        // the same due batch allocate slots in arrival order), while the
        // wire behavior of each connection is keyed by its 4-tuple. Each
        // socket's word names its 4-tuple, and the words are folded as a
        // sum, which no order changes: converging schedules hash equal
        // regardless of which connection was set up first, and nothing is
        // collected or sorted.
        let mut socks = 0u64;
        for e in &self.sockets {
            let mut sub = comma_rt::digest::StateHasher::new();
            sub.update_u64((e.local.0 .0 as u64) << 16 | e.local.1 as u64);
            sub.update_u64((e.remote.0 .0 as u64) << 16 | e.remote.1 as u64);
            sub.update_u64(e.app as u64);
            sub.update_u64(e.passive as u64);
            // The armed deadline matters (it decides what fires when); the
            // slab handle is allocation history and must stay out.
            sub.update_u64(e.timer.map_or(u64::MAX, |(d, _)| d.as_micros()));
            e.conn.state_digest(&mut sub);
            socks = socks.wrapping_add(sub.finish());
        }
        h.update_u64(self.sockets.len() as u64).update_u64(socks);
        for l in &self.listeners {
            h.update_u64(l.port as u64);
            h.update_u64(l.app as u64);
        }
        // HashMap iteration order is arbitrary: a sum again.
        let mut binds = 0u64;
        for (&port, &app) in &self.udp_binds {
            let mut sub = comma_rt::digest::StateHasher::new();
            sub.update_u64(port as u64).update_u64(app as u64);
            binds = binds.wrapping_add(sub.finish());
        }
        h.update_u64(self.udp_binds.len() as u64).update_u64(binds);
        h.update_u64(self.next_port as u64);
        for (i, slot) in self.apps.iter().enumerate() {
            if let Some(app) = slot {
                h.update_u64(i as u64);
                app.state_digest(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Start `next_port` near the top and wrap: a closed connection's port
    /// is handed out again, a live one's is still skipped. (With closed
    /// sockets counted as holders, a host hung in `alloc_port` once every
    /// port had been used once.)
    #[test]
    fn closed_sockets_give_their_ports_back() {
        let mut host = Host::new("h", Ipv4Addr::new(10, 0, 0, 1));
        for (port, live) in [(65_534, false), (65_535, true), (1024, false), (1025, true)] {
            let mut conn = TcpConnection::new(TcpConfig::default(), 1);
            if live {
                conn.connect(SimTime::ZERO, &mut Effects::default());
            }
            host.push_socket(SocketEntry {
                conn,
                local: (host.addrs[0], port),
                remote: (Ipv4Addr::new(10, 0, 0, 2), 80),
                app: 0,
                passive: false,
                obs: None,
                last_state: TcpState::Closed,
                timer: None,
            });
        }
        host.next_port = 65_534;
        assert_eq!(host.alloc_port(), 65_534, "a closed socket's port is free");
        assert_eq!(host.alloc_port(), 1024, "live 65535 skipped, wrapped, recycled");
        assert_eq!(host.alloc_port(), 1026, "live 1025 skipped");
    }
}
