//! The application layer: a callback-driven [`App`] trait plus the standard
//! workloads used throughout the evaluation (bulk transfer, sink, echo,
//! request/response).

use std::any::Any;

use comma_rt::Bytes;
use comma_netsim::addr::Ipv4Addr;
use comma_netsim::stats::Summary;
use comma_netsim::time::{SimDuration, SimTime};

use crate::config::TcpConfig;

/// Handle to a TCP socket on a host.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SocketId(pub usize);

/// Operations an application may request from its host.
#[derive(Debug)]
pub enum AppOp {
    /// Open a connection to `remote`; `on_connected` fires when established.
    Connect {
        /// Destination address and port.
        remote: (Ipv4Addr, u16),
        /// Optional per-connection TCP configuration.
        cfg: Option<TcpConfig>,
    },
    /// Listen for connections on a port.
    Listen {
        /// Local port.
        port: u16,
        /// Optional configuration applied to accepted connections.
        cfg: Option<TcpConfig>,
    },
    /// Send bytes on an open socket.
    Send {
        /// Socket to write to.
        sock: SocketId,
        /// Bytes to queue.
        data: Bytes,
    },
    /// Close the sending side of a socket.
    Close {
        /// Socket to close.
        sock: SocketId,
    },
    /// Bind a UDP port to this application.
    BindUdp {
        /// Local UDP port.
        port: u16,
    },
    /// Send a UDP datagram.
    SendUdp {
        /// Source port (should be bound by this app).
        src_port: u16,
        /// Destination address and port.
        dst: (Ipv4Addr, u16),
        /// Payload.
        payload: Bytes,
    },
    /// Request an application timer callback.
    Timer {
        /// Delay before `on_timer` fires.
        delay: SimDuration,
        /// Token passed back to `on_timer`.
        token: u64,
    },
}

/// Context handed to application callbacks.
pub struct AppCtx {
    /// Current simulated time.
    pub now: SimTime,
    ops: Vec<AppOp>,
}

impl AppCtx {
    /// Creates a context at `now`.
    pub fn new(now: SimTime) -> Self {
        AppCtx {
            now,
            ops: Vec::new(),
        }
    }

    /// Requests an operation.
    pub fn op(&mut self, op: AppOp) {
        self.ops.push(op);
    }

    /// Convenience: connect to `remote`.
    pub fn connect(&mut self, remote: (Ipv4Addr, u16)) {
        self.ops.push(AppOp::Connect { remote, cfg: None });
    }

    /// Convenience: listen on `port`.
    pub fn listen(&mut self, port: u16) {
        self.ops.push(AppOp::Listen { port, cfg: None });
    }

    /// Convenience: send `data` on `sock`.
    pub fn send(&mut self, sock: SocketId, data: impl Into<Bytes>) {
        self.ops.push(AppOp::Send {
            sock,
            data: data.into(),
        });
    }

    /// Convenience: close `sock`.
    pub fn close(&mut self, sock: SocketId) {
        self.ops.push(AppOp::Close { sock });
    }

    /// Convenience: arm an app timer.
    pub fn timer(&mut self, delay: SimDuration, token: u64) {
        self.ops.push(AppOp::Timer { delay, token });
    }

    /// Drains the requested operations (host use).
    pub fn take_ops(&mut self) -> Vec<AppOp> {
        std::mem::take(&mut self.ops)
    }
}

/// A host-resident application.
///
/// All callbacks receive an [`AppCtx`] through which the application issues
/// socket operations; they must not block.
pub trait App: Send + Sync {
    /// Short name for diagnostics.
    fn name(&self) -> &str;

    /// Called once at simulation start.
    fn on_start(&mut self, _ctx: &mut AppCtx) {}

    /// An active open completed.
    fn on_connected(&mut self, _ctx: &mut AppCtx, _sock: SocketId) {}

    /// A passive open completed (a peer connected to our listener).
    fn on_accepted(&mut self, _ctx: &mut AppCtx, _sock: SocketId, _peer: (Ipv4Addr, u16)) {}

    /// In-order data arrived.
    fn on_data(&mut self, _ctx: &mut AppCtx, _sock: SocketId, _data: Bytes) {}

    /// The peer closed its sending side.
    fn on_peer_closed(&mut self, _ctx: &mut AppCtx, _sock: SocketId) {}

    /// The connection fully closed (or was reset).
    fn on_closed(&mut self, _ctx: &mut AppCtx, _sock: SocketId) {}

    /// An application timer fired.
    fn on_timer(&mut self, _ctx: &mut AppCtx, _token: u64) {}

    /// A UDP datagram arrived on a bound port.
    fn on_udp(
        &mut self,
        _ctx: &mut AppCtx,
        _from: (Ipv4Addr, u16),
        _dst_port: u16,
        _payload: Bytes,
    ) {
    }

    /// Typed access for tools and tests.
    fn as_any(&mut self) -> &mut dyn Any;

    /// Deep copy for world snapshots ([`comma_netsim::sim::Simulator::snapshot`]).
    /// Applications that do not opt in (the default) make their host — and
    /// therefore the world — unsnapshottable.
    fn clone_app(&self) -> Option<Box<dyn App>> {
        None
    }

    /// Whether [`App::clone_app`] would succeed, without the copy when the
    /// app can tell (a host asks when a snapshot first shares it). The
    /// default makes the copy and drops it.
    fn can_clone(&self) -> bool {
        self.clone_app().is_some()
    }

    /// Folds *behavior-relevant* application state into a canonical world
    /// fingerprint. Pure counters and measurement fields should be left
    /// out; the default (empty) is sound only for stateless applications.
    fn state_digest(&self, _h: &mut comma_rt::digest::StateHasher) {}
}

// ---------------------------------------------------------------------
// Standard workloads.
// ---------------------------------------------------------------------

/// Sends `total_bytes` to a remote sink as fast as TCP allows, then closes.
///
/// The whole transfer is written at connect time, [`BulkSender::CHUNK`]
/// bytes a write. With the default pattern, `(i % 251) as u8`, a write
/// copies nothing: it is a view of one period buffer shared by every
/// sender on the thread, so ten thousand senders hold one payload between
/// them.
#[derive(Clone)]
pub struct BulkSender {
    remote: (Ipv4Addr, u16),
    total_bytes: usize,
    sent: usize,
    sock: Option<SocketId>,
    /// Time the connection was established.
    pub started_at: Option<SimTime>,
    /// Time the connection fully closed.
    pub finished_at: Option<SimTime>,
    /// Byte value pattern generator (deterministic, compressible or not);
    /// `None` is the default `(i % 251) as u8`, written as views of
    /// [`mod_251`]'s shared period.
    pattern: Option<fn(usize) -> u8>,
}

/// `(i % 251) as u8` for `i` in `from..from + n`, `n ≤ CHUNK`:
/// [`BulkSender`]'s default pattern as a view of one buffer holding
/// `251 + CHUNK` pattern bytes, so every write starts inside the first
/// period and fits. The buffer is built once per thread, not per process:
/// a shared one would put every segment's refcount on one cache line that
/// all shard workers write.
fn mod_251(from: usize, n: usize) -> Bytes {
    thread_local! {
        static PERIODS: Bytes =
            (0..251 + BulkSender::CHUNK).map(|i| (i % 251) as u8).collect();
    }
    assert!(n <= BulkSender::CHUNK, "a {n}-byte write is longer than a chunk");
    let at = from % 251;
    PERIODS.with(|p| p.slice(at..at + n))
}

impl BulkSender {
    /// Bytes per write.
    pub const CHUNK: usize = 16 * 1024;

    /// Creates a sender that transfers `total_bytes` of a mildly
    /// compressible pattern.
    pub fn new(remote: (Ipv4Addr, u16), total_bytes: usize) -> Self {
        BulkSender {
            remote,
            total_bytes,
            sent: 0,
            sock: None,
            started_at: None,
            finished_at: None,
            pattern: None,
        }
    }

    /// Uses a custom byte pattern (e.g. highly compressible text). An
    /// arbitrary pattern has no period, so each write is generated.
    pub fn with_pattern(mut self, pattern: fn(usize) -> u8) -> Self {
        self.pattern = Some(pattern);
        self
    }

    /// Returns the socket handle once connected.
    pub fn socket(&self) -> Option<SocketId> {
        self.sock
    }

    fn push_chunks(&mut self, ctx: &mut AppCtx) {
        let Some(sock) = self.sock else { return };
        while self.sent < self.total_bytes {
            let n = Self::CHUNK.min(self.total_bytes - self.sent);
            let data = match self.pattern {
                Some(pattern) => (self.sent..self.sent + n).map(pattern).collect(),
                None => mod_251(self.sent, n),
            };
            ctx.send(sock, data);
            self.sent += n;
        }
        ctx.close(sock);
    }
}

impl App for BulkSender {
    fn name(&self) -> &str {
        "bulk-sender"
    }

    fn on_start(&mut self, ctx: &mut AppCtx) {
        ctx.op(AppOp::Connect {
            remote: self.remote,
            cfg: None,
        });
    }

    fn on_connected(&mut self, ctx: &mut AppCtx, sock: SocketId) {
        self.sock = Some(sock);
        self.started_at = Some(ctx.now);
        self.push_chunks(ctx);
    }

    fn on_closed(&mut self, ctx: &mut AppCtx, _sock: SocketId) {
        self.finished_at = Some(ctx.now);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_app(&self) -> Option<Box<dyn App>> {
        Some(Box::new(self.clone()))
    }

    fn can_clone(&self) -> bool {
        true
    }

    fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        h.update_u64(self.sent as u64);
        h.update_u64(self.sock.map_or(u64::MAX, |s| s.0 as u64));
    }
}

/// Accepts connections on a port and discards (but accounts) everything
/// received, closing when the peer closes.
#[derive(Clone)]
pub struct Sink {
    port: u16,
    /// Total payload bytes received, per completed plus live connections.
    pub bytes_received: usize,
    /// Time of the first payload byte.
    pub first_data_at: Option<SimTime>,
    /// Time of the most recent payload byte.
    pub last_data_at: Option<SimTime>,
    /// Number of connections accepted.
    pub accepted: usize,
    /// Number of connections fully closed.
    pub closed: usize,
    /// Received bytes kept for content verification (bounded).
    pub capture: Vec<u8>,
    /// Maximum bytes retained in `capture`.
    pub capture_limit: usize,
}

impl Sink {
    /// Creates a sink listening on `port`.
    pub fn new(port: u16) -> Self {
        Sink {
            port,
            bytes_received: 0,
            first_data_at: None,
            last_data_at: None,
            accepted: 0,
            closed: 0,
            capture: Vec::new(),
            capture_limit: 0,
        }
    }

    /// Retains up to `limit` received bytes for verification.
    pub fn with_capture(mut self, limit: usize) -> Self {
        self.capture_limit = limit;
        self
    }

    /// Elapsed time between the first and last payload byte.
    pub fn transfer_time(&self) -> Option<SimDuration> {
        Some(self.last_data_at?.saturating_since(self.first_data_at?))
    }
}

impl App for Sink {
    fn name(&self) -> &str {
        "sink"
    }

    fn on_start(&mut self, ctx: &mut AppCtx) {
        ctx.listen(self.port);
    }

    fn on_accepted(&mut self, _ctx: &mut AppCtx, _sock: SocketId, _peer: (Ipv4Addr, u16)) {
        self.accepted += 1;
    }

    fn on_data(&mut self, ctx: &mut AppCtx, _sock: SocketId, data: Bytes) {
        if self.first_data_at.is_none() {
            self.first_data_at = Some(ctx.now);
        }
        self.last_data_at = Some(ctx.now);
        self.bytes_received += data.len();
        if self.capture.len() < self.capture_limit {
            if self.capture.is_empty() {
                // The sink knows how much it will keep: one allocation of
                // exactly that, not a doubling series overshooting it.
                self.capture.reserve_exact(self.capture_limit);
            }
            let room = self.capture_limit - self.capture.len();
            self.capture
                .extend_from_slice(&data[..data.len().min(room)]);
        }
    }

    fn on_peer_closed(&mut self, ctx: &mut AppCtx, sock: SocketId) {
        // No more bytes from this peer: give back the growth slack.
        self.capture.shrink_to_fit();
        ctx.close(sock);
    }

    fn on_closed(&mut self, _ctx: &mut AppCtx, _sock: SocketId) {
        self.closed += 1;
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_app(&self) -> Option<Box<dyn App>> {
        Some(Box::new(self.clone()))
    }

    fn can_clone(&self) -> bool {
        true
    }
    // state_digest: the sink's future behavior does not depend on its
    // accounting fields, so the default (empty) digest is exact here.
}

/// Echoes every received byte back to the sender.
#[derive(Clone)]
pub struct EchoServer {
    port: u16,
    /// Bytes echoed.
    pub bytes_echoed: usize,
}

impl EchoServer {
    /// Creates an echo server on `port`.
    pub fn new(port: u16) -> Self {
        EchoServer {
            port,
            bytes_echoed: 0,
        }
    }
}

impl App for EchoServer {
    fn name(&self) -> &str {
        "echo"
    }

    fn on_start(&mut self, ctx: &mut AppCtx) {
        ctx.listen(self.port);
    }

    fn on_data(&mut self, ctx: &mut AppCtx, sock: SocketId, data: Bytes) {
        self.bytes_echoed += data.len();
        ctx.send(sock, data);
    }

    fn on_peer_closed(&mut self, ctx: &mut AppCtx, sock: SocketId) {
        ctx.close(sock);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_app(&self) -> Option<Box<dyn App>> {
        Some(Box::new(self.clone()))
    }
}

/// Issues fixed-size requests to an [`EchoServer`]-style responder and
/// records per-transaction latency; models interactive traffic.
#[derive(Clone)]
pub struct RequestResponse {
    remote: (Ipv4Addr, u16),
    request_size: usize,
    transactions: usize,
    completed: usize,
    pending_bytes: usize,
    sock: Option<SocketId>,
    sent_at: Option<SimTime>,
    think_time: SimDuration,
    /// Per-transaction latencies in milliseconds.
    pub latencies_ms: Summary,
    /// Set once all transactions completed and the connection closed.
    pub done: bool,
}

impl RequestResponse {
    /// Creates a client that runs `transactions` request/response rounds of
    /// `request_size` bytes each against `remote`.
    pub fn new(remote: (Ipv4Addr, u16), request_size: usize, transactions: usize) -> Self {
        RequestResponse {
            remote,
            request_size,
            transactions,
            completed: 0,
            pending_bytes: 0,
            sock: None,
            sent_at: None,
            think_time: SimDuration::ZERO,
            latencies_ms: Summary::new(),
            done: false,
        }
    }

    /// Adds a pause between transactions.
    pub fn with_think_time(mut self, think: SimDuration) -> Self {
        self.think_time = think;
        self
    }

    /// Transactions completed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    fn fire(&mut self, ctx: &mut AppCtx) {
        let Some(sock) = self.sock else { return };
        self.pending_bytes = self.request_size;
        self.sent_at = Some(ctx.now);
        ctx.send(sock, vec![0x55u8; self.request_size]);
    }
}

impl App for RequestResponse {
    fn name(&self) -> &str {
        "request-response"
    }

    fn on_start(&mut self, ctx: &mut AppCtx) {
        ctx.connect(self.remote);
    }

    fn on_connected(&mut self, ctx: &mut AppCtx, sock: SocketId) {
        self.sock = Some(sock);
        self.fire(ctx);
    }

    fn on_data(&mut self, ctx: &mut AppCtx, sock: SocketId, data: Bytes) {
        self.pending_bytes = self.pending_bytes.saturating_sub(data.len());
        if self.pending_bytes == 0 && self.sent_at.is_some() {
            let rtt = ctx
                .now
                .saturating_since(self.sent_at.take().expect("sent_at"));
            self.latencies_ms.add(rtt.as_secs_f64() * 1e3);
            self.completed += 1;
            if self.completed >= self.transactions {
                ctx.close(sock);
            } else if self.think_time == SimDuration::ZERO {
                self.fire(ctx);
            } else {
                ctx.timer(self.think_time, 1);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, _token: u64) {
        self.fire(ctx);
    }

    fn on_closed(&mut self, _ctx: &mut AppCtx, _sock: SocketId) {
        self.done = true;
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_app(&self) -> Option<Box<dyn App>> {
        Some(Box::new(self.clone()))
    }

    fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        h.update_u64(self.completed as u64);
        h.update_u64(self.pending_bytes as u64);
        h.update_u64(self.sock.map_or(u64::MAX, |s| s.0 as u64));
        h.update_u64(self.sent_at.map_or(u64::MAX, |t| t.as_micros()));
        h.update_u64(self.done as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_ctx_collects_ops() {
        let mut ctx = AppCtx::new(SimTime::from_secs(1));
        ctx.connect((Ipv4Addr::new(1, 2, 3, 4), 80));
        ctx.listen(80);
        ctx.timer(SimDuration::from_millis(5), 7);
        let ops = ctx.take_ops();
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[0], AppOp::Connect { .. }));
        assert!(matches!(ops[2], AppOp::Timer { token: 7, .. }));
        assert!(ctx.take_ops().is_empty());
    }

    #[test]
    fn bulk_sender_pushes_and_closes() {
        let mut app = BulkSender::new((Ipv4Addr::new(1, 2, 3, 4), 9000), 40_000);
        let mut ctx = AppCtx::new(SimTime::ZERO);
        app.on_start(&mut ctx);
        assert!(matches!(ctx.take_ops()[0], AppOp::Connect { .. }));
        app.on_connected(&mut ctx, SocketId(0));
        let ops = ctx.take_ops();
        // 40 KB in 16 KB chunks = 3 sends + 1 close.
        assert_eq!(ops.len(), 4);
        assert!(matches!(ops[3], AppOp::Close { .. }));
        let total: usize = ops
            .iter()
            .filter_map(|op| match op {
                AppOp::Send { data, .. } => Some(data.len()),
                _ => None,
            })
            .sum();
        assert_eq!(total, 40_000);
    }

    #[test]
    fn default_pattern_is_i_mod_251_from_any_offset() {
        let first = mod_251(0, 1);
        let storage = first.as_ptr() as usize..first.as_ptr() as usize + 251 + BulkSender::CHUNK;
        for (from, n) in [(0, 0), (0, 1), (0, 251), (250, 2), (7, 16 * 1024), (251 * 3 - 1, 600)] {
            let want: Vec<u8> = (from..from + n).map(|i| (i % 251) as u8).collect();
            let got = mod_251(from, n);
            assert_eq!(got, want, "from {from}, {n} bytes");
            assert!(storage.contains(&(got.as_ptr() as usize)), "from {from}: copied");
        }
        // Chunk boundaries do not restart the pattern.
        let mut app = BulkSender::new((Ipv4Addr::new(1, 2, 3, 4), 9000), 40_000);
        let mut ctx = AppCtx::new(SimTime::ZERO);
        app.on_connected(&mut ctx, SocketId(0));
        let sent: Vec<u8> = ctx
            .take_ops()
            .into_iter()
            .filter_map(|op| match op {
                AppOp::Send { data, .. } => Some(data.to_vec()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(sent, (0..40_000).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    }

    #[test]
    fn sink_accounts_bytes_and_closes_back() {
        let mut sink = Sink::new(9000).with_capture(8);
        let mut ctx = AppCtx::new(SimTime::from_millis(3));
        sink.on_accepted(&mut ctx, SocketId(1), (Ipv4Addr::new(9, 9, 9, 9), 1234));
        sink.on_data(&mut ctx, SocketId(1), Bytes::from_static(b"hello world"));
        assert_eq!(sink.bytes_received, 11);
        assert_eq!(&sink.capture[..], b"hello wo");
        assert_eq!(sink.capture.capacity(), 8, "the capture is reserved once, exactly");
        sink.on_peer_closed(&mut ctx, SocketId(1));
        assert!(matches!(ctx.take_ops()[0], AppOp::Close { .. }));
        assert_eq!(sink.transfer_time(), Some(SimDuration::ZERO));
    }

    #[test]
    fn request_response_measures_latency() {
        let mut rr = RequestResponse::new((Ipv4Addr::new(1, 1, 1, 1), 7), 100, 2);
        let mut ctx = AppCtx::new(SimTime::ZERO);
        rr.on_connected(&mut ctx, SocketId(0));
        assert!(matches!(ctx.take_ops()[0], AppOp::Send { .. }));
        let mut ctx = AppCtx::new(SimTime::from_millis(40));
        rr.on_data(&mut ctx, SocketId(0), Bytes::from(vec![0u8; 100]));
        assert_eq!(rr.completed(), 1);
        assert!((rr.latencies_ms.mean() - 40.0).abs() < 1e-9);
        // Second transaction fires immediately.
        assert!(matches!(ctx.take_ops()[0], AppOp::Send { .. }));
        let mut ctx = AppCtx::new(SimTime::from_millis(90));
        rr.on_data(&mut ctx, SocketId(0), Bytes::from(vec![0u8; 100]));
        assert!(matches!(ctx.take_ops()[0], AppOp::Close { .. }));
        rr.on_closed(&mut ctx, SocketId(0));
        assert!(rr.done);
    }
}
