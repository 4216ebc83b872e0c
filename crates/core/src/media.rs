//! Layered real-time media workload (the application class motivating
//! hierarchical discard, §8.3.2): a UDP source emitting hierarchically
//! encoded frames, and a sink measuring per-layer delivery and latency.

use std::any::Any;

use comma_rt::Bytes;
use comma_netsim::addr::Ipv4Addr;
use comma_netsim::stats::Summary;
use comma_netsim::time::SimDuration;
use comma_tcp::apps::{App, AppCtx, AppOp};

use comma_filters::appdata::{synth_body, Frame, FrameKind};

/// A constant-rate layered video source over UDP.
pub struct MediaSource {
    dst: (Ipv4Addr, u16),
    src_port: u16,
    /// Number of layers per frame period (layer 0 = base).
    pub layers: u8,
    /// Bytes per layer record body.
    pub layer_size: usize,
    /// Frame period.
    pub interval: SimDuration,
    /// Stop after this many frame periods (0 = run forever).
    pub max_frames: u32,
    seq: u32,
    /// Records sent, per layer (up to 8 tracked).
    pub sent_by_layer: [u64; 8],
}

const FRAME_TOKEN: u64 = 1;

impl MediaSource {
    /// Creates a source sending to `dst`.
    pub fn new(dst: (Ipv4Addr, u16), layers: u8, layer_size: usize, interval: SimDuration) -> Self {
        MediaSource {
            dst,
            src_port: 5004,
            layers: layers.clamp(1, 8),
            layer_size,
            interval,
            max_frames: 0,
            seq: 0,
            sent_by_layer: [0; 8],
        }
    }

    /// Limits the stream to `n` frame periods.
    pub fn with_max_frames(mut self, n: u32) -> Self {
        self.max_frames = n;
        self
    }

    /// Total records sent.
    pub fn sent(&self) -> u64 {
        self.sent_by_layer.iter().sum()
    }

    fn emit_frame(&mut self, ctx: &mut AppCtx) {
        for layer in 0..self.layers {
            let frame = Frame {
                kind: FrameKind::VideoLayer,
                importance: self.layers - layer,
                layer,
                seq: self.seq,
                timestamp_us: ctx.now.as_micros(),
                body: synth_body(FrameKind::VideoLayer, self.seq, self.layer_size),
            };
            self.sent_by_layer[layer as usize] += 1;
            ctx.op(AppOp::SendUdp {
                src_port: self.src_port,
                dst: self.dst,
                payload: Bytes::from(frame.encode()),
            });
        }
        self.seq += 1;
    }
}

impl App for MediaSource {
    fn name(&self) -> &str {
        "media-source"
    }

    fn on_start(&mut self, ctx: &mut AppCtx) {
        ctx.op(AppOp::BindUdp {
            port: self.src_port,
        });
        ctx.timer(self.interval, FRAME_TOKEN);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, token: u64) {
        if token != FRAME_TOKEN {
            return;
        }
        if self.max_frames > 0 && self.seq >= self.max_frames {
            return;
        }
        self.emit_frame(ctx);
        ctx.timer(self.interval, FRAME_TOKEN);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Receives layered media and accounts per-layer delivery and latency.
pub struct MediaSink {
    port: u16,
    /// Records received, per layer.
    pub received_by_layer: [u64; 8],
    /// One-way latency in milliseconds, per layer.
    pub latency_ms_by_layer: Vec<Summary>,
    /// Highest frame sequence observed.
    pub max_seq: u32,
    /// Records that failed to parse.
    pub malformed: u64,
}

impl MediaSink {
    /// Creates a sink listening on `port`.
    pub fn new(port: u16) -> Self {
        MediaSink {
            port,
            received_by_layer: [0; 8],
            latency_ms_by_layer: (0..8).map(|_| Summary::new()).collect(),
            max_seq: 0,
            malformed: 0,
        }
    }

    /// Total records received.
    pub fn received(&self) -> u64 {
        self.received_by_layer.iter().sum()
    }
}

impl App for MediaSink {
    fn name(&self) -> &str {
        "media-sink"
    }

    fn on_start(&mut self, ctx: &mut AppCtx) {
        ctx.op(AppOp::BindUdp { port: self.port });
    }

    fn on_udp(&mut self, ctx: &mut AppCtx, _from: (Ipv4Addr, u16), _dst: u16, payload: Bytes) {
        match Frame::decode(&payload) {
            Some((frame, _)) => {
                let idx = (frame.layer as usize).min(7);
                self.received_by_layer[idx] += 1;
                let latency_us = ctx.now.as_micros().saturating_sub(frame.timestamp_us);
                self.latency_ms_by_layer[idx].add(latency_us as f64 / 1e3);
                self.max_seq = self.max_seq.max(frame.seq);
            }
            None => self.malformed += 1,
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sends a fixed sequence of typed records over one TCP connection, then
/// closes — the "legacy structured-stream application" the semantic
/// services (removal, translation) operate on.
pub struct RecordSender {
    remote: (Ipv4Addr, u16),
    frames: Vec<Frame>,
    sock: Option<comma_tcp::apps::SocketId>,
    /// Set when the connection has fully closed.
    pub done: bool,
    /// Total encoded bytes sent.
    pub bytes_sent: usize,
}

impl RecordSender {
    /// Creates a sender that transmits `frames` to `remote`.
    pub fn new(remote: (Ipv4Addr, u16), frames: Vec<Frame>) -> Self {
        RecordSender {
            remote,
            frames,
            sock: None,
            done: false,
            bytes_sent: 0,
        }
    }

    /// Builds a deterministic mixed-importance record workload.
    pub fn synthetic(remote: (Ipv4Addr, u16), count: u32, body_len: usize) -> Self {
        let frames = (0..count)
            .map(|i| Frame {
                kind: match i % 4 {
                    0 => FrameKind::Telemetry,
                    1 => FrameKind::Text,
                    2 => FrameKind::ImageColor,
                    _ => FrameKind::FormattedText,
                },
                importance: (i % 4) as u8,
                layer: 0,
                seq: i,
                timestamp_us: 0,
                body: synth_body(FrameKind::Text, i, body_len),
            })
            .collect();
        RecordSender::new(remote, frames)
    }
}

impl App for RecordSender {
    fn name(&self) -> &str {
        "record-sender"
    }

    fn on_start(&mut self, ctx: &mut AppCtx) {
        ctx.connect(self.remote);
    }

    fn on_connected(&mut self, ctx: &mut AppCtx, sock: comma_tcp::apps::SocketId) {
        self.sock = Some(sock);
        let mut stream = Vec::new();
        for frame in &self.frames {
            stream.extend(frame.encode());
        }
        self.bytes_sent = stream.len();
        ctx.send(sock, stream);
        ctx.close(sock);
    }

    fn on_closed(&mut self, _ctx: &mut AppCtx, _sock: comma_tcp::apps::SocketId) {
        self.done = true;
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comma_netsim::time::SimTime;

    #[test]
    fn source_emits_layered_records() {
        let mut src = MediaSource::new(
            ("1.2.3.4".parse().unwrap(), 5004),
            3,
            400,
            SimDuration::from_millis(40),
        );
        let mut ctx = AppCtx::new(SimTime::ZERO);
        src.on_start(&mut ctx);
        let ops = ctx.take_ops();
        assert_eq!(ops.len(), 2, "bind + timer");
        let mut ctx = AppCtx::new(SimTime::from_millis(40));
        src.on_timer(&mut ctx, FRAME_TOKEN);
        let sends: Vec<_> = ctx
            .take_ops()
            .into_iter()
            .filter(|op| matches!(op, AppOp::SendUdp { .. }))
            .collect();
        assert_eq!(sends.len(), 3, "one record per layer");
        assert_eq!(src.sent(), 3);
    }

    #[test]
    fn sink_measures_latency_per_layer() {
        let mut sink = MediaSink::new(5004);
        let frame = Frame {
            kind: FrameKind::VideoLayer,
            importance: 3,
            layer: 1,
            seq: 7,
            timestamp_us: 1_000,
            body: synth_body(FrameKind::VideoLayer, 7, 100),
        };
        let mut ctx = AppCtx::new(SimTime::from_micros(26_000));
        sink.on_udp(
            &mut ctx,
            ("9.9.9.9".parse().unwrap(), 5004),
            5004,
            Bytes::from(frame.encode()),
        );
        assert_eq!(sink.received_by_layer[1], 1);
        assert!((sink.latency_ms_by_layer[1].mean() - 25.0).abs() < 1e-9);
        assert_eq!(sink.max_seq, 7);
        // Garbage counts as malformed.
        sink.on_udp(
            &mut ctx,
            ("9.9.9.9".parse().unwrap(), 5004),
            5004,
            Bytes::from_static(b"xx"),
        );
        assert_eq!(sink.malformed, 1);
    }

    #[test]
    fn max_frames_stops_the_source() {
        let mut src = MediaSource::new(
            ("1.2.3.4".parse().unwrap(), 5004),
            1,
            100,
            SimDuration::from_millis(10),
        )
        .with_max_frames(2);
        let mut ctx = AppCtx::new(SimTime::ZERO);
        src.on_start(&mut ctx);
        ctx.take_ops();
        for t in 1..=5u64 {
            let mut ctx = AppCtx::new(SimTime::from_millis(t * 10));
            src.on_timer(&mut ctx, FRAME_TOKEN);
        }
        assert_eq!(src.sent(), 2);
    }
}
