//! The typed application-record format used by the semantic services
//! (data removal, hierarchical discard, data-type translation; §8.3 and
//! Table 8.1).
//!
//! Applications that structure their streams as self-describing records let
//! the proxy interpret content without application cooperation — the
//! "knowledge of application data" the thesis's transparent services rely
//! on. The format is deliberately simple: a fixed header with a kind tag,
//! an importance level, a layer index (for hierarchically encoded media),
//! a sequence number, a timestamp, and a length-prefixed body.

use comma_rt::{Bytes, Rng, SeedableRng, SmallRng};

/// Record kinds, mirroring the data classes of Table 8.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameKind {
    /// Plain text.
    Text,
    /// Formatted text (e.g. PostScript) translatable to plain ASCII.
    FormattedText,
    /// Colour image data, translatable to monochrome.
    ImageColor,
    /// Monochrome image data.
    ImageMono,
    /// Audio samples.
    Audio,
    /// A layer of hierarchically encoded video (layer 0 = base).
    VideoLayer,
    /// Application telemetry (always-keep control data).
    Telemetry,
}

impl FrameKind {
    /// Wire tag.
    pub const fn tag(self) -> u8 {
        match self {
            FrameKind::Text => 0,
            FrameKind::FormattedText => 1,
            FrameKind::ImageColor => 2,
            FrameKind::ImageMono => 3,
            FrameKind::Audio => 4,
            FrameKind::VideoLayer => 5,
            FrameKind::Telemetry => 6,
        }
    }

    /// Inverse of [`FrameKind::tag`].
    pub const fn from_tag(tag: u8) -> Option<FrameKind> {
        match tag {
            0 => Some(FrameKind::Text),
            1 => Some(FrameKind::FormattedText),
            2 => Some(FrameKind::ImageColor),
            3 => Some(FrameKind::ImageMono),
            4 => Some(FrameKind::Audio),
            5 => Some(FrameKind::VideoLayer),
            6 => Some(FrameKind::Telemetry),
            _ => None,
        }
    }
}

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 2] = [0xC0, 0xDA];
/// Encoded header length.
pub const FRAME_HEADER_LEN: usize = 20;

/// One application record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Content class.
    pub kind: FrameKind,
    /// Importance, 0 (droppable) .. 255 (critical).
    pub importance: u8,
    /// Hierarchical layer; 0 is the base layer.
    pub layer: u8,
    /// Application sequence number.
    pub seq: u32,
    /// Send timestamp in microseconds (for latency accounting).
    pub timestamp_us: u64,
    /// Record body.
    pub body: Bytes,
}

impl Frame {
    /// Encodes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + self.body.len());
        out.extend_from_slice(&FRAME_MAGIC);
        out.push(self.kind.tag());
        out.push(self.importance);
        out.push(self.layer);
        out.push(0); // Reserved.
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.timestamp_us.to_be_bytes());
        out.extend_from_slice(&(self.body.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Total encoded length.
    pub fn encoded_len(&self) -> usize {
        FRAME_HEADER_LEN + self.body.len()
    }

    /// Decodes one frame from the start of `buf`; returns the frame and the
    /// bytes consumed, or `None` if `buf` does not hold a complete frame.
    pub fn decode(buf: &[u8]) -> Option<(Frame, usize)> {
        if buf.len() < FRAME_HEADER_LEN || buf[0..2] != FRAME_MAGIC {
            return None;
        }
        let kind = FrameKind::from_tag(buf[2])?;
        let importance = buf[3];
        let layer = buf[4];
        let seq = u32::from_be_bytes([buf[6], buf[7], buf[8], buf[9]]);
        let timestamp_us = u64::from_be_bytes([
            buf[10], buf[11], buf[12], buf[13], buf[14], buf[15], buf[16], buf[17],
        ]);
        let len = u16::from_be_bytes([buf[18], buf[19]]) as usize;
        if buf.len() < FRAME_HEADER_LEN + len {
            return None;
        }
        let body = Bytes::copy_from_slice(&buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len]);
        Some((
            Frame {
                kind,
                importance,
                layer,
                seq,
                timestamp_us,
                body,
            },
            FRAME_HEADER_LEN + len,
        ))
    }
}

/// Incremental frame parser tolerating arbitrary chunk boundaries — the
/// stream services feed it whatever bytes TCP happens to deliver.
#[derive(Clone, Default, Debug)]
pub struct FrameParser {
    buf: Vec<u8>,
}

impl FrameParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        FrameParser::default()
    }

    /// Appends stream bytes and returns every complete frame now available.
    pub fn push(&mut self, chunk: &[u8]) -> Vec<Frame> {
        self.buf.extend_from_slice(chunk);
        let mut frames = Vec::new();
        let mut consumed = 0usize;
        while let Some((frame, n)) = Frame::decode(&self.buf[consumed..]) {
            frames.push(frame);
            consumed += n;
        }
        self.buf.drain(..consumed);
        frames
    }

    /// Bytes buffered awaiting a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// The buffered partial bytes themselves (canonical fingerprints).
    pub fn pending_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Drains any buffered partial bytes (stream ending).
    pub fn take_pending(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

/// Builds a deterministic record body of `len` bytes for workload
/// generators (mildly compressible, content varies with `seq`).
pub fn synth_body(kind: FrameKind, seq: u32, len: usize) -> Bytes {
    let mut body = Vec::with_capacity(len);
    match kind {
        FrameKind::Text | FrameKind::FormattedText | FrameKind::Telemetry => {
            let phrase = b"field=value; status=nominal; reading commonplace words repeat often. ";
            for i in 0..len {
                body.push(phrase[(i + seq as usize) % phrase.len()]);
            }
        }
        FrameKind::ImageColor | FrameKind::ImageMono => {
            // Smooth gradients: RLE-friendly.
            for i in 0..len {
                body.push(((i / 23) as u8).wrapping_add(seq as u8));
            }
        }
        FrameKind::Audio | FrameKind::VideoLayer => {
            // Pseudo-waveform.
            for i in 0..len {
                let v = ((i as u32 * 7 + seq * 13) % 251) as u8;
                body.push(v);
            }
        }
    }
    Bytes::from(body)
}

/// `len` bytes of seeded English-like prose: the generator behind the
/// benchmark's `bulk_lit` payload (`benchmark/src/inputs.rs`, same
/// vocabulary, same stream for the same seed), for codec tests and micros
/// that should see what the compression service sees.
pub fn seeded_prose(seed: u64, len: usize) -> Vec<u8> {
    #[rustfmt::skip]
    const WORDS: &[&str] = &[
        "the", "of", "and", "a", "to", "in", "is", "that", "for", "it", "as", "with", "on", "by",
        "this", "be", "are", "from", "or", "an", "at", "which", "not", "can", "proxy", "filter",
        "stream", "packet", "wireless", "network", "mobile", "host", "service", "transparent",
        "communication", "management", "bandwidth", "latency", "connection", "protocol", "segment",
        "acknowledgement", "sequence", "window", "transport", "application", "compression", "link",
        "loss", "error", "handoff", "gateway", "legacy", "server", "client", "data", "header",
        "queue", "delay", "throughput", "adaptation", "environment", "monitor", "quality",
    ];
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7e87_5eed);
    let mut out = Vec::with_capacity(len + 16);
    let mut sentence = 0usize;
    while out.len() < len {
        out.extend_from_slice(WORDS[rng.gen_range(0..WORDS.len())].as_bytes());
        sentence += 1;
        if sentence >= 6 && rng.gen_range(0..8u32) == 0 {
            out.extend_from_slice(b".\n");
            sentence = 0;
        } else {
            out.push(b' ');
        }
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seq: u32, len: usize) -> Frame {
        Frame {
            kind: FrameKind::VideoLayer,
            importance: 3,
            layer: 1,
            seq,
            timestamp_us: 123_456,
            body: synth_body(FrameKind::VideoLayer, seq, len),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = frame(9, 500);
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        let (decoded, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, f);
    }

    #[test]
    fn decode_incomplete_returns_none() {
        let bytes = frame(1, 100).encode();
        assert!(Frame::decode(&bytes[..10]).is_none());
        assert!(Frame::decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(Frame::decode(b"xx").is_none());
    }

    #[test]
    fn parser_handles_arbitrary_boundaries() {
        let frames: Vec<Frame> = (0..5).map(|i| frame(i, 37 + i as usize * 11)).collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut parser = FrameParser::new();
        let mut got = Vec::new();
        // Feed in awkward 13-byte chunks.
        for chunk in stream.chunks(13) {
            got.extend(parser.push(chunk));
        }
        assert_eq!(got, frames);
        assert_eq!(parser.pending(), 0);
    }

    #[test]
    fn parser_take_pending() {
        let bytes = frame(0, 50).encode();
        let mut parser = FrameParser::new();
        assert!(parser.push(&bytes[..30]).is_empty());
        assert_eq!(parser.pending(), 30);
        assert_eq!(parser.take_pending(), bytes[..30].to_vec());
        assert_eq!(parser.pending(), 0);
    }

    #[test]
    fn frame_kind_tags_roundtrip() {
        for kind in [
            FrameKind::Text,
            FrameKind::FormattedText,
            FrameKind::ImageColor,
            FrameKind::ImageMono,
            FrameKind::Audio,
            FrameKind::VideoLayer,
            FrameKind::Telemetry,
        ] {
            assert_eq!(FrameKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(FrameKind::from_tag(99), None);
    }
}
