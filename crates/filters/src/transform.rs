//! Stream transformers: the content services that run *under* the TCP-
//! Transparency-Support Filter (§8.1, §8.3).
//!
//! A transformer consumes the in-order downlink byte stream and emits the
//! bytes that should travel the wireless link instead. The TTSF owns all
//! sequencing concerns; transformers are pure stream functions with an
//! end-of-stream flush.

use comma_rt::Bytes;

use crate::appdata::{Frame, FrameKind, FrameParser};
use crate::codec::Method;

/// A byte-stream rewriting service.
pub trait StreamTransformer: Send + Sync {
    /// Service name (diagnostics).
    fn name(&self) -> &'static str;

    /// Transforms the next in-order chunk of the stream.
    fn transform(&mut self, chunk: &[u8]) -> Vec<u8>;

    /// Flushes buffered bytes; called when the stream ends (FIN).
    fn flush(&mut self) -> Vec<u8> {
        Vec::new()
    }

    /// `true` while the transformer has never altered any byte (lets the
    /// TTSF skip window scaling for pass-through configurations).
    fn is_identity(&self) -> bool {
        false
    }

    /// Deep copy for world snapshots
    /// ([`comma_netsim::sim::Simulator::snapshot`]); transformers that do
    /// not opt in (the default) make the owning filter uncloneable.
    fn clone_transformer(&self) -> Option<Box<dyn StreamTransformer>> {
        None
    }

    /// Whether [`StreamTransformer::clone_transformer`] would succeed,
    /// without the copy when the transformer can tell. The default makes
    /// the copy and drops it.
    fn can_clone(&self) -> bool {
        self.clone_transformer().is_some()
    }

    /// Folds buffered (behavior-relevant) bytes into a canonical world
    /// fingerprint. The default (empty) is exact only for transformers
    /// that keep no inter-chunk state.
    fn state_digest(&self, _h: &mut comma_rt::digest::StateHasher) {}
}

/// Pass-through transformer (used to exercise the TTSF machinery alone).
#[derive(Clone, Default)]
pub struct Identity;

impl StreamTransformer for Identity {
    fn name(&self) -> &'static str {
        "identity"
    }
    fn transform(&mut self, chunk: &[u8]) -> Vec<u8> {
        chunk.to_vec()
    }
    fn is_identity(&self) -> bool {
        true
    }

    fn clone_transformer(&self) -> Option<Box<dyn StreamTransformer>> {
        Some(Box::new(Identity))
    }
}

// ---------------------------------------------------------------------
// Block compression (§8.1.6, Fig 8.4).
// ---------------------------------------------------------------------

/// Magic byte opening every compressed block frame.
pub const BLOCK_MAGIC: u8 = 0x5A;
/// Block-frame header: magic, method/flags, raw len, stored len.
pub const BLOCK_HEADER_LEN: usize = 6;
const FLAG_STORED: u8 = 0x80;

/// One block frame for `raw`, in a buffer with room for a stored block (and
/// the two bytes an LZSS item may run past it before the encoder gives up).
fn encode_block(method: Method, raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(BLOCK_HEADER_LEN + raw.len() + 2);
    append_block(method, raw, &mut out);
    out
}

/// Appends one block frame for `raw` to `out`: the header, then the
/// method's output — or, where that is not shorter, `raw` itself in its
/// place as a stored block.
fn append_block(method: Method, raw: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    let raw_len = (raw.len() as u16).to_be_bytes();
    out.extend_from_slice(&[BLOCK_MAGIC, method_tag(method), raw_len[0], raw_len[1], 0, 0]);
    if !method.compress_shorter(raw, out) {
        out.extend_from_slice(raw);
        out[start + 1] |= FLAG_STORED;
    }
    let stored = (out.len() - start - BLOCK_HEADER_LEN) as u16;
    out[start + 4..start + BLOCK_HEADER_LEN].copy_from_slice(&stored.to_be_bytes());
}

fn method_tag(method: Method) -> u8 {
    match method {
        Method::Rle => 1,
        Method::Lzss => 2,
    }
}

fn method_from_tag(tag: u8) -> Option<Method> {
    match tag & 0x7f {
        1 => Some(Method::Rle),
        2 => Some(Method::Lzss),
        _ => None,
    }
}

/// Compresses the stream at packet granularity (the thesis's Fig 8.4
/// "packet compression"): each in-order chunk is framed immediately — in
/// blocks of at most `block_size` — so ACK clocking never stalls behind a
/// partially filled buffer. Each frame is self-contained for the peer
/// decompressor (double-proxy operation, §10.2.4).
#[derive(Clone)]
pub struct Compressor {
    method: Method,
    block_size: usize,
    /// Raw bytes consumed.
    pub in_bytes: u64,
    /// Framed bytes emitted.
    pub out_bytes: u64,
}

impl Compressor {
    /// Creates a compressor with the given method and maximum block size.
    pub fn new(method: Method, block_size: usize) -> Self {
        Compressor {
            method,
            block_size: block_size.clamp(64, 32 * 1024),
            in_bytes: 0,
            out_bytes: 0,
        }
    }
}

impl StreamTransformer for Compressor {
    fn name(&self) -> &'static str {
        "compress"
    }

    fn transform(&mut self, chunk: &[u8]) -> Vec<u8> {
        self.in_bytes += chunk.len() as u64;
        // A chunk of one block (an MSS under the default block size) is
        // returned in the buffer it was compressed into.
        let mut blocks = chunk.chunks(self.block_size);
        let mut out = blocks.next().map_or_else(Vec::new, |b| encode_block(self.method, b));
        for block in blocks {
            append_block(self.method, block, &mut out);
        }
        self.out_bytes += out.len() as u64;
        out
    }

    fn clone_transformer(&self) -> Option<Box<dyn StreamTransformer>> {
        Some(Box::new(self.clone()))
    }

    fn can_clone(&self) -> bool {
        true
    }
    // state_digest: compression is chunk-local (no inter-chunk buffer), so
    // the default (empty) digest is exact.
}

/// Reverses [`Compressor`] framing on the far side of the wireless link.
#[derive(Clone)]
pub struct Decompressor {
    buf: Vec<u8>,
    /// Framed bytes consumed.
    pub in_bytes: u64,
    /// Raw bytes emitted.
    pub out_bytes: u64,
    /// Blocks that failed to decode (corruption indicators).
    pub errors: u64,
}

impl Decompressor {
    /// Creates an empty decompressor.
    pub fn new() -> Self {
        Decompressor {
            buf: Vec::new(),
            in_bytes: 0,
            out_bytes: 0,
            errors: 0,
        }
    }
}

impl Default for Decompressor {
    fn default() -> Self {
        Decompressor::new()
    }
}

impl StreamTransformer for Decompressor {
    fn name(&self) -> &'static str {
        "decompress"
    }

    fn transform(&mut self, chunk: &[u8]) -> Vec<u8> {
        self.in_bytes += chunk.len() as u64;
        self.buf.extend_from_slice(chunk);
        let mut out = Vec::new();
        let mut at = 0;
        loop {
            // Resynchronize on garbage: pass unframed bytes through raw
            // rather than stalling the stream behind them.
            if at < self.buf.len() && self.buf[at] != BLOCK_MAGIC {
                let skip = self.buf[at..]
                    .iter()
                    .position(|&b| b == BLOCK_MAGIC)
                    .unwrap_or(self.buf.len() - at);
                self.errors += 1;
                out.extend_from_slice(&self.buf[at..at + skip]);
                at += skip;
            }
            let Some(header) = self.buf.get(at..at + BLOCK_HEADER_LEN) else {
                break;
            };
            let flags = header[1];
            let raw_len = u16::from_be_bytes([header[2], header[3]]) as usize;
            let stored_len = u16::from_be_bytes([header[4], header[5]]) as usize;
            let body = at + BLOCK_HEADER_LEN;
            let Some(stored) = self.buf.get(body..body + stored_len) else {
                break;
            };
            // Each block decodes straight into `out`. One that does not
            // decode to exactly the length its header declares is
            // undecodable: counted, nothing emitted. A header declaring more
            // than the method's bound allows for the stored bytes is refused
            // before anything is reserved for it.
            let decoded = if flags & FLAG_STORED != 0 {
                let exact = stored_len == raw_len;
                if exact {
                    out.extend_from_slice(stored);
                }
                exact
            } else {
                method_from_tag(flags).is_some_and(|m| {
                    raw_len <= m.max_decoded(stored_len)
                        && m.decompress_into(stored, raw_len, &mut out).is_ok()
                })
            };
            if !decoded {
                self.errors += 1;
            }
            at = body + stored_len;
        }
        self.buf.drain(..at);
        self.out_bytes += out.len() as u64;
        out
    }

    fn flush(&mut self) -> Vec<u8> {
        // A well-formed peer flushes whole blocks; any residue is passed
        // through raw rather than silently lost.
        let residue = std::mem::take(&mut self.buf);
        self.out_bytes += residue.len() as u64;
        residue
    }

    fn clone_transformer(&self) -> Option<Box<dyn StreamTransformer>> {
        Some(Box::new(self.clone()))
    }

    fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        h.update(&self.buf[..]);
    }
}

// ---------------------------------------------------------------------
// Semantic record services (§8.3, Table 8.1).
// ---------------------------------------------------------------------

/// Data removal (§8.3.1): drops records whose importance is below a
/// threshold, forwarding the rest byte-identically.
#[derive(Clone)]
pub struct RecordDrop {
    parser: FrameParser,
    min_importance: u8,
    /// Records forwarded.
    pub kept: u64,
    /// Records removed.
    pub dropped: u64,
}

impl RecordDrop {
    /// Keeps records with `importance >= min_importance`.
    pub fn new(min_importance: u8) -> Self {
        RecordDrop {
            parser: FrameParser::new(),
            min_importance,
            kept: 0,
            dropped: 0,
        }
    }
}

impl StreamTransformer for RecordDrop {
    fn name(&self) -> &'static str {
        "removal"
    }

    fn transform(&mut self, chunk: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for frame in self.parser.push(chunk) {
            if frame.importance >= self.min_importance {
                self.kept += 1;
                out.extend(frame.encode());
            } else {
                self.dropped += 1;
            }
        }
        out
    }

    fn flush(&mut self) -> Vec<u8> {
        // Incomplete trailing bytes pass through untouched.
        self.parser.take_pending()
    }

    fn clone_transformer(&self) -> Option<Box<dyn StreamTransformer>> {
        Some(Box::new(self.clone()))
    }

    fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        h.update(self.parser.pending_bytes());
    }
}

/// Data-type translation (§8.3.3): converts record bodies to more compact
/// representations with preserved semantics.
#[derive(Clone)]
pub struct Translator {
    parser: FrameParser,
    /// Records translated.
    pub translated: u64,
    /// Records passed through unchanged.
    pub passed: u64,
}

impl Translator {
    /// Creates a translator.
    pub fn new() -> Self {
        Translator {
            parser: FrameParser::new(),
            translated: 0,
            passed: 0,
        }
    }

    /// The per-class translation rules of Table 8.1.
    pub fn translate_frame(frame: &Frame) -> Option<Frame> {
        match frame.kind {
            FrameKind::ImageColor => {
                // Colour → monochrome: keep the luma-like channel (one byte
                // of every three).
                let body: Vec<u8> = frame.body.iter().copied().step_by(3).collect();
                Some(Frame {
                    kind: FrameKind::ImageMono,
                    body: Bytes::from(body),
                    ..frame.clone()
                })
            }
            FrameKind::FormattedText => {
                // PostScript → ASCII: strip everything outside the visible
                // text payload (modeled as dropping the markup half).
                let body: Vec<u8> = frame
                    .body
                    .iter()
                    .copied()
                    .filter(|b| b.is_ascii_graphic() || *b == b' ')
                    .collect();
                let keep = body.len() / 2;
                Some(Frame {
                    kind: FrameKind::Text,
                    body: Bytes::from(body[..keep].to_vec()),
                    ..frame.clone()
                })
            }
            FrameKind::Audio => {
                // 2:1 downsample.
                let body: Vec<u8> = frame.body.iter().copied().step_by(2).collect();
                Some(Frame {
                    body: Bytes::from(body),
                    ..frame.clone()
                })
            }
            _ => None,
        }
    }
}

impl Default for Translator {
    fn default() -> Self {
        Translator::new()
    }
}

impl StreamTransformer for Translator {
    fn name(&self) -> &'static str {
        "translate"
    }

    fn transform(&mut self, chunk: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for frame in self.parser.push(chunk) {
            match Self::translate_frame(&frame) {
                Some(t) => {
                    self.translated += 1;
                    out.extend(t.encode());
                }
                None => {
                    self.passed += 1;
                    out.extend(frame.encode());
                }
            }
        }
        out
    }

    fn flush(&mut self) -> Vec<u8> {
        self.parser.take_pending()
    }

    fn clone_transformer(&self) -> Option<Box<dyn StreamTransformer>> {
        Some(Box::new(self.clone()))
    }

    fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        h.update(self.parser.pending_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appdata::synth_body;

    fn text_stream(n: usize) -> Vec<u8> {
        let mut s = Vec::new();
        for i in 0..n {
            let f = Frame {
                kind: FrameKind::Text,
                importance: (i % 4) as u8,
                layer: 0,
                seq: i as u32,
                timestamp_us: i as u64 * 1000,
                body: synth_body(FrameKind::Text, i as u32, 200),
            };
            s.extend(f.encode());
        }
        s
    }

    #[test]
    fn identity_is_identity() {
        let mut t = Identity;
        assert!(t.is_identity());
        assert_eq!(t.transform(b"abc"), b"abc");
        assert!(t.flush().is_empty());
    }

    #[test]
    fn compress_decompress_roundtrip_any_chunking() {
        let data = text_stream(20);
        let mut comp = Compressor::new(Method::Lzss, 1024);
        let mut deco = Decompressor::new();
        let mut wire = Vec::new();
        for chunk in data.chunks(333) {
            wire.extend(comp.transform(chunk));
        }
        wire.extend(comp.flush());
        assert!(
            wire.len() < data.len(),
            "compressed {} < {}",
            wire.len(),
            data.len()
        );
        let mut out = Vec::new();
        for chunk in wire.chunks(91) {
            out.extend(deco.transform(chunk));
        }
        out.extend(deco.flush());
        assert_eq!(out, data);
        assert_eq!(deco.errors, 0);
    }

    #[test]
    fn compressor_never_expands_much() {
        // Random-ish bytes: stored-block escape bounds expansion to the
        // 6-byte header per block.
        let mut x = 1u32;
        let data: Vec<u8> = (0..8192)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        let mut comp = Compressor::new(Method::Lzss, 2048);
        let mut wire = comp.transform(&data);
        wire.extend(comp.flush());
        assert!(wire.len() <= data.len() + 4 * BLOCK_HEADER_LEN);
    }

    #[test]
    fn record_drop_by_importance() {
        let data = text_stream(20); // Importance cycles 0..3.
        let mut rd = RecordDrop::new(2);
        let mut out = Vec::new();
        for chunk in data.chunks(77) {
            out.extend(rd.transform(chunk));
        }
        out.extend(rd.flush());
        assert_eq!(rd.kept, 10);
        assert_eq!(rd.dropped, 10);
        // Surviving records parse and all have importance >= 2.
        let mut parser = FrameParser::new();
        let frames = parser.push(&out);
        assert_eq!(frames.len(), 10);
        assert!(frames.iter().all(|f| f.importance >= 2));
    }

    #[test]
    fn translator_shrinks_color_images() {
        let f = Frame {
            kind: FrameKind::ImageColor,
            importance: 5,
            layer: 0,
            seq: 1,
            timestamp_us: 0,
            body: synth_body(FrameKind::ImageColor, 1, 900),
        };
        let mut t = Translator::new();
        let out = t.transform(&f.encode());
        let (translated, _) = Frame::decode(&out).unwrap();
        assert_eq!(translated.kind, FrameKind::ImageMono);
        assert_eq!(translated.body.len(), 300);
        assert_eq!(t.translated, 1);
    }

    #[test]
    fn translator_passes_unknown_kinds() {
        let f = Frame {
            kind: FrameKind::Telemetry,
            importance: 9,
            layer: 0,
            seq: 0,
            timestamp_us: 0,
            body: Bytes::from_static(b"critical"),
        };
        let mut t = Translator::new();
        let out = t.transform(&f.encode());
        assert_eq!(out, f.encode());
        assert_eq!(t.passed, 1);
    }
}

#[cfg(test)]
mod resync_tests {
    use super::*;

    #[test]
    fn decompressor_resyncs_after_garbage() {
        let mut comp = Compressor::new(Method::Lzss, 512);
        let block = comp.transform(b"hello hello hello hello hello hello hello hello");
        let mut deco = Decompressor::new();
        // Garbage prefix, then a valid block.
        let mut wire = b"??garbage??".to_vec();
        wire.extend_from_slice(&block);
        let out = deco.transform(&wire);
        assert!(deco.errors >= 1);
        // The garbage passes through raw; the block decodes after it.
        assert!(out.ends_with(b"hello hello hello hello hello hello hello hello"));
        assert!(out.starts_with(b"??garbage??"));
    }

    /// A frame whose header declares `raw_len` decoded bytes over `stored`.
    fn frame(flags: u8, raw_len: u16, stored: &[u8]) -> Vec<u8> {
        let mut out = vec![BLOCK_MAGIC, flags];
        out.extend_from_slice(&raw_len.to_be_bytes());
        out.extend_from_slice(&(stored.len() as u16).to_be_bytes());
        out.extend_from_slice(stored);
        out
    }

    #[test]
    fn block_that_breaks_its_declared_length_is_an_error_with_nothing_out() {
        let good = encode_block(Method::Lzss, &[b'k'; 300]);
        let raw = |n: usize| vec![b'x'; n];
        let lying: Vec<(&str, Vec<u8>)> = vec![
            ("lzss short", frame(2, 100, &Method::Lzss.compress(&raw(99)))),
            ("lzss long", frame(2, 100, &Method::Lzss.compress(&raw(101)))),
            ("lzss bomb", frame(2, 100, &Method::Lzss.compress(&raw(60_000)))),
            ("rle short", frame(1, 100, &Method::Rle.compress(&raw(99)))),
            ("rle long", frame(1, 100, &Method::Rle.compress(&raw(101)))),
            ("rle bomb", frame(1, 100, &Method::Rle.compress(&raw(60_000)))),
            ("stored short", frame(2 | FLAG_STORED, 100, &raw(99))),
            ("stored long", frame(2 | FLAG_STORED, 100, &raw(101))),
        ];
        for (what, block) in lying {
            let mut deco = Decompressor::new();
            assert!(deco.transform(&block).is_empty(), "{what}: nothing emitted");
            assert_eq!(deco.errors, 1, "{what}: one error");
            assert_eq!(deco.transform(&good), vec![b'k'; 300], "{what}: next block decodes");
            assert_eq!((deco.errors, deco.out_bytes), (1, 300), "{what}");
        }
        // The honest spellings of the same blocks still decode.
        let mut deco = Decompressor::new();
        assert_eq!(deco.transform(&frame(2, 100, &Method::Lzss.compress(&raw(100)))), raw(100));
        assert_eq!(deco.transform(&frame(1, 100, &Method::Rle.compress(&raw(100)))), raw(100));
        assert_eq!(deco.transform(&frame(2 | FLAG_STORED, 100, &raw(100))), raw(100));
        assert_eq!(deco.errors, 0);
    }

    /// Random bytes behind a valid header never decode to more than the
    /// header's `raw_len`, and never panic.
    #[test]
    fn hostile_block_never_yields_more_than_its_header_declares() {
        use comma_rt::prop::Runner;
        use comma_rt::{ensure, Rng};

        Runner::new("hostile_block_never_yields_more_than_its_header_declares").cases(2_000).run(
            |rng| {
                let tag = rng.gen_range(1..3u8);
                // Mostly escapes / match flags, so runs and copies abound.
                let filler = [0x90, 0xff, rng.gen::<u8>()];
                let stored: Vec<u8> = (0..rng.gen_range(0..600usize))
                    .map(|_| if rng.gen_range(0..3u32) == 0 { rng.gen::<u8>() } else { filler[rng.gen_range(0..3usize)] })
                    .collect();
                (tag, rng.gen_range(0..2_000u16), stored)
            },
            |(tag, raw_len, stored)| {
                let mut deco = Decompressor::new();
                let out = deco.transform(&frame(*tag, *raw_len, stored));
                ensure!(out.len() <= *raw_len as usize, "{} bytes out of a {raw_len}-byte block", out.len());
                ensure!(out.is_empty() || out.len() == *raw_len as usize, "partial block emitted");
                ensure!(out.is_empty() == (deco.errors == 1) || *raw_len == 0, "errors {}", deco.errors);
                Ok(())
            },
        );
    }

    /// Block sizes up to the 32 KiB clamp, both methods: a frame holds at
    /// most its raw bytes plus the header, no stream — valid or hostile —
    /// decodes to more than [`Method::max_decoded`] of its stored length,
    /// and a header that declares more is refused with nothing emitted.
    #[test]
    fn framed_blocks_stay_within_the_declared_expansion() {
        use comma_rt::prop::{gen, Runner};
        use comma_rt::{ensure, Rng};

        Runner::new("framed_blocks_stay_within_the_declared_expansion").cases(200).run(
            |rng| {
                let method = [Method::Rle, Method::Lzss][gen::index(rng, 2)];
                let size = match rng.gen_range(0..3u32) {
                    0 => [1, 2, 3, 63, 64, 2_048, 32_767, 32_768][gen::index(rng, 8)],
                    _ => rng.gen_range(1..32_769usize),
                };
                let raw = match rng.gen_range(0..3u32) {
                    0 => crate::appdata::seeded_prose(rng.gen(), size),
                    1 => vec![rng.gen::<u8>(); size],
                    _ => gen::bytes(rng, size..size),
                };
                // The densest stream the method can spell — RLE's longest
                // escape over and over; LZSS one literal, then 18-byte
                // matches one back — with a few bytes overwritten.
                let mut hostile = match method {
                    Method::Rle => [0x90, rng.gen(), 255].repeat(size / 3 + 1),
                    Method::Lzss => {
                        let mut s = vec![0xfe, rng.gen()];
                        s.extend([0x00, 0x0f].repeat(7));
                        while s.len() < size {
                            s.push(0xff);
                            s.extend([0x00, 0x0f].repeat(8));
                        }
                        s
                    }
                };
                hostile.truncate(rng.gen_range(0..size + 1));
                for _ in 0..rng.gen_range(0..4usize) {
                    if !hostile.is_empty() {
                        let at = gen::index(rng, hostile.len());
                        hostile[at] = rng.gen();
                    }
                }
                (method, raw, hostile)
            },
            |(method, raw, hostile)| {
                let wire = Compressor::new(*method, raw.len()).transform(raw);
                let (n, framed) = (raw.len(), wire.len());
                ensure!(framed <= n + BLOCK_HEADER_LEN, "{framed} framed bytes for {n}");
                let stored = framed - BLOCK_HEADER_LEN;
                ensure!(n <= method.max_decoded(stored), "{n} raw bytes from {stored} stored");
                let mut deco = Decompressor::new();
                ensure!(deco.transform(&wire) == *raw && deco.errors == 0, "valid block lost");

                let (tag, bound) = (method_tag(*method), method.max_decoded(hostile.len()));
                if let Ok(decoded) = method.decompress(hostile) {
                    let len = decoded.len();
                    ensure!(len <= bound, "{len} bytes from {} stored", hostile.len());
                    if let Ok(declared) = u16::try_from(len) {
                        let out = Decompressor::new().transform(&frame(tag, declared, hostile));
                        ensure!(out == decoded, "hostile block at its own length");
                    }
                }
                if let Ok(over) = u16::try_from(bound + 1) {
                    let mut deco = Decompressor::new();
                    let out = deco.transform(&frame(tag, over, hostile));
                    ensure!(out.is_empty() && deco.errors == 1, "past the bound: {} out", out.len());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn decompressor_flush_returns_residue() {
        let mut deco = Decompressor::new();
        // An incomplete header stays buffered until flush.
        assert!(deco.transform(&[BLOCK_MAGIC, 2]).is_empty());
        assert_eq!(deco.flush(), vec![BLOCK_MAGIC, 2]);
    }
}
