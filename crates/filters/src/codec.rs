//! From-scratch lossless codecs used by the compression services
//! (Table 8.1): byte-oriented RLE and LZSS.
//!
//! Both codecs are self-contained (no external crates) and deterministic.
//! LZSS uses a 4 KiB window with 3..=18-byte matches and flag-byte groups;
//! RLE uses an escape byte. Neither format is compatible with anything
//! external — the peer is always our own decompressor.
//!
//! **LZSS compress.** Hash chains over 3-byte prefixes (a 13-bit hash,
//! newest position first, all linked in one pass before the parse) offer up
//! to 32 earlier positions within the window; the longest common prefix
//! wins, the first of equal length is kept, and an 18-byte match ends the
//! walk. Candidates are compared eight bytes at a time (XOR, then
//! `trailing_zeros`), and the output is written by index into a buffer
//! sized for the worst case — `n + n/8 + 1`, every byte a literal — and cut
//! to length at the end. Inside a block frame the encoder gives up as soon
//! as its output reaches the raw length, where a stored block is shorter.
//! Which match is chosen is fixed by the format's history, not by the
//! kernel: the compressed bytes are pinned by digest.
//!
//! **LZSS decode.** The output is sized up front — the declared length, or
//! for an undeclared one the most the stream can decode to
//! ([`Method::max_decoded`]) — plus 18 bytes of initialised slack, and
//! written by index. A match that does not overlap its own output
//! (`dist ≥ len`) is one fixed 18-byte `copy_within` whose excess lands in
//! the slack; an overlapping one is the forward byte loop that repeats the
//! period. The slack is cut off at the end. Decoders append to a caller's
//! buffer, so a block frame decodes straight into the stream's output;
//! distances are checked against the block's own start.

/// Error decoding a compressed buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

const TOO_LONG: CodecError = CodecError("output exceeds the declared length");

// ---------------------------------------------------------------------
// RLE.
// ---------------------------------------------------------------------

const RLE_ESCAPE: u8 = 0x90;

/// Run-length encodes `input`. Runs of 4..=255 identical bytes become
/// `ESC <byte> <count>`; escape bytes themselves always travel that way, a
/// run of 1..=255 of them as `ESC ESC <count>` (the decoder rejects a zero
/// count).
pub fn rle_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    rle_encode(input, &mut out);
    out
}

/// The RLE encoder: appends `input`'s encoding to `out`.
fn rle_encode(input: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < input.len() {
        let b = input[i];
        let mut run = 1usize;
        while i + run < input.len() && input[i + run] == b && run < 255 {
            run += 1;
        }
        if run >= 4 || (b == RLE_ESCAPE && run >= 1) {
            out.push(RLE_ESCAPE);
            out.push(b);
            out.push(run as u8);
            i += run;
        } else {
            for _ in 0..run {
                out.push(b);
            }
            i += run;
        }
    }
}

/// Reverses [`rle_compress`], for input whose decoded length nobody
/// declared (up to [`Method::max_decoded`] bytes; framed blocks go through
/// [`Method::decompress_exact`] instead).
pub fn rle_decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(input.len() * 2);
    rle_decode(input, &mut out, usize::MAX)?;
    Ok(out)
}

/// The RLE decoder: appends to `out`, failing before it would append more
/// than `limit` bytes (on failure `out` holds a partial block past its old
/// length, for the caller to discard).
fn rle_decode(input: &[u8], out: &mut Vec<u8>, limit: usize) -> Result<(), CodecError> {
    let end = out.len().saturating_add(limit);
    let mut i = 0;
    while i < input.len() {
        let b = input[i];
        if b == RLE_ESCAPE {
            if i + 2 >= input.len() {
                return Err(CodecError("truncated rle escape"));
            }
            let byte = input[i + 1];
            let count = input[i + 2] as usize;
            if count == 0 {
                return Err(CodecError("zero-length rle run"));
            }
            if count > end - out.len() {
                return Err(TOO_LONG);
            }
            out.extend(std::iter::repeat_n(byte, count));
            i += 3;
        } else {
            if out.len() == end {
                return Err(TOO_LONG);
            }
            out.push(b);
            i += 1;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// LZSS.
// ---------------------------------------------------------------------

const LZ_WINDOW: usize = 4096;
const LZ_MIN_MATCH: usize = 3;
const LZ_MAX_MATCH: usize = 18;

/// LZSS-compresses `input`: flag bytes precede groups of eight items, each
/// either a literal byte or a `(distance, length)` match into the previous
/// 4 KiB.
pub fn lzss_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    lzss_encode(input, &mut out, usize::MAX);
    out
}

/// Bits of the match finder's 3-byte-prefix hash.
const LZ_HASH_BITS: u32 = 13;
/// Chain entries tried per position.
const LZ_TRIES: u32 = 32;

/// The LZSS encoder: appends `input`'s compressed form to `out` and returns
/// `true` — or, as soon as that form reaches `stop` bytes, gives up and
/// returns `false` with `out` back at its old length.
fn lzss_encode(input: &[u8], out: &mut Vec<u8>, stop: usize) -> bool {
    let n = input.len();
    let start = out.len();
    // Room for the worst case (every item a literal, a flag byte per eight)
    // or for the item that crosses `stop`, whichever is less.
    out.resize(start + (n + n / 8 + 1).min(stop.saturating_add(2)), 0);
    let buf = &mut out[start..];
    // Hash chains over 3-byte prefixes, in one allocation: `head[h]` is the
    // newest position with hash `h`, `prev[p]` the one before `p`; -1 ends a
    // chain. Every prefix is linked in one pass before the parse, so when
    // position `i` is searched the chain from `prev[i]` holds exactly the
    // earlier positions with `i`'s hash, newest first — the chain an
    // insertion after each item would have built, since by then every
    // position before `i` has been covered by an item.
    let mut chains = vec![-1i32; (1 << LZ_HASH_BITS) + n];
    let (head, prev) = chains.split_at_mut(1 << LZ_HASH_BITS);
    for (p, (link, w)) in prev.iter_mut().zip(input.windows(LZ_MIN_MATCH)).enumerate() {
        let h = (w[0] as usize) << 6 ^ (w[1] as usize) << 3 ^ w[2] as usize;
        let h = h & ((1 << LZ_HASH_BITS) - 1);
        *link = head[h];
        head[h] = p as i32;
    }

    let (mut i, mut o) = (0, 0);
    let mut flag_pos = 0;
    let mut flag_bit = 8; // Forces a new flag byte immediately.
    while i < n && o < stop {
        if flag_bit == 8 {
            flag_pos = o;
            o += 1;
            flag_bit = 0;
        }
        // The longest match at i: strictly longer replaces, 18 ends the walk.
        let (mut best_len, mut best_dist) = (0, 0);
        if i + LZ_MIN_MATCH <= n {
            let limit = (n - i).min(LZ_MAX_MATCH);
            let mut cand = prev[i];
            let mut tries = LZ_TRIES;
            while cand >= 0 && tries > 0 {
                let c = cand as usize;
                let dist = i - c;
                if dist > LZ_WINDOW {
                    break;
                }
                let l = common_prefix(&input[c..], &input[i..], limit);
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l == LZ_MAX_MATCH {
                        break;
                    }
                }
                cand = prev[c];
                tries -= 1;
            }
        }
        i += if best_len >= LZ_MIN_MATCH {
            // Match item: 2 bytes — 12-bit distance, 4-bit (length-3).
            buf[flag_pos] |= 1 << flag_bit;
            let word = ((best_dist - 1) as u16) << 4 | (best_len - LZ_MIN_MATCH) as u16;
            buf[o..o + 2].copy_from_slice(&word.to_be_bytes());
            o += 2;
            best_len
        } else {
            buf[o] = input[i];
            o += 1;
            1
        };
        flag_bit += 1;
    }
    if o >= stop {
        out.truncate(start);
        return false;
    }
    out.truncate(start + o);
    true
}

/// Length of the common prefix of `a` and `b`, at most `limit` (which
/// neither is shorter than): eight bytes at a time while both have eight.
fn common_prefix(a: &[u8], b: &[u8], limit: usize) -> usize {
    let word = |s: &[u8], at: usize| {
        s.get(at..at + 8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
    };
    let mut l = 0;
    while l < limit {
        let (Some(x), Some(y)) = (word(a, l), word(b, l)) else {
            return l + a[l..limit]
                .iter()
                .zip(&b[l..limit])
                .take_while(|(x, y)| x == y)
                .count();
        };
        if x != y {
            return (l + (x ^ y).trailing_zeros() as usize / 8).min(limit);
        }
        l += 8;
    }
    limit
}

/// Reverses [`lzss_compress`], for input whose decoded length nobody
/// declared (framed blocks go through [`Method::decompress_exact`]).
pub fn lzss_decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    lzss_decode(input, &mut out, usize::MAX)?;
    Ok(out)
}

/// The LZSS decoder: appends to `out`, failing before it would append more
/// than `limit` bytes (on failure `out` holds a partial block past its old
/// length, for the caller to discard). Distances reach back no further than
/// where this call started appending.
fn lzss_decode(input: &[u8], out: &mut Vec<u8>, limit: usize) -> Result<(), CodecError> {
    let base = out.len();
    // No stream decodes past its bound; the slack lets every match be one
    // fixed-length copy.
    out.resize(base + limit.min(Method::Lzss.max_decoded(input.len())) + LZ_MAX_MATCH, 0);
    let buf = &mut out[base..];
    let (mut i, mut o) = (0, 0);
    while i < input.len() {
        let flags = input[i];
        i += 1;
        for bit in 0..8 {
            if i >= input.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                if i + 1 >= input.len() {
                    return Err(CodecError("truncated lzss match"));
                }
                let word = u16::from_be_bytes([input[i], input[i + 1]]);
                i += 2;
                let dist = (word >> 4) as usize + 1;
                let len = (word & 0xf) as usize + LZ_MIN_MATCH;
                if dist > o {
                    return Err(CodecError("lzss distance beyond output"));
                }
                if len > limit - o {
                    return Err(TOO_LONG);
                }
                let from = o - dist;
                if dist >= len {
                    buf.copy_within(from..from + LZ_MAX_MATCH, o);
                } else {
                    // Overlapping: each byte may be one this match wrote.
                    for k in 0..len {
                        buf[o + k] = buf[from + k];
                    }
                }
                o += len;
            } else {
                if o == limit {
                    return Err(TOO_LONG);
                }
                buf[o] = input[i];
                i += 1;
                o += 1;
            }
        }
    }
    out.truncate(base + o);
    Ok(())
}

/// Compression method selector for the `compress` service.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// Run-length encoding (fast, good on sparse data).
    Rle,
    /// LZSS (general-purpose).
    Lzss,
}

impl Method {
    /// Parses a method name.
    pub fn parse(name: &str) -> Option<Method> {
        match name {
            "rle" => Some(Method::Rle),
            "lzss" | "lz" => Some(Method::Lzss),
            _ => None,
        }
    }

    /// The method's declared worst case: the most `stored` bytes of its
    /// output can decode to. LZSS: a flag byte and eight 2-byte matches, 17
    /// bytes, decode to 144. RLE: a 3-byte escape decodes to a 255-byte run.
    pub fn max_decoded(self, stored: usize) -> usize {
        let (decoded, per) = match self {
            Method::Rle => (255, 3),
            Method::Lzss => (8 * LZ_MAX_MATCH, 1 + 8 * 2),
        };
        stored.saturating_mul(decoded) / per
    }

    /// Compresses with the selected method.
    pub fn compress(self, input: &[u8]) -> Vec<u8> {
        match self {
            Method::Rle => rle_compress(input),
            Method::Lzss => lzss_compress(input),
        }
    }

    /// Appends `input`'s compressed form to `out` if it is shorter than
    /// `input`, and says whether it did (LZSS gives up as soon as it is
    /// not); otherwise `out` is left as it was.
    pub(crate) fn compress_shorter(self, input: &[u8], out: &mut Vec<u8>) -> bool {
        match self {
            Method::Rle => {
                let start = out.len();
                rle_encode(input, out);
                let shorter = out.len() - start < input.len();
                if !shorter {
                    out.truncate(start);
                }
                shorter
            }
            Method::Lzss => lzss_encode(input, out, input.len()),
        }
    }

    /// Decompresses with the selected method.
    pub fn decompress(self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        match self {
            Method::Rle => rle_decompress(input),
            Method::Lzss => lzss_decompress(input),
        }
    }

    /// Decompresses a block whose header declared `raw_len` decoded bytes:
    /// reserves exactly that (plus the LZSS slack), stops as soon as the
    /// output would exceed it, and rejects a block that ends short of it —
    /// so a hostile block costs at most the length its header admits to,
    /// and yields nothing.
    pub fn decompress_exact(self, input: &[u8], raw_len: usize) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(input, raw_len, &mut out)?;
        Ok(out)
    }

    /// [`Method::decompress_exact`], appending to `out`; on error `out` is
    /// left as it was.
    pub(crate) fn decompress_into(
        self,
        input: &[u8],
        raw_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let base = out.len();
        let mut decoded = match self {
            Method::Rle => {
                out.reserve(raw_len);
                rle_decode(input, out, raw_len)
            }
            Method::Lzss => lzss_decode(input, out, raw_len),
        };
        if decoded.is_ok() && out.len() - base < raw_len {
            decoded = Err(CodecError("output falls short of the declared length"));
        }
        if decoded.is_err() {
            out.truncate(base);
        }
        decoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texty(len: usize) -> Vec<u8> {
        // Repetitive, English-like filler.
        let phrase = b"the quick brown fox jumps over the lazy dog. wireless networks vary. ";
        phrase.iter().cycle().take(len).copied().collect()
    }

    #[test]
    fn rle_roundtrip_and_ratio() {
        let sparse: Vec<u8> = (0..4096)
            .map(|i| if i % 97 < 90 { 0u8 } else { i as u8 })
            .collect();
        let packed = rle_compress(&sparse);
        assert!(
            packed.len() < sparse.len() / 4,
            "ratio {} / {}",
            packed.len(),
            sparse.len()
        );
        assert_eq!(rle_decompress(&packed).unwrap(), sparse);
    }

    #[test]
    fn rle_handles_escape_bytes() {
        let data = vec![RLE_ESCAPE; 7];
        let packed = rle_compress(&data);
        assert_eq!(rle_decompress(&packed).unwrap(), data);
        let single = vec![1, RLE_ESCAPE, 2];
        assert_eq!(rle_decompress(&rle_compress(&single)).unwrap(), single);
    }

    #[test]
    fn lzss_roundtrip_text() {
        let data = texty(10_000);
        let packed = lzss_compress(&data);
        assert!(
            packed.len() < data.len() / 2,
            "ratio {} / {}",
            packed.len(),
            data.len()
        );
        assert_eq!(lzss_decompress(&packed).unwrap(), data);
    }

    #[test]
    fn lzss_incompressible_bounded_expansion() {
        // Pseudo-random bytes: at worst 1 flag byte per 8 literals (+12.5%).
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        let packed = lzss_compress(&data);
        assert!(packed.len() <= data.len() + data.len() / 8 + 2);
        assert_eq!(lzss_decompress(&packed).unwrap(), data);
    }

    #[test]
    fn lzss_empty_and_tiny() {
        assert_eq!(
            lzss_decompress(&lzss_compress(&[])).unwrap(),
            Vec::<u8>::new()
        );
        for n in 1..8 {
            let data: Vec<u8> = (0..n as u8).collect();
            assert_eq!(lzss_decompress(&lzss_compress(&data)).unwrap(), data);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(lzss_decompress(&[0xff, 0x01]).is_err());
        assert!(rle_decompress(&[RLE_ESCAPE]).is_err());
        assert!(rle_decompress(&[RLE_ESCAPE, 5, 0]).is_err());
    }

    /// The wire format, pinned directly: FNV-1a over every block's output
    /// when one seeded-prose corpus is cut at the block sizes the services
    /// use (a 536-byte default MSS, a 1,460-byte Ethernet MSS, the catalog's
    /// 2,048-byte block, the 32 KiB cap). Recorded at `d6fe557`, before the
    /// LZSS kernels were rewritten; a change here changes every compressed
    /// byte on the wireless link.
    #[test]
    fn wire_format_matches_recorded_digests() {
        let corpus = crate::appdata::seeded_prose(25, 100_000);
        let digest = |compress: fn(&[u8]) -> Vec<u8>| {
            let mut h = comma_rt::digest::Fnv1a::new();
            for block in [536, 1460, 2048, 32_768] {
                for chunk in corpus.chunks(block) {
                    let out = compress(chunk);
                    h.update_u64(out.len() as u64).update(&out);
                }
            }
            h.finish()
        };
        assert_eq!(
            digest(lzss_compress),
            0xe841_5e0b_0078_ada9,
            "lzss wire format"
        );
        assert_eq!(
            digest(rle_compress),
            0xac1b_e43b_9b0f_8350,
            "rle wire format"
        );
    }

    /// The rewritten kernels against the parent's (module `reference`):
    /// identical compressed bytes, and the same `Ok` bytes or the same
    /// `CodecError` from both decoders over valid streams (at, under and
    /// over their true length) and hostile ones. Inputs are `bulk_lit`'s
    /// prose, 1–4-symbol alphabets, long runs, incompressible bytes,
    /// periodic text whose period straddles the 8-byte compare stride, the
    /// 18-byte cap and the 4 KiB window, and 1–2-symbol text long enough
    /// for the match walk to stop both at its 32-try cap and at the window;
    /// lengths run 0..=70,000, with 0–3 and either side of 64, 2,048 and
    /// 32,768 drawn on purpose.
    #[test]
    fn lzss_matches_reference_model() {
        use comma_rt::prop::{gen, Runner};
        use comma_rt::Rng;
        use reference::{reference_lzss_compress, reference_lzss_decode};

        type Decoded = Result<Vec<u8>, CodecError>;
        fn agree(what: &str, ours: Decoded, model: Decoded) -> Result<(), String> {
            if ours == model {
                return Ok(());
            }
            let show = |r: &Decoded| {
                r.as_ref()
                    .map_or_else(|e| e.to_string(), |v| format!("{} bytes", v.len()))
            };
            let at = match (&ours, &model) {
                (Ok(a), Ok(b)) => a.iter().zip(b).position(|(x, y)| x != y),
                _ => None,
            };
            Err(format!(
                "{what}: {} but the model {}; first difference at {at:?}",
                show(&ours),
                show(&model)
            ))
        }
        let model_exact = |input: &[u8], raw_len: usize| -> Decoded {
            let mut out = Vec::with_capacity(raw_len);
            reference_lzss_decode(input, &mut out, raw_len)?;
            if out.len() < raw_len {
                return Err(CodecError("output falls short of the declared length"));
            }
            Ok(out)
        };
        let model_free = |input: &[u8]| -> Decoded {
            let mut out = Vec::new();
            reference_lzss_decode(input, &mut out, usize::MAX).map(|()| out)
        };

        Runner::new("lzss_matches_reference_model").cases(100).run(
            |rng| {
                let len = match rng.gen_range(0..6u32) {
                    0 => rng.gen_range(0..64usize),
                    1 => rng.gen_range(0..2_048),
                    2 => rng.gen_range(4_000..8_400),
                    3 => rng.gen_range(0..4),
                    // Either side of the `Compressor`'s clamp and block edges.
                    4 => [64, 2_048, 32_768][gen::index(rng, 3)] + rng.gen_range(0..3) - 1,
                    _ => rng.gen_range(0..70_001),
                };
                let data: Vec<u8> = match rng.gen_range(0..6u32) {
                    0 => crate::appdata::seeded_prose(rng.gen(), len),
                    1 => {
                        let symbols = gen::bytes(rng, 1..5);
                        (0..len)
                            .map(|_| symbols[gen::index(rng, symbols.len())])
                            .collect()
                    }
                    2 => {
                        let mut runs = Vec::with_capacity(len);
                        while runs.len() < len {
                            let run = rng.gen_range(1..300usize).min(len - runs.len());
                            runs.extend(std::iter::repeat_n(rng.gen::<u8>(), run));
                        }
                        runs
                    }
                    3 => gen::bytes(rng, len..len),
                    4 => {
                        // One or two symbols, past the window: short runs
                        // fill every chain, so the walk spends its 32
                        // tries, and a run longer than the window leaves
                        // the prefixes that end it only candidates beyond
                        // it.
                        let (a, b) = (rng.gen::<u8>(), rng.gen::<u8>());
                        let b = if rng.gen_range(0..4u32) == 0 { a } else { b };
                        let len = len.max(9_000);
                        let mut text = Vec::with_capacity(len + 4_300);
                        while text.len() < len {
                            let run = match rng.gen_range(0..300u32) {
                                0 => rng.gen_range(4_000..4_200),
                                _ => rng.gen_range(1..8usize),
                            };
                            text.extend(std::iter::repeat_n(a, run));
                            text.extend(std::iter::repeat_n(b, rng.gen_range(1..4usize)));
                        }
                        text.truncate(len);
                        text
                    }
                    _ => {
                        let period = [7, 8, 9, 17, 18, 19, 4_095, 4_096, 4_097][gen::index(rng, 9)];
                        let motif = crate::appdata::seeded_prose(rng.gen(), period);
                        let mut text: Vec<u8> = motif.iter().cycle().take(len).copied().collect();
                        for _ in 0..len / 512 {
                            text[rng.gen_range(0..len)] = rng.gen();
                        }
                        text
                    }
                };
                // Shaped like the hostile-block property's streams in
                // `transform.rs`: mostly match flags, so copies abound.
                let filler = [0x90, 0xff, rng.gen::<u8>()];
                let hostile: Vec<u8> = (0..rng.gen_range(0..600usize))
                    .map(|_| {
                        if rng.gen_range(0..3u32) == 0 {
                            rng.gen::<u8>()
                        } else {
                            filler[rng.gen_range(0..3usize)]
                        }
                    })
                    .collect();
                // Declared lengths down to 0, where the length check and
                // the distance check can both fail on the first match.
                let declared = rng.gen_range(0..2_000usize) >> rng.gen_range(0..12u32);
                (data, hostile, declared)
            },
            |(data, hostile, hostile_len)| {
                let packed = lzss_compress(data);
                agree(
                    "compressed",
                    Ok(packed.clone()),
                    Ok(reference_lzss_compress(data)),
                )?;
                let n = data.len();
                // A block frame takes the same bytes, or gives up for a
                // stored block exactly when they would not be shorter.
                let mut framed = vec![0xa5];
                let shorter = Method::Lzss.compress_shorter(data, &mut framed);
                let expect: &[u8] = if packed.len() < n { &packed } else { &[] };
                agree(
                    "compress_shorter",
                    Ok(framed[1..].to_vec()),
                    Ok(expect.to_vec()),
                )?;
                comma_rt::ensure!(
                    shorter == (packed.len() < n),
                    "compress_shorter said {shorter}"
                );
                for (input, raw_len) in [
                    (&packed, n),
                    (&packed, n.saturating_sub(1)),
                    (&packed, n + 1),
                    (hostile, *hostile_len),
                ] {
                    let exact = Method::Lzss.decompress_exact(input, raw_len);
                    agree(
                        &format!("decompress_exact({raw_len})"),
                        exact,
                        model_exact(input, raw_len),
                    )?;
                    agree("lzss_decompress", lzss_decompress(input), model_free(input))?;
                }
                Ok(())
            },
        );
    }

    #[test]
    fn method_selector() {
        assert_eq!(Method::parse("rle"), Some(Method::Rle));
        assert_eq!(Method::parse("lzss"), Some(Method::Lzss));
        assert_eq!(Method::parse("zip"), None);
        let data = texty(1000);
        for m in [Method::Rle, Method::Lzss] {
            assert_eq!(m.decompress(&m.compress(&data)).unwrap(), data);
        }
    }
}

/// The LZSS kernels as `d6fe557` shipped them, verbatim but for their
/// names: the model the rewritten kernels must agree with byte for byte and
/// error for error.
#[cfg(test)]
mod reference {
    use super::{CodecError, LZ_MAX_MATCH, LZ_MIN_MATCH, LZ_WINDOW, TOO_LONG};

    /// The parent's `lzss_compress`.
    pub(super) fn reference_lzss_compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        // Hash chains over 3-byte prefixes for match finding.
        let mut head: Vec<i32> = vec![-1; 1 << 13];
        let mut prev: Vec<i32> = vec![-1; input.len().max(1)];
        let hash = |data: &[u8], i: usize| -> usize {
            let h = (data[i] as usize) << 6 ^ (data[i + 1] as usize) << 3 ^ (data[i + 2] as usize);
            h & ((1 << 13) - 1)
        };

        let mut i = 0usize;
        let mut flag_pos = 0usize;
        let mut flag_bit = 8u8; // Forces a new flag byte immediately.
        let mut flags = 0u8;
        while i < input.len() {
            if flag_bit == 8 {
                flag_pos = out.len();
                out.push(0);
                flags = 0;
                flag_bit = 0;
            }
            // Find the longest match at i.
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + LZ_MIN_MATCH <= input.len() {
                let h = hash(input, i);
                let mut cand = head[h];
                let mut tries = 32;
                while cand >= 0 && tries > 0 {
                    let c = cand as usize;
                    let dist = i - c;
                    if dist > LZ_WINDOW {
                        break;
                    }
                    let limit = (input.len() - i).min(LZ_MAX_MATCH);
                    let mut l = 0usize;
                    while l < limit && input[c + l] == input[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l == LZ_MAX_MATCH {
                            break;
                        }
                    }
                    cand = prev[c];
                    tries -= 1;
                }
            }
            if best_len >= LZ_MIN_MATCH {
                // Match item: 2 bytes — 12-bit distance, 4-bit (length-3).
                flags |= 1 << flag_bit;
                let d = (best_dist - 1) as u16; // 0..4095
                let l = (best_len - LZ_MIN_MATCH) as u16; // 0..15
                let word = (d << 4) | l;
                out.extend_from_slice(&word.to_be_bytes());
                // Insert hash entries for the covered positions.
                let end = i + best_len;
                while i < end {
                    if i + LZ_MIN_MATCH <= input.len() {
                        let h = hash(input, i);
                        prev[i] = head[h];
                        head[h] = i as i32;
                    }
                    i += 1;
                }
            } else {
                out.push(input[i]);
                if i + LZ_MIN_MATCH <= input.len() {
                    let h = hash(input, i);
                    prev[i] = head[h];
                    head[h] = i as i32;
                }
                i += 1;
            }
            flag_bit += 1;
            out[flag_pos] = flags;
        }
        out
    }

    /// The LZSS decoder: appends to the empty `out`, failing before it would
    /// hold more than `limit` bytes.
    pub(super) fn reference_lzss_decode(
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<(), CodecError> {
        let mut i = 0usize;
        while i < input.len() {
            let flags = input[i];
            i += 1;
            for bit in 0..8 {
                if i >= input.len() {
                    break;
                }
                if flags & (1 << bit) != 0 {
                    if i + 1 >= input.len() {
                        return Err(CodecError("truncated lzss match"));
                    }
                    let word = u16::from_be_bytes([input[i], input[i + 1]]);
                    i += 2;
                    let dist = (word >> 4) as usize + 1;
                    let len = (word & 0xf) as usize + LZ_MIN_MATCH;
                    if dist > out.len() {
                        return Err(CodecError("lzss distance beyond output"));
                    }
                    if len > limit - out.len() {
                        return Err(TOO_LONG);
                    }
                    let start = out.len() - dist;
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                } else {
                    if out.len() == limit {
                        return Err(TOO_LONG);
                    }
                    out.push(input[i]);
                    i += 1;
                }
            }
        }
        Ok(())
    }
}
