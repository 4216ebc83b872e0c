//! From-scratch lossless codecs used by the compression services
//! (Table 8.1): byte-oriented RLE and LZSS.
//!
//! Both codecs are self-contained (no external crates) and deterministic.
//! LZSS uses a 4 KiB window with 3..=18-byte matches and flag-byte groups;
//! RLE uses an escape byte. Neither format is compatible with anything
//! external — the peer is always our own decompressor.

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
/// `ESC <byte> <count>`; a literal escape byte becomes `ESC ESC 0`.
pub fn rle_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
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
    out
}

/// Reverses [`rle_compress`], for input whose decoded length nobody
/// declared (a run decodes to 85× its size; framed blocks go through
/// [`Method::decompress_exact`] instead).
pub fn rle_decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(input.len() * 2);
    rle_decode(input, &mut out, usize::MAX)?;
    Ok(out)
}

/// The RLE decoder: appends to `out`, failing before it would hold more
/// than `limit` bytes.
fn rle_decode(input: &[u8], out: &mut Vec<u8>, limit: usize) -> Result<(), CodecError> {
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
            if count > limit - out.len() {
                return Err(TOO_LONG);
            }
            out.extend(std::iter::repeat_n(byte, count));
            i += 3;
        } else {
            if out.len() == limit {
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

/// Reverses [`lzss_compress`], for input whose decoded length nobody
/// declared (framed blocks go through [`Method::decompress_exact`]).
pub fn lzss_decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(input.len() * 2);
    lzss_decode(input, &mut out, usize::MAX)?;
    Ok(out)
}

/// The LZSS decoder: appends to the empty `out`, failing before it would
/// hold more than `limit` bytes.
fn lzss_decode(input: &[u8], out: &mut Vec<u8>, limit: usize) -> Result<(), CodecError> {
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

    /// Compresses with the selected method.
    pub fn compress(self, input: &[u8]) -> Vec<u8> {
        match self {
            Method::Rle => rle_compress(input),
            Method::Lzss => lzss_compress(input),
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
    /// reserves exactly that, stops as soon as the output would exceed it,
    /// and rejects a block that ends short of it — so a hostile block costs
    /// at most the length its header admits to, and yields nothing.
    pub fn decompress_exact(self, input: &[u8], raw_len: usize) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(raw_len);
        match self {
            Method::Rle => rle_decode(input, &mut out, raw_len)?,
            Method::Lzss => lzss_decode(input, &mut out, raw_len)?,
        }
        if out.len() < raw_len {
            return Err(CodecError("output falls short of the declared length"));
        }
        Ok(out)
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
