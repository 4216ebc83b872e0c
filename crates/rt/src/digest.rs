//! The two digests of the workspace, and which is for what.
//!
//! [`Fnv1a`] is the *recorded* digest: the determinism tests fold a whole
//! simulation trace into one `u64` and compare it with a golden value
//! written down in the test (two runs of the same seed must produce the
//! identical digest, different seeds must not), and the FNV hash maps key
//! on it. Its algorithm is frozen — changing it invalidates every golden.
//! FNV-1a is tiny, stable across platforms, and mixes short trace lines
//! well; it is not a cryptographic hash.
//!
//! [`StateHasher`] is the *in-memory* digest behind the model checker's
//! state fingerprints (`Simulator::state_hash` and every `state_digest`).
//! Nothing records its output, so it is free to be fast: one
//! multiply-xorshift per 64-bit word where FNV-1a spends eight dependent
//! multiplies, and byte strings are length-framed so adjacent fields
//! cannot run into each other.

/// A streaming 64-bit FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Feeds `bytes` into the digest.
    pub fn update(&mut self, bytes: impl AsRef<[u8]>) -> &mut Self {
        for &b in bytes.as_ref() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Feeds a little-endian `u64` into the digest.
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(v.to_le_bytes())
    }

    /// Returns the current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Hashes formatted text as it is written, with no `String` in between.
impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s);
        Ok(())
    }
}

/// A streaming 64-bit word-at-a-time hasher for state fingerprints.
///
/// Same method names as [`Fnv1a`], different contract: [`StateHasher::update`]
/// folds the length before the bytes, so `update(b"ab").update(b"c")` and
/// `update(b"a").update(b"bc")` differ, and the output is not stable
/// across versions of this crate — never record it.
#[derive(Clone, Copy, Debug)]
pub struct StateHasher(u64);

impl StateHasher {
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    /// Odd, so the multiply is a bijection on `u64`.
    const MUL: u64 = 0xff51_afd7_ed55_8ccd;

    /// Creates a hasher at the fixed seed.
    pub fn new() -> Self {
        StateHasher(Self::SEED)
    }

    /// Feeds one word: xor, multiply, fold the high half down. Each step
    /// is a bijection of the state for a fixed word and of the word for a
    /// fixed state, so a single differing word always changes the digest.
    #[inline]
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        let x = (self.0 ^ v).wrapping_mul(Self::MUL);
        self.0 = x ^ (x >> 32);
        self
    }

    /// Feeds `bytes`, length first, eight bytes per word (the tail
    /// zero-padded — the length word tells `b"a"` from `b"a\0"`).
    pub fn update(&mut self, bytes: impl AsRef<[u8]>) -> &mut Self {
        self.update_parts([bytes.as_ref()])
    }

    /// [`StateHasher::update`] over the concatenation of `parts`, without
    /// building it: one length word for the whole, then the same eight-byte
    /// words, a word straddling two parts assembled on the stack.
    pub fn update_parts<'a, I>(&mut self, parts: I) -> &mut Self
    where
        I: IntoIterator<Item = &'a [u8]>,
        I::IntoIter: Clone,
    {
        let parts = parts.into_iter();
        self.update_u64(parts.clone().map(<[u8]>::len).sum::<usize>() as u64);
        // `word[..fill]` holds bytes not yet folded (fewer than eight).
        let (mut word, mut fill) = ([0u8; 8], 0usize);
        for mut part in parts {
            if fill > 0 {
                let n = (8 - fill).min(part.len());
                word[fill..fill + n].copy_from_slice(&part[..n]);
                (fill, part) = (fill + n, &part[n..]);
                if fill < 8 {
                    continue;
                }
                self.update_u64(u64::from_le_bytes(word));
            }
            let mut chunks = part.chunks_exact(8);
            for c in &mut chunks {
                self.update_u64(u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")));
            }
            let tail = chunks.remainder();
            word[..tail.len()].copy_from_slice(tail);
            fill = tail.len();
        }
        if fill > 0 {
            word[fill..].fill(0);
            self.update_u64(u64::from_le_bytes(word));
        }
        self
    }

    /// Returns the current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for StateHasher {
    fn default() -> Self {
        StateHasher::new()
    }
}

/// One-shot digest of a byte slice.
pub fn fnv1a(bytes: impl AsRef<[u8]>) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// [`Fnv1a`] behind the standard [`std::hash::Hasher`] interface, so FNV
/// can key `std` hash maps without external crates.
#[derive(Clone, Copy, Debug, Default)]
pub struct FnvHasher(Fnv1a);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0.finish()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.update(bytes);
    }
}

/// Build-hasher for [`FnvHasher`]: stateless, so two maps (or two runs)
/// hash identically — unlike `RandomState`, there is no per-process seed,
/// which keeps anything iteration-order-dependent deterministic.
#[derive(Clone, Copy, Debug, Default)]
pub struct FnvBuildHasher;

impl std::hash::BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

/// A `HashMap` keyed by deterministic FNV-1a (small keys, O(1) lookup;
/// the proxy flow table's backing store).
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` hashed by deterministic FNV-1a.
pub type FnvHashSet<K> = std::collections::HashSet<K, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv1a::new();
        h.update(b"foo").update(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn sensitive_to_order() {
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn std_hasher_matches_streaming() {
        use std::hash::Hasher;
        let mut h = FnvHasher::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn fnv_map_is_deterministic() {
        let mut a: FnvHashMap<u64, u64> = FnvHashMap::default();
        let mut b: FnvHashMap<u64, u64> = FnvHashMap::default();
        for i in 0..100u64 {
            a.insert(i, i * 2);
            b.insert(i, i * 2);
        }
        // Stateless hashing: identical insertion sequences iterate
        // identically (RandomState would not).
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y));
        assert_eq!(a.get(&42), Some(&84));
    }

    fn state(parts: &[&[u8]]) -> u64 {
        let mut h = StateHasher::new();
        for p in parts {
            h.update(p);
        }
        h.finish()
    }

    #[test]
    fn state_hasher_frames_lengths() {
        // Fnv1a cannot say this: streaming there is concatenation.
        assert_ne!(state(&[b"ab", b"c"]), state(&[b"a", b"bc"]));
        assert_ne!(state(&[b"abc"]), state(&[b"ab", b"c"]));
        assert_ne!(state(&[b""]), state(&[]));
    }

    #[test]
    fn state_hasher_tells_lengths_and_zero_padding_apart() {
        let lens = [0usize, 1, 7, 8, 9, 17];
        let mut seen = std::collections::BTreeSet::new();
        for &n in &lens {
            // The input, and its zero-padded neighbour one byte longer:
            // both fill the same words, only the length word differs.
            for pad in [0, 1] {
                let mut v = vec![0xa5u8; n];
                v.resize(n + pad, 0);
                assert!(seen.insert(state(&[&v])), "collision at len {n}+{pad}");
            }
        }
        assert_eq!(seen.len(), 2 * lens.len());
    }

    /// Every way of cutting a string into parts hashes as the whole string.
    #[test]
    fn state_hasher_parts_hash_as_their_concatenation() {
        let whole: Vec<u8> = (0u8..40).collect();
        let mut want = StateHasher::new();
        want.update_u64(7).update(&whole);
        for cut_a in 0..whole.len() {
            for cut_b in cut_a..=whole.len() {
                let (a, rest) = whole.split_at(cut_a);
                let (b, c) = rest.split_at(cut_b - cut_a);
                let mut got = StateHasher::new();
                got.update_u64(7).update_parts([a, &[][..], b, c]);
                assert_eq!(got.finish(), want.finish(), "cuts at {cut_a}, {cut_b}");
            }
        }
        assert_eq!(
            StateHasher::new().update_parts(std::iter::empty::<&[u8]>()).finish(),
            StateHasher::new().update(b"").finish()
        );
    }

    #[test]
    fn state_hasher_words_are_order_sensitive() {
        let (mut a, mut b) = (StateHasher::new(), StateHasher::new());
        a.update_u64(1).update_u64(2);
        b.update_u64(2).update_u64(1);
        assert_ne!(a.finish(), b.finish());
        // A word is not its byte string: `update` frames, `update_u64`
        // does not.
        let mut c = StateHasher::new();
        c.update(1u64.to_le_bytes()).update(2u64.to_le_bytes());
        assert_ne!(a.finish(), c.finish());
    }
}
