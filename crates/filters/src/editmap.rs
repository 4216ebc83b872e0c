//! The sequence-number edit map at the heart of the TCP-Transparency-
//! Support Filter (§8.1).
//!
//! When a filter shrinks, grows, or removes payload bytes in flight, every
//! subsequent sequence number on the wireless side shifts relative to the
//! sender's sequence space. The edit map records, for each contiguous range
//! of *original* stream bytes processed, the bytes that were emitted in its
//! place, providing three operations:
//!
//! - forward mapping of sequence numbers (sender space → mobile space),
//! - conservative inverse mapping of acknowledgements (mobile → sender),
//! - byte-exact replay for retransmissions (the sender retransmits original
//!   bytes; the receiver must observe the *same* transformed bytes).
//!
//! All arithmetic is modulo-2³² using the TCP sequence comparisons, so the
//! map is correct across sequence wraparound.

use std::collections::VecDeque;

use comma_rt::Bytes;
use comma_tcp::seq::{seq_diff, seq_le, seq_lt};

/// One edit record: `orig_len` original bytes starting at `orig_start` were
/// replaced by `out` (possibly identical, possibly empty).
#[derive(Clone, Debug)]
pub struct Edit {
    /// First original sequence number covered.
    pub orig_start: u32,
    /// Number of original bytes covered.
    pub orig_len: u32,
    /// Mapped sequence number of the first output byte.
    pub new_start: u32,
    /// Bytes emitted in place of the original range (length = new length).
    pub out: Bytes,
    /// `true` when `out` equals the original bytes (pass-through range).
    pub identity: bool,
}

impl Edit {
    /// One past the last original byte covered.
    pub fn orig_end(&self) -> u32 {
        self.orig_start.wrapping_add(self.orig_len)
    }

    /// One past the last output byte.
    pub fn new_end(&self) -> u32 {
        self.new_start.wrapping_add(self.out.len() as u32)
    }
}

/// The edit map: a contiguous log of edits from a base point to a frontier.
///
/// # Examples
///
/// ```
/// use comma_rt::Bytes;
/// use comma_filters::editmap::EditMap;
///
/// let mut map = EditMap::new(1000);
/// // 100 original bytes compressed to 40.
/// map.push(100, Bytes::from(vec![0u8; 40]), false);
/// // The byte after the edited range maps 60 bytes lower.
/// assert_eq!(map.map_seq(1100), 1040);
/// // An ACK covering all 40 output bytes acknowledges all 100 originals.
/// assert_eq!(map.inverse_ack(1040), 1100);
/// // A partial ACK into the transformed range is conservative.
/// assert_eq!(map.inverse_ack(1020), 1000);
/// ```
#[derive(Clone, Debug)]
pub struct EditMap {
    base_orig: u32,
    base_new: u32,
    records: VecDeque<Edit>,
    /// Σ `out.len()` over `records`, kept by `push` and `trim`.
    stored: usize,
}

impl EditMap {
    /// Creates a map whose first stream byte carries sequence `init_seq` in
    /// both spaces (typically ISS+1).
    pub fn new(init_seq: u32) -> Self {
        EditMap {
            base_orig: init_seq,
            base_new: init_seq,
            records: VecDeque::new(),
            stored: 0,
        }
    }

    /// Next unprocessed original sequence number.
    pub fn frontier_orig(&self) -> u32 {
        self.records
            .back()
            .map(|r| r.orig_end())
            .unwrap_or(self.base_orig)
    }

    /// Mapped sequence number of the frontier.
    pub fn frontier_new(&self) -> u32 {
        self.records
            .back()
            .map(|r| r.new_end())
            .unwrap_or(self.base_new)
    }

    /// First original sequence number still replayable.
    pub fn base_orig(&self) -> u32 {
        self.base_orig
    }

    /// Folds the whole map — bases and every record, including replay
    /// bytes — into a canonical state fingerprint.
    pub fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        h.update_u64(self.base_orig as u64);
        h.update_u64(self.base_new as u64);
        for r in &self.records {
            h.update_u64(r.orig_start as u64);
            h.update_u64(r.orig_len as u64);
            h.update_u64(r.new_start as u64);
            h.update(&r.out[..]);
            h.update_u64(r.identity as u64);
        }
    }

    /// Mapped counterpart of [`EditMap::base_orig`].
    pub fn base_new(&self) -> u32 {
        self.base_new
    }

    /// Number of retained edit records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no edits are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the retained edit records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Edit> {
        self.records.iter()
    }

    /// Total retained output bytes (memory accounting), in O(1).
    pub fn stored_bytes(&self) -> usize {
        self.stored
    }

    /// Returns `true` if every retained record is an identity record.
    pub fn all_identity(&self) -> bool {
        self.records.iter().all(|r| r.identity)
    }

    /// Appends an edit at the frontier: the next `orig_len` original bytes
    /// are replaced by `out`. Returns the record's mapped start.
    pub fn push(&mut self, orig_len: u32, out: Bytes, identity: bool) -> u32 {
        let orig_start = self.frontier_orig();
        let new_start = self.frontier_new();
        self.stored += out.len();
        self.records.push_back(Edit {
            orig_start,
            orig_len,
            new_start,
            out,
            identity,
        });
        new_start
    }

    /// Maps an original sequence number into the output space.
    ///
    /// Positions inside an identity record map exactly; positions inside a
    /// transformed record map to the record's output start (the finest
    /// meaningful granularity). Positions at or beyond the frontier map by
    /// the cumulative shift at the frontier.
    pub fn map_seq(&self, orig: u32) -> u32 {
        if seq_le(orig, self.base_orig) {
            let behind = seq_diff(self.base_orig, orig);
            return self.base_new.wrapping_sub(behind);
        }
        for r in &self.records {
            if seq_lt(orig, r.orig_end()) {
                if seq_le(orig, r.orig_start) {
                    return r.new_start;
                }
                if r.identity {
                    let off = seq_diff(orig, r.orig_start);
                    return r.new_start.wrapping_add(off);
                }
                return r.new_start;
            }
        }
        let ahead = seq_diff(orig, self.frontier_orig());
        self.frontier_new().wrapping_add(ahead)
    }

    /// Translates a cumulative ACK from the output space back to the
    /// original space, conservatively: an original byte counts as
    /// acknowledged only when *every* output byte derived from its record
    /// is covered (identity records translate exactly).
    pub fn inverse_ack(&self, new_ack: u32) -> u32 {
        if seq_le(new_ack, self.base_new) {
            let behind = seq_diff(self.base_new, new_ack);
            return self.base_orig.wrapping_sub(behind);
        }
        let mut orig_cursor = self.base_orig;
        for r in &self.records {
            if seq_le(r.new_end(), new_ack) {
                orig_cursor = r.orig_end();
                continue;
            }
            if r.identity && seq_lt(r.new_start, new_ack) {
                let off = seq_diff(new_ack, r.new_start);
                orig_cursor = r.orig_start.wrapping_add(off.min(r.orig_len));
            }
            return orig_cursor;
        }
        // Beyond the frontier (e.g. a FIN consuming one unit in each
        // space): translate the excess one-for-one.
        let ahead = seq_diff(new_ack, self.frontier_new());
        self.frontier_orig().wrapping_add(ahead)
    }

    /// Returns the edits overlapping the original range `[seq, seq+len)`,
    /// for retransmission replay.
    pub fn covering(&self, seq: u32, len: u32) -> Vec<&Edit> {
        let end = seq.wrapping_add(len);
        self.records
            .iter()
            .filter(|r| seq_lt(r.orig_start, end) && seq_lt(seq, r.orig_end()))
            .collect()
    }

    /// Discards records whose output has been fully acknowledged (ACK given
    /// in output space), advancing the base.
    pub fn trim(&mut self, new_ack: u32) {
        while let Some(front) = self.records.front() {
            if seq_le(front.new_end(), new_ack) {
                self.base_orig = front.orig_end();
                self.base_new = front.new_end();
                self.stored -= front.out.len();
                self.records.pop_front();
            } else {
                break;
            }
        }
    }

    /// Verifies the map's structural invariants, returning the first breach
    /// found: records must tile both sequence spaces contiguously from the
    /// bases, identity records must preserve length, the running
    /// [`EditMap::stored_bytes`] total must be the records' sum, and the
    /// boundary mappings must agree in both directions. Conformance sweeps call this
    /// on every live TTSF map; a breach here means ACK translation or
    /// retransmission replay can silently corrupt the stream.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut orig = self.base_orig;
        let mut new = self.base_new;
        for (i, r) in self.records.iter().enumerate() {
            if r.orig_start != orig {
                return Err(format!(
                    "record {i}: orig_start {} leaves a gap after {}",
                    r.orig_start, orig
                ));
            }
            if r.new_start != new {
                return Err(format!(
                    "record {i}: new_start {} leaves a gap after {}",
                    r.new_start, new
                ));
            }
            if r.identity && r.orig_len as usize != r.out.len() {
                return Err(format!(
                    "record {i}: identity record changes length ({} -> {})",
                    r.orig_len,
                    r.out.len()
                ));
            }
            orig = r.orig_end();
            new = r.new_end();
        }
        let stored: usize = self.records.iter().map(|r| r.out.len()).sum();
        if self.stored != stored {
            return Err(format!(
                "stored_bytes {} but the records hold {stored}",
                self.stored
            ));
        }
        if self.map_seq(self.base_orig) != self.base_new {
            return Err(format!(
                "base maps to {} instead of {}",
                self.map_seq(self.base_orig),
                self.base_new
            ));
        }
        if self.map_seq(self.frontier_orig()) != self.frontier_new() {
            return Err(format!(
                "frontier maps to {} instead of {}",
                self.map_seq(self.frontier_orig()),
                self.frontier_new()
            ));
        }
        if self.inverse_ack(self.frontier_new()) != self.frontier_orig() {
            return Err(format!(
                "frontier ack inverts to {} instead of {}",
                self.inverse_ack(self.frontier_new()),
                self.frontier_orig()
            ));
        }
        Ok(())
    }

    /// Net bytes saved so far (original minus output; negative if the
    /// stream expanded).
    pub fn bytes_saved(&self) -> i64 {
        let orig = seq_diff(self.frontier_orig(), self.base_orig) as i64;
        let new = seq_diff(self.frontier_new(), self.base_new) as i64;
        // Trimmed records also contributed, but the caller accounts those
        // via its own counters; this reports the retained window only.
        orig - new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_with(edits: &[(u32, usize, bool)]) -> EditMap {
        // (orig_len, out_len, identity)
        let mut m = EditMap::new(5000);
        for &(ol, nl, id) in edits {
            m.push(ol, Bytes::from(vec![7u8; nl]), id);
        }
        m
    }

    #[test]
    fn identity_maps_exactly() {
        let m = map_with(&[(100, 100, true)]);
        assert_eq!(m.map_seq(5000), 5000);
        assert_eq!(m.map_seq(5050), 5050);
        assert_eq!(m.map_seq(5100), 5100);
        assert_eq!(m.inverse_ack(5100), 5100);
        assert_eq!(m.inverse_ack(5037), 5037);
    }

    #[test]
    fn shrink_shifts_following_bytes() {
        let m = map_with(&[(100, 100, true), (200, 50, false), (100, 100, true)]);
        // After the 200→50 edit, everything shifts down by 150.
        assert_eq!(m.map_seq(5100), 5100);
        assert_eq!(m.map_seq(5300), 5150);
        assert_eq!(m.map_seq(5400), 5250);
        assert_eq!(m.frontier_orig(), 5400);
        assert_eq!(m.frontier_new(), 5250);
        // Interior of the transformed record maps to its start (5100 is
        // where the record's output begins in the new space).
        assert_eq!(m.map_seq(5200), 5100);
        assert_eq!(m.map_seq(5299), 5100);
    }

    #[test]
    fn expansion_supported() {
        let m = map_with(&[(100, 300, false)]);
        assert_eq!(m.map_seq(5100), 5300);
        assert_eq!(m.inverse_ack(5300), 5100);
        assert_eq!(m.inverse_ack(5299), 5000, "partial coverage acks nothing");
    }

    #[test]
    fn inverse_ack_conservative_on_transformed() {
        let m = map_with(&[(100, 40, false), (60, 60, true)]);
        // ACK covering only part of the transformed output: nothing acked.
        assert_eq!(m.inverse_ack(5020), 5000);
        // ACK at exactly the end of the transformed output: 100 origs.
        assert_eq!(m.inverse_ack(5040), 5100);
        // Partial into the following identity range: exact.
        assert_eq!(m.inverse_ack(5070), 5130);
        assert_eq!(m.inverse_ack(5100), 5160);
    }

    #[test]
    fn dropped_range_acked_by_following_byte() {
        // 100 bytes removed entirely, then 10 identity bytes.
        let m = map_with(&[(100, 0, false), (10, 10, true)]);
        assert_eq!(m.frontier_new(), 5010);
        // ACK of the first following byte covers the removed range.
        assert_eq!(m.inverse_ack(5001), 5101);
        assert_eq!(m.inverse_ack(5010), 5110);
        // ACK at the base acknowledges... the removed range only once a
        // subsequent byte arrives; at exactly base nothing.
        assert_eq!(m.inverse_ack(5000), 5000);
    }

    #[test]
    fn covering_finds_overlaps() {
        let m = map_with(&[(100, 100, true), (200, 50, false), (100, 100, true)]);
        let c = m.covering(5150, 200); // Overlaps records 1 and 2.
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].orig_start, 5100);
        assert_eq!(c[1].orig_start, 5300);
        assert!(m.covering(5400, 100).is_empty(), "beyond frontier");
        assert_eq!(m.covering(5000, 1).len(), 1);
    }

    #[test]
    fn trim_advances_base_and_preserves_mapping() {
        let mut m = map_with(&[(100, 40, false), (100, 100, true)]);
        assert_eq!(m.stored_bytes(), 140);
        m.trim(5040); // First record's output fully acked.
        assert_eq!(m.base_orig(), 5100);
        assert_eq!(m.base_new(), 5040);
        assert_eq!(m.len(), 1);
        assert_eq!(m.stored_bytes(), 100);
        // Mapping of later bytes unchanged by trimming.
        assert_eq!(m.map_seq(5150), 5090);
        assert_eq!(m.inverse_ack(5140), 5200);
        // Partial ack does not trim.
        m.trim(5100);
        assert_eq!(m.len(), 1);
        m.trim(5140);
        assert!(m.is_empty());
        assert_eq!(m.stored_bytes(), 0);
    }

    #[test]
    fn wraparound_correctness() {
        let start = u32::MAX - 50;
        let mut m = EditMap::new(start);
        m.push(100, Bytes::from(vec![0u8; 30]), false);
        m.push(100, Bytes::from(vec![0u8; 100]), true);
        assert_eq!(m.frontier_orig(), start.wrapping_add(200));
        assert_eq!(m.frontier_new(), start.wrapping_add(130));
        assert_eq!(m.map_seq(start.wrapping_add(100)), start.wrapping_add(30));
        assert_eq!(
            m.inverse_ack(start.wrapping_add(30)),
            start.wrapping_add(100)
        );
        assert_eq!(
            m.inverse_ack(start.wrapping_add(130)),
            start.wrapping_add(200)
        );
    }

    #[test]
    fn fin_beyond_frontier_translates_one_for_one() {
        let m = map_with(&[(100, 40, false)]);
        // FIN occupies frontier_new + 1 → frontier_orig + 1.
        assert_eq!(m.inverse_ack(5041), 5101);
        assert_eq!(m.map_seq(5101), 5041);
    }

    #[test]
    fn bytes_saved_accounting() {
        let m = map_with(&[(100, 40, false), (50, 50, true)]);
        assert_eq!(m.bytes_saved(), 60);
        let expand = map_with(&[(10, 25, false)]);
        assert_eq!(expand.bytes_saved(), -15);
    }

    #[test]
    fn invariants_hold_through_push_and_trim() {
        let mut m = map_with(&[(100, 40, false), (100, 100, true), (50, 0, false)]);
        assert_eq!(m.check_invariants(), Ok(()));
        m.trim(5040);
        assert_eq!(m.check_invariants(), Ok(()));
        let wrap_start = u32::MAX - 20;
        let mut w = EditMap::new(wrap_start);
        w.push(100, Bytes::from(vec![1u8; 30]), false);
        w.push(60, Bytes::from(vec![2u8; 60]), true);
        assert_eq!(w.check_invariants(), Ok(()));
    }

    #[test]
    fn invariants_catch_corruption() {
        let mut m = map_with(&[(100, 40, false), (100, 100, true)]);
        m.records[1].new_start = m.records[1].new_start.wrapping_add(3);
        assert!(m.check_invariants().unwrap_err().contains("new_start"));
        let mut m = map_with(&[(100, 40, false), (100, 100, true)]);
        m.stored += 1;
        assert!(m.check_invariants().unwrap_err().contains("stored_bytes"));
        let mut m = map_with(&[(100, 100, true)]);
        m.records[0].orig_len = 90;
        assert!(m
            .check_invariants()
            .unwrap_err()
            .contains("identity record changes length"));
    }

    #[test]
    fn all_identity_flag() {
        assert!(map_with(&[(10, 10, true), (5, 5, true)]).all_identity());
        assert!(!map_with(&[(10, 10, true), (5, 4, false)]).all_identity());
        assert!(EditMap::new(0).all_identity());
    }
}
