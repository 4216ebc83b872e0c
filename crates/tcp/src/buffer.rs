//! Send and receive buffers.
//!
//! The send buffer holds the bytes from `SND.UNA` forward (both in-flight
//! and unsent) so that any range can be retransmitted. It keeps what the
//! application wrote — the written `Bytes` themselves, never a copy — and
//! hands each segment a zero-copy slice of the write it lies in, so a byte
//! sits in memory once however many segments, link queues and proxy caches
//! hold it. Only a segment that straddles two writes is copied out.
//!
//! The receive buffer reassembles out-of-order segments and meters the
//! advertised window.

use std::collections::{BTreeMap, VecDeque};

use comma_rt::Bytes;

use crate::seq::{seq_diff, seq_ge, seq_le, seq_lt};

/// Sender-side byte store, addressed by absolute sequence number.
#[derive(Clone, Debug, Default)]
pub struct SendBuffer {
    base_seq: u32,
    /// Stream offset (bytes pushed since [`SendBuffer::new`]) of
    /// `base_seq`.
    base_off: u64,
    /// The retained application writes, oldest first, each with the stream
    /// offset of its first byte. The front write is trimmed to start at
    /// `base_off`; none is empty.
    chunks: VecDeque<(u64, Bytes)>,
}

impl SendBuffer {
    /// Creates a buffer whose first byte will carry sequence `base_seq`.
    pub fn new(base_seq: u32) -> Self {
        SendBuffer {
            base_seq,
            base_off: 0,
            chunks: VecDeque::new(),
        }
    }

    /// Sequence number of the first retained byte (= `SND.UNA`).
    pub fn base_seq(&self) -> u32 {
        self.base_seq
    }

    /// The retained bytes, in order, as the writes that hold them.
    fn parts(&self) -> impl Iterator<Item = &[u8]> + Clone {
        self.chunks.iter().map(|(_, b)| b.as_slice())
    }

    /// Folds the buffer (base sequence and retained bytes) into a
    /// canonical state fingerprint: the same digest as one `update` over
    /// the bytes laid end to end, however they were written.
    pub fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        h.update_u64(self.base_seq as u64);
        h.update_parts(self.parts());
    }

    /// Sequence number one past the last buffered byte.
    pub fn end_seq(&self) -> u32 {
        self.base_seq.wrapping_add(self.len() as u32)
    }

    /// Number of buffered bytes (acked bytes are discarded).
    pub fn len(&self) -> usize {
        self.chunks
            .back()
            .map_or(0, |(off, b)| (off + b.len() as u64 - self.base_off) as usize)
    }

    /// Returns `true` if no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Appends application bytes. A `Bytes` is kept as it is; anything
    /// else (`&[u8]`, `Vec<u8>`) is converted once.
    pub fn push(&mut self, bytes: impl Into<Bytes>) {
        let bytes = bytes.into();
        if !bytes.is_empty() {
            self.chunks.push_back((self.base_off + self.len() as u64, bytes));
        }
    }

    /// Up to `max` bytes starting at sequence `seq`; empty if `seq` is
    /// outside the retained range. A range inside one write is a slice of
    /// it (no copy); only a range spanning writes is copied.
    pub fn slice(&self, seq: u32, max: usize) -> Bytes {
        if seq_lt(seq, self.base_seq) || seq_ge(seq, self.end_seq()) {
            return Bytes::new();
        }
        let off = self.base_off + seq_diff(seq, self.base_seq) as u64;
        let want = max.min(self.len() - (off - self.base_off) as usize);
        // The write holding `off`: the last one starting at or before it.
        let first = self.chunks.partition_point(|&(start, _)| start <= off) - 1;
        let (start, chunk) = &self.chunks[first];
        let at = (off - start) as usize;
        if at + want <= chunk.len() {
            return chunk.slice(at..at + want);
        }
        let mut out = Vec::with_capacity(want);
        out.extend_from_slice(&chunk[at..]);
        for (_, chunk) in self.chunks.range(first + 1..) {
            let take = (want - out.len()).min(chunk.len());
            out.extend_from_slice(&chunk[..take]);
            if out.len() == want {
                break;
            }
        }
        Bytes::from(out)
    }

    /// Discards bytes below `ack` (they were cumulatively acknowledged):
    /// whole writes are dropped, the front survivor is trimmed. When
    /// nothing is kept the allocation goes with the data: a finished
    /// flow's buffer holds no memory.
    pub fn ack_to(&mut self, ack: u32) {
        if seq_le(ack, self.base_seq) {
            return;
        }
        let n = (seq_diff(ack, self.base_seq) as usize).min(self.len());
        self.base_seq = self.base_seq.wrapping_add(n as u32);
        self.base_off += n as u64;
        while let Some((start, chunk)) = self.chunks.front_mut() {
            let end = *start + chunk.len() as u64;
            if end <= self.base_off {
                self.chunks.pop_front();
                continue;
            }
            let cut = (self.base_off - *start) as usize;
            *chunk = chunk.slice(cut..);
            *start = self.base_off;
            break;
        }
        if self.chunks.is_empty() {
            self.chunks = VecDeque::new();
        }
    }
}

/// Receiver-side reassembly buffer.
#[derive(Clone, Debug)]
pub struct RecvBuffer {
    rcv_nxt: u32,
    capacity: u32,
    /// Contiguous in-order bytes not yet taken by the application.
    ready: Vec<u8>,
    /// Out-of-order segments keyed by their starting sequence number.
    ooo: BTreeMap<u32, Bytes>,
}

impl RecvBuffer {
    /// Creates a buffer expecting `rcv_nxt` as its first byte.
    pub fn new(rcv_nxt: u32, capacity: u32) -> Self {
        RecvBuffer {
            rcv_nxt,
            capacity,
            ready: Vec::new(),
            ooo: BTreeMap::new(),
        }
    }

    /// Next expected sequence number.
    pub fn rcv_nxt(&self) -> u32 {
        self.rcv_nxt
    }

    /// Folds the reassembly state (cursor, undelivered bytes, out-of-order
    /// segments in sequence order) into a canonical state fingerprint.
    pub fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        h.update_u64(self.rcv_nxt as u64);
        h.update_u64(self.capacity as u64);
        h.update(&self.ready[..]);
        for (seq, data) in &self.ooo {
            h.update_u64(*seq as u64);
            h.update(&data[..]);
        }
    }

    /// Bytes available to the application.
    pub fn readable(&self) -> usize {
        self.ready.len()
    }

    /// Current advertised window: capacity minus bytes the application has
    /// not consumed yet.
    pub fn window(&self) -> u32 {
        self.capacity
            .saturating_sub(self.ready.len() as u32)
            .min(65_535)
    }

    /// Accepts segment bytes starting at `seq`. Returns `true` if the
    /// segment advanced `RCV.NXT` (an in-order delivery), `false` if it was
    /// out of order, a duplicate, or empty.
    pub fn receive(&mut self, seq: u32, data: &[u8]) -> bool {
        if data.is_empty() {
            return false;
        }
        let end = seq.wrapping_add(data.len() as u32);
        if seq_le(end, self.rcv_nxt) {
            return false; // Entirely old.
        }
        if seq_lt(self.rcv_nxt, seq) {
            // A gap: stash out of order (trim nothing; overlaps resolved on
            // drain by preferring already-delivered bytes).
            self.ooo
                .entry(seq)
                .or_insert_with(|| Bytes::copy_from_slice(data));
            return false;
        }
        // Overlaps rcv_nxt: trim the stale prefix and deliver.
        let skip = seq_diff(self.rcv_nxt, seq) as usize;
        self.ready.extend_from_slice(&data[skip..]);
        self.rcv_nxt = end;
        self.drain_ooo();
        true
    }

    fn drain_ooo(&mut self) {
        while let Some((&seq, _)) = self.ooo.iter().next() {
            if !seq_le(seq, self.rcv_nxt) {
                break;
            }
            let data = self.ooo.remove(&seq).expect("present");
            let end = seq.wrapping_add(data.len() as u32);
            if seq_lt(self.rcv_nxt, end) {
                let skip = seq_diff(self.rcv_nxt, seq) as usize;
                self.ready.extend_from_slice(&data[skip..]);
                self.rcv_nxt = end;
            }
        }
    }

    /// Returns `true` if any out-of-order data is buffered (a hole exists).
    pub fn has_holes(&self) -> bool {
        !self.ooo.is_empty()
    }

    /// Advances `RCV.NXT` past a peer FIN's sequence slot. Readable bytes
    /// are preserved; any stale out-of-order fragments are discarded (no
    /// data can follow a FIN).
    pub fn consume_fin(&mut self) {
        self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
        self.ooo.clear();
    }

    /// Takes all readable bytes (application consumption).
    pub fn take(&mut self) -> Bytes {
        Bytes::from(std::mem::take(&mut self.ready))
    }

    /// Takes up to `max` readable bytes.
    pub fn take_up_to(&mut self, max: usize) -> Bytes {
        if max >= self.ready.len() {
            return self.take();
        }
        let rest = self.ready.split_off(max);
        let head = std::mem::replace(&mut self.ready, rest);
        Bytes::from(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_buffer_slicing_and_acks() {
        let mut sb = SendBuffer::new(1000);
        sb.push(b"hello world");
        assert_eq!(sb.end_seq(), 1011);
        assert_eq!(&sb.slice(1000, 5)[..], b"hello");
        assert_eq!(&sb.slice(1006, 100)[..], b"world");
        assert!(sb.slice(999, 5).is_empty());
        assert!(sb.slice(1011, 5).is_empty());
        sb.ack_to(1006);
        assert_eq!(sb.base_seq(), 1006);
        assert_eq!(&sb.slice(1006, 5)[..], b"world");
        // Stale ACK ignored.
        sb.ack_to(1000);
        assert_eq!(sb.base_seq(), 1006);
    }

    #[test]
    fn send_buffer_wraparound() {
        let base = u32::MAX - 4;
        let mut sb = SendBuffer::new(base);
        sb.push(b"0123456789");
        assert_eq!(sb.end_seq(), 5);
        assert_eq!(&sb.slice(u32::MAX, 3)[..], b"456");
        sb.ack_to(2);
        assert_eq!(sb.base_seq(), 2);
        assert_eq!(&sb.slice(2, 10)[..], b"789");
    }

    /// The chunked buffer against the obvious model: a `Vec` holding
    /// exactly the retained bytes, drained on every ACK. Writes arrive as
    /// `Bytes` of random sizes (or as slices, copied once); a range inside
    /// one write comes back as a view of that write's storage. A buffer an
    /// ACK leaves empty holds no allocation.
    #[test]
    fn send_buffer_matches_naive_model() {
        use comma_rt::prop::Runner;
        use comma_rt::{ensure, ensure_eq, Rng};

        #[derive(Debug)]
        enum Op {
            /// Write `n` bytes, as a `Bytes` (`true`) or a slice.
            Push(usize, bool),
            /// ACK at `base + delta`; negative is stale, beyond `len` over-long.
            Ack(i64),
            Slice(i64, usize),
        }

        Runner::new("send_buffer_matches_naive_model").cases(200).run(
            |rng| {
                // A third of the cases start close enough below 2^32 to wrap.
                let base = match rng.gen_range(0..3u32) {
                    0 => u32::MAX - rng.gen_range(0..4_000u32),
                    _ => rng.gen::<u32>(),
                };
                let ops: Vec<Op> = (0..rng.gen_range(1..120usize))
                    .map(|_| match rng.gen_range(0..10u32) {
                        0..=2 => {
                            // Writes below, near and above one MSS.
                            let n = match rng.gen_range(0..3u32) {
                                0 => rng.gen_range(0..64usize),
                                1 => rng.gen_range(0..3_000usize),
                                _ => rng.gen_range(3_000..20_000usize),
                            };
                            Op::Push(n, rng.gen_range(0..4u32) > 0)
                        }
                        3..=6 => Op::Ack(rng.gen_range(-2_000..6_000i64)),
                        _ => Op::Slice(rng.gen_range(-50..6_000i64), rng.gen_range(0..2_000usize)),
                    })
                    .collect();
                (base, ops)
            },
            |(base, ops)| {
                let mut sb = SendBuffer::new(*base);
                let (mut m_base, mut model) = (*base, Vec::<u8>::new());
                // Every write with its stream offset, and the stream offset
                // of `m_base`.
                let (mut written, mut m_off) = (Vec::<(u64, Bytes)>::new(), 0u64);
                let mut next_byte = 0u8;
                for (i, op) in ops.iter().enumerate() {
                    match *op {
                        Op::Push(n, as_bytes) => {
                            let bytes: Vec<u8> = (0..n)
                                .map(|_| {
                                    next_byte = next_byte.wrapping_add(1);
                                    next_byte
                                })
                                .collect();
                            if as_bytes {
                                let bytes = Bytes::from(bytes.clone());
                                written.push((m_off + model.len() as u64, bytes.clone()));
                                sb.push(bytes);
                            } else {
                                sb.push(&bytes[..]);
                            }
                            model.extend_from_slice(&bytes);
                        }
                        Op::Ack(delta) => {
                            sb.ack_to(m_base.wrapping_add(delta as u32));
                            let n = delta.clamp(0, model.len() as i64) as usize;
                            model.drain(..n);
                            m_base = m_base.wrapping_add(n as u32);
                            m_off += n as u64;
                            if model.is_empty() {
                                ensure_eq!(sb.chunks.capacity(), 0, "op {i}: empty but allocated");
                            }
                        }
                        Op::Slice(delta, max) => {
                            let got = sb.slice(m_base.wrapping_add(delta as u32), max);
                            let want: &[u8] = if delta < 0 || delta as usize >= model.len() {
                                &[]
                            } else {
                                let off = delta as usize;
                                &model[off..(off + max).min(model.len())]
                            };
                            ensure_eq!(&got[..], want, "op {i} {op:?}");
                            // Inside one `Bytes` write: a view of its storage.
                            let from = m_off + delta.max(0) as u64;
                            let to = from + want.len() as u64;
                            let inside = |&&(start, ref w): &&(u64, Bytes)| {
                                start <= from && to <= start + w.len() as u64
                            };
                            if let Some((start, w)) =
                                written.iter().find(inside).filter(|_| !want.is_empty())
                            {
                                let at = w.as_ptr() as usize + (from - start) as usize;
                                ensure_eq!(got.as_ptr() as usize, at, "op {i} {op:?}: copied");
                            }
                        }
                    }
                    ensure_eq!(sb.base_seq(), m_base, "op {i} {op:?}");
                    ensure_eq!(sb.len(), model.len(), "op {i} {op:?}");
                    ensure_eq!(sb.is_empty(), model.is_empty(), "op {i} {op:?}");
                    ensure_eq!(sb.end_seq(), m_base.wrapping_add(model.len() as u32));
                    ensure!(sb.parts().all(|p| !p.is_empty()), "op {i}: an empty write is kept");
                    let kept: Vec<u8> = sb.parts().flatten().copied().collect();
                    ensure_eq!(kept, model, "op {i} {op:?}");
                    let (mut a, mut b) = (comma_rt::digest::StateHasher::new(), comma_rt::digest::StateHasher::new());
                    sb.state_digest(&mut a);
                    b.update_u64(m_base as u64);
                    b.update(&model[..]);
                    ensure_eq!(a.finish(), b.finish(), "digest after op {i} {op:?}");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn recv_in_order() {
        let mut rb = RecvBuffer::new(0, 1000);
        assert!(rb.receive(0, b"abc"));
        assert!(rb.receive(3, b"def"));
        assert_eq!(rb.rcv_nxt(), 6);
        assert_eq!(&rb.take()[..], b"abcdef");
        assert_eq!(rb.readable(), 0);
    }

    #[test]
    fn recv_out_of_order_reassembly() {
        let mut rb = RecvBuffer::new(0, 1000);
        assert!(!rb.receive(3, b"def"));
        assert!(rb.has_holes());
        assert!(rb.receive(0, b"abc"));
        assert!(!rb.has_holes());
        assert_eq!(rb.rcv_nxt(), 6);
        assert_eq!(&rb.take()[..], b"abcdef");
    }

    #[test]
    fn recv_duplicate_and_overlap() {
        let mut rb = RecvBuffer::new(0, 1000);
        assert!(rb.receive(0, b"abcd"));
        assert!(!rb.receive(0, b"abcd"), "exact duplicate");
        assert!(rb.receive(2, b"cdef"), "overlapping retransmission");
        assert_eq!(rb.rcv_nxt(), 6);
        assert_eq!(&rb.take()[..], b"abcdef");
    }

    #[test]
    fn window_shrinks_until_app_reads() {
        let mut rb = RecvBuffer::new(0, 100);
        assert_eq!(rb.window(), 100);
        rb.receive(0, &[0u8; 60]);
        assert_eq!(rb.window(), 40);
        rb.receive(60, &[0u8; 40]);
        assert_eq!(rb.window(), 0);
        let taken = rb.take_up_to(30);
        assert_eq!(taken.len(), 30);
        assert_eq!(rb.window(), 30);
        rb.take();
        assert_eq!(rb.window(), 100);
    }

    #[test]
    fn ooo_chain_drains() {
        let mut rb = RecvBuffer::new(0, 1000);
        rb.receive(6, b"gh");
        rb.receive(3, b"def");
        assert_eq!(rb.readable(), 0);
        rb.receive(0, b"abc");
        assert_eq!(&rb.take()[..], b"abcdefgh");
    }
}
