//! The hierarchical timer-wheel scheduler behind [`crate::sim::Simulator`].
//!
//! The wheel replaces the original global `BinaryHeap`: scheduling and
//! popping are O(1) amortized instead of O(log n), and entries scheduled
//! through [`TimerWheel::schedule_cancellable`] can be cancelled in O(1)
//! through a [`TimerHandle`], so superseded timers (restarted TCP RTOs,
//! rescheduled delayed ACKs) are dropped instead of firing as stale events.
//!
//! # Layout
//!
//! Time is kept in integer microseconds ([`crate::time::SimTime`]). The
//! wheel has [`WHEEL_LEVELS`] levels of [`WHEEL_SLOTS`] slots each; level
//! `l` buckets events by the `l`-th 6-bit digit of their absolute time, so
//! level 0 resolves single microseconds and the whole wheel spans
//! `64^6` µs ≈ 19 hours from the current cursor. Events beyond the span
//! go to an overflow heap and are re-ingested when the cursor reaches
//! their window. Each level keeps a 64-bit occupancy bitmap, so finding
//! the next occupied slot is a couple of `trailing_zeros` instructions.
//!
//! Storage is one slab of cells. A pending entry is written into its cell
//! once, at schedule time, and never moves: a wheel slot is the `u32` head
//! of a list linked through the cells, a cascade relinks indices, the
//! ready batch and the overflow heap hold indices. A fired or purged cell
//! goes onto a free list and is the next one handed out, so the slab
//! grows to the peak number of *simultaneously pending* entries and the
//! steady state allocates nothing; there are no per-slot buffers and no
//! pool of them.
//!
//! # Determinism
//!
//! Every entry carries the monotonic sequence number assigned at schedule
//! time. A popped batch (one level-0 slot, all entries at the identical
//! microsecond) is sorted by that sequence number, so the pop order is
//! exactly the `(time, seq)` order the binary heap produced: same seed,
//! same event order, byte-identical traces.
//!
//! # Cancellation
//!
//! [`CancelSlab`] is a generation-checked slab: a [`TimerHandle`] is a
//! `(slab id, slot, generation)` triple, cancel flips one bit, and stale
//! handles (fired or reused slots) are ignored. Cancelled entries are
//! purged lazily when the cursor reaches them — they never dispatch.
//!
//! Every slab carries a process-unique id stamped into the handles it
//! mints, so a handle is *shard-safe*: cancelling it against a different
//! simulator's wheel (a different slab) is an inert no-op instead of
//! silently killing an unrelated timer that happens to share a slot index.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};

use crate::time::SimTime;

/// Bits per wheel level (64 slots).
pub const WHEEL_BITS: u32 = 6;
/// Slots per wheel level.
pub const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
/// Number of hierarchical levels; the wheel spans `64^WHEEL_LEVELS`
/// microseconds (~19 hours) from the cursor before the overflow heap
/// takes over.
pub const WHEEL_LEVELS: usize = 6;

const SPAN_BITS: u32 = WHEEL_BITS * WHEEL_LEVELS as u32;
const NO_CANCEL: u32 = u32::MAX;
/// End of a cell list (a wheel slot's, or the free list's).
const NIL: u32 = u32::MAX;

/// Process-wide slab id allocator. Id 0 is reserved for
/// [`TimerHandle::NONE`], so every live handle names the slab that minted
/// it and is inert against every other slab.
static SLAB_IDS: AtomicU32 = AtomicU32::new(1);

fn next_slab_id() -> u32 {
    let id = SLAB_IDS.fetch_add(1, AtomicOrdering::Relaxed);
    assert!(id != 0, "slab id space exhausted");
    id
}

/// Handle to a cancellable scheduled timer — the single timer-handle type
/// of the simulator: [`crate::sim::Simulator::schedule_timer`] and
/// [`crate::node::NodeCtx::set_timer_after`] /
/// [`crate::node::NodeCtx::set_timer_at`] all mint it from the same
/// per-wheel [`CancelSlab`].
///
/// Handles are *shard-safe*: each carries the id of the slab that minted
/// it, so cancelling a handle against another simulator's wheel (e.g. a
/// different shard of a [`crate::shard::ShardedSimulator`]) is an inert
/// no-op. Cancelling a handle whose timer already fired (or that was
/// already cancelled) is likewise a safe no-op.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerHandle {
    slab: u32,
    idx: u32,
    gen: u32,
}

impl TimerHandle {
    /// The null handle: never refers to a live timer; cancelling it is a
    /// no-op.
    pub const NONE: TimerHandle = TimerHandle {
        slab: 0,
        idx: NO_CANCEL,
        gen: 0,
    };

    /// Whether this is the null handle.
    pub fn is_none(self) -> bool {
        self.idx == NO_CANCEL
    }
}

#[derive(Clone, Copy)]
struct SlabSlot {
    gen: u32,
    alive: bool,
}

/// Generation-checked slab tracking live cancellable timers. Each slab has
/// a process-unique id stamped into every handle it mints; handles from
/// other slabs are inert against it.
pub struct CancelSlab {
    id: u32,
    slots: Vec<SlabSlot>,
    free: Vec<u32>,
    /// Timers cancelled over the slab's lifetime.
    cancelled: u64,
}

impl Default for CancelSlab {
    fn default() -> Self {
        CancelSlab {
            id: next_slab_id(),
            slots: Vec::new(),
            free: Vec::new(),
            cancelled: 0,
        }
    }
}

impl CancelSlab {
    /// Allocates a slot for a new pending timer and returns its handle.
    pub fn alloc(&mut self) -> TimerHandle {
        let slab = self.id;
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                slot.alive = true;
                TimerHandle {
                    slab,
                    idx,
                    gen: slot.gen,
                }
            }
            None => {
                let idx = self.slots.len() as u32;
                assert!(idx != NO_CANCEL, "timer slab exhausted");
                self.slots.push(SlabSlot { gen: 0, alive: true });
                TimerHandle { slab, idx, gen: 0 }
            }
        }
    }

    /// Cancels the timer behind `handle`. Returns `true` if the timer was
    /// still pending; stale or null handles — and handles minted by a
    /// *different* slab (another simulator's wheel) — return `false`.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        if handle.is_none() || handle.slab != self.id {
            return false;
        }
        match self.slots.get_mut(handle.idx as usize) {
            Some(slot) if slot.gen == handle.gen && slot.alive => {
                slot.alive = false;
                self.cancelled += 1;
                true
            }
            _ => false,
        }
    }

    /// Whether the entry `(idx, gen)` is still live (not cancelled, not
    /// superseded).
    fn is_live(&self, idx: u32, gen: u32) -> bool {
        let slot = &self.slots[idx as usize];
        slot.gen == gen && slot.alive
    }

    /// Releases the slot after its entry fired or was purged; bumps the
    /// generation so outstanding handles become inert.
    fn release(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        slot.alive = false;
        self.free.push(idx);
    }

    /// Timers cancelled over the slab's lifetime.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }
}

/// Cloning preserves the slab **id**: a snapshot pairs cloned nodes (which
/// hold [`TimerHandle`]s minted by the original slab) with their own cloned
/// wheel, and those handles must stay valid against it. Shard safety is
/// unaffected — a handle still only acts on slabs carrying its id, and the
/// clone's slot/generation state is an exact copy of the original's.
impl Clone for CancelSlab {
    fn clone(&self) -> Self {
        CancelSlab {
            id: self.id,
            slots: self.slots.clone(),
            free: self.free.clone(),
            cancelled: self.cancelled,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.id = source.id;
        self.slots.clone_from(&source.slots);
        self.free.clone_from(&source.free);
        self.cancelled = source.cancelled;
    }
}

/// One cell of [`TimerWheel`]'s slab. A pending entry is written once at
/// schedule time and never moves; `next` threads it onto its wheel slot's
/// list, or onto the free list once it has fired or been purged (`item`
/// is `None` exactly then).
struct Entry<T> {
    time: u64,
    seq: u64,
    cancel_idx: u32,
    cancel_gen: u32,
    next: u32,
    item: Option<T>,
}

/// Counters and gauges describing the scheduler's state; exported into
/// `comma-obs` under the `sched` scope by the simulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct WheelStats {
    /// Entries currently pending (wheel + overflow + ready batch).
    pub queue_depth: usize,
    /// Occupied wheel slots across all levels.
    pub wheel_occupancy: u32,
    /// Entries parked in the overflow heap.
    pub overflow_len: usize,
    /// Total entries scheduled over the wheel's lifetime.
    pub scheduled: u64,
    /// Total entries popped (dispatched) over the wheel's lifetime.
    pub fired: u64,
    /// Timers cancelled via [`TimerHandle`]s over the wheel's lifetime.
    pub cancelled: u64,
    /// Cancelled entries purged without dispatch.
    pub purged: u64,
}

/// A hierarchical timer wheel holding events of type `T`.
///
/// Pop order is strictly `(time, seq)`: earliest time first, FIFO within
/// the same microsecond.
pub struct TimerWheel<T> {
    /// Cursor: the time of the last popped batch. Entries are never
    /// scheduled strictly before the cursor (callers clamp to "now").
    base: u64,
    next_seq: u64,
    len: usize,
    /// Every pending entry plus the freed cells awaiting reuse. It grows
    /// to the peak number of simultaneously pending entries; from then on
    /// the steady state allocates nothing.
    slab: Vec<Entry<T>>,
    /// Head of the free-cell list.
    free: u32,
    /// Head cell of each wheel slot's list; `NIL` ⇔ the `occ` bit is clear.
    heads: [[u32; WHEEL_SLOTS]; WHEEL_LEVELS],
    occ: [u64; WHEEL_LEVELS],
    /// `(time, seq, cell)` of the entries beyond the wheel's span, min first.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// The drained current-microsecond batch: cells sorted by seq.
    ready: VecDeque<u32>,
    /// Cancellation slab (shared with dispatch contexts).
    pub(crate) cancel: CancelSlab,
    scheduled: u64,
    fired: u64,
    purged: u64,
    /// [`TimerWheel::digest_pending`]'s cache, allocated by its first
    /// call: a wheel nobody hashes carries one null pointer.
    digests: Option<Box<PendingDigests>>,
}

/// The pending-event digest cache of a [`TimerWheel`].
#[derive(Default)]
struct PendingDigests {
    /// `(seq, digest word)` per cell: the word belongs to the entry with
    /// that sequence number, so a cell reused by a later entry never
    /// serves its predecessor's word.
    words: Vec<(u64, u64)>,
    /// The walk's sort buffer, kept for its capacity.
    order: Vec<(u64, u64, u32)>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimerWheel {
            base: 0,
            next_seq: 0,
            len: 0,
            slab: Vec::new(),
            free: NIL,
            heads: [[NIL; WHEEL_SLOTS]; WHEEL_LEVELS],
            occ: [0; WHEEL_LEVELS],
            overflow: BinaryHeap::new(),
            ready: VecDeque::new(),
            cancel: CancelSlab::default(),
            scheduled: 0,
            fired: 0,
            purged: 0,
            digests: None,
        }
    }

    /// Entries currently pending.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Scheduler statistics snapshot.
    pub fn stats(&self) -> WheelStats {
        WheelStats {
            queue_depth: self.len,
            wheel_occupancy: self.occ.iter().map(|m| m.count_ones()).sum(),
            overflow_len: self.overflow.len(),
            scheduled: self.scheduled,
            fired: self.fired,
            cancelled: self.cancel.cancelled(),
            purged: self.purged,
        }
    }

    /// Cancels a pending cancellable entry; `true` if it was still live.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        self.cancel.cancel(handle)
    }

    /// Schedules `item` at `time` (clamped to the cursor). Plain entries
    /// cannot be cancelled.
    pub fn schedule(&mut self, time: SimTime, item: T) {
        self.insert(time.as_micros(), NO_CANCEL, 0, item);
    }

    /// Schedules `item` at `time` under a pre-allocated handle from
    /// [`CancelSlab::alloc`] (via `self.cancel`).
    pub fn schedule_cancellable(&mut self, time: SimTime, handle: TimerHandle, item: T) {
        debug_assert!(!handle.is_none(), "cancellable entry needs a live handle");
        self.insert(time.as_micros(), handle.idx, handle.gen, item);
    }

    /// Allocates a handle and schedules `item` under it in one step.
    pub fn schedule_with_handle(&mut self, time: SimTime, item: T) -> TimerHandle {
        let handle = self.cancel.alloc();
        self.schedule_cancellable(time, handle, item);
        handle
    }

    fn insert(&mut self, time: u64, cancel_idx: u32, cancel_gen: u32, item: T) {
        let time = time.max(self.base);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.len += 1;
        let entry = Entry {
            time,
            seq,
            cancel_idx,
            cancel_gen,
            next: NIL,
            item: Some(item),
        };
        let idx = match self.free {
            NIL => {
                let idx = self.slab.len() as u32;
                assert!(idx != NIL, "timer wheel slab exhausted");
                self.slab.push(entry);
                idx
            }
            idx => {
                self.free = std::mem::replace(&mut self.slab[idx as usize], entry).next;
                idx
            }
        };
        match Self::placement(self.base, time) {
            Some((level, slot)) => self.place(level, slot, idx),
            None => self.overflow.push(Reverse((time, seq, idx))),
        }
    }

    /// Links cell `idx` onto the head of a wheel slot's list.
    #[inline]
    fn place(&mut self, level: usize, slot: usize, idx: u32) {
        self.slab[idx as usize].next = std::mem::replace(&mut self.heads[level][slot], idx);
        self.occ[level] |= 1 << slot;
    }

    /// Empties a wheel slot, returning the head of its list.
    #[inline]
    fn take_slot(&mut self, level: usize, slot: usize) -> u32 {
        self.occ[level] &= !(1 << slot);
        std::mem::replace(&mut self.heads[level][slot], NIL)
    }

    /// Takes the item out of cell `idx` and chains the cell onto the free
    /// list.
    #[inline]
    fn free_cell(&mut self, idx: u32) -> Option<T> {
        let e = &mut self.slab[idx as usize];
        e.next = std::mem::replace(&mut self.free, idx);
        e.item.take()
    }

    /// Level/slot for an entry at `time` relative to cursor `base`, or
    /// `None` if it belongs in the overflow heap. The level is the index
    /// of the highest 6-bit digit where `time` differs from `base`.
    #[inline]
    fn placement(base: u64, time: u64) -> Option<(usize, usize)> {
        let diff = base ^ time;
        if diff == 0 {
            return Some((0, (time & (WHEEL_SLOTS as u64 - 1)) as usize));
        }
        let high = 63 - diff.leading_zeros();
        if high >= SPAN_BITS {
            return None;
        }
        let level = (high / WHEEL_BITS) as usize;
        let slot = ((time >> (WHEEL_BITS * level as u32)) & (WHEEL_SLOTS as u64 - 1)) as usize;
        Some((level, slot))
    }

    #[inline]
    fn entry_live(&self, idx: u32) -> bool {
        let e = &self.slab[idx as usize];
        e.cancel_idx == NO_CANCEL || self.cancel.is_live(e.cancel_idx, e.cancel_gen)
    }

    /// Time of the next live entry, without advancing the cursor.
    /// Cancelled entries encountered on the way are purged.
    pub fn next_time(&mut self) -> Option<SimTime> {
        // Serve from the drained batch first.
        while let Some(&front) = self.ready.front() {
            if self.entry_live(front) {
                return Some(SimTime::from_micros(self.slab[front as usize].time));
            }
            self.ready.pop_front();
            self.discard(front);
        }
        loop {
            if self.len == 0 {
                return None;
            }
            // The first occupied slot at or after the cursor's digit on the
            // lowest occupied level holds the globally earliest entries.
            let found = (0..WHEEL_LEVELS).find_map(|level| {
                let digit = (self.base >> (WHEEL_BITS * level as u32)) & (WHEEL_SLOTS as u64 - 1);
                let mask = self.occ[level] & (!0u64 << digit);
                (mask != 0).then(|| (level, mask.trailing_zeros() as usize))
            });
            if let Some((level, slot)) = found {
                match self.purge_slot(level, slot) {
                    Some(min) => return Some(SimTime::from_micros(min)),
                    None => continue,
                }
            }
            // Wheel empty: the overflow heap holds the future.
            match self.overflow.peek() {
                Some(&Reverse((time, _, idx))) => {
                    if self.entry_live(idx) {
                        return Some(SimTime::from_micros(time));
                    }
                    self.overflow.pop();
                    self.discard(idx);
                }
                None => {
                    debug_assert_eq!(self.len, 0, "len out of sync with queues");
                    return None;
                }
            }
        }
    }

    /// Unlinks cancelled entries from a slot's list and returns the
    /// earliest time left on it; `None` if the slot became empty
    /// (occupancy cleared).
    fn purge_slot(&mut self, level: usize, slot: usize) -> Option<u64> {
        let mut min = None;
        let mut prev = NIL;
        let mut cur = self.heads[level][slot];
        while cur != NIL {
            let Entry { next, time, .. } = self.slab[cur as usize];
            if self.entry_live(cur) {
                min = Some(min.map_or(time, |m: u64| m.min(time)));
                prev = cur;
            } else {
                match prev {
                    NIL => self.heads[level][slot] = next,
                    _ => self.slab[prev as usize].next = next,
                }
                self.discard(cur);
            }
            cur = next;
        }
        if min.is_none() {
            self.occ[level] &= !(1 << slot);
        }
        min
    }

    /// Accounts for a cancelled entry dropped without dispatch.
    fn discard(&mut self, idx: u32) {
        let cancel_idx = self.slab[idx as usize].cancel_idx;
        debug_assert!(cancel_idx != NO_CANCEL, "only cancellable entries purge");
        self.cancel.release(cancel_idx);
        self.free_cell(idx);
        self.len -= 1;
        self.purged += 1;
    }

    /// Accounts for the dispatch of the live entry in cell `idx` (already
    /// off the ready batch) and frees the cell.
    fn fire(&mut self, idx: u32) -> (SimTime, T) {
        let Entry { time, cancel_idx, .. } = self.slab[idx as usize];
        if cancel_idx != NO_CANCEL {
            self.cancel.release(cancel_idx);
        }
        self.len -= 1;
        self.fired += 1;
        let item = self.free_cell(idx).expect("a pending cell holds its item");
        (SimTime::from_micros(time), item)
    }

    /// Pops the next live entry in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_due(SimTime::MAX)
    }

    /// Pops the next live entry if it is due at or before `horizon`;
    /// `None` when the queue is empty or the next entry lies beyond it.
    /// This is the simulator's event-loop primitive: one call does the
    /// peek-compare-pop the binary heap needed two queue operations for.
    pub fn pop_due(&mut self, horizon: SimTime) -> Option<(SimTime, T)> {
        if !self.load_due(horizon) {
            return None;
        }
        // `next_time` guaranteed at least one live entry at the due time
        // in the batch (nothing can be cancelled between the calls).
        loop {
            let idx = self
                .ready
                .pop_front()
                .expect("next_time guaranteed a live entry");
            if self.entry_live(idx) {
                return Some(self.fire(idx));
            }
            self.discard(idx);
        }
    }

    /// Makes the ready batch hold the next due microsecond, if that lies at
    /// or before `horizon`: a no-op while the current batch has live
    /// entries left, otherwise the cursor advances and the level-0 slot is
    /// drained. `false` when nothing is due by `horizon`.
    fn load_due(&mut self, horizon: SimTime) -> bool {
        let Some(target) = self.next_time().filter(|&t| t <= horizon) else {
            return false;
        };
        if self.ready.is_empty() {
            let t = target.as_micros();
            self.advance_to(t);
            self.drain_current(t);
        }
        true
    }

    /// Moves the cursor to `target`, cascading every slot the cursor
    /// enters so entries at `target` end up in level 0. `target` must not
    /// precede any pending entry (it is the minimum pending time).
    fn advance_to(&mut self, target: u64) {
        // Re-ingest the overflow window if the wheel has drained and the
        // target lies beyond the current span.
        if Self::placement(self.base, target).is_none() {
            debug_assert_eq!(
                self.occ,
                [0; WHEEL_LEVELS],
                "cursor cannot leave the span while wheel entries remain"
            );
            self.base = target;
            while let Some(&Reverse((time, _, idx))) = self.overflow.peek() {
                let Some((level, slot)) = Self::placement(self.base, time) else {
                    break;
                };
                self.overflow.pop();
                self.place(level, slot, idx);
            }
        }
        // Cascade top-down: each pass empties the highest-level slot on the
        // path to `target` and relinks its cells relative to the new
        // cursor; they land strictly below the emptied level.
        loop {
            match Self::placement(self.base, target) {
                Some((0, _)) | None => break,
                Some((level, slot)) => {
                    // Enter the slot's window: higher digits follow
                    // `target`, lower digits reset to zero.
                    let span = 1u64 << (WHEEL_BITS * level as u32);
                    self.base = target & !(span - 1);
                    let mut cur = self.take_slot(level, slot);
                    while cur != NIL {
                        let Entry { next, time, .. } = self.slab[cur as usize];
                        let (l, s) = Self::placement(self.base, time)
                            .expect("a cascaded entry stays inside the span");
                        debug_assert!(l < level, "cascade must descend");
                        self.place(l, s, cur);
                        cur = next;
                    }
                }
            }
        }
        self.base = target;
    }

    // ------------------------------------------------------------------
    // Model-checking support: snapshotting and fire-order branch points.
    // ------------------------------------------------------------------

    /// Deep-copies the wheel into `into`, mapping every pending item
    /// through `f`; fails on the first item `f` rejects (e.g. a pending
    /// closure event that cannot be cloned), leaving `into` a partial
    /// copy. The slab's cells are copied in place and the slot heads,
    /// ready batch and overflow heap — plain indices into it — as values,
    /// and so are the cells' cached digest words, each into `into`'s own
    /// buffer: a wheel that has held as much before takes the copy without
    /// allocating. Cursor, sequence counter, and statistics carry over, so
    /// the copy pops the exact `(time, seq)` order the original would.
    /// The cancellation slab keeps its id (see [`CancelSlab`]'s `Clone`),
    /// which keeps `TimerHandle`s stored inside cloned nodes valid against
    /// the copy.
    pub fn clone_into_with<E>(
        &self,
        into: &mut TimerWheel<T>,
        mut f: impl FnMut(&T) -> Result<T, E>,
    ) -> Result<(), E> {
        into.slab.clear();
        into.slab.reserve(self.slab.len());
        for e in &self.slab {
            into.slab.push(Entry {
                item: e.item.as_ref().map(&mut f).transpose()?,
                ..*e
            });
        }
        into.base = self.base;
        into.next_seq = self.next_seq;
        into.len = self.len;
        into.free = self.free;
        into.heads = self.heads;
        into.occ = self.occ;
        into.overflow.clone_from(&self.overflow);
        into.ready.clone_from(&self.ready);
        into.cancel.clone_from(&self.cancel);
        into.scheduled = self.scheduled;
        into.fired = self.fired;
        into.purged = self.purged;
        match (&self.digests, &mut into.digests) {
            (Some(from), Some(to)) => to.words.clone_from(&from.words),
            (Some(from), to) => {
                *to = Some(Box::new(PendingDigests { words: from.words.clone(), order: Vec::new() }))
            }
            // `into`'s words were cached for another world's entries.
            (None, to) => *to = None,
        }
        Ok(())
    }

    /// Drops every pending entry, keeping the buffers' capacity for a
    /// later [`TimerWheel::clone_into_with`], which overwrites the rest
    /// (the cancellation slab keeps the dropped entries' handles live).
    pub(crate) fn clear(&mut self) {
        self.slab.clear();
        self.free = NIL;
        self.heads = [[NIL; WHEEL_SLOTS]; WHEEL_LEVELS];
        self.occ = [0; WHEEL_LEVELS];
        self.overflow.clear();
        self.ready.clear();
        self.len = 0;
    }

    /// Visits every pending live entry as `(time, digest word)` in
    /// `(time, seq)` pop order. Canonical-fingerprint use: two wheels that
    /// would pop the same items at the same times visit identically,
    /// regardless of slot layout, cell numbering or heap arity.
    ///
    /// A pending entry never changes, so its word is `digest(item)` once:
    /// the first walk that meets the entry stores the word beside its
    /// cell under the entry's sequence number, and every later walk — of
    /// this wheel or of a copy taken since — reuses it. Only this walk
    /// fills the cache; scheduling and popping never look at it.
    pub fn digest_pending(&mut self, mut digest: impl FnMut(&T) -> u64, mut f: impl FnMut(u64, u64)) {
        let mut cache = self.digests.take().unwrap_or_default();
        let PendingDigests { words, order } = &mut *cache;
        if words.len() < self.slab.len() {
            words.resize(self.slab.len(), (u64::MAX, 0));
        }
        order.clear();
        for (idx, e) in self.slab.iter().enumerate() {
            if e.item.is_some() && self.entry_live(idx as u32) {
                order.push((e.time, e.seq, idx as u32));
            }
        }
        // Sequence numbers are unique, so the unstable sort is exact.
        order.sort_unstable();
        for &(time, seq, idx) in order.iter() {
            let cached = &mut words[idx as usize];
            if cached.0 != seq {
                let item = self.slab[idx as usize].item.as_ref().expect("a pending cell holds its item");
                *cached = (seq, digest(item));
            }
            f(time, cached.1);
        }
        self.digests = Some(cache);
    }

    /// The live entries of the next due batch (all at the same
    /// microsecond) as `(time, item)`, in FIFO order, draining that
    /// microsecond into the ready batch first. These are the fire-order
    /// alternatives a model checker branches on; none means the wheel is
    /// empty.
    pub fn due_batch(&mut self) -> impl Iterator<Item = (SimTime, &T)> + '_ {
        self.load_due(SimTime::MAX);
        self.ready.iter().filter(|&&idx| self.entry_live(idx)).map(|&idx| {
            let e = &self.slab[idx as usize];
            (SimTime::from_micros(e.time), e.item.as_ref().expect("a pending cell holds its item"))
        })
    }

    /// Position in the ready batch of the `n`-th (0-based) live entry of
    /// the due batch, in FIFO order. `None` past the end of the batch.
    fn due_nth(&mut self, n: usize) -> Option<usize> {
        self.load_due(SimTime::MAX);
        (0..self.ready.len())
            .filter(|&pos| self.entry_live(self.ready[pos]))
            .nth(n)
    }

    /// Borrowing look at the `n`-th (0-based) live entry of the due batch,
    /// in FIFO order. `None` past the end of the batch.
    pub fn peek_due_nth(&mut self, n: usize) -> Option<(SimTime, &T)> {
        let pos = self.due_nth(n)?;
        let e = &self.slab[self.ready[pos] as usize];
        Some((SimTime::from_micros(e.time), e.item.as_ref()?))
    }

    /// Pops the `n`-th (0-based) live entry of the due batch, possibly out
    /// of FIFO order — the model checker's fire-order branch point.
    /// `pop_due_nth(0)` is equivalent to [`TimerWheel::pop`] when the
    /// wheel is non-empty.
    pub fn pop_due_nth(&mut self, n: usize) -> Option<(SimTime, T)> {
        let pos = self.due_nth(n)?;
        let idx = self.ready.remove(pos).expect("position verified live");
        Some(self.fire(idx))
    }

    /// Drains the level-0 slot at the cursor into the ready batch, sorted
    /// by sequence number (same-microsecond FIFO). Only cell indices move;
    /// the ready deque keeps its capacity.
    fn drain_current(&mut self, target: u64) {
        debug_assert_eq!(self.base, target);
        debug_assert!(self.ready.is_empty());
        let mut cur = self.take_slot(0, (target & (WHEEL_SLOTS as u64 - 1)) as usize);
        while cur != NIL {
            let e = &self.slab[cur as usize];
            debug_assert_eq!(e.time, target, "level-0 slot mixes times");
            self.ready.push_back(cur);
            cur = e.next;
        }
        let slab = &self.slab;
        // Sequence numbers are unique, so the unstable sort is exact.
        self.ready
            .make_contiguous()
            .sort_unstable_by_key(|&idx| slab[idx as usize].seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(wheel: &mut TimerWheel<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, v)) = wheel.pop() {
            out.push((t.as_micros(), v));
        }
        out
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_micros(50), 1);
        w.schedule(SimTime::from_micros(10), 2);
        w.schedule(SimTime::from_micros(50), 3);
        w.schedule(SimTime::from_micros(10), 4);
        assert_eq!(
            drain_all(&mut w),
            vec![(10, 2), (10, 4), (50, 1), (50, 3)]
        );
    }

    #[test]
    fn far_future_and_overflow_round_trip() {
        let mut w = TimerWheel::new();
        // One entry per level, plus one beyond the span.
        let times = [
            3u64,
            70,
            5_000,
            300_000,
            20_000_000,
            1_500_000_000,
            1u64 << 40, // overflow (span is 2^36)
        ];
        for (i, &t) in times.iter().enumerate() {
            w.schedule(SimTime::from_micros(t), i as u32);
        }
        let popped = drain_all(&mut w);
        let mut expect: Vec<(u64, u32)> =
            times.iter().enumerate().map(|(i, &t)| (t, i as u32)).collect();
        expect.sort();
        assert_eq!(popped, expect);
    }

    #[test]
    fn matches_binary_heap_reference_on_random_workload() {
        use comma_rt::{Rng, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let mut w = TimerWheel::new();
        let mut reference: Vec<(u64, u64, u32)> = Vec::new(); // (time, seq, val)
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut popped = Vec::new();
        for round in 0..2_000u32 {
            // Schedule a burst at mixed horizons, clamped to `now`.
            for b in 0..(rng.gen_range(0..4u32)) {
                let horizon: u64 = match rng.gen_range(0..4u32) {
                    0 => rng.gen_range(0..64),
                    1 => rng.gen_range(0..10_000),
                    2 => rng.gen_range(0..50_000_000),
                    _ => rng.gen_range(0..(1u64 << 40)),
                };
                let t = (now + horizon).max(now);
                let val = round * 8 + b;
                w.schedule(SimTime::from_micros(t), val);
                reference.push((t, seq, val));
                seq += 1;
            }
            // Pop a few.
            for _ in 0..rng.gen_range(0..3u32) {
                let Some((t, v)) = w.pop() else { break };
                now = t.as_micros();
                reference.sort();
                let (rt, _, rv) = reference.remove(0);
                assert_eq!((t.as_micros(), v), (rt, rv), "divergence from heap order");
                popped.push(v);
            }
        }
        // Drain the rest.
        reference.sort();
        for (rt, _, rv) in reference {
            let (t, v) = w.pop().expect("wheel drained early");
            assert_eq!((t.as_micros(), v), (rt, rv));
        }
        assert!(w.pop().is_none());
        assert!(popped.len() > 100, "workload actually interleaved pops");
    }

    #[test]
    fn cancel_prevents_dispatch_and_is_counted() {
        let mut w = TimerWheel::new();
        let h1 = w.schedule_with_handle(SimTime::from_micros(100), 1);
        let h2 = w.schedule_with_handle(SimTime::from_micros(200), 2);
        w.schedule(SimTime::from_micros(300), 3);
        assert!(w.cancel(h1));
        assert!(!w.cancel(h1), "double cancel is inert");
        assert_eq!(w.pop().map(|(_, v)| v), Some(2));
        assert!(!w.cancel(h2), "cancel after fire is inert");
        assert_eq!(w.pop().map(|(_, v)| v), Some(3));
        assert!(w.pop().is_none());
        let stats = w.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.purged, 1);
        assert_eq!(stats.fired, 2);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn cancel_inside_ready_batch() {
        let mut w = TimerWheel::new();
        let _a = w.schedule_with_handle(SimTime::from_micros(10), 1);
        let hb = w.schedule_with_handle(SimTime::from_micros(10), 2);
        w.schedule(SimTime::from_micros(10), 3);
        // First pop drains the whole microsecond batch.
        assert_eq!(w.pop().map(|(_, v)| v), Some(1));
        assert!(w.cancel(hb), "cancel while batch is in flight");
        assert_eq!(w.pop().map(|(_, v)| v), Some(3));
        assert!(w.pop().is_none());
    }

    #[test]
    fn next_time_is_exact_and_read_only_for_live_entries() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_micros(123_456), 1);
        assert_eq!(w.next_time(), Some(SimTime::from_micros(123_456)));
        // Peek does not advance the cursor: an earlier entry can still be
        // scheduled and pops first.
        w.schedule(SimTime::from_micros(77), 2);
        assert_eq!(w.next_time(), Some(SimTime::from_micros(77)));
        assert_eq!(w.pop().map(|(t, v)| (t.as_micros(), v)), Some((77, 2)));
        assert_eq!(
            w.pop().map(|(t, v)| (t.as_micros(), v)),
            Some((123_456, 1))
        );
    }

    #[test]
    fn handle_reuse_does_not_cancel_successor() {
        let mut w = TimerWheel::new();
        let h1 = w.schedule_with_handle(SimTime::from_micros(10), 1);
        assert_eq!(w.pop().map(|(_, v)| v), Some(1));
        // Slot is reused for the next timer with a bumped generation.
        let h2 = w.schedule_with_handle(SimTime::from_micros(20), 2);
        assert!(!w.cancel(h1), "stale handle is inert after slot reuse");
        assert_eq!(w.pop().map(|(_, v)| v), Some(2));
        let _ = h2;
    }

    #[test]
    fn handle_is_inert_against_foreign_wheel() {
        // Shard safety: a handle minted by one wheel's slab must never
        // cancel a timer in another wheel, even when slot indices and
        // generations collide exactly.
        let mut w1 = TimerWheel::new();
        let mut w2 = TimerWheel::new();
        let h1 = w1.schedule_with_handle(SimTime::from_micros(10), 1);
        let h2 = w2.schedule_with_handle(SimTime::from_micros(10), 2);
        assert!(!w2.cancel(h1), "foreign handle must be inert");
        assert!(!w1.cancel(h2), "foreign handle must be inert");
        assert_eq!(w1.pop().map(|(_, v)| v), Some(1), "timer survived");
        assert_eq!(w2.pop().map(|(_, v)| v), Some(2), "timer survived");
        assert!(!w1.cancel(h1) && !w2.cancel(h2), "fired handles stay inert");
    }

    #[test]
    fn zero_time_and_past_clamping() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_micros(100), 1);
        assert_eq!(w.pop().map(|(_, v)| v), Some(1));
        // Cursor is at 100; scheduling at 40 clamps to the cursor.
        w.schedule(SimTime::from_micros(40), 2);
        assert_eq!(w.pop().map(|(t, v)| (t.as_micros(), v)), Some((100, 2)));
    }

    /// One step of the random workload driving the snapshot property.
    #[derive(Debug)]
    enum Op {
        /// Schedule at `now + delay`, cancellably or not.
        Schedule { delay: u64, cancellable: bool },
        /// Cancel the `pick`-th handle ever minted (possibly already
        /// fired or cancelled — then a no-op on both sides).
        Cancel { pick: usize },
        /// `pop()`.
        Pop,
        /// `pop_due_nth(pick % due_batch().count())`.
        PopNth { pick: usize },
    }

    /// A delay that lands `class` levels up the wheel (or one further, on
    /// a carry); class 6 is past the 2^36 µs span, i.e. the overflow heap.
    fn delay_of_class(rng: &mut comma_rt::SmallRng, class: u32) -> u64 {
        use comma_rt::Rng;
        let lo = if class == 0 { 0 } else { 1u64 << (WHEEL_BITS * class) };
        rng.gen_range(lo..1u64 << (WHEEL_BITS * (class + 1)))
    }

    /// The slab's structural invariants: every cell is on exactly one of
    /// {free list, a slot's list, the ready batch, the overflow heap}, the
    /// free cells are the ones without an item, `len` counts the rest, an
    /// `occ` bit is set ⇔ its slot has a head, and the slab never outgrew
    /// `peak`, the most entries that were ever pending at once.
    fn check_slab(w: &TimerWheel<u32>, peak: usize) -> Result<(), String> {
        use comma_rt::{ensure, ensure_eq};
        let mut seen = vec![0u8; w.slab.len()];
        let mut walk = |mut cur: u32, free: bool| {
            while cur != NIL {
                let e = &w.slab[cur as usize];
                ensure_eq!(e.item.is_none(), free, "cell {cur} on the wrong kind of list");
                seen[cur as usize] += 1;
                cur = e.next;
            }
            Ok(())
        };
        walk(w.free, true)?;
        for (level, heads) in w.heads.iter().enumerate() {
            for (slot, &head) in heads.iter().enumerate() {
                ensure_eq!(w.occ[level] >> slot & 1 == 1, head != NIL, "occ[{level}] bit {slot}");
                walk(head, false)?;
            }
        }
        let listed = w.ready.iter().copied().chain(w.overflow.iter().map(|e| e.0 .2));
        for idx in listed {
            ensure!(w.slab[idx as usize].item.is_some(), "queued cell {idx} is free");
            seen[idx as usize] += 1;
        }
        ensure!(seen.iter().all(|&n| n == 1), "cells not on exactly one list: {seen:?}");
        ensure_eq!(w.len, w.slab.iter().filter(|e| e.item.is_some()).count(), "len");
        ensure!(w.slab.len() <= peak, "slab {} > peak pending {peak}", w.slab.len());
        Ok(())
    }

    /// `clone_into_with` and `digest_pending` against a sorted-vector
    /// model: after a random schedule / cancel / pop / `pop_due_nth`
    /// history the walk visits exactly the model's live entries in
    /// `(time, seq)` order, the clone pops that same sequence and carries
    /// the statistics, tombstones (cancelled, not yet purged) are skipped
    /// by both, and a handle minted before the copy cancels in the copy
    /// without touching the original. The original (before and after it
    /// drains) and a copy also pass [`check_slab`]. The wheel is walked
    /// after every pop too, so cells freed and handed to later entries
    /// are walked again: a word cached for an earlier entry of the same
    /// cell would show as that entry's item.
    #[test]
    fn clone_and_pending_walk_match_model() {
        use comma_rt::prop::Runner;
        use comma_rt::{ensure, ensure_eq, Rng};

        // Where entries sat when the copies were taken, over all cases:
        // bit `l` for wheel level `l`, bit 6 for the overflow heap, bit 7
        // for the drained ready batch.
        let mut covered = 0u8;
        Runner::new("clone_and_pending_walk_match_model").cases(150).run(
            |rng| {
                let n = rng.gen_range(1..120usize);
                (0..n)
                    .map(|_| match rng.gen_range(0..10u32) {
                        0..=4 => Op::Schedule {
                            // A quarter land on `now` itself, so due
                            // batches hold several entries and a pop
                            // leaves the rest in the ready batch.
                            delay: match rng.gen_range(0..9u32) {
                                class @ 0..=6 => delay_of_class(rng, class),
                                _ => 0,
                            },
                            cancellable: rng.gen_bool(0.5),
                        },
                        5 | 6 => Op::Cancel { pick: rng.gen() },
                        7 => Op::Pop,
                        _ => Op::PopNth { pick: rng.gen() },
                    })
                    .collect::<Vec<Op>>()
            },
            |ops| {
                let mut w: TimerWheel<u32> = TimerWheel::new();
                // (time, seq, item), kept sorted: the pop order.
                let mut model: Vec<(u64, u64, u32)> = Vec::new();
                let mut handles: Vec<(TimerHandle, u32)> = Vec::new();
                let (mut now, mut seq) = (0u64, 0u64);
                // Most entries ever pending at once, tombstones included.
                let mut peak = 0usize;
                let schedule = |w: &mut TimerWheel<u32>,
                                model: &mut Vec<(u64, u64, u32)>,
                                handles: &mut Vec<(TimerHandle, u32)>,
                                seq: &mut u64,
                                time: u64,
                                cancellable: bool| {
                    let (item, at) = (*seq as u32, SimTime::from_micros(time));
                    if cancellable {
                        handles.push((w.schedule_with_handle(at, item), item));
                    } else {
                        w.schedule(at, item);
                    }
                    model.push((time, *seq, item));
                    model.sort_unstable();
                    *seq += 1;
                };
                // The digest of an item is the item: a stale cached word
                // reads as the wrong item.
                let walk = |w: &mut TimerWheel<u32>| {
                    let mut seen = Vec::new();
                    w.digest_pending(|v| *v as u64, |t, word| seen.push((t, word as u32)));
                    seen
                };
                let modelled = |model: &[(u64, u64, u32)]| -> Vec<(u64, u32)> {
                    model.iter().map(|&(t, _, v)| (t, v)).collect()
                };
                for op in ops {
                    match *op {
                        Op::Schedule { delay, cancellable } => {
                            let at = now + delay;
                            schedule(&mut w, &mut model, &mut handles, &mut seq, at, cancellable);
                            peak = peak.max(w.len());
                        }
                        Op::Cancel { pick } if !handles.is_empty() => {
                            let (h, item) = handles[pick % handles.len()];
                            let was_pending = model.iter().position(|e| e.2 == item);
                            ensure_eq!(w.cancel(h), was_pending.is_some(), "cancel {item}");
                            if let Some(i) = was_pending {
                                model.remove(i);
                            }
                        }
                        Op::Cancel { .. } => {}
                        Op::Pop => {
                            let want = (!model.is_empty()).then(|| model.remove(0));
                            ensure_eq!(
                                w.pop().map(|(t, v)| (t.as_micros(), v)),
                                want.map(|(t, _, v)| (t, v))
                            );
                            now = want.map_or(now, |e| e.0);
                            ensure_eq!(walk(&mut w), modelled(&model), "walk after a pop");
                        }
                        Op::PopNth { pick } => {
                            let Some(&(t, _, _)) = model.first() else {
                                ensure!(w.pop_due_nth(0).is_none());
                                continue;
                            };
                            // The due batch is what was pending at `t`
                            // when that microsecond was drained; entries
                            // scheduled at `t` since then queue behind it.
                            let batch = w.due_batch().count();
                            let at_t = model.iter().take_while(|e| e.0 == t).count();
                            ensure!((1..=at_t).contains(&batch), "batch {batch}/{at_t} at {t}");
                            let (_, _, item) = model.remove(pick % batch);
                            ensure_eq!(
                                w.pop_due_nth(pick % batch).map(|(t, v)| (t.as_micros(), v)),
                                Some((t, item))
                            );
                            now = t;
                            ensure_eq!(walk(&mut w), modelled(&model), "walk after a pop");
                        }
                    }
                }
                // One more cancellable entry, somewhere in the middle of
                // what is pending: the handle taken before the copy.
                let mut probe_rng: comma_rt::SmallRng = comma_rt::SeedableRng::seed_from_u64(seq);
                let probe_at = now + delay_of_class(&mut probe_rng, 2);
                schedule(&mut w, &mut model, &mut handles, &mut seq, probe_at, true);
                peak = peak.max(w.len());
                check_slab(&w, peak)?;
                let (probe, probe_item) = *handles.last().expect("just pushed");

                for (level, &occ) in w.occ.iter().enumerate() {
                    covered |= ((occ != 0) as u8) << level;
                }
                covered |= (!w.overflow.is_empty() as u8) << 6;
                covered |= (!w.ready.is_empty() as u8) << 7;

                let want = modelled(&model);
                ensure_eq!(walk(&mut w), want, "original walk");
                // One copy into a fresh wheel, one into a wheel that held
                // other entries (and a finished copy's cleared buffers).
                let copy = |w: &TimerWheel<u32>, into: &mut TimerWheel<u32>| {
                    w.clone_into_with(into, |v| Ok::<u32, ()>(*v)).expect("u32 clones");
                };
                let mut a = TimerWheel::new();
                copy(&w, &mut a);
                let mut b = TimerWheel::new();
                b.schedule(SimTime::from_micros(now + 7), u32::MAX);
                b.schedule(SimTime::from_micros(now + (1 << 40)), u32::MAX);
                copy(&w, &mut b);
                let mut c = TimerWheel::new();
                copy(&w, &mut c);
                c.clear();
                ensure!(c.is_empty() && c.pop().is_none(), "a cleared wheel is empty");
                copy(&w, &mut c);
                ensure_eq!(walk(&mut a), want, "copy walk");
                ensure_eq!(walk(&mut c), want, "walk of a copy into cleared buffers");
                check_slab(&c, peak)?;
                check_slab(&a, peak)?;
                ensure_eq!(format!("{:?}", a.stats()), format!("{:?}", w.stats()), "stats");

                ensure!(b.cancel(probe), "pre-copy handle is live in the copy");
                let without_probe: Vec<(u64, u32)> =
                    want.iter().copied().filter(|e| e.1 != probe_item).collect();
                ensure_eq!(walk(&mut b), without_probe, "walk skips the copy's tombstone");
                ensure_eq!(drain_all(&mut b), without_probe, "copy with probe cancelled");
                ensure_eq!(drain_all(&mut a), want, "copy pops the original's sequence");
                ensure_eq!(drain_all(&mut c), want, "so does the copy into cleared buffers");
                ensure_eq!(drain_all(&mut w), want, "original unaffected by the copies");
                check_slab(&w, peak)?;
                Ok(())
            },
        );
        assert_eq!(covered, 0xff, "a level, the overflow or the ready batch never held an entry");
    }
}
