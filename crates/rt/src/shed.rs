//! The one shed-oldest retention policy behind the capped logs
//! (`netsim::Trace`, `netsim::stats::TimeSeries`, `proxy::EngineLog`).

use std::ops::Deref;

/// A log that keeps the newest `cap` items and hands them out as one
/// contiguous slice, oldest first.
///
/// Shedding advances a dead-prefix cursor instead of shifting the vector;
/// the prefix is drained in one move once it reaches `cap` items, so a
/// push costs amortised O(1) and storage never exceeds `2 × cap`.
#[derive(Clone, Debug)]
pub struct ShedVec<T> {
    buf: Vec<T>,
    dead: usize,
    cap: usize,
}

impl<T> ShedVec<T> {
    /// An empty log retaining at most `cap` items (zero is treated as one).
    pub fn new(cap: usize) -> Self {
        ShedVec { buf: Vec::new(), dead: 0, cap: cap.max(1) }
    }

    /// Changes the cap, shedding the oldest items beyond it at once;
    /// returns how many were shed.
    pub fn set_cap(&mut self, cap: usize) -> usize {
        self.cap = cap.max(1);
        let shed = self.len().saturating_sub(self.cap);
        self.shed(shed);
        shed
    }

    /// Appends `item`; returns whether the oldest item was shed for it.
    pub fn push(&mut self, item: T) -> bool {
        let full = self.len() >= self.cap;
        self.shed(full as usize);
        self.buf.push(item);
        full
    }

    fn shed(&mut self, n: usize) {
        self.dead += n;
        if self.dead >= self.cap {
            self.buf.drain(..self.dead);
            self.dead = 0;
        }
    }
}

impl<T> Deref for ShedVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buf[self.dead..]
    }
}
