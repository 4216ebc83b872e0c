//! The flow table: per-stream filter-queue state behind a deterministic
//! FNV-1a-hashed map.
//!
//! Transparent in-path proxies live or die by per-packet dispatch cost, so
//! the engine's per-flow state lookup must be O(1) and allocation-free.
//! Each entry caches:
//!
//! - the **member list** (instance ids in in-method order) as an
//!   `Arc<[usize]>`, so handing it to the dispatch loop is a refcount bump,
//!   never a `Vec` clone;
//! - a **generation stamp**: the engine bumps its registration generation
//!   on every `register`/`deregister`, and a flow whose stamp matches the
//!   engine's skips the wild-card registration scan entirely. The scan —
//!   and the member-list rebuild — happens only when the registration set
//!   actually changed (or the flow is new).
//!
//! The table is only ever touched by key. Removing a filter instance
//! rebuilds the member lists of that instance's own keys
//! (`FilterEngine::remove_instance`); nothing scans the whole table on
//! the packet path or at stream teardown.
//!
//! An entry lives from its stream's first packet until a filter reports
//! the stream closed — `tcp` does on the ACK that covers the later FIN —
//! and the engine removes it with the stream's reverse. A packet that
//! arrives after that finds no entry and starts a new one.

use std::sync::Arc;

use comma_rt::FnvHashMap;

use crate::key::StreamKey;

/// Cached queue state for one stream key, made by the engine's queue
/// expansion when the key's first packet arrives (or when an instance
/// lists the key) and removed when the stream closes.
#[derive(Clone, Debug)]
pub struct FlowEntry {
    /// Instance ids, sorted by descending priority (in-method order).
    /// Shared with the dispatch loop by refcount, rebuilt only when
    /// membership changes.
    pub members: Arc<[usize]>,
    /// Registration slots already expanded for this key, ascending.
    pub applied: Vec<usize>,
    /// Engine registration generation this entry was last expanded
    /// against; a mismatch forces a re-scan on the next packet.
    pub generation: u64,
}

impl Default for FlowEntry {
    fn default() -> Self {
        FlowEntry {
            members: Arc::from(Vec::new()),
            applied: Vec::new(),
            generation: 0,
        }
    }
}

impl FlowEntry {
    /// Whether registration `reg` was already expanded for this key.
    pub fn is_applied(&self, reg: usize) -> bool {
        self.applied.binary_search(&reg).is_ok()
    }

    /// Records registration `reg` as expanded (idempotent).
    pub fn mark_applied(&mut self, reg: usize) {
        if let Err(at) = self.applied.binary_search(&reg) {
            self.applied.insert(at, reg);
        }
    }

    /// Forgets registration `reg` (it was deregistered).
    pub fn unmark_applied(&mut self, reg: usize) {
        if let Ok(at) = self.applied.binary_search(&reg) {
            self.applied.remove(at);
        }
    }
}

/// The per-stream state table, keyed by [`StreamKey`] under deterministic
/// FNV-1a hashing (stateless — no per-process seed, so iteration order is
/// reproducible run to run; display paths still sort explicitly).
#[derive(Clone, Default)]
pub struct FlowTable {
    map: FnvHashMap<StreamKey, FlowEntry>,
}

impl FlowTable {
    /// Folds the table into a canonical fingerprint: one word per entry,
    /// naming its key, summed (the FNV map's iteration order is seed-free
    /// but capacity-dependent, so it is not canonical across histories;
    /// a sum is the same in any order, and needs no sorted copy).
    pub fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        let mut entries = 0u64;
        for (key, entry) in &self.map {
            let mut sub = comma_rt::digest::StateHasher::new();
            key.state_digest(&mut sub);
            for m in entry.members.iter() {
                sub.update_u64(*m as u64);
            }
            for a in &entry.applied {
                sub.update_u64(*a as u64);
            }
            sub.update_u64(entry.generation);
            entries = entries.wrapping_add(sub.finish());
        }
        h.update_u64(self.map.len() as u64).update_u64(entries);
    }

    /// Creates an empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// O(1) lookup of the cached member list for `key` (the per-packet
    /// fast path; a refcount bump, no allocation).
    pub fn members(&self, key: StreamKey) -> Option<Arc<[usize]>> {
        self.map.get(&key).map(|e| Arc::clone(&e.members))
    }

    /// Borrowing lookup.
    pub fn get(&self, key: StreamKey) -> Option<&FlowEntry> {
        self.map.get(&key)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: StreamKey) -> Option<&mut FlowEntry> {
        self.map.get_mut(&key)
    }

    /// Returns the entry for `key`, creating a default one if absent.
    pub fn entry(&mut self, key: StreamKey) -> &mut FlowEntry {
        self.map.entry(key).or_default()
    }

    /// Removes and returns the entry for `key`.
    pub fn remove(&mut self, key: StreamKey) -> Option<FlowEntry> {
        self.map.remove(&key)
    }

    /// Iterates over `(key, entry)` pairs in unspecified (but
    /// deterministic) order; sort on the key for display.
    pub fn iter(&self) -> impl Iterator<Item = (&StreamKey, &FlowEntry)> {
        self.map.iter()
    }

    /// Iterates mutably over entries.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut FlowEntry> {
        self.map.values_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> StreamKey {
        format!("1.2.3.{n} 5 6.7.8.9 10").parse().unwrap()
    }

    #[test]
    fn members_lookup_is_shared_not_copied() {
        let mut t = FlowTable::new();
        t.entry(key(1)).members = Arc::from(vec![3, 1, 2]);
        let a = t.members(key(1)).unwrap();
        let b = t.members(key(1)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "lookups share one allocation");
        assert_eq!(&a[..], &[3, 1, 2]);
        assert!(t.members(key(2)).is_none());
    }
}
