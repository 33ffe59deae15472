//! Local data storage at a node.
//!
//! Each BATON node stores the index entries whose keys fall inside the range
//! it manages.  The store is an ordered multimap from [`Key`] to opaque
//! values, so it supports the exact-match and range scans the overlay needs
//! as well as the splitting/merging that accompanies joins, departures and
//! load balancing.

use std::collections::BTreeMap;

use crate::range::{Key, KeyRange};

/// An opaque value attached to an index entry.  The reproduction uses `u64`
/// payload identifiers; a real deployment would store record locators.
pub type Value = u64;

/// Ordered multimap of index entries managed by one node.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LocalStore {
    entries: BTreeMap<Key, Vec<Value>>,
    len: usize,
}

impl LocalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored values (counting duplicates per key).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the store holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct keys stored.
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }

    /// Approximate heap bytes behind this store: B-tree nodes (keyed entry
    /// plus amortised tree overhead) and the per-key value vectors.  Used by
    /// the perf harness's bytes-per-peer accounting; it is an estimate, not
    /// an allocator measurement.
    pub fn estimated_heap_bytes(&self) -> u64 {
        // Each B-tree entry stores a `(Key, Vec<Value>)` pair; ~16 bytes of
        // amortised node bookkeeping (parent pointers, length fields spread
        // over 11-entry nodes) is charged per entry.
        let entry = std::mem::size_of::<(Key, Vec<Value>)>() as u64 + 16;
        let values: u64 = self
            .entries
            .values()
            .map(|v| (v.capacity() * std::mem::size_of::<Value>()) as u64)
            .sum();
        self.entries.len() as u64 * entry + values
    }

    /// Inserts a value under `key`.  Duplicate keys are allowed (the paper
    /// explicitly discusses duplicate partition-key values, §IV-A).
    pub fn insert(&mut self, key: Key, value: Value) {
        self.entries.entry(key).or_default().push(value);
        self.len += 1;
    }

    /// Returns the values stored under `key` (empty slice if none).
    pub fn get(&self, key: Key) -> &[Value] {
        self.entries.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `true` if at least one value is stored under `key`.
    pub fn contains_key(&self, key: Key) -> bool {
        self.entries.contains_key(&key)
    }

    /// Removes *one* value stored under `key`, returning it.
    ///
    /// Returns `None` if the key is absent.
    pub fn remove_one(&mut self, key: Key) -> Option<Value> {
        let values = self.entries.get_mut(&key)?;
        let value = values.pop();
        if values.is_empty() {
            self.entries.remove(&key);
        }
        if value.is_some() {
            self.len -= 1;
        }
        value
    }

    /// Removes every value stored under `key`, returning them.
    pub fn remove_all(&mut self, key: Key) -> Vec<Value> {
        match self.entries.remove(&key) {
            Some(values) => {
                self.len -= values.len();
                values
            }
            None => Vec::new(),
        }
    }

    /// Returns `(key, value)` pairs whose keys lie in `range`, in key order.
    pub fn scan(&self, range: KeyRange) -> Vec<(Key, Value)> {
        if range.is_empty() {
            return Vec::new();
        }
        self.entries
            .range(range.low()..range.high())
            .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v)))
            .collect()
    }

    /// Number of values whose keys lie in `range`.
    pub fn count_in(&self, range: KeyRange) -> usize {
        if range.is_empty() {
            return 0;
        }
        self.entries
            .range(range.low()..range.high())
            .map(|(_, vs)| vs.len())
            .sum()
    }

    /// Removes and returns every entry whose key lies in `range`
    /// (used when a node splits its content with a new child, paper §III-A,
    /// or migrates data during load balancing, §IV-D).
    pub fn split_off_range(&mut self, range: KeyRange) -> LocalStore {
        let mut moved = LocalStore::new();
        if range.is_empty() {
            return moved;
        }
        let keys: Vec<Key> = self
            .entries
            .range(range.low()..range.high())
            .map(|(k, _)| *k)
            .collect();
        for key in keys {
            if let Some(values) = self.entries.remove(&key) {
                self.len -= values.len();
                moved.len += values.len();
                moved.entries.insert(key, values);
            }
        }
        moved
    }

    /// Absorbs every entry of `other` into this store.
    pub fn absorb(&mut self, other: LocalStore) {
        for (key, values) in other.entries {
            self.len += values.len();
            self.entries.entry(key).or_default().extend(values);
        }
    }

    /// Smallest stored key, if any.
    pub fn min_key(&self) -> Option<Key> {
        self.entries.keys().next().copied()
    }

    /// Largest stored key, if any.
    pub fn max_key(&self) -> Option<Key> {
        self.entries.keys().next_back().copied()
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.entries
            .iter()
            .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v)))
    }

    /// Iterates over the distinct stored keys in key order, each with its
    /// number of stored values.
    pub fn key_counts(&self) -> impl Iterator<Item = (Key, usize)> + '_ {
        self.entries.iter().map(|(k, vs)| (*k, vs.len()))
    }

    /// The median stored key — the key below which half of the stored
    /// *values* fall.  Used to pick data-migration boundaries during load
    /// balancing so each side ends up with about half the load.
    pub fn median_key(&self) -> Option<Key> {
        if self.is_empty() {
            return None;
        }
        let target = self.len / 2;
        let mut seen = 0usize;
        for (k, vs) in &self.entries {
            seen += vs.len();
            if seen > target {
                return Some(*k);
            }
        }
        self.max_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_len() {
        let mut store = LocalStore::new();
        assert!(store.is_empty());
        store.insert(5, 100);
        store.insert(5, 101);
        store.insert(9, 200);
        assert_eq!(store.len(), 3);
        assert_eq!(store.distinct_keys(), 2);
        assert_eq!(store.get(5), &[100, 101]);
        assert_eq!(store.get(9), &[200]);
        assert_eq!(store.get(7), &[] as &[Value]);
        assert!(store.contains_key(5));
        assert!(!store.contains_key(7));
    }

    #[test]
    fn remove_one_and_all() {
        let mut store = LocalStore::new();
        store.insert(1, 10);
        store.insert(1, 11);
        store.insert(2, 20);
        assert_eq!(store.remove_one(1), Some(11));
        assert_eq!(store.len(), 2);
        assert!(store.contains_key(1));
        assert_eq!(store.remove_one(1), Some(10));
        assert!(!store.contains_key(1));
        assert_eq!(store.remove_one(1), None);
        assert_eq!(store.remove_all(2), vec![20]);
        assert!(store.is_empty());
        assert_eq!(store.remove_all(2), Vec::<Value>::new());
    }

    #[test]
    fn scan_and_count_in_range() {
        let mut store = LocalStore::new();
        for k in [10u64, 20, 30, 40, 50] {
            store.insert(k, k * 2);
        }
        store.insert(30, 999);
        let hits = store.scan(KeyRange::new(20, 41));
        assert_eq!(hits, vec![(20, 40), (30, 60), (30, 999), (40, 80)]);
        assert_eq!(store.count_in(KeyRange::new(20, 41)), 4);
        assert_eq!(store.count_in(KeyRange::new(0, 10)), 0);
        assert!(store.scan(KeyRange::new(25, 25)).is_empty());
    }

    #[test]
    fn split_off_range_moves_entries() {
        let mut store = LocalStore::new();
        for k in 0..10u64 {
            store.insert(k, k);
        }
        let moved = store.split_off_range(KeyRange::new(3, 7));
        assert_eq!(moved.len(), 4);
        assert_eq!(store.len(), 6);
        assert!(moved.contains_key(3));
        assert!(moved.contains_key(6));
        assert!(!moved.contains_key(7));
        assert!(!store.contains_key(5));
        assert!(store.contains_key(7));
    }

    #[test]
    fn absorb_merges_duplicate_keys() {
        let mut a = LocalStore::new();
        a.insert(1, 10);
        a.insert(2, 20);
        let mut b = LocalStore::new();
        b.insert(2, 21);
        b.insert(3, 30);
        a.absorb(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(2), &[20, 21]);
        assert_eq!(a.get(3), &[30]);
    }

    #[test]
    fn min_max_and_median_key() {
        let mut store = LocalStore::new();
        assert_eq!(store.min_key(), None);
        assert_eq!(store.max_key(), None);
        assert_eq!(store.median_key(), None);
        for k in [5u64, 1, 9, 3, 7] {
            store.insert(k, 0);
        }
        assert_eq!(store.min_key(), Some(1));
        assert_eq!(store.max_key(), Some(9));
        assert_eq!(store.median_key(), Some(5));
    }

    #[test]
    fn iter_yields_key_order() {
        let mut store = LocalStore::new();
        store.insert(3, 1);
        store.insert(1, 2);
        store.insert(2, 3);
        let collected: Vec<_> = store.iter().collect();
        assert_eq!(collected, vec![(1, 2), (2, 3), (3, 1)]);
    }

    // Seeded stand-ins for the old proptest properties.
    #[test]
    fn prop_split_then_absorb_is_identity() {
        let mut rng = baton_net::SimRng::seeded(0x5709);
        for _ in 0..100 {
            let key_count = rng.index(200);
            let pivot = rng.uniform_u64(0, 1000);
            let mut store = LocalStore::new();
            for i in 0..key_count {
                store.insert(rng.uniform_u64(0, 1000), i as u64);
            }
            let original_len = store.len();
            let original: Vec<_> = store.iter().collect();
            let moved = store.split_off_range(KeyRange::new(0, pivot));
            // Every moved key is below the pivot, every kept key is at or
            // above it.
            assert!(moved.iter().all(|(k, _)| k < pivot));
            assert!(store.iter().all(|(k, _)| k >= pivot));
            assert_eq!(store.len() + moved.len(), original_len);
            let mut reunited = moved;
            reunited.absorb(store);
            assert_eq!(reunited.len(), original_len);
            let mut all: Vec<_> = reunited.iter().collect();
            let mut orig_sorted = original;
            all.sort_unstable();
            orig_sorted.sort_unstable();
            assert_eq!(all, orig_sorted);
        }
    }

    #[test]
    fn prop_count_matches_scan() {
        let mut rng = baton_net::SimRng::seeded(0xC007);
        for _ in 0..200 {
            let mut store = LocalStore::new();
            for _ in 0..rng.index(100) {
                store.insert(rng.uniform_u64(0, 100), 0);
            }
            let lo = rng.uniform_u64(0, 100);
            let hi = rng.uniform_u64(0, 100);
            let range = KeyRange::new(lo.min(hi), lo.max(hi));
            assert_eq!(store.count_in(range), store.scan(range).len());
        }
    }
}
