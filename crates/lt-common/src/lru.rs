//! The bounded LRU map and the thread-safe [`Memo`] on top of it: the one
//! cache type behind every memo tier in the workspace (the per-session plan
//! and predicate caches, the ILP compression memo and the fleet tuning
//! cache).
//!
//! Each tier is a [`Memo`] with a fixed capacity and its own obs counter
//! names for hits, misses and evictions. The map underneath is a plain
//! `HashMap` into a slab of entries threaded on an intrusive doubly-linked
//! recency list — no external crates, O(1) get/insert/evict.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::obs;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// Bounded least-recently-used map. `get` refreshes recency; `insert` of a
/// fresh key beyond the capacity evicts the coldest entry and returns it so
/// the caller can count the eviction.
pub struct LruMap<K, V> {
    index: HashMap<K, usize>,
    slab: Vec<Option<Entry<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    cap: usize,
}

impl<K, V> fmt::Debug for LruMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LruMap")
            .field("len", &self.index.len())
            .field("cap", &self.cap)
            .finish()
    }
}

impl<K: Clone + Eq + Hash, V> LruMap<K, V> {
    /// Creates a map bounded to `cap` entries. A zero capacity is clamped
    /// to one: a cache that can never hold anything would turn every
    /// lookup into a miss while still paying the insert bookkeeping.
    pub fn new(cap: usize) -> Self {
        LruMap {
            index: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            cap: cap.max(1),
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Capacity bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    fn entry(&self, slot: usize) -> &Entry<K, V> {
        self.slab[slot].as_ref().expect("live LRU slot")
    }

    fn entry_mut(&mut self, slot: usize) -> &mut Entry<K, V> {
        self.slab[slot].as_mut().expect("live LRU slot")
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = {
            let e = self.entry(slot);
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.entry_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entry_mut(n).prev = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        let head = self.head;
        {
            let e = self.entry_mut(slot);
            e.prev = NIL;
            e.next = head;
        }
        match head {
            NIL => self.tail = slot,
            h => self.entry_mut(h).prev = slot,
        }
        self.head = slot;
    }

    /// Looks `key` up and, on a hit, marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.index.get(key)?;
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(&self.entry(slot).value)
    }

    /// Checks for `key` without touching recency.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Inserts `key → value` as most recently used. Returns the evicted
    /// coldest `(key, value)` pair when the insert pushed the map past its
    /// capacity (never on an update of an existing key).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&slot) = self.index.get(&key) {
            self.entry_mut(slot).value = value;
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return None;
        }
        let evicted = if self.index.len() >= self.cap {
            let cold = self.tail;
            self.unlink(cold);
            let entry = self.slab[cold].take().expect("live LRU tail");
            self.index.remove(&entry.key);
            self.free.push(cold);
            Some((entry.key, entry.value))
        } else {
            None
        };
        let entry = Entry {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(entry);
                slot
            }
            None => {
                self.slab.push(Some(entry));
                self.slab.len() - 1
            }
        };
        self.index.insert(key, slot);
        self.push_front(slot);
        evicted
    }

    /// Drops every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// Obs counter names of one memo tier.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    /// Counted on every lookup answered from the memo.
    pub hit: &'static str,
    /// Counted on every lookup the memo could not answer.
    pub miss: &'static str,
    /// Counted when an insert displaces the coldest entry.
    pub evict: &'static str,
}

/// A thread-safe bounded LRU memo. Lookups count hits and misses under the
/// tier's [`Counters`] (and in per-instance totals, see [`Memo::hits`]);
/// inserts count evictions.
#[derive(Debug)]
pub struct Memo<K, V> {
    map: Mutex<LruMap<K, V>>,
    counters: Counters,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Clone + Eq + Hash, V: Clone> Memo<K, V> {
    /// Empty memo bounded to `cap` entries.
    pub fn new(cap: usize, counters: Counters) -> Self {
        Memo {
            map: Mutex::new(LruMap::new(cap)),
            counters,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn map(&self) -> MutexGuard<'_, LruMap<K, V>> {
        // Only O(1) map updates run under the lock (never `compute`), and
        // none of them panics on a consistent map.
        self.map
            .lock()
            .expect("memo lock poisoned by a panicking map update")
    }

    /// Looks `key` up, counting a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self.map().get(key).cloned();
        let (total, name) = match found {
            Some(_) => (&self.hits, self.counters.hit),
            None => (&self.misses, self.counters.miss),
        };
        total.fetch_add(1, Ordering::Relaxed);
        obs::counter(name, 1);
        found
    }

    /// Inserts `key → value` unless `key` is already present (a concurrent
    /// computation got there first; the memoized values are equal). Returns
    /// whether the value went in, counting an eviction if it displaced the
    /// coldest entry.
    pub fn insert(&self, key: K, value: V) -> bool {
        let mut map = self.map();
        if map.contains(&key) {
            return false;
        }
        if map.insert(key, value).is_some() {
            obs::counter(self.counters.evict, 1);
        }
        true
    }

    /// The memoized value for `key`, computing and inserting it on a miss.
    /// `compute` runs outside the lock: it can be far more expensive than a
    /// probe, it may itself read this memo, and a panic inside it cannot
    /// poison the lock for later callers.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let Ok(value) =
            self.try_get_or_insert_with(key, || Ok::<V, std::convert::Infallible>(compute()));
        value
    }

    /// [`Memo::get_or_insert_with`] for a fallible computation; an error is
    /// returned as is and nothing is inserted.
    pub fn try_get_or_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(value) = self.get(&key) {
            return Ok(value);
        }
        let value = compute()?;
        self.insert(key, value.clone());
        Ok(value)
    }

    /// True when `key` is cached, without counting or touching recency.
    pub fn contains(&self, key: &K) -> bool {
        self.map().contains(key)
    }

    /// Lookups answered from this memo since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups this memo could not answer since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry; the hit/miss totals are kept.
    pub fn clear(&self) {
        self.map().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = LruMap::new(2);
        assert!(lru.insert(1, "a").is_none());
        assert!(lru.insert(2, "b").is_none());
        assert_eq!(lru.get(&1), Some(&"a")); // refresh 1; 2 is now coldest
        assert_eq!(lru.insert(3, "c"), Some((2, "b")));
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&"a"));
        assert_eq!(lru.get(&3), Some(&"c"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn update_refreshes_without_evicting() {
        let mut lru = LruMap::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert!(lru.insert(1, 11).is_none()); // update, not insert
        assert_eq!(lru.insert(3, 30), Some((2, 20)));
        assert_eq!(lru.get(&1), Some(&11));
    }

    #[test]
    fn reuses_slots_after_eviction() {
        let mut lru = LruMap::new(3);
        for i in 0..100u64 {
            lru.insert(i, i * 2);
        }
        assert_eq!(lru.len(), 3);
        assert!(lru.slab.len() <= 4, "slab should not grow unboundedly");
        for i in 97..100 {
            assert_eq!(lru.get(&i), Some(&(i * 2)));
        }
    }

    #[test]
    fn zero_cap_clamps_to_one() {
        let mut lru = LruMap::new(0);
        assert_eq!(lru.cap(), 1);
        assert!(lru.insert(1, "a").is_none());
        assert_eq!(lru.insert(2, "b"), Some((1, "a")));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut lru = LruMap::new(4);
        lru.insert(1, "a");
        lru.insert(2, "b");
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.get(&1), None);
        assert!(lru.insert(3, "c").is_none());
    }

    fn counters() -> Counters {
        Counters {
            hit: "test.memo_hit",
            miss: "test.memo_miss",
            evict: "test.memo_evict",
        }
    }

    #[test]
    fn memo_counts_under_its_own_names_and_evicts_only_on_displacement() {
        let _guard = crate::obs::tests::test_lock();
        obs::set_enabled(true);
        obs::reset();
        let memo = Memo::new(2, counters());
        assert_eq!(memo.get_or_insert_with(1, || "a"), "a"); // miss
        assert_eq!(memo.get_or_insert_with(1, || panic!("cached")), "a"); // hit
        assert_eq!(memo.get_or_insert_with(2, || "b"), "b"); // miss, fills the cap
        assert!(!memo.insert(2, "B"), "present key is not replaced");
        assert!(memo.get(&9).is_none()); // miss
        assert_eq!(memo.get_or_insert_with(3, || "c"), "c"); // miss, evicts 1
        obs::set_enabled(false);
        let snap = obs::snapshot();
        let count = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(count("test.memo_hit"), 1);
        assert_eq!(count("test.memo_miss"), 4);
        assert_eq!(count("test.memo_evict"), 1);
        assert_eq!((memo.hits(), memo.misses()), (1, 4));
        assert_eq!(memo.len(), 2);
        assert!(!memo.contains(&1), "coldest entry evicted");
        assert_eq!(memo.get(&2), Some("b"));
    }

    #[test]
    fn compute_may_read_the_same_memo_without_deadlock() {
        // Counts under the counting test's names: never run alongside it.
        let _guard = crate::obs::tests::test_lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let memo = Memo::new(4, counters());
            memo.insert(1u64, 10u64);
            let value = memo.get_or_insert_with(2, || {
                memo.get(&1).unwrap() + memo.get_or_insert_with(3, || 5)
            });
            tx.send((value, memo.len())).unwrap();
        });
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("compute ran under the memo lock");
        worker.join().unwrap();
        assert_eq!(got, (15, 3));
    }

    #[test]
    fn failed_compute_inserts_nothing() {
        // Counts under the counting test's names: never run alongside it.
        let _guard = crate::obs::tests::test_lock();
        let memo: Memo<u64, u64> = Memo::new(4, counters());
        assert_eq!(memo.try_get_or_insert_with(1, || Err("no")), Err("no"));
        assert!(memo.is_empty());
        assert_eq!(memo.try_get_or_insert_with(1, || Ok::<_, ()>(7)), Ok(7));
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.get(&1), Some(7));
    }
}
