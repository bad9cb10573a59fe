//! Bounded, content-addressed LRU cache of finished result payloads.
//!
//! Keys are the 128-bit [`crate::hash::fingerprint`] of a request's
//! canonical form; values are the serialized payload document the
//! worker produced.  Every entry also stores the canonical string
//! itself, so a fingerprint collision can never serve a foreign
//! payload: [`ResultCache::get`] compares the canonical text and
//! reports [`CacheLookup::Collision`] on mismatch, which the server
//! treats as a miss (and counts under `service.cache.collisions`).
//!
//! Recency is a stamp per entry: a hit restamps its entry in O(1) and
//! allocates nothing, and an insert over capacity evicts the entry with
//! the smallest stamp, an O(capacity) scan paid only on a miss that
//! already ran the engine.

use std::collections::HashMap;
use std::sync::Arc;

/// One cached result.
struct Entry {
    /// The full canonical request text, for collision verification.
    canonical: String,
    /// The serialized payload document.
    payload: Arc<String>,
    /// When this entry was last inserted or hit; the smallest is the
    /// least recently used.
    stamp: u64,
}

/// Outcome of a cache probe.
pub enum CacheLookup {
    /// The key is present and its canonical text matches.
    Hit(Arc<String>),
    /// The key is present but belongs to a *different* canonical text —
    /// a fingerprint collision. The caller must treat this as a miss
    /// (the colliding entry keeps its slot; newest-wins would let an
    /// attacker-shaped workload thrash the slot).
    Collision,
    /// The key is absent.
    Miss,
}

/// A bounded LRU map from request fingerprints to result payloads.
pub struct ResultCache {
    capacity: usize,
    map: HashMap<String, Entry>,
    next_stamp: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries (a capacity of
    /// zero disables caching: every insert evicts itself).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            map: HashMap::new(),
            next_stamp: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    /// Probes for `key`, verifying against `canonical`. A hit refreshes
    /// the entry's recency.
    pub fn get(&mut self, key: &str, canonical: &str) -> CacheLookup {
        let stamp = self.stamp();
        match self.map.get_mut(key) {
            None => CacheLookup::Miss,
            Some(entry) if entry.canonical != canonical => CacheLookup::Collision,
            Some(entry) => {
                entry.stamp = stamp;
                CacheLookup::Hit(Arc::clone(&entry.payload))
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting least-recently-used
    /// entries while over capacity. Returns how many entries were
    /// evicted.
    pub fn insert(&mut self, key: String, canonical: String, payload: Arc<String>) -> usize {
        let stamp = self.stamp();
        self.map.insert(
            key,
            Entry {
                canonical,
                payload,
                stamp,
            },
        );
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
                .expect("over capacity implies an entry");
            self.map.remove(&lru);
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(text: &str) -> Arc<String> {
        Arc::new(text.to_string())
    }

    #[test]
    fn hit_returns_inserted_payload() {
        let mut c = ResultCache::new(4);
        assert!(matches!(c.get("k", "canon"), CacheLookup::Miss));
        c.insert("k".into(), "canon".into(), payload("{\"x\":1}"));
        match c.get("k", "canon") {
            CacheLookup::Hit(p) => assert_eq!(p.as_str(), "{\"x\":1}"),
            _ => panic!("expected hit"),
        }
    }

    #[test]
    fn collision_is_not_served() {
        let mut c = ResultCache::new(4);
        c.insert("k".into(), "canon-a".into(), payload("A"));
        assert!(matches!(c.get("k", "canon-b"), CacheLookup::Collision));
        // The original entry is untouched.
        assert!(matches!(c.get("k", "canon-a"), CacheLookup::Hit(_)));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.insert("a".into(), "a".into(), payload("A"));
        c.insert("b".into(), "b".into(), payload("B"));
        // Touch `a` so `b` is now the LRU entry.
        assert!(matches!(c.get("a", "a"), CacheLookup::Hit(_)));
        let evicted = c.insert("c".into(), "c".into(), payload("C"));
        assert_eq!(evicted, 1);
        assert_eq!(c.len(), 2);
        assert!(matches!(c.get("b", "b"), CacheLookup::Miss));
        assert!(matches!(c.get("a", "a"), CacheLookup::Hit(_)));
        assert!(matches!(c.get("c", "c"), CacheLookup::Hit(_)));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        let evicted = c.insert("k".into(), "k".into(), payload("X"));
        assert_eq!(evicted, 1);
        assert!(c.is_empty());
        assert!(matches!(c.get("k", "k"), CacheLookup::Miss));
    }

    #[test]
    fn eviction_after_many_hits_removes_the_true_lru_entry() {
        let mut c = ResultCache::new(3);
        for k in ["a", "b", "c"] {
            c.insert(k.into(), k.into(), payload(k));
        }
        // 100K hits that never touch `b`, in an order that leaves `a` and
        // `c` both more recent than it.
        for i in 0..100_000 {
            let k = if i % 2 == 0 { "a" } else { "c" };
            assert!(matches!(c.get(k, k), CacheLookup::Hit(_)));
        }
        assert_eq!(c.insert("d".into(), "d".into(), payload("D")), 1);
        assert!(matches!(c.get("b", "b"), CacheLookup::Miss));
        for k in ["a", "c", "d"] {
            assert!(matches!(c.get(k, k), CacheLookup::Hit(_)), "{k}");
        }
    }

    #[test]
    fn reinsert_refreshes_without_growth() {
        let mut c = ResultCache::new(2);
        for _ in 0..10 {
            c.insert("k".into(), "k".into(), payload("X"));
        }
        assert_eq!(c.len(), 1);
    }
}
