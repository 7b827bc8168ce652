//! The concurrent cached-page hash table.
//!
//! This is the structure that replaces Linux's single-lock page-cache
//! radix tree (the contention point Figure 10 exposes). Page-fault
//! handlers look up the faulting page here; because lookups are lock-free
//! and mutations take only a *per-bucket* spinlock, concurrent faults on a
//! shared file scale with cores instead of serializing on one tree lock
//! (paper sections 3.2 and 6.5).
//!
//! Design: closed hashing with 8-slot buckets. Each slot is a key and its
//! value side by side (a bucket spans 136 bytes, so a miss reads two or
//! three cache lines and a hit in an early slot one). Writers hold the
//! bucket's spinlock and publish in two phases (value first, then key
//! with release ordering), so readers never observe a key without its
//! value. Bucket overflow — rare at the 2x sizing used here — falls back
//! to a locked side map. Each bucket counts its own entries in that map,
//! raised on a spill and lowered on an overflow remove, both under the
//! bucket lock, so an operation takes the side map's lock only while its
//! bucket has entries there: a bucket that spilled once and drained
//! answers a miss from its own slots again.
//!
//! The paper uses a fully lock-free table (David et al.); per-bucket
//! locking is the documented substitution: it has no shared contention
//! point (the property the evaluation depends on), while remaining
//! correct under deletion-heavy eviction churn, where lock-free open
//! addressing is notoriously subtle.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use aquila_sync::{DetMap, Mutex};

use crate::key::PageKey;

/// Slot sentinel: never a valid packed key (packed keys set bit 63).
const EMPTY: u64 = 0;
/// Slot sentinel for removed entries.
const TOMBSTONE: u64 = u64::MAX;
/// Slots per bucket.
const BUCKET_SLOTS: usize = 8;

struct Slot {
    key: AtomicU64,
    value: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            key: AtomicU64::new(EMPTY),
            value: AtomicU64::new(0),
        }
    }
}

struct Bucket {
    lock: AtomicBool,
    /// This bucket's entries in the overflow map. Changed only under the
    /// bucket lock; lock-free readers load it after missing every slot.
    spilled: AtomicU32,
    slots: [Slot; BUCKET_SLOTS],
}

impl Bucket {
    fn new() -> Bucket {
        Bucket {
            lock: AtomicBool::new(false),
            spilled: AtomicU32::new(0),
            slots: [
                Slot::new(),
                Slot::new(),
                Slot::new(),
                Slot::new(),
                Slot::new(),
                Slot::new(),
                Slot::new(),
                Slot::new(),
            ],
        }
    }

    fn acquire(&self) -> BucketGuard<'_> {
        while self
            .lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        BucketGuard { bucket: self }
    }

    /// The slot holding `packed`, if any.
    #[inline]
    fn find(&self, packed: u64) -> Option<&Slot> {
        // Acquire pairs with the writer's release publish: a visible key
        // implies a visible value.
        self.slots
            .iter()
            .find(|slot| slot.key.load(Ordering::Acquire) == packed)
    }

    /// Whether the overflow map holds entries of this bucket.
    #[inline]
    fn has_spilled(&self) -> bool {
        self.spilled.load(Ordering::Acquire) > 0
    }
}

struct BucketGuard<'a> {
    bucket: &'a Bucket,
}

impl Drop for BucketGuard<'_> {
    fn drop(&mut self) {
        self.bucket.lock.store(false, Ordering::Release);
    }
}

/// Result of an insert attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The key was inserted with the given value.
    Inserted,
    /// The key was already present; its value is returned, the map is
    /// unchanged.
    AlreadyPresent(u64),
}

/// A concurrent hash map from [`PageKey`] to a `u64` value (the cache
/// stores frame ids). Lock-free reads, per-bucket-locked writes, no
/// global contention point.
pub struct LockFreeMap {
    buckets: Vec<Bucket>,
    mask: u64,
    len: AtomicU64,
    overflow: Mutex<DetMap<u64, u64>>,
}

impl LockFreeMap {
    /// Creates a map sized for at least `capacity` entries (2x slots,
    /// power-of-two buckets).
    pub fn new(capacity: usize) -> LockFreeMap {
        let buckets = (capacity * 2 / BUCKET_SLOTS).max(2).next_power_of_two();
        LockFreeMap {
            buckets: (0..buckets).map(|_| Bucket::new()).collect(),
            mask: (buckets - 1) as u64,
            len: AtomicU64::new(0),
            overflow: Mutex::new(DetMap::new()),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed) as usize
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot capacity (excluding overflow).
    pub fn capacity(&self) -> usize {
        self.buckets.len() * BUCKET_SLOTS
    }

    #[inline]
    fn bucket_of(&self, key: PageKey) -> &Bucket {
        &self.buckets[(key.hash() & self.mask) as usize]
    }

    /// The bucket index `key` hashes to. Exposed so callers can name the
    /// per-bucket lock in race-detector annotations.
    #[inline]
    pub fn bucket_index(&self, key: PageKey) -> u64 {
        key.hash() & self.mask
    }

    /// Looks up a key (lock-free unless the bucket has entries in the
    /// overflow map).
    pub fn get(&self, key: PageKey) -> Option<u64> {
        let packed = key.pack();
        let bucket = self.bucket_of(key);
        if let Some(slot) = bucket.find(packed) {
            return Some(slot.value.load(Ordering::Acquire));
        }
        if bucket.has_spilled() {
            return self.overflow.lock().get(&packed).copied();
        }
        None
    }

    /// Inserts `key -> value` if absent.
    ///
    /// This resolves the fault-handler race of section 3.2: two threads
    /// faulting on the same page both try to insert; exactly one wins and
    /// the loser observes the winner's frame and discards its own.
    pub fn insert(&self, key: PageKey, value: u64) -> InsertOutcome {
        let packed = key.pack();
        let bucket = self.bucket_of(key);
        let _guard = bucket.acquire();
        let mut free: Option<usize> = None;
        for (i, slot) in bucket.slots.iter().enumerate() {
            let k = slot.key.load(Ordering::Acquire);
            if k == packed {
                return InsertOutcome::AlreadyPresent(slot.value.load(Ordering::Acquire));
            }
            if (k == EMPTY || k == TOMBSTONE) && free.is_none() {
                free = Some(i);
            }
        }
        if bucket.has_spilled() {
            if let Some(&v) = self.overflow.lock().get(&packed) {
                return InsertOutcome::AlreadyPresent(v);
            }
        }
        match free {
            Some(i) => {
                let slot = &bucket.slots[i];
                // Two-phase publish: value first, key last with release,
                // so lock-free readers never see a key without its value.
                slot.value.store(value, Ordering::Release);
                slot.key.store(packed, Ordering::Release);
            }
            None => {
                // Count before publishing: a reader that finds the entry
                // missing from the slots must already see the count.
                bucket.spilled.fetch_add(1, Ordering::Release);
                self.overflow.lock().insert(packed, value);
            }
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        InsertOutcome::Inserted
    }

    /// Removes a key; returns its value if it was present.
    pub fn remove(&self, key: PageKey) -> Option<u64> {
        let packed = key.pack();
        let bucket = self.bucket_of(key);
        let _guard = bucket.acquire();
        let removed = match bucket.find(packed) {
            Some(slot) => {
                let v = slot.value.load(Ordering::Acquire);
                slot.key.store(TOMBSTONE, Ordering::Release);
                Some(v)
            }
            None if bucket.has_spilled() => {
                let v = self.overflow.lock().remove(&packed);
                if v.is_some() {
                    bucket.spilled.fetch_sub(1, Ordering::Release);
                }
                v
            }
            None => None,
        };
        if removed.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Updates the value of an existing key; returns false if absent.
    pub fn update(&self, key: PageKey, value: u64) -> bool {
        let packed = key.pack();
        let bucket = self.bucket_of(key);
        let _guard = bucket.acquire();
        if let Some(slot) = bucket.find(packed) {
            slot.value.store(value, Ordering::Release);
            return true;
        }
        if bucket.has_spilled() {
            if let Some(v) = self.overflow.lock().get_mut(&packed) {
                *v = value;
                return true;
            }
        }
        false
    }

    /// Visits all live entries. Not atomic with respect to concurrent
    /// mutation; intended for stats and shutdown paths.
    pub fn for_each(&self, mut f: impl FnMut(PageKey, u64)) {
        for bucket in &self.buckets {
            for slot in &bucket.slots {
                let k = slot.key.load(Ordering::Acquire);
                if k != EMPTY && k != TOMBSTONE {
                    f(PageKey::unpack(k), slot.value.load(Ordering::Acquire));
                }
            }
        }
        for (&k, &v) in self.overflow.lock().iter() {
            f(PageKey::unpack(k), v);
        }
    }

    /// Entries currently living in the overflow side map (diagnostics).
    pub fn overflow_len(&self) -> usize {
        self.overflow.lock().len()
    }
}

impl core::fmt::Debug for LockFreeMap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "LockFreeMap {{ len: {}, capacity: {}, overflow: {} }}",
            self.len(),
            self.capacity(),
            self.overflow_len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let m = LockFreeMap::new(64);
        let k = PageKey::new(1, 7);
        assert_eq!(m.get(k), None);
        assert_eq!(m.insert(k, 99), InsertOutcome::Inserted);
        assert_eq!(m.get(k), Some(99));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(k), Some(99));
        assert_eq!(m.get(k), None);
        assert_eq!(m.remove(k), None);
        assert!(m.is_empty());
    }

    #[test]
    fn duplicate_insert_reports_existing() {
        let m = LockFreeMap::new(64);
        let k = PageKey::new(2, 3);
        m.insert(k, 5);
        assert_eq!(m.insert(k, 6), InsertOutcome::AlreadyPresent(5));
        assert_eq!(m.get(k), Some(5));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tombstones_are_reused() {
        let m = LockFreeMap::new(64);
        let keys: Vec<PageKey> = (0..10).map(|i| PageKey::new(1, i)).collect();
        for (i, &k) in keys.iter().enumerate() {
            m.insert(k, i as u64);
        }
        m.remove(keys[4]);
        for (i, &k) in keys.iter().enumerate() {
            if i != 4 {
                assert_eq!(m.get(k), Some(i as u64), "key {i} lost after removal");
            }
        }
        m.insert(keys[4], 44);
        assert_eq!(m.get(keys[4]), Some(44));
    }

    #[test]
    fn update_only_touches_existing() {
        let m = LockFreeMap::new(16);
        let k = PageKey::new(3, 9);
        assert!(!m.update(k, 1));
        m.insert(k, 1);
        assert!(m.update(k, 2));
        assert_eq!(m.get(k), Some(2));
    }

    #[test]
    fn bucket_overflow_spills_and_recovers() {
        // A tiny map forced into overflow: all operations stay correct.
        let m = LockFreeMap::new(8);
        let n = m.capacity() as u64 + 32;
        for i in 0..n {
            assert_eq!(m.insert(PageKey::new(1, i), i), InsertOutcome::Inserted);
        }
        assert_eq!(m.len(), n as usize);
        assert!(m.overflow_len() > 0, "forced overflow did not happen");
        for i in 0..n {
            assert_eq!(m.get(PageKey::new(1, i)), Some(i), "key {i}");
        }
        for i in 0..n {
            assert_eq!(m.remove(PageKey::new(1, i)), Some(i));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn overflow_duplicate_and_update() {
        let m = LockFreeMap::new(8);
        let n = m.capacity() as u64 + 8;
        for i in 0..n {
            m.insert(PageKey::new(1, i), i);
        }
        // Keys in overflow respect duplicate/update semantics too.
        let last = PageKey::new(1, n - 1);
        assert!(matches!(
            m.insert(last, 0),
            InsertOutcome::AlreadyPresent(_)
        ));
        assert!(m.update(last, 777));
        assert_eq!(m.get(last), Some(777));
    }

    /// A bucket whose overflow entries are all removed stops consulting
    /// the overflow map: a miss there completes while another thread
    /// holds the map's lock.
    #[test]
    fn drained_bucket_misses_without_the_overflow_map() {
        use std::sync::{mpsc, Arc};
        use std::time::Duration;
        let m = Arc::new(LockFreeMap::new(8));
        let same_bucket: Vec<PageKey> = (0..)
            .map(|p| PageKey::new(1, p))
            .filter(|&k| m.bucket_index(k) == 0)
            .take(BUCKET_SLOTS + 3)
            .collect();
        let (stored, absent) = same_bucket.split_at(BUCKET_SLOTS + 2);
        let absent = absent[0];
        for (i, &k) in stored.iter().enumerate() {
            m.insert(k, i as u64);
        }
        let bucket = &m.buckets[0];
        assert_eq!(bucket.spilled.load(Ordering::Relaxed), 2);
        assert_eq!(m.overflow_len(), 2);
        // The last two inserts spilled; removing them drains the bucket's
        // share of the overflow map.
        for &k in &stored[BUCKET_SLOTS..] {
            assert!(m.remove(k).is_some());
        }
        assert_eq!(bucket.spilled.load(Ordering::Relaxed), 0);
        assert_eq!(m.overflow_len(), 0);
        let held = m.overflow.lock();
        let (tx, rx) = mpsc::channel();
        let reader = Arc::clone(&m);
        let probe = std::thread::spawn(move || tx.send(reader.get(absent)).unwrap());
        let answer = rx.recv_timeout(Duration::from_secs(10));
        drop(held);
        probe.join().unwrap();
        assert_eq!(answer, Ok(None), "the miss waited on the overflow map");
        for (i, &k) in stored[..BUCKET_SLOTS].iter().enumerate() {
            assert_eq!(m.get(k), Some(i as u64));
        }
    }

    #[test]
    fn for_each_sees_live_entries() {
        let m = LockFreeMap::new(64);
        for i in 0..20 {
            m.insert(PageKey::new(1, i), i);
        }
        m.remove(PageKey::new(1, 10));
        let mut seen = Vec::new();
        m.for_each(|k, v| seen.push((k.page, v)));
        seen.sort();
        assert_eq!(seen.len(), 19);
        assert!(!seen.iter().any(|&(p, _)| p == 10));
    }

    #[test]
    fn concurrent_insert_race_single_winner() {
        use std::sync::Arc;
        let m = Arc::new(LockFreeMap::new(1024));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut wins = 0;
                for i in 0..256u64 {
                    if m.insert(PageKey::new(7, i), t) == InsertOutcome::Inserted {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 256, "each key must have exactly one winner");
        assert_eq!(m.len(), 256);
        m.for_each(|_, v| assert!(v < 4));
    }

    #[test]
    fn concurrent_churn_is_consistent() {
        // Insert/remove churn across threads on disjoint key ranges.
        use std::sync::Arc;
        let m = Arc::new(LockFreeMap::new(512));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for round in 0..50u64 {
                    for i in 0..64u64 {
                        let k = PageKey::new(t as u32, i);
                        m.insert(k, round * 1000 + i);
                    }
                    for i in 0..64u64 {
                        let k = PageKey::new(t as u32, i);
                        assert!(m.remove(k).is_some());
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(m.is_empty());
    }

    #[test]
    fn many_files_do_not_collide() {
        let m = LockFreeMap::new(4096);
        for f in 0..32u32 {
            for p in 0..32u64 {
                m.insert(PageKey::new(f, p), ((f as u64) << 32) | p);
            }
        }
        for f in 0..32u32 {
            for p in 0..32u64 {
                assert_eq!(m.get(PageKey::new(f, p)), Some(((f as u64) << 32) | p));
            }
        }
    }
}
