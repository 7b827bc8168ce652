//! The cached-page hash table.
//!
//! This is the structure that replaces Linux's single-lock page-cache
//! radix tree (the contention point Figure 10 exposes). Page-fault
//! handlers look up the faulting page here; in the paper lookups are
//! lock-free and mutations take only a *per-bucket* spinlock, so
//! concurrent faults on a shared file scale with cores instead of
//! serializing on one tree lock (paper sections 3.2 and 6.5). The
//! simulation models that through the per-bucket race-detector
//! annotations and charges in [`crate::DramCache`]; on the host, which
//! steps every vcore from one thread, the table is plain state in one
//! `aquila_sync` cell.
//!
//! Design: closed hashing with 8-slot buckets. Each slot is a key and its
//! value side by side (a bucket spans 136 bytes, so a miss reads two or
//! three cache lines and a hit in an early slot one). Bucket overflow —
//! rare at the 2x sizing used here — falls back to a side map. Each
//! bucket counts its own entries in that map, raised on a spill and
//! lowered on an overflow remove, so an operation searches the side map
//! only while its bucket has entries there: a bucket that spilled once
//! and drained answers a miss from its own slots again.
//!
//! The paper uses a fully lock-free table (David et al.); per-bucket
//! locking is the modelled substitution: it has no shared contention
//! point (the property the evaluation depends on), while remaining
//! correct under deletion-heavy eviction churn, where lock-free open
//! addressing is notoriously subtle.

use aquila_sync::{DetMap, Mutex};

use crate::key::PageKey;

/// Slot sentinel: never a valid packed key (packed keys set bit 63).
const EMPTY: u64 = 0;
/// Slot sentinel for removed entries.
const TOMBSTONE: u64 = u64::MAX;
/// Slots per bucket.
const BUCKET_SLOTS: usize = 8;

#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    value: u64,
}

#[derive(Clone, Copy)]
struct Bucket {
    /// This bucket's entries in the overflow map.
    spilled: u32,
    slots: [Slot; BUCKET_SLOTS],
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        spilled: 0,
        slots: [Slot {
            key: EMPTY,
            value: 0,
        }; BUCKET_SLOTS],
    };

    /// The slot holding `packed`, if any.
    #[inline]
    fn find(&mut self, packed: u64) -> Option<&mut Slot> {
        self.slots.iter_mut().find(|slot| slot.key == packed)
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

/// The buckets, the live-entry count and the overflow side map.
struct Table {
    buckets: Vec<Bucket>,
    len: usize,
    overflow: DetMap<u64, u64>,
}

/// A hash map from [`PageKey`] to a `u64` value (the cache stores frame
/// ids), modelled as lock-free reads and per-bucket-locked writes with
/// no global contention point.
pub struct LockFreeMap {
    table: Mutex<Table>,
    mask: u64,
}

impl LockFreeMap {
    /// Creates a map sized for at least `capacity` entries (2x slots,
    /// power-of-two buckets).
    pub fn new(capacity: usize) -> LockFreeMap {
        let buckets = (capacity * 2 / BUCKET_SLOTS).max(2).next_power_of_two();
        LockFreeMap {
            table: Mutex::new(Table {
                buckets: vec![Bucket::EMPTY; buckets],
                len: 0,
                overflow: DetMap::new(),
            }),
            mask: (buckets - 1) as u64,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.table.lock().len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot capacity (excluding overflow).
    pub fn capacity(&self) -> usize {
        (self.mask as usize + 1) * BUCKET_SLOTS
    }

    /// The bucket index `key` hashes to. Exposed so callers can name the
    /// per-bucket lock in race-detector annotations.
    #[inline]
    pub fn bucket_index(&self, key: PageKey) -> u64 {
        key.hash() & self.mask
    }

    /// Looks up a key (the overflow map only if the key's bucket has
    /// entries there).
    pub fn get(&self, key: PageKey) -> Option<u64> {
        let packed = key.pack();
        let t = &mut *self.table.lock();
        let bucket = &mut t.buckets[self.bucket_index(key) as usize];
        if let Some(slot) = bucket.find(packed) {
            return Some(slot.value);
        }
        if bucket.spilled > 0 {
            return t.overflow.get(&packed).copied();
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
        let t = &mut *self.table.lock();
        let bucket = &mut t.buckets[self.bucket_index(key) as usize];
        let mut free: Option<usize> = None;
        for (i, slot) in bucket.slots.iter().enumerate() {
            if slot.key == packed {
                return InsertOutcome::AlreadyPresent(slot.value);
            }
            if (slot.key == EMPTY || slot.key == TOMBSTONE) && free.is_none() {
                free = Some(i);
            }
        }
        if bucket.spilled > 0 {
            if let Some(&v) = t.overflow.get(&packed) {
                return InsertOutcome::AlreadyPresent(v);
            }
        }
        match free {
            Some(i) => bucket.slots[i] = Slot { key: packed, value },
            None => {
                bucket.spilled += 1;
                t.overflow.insert(packed, value);
            }
        }
        t.len += 1;
        InsertOutcome::Inserted
    }

    /// Removes a key; returns its value if it was present.
    pub fn remove(&self, key: PageKey) -> Option<u64> {
        let packed = key.pack();
        let t = &mut *self.table.lock();
        let bucket = &mut t.buckets[self.bucket_index(key) as usize];
        let spilled = bucket.spilled > 0;
        let removed = match bucket.find(packed) {
            Some(slot) => {
                slot.key = TOMBSTONE;
                Some(slot.value)
            }
            None if spilled => {
                let v = t.overflow.remove(&packed);
                if v.is_some() {
                    bucket.spilled -= 1;
                }
                v
            }
            None => None,
        };
        if removed.is_some() {
            t.len -= 1;
        }
        removed
    }

    /// Updates the value of an existing key; returns false if absent.
    pub fn update(&self, key: PageKey, value: u64) -> bool {
        let packed = key.pack();
        let t = &mut *self.table.lock();
        let bucket = &mut t.buckets[self.bucket_index(key) as usize];
        if let Some(slot) = bucket.find(packed) {
            slot.value = value;
            return true;
        }
        if bucket.spilled > 0 {
            if let Some(v) = t.overflow.get_mut(&packed) {
                *v = value;
                return true;
            }
        }
        false
    }

    /// Visits all live entries (stats and shutdown paths). `f` must not
    /// call back into the map.
    pub fn for_each(&self, mut f: impl FnMut(PageKey, u64)) {
        let t = self.table.lock();
        for bucket in &t.buckets {
            for slot in &bucket.slots {
                if slot.key != EMPTY && slot.key != TOMBSTONE {
                    f(PageKey::unpack(slot.key), slot.value);
                }
            }
        }
        for (&k, &v) in t.overflow.iter() {
            f(PageKey::unpack(k), v);
        }
    }

    /// Entries currently living in the overflow side map (diagnostics).
    pub fn overflow_len(&self) -> usize {
        self.table.lock().overflow.len()
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
    /// the overflow map: its spill count drains back to zero, and a miss
    /// there is answered from its own slots.
    #[test]
    fn drained_bucket_misses_without_the_overflow_map() {
        let m = LockFreeMap::new(8);
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
        let spilled = |m: &LockFreeMap| m.table.lock().buckets[0].spilled;
        assert_eq!(spilled(&m), 2);
        assert_eq!(m.overflow_len(), 2);
        // The last two inserts spilled; removing them drains the bucket's
        // share of the overflow map.
        for &k in &stored[BUCKET_SLOTS..] {
            assert!(m.remove(k).is_some());
        }
        assert_eq!(spilled(&m), 0);
        assert_eq!(m.overflow_len(), 0);
        // An entry of another bucket parked in the side map stays out of
        // bucket 0's answers: a miss there never reads the map.
        m.table.lock().overflow.insert(absent.pack(), 99);
        assert_eq!(m.get(absent), None, "the miss read the overflow map");
        m.table.lock().overflow.clear();
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
