//! The Linux kernel page cache model: one radix tree, one lock.
//!
//! The paper's profiling (section 6.5) finds that "in Linux, a single lock
//! protects the radix tree of cached pages, and, as a result, is highly
//! contended"; marking a page dirty needs the *same* lock. This module
//! reproduces that structure: a functional index plus a [`SimMutex`]
//! reservation that models the tree lock's serialization, so Figure 10's
//! collapse emerges from the model rather than being hard-coded.

use aquila_sync::{DetMap, Mutex, RwLock};

use aquila_sim::{race, CostCat, Cycles, SimCtx, SimMutex};

/// A (file, page) key in the page cache.
pub type Key = (u32, u64);

/// Cycles the tree lock is held for a lookup/insert/delete.
pub const TREE_HOLD: Cycles = Cycles(350);

// Race-detector identities. The host-side `inner` mutex protects the
// whole index (tree/owner/dirty/lru/free move together); `tree_locks` is
// the registry of per-file virtual tree locks. Order declared in
// [`KernelPageCache::new`]; the registry lock is never held across
// `inner`.
const LOCK_TREE_LOCKS: race::LockKey = ("linux.pagecache.tree_locks", 0);
const LOCK_INNER: race::LockKey = ("linux.pagecache.inner", 0);
const VAR_TREE_LOCKS: race::VarKey = ("linux.pagecache.tree_locks.map", 0);
const VAR_INNER: race::VarKey = ("linux.pagecache.index", 0);

/// Exact LRU over frame ids (an intrusive doubly-linked list).
struct LruList {
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Sentinel index = frames.len(): head.next is the LRU victim,
    /// head.prev the most recently used.
    sentinel: u32,
    linked: Vec<bool>,
}

impl LruList {
    fn new(frames: usize) -> LruList {
        let s = frames as u32;
        let mut l = LruList {
            prev: vec![0; frames + 1],
            next: vec![0; frames + 1],
            sentinel: s,
            linked: vec![false; frames],
        };
        l.prev[s as usize] = s;
        l.next[s as usize] = s;
        l
    }

    fn unlink(&mut self, f: u32) {
        if !self.linked[f as usize] {
            return;
        }
        let (p, n) = (self.prev[f as usize], self.next[f as usize]);
        self.next[p as usize] = n;
        self.prev[n as usize] = p;
        self.linked[f as usize] = false;
    }

    /// Moves `f` to the MRU position.
    fn touch(&mut self, f: u32) {
        self.unlink(f);
        let s = self.sentinel;
        let tail = self.prev[s as usize];
        self.next[tail as usize] = f;
        self.prev[f as usize] = tail;
        self.next[f as usize] = s;
        self.prev[s as usize] = f;
        self.linked[f as usize] = true;
    }

    /// Pops the LRU frame, if any.
    fn pop_lru(&mut self) -> Option<u32> {
        let s = self.sentinel;
        let head = self.next[s as usize];
        if head == s {
            return None;
        }
        self.unlink(head);
        Some(head)
    }
}

struct Inner {
    tree: DetMap<Key, u32>,
    owner: Vec<Option<Key>>,
    dirty: DetMap<Key, ()>,
    lru: LruList,
    free: Vec<u32>,
}

/// An evicted kernel-cache page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KVictim {
    /// The page that was evicted.
    pub key: Key,
    /// Its frame (data still present until reused).
    pub frame: u32,
    /// Whether it must be written back.
    pub dirty: bool,
}

/// The kernel page cache.
pub struct KernelPageCache {
    frames: Vec<RwLock<Box<[u8]>>>,
    inner: Mutex<Inner>,
    /// Per-file (per-inode address_space) tree locks. All threads reading
    /// one shared file contend on one of these — the Figure 10 shared-file
    /// collapse — while separate files use separate locks.
    tree_locks: Mutex<DetMap<u32, std::sync::Arc<SimMutex>>>,
    /// The LRU/zone lock taken by reclaim.
    lru_lock: SimMutex,
}

impl KernelPageCache {
    /// Creates a cache of `frames` 4 KiB frames.
    pub fn new(frames: usize) -> KernelPageCache {
        race::declare_order(
            "linux.pagecache",
            &["linux.pagecache.tree_locks", "linux.pagecache.inner"],
        );
        KernelPageCache {
            frames: (0..frames)
                .map(|_| RwLock::new(vec![0u8; 4096].into_boxed_slice()))
                .collect(),
            inner: Mutex::new(Inner {
                tree: DetMap::new(),
                owner: vec![None; frames],
                dirty: DetMap::new(),
                lru: LruList::new(frames),
                free: (0..frames as u32).rev().collect(),
            }),
            tree_locks: Mutex::new(DetMap::new()),
            lru_lock: SimMutex::new(),
        }
    }

    /// Total frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Cached page count.
    pub fn resident(&self) -> usize {
        self.inner.lock().tree.len()
    }

    /// Dirty page count.
    pub fn dirty_count(&self) -> usize {
        self.inner.lock().dirty.len()
    }

    /// Resets lock timing models (between experiment phases).
    pub fn reset_timing(&self) {
        for l in self.tree_locks.lock().values() {
            l.reset();
        }
        self.lru_lock.reset();
    }

    fn take_tree_lock(&self, ctx: &mut dyn SimCtx, file: u32, hold: Cycles) {
        race::acquire(ctx, LOCK_TREE_LOCKS);
        let lock = std::sync::Arc::clone(
            self.tree_locks
                .lock()
                .entry(file)
                .or_insert_with(|| std::sync::Arc::new(SimMutex::new())),
        );
        race::write(ctx, VAR_TREE_LOCKS);
        race::release(ctx, LOCK_TREE_LOCKS);
        // The tree lock is a *non-scalable* spinlock: every waiter spins
        // on the lock word, so each hand-off pays one cache-line transfer
        // per spinner (Boyd-Wickizer et al., "Non-scalable locks are
        // dangerous"). Model the effective hold as growing with the
        // queued backlog — this is what makes Linux's shared-file fault
        // throughput collapse, rather than merely plateau, as core
        // counts rise (the paper's Figures 6/10).
        let spinners = (lock.backlog(ctx.now()).get() / TREE_HOLD.get()).min(64);
        let hold = hold + Cycles(ctx.cost().lock_contended_extra.get() * spinners);
        let r = lock.acquire(ctx.now(), hold);
        if r.wait > Cycles::ZERO {
            let sp = aquila_sim::span::begin(ctx, "linux.tree_lock.wait", CostCat::LockWait);
            ctx.wait_until(r.start, CostCat::LockWait);
            aquila_sim::span::end(ctx, sp);
        }
        ctx.wait_until(r.end, CostCat::CacheMgmt);
    }

    /// Looks up a page under its file's tree lock, touching the LRU.
    pub fn lookup(&self, ctx: &mut dyn SimCtx, key: Key) -> Option<u32> {
        self.take_tree_lock(ctx, key.0, TREE_HOLD);
        race::acquire(ctx, LOCK_INNER);
        let mut inner = self.inner.lock();
        let frame = inner.tree.get(&key).copied();
        if let Some(f) = frame {
            inner.lru.touch(f);
        }
        drop(inner);
        race::write(ctx, VAR_INNER);
        race::release(ctx, LOCK_INNER);
        frame
    }

    /// Allocates a frame for `key`, evicting the LRU page when full.
    ///
    /// Returns `(frame, victim, was_present)`: when `was_present` the key
    /// was already cached (possibly dirty) and the caller must NOT
    /// overwrite the frame with device data.
    pub fn insert(&self, ctx: &mut dyn SimCtx, key: Key) -> (u32, Option<KVictim>, bool) {
        self.take_tree_lock(ctx, key.0, TREE_HOLD);
        race::acquire(ctx, LOCK_INNER);
        let mut inner = self.inner.lock();
        let result = if let Some(&f) = inner.tree.get(&key) {
            // Already cached (or raced with another fill).
            (f, None, true)
        } else {
            let (frame, victim) = match inner.free.pop() {
                Some(f) => (f, None),
                None => {
                    let f = inner
                        .lru
                        .pop_lru()
                        .expect("no free and no LRU: empty cache?");
                    let old = inner.owner[f as usize]
                        .take()
                        .expect("LRU frames have owners");
                    inner.tree.remove(&old);
                    let dirty = inner.dirty.remove(&old).is_some();
                    ctx.counters().evictions += 1;
                    (
                        f,
                        Some(KVictim {
                            key: old,
                            frame: f,
                            dirty,
                        }),
                    )
                }
            };
            inner.tree.insert(key, frame);
            inner.owner[frame as usize] = Some(key);
            inner.lru.touch(frame);
            (frame, victim, false)
        };
        drop(inner);
        race::write(ctx, VAR_INNER);
        race::release(ctx, LOCK_INNER);
        result
    }

    /// Marks a page dirty — under the same tree lock (the Linux
    /// behaviour the paper calls out).
    pub fn mark_dirty(&self, ctx: &mut dyn SimCtx, key: Key) {
        self.take_tree_lock(ctx, key.0, TREE_HOLD);
        race::acquire(ctx, LOCK_INNER);
        self.inner.lock().dirty.insert(key, ());
        race::write(ctx, VAR_INNER);
        race::release(ctx, LOCK_INNER);
    }

    /// Clears the dirty mark after writeback.
    pub fn clear_dirty(&self, ctx: &mut dyn SimCtx, key: Key) {
        self.take_tree_lock(ctx, key.0, TREE_HOLD);
        race::acquire(ctx, LOCK_INNER);
        self.inner.lock().dirty.remove(&key);
        race::write(ctx, VAR_INNER);
        race::release(ctx, LOCK_INNER);
    }

    /// Snapshot of the dirty pages of `file` within `[start, end)` page
    /// range, sorted by offset.
    pub fn dirty_range(
        &self,
        ctx: &mut dyn SimCtx,
        file: u32,
        start: u64,
        end: u64,
    ) -> Vec<(Key, u32)> {
        self.take_tree_lock(ctx, file, TREE_HOLD * 4);
        race::acquire(ctx, LOCK_INNER);
        let inner = self.inner.lock();
        let v: Vec<(Key, u32)> = inner
            .dirty
            .range((file, start)..(file, end))
            .map(|(&k, ())| (k, inner.tree[&k]))
            .collect();
        drop(inner);
        race::read(ctx, VAR_INNER);
        race::release(ctx, LOCK_INNER);
        v
    }

    /// Free frames remaining.
    pub fn free_count(&self) -> usize {
        self.inner.lock().free.len()
    }

    /// Reclaims up to `n` LRU pages under the LRU/zone lock (kswapd-style
    /// batched reclaim). The caller unmaps the victims, performs one
    /// batched shootdown, and writes dirty ones back.
    pub fn reclaim(&self, ctx: &mut dyn SimCtx, n: usize) -> Vec<KVictim> {
        let r = self
            .lru_lock
            .acquire(ctx.now(), Cycles(150 * n.max(1) as u64));
        ctx.wait_until(r.start, CostCat::LockWait);
        ctx.wait_until(r.end, CostCat::Eviction);
        race::acquire(ctx, LOCK_INNER);
        let mut inner = self.inner.lock();
        let mut out = Vec::new();
        for _ in 0..n {
            let Some(f) = inner.lru.pop_lru() else { break };
            let old = inner.owner[f as usize]
                .take()
                .expect("LRU frames have owners");
            inner.tree.remove(&old);
            let dirty = inner.dirty.remove(&old).is_some();
            inner.free.push(f);
            ctx.counters().evictions += 1;
            out.push(KVictim {
                key: old,
                frame: f,
                dirty,
            });
        }
        drop(inner);
        race::write(ctx, VAR_INNER);
        race::release(ctx, LOCK_INNER);
        out
    }

    /// Reads bytes out of a frame.
    pub fn read_frame(&self, frame: u32, offset: usize, buf: &mut [u8]) {
        let data = self.frames[frame as usize].read();
        buf.copy_from_slice(&data[offset..offset + buf.len()]);
    }

    /// Runs `f` with the bytes of `frames` as a page list, in the order
    /// given: writeback hands it straight to the device. The frames'
    /// read locks are taken in ascending frame order and held while `f`
    /// runs.
    pub fn with_frames<R>(&self, frames: &[u32], f: impl FnOnce(&[&[u8]]) -> R) -> R {
        let mut order: Vec<usize> = (0..frames.len()).collect();
        order.sort_by_key(|&i| frames[i]);
        let guards: Vec<_> = order
            .iter()
            .map(|&i| (i, self.frames[frames[i] as usize].read()))
            .collect();
        let mut pages: Vec<&[u8]> = vec![&[]; frames.len()];
        for (i, data) in &guards {
            pages[*i] = data;
        }
        f(&pages)
    }

    /// Writes bytes into a frame.
    pub fn write_frame(&self, frame: u32, offset: usize, buf: &[u8]) {
        let mut data = self.frames[frame as usize].write();
        data[offset..offset + buf.len()].copy_from_slice(buf);
    }
}

impl core::fmt::Debug for KernelPageCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "KernelPageCache {{ resident: {}/{}, dirty: {} }}",
            self.resident(),
            self.capacity(),
            self.dirty_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::FreeCtx;

    #[test]
    fn insert_lookup_roundtrip() {
        let c = KernelPageCache::new(4);
        let mut ctx = FreeCtx::new(1);
        let (f, v, present) = c.insert(&mut ctx, (0, 7));
        assert!(v.is_none());
        assert!(!present);
        c.write_frame(f, 0, b"kernel");
        let got = c.lookup(&mut ctx, (0, 7)).unwrap();
        assert_eq!(got, f);
        let mut buf = [0u8; 6];
        c.read_frame(got, 0, &mut buf);
        assert_eq!(&buf, b"kernel");
    }

    #[test]
    fn lru_eviction_order() {
        let c = KernelPageCache::new(2);
        let mut ctx = FreeCtx::new(1);
        c.insert(&mut ctx, (0, 1));
        c.insert(&mut ctx, (0, 2));
        // Touch page 1 so page 2 becomes LRU.
        c.lookup(&mut ctx, (0, 1));
        let (_, victim, _) = c.insert(&mut ctx, (0, 3));
        assert_eq!(victim.unwrap().key, (0, 2));
        assert!(c.lookup(&mut ctx, (0, 1)).is_some());
        assert!(c.lookup(&mut ctx, (0, 2)).is_none());
    }

    #[test]
    fn dirty_tracking_and_victims() {
        let c = KernelPageCache::new(1);
        let mut ctx = FreeCtx::new(1);
        c.insert(&mut ctx, (0, 1));
        c.mark_dirty(&mut ctx, (0, 1));
        assert_eq!(c.dirty_count(), 1);
        let (_, victim, _) = c.insert(&mut ctx, (0, 2));
        let v = victim.unwrap();
        assert!(v.dirty, "dirty victim flagged for writeback");
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn dirty_range_sorted_and_scoped() {
        let c = KernelPageCache::new(8);
        let mut ctx = FreeCtx::new(1);
        for p in [5u64, 1, 3] {
            c.insert(&mut ctx, (1, p));
            c.mark_dirty(&mut ctx, (1, p));
        }
        c.insert(&mut ctx, (2, 9));
        c.mark_dirty(&mut ctx, (2, 9));
        let d = c.dirty_range(&mut ctx, 1, 0, 4);
        let pages: Vec<u64> = d.iter().map(|&((_, p), _)| p).collect();
        assert_eq!(pages, vec![1, 3]);
        c.clear_dirty(&mut ctx, (1, 1));
        assert_eq!(c.dirty_count(), 3);
    }

    #[test]
    fn tree_lock_serializes_in_virtual_time() {
        let c = KernelPageCache::new(64);
        // Two contexts at the same virtual time: the second waits.
        let mut a = FreeCtx::new(1);
        let mut b = FreeCtx::new(2);
        c.lookup(&mut a, (0, 1));
        c.lookup(&mut b, (0, 1));
        assert_eq!(a.breakdown.get(CostCat::LockWait), Cycles::ZERO);
        // Only the second lookup waited: one contended acquisition.
        assert_eq!(b.breakdown.get(CostCat::LockWait), TREE_HOLD);
    }

    #[test]
    fn insert_race_returns_existing() {
        let c = KernelPageCache::new(4);
        let mut ctx = FreeCtx::new(1);
        let (f1, _, p1) = c.insert(&mut ctx, (0, 1));
        let (f2, v, p2) = c.insert(&mut ctx, (0, 1));
        assert_eq!(f1, f2);
        assert!(v.is_none());
        assert!(!p1);
        assert!(p2, "second insert sees the cached page");
        assert_eq!(c.resident(), 1);
    }
}
