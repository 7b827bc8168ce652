//! The user-space block cache + direct I/O baseline (Figure 1(b)).
//!
//! This is what RocksDB's recommended configuration does: O_DIRECT
//! `pread` with an application-level sharded LRU block cache. It avoids
//! kernel page-cache overheads but pays a software lookup on *every*
//! access — including hits — which is precisely the cost mmio eliminates
//! (the paper cites one-third to one-half of total CPU cycles going to
//! cache management in such designs).

use std::sync::Arc;

use aquila_sync::{DetMap, Mutex};

use aquila_devices::{StorageAccess, STORE_PAGE};
use aquila_sim::{race, CostCat, Cycles, SimCtx, SimMutex};

/// Cycles a shard lock is held per operation.
const SHARD_HOLD: Cycles = Cycles(200);

/// Cache key: (file id, page number).
type BlockKey = (u32, u64);

// Race-detector lock/variable names, instanced by shard index. Order
// (declared in [`UserCache::new`]): a shard's `map` may be held while
// taking its `lru`, never the other way round.
const L_MAP: &str = "ucache.map";
const L_LRU: &str = "ucache.lru";
const V_MAP: &str = "ucache.map.shard";
const V_LRU: &str = "ucache.lru.shard";

struct Shard {
    map: Mutex<DetMap<BlockKey, Box<[u8]>>>,
    lru: Mutex<Vec<BlockKey>>, // Approximate LRU: move-to-back vector.
    lock_model: SimMutex,
}

/// A sharded user-space LRU cache over 4 KiB blocks with direct I/O
/// misses.
pub struct UserCache {
    shards: Vec<Shard>,
    capacity_per_shard: usize,
    access: Arc<dyn StorageAccess>,
    hits: Mutex<u64>,
    misses: Mutex<u64>,
}

impl UserCache {
    /// Creates a cache of `capacity_blocks` 4 KiB blocks with `shards`
    /// shards over a direct-I/O access path.
    pub fn new(capacity_blocks: usize, shards: usize, access: Arc<dyn StorageAccess>) -> UserCache {
        let shards = shards.max(1);
        race::declare_order("ucache", &[L_MAP, L_LRU]);
        UserCache {
            shards: (0..shards)
                .map(|_| Shard {
                    map: Mutex::new(DetMap::new()),
                    lru: Mutex::new(Vec::new()),
                    lock_model: SimMutex::new(),
                })
                .collect(),
            capacity_per_shard: (capacity_blocks / shards).max(1),
            access,
            hits: Mutex::new(0),
            misses: Mutex::new(0),
        }
    }

    fn shard_of(&self, key: BlockKey) -> usize {
        let h = aquila_sim::rng::fnv1a_64(((key.0 as u64) << 40) ^ key.1);
        (h % self.shards.len() as u64) as usize
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (*self.hits.lock(), *self.misses.lock())
    }

    /// Cached block count.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.lock().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the 4 KiB block `(file, page)` (at device page
    /// `dev_page`) into `buf`, through the cache.
    ///
    /// Every call — hit or miss — pays the lookup cost; misses addi-
    /// tionally pay the direct-I/O `pread` and possibly an eviction.
    pub fn get(&self, ctx: &mut dyn SimCtx, key: BlockKey, dev_page: u64, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), STORE_PAGE);
        let lookup = ctx.cost().ucache_lookup;
        ctx.charge(CostCat::CacheMgmt, lookup);
        let si = self.shard_of(key);
        let shard = &self.shards[si];
        let r = shard.lock_model.acquire(ctx.now(), SHARD_HOLD);
        ctx.wait_until(r.start, CostCat::LockWait);
        ctx.wait_until(r.end, CostCat::CacheMgmt);

        race::acquire(ctx, (L_MAP, si as u64));
        let map = shard.map.lock();
        if let Some(block) = map.get(&key) {
            buf.copy_from_slice(block);
            race::read(ctx, (V_MAP, si as u64));
            race::acquire(ctx, (L_LRU, si as u64));
            let mut lru = shard.lru.lock();
            if let Some(pos) = lru.iter().position(|&k| k == key) {
                lru.remove(pos);
            }
            lru.push(key);
            drop(lru);
            race::write(ctx, (V_LRU, si as u64));
            race::release(ctx, (L_LRU, si as u64));
            drop(map);
            race::release(ctx, (L_MAP, si as u64));
            *self.hits.lock() += 1;
            return;
        }
        drop(map);
        race::read(ctx, (V_MAP, si as u64));
        race::release(ctx, (L_MAP, si as u64));
        *self.misses.lock() += 1;

        // Miss: direct-I/O pread (syscall + kernel path + device).
        self.access
            .read_pages(ctx, dev_page, buf)
            .expect("user-cache fill within device bounds");

        // Insert, evicting LRU if the shard is full (another lock round).
        let r = shard.lock_model.acquire(ctx.now(), SHARD_HOLD);
        ctx.wait_until(r.start, CostCat::LockWait);
        ctx.wait_until(r.end, CostCat::CacheMgmt);
        race::acquire(ctx, (L_MAP, si as u64));
        let mut map = shard.map.lock();
        race::acquire(ctx, (L_LRU, si as u64));
        let mut lru = shard.lru.lock();
        if map.len() >= self.capacity_per_shard {
            let evict = ctx.cost().ucache_evict;
            ctx.charge(CostCat::CacheMgmt, evict);
            if !lru.is_empty() {
                let victim = lru.remove(0);
                map.remove(&victim);
                ctx.counters().evictions += 1;
            }
        }
        map.insert(key, buf.to_vec().into_boxed_slice());
        lru.push(key);
        drop(lru);
        drop(map);
        race::write(ctx, (V_MAP, si as u64));
        race::write(ctx, (V_LRU, si as u64));
        race::release(ctx, (L_LRU, si as u64));
        race::release(ctx, (L_MAP, si as u64));
    }

    /// Writes a block through the cache (write-through with direct I/O,
    /// the mode RocksDB uses for SST creation).
    pub fn put_through(&self, ctx: &mut dyn SimCtx, key: BlockKey, dev_page: u64, buf: &[u8]) {
        debug_assert_eq!(buf.len(), STORE_PAGE);
        self.access
            .write_pages(ctx, dev_page, buf)
            .expect("user-cache write-through within device bounds");
        let si = self.shard_of(key);
        let shard = &self.shards[si];
        let r = shard.lock_model.acquire(ctx.now(), SHARD_HOLD);
        ctx.wait_until(r.start, CostCat::LockWait);
        ctx.wait_until(r.end, CostCat::CacheMgmt);
        race::acquire(ctx, (L_MAP, si as u64));
        let mut map = shard.map.lock();
        if map.contains_key(&key) {
            map.insert(key, buf.to_vec().into_boxed_slice());
        }
        drop(map);
        race::write(ctx, (V_MAP, si as u64));
        race::release(ctx, (L_MAP, si as u64));
    }

    /// Resets shard-lock timing models (between experiment phases).
    pub fn reset_timing(&self) {
        for s in &self.shards {
            s.lock_model.reset();
        }
    }

    /// Drops every cached block (e.g. after compaction invalidation).
    pub fn clear(&self) {
        for s in &self.shards {
            s.map.lock().clear();
            s.lru.lock().clear();
        }
    }
}

impl core::fmt::Debug for UserCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let (h, m) = self.stats();
        write!(
            f,
            "UserCache {{ blocks: {}, hits: {h}, misses: {m} }}",
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_devices::{CallDomain, Entry, PmemAccess, PmemDevice};
    use aquila_sim::FreeCtx;

    fn cache(blocks: usize) -> (FreeCtx, UserCache, Arc<dyn StorageAccess>) {
        let ctx = FreeCtx::new(5);
        let dev = Arc::new(PmemDevice::dram_backed(1024));
        let access: Arc<dyn StorageAccess> =
            Arc::new(PmemAccess::new(dev, Entry::Host(CallDomain::User)));
        let uc = UserCache::new(blocks, 4, Arc::clone(&access));
        (ctx, uc, access)
    }

    #[test]
    fn miss_then_hit() {
        let (mut ctx, uc, access) = cache(16);
        let data = vec![0x42u8; STORE_PAGE];
        access.write_pages(&mut ctx, 7, &data).unwrap();
        let mut buf = vec![0u8; STORE_PAGE];
        uc.get(&mut ctx, (0, 7), 7, &mut buf);
        assert_eq!(buf, data);
        assert_eq!(uc.stats(), (0, 1));
        let syscalls_after_miss = ctx.stats.syscalls;
        uc.get(&mut ctx, (0, 7), 7, &mut buf);
        assert_eq!(uc.stats(), (1, 1));
        assert_eq!(
            ctx.stats.syscalls, syscalls_after_miss,
            "hits avoid syscalls"
        );
    }

    #[test]
    fn hits_still_cost_cycles() {
        // The paper's core claim: user-space cache hits are NOT free.
        let (mut ctx, uc, _) = cache(16);
        let mut buf = vec![0u8; STORE_PAGE];
        uc.get(&mut ctx, (0, 1), 1, &mut buf);
        let t0 = ctx.now();
        uc.get(&mut ctx, (0, 1), 1, &mut buf);
        let hit_cost = (ctx.now() - t0).get();
        assert!(hit_cost >= 450, "hit cost {hit_cost} must include lookup");
    }

    #[test]
    fn eviction_on_capacity() {
        let (mut ctx, uc, _) = cache(4); // 1 block per shard.
        let mut buf = vec![0u8; STORE_PAGE];
        for p in 0..16u64 {
            uc.get(&mut ctx, (0, p), p, &mut buf);
        }
        assert!(uc.len() <= 4);
        assert!(ctx.stats.evictions > 0);
    }

    #[test]
    fn put_through_updates_cached_copy() {
        let (mut ctx, uc, _) = cache(16);
        let mut buf = vec![0u8; STORE_PAGE];
        uc.get(&mut ctx, (0, 3), 3, &mut buf); // Cache the block.
        let newdata = vec![0x77u8; STORE_PAGE];
        uc.put_through(&mut ctx, (0, 3), 3, &newdata);
        uc.get(&mut ctx, (0, 3), 3, &mut buf);
        assert_eq!(buf, newdata);
    }

    #[test]
    fn clear_empties() {
        let (mut ctx, uc, _) = cache(16);
        let mut buf = vec![0u8; STORE_PAGE];
        uc.get(&mut ctx, (0, 1), 1, &mut buf);
        assert!(!uc.is_empty());
        uc.clear();
        assert!(uc.is_empty());
    }
}
