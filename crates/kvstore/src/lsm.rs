//! StoneDB: the RocksDB-style LSM key-value store.
//!
//! An LSM tree with a skiplist memtable, leveled SSTs (64 MB in RocksDB;
//! scaled here), bloom filters, and leveled compaction. The store is
//! generic over an [`Env`](crate::env::Env), which is how the Figure 5/7
//! experiments swap the read path between direct I/O + user cache, Linux
//! `mmap`, and Aquila mmio without touching store logic — mirroring the
//! paper's minimal-port claim.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aquila_sync::Mutex;

use aquila_sim::{CostCat, Cycles, SimCtx};

use crate::env::{DynEnv, EnvKind};
use crate::memtable::Memtable;
use crate::sst::{SstReader, SstWriter};

/// Per-get fixed CPU cost: version/superversion bookkeeping, iterator
/// setup, comparator dispatch. Calibrated with the block costs in
/// [`crate::sst`] so the Figure 7 "RocksDB get" bar lands near the
/// paper's 15.3 K cycles.
pub const GET_BASE: Cycles = Cycles(9000);
/// Cost of copying the value out (1 KiB values).
pub const VALUE_COPY: Cycles = Cycles(600);
/// Extra per-get cost when reading through Aquila mmio: the paper
/// measures RocksDB's get at 18.5 K vs 15.3 K cycles due to increased TLB
/// misses from Aquila's mapping churn (section 6.3).
pub const AQUILA_TLB_SURCHARGE: Cycles = Cycles(3200);
/// Per-get user-space data processing that the paper buckets into
/// Aquila's *cache management* (11.8 K cycles, section 6.3): the block
/// handling that replaces user-cache bookkeeping when reads go through
/// mmio. Charged only under mapping churn (out-of-memory datasets), like
/// the TLB surcharge.
pub const MMIO_DATA_PROC: Cycles = Cycles(11_800);
/// Per-entry scan cost (merge + compare).
pub const SCAN_ENTRY: Cycles = Cycles(150);

/// StoneDB tuning.
#[derive(Debug, Clone)]
pub struct StoneConfig {
    /// Target SST size in pages (RocksDB: 64 MB; scaled default 4 MB).
    pub sst_pages: u64,
    /// Memtable flush threshold in bytes.
    pub memtable_bytes: usize,
    /// L0 file count that triggers compaction into L1.
    pub l0_limit: usize,
    /// Level size ratio.
    pub level_ratio: usize,
    /// Bloom bits per key.
    pub bloom_bits: usize,
    /// Charge the Aquila TLB-pressure surcharge per get. The paper's
    /// 18.5 K-cycle get (vs 15.3 K) comes from TLB misses caused by
    /// eviction-driven mapping churn (section 6.3); datasets that fit in
    /// the cache have no churn, so benches disable this for the
    /// in-memory configurations.
    pub mmio_tlb_pressure: bool,
}

impl Default for StoneConfig {
    fn default() -> Self {
        StoneConfig {
            sst_pages: 1024,
            memtable_bytes: 2 << 20,
            l0_limit: 4,
            level_ratio: 10,
            bloom_bits: 10,
            mmio_tlb_pressure: true,
        }
    }
}

struct Table {
    name: String,
    reader: SstReader,
}

/// The LSM store.
pub struct StoneDb {
    env: DynEnv,
    cfg: StoneConfig,
    mem: Mutex<Memtable>,
    /// `levels[0]` is L0 (newest table first); deeper levels are sorted by
    /// smallest key and non-overlapping.
    levels: Mutex<Vec<Vec<Arc<Table>>>>,
    seq: AtomicU64,
}

impl StoneDb {
    /// Opens an empty store over `env`.
    pub fn new(env: DynEnv, cfg: StoneConfig) -> StoneDb {
        StoneDb {
            env,
            cfg,
            mem: Mutex::new(Memtable::new()),
            levels: Mutex::new(vec![Vec::new()]),
            seq: AtomicU64::new(0),
        }
    }

    /// Table counts per level (diagnostics).
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.lock().iter().map(|l| l.len()).collect()
    }

    /// Total entries across SSTs (excluding the memtable).
    pub fn table_entries(&self) -> u64 {
        self.levels
            .lock()
            .iter()
            .flatten()
            .map(|t| t.reader.meta.entries)
            .sum()
    }

    fn next_name(&self) -> String {
        format!("sst{:08}.sst", self.seq.fetch_add(1, Ordering::Relaxed))
    }

    /// Point lookup.
    pub fn get(&self, ctx: &mut dyn SimCtx, key: &[u8]) -> Option<Vec<u8>> {
        ctx.charge(CostCat::App, GET_BASE);
        if self.cfg.mmio_tlb_pressure && self.env.kind() == EnvKind::AquilaMmio {
            ctx.charge(CostCat::App, AQUILA_TLB_SURCHARGE);
            ctx.charge(CostCat::CacheMgmt, MMIO_DATA_PROC);
        }
        if let Some(v) = self.mem.lock().get(ctx, key) {
            ctx.charge(CostCat::App, VALUE_COPY);
            return Some(v);
        }
        let snapshot: Vec<Vec<Arc<Table>>> = self.levels.lock().clone();
        // L0: newest first, ranges may overlap.
        for t in &snapshot[0] {
            if t.reader.in_range(key) {
                if let Some(v) = t.reader.get(ctx, key) {
                    ctx.charge(CostCat::App, VALUE_COPY);
                    return Some(v);
                }
            }
        }
        // Deeper levels: non-overlapping, binary-search by smallest key.
        for level in &snapshot[1..] {
            let idx = level.partition_point(|t| t.reader.meta.smallest.as_slice() <= key);
            if idx == 0 {
                continue;
            }
            let t = &level[idx - 1];
            if t.reader.in_range(key) {
                if let Some(v) = t.reader.get(ctx, key) {
                    ctx.charge(CostCat::App, VALUE_COPY);
                    return Some(v);
                }
            }
        }
        None
    }

    /// Inserts or overwrites a key, flushing and compacting as needed.
    pub fn put(&self, ctx: &mut dyn SimCtx, key: &[u8], value: &[u8]) {
        let full = {
            let mut mem = self.mem.lock();
            mem.put(ctx, key, value);
            mem.bytes() >= self.cfg.memtable_bytes
        };
        if full {
            self.flush(ctx);
            self.maybe_compact(ctx);
        }
    }

    /// Range scan: visits up to `n` entries with keys `>= start` in order;
    /// returns the number visited.
    pub fn scan(&self, ctx: &mut dyn SimCtx, start: &[u8], n: usize) -> usize {
        let mut merged: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let snapshot: Vec<Vec<Arc<Table>>> = self.levels.lock().clone();
        // Oldest sources first so newer versions overwrite.
        for level in snapshot.iter().skip(1).rev() {
            for t in level {
                let mut taken = 0;
                t.reader.scan_from(ctx, start, |k, v| {
                    merged.insert(k.to_vec(), v.to_vec());
                    taken += 1;
                    taken < n
                });
            }
        }
        for t in snapshot[0].iter().rev() {
            let mut taken = 0;
            t.reader.scan_from(ctx, start, |k, v| {
                merged.insert(k.to_vec(), v.to_vec());
                taken += 1;
                taken < n
            });
        }
        {
            let mem = self.mem.lock();
            for (k, v) in mem.range_from(start).take(n) {
                merged.insert(k.clone(), v.clone());
            }
        }
        let visited = merged.len().min(n);
        ctx.charge(CostCat::App, SCAN_ENTRY * visited as u64);
        visited
    }

    /// Flushes the memtable to new L0 tables.
    pub fn flush(&self, ctx: &mut dyn SimCtx) {
        let entries = self.mem.lock().drain_sorted();
        if entries.is_empty() {
            return;
        }
        let tables = self.write_tables(ctx, entries.into_iter());
        let mut levels = self.levels.lock();
        for t in tables {
            levels[0].insert(0, t);
        }
    }

    /// Writes a sorted entry stream into SST files of the configured size.
    fn write_tables(
        &self,
        ctx: &mut dyn SimCtx,
        entries: impl Iterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Vec<Arc<Table>> {
        let mut out = Vec::new();
        let mut w = SstWriter::new();
        let finish = |ctx: &mut dyn SimCtx, w: &mut SstWriter, out: &mut Vec<Arc<Table>>| {
            if w.entries() == 0 {
                return;
            }
            let writer = std::mem::take(w);
            let name = self.next_name();
            let pages = writer.data_pages() + 16;
            let file = self.env.create(ctx, &name, pages);
            let meta = writer.finish(ctx, &file, self.cfg.bloom_bits);
            out.push(Arc::new(Table {
                name,
                reader: SstReader::from_meta(meta, file),
            }));
        };
        for (k, v) in entries {
            w.add(&k, &v);
            if w.data_pages() + 16 >= self.cfg.sst_pages {
                finish(ctx, &mut w, &mut out);
            }
        }
        finish(ctx, &mut w, &mut out);
        out
    }

    /// Max tables allowed at `level` (1-based depth).
    fn level_budget(&self, level: usize) -> usize {
        self.cfg.l0_limit * self.cfg.level_ratio.pow(level as u32 - 1)
    }

    /// Runs compactions until every level is within budget.
    pub fn maybe_compact(&self, ctx: &mut dyn SimCtx) {
        loop {
            let (level, needs) = {
                let levels = self.levels.lock();
                if levels[0].len() > self.cfg.l0_limit {
                    (0, true)
                } else {
                    let mut found = (0, false);
                    for (i, l) in levels.iter().enumerate().skip(1) {
                        if l.len() > self.level_budget(i) {
                            found = (i, true);
                            break;
                        }
                    }
                    found
                }
            };
            if !needs {
                return;
            }
            self.compact_level(ctx, level);
        }
    }

    /// Merges `level` (all of L0, or the first table of a deeper level)
    /// with the overlapping tables of `level + 1`.
    fn compact_level(&self, ctx: &mut dyn SimCtx, level: usize) {
        let inputs = {
            let mut levels = self.levels.lock();
            if levels.len() <= level + 1 {
                levels.push(Vec::new());
            }
            let upper: Vec<Arc<Table>> = if level == 0 {
                std::mem::take(&mut levels[0])
            } else {
                vec![levels[level].remove(0)]
            };
            let lo = upper
                .iter()
                .map(|t| t.reader.meta.smallest.clone())
                .min()
                .unwrap_or_default();
            let hi = upper
                .iter()
                .map(|t| t.reader.meta.largest.clone())
                .max()
                .unwrap_or_default();
            let below = std::mem::take(&mut levels[level + 1]);
            let (overlap, keep): (Vec<_>, Vec<_>) = below
                .into_iter()
                .partition(|t| !(t.reader.meta.largest < lo || t.reader.meta.smallest > hi));
            levels[level + 1] = keep;
            (upper, overlap)
        };
        let (upper, overlap) = inputs;

        // Merge: oldest first so newer versions overwrite. Precedence:
        // level+1 (oldest) < upper level; within L0, older tables first.
        let mut merged: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for t in overlap.iter().chain(upper.iter().rev()) {
            t.reader.scan_from(ctx, b"", |k, v| {
                merged.insert(k.to_vec(), v.to_vec());
                true
            });
        }
        let new_tables = self.write_tables(ctx, merged.into_iter());

        {
            let mut levels = self.levels.lock();
            let target = &mut levels[level + 1];
            target.extend(new_tables);
            target.sort_by(|a, b| a.reader.meta.smallest.cmp(&b.reader.meta.smallest));
        }
        for t in upper.iter().chain(overlap.iter()) {
            self.env.delete(ctx, &t.name);
        }
    }

    /// Bulk-loads a sorted entry stream directly into L1 (experiment
    /// setup: skips write-path compaction entirely).
    ///
    /// # Panics
    ///
    /// Panics if entries are not sorted by key.
    pub fn bulk_load(
        &self,
        ctx: &mut dyn SimCtx,
        entries: impl Iterator<Item = (Vec<u8>, Vec<u8>)>,
    ) {
        let tables = self.write_tables(ctx, entries);
        let mut levels = self.levels.lock();
        while levels.len() < 2 {
            levels.push(Vec::new());
        }
        levels[1].extend(tables);
        levels[1].sort_by(|a, b| a.reader.meta.smallest.cmp(&b.reader.meta.smallest));
        // Verify the non-overlap invariant bulk loading relies on.
        for w in levels[1].windows(2) {
            assert!(
                w[0].reader.meta.largest < w[1].reader.meta.smallest,
                "bulk_load input must be sorted and unique"
            );
        }
    }
}

impl core::fmt::Debug for StoneDb {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "StoneDb {{ env: {:?}, levels: {:?} }}",
            self.env.kind(),
            self.level_sizes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::DirectIoEnv;
    use aquila_devices::{CallDomain, Entry, PmemAccess, PmemDevice, StorageAccess};
    use aquila_sim::FreeCtx;

    fn small_db() -> StoneDb {
        let pmem = Arc::new(PmemDevice::dram_backed(262_144)); // 1 GiB device.
        let access: Arc<dyn StorageAccess> =
            Arc::new(PmemAccess::new(pmem, Entry::Host(CallDomain::User)));
        let env: DynEnv = Arc::new(DirectIoEnv::new(access, 2048));
        StoneDb::new(
            env,
            StoneConfig {
                sst_pages: 64,
                memtable_bytes: 64 << 10,
                l0_limit: 2,
                level_ratio: 4,
                bloom_bits: 10,
                mmio_tlb_pressure: true,
            },
        )
    }

    fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key{i:08}").into_bytes(),
            format!("value-{i:04}-{}", "x".repeat(100)).into_bytes(),
        )
    }

    #[test]
    fn put_get_small() {
        let db = small_db();
        let mut ctx = FreeCtx::new(1);
        for i in 0..100 {
            let (k, v) = kv(i);
            db.put(&mut ctx, &k, &v);
        }
        for i in 0..100 {
            let (k, v) = kv(i);
            assert_eq!(db.get(&mut ctx, &k), Some(v), "key {i}");
        }
        assert_eq!(db.get(&mut ctx, b"nope"), None);
    }

    #[test]
    fn flush_and_compaction_preserve_data() {
        let db = small_db();
        let mut ctx = FreeCtx::new(1);
        // Enough data to force several flushes and compactions.
        for i in 0..3000u64 {
            let (k, v) = kv(i % 1500); // Overwrites in second half.
            db.put(&mut ctx, &k, &v);
        }
        db.flush(&mut ctx);
        db.maybe_compact(&mut ctx);
        let sizes = db.level_sizes();
        assert!(sizes.len() > 1, "compaction created levels: {sizes:?}");
        assert!(sizes[0] <= 2, "L0 within budget: {sizes:?}");
        for i in 0..1500u64 {
            let (k, v) = kv(i);
            assert_eq!(db.get(&mut ctx, &k), Some(v), "key {i} after compaction");
        }
    }

    #[test]
    fn newest_version_wins() {
        let db = small_db();
        let mut ctx = FreeCtx::new(1);
        let (k, _) = kv(1);
        db.put(&mut ctx, &k, b"old");
        // Push the old version into an SST.
        for i in 100..1100u64 {
            let (k2, v2) = kv(i);
            db.put(&mut ctx, &k2, &v2);
        }
        db.flush(&mut ctx);
        db.put(&mut ctx, &k, b"new");
        assert_eq!(db.get(&mut ctx, &k), Some(b"new".to_vec()));
        db.flush(&mut ctx);
        db.maybe_compact(&mut ctx);
        assert_eq!(db.get(&mut ctx, &k), Some(b"new".to_vec()));
    }

    #[test]
    fn scan_returns_sorted_window() {
        let db = small_db();
        let mut ctx = FreeCtx::new(1);
        for i in 0..500u64 {
            let (k, v) = kv(i);
            db.put(&mut ctx, &k, &v);
        }
        db.flush(&mut ctx);
        let n = db.scan(&mut ctx, b"key00000100", 50);
        assert_eq!(n, 50);
    }

    #[test]
    fn bulk_load_then_read() {
        let db = small_db();
        let mut ctx = FreeCtx::new(1);
        db.bulk_load(&mut ctx, (0..2000u64).map(kv));
        assert_eq!(db.table_entries(), 2000);
        assert!(db.level_sizes()[1] > 1, "multiple L1 tables");
        for i in [0u64, 777, 1999] {
            let (k, v) = kv(i);
            assert_eq!(db.get(&mut ctx, &k), Some(v), "key {i}");
        }
    }

    #[test]
    fn get_cost_includes_base() {
        let db = small_db();
        let mut ctx = FreeCtx::new(1);
        db.bulk_load(&mut ctx, (0..100u64).map(kv));
        let t0 = ctx.now();
        db.get(&mut ctx, b"key00000050").unwrap();
        assert!((ctx.now() - t0).get() >= GET_BASE.get());
    }
}
