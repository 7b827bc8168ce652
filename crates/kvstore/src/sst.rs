//! Static sorted tables (SSTs): RocksDB's on-disk file format, scaled.
//!
//! Layout (page granular):
//!
//! ```text
//! [data block 0] [data block 1] ... [data block N-1]
//! [index pages: fence keys]  [filter pages: bloom]  [footer page]
//! ```
//!
//! The index and filter are read once at open and kept in memory
//! (RocksDB's table cache does the same); data blocks go through the
//! [`Env`](crate::env::Env)'s measured read path on every access.

use std::sync::Arc;

use aquila_sim::{CostCat, Cycles, SimCtx};

use crate::block::{BlockBuilder, BlockReader, BLOCK_SIZE};
use crate::bloom::Bloom;
use crate::env::EnvFile;

/// Cycles to verify a 4 KiB block checksum (CRC32c class).
pub const BLOCK_CRC: Cycles = Cycles(3000);
/// Cycles to parse a block and binary-search it (entry decode + compares).
pub const BLOCK_SEARCH: Cycles = Cycles(1500);
/// Cycles for a bloom-filter probe.
pub const BLOOM_PROBE: Cycles = Cycles(250);
/// Cycles for the in-memory fence-key binary search.
pub const INDEX_SEARCH: Cycles = Cycles(600);

const FOOTER_MAGIC: u64 = 0x5354_4F4E_4553_5354; // "STONESST"

/// Builds an SST from a sorted entry stream, entirely in memory, then
/// flushes it to an env file in large writes.
pub struct SstWriter {
    data_pages: Vec<[u8; BLOCK_SIZE]>,
    fences: Vec<Vec<u8>>,
    bloom_keys: Vec<Vec<u8>>,
    builder: BlockBuilder,
    smallest: Option<Vec<u8>>,
    largest: Option<Vec<u8>>,
    entries: u64,
}

impl Default for SstWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SstWriter {
    /// Creates an empty writer.
    pub fn new() -> SstWriter {
        SstWriter {
            data_pages: Vec::new(),
            fences: Vec::new(),
            bloom_keys: Vec::new(),
            builder: BlockBuilder::new(),
            smallest: None,
            largest: None,
            entries: 0,
        }
    }

    /// Appends an entry (keys must arrive sorted).
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        if !self.builder.fits(key, value) {
            self.cut_block();
        }
        if self.builder.is_empty() {
            self.fences.push(key.to_vec());
        }
        self.builder.add(key, value);
        self.bloom_keys.push(key.to_vec());
        if self.smallest.is_none() {
            self.smallest = Some(key.to_vec());
        }
        self.largest = Some(key.to_vec());
        self.entries += 1;
    }

    fn cut_block(&mut self) {
        if !self.builder.is_empty() {
            self.data_pages.push(self.builder.finish());
        }
    }

    /// Entries appended so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Data pages the file currently needs (not counting metadata).
    pub fn data_pages(&self) -> u64 {
        self.data_pages.len() as u64 + if self.builder.is_empty() { 0 } else { 1 }
    }

    /// Serializes index + filter + footer and writes everything to
    /// `file`, returning the reader metadata.
    ///
    /// # Panics
    ///
    /// Panics if the file is too small.
    pub fn finish(
        mut self,
        ctx: &mut dyn SimCtx,
        file: &Arc<dyn EnvFile>,
        bloom_bits_per_key: usize,
    ) -> SstMeta {
        self.cut_block();
        let n_blocks = self.data_pages.len() as u64;

        // Index: count + (klen, key)*.
        let mut index = Vec::new();
        index.extend_from_slice(&(self.fences.len() as u32).to_le_bytes());
        for f in &self.fences {
            index.extend_from_slice(&(f.len() as u16).to_le_bytes());
            index.extend_from_slice(f);
        }
        // Filter.
        let mut bloom = Bloom::new(self.bloom_keys.len(), bloom_bits_per_key);
        for k in &self.bloom_keys {
            bloom.insert(k);
        }
        let filter = bloom.to_bytes();

        let index_pages = (index.len() as u64).div_ceil(BLOCK_SIZE as u64).max(1);
        let filter_pages = (filter.len() as u64).div_ceil(BLOCK_SIZE as u64).max(1);
        let total = n_blocks + index_pages + filter_pages + 1;
        assert!(
            total <= file.len_pages(),
            "SST needs {total} pages, file has {}",
            file.len_pages()
        );

        // Footer.
        let smallest = self.smallest.clone().unwrap_or_default();
        let largest = self.largest.clone().unwrap_or_default();
        let mut footer = Vec::new();
        footer.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
        footer.extend_from_slice(&n_blocks.to_le_bytes());
        footer.extend_from_slice(&index_pages.to_le_bytes());
        footer.extend_from_slice(&filter_pages.to_le_bytes());
        footer.extend_from_slice(&self.entries.to_le_bytes());
        footer.extend_from_slice(&(smallest.len() as u16).to_le_bytes());
        footer.extend_from_slice(&smallest);
        footer.extend_from_slice(&(largest.len() as u16).to_le_bytes());
        footer.extend_from_slice(&largest);

        // Flush: data in large chunks (compaction-style 256 KiB writes),
        // then metadata.
        const CHUNK_PAGES: usize = 64;
        let mut page_no = 0u64;
        for chunk in self.data_pages.chunks(CHUNK_PAGES) {
            let mut buf = Vec::with_capacity(chunk.len() * BLOCK_SIZE);
            for p in chunk {
                buf.extend_from_slice(p);
            }
            file.write_pages(ctx, page_no, &buf);
            page_no += chunk.len() as u64;
        }
        let mut meta_buf = vec![0u8; ((index_pages + filter_pages) * BLOCK_SIZE as u64) as usize];
        meta_buf[..index.len()].copy_from_slice(&index);
        let f_off = (index_pages * BLOCK_SIZE as u64) as usize;
        meta_buf[f_off..f_off + filter.len()].copy_from_slice(&filter);
        file.write_pages(ctx, n_blocks, &meta_buf);
        // The footer lives at the file's last page so readers can find it
        // without any prior metadata.
        let mut foot_page = vec![0u8; BLOCK_SIZE];
        foot_page[..footer.len()].copy_from_slice(&footer);
        file.write_pages(ctx, file.len_pages() - 1, &foot_page);

        SstMeta {
            n_blocks,
            entries: self.entries,
            fences: self.fences,
            bloom,
            smallest,
            largest,
        }
    }
}

/// In-memory SST metadata (index + filter), as RocksDB's table cache
/// keeps after open.
#[derive(Debug, Clone)]
pub struct SstMeta {
    /// Number of data blocks.
    pub n_blocks: u64,
    /// Total entries.
    pub entries: u64,
    /// First key of each data block.
    pub fences: Vec<Vec<u8>>,
    /// The bloom filter.
    pub bloom: Bloom,
    /// Smallest key in the file.
    pub smallest: Vec<u8>,
    /// Largest key in the file.
    pub largest: Vec<u8>,
}

/// An open SST: metadata plus the env file handle for data-block reads.
pub struct SstReader {
    /// Table metadata.
    pub meta: SstMeta,
    file: Arc<dyn EnvFile>,
}

impl SstReader {
    /// Wraps writer output (create-then-read path; no device I/O).
    pub fn from_meta(meta: SstMeta, file: Arc<dyn EnvFile>) -> SstReader {
        SstReader { meta, file }
    }

    /// Opens an SST by reading its footer, index, and filter (recovery
    /// path; charged device reads).
    pub fn open(ctx: &mut dyn SimCtx, file: Arc<dyn EnvFile>) -> Option<SstReader> {
        // The footer lives at the last page of the file.
        let mut page = vec![0u8; BLOCK_SIZE];
        let len = file.len_pages();
        file.read_page(ctx, len - 1, &mut page);
        if page[0..8] != FOOTER_MAGIC.to_le_bytes() {
            return None;
        }
        let mut pos = 8usize;
        let rd_u64 = |page: &[u8], pos: &mut usize| {
            let v = u64::from_le_bytes(page[*pos..*pos + 8].try_into().ok().unwrap_or_default());
            *pos += 8;
            v
        };
        let n_blocks = rd_u64(&page, &mut pos);
        let index_pages = rd_u64(&page, &mut pos);
        let filter_pages = rd_u64(&page, &mut pos);
        let entries = rd_u64(&page, &mut pos);
        let klen = u16::from_le_bytes(page[pos..pos + 2].try_into().ok()?) as usize;
        pos += 2;
        let smallest = page[pos..pos + klen].to_vec();
        pos += klen;
        let klen = u16::from_le_bytes(page[pos..pos + 2].try_into().ok()?) as usize;
        pos += 2;
        let largest = page[pos..pos + klen].to_vec();

        // Index pages.
        let mut index = vec![0u8; (index_pages * BLOCK_SIZE as u64) as usize];
        for i in 0..index_pages {
            file.read_page(
                ctx,
                n_blocks + i,
                &mut index
                    [(i * BLOCK_SIZE as u64) as usize..((i + 1) * BLOCK_SIZE as u64) as usize],
            );
        }
        let nf = u32::from_le_bytes(index[0..4].try_into().ok()?) as usize;
        let mut fences = Vec::with_capacity(nf);
        let mut ip = 4usize;
        for _ in 0..nf {
            let kl = u16::from_le_bytes(index[ip..ip + 2].try_into().ok()?) as usize;
            ip += 2;
            fences.push(index[ip..ip + kl].to_vec());
            ip += kl;
        }
        // Filter pages.
        let mut filter = vec![0u8; (filter_pages * BLOCK_SIZE as u64) as usize];
        for i in 0..filter_pages {
            file.read_page(
                ctx,
                n_blocks + index_pages + i,
                &mut filter
                    [(i * BLOCK_SIZE as u64) as usize..((i + 1) * BLOCK_SIZE as u64) as usize],
            );
        }
        let bloom = Bloom::from_bytes(&filter)?;
        Some(SstReader {
            meta: SstMeta {
                n_blocks,
                entries,
                fences,
                bloom,
                smallest,
                largest,
            },
            file,
        })
    }

    /// Whether `key` is within this table's key range.
    pub fn in_range(&self, key: &[u8]) -> bool {
        key >= self.meta.smallest.as_slice() && key <= self.meta.largest.as_slice()
    }

    /// Point lookup: bloom -> fence search -> one data-block read.
    pub fn get(&self, ctx: &mut dyn SimCtx, key: &[u8]) -> Option<Vec<u8>> {
        ctx.charge(CostCat::App, BLOOM_PROBE);
        if !self.meta.bloom.may_contain(key) {
            return None;
        }
        ctx.charge(CostCat::App, INDEX_SEARCH);
        let block = self.block_of(key)?;
        let mut page = vec![0u8; BLOCK_SIZE];
        self.file.read_page(ctx, block, &mut page);
        ctx.charge(CostCat::App, BLOCK_CRC + BLOCK_SEARCH);
        let reader = BlockReader::new(&page).ok()?;
        reader.get(key).map(|v| v.to_vec())
    }

    fn block_of(&self, key: &[u8]) -> Option<u64> {
        if self.meta.fences.is_empty() {
            return None;
        }
        // Last fence <= key.
        let idx = self.meta.fences.partition_point(|f| f.as_slice() <= key);
        if idx == 0 {
            return None;
        }
        Some((idx - 1) as u64)
    }

    /// Sequentially scans entries with keys `>= from`, calling `f` until
    /// it returns `false`. Used by range scans and compaction.
    pub fn scan_from(
        &self,
        ctx: &mut dyn SimCtx,
        from: &[u8],
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) {
        let start_block = if self.meta.fences.is_empty() {
            return;
        } else {
            self.meta
                .fences
                .partition_point(|fk| fk.as_slice() <= from)
                .saturating_sub(1) as u64
        };
        let mut page = vec![0u8; BLOCK_SIZE];
        for b in start_block..self.meta.n_blocks {
            self.file.read_page(ctx, b, &mut page);
            ctx.charge(CostCat::App, BLOCK_CRC);
            let reader = match BlockReader::new(&page) {
                Ok(r) => r,
                Err(_) => return,
            };
            for (k, v) in reader.iter_from(from) {
                if !f(k, v) {
                    return;
                }
            }
        }
    }
}

impl core::fmt::Debug for SstReader {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "SstReader {{ blocks: {}, entries: {} }}",
            self.meta.n_blocks, self.meta.entries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{DirectIoEnv, Env};
    use aquila_devices::{CallDomain, Entry, PmemAccess, PmemDevice, StorageAccess};
    use aquila_sim::FreeCtx;

    fn env() -> DirectIoEnv {
        let pmem = Arc::new(PmemDevice::dram_backed(65536));
        let access: Arc<dyn StorageAccess> =
            Arc::new(PmemAccess::new(pmem, Entry::Host(CallDomain::User)));
        DirectIoEnv::new(access, 4096)
    }

    fn build_table(
        ctx: &mut FreeCtx,
        env: &DirectIoEnv,
        n: u64,
        name: &str,
    ) -> (SstReader, Arc<dyn EnvFile>) {
        let mut w = SstWriter::new();
        for i in 0..n {
            let k = format!("key{i:08}");
            let v = format!("value-{i}");
            w.add(k.as_bytes(), v.as_bytes());
        }
        let pages = w.data_pages() + 16;
        let file = env.create(ctx, name, pages);
        let meta = w.finish(ctx, &file, 10);
        (SstReader::from_meta(meta, Arc::clone(&file)), file)
    }

    #[test]
    fn write_then_get() {
        let mut ctx = FreeCtx::new(1);
        let env = env();
        let (r, _) = build_table(&mut ctx, &env, 1000, "a.sst");
        assert_eq!(r.meta.entries, 1000);
        assert!(r.meta.n_blocks > 1);
        for i in [0u64, 1, 499, 998, 999] {
            let k = format!("key{i:08}");
            assert_eq!(
                r.get(&mut ctx, k.as_bytes()),
                Some(format!("value-{i}").into_bytes()),
                "key {i}"
            );
        }
        assert_eq!(r.get(&mut ctx, b"key99999999"), None);
        assert_eq!(r.get(&mut ctx, b"aaa"), None);
    }

    #[test]
    fn range_check() {
        let mut ctx = FreeCtx::new(1);
        let env = env();
        let (r, _) = build_table(&mut ctx, &env, 100, "b.sst");
        assert!(r.in_range(b"key00000050"));
        assert!(!r.in_range(b"zzz"));
        assert!(!r.in_range(b"aaa"));
    }

    #[test]
    fn reopen_from_device() {
        let mut ctx = FreeCtx::new(1);
        let env = env();
        let (_, file) = build_table(&mut ctx, &env, 500, "c.sst");
        let r2 = SstReader::open(&mut ctx, file).expect("recover SST");
        assert_eq!(r2.meta.entries, 500);
        let k = format!("key{:08}", 123);
        assert_eq!(r2.get(&mut ctx, k.as_bytes()), Some(b"value-123".to_vec()));
    }

    #[test]
    fn scan_visits_in_order() {
        let mut ctx = FreeCtx::new(1);
        let env = env();
        let (r, _) = build_table(&mut ctx, &env, 300, "d.sst");
        let mut seen = Vec::new();
        r.scan_from(&mut ctx, b"key00000100", |k, _| {
            seen.push(k.to_vec());
            seen.len() < 20
        });
        assert_eq!(seen.len(), 20);
        assert_eq!(seen[0], b"key00000100".to_vec());
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bloom_skips_absent_keys_without_io() {
        let mut ctx = FreeCtx::new(1);
        let env = env();
        let (r, _) = build_table(&mut ctx, &env, 1000, "e.sst");
        let reads_before = ctx.stats.device_reads + {
            let (h, m) = env.cache().stats();
            h + m
        };
        let mut blocked = 0;
        for i in 5000..5100u64 {
            let k = format!("key{i:08}");
            if r.get(&mut ctx, k.as_bytes()).is_none() {
                blocked += 1;
            }
        }
        assert_eq!(blocked, 100);
        let reads_after = ctx.stats.device_reads + {
            let (h, m) = env.cache().stats();
            h + m
        };
        // Nearly all misses were answered by the bloom filter alone.
        assert!(
            reads_after - reads_before < 10,
            "bloom should avoid block reads: {} extra",
            reads_after - reads_before
        );
    }

    #[test]
    fn get_charges_crc_and_search() {
        let mut ctx = FreeCtx::new(1);
        let env = env();
        let (r, _) = build_table(&mut ctx, &env, 100, "f.sst");
        let app0 = ctx.breakdown.get(CostCat::App);
        r.get(&mut ctx, b"key00000050").unwrap();
        let app = ctx.breakdown.get(CostCat::App) - app0;
        assert!(app >= BLOOM_PROBE + INDEX_SEARCH + BLOCK_CRC + BLOCK_SEARCH);
    }
}
