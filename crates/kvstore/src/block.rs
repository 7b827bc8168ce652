//! SST data blocks: 4 KiB sorted key-value containers.
//!
//! Encoding: a little-endian `u16` entry count at offset 0, then packed
//! entries `u16 klen | u16 vlen | key | value`. Entries are sorted by key;
//! readers binary-search via a rebuilt offset table. A CRC-32C of the
//! rest of the page, as in RocksDB, sits in its last 4 bytes; the cost
//! model charges checksum verification per block read.

/// Block payload size (one page).
pub const BLOCK_SIZE: usize = 4096;
/// Bytes reserved for the entry count header.
const HDR: usize = 2;
/// Bytes reserved at the block tail for the checksum.
const CSUM: usize = 4;

/// Builds sorted data blocks from an ordered entry stream.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    count: u16,
    first_key: Option<Vec<u8>>,
    last_key: Option<Vec<u8>>,
}

impl BlockBuilder {
    /// Creates an empty builder.
    pub fn new() -> BlockBuilder {
        BlockBuilder::default()
    }

    /// Whether `key`/`value` fits in the current block.
    pub fn fits(&self, key: &[u8], value: &[u8]) -> bool {
        HDR + self.buf.len() + 4 + key.len() + value.len() + CSUM <= BLOCK_SIZE
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics if the entry does not fit or keys are not appended in
    /// non-decreasing order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        assert!(self.fits(key, value), "entry does not fit in block");
        if let Some(last) = &self.last_key {
            assert!(key >= last.as_slice(), "keys must be sorted");
        }
        self.buf
            .extend_from_slice(&(key.len() as u16).to_le_bytes());
        self.buf
            .extend_from_slice(&(value.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(key);
        self.buf.extend_from_slice(value);
        self.count += 1;
        if self.first_key.is_none() {
            self.first_key = Some(key.to_vec());
        }
        self.last_key = Some(key.to_vec());
    }

    /// Entries added so far.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Whether no entries were added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// First key in the block, if any.
    pub fn first_key(&self) -> Option<&[u8]> {
        self.first_key.as_deref()
    }

    /// Finalizes into a checksummed 4 KiB page, resetting the builder.
    pub fn finish(&mut self) -> [u8; BLOCK_SIZE] {
        let mut page = [0u8; BLOCK_SIZE];
        page[0..2].copy_from_slice(&self.count.to_le_bytes());
        page[HDR..HDR + self.buf.len()].copy_from_slice(&self.buf);
        let csum = checksum(&page[..BLOCK_SIZE - CSUM]);
        page[BLOCK_SIZE - CSUM..].copy_from_slice(&csum.to_le_bytes());
        self.buf.clear();
        self.count = 0;
        self.first_key = None;
        self.last_key = None;
        page
    }
}

/// The block checksum: CRC-32C (Castagnoli), as RocksDB uses.
pub fn checksum(data: &[u8]) -> u32 {
    aquila_sync::crc32c(data)
}

/// Errors from block decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// Checksum mismatch (corruption).
    BadChecksum,
    /// Malformed entry encoding.
    Corrupt,
}

/// A decoded view over a data block.
pub struct BlockReader<'a> {
    data: &'a [u8],
    offsets: Vec<usize>,
}

impl core::fmt::Debug for BlockReader<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "BlockReader {{ entries: {} }}", self.offsets.len())
    }
}

impl<'a> BlockReader<'a> {
    /// Verifies the checksum and indexes the entries.
    pub fn new(page: &'a [u8]) -> Result<BlockReader<'a>, BlockError> {
        if page.len() != BLOCK_SIZE {
            return Err(BlockError::Corrupt);
        }
        let want = u32::from_le_bytes(page[BLOCK_SIZE - CSUM..].try_into().expect("4 bytes"));
        if checksum(&page[..BLOCK_SIZE - CSUM]) != want {
            return Err(BlockError::BadChecksum);
        }
        let count = u16::from_le_bytes(page[0..2].try_into().expect("2 bytes")) as usize;
        let mut offsets = Vec::with_capacity(count);
        let mut pos = HDR;
        for _ in 0..count {
            if pos + 4 > BLOCK_SIZE - CSUM {
                return Err(BlockError::Corrupt);
            }
            offsets.push(pos);
            let klen = u16::from_le_bytes(page[pos..pos + 2].try_into().expect("2 bytes")) as usize;
            let vlen =
                u16::from_le_bytes(page[pos + 2..pos + 4].try_into().expect("2 bytes")) as usize;
            pos += 4 + klen + vlen;
            if pos > BLOCK_SIZE - CSUM {
                return Err(BlockError::Corrupt);
            }
        }
        Ok(BlockReader {
            data: page,
            offsets,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    fn entry(&self, i: usize) -> (&'a [u8], &'a [u8]) {
        let pos = self.offsets[i];
        let klen =
            u16::from_le_bytes(self.data[pos..pos + 2].try_into().expect("2 bytes")) as usize;
        let vlen =
            u16::from_le_bytes(self.data[pos + 2..pos + 4].try_into().expect("2 bytes")) as usize;
        let k = &self.data[pos + 4..pos + 4 + klen];
        let v = &self.data[pos + 4 + klen..pos + 4 + klen + vlen];
        (k, v)
    }

    /// Binary-searches for `key`; returns its value if present.
    pub fn get(&self, key: &[u8]) -> Option<&'a [u8]> {
        let mut lo = 0usize;
        let mut hi = self.offsets.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (k, v) = self.entry(mid);
            match k.cmp(key) {
                core::cmp::Ordering::Equal => return Some(v),
                core::cmp::Ordering::Less => lo = mid + 1,
                core::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }

    /// Iterates entries in key order starting at the first key `>= from`
    /// (all entries when `from` is empty).
    pub fn iter_from(&self, from: &[u8]) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + '_ {
        let start = self.offsets.partition_point(|&pos| {
            let klen =
                u16::from_le_bytes(self.data[pos..pos + 2].try_into().expect("2 bytes")) as usize;
            &self.data[pos + 4..pos + 4 + klen] < from
        });
        (start..self.offsets.len()).map(move |i| self.entry(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(entries: &[(&[u8], &[u8])]) -> [u8; BLOCK_SIZE] {
        let mut b = BlockBuilder::new();
        for (k, v) in entries {
            b.add(k, v);
        }
        b.finish()
    }

    #[test]
    fn build_and_search() {
        let page = build(&[(b"apple", b"1"), (b"banana", b"2"), (b"cherry", b"3")]);
        let r = BlockReader::new(&page).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(b"banana"), Some(&b"2"[..]));
        assert_eq!(r.get(b"apple"), Some(&b"1"[..]));
        assert_eq!(r.get(b"cherry"), Some(&b"3"[..]));
        assert_eq!(r.get(b"durian"), None);
        assert_eq!(r.get(b"aaa"), None);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut page = build(&[(b"k", b"v")]);
        page[100] ^= 0xFF;
        assert_eq!(
            BlockReader::new(&page).unwrap_err(),
            BlockError::BadChecksum
        );
    }

    #[test]
    fn fits_respects_capacity() {
        let mut b = BlockBuilder::new();
        let big = vec![0u8; 2048];
        assert!(b.fits(b"k1", &big));
        b.add(b"k1", &big);
        assert!(!b.fits(b"k2", &big), "second 2 KB entry cannot fit");
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_keys_panic() {
        let mut b = BlockBuilder::new();
        b.add(b"b", b"1");
        b.add(b"a", b"2");
    }

    #[test]
    fn builder_resets_after_finish() {
        let mut b = BlockBuilder::new();
        b.add(b"x", b"1");
        let _ = b.finish();
        assert!(b.is_empty());
        assert!(b.first_key().is_none());
        b.add(b"a", b"2"); // No sorted-order panic: state was reset.
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn iter_from_starts_at_bound() {
        let page = build(&[(b"a", b"1"), (b"c", b"2"), (b"e", b"3")]);
        let r = BlockReader::new(&page).unwrap();
        let keys: Vec<&[u8]> = r.iter_from(b"b").map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&b"c"[..], &b"e"[..]]);
        let all: Vec<&[u8]> = r.iter_from(b"").map(|(k, _)| k).collect();
        assert_eq!(all.len(), 3);
        let none: Vec<&[u8]> = r.iter_from(b"z").map(|(k, _)| k).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn empty_block_roundtrip() {
        let mut b = BlockBuilder::new();
        let page = b.finish();
        let r = BlockReader::new(&page).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.get(b"anything"), None);
    }

    #[test]
    fn full_block_of_kv_pairs() {
        // 1 KiB values, 30 B keys: ~3 entries per 4 KiB block (the
        // paper's YCSB shape).
        let mut b = BlockBuilder::new();
        let v = vec![7u8; 1024];
        let mut n = 0;
        loop {
            let k = format!("user{n:026}");
            if !b.fits(k.as_bytes(), &v) {
                break;
            }
            b.add(k.as_bytes(), &v);
            n += 1;
        }
        assert_eq!(n, 3, "expected 3 x (30 B + 1 KiB) entries per block");
        let page = b.finish();
        let r = BlockReader::new(&page).unwrap();
        assert_eq!(
            r.get(b"user00000000000000000000000001").map(|v| v.len()),
            Some(1024)
        );
    }
}
