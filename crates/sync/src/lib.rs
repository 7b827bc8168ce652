//! Minimal synchronization primitives for the Aquila workspace.
//!
//! The simulation previously pulled in `parking_lot` for panic-free
//! mutexes and reader-writer locks. The build must work fully offline,
//! so this crate provides the same narrow API over `std::sync`:
//!
//! - [`Mutex`] / [`RwLock`] — `lock()`/`read()`/`write()` return guards
//!   directly (no poisoning: a panicked holder propagates the inner
//!   value rather than wedging every later run of the simulation);
//! - [`DetMap`] / [`DetSet`] — deterministic ordered replacements for
//!   `std::collections::HashMap`/`HashSet` in sim-path crates;
//! - [`crc32c_sectors`] — the per-sector CRC-32C of one 4 KiB page, the
//!   mirror's checksum — and [`crc32c`] of any byte string, the LSM
//!   block checksum. Both run one SSE4.2 kernel, whose call holds the
//!   workspace's only `unsafe` block; every other crate root forbids
//!   `unsafe` outright.
//!
//! Everything here is *host-time* synchronization: it protects the
//! simulator's own shared state and never charges virtual cycles. Lock
//! contention that the paper models (tree locks, IPIs) lives in
//! `aquila_sim::resource` instead.

#![deny(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
///
/// Poisoning is deliberately ignored: the simulation is deterministic,
/// so a panic under the lock is a bug to fix, not a state to propagate.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// A reader-writer lock whose `read()`/`write()` return guards directly.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new lock holding `value`.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.0.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.0.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.try_read() {
            Ok(g) => f.debug_tuple("RwLock").field(&*g).finish(),
            Err(TryLockError::Poisoned(p)) => {
                f.debug_tuple("RwLock").field(&*p.into_inner()).finish()
            }
            Err(TryLockError::WouldBlock) => f.write_str("RwLock(<locked>)"),
        }
    }
}

/// A deterministic map: ordered iteration, no hash-seed dependence.
///
/// The DES is bit-deterministic only if every iteration that feeds the
/// simulation (or its trace/metrics observers) visits elements in a
/// reproducible order. `std::collections::HashMap` randomizes its seed
/// per process, so its iteration order differs run to run; `DetMap` is a
/// `BTreeMap` newtype that keeps the familiar map API (via `Deref`) while
/// making iteration order a pure function of the keys. The `AQ001`
/// determinism lint (`cargo run -p aquila-analysis -- lint`) enforces its
/// use in sim-path crates.
pub struct DetMap<K: Ord, V>(BTreeMap<K, V>);

impl<K: Ord, V> DetMap<K, V> {
    /// Creates an empty map.
    pub const fn new() -> DetMap<K, V> {
        DetMap(BTreeMap::new())
    }

    /// Consumes the wrapper, returning the underlying ordered map.
    pub fn into_inner(self) -> BTreeMap<K, V> {
        self.0
    }
}

impl<K: Ord, V> Default for DetMap<K, V> {
    fn default() -> DetMap<K, V> {
        DetMap::new()
    }
}

impl<K: Ord + Clone, V: Clone> Clone for DetMap<K, V> {
    fn clone(&self) -> DetMap<K, V> {
        DetMap(self.0.clone())
    }
}

impl<K: Ord, V> Deref for DetMap<K, V> {
    type Target = BTreeMap<K, V>;
    fn deref(&self) -> &BTreeMap<K, V> {
        &self.0
    }
}

impl<K: Ord, V> DerefMut for DetMap<K, V> {
    fn deref_mut(&mut self) -> &mut BTreeMap<K, V> {
        &mut self.0
    }
}

impl<K: Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for DetMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> DetMap<K, V> {
        DetMap(BTreeMap::from_iter(iter))
    }
}

impl<K: Ord, V> Extend<(K, V)> for DetMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        self.0.extend(iter)
    }
}

impl<K: Ord, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::collections::btree_map::IntoIter<K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::collections::btree_map::Iter<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a mut DetMap<K, V> {
    type Item = (&'a K, &'a mut V);
    type IntoIter = std::collections::btree_map::IterMut<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter_mut()
    }
}

/// A deterministic set: ordered iteration, no hash-seed dependence.
///
/// `std::collections::HashSet` counterpart of [`DetMap`]; see there for
/// why sim-path crates must not iterate hash-ordered collections.
pub struct DetSet<T: Ord>(BTreeSet<T>);

impl<T: Ord> DetSet<T> {
    /// Creates an empty set.
    pub const fn new() -> DetSet<T> {
        DetSet(BTreeSet::new())
    }

    /// Consumes the wrapper, returning the underlying ordered set.
    pub fn into_inner(self) -> BTreeSet<T> {
        self.0
    }
}

impl<T: Ord> Default for DetSet<T> {
    fn default() -> DetSet<T> {
        DetSet::new()
    }
}

impl<T: Ord + Clone> Clone for DetSet<T> {
    fn clone(&self) -> DetSet<T> {
        DetSet(self.0.clone())
    }
}

impl<T: Ord> Deref for DetSet<T> {
    type Target = BTreeSet<T>;
    fn deref(&self) -> &BTreeSet<T> {
        &self.0
    }
}

impl<T: Ord> DerefMut for DetSet<T> {
    fn deref_mut(&mut self) -> &mut BTreeSet<T> {
        &mut self.0
    }
}

impl<T: Ord + fmt::Debug> fmt::Debug for DetSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: Ord> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> DetSet<T> {
        DetSet(BTreeSet::from_iter(iter))
    }
}

impl<T: Ord> Extend<T> for DetSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.0.extend(iter)
    }
}

impl<T: Ord> IntoIterator for DetSet<T> {
    type Item = T;
    type IntoIter = std::collections::btree_set::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a, T: Ord> IntoIterator for &'a DetSet<T> {
    type Item = &'a T;
    type IntoIter = std::collections::btree_set::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Bytes per checksummed sector.
const SECTOR: usize = 512;

/// Bytes per page handed to [`crc32c_sectors`] (4 KiB).
const PAGE: usize = 4096;

/// Sectors per page: the length of [`crc32c_sectors`]'s result.
const SECTORS: usize = PAGE / SECTOR;

/// CRC-32C slicing-by-8 tables (Castagnoli, reflected polynomial
/// 0x82F63B78), built at compile time so the crate stays
/// dependency-free. `T[0]` is the classic bytewise table; `T[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight table
/// lookups fold eight input bytes at once.
const CRC32C_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32C of `data` (reflected, initial value and final XOR
/// `0xFFFF_FFFF`), portable slicing-by-8: eight bytes per step, the
/// tail bytewise.
fn crc32c_portable(data: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The portable kernel: each of the `N` equal lanes of `data` through
/// slicing-by-8 in turn.
fn lanes_portable<const N: usize>(data: &[u8]) -> [u32; N] {
    let lane = data.len() / N;
    std::array::from_fn(|l| crc32c_portable(&data[l * lane..(l + 1) * lane]))
}

/// The SSE4.2 kernel: the `N` equal lanes of `data` advance together,
/// eight bytes at a time, then their tails a byte at a time. With
/// several lanes, independent `crc32` chains hide the instruction's
/// three-cycle latency behind its one-per-cycle throughput.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn lanes_sse42<const N: usize>(data: &[u8]) -> [u32; N] {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let lane = data.len() / N;
    let words = lane - lane % 8;
    let mut crc = [u64::from(u32::MAX); N];
    for w in (0..words).step_by(8) {
        for (l, c) in crc.iter_mut().enumerate() {
            let at = l * lane + w;
            let word = u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
            *c = _mm_crc32_u64(*c, word);
        }
    }
    for b in words..lane {
        for (l, c) in crc.iter_mut().enumerate() {
            *c = u64::from(_mm_crc32_u8(*c as u32, data[l * lane + b]));
        }
    }
    crc.map(|c| !(c as u32))
}

/// CRC-32C of each of the `N` equal lanes of `data`: the SSE4.2 kernel
/// where the CPU has it, else the portable one, with identical results.
fn crc32c_lanes<const N: usize>(data: &[u8]) -> [u32; N] {
    assert_eq!(data.len() % N, 0, "lanes must be equal");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `lanes_sse42` only requires SSE4.2, and this CPU has
        // it: the run-time detection just above checked.
        #[allow(unsafe_code)]
        let sums = unsafe { lanes_sse42(data) };
        return sums;
    }
    lanes_portable(data)
}

/// CRC-32C (Castagnoli) of `data`: the SSE4.2 `crc32` instruction on
/// x86-64 CPUs that have it, else portable slicing-by-8, with identical
/// results. Host time only, like [`crc32c_sectors`].
pub fn crc32c(data: &[u8]) -> u32 {
    let [crc] = crc32c_lanes::<1>(data);
    crc
}

/// CRC-32C (Castagnoli) of each 512-byte sector of one 4 KiB page, in
/// one pass over the page.
///
/// The storage integrity layer's per-sector checksum. At a sector's
/// length CRC-32C has Hamming distance 6, so it detects one to five
/// flipped bits anywhere in a sector; its polynomial has an even number
/// of terms, so it detects any odd number of flips; and it detects
/// every burst error up to 32 bits. On x86-64 CPUs with
/// SSE4.2 the `crc32` instruction computes it; elsewhere a portable
/// slicing-by-8 table does, with identical results. Host time only: no
/// caller charges these cycles to the simulation.
///
/// # Panics
///
/// If `page` is not exactly 4096 bytes long.
pub fn crc32c_sectors(page: &[u8]) -> [u32; SECTORS] {
    assert_eq!(page.len(), PAGE, "crc32c_sectors takes one 4 KiB page");
    crc32c_lanes(page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a, *b);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn lock_survives_panicked_holder() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 7, "no poisoning");
    }

    #[test]
    fn detmap_iterates_in_key_order() {
        let mut m = DetMap::new();
        for k in [9u64, 3, 7, 1, 5] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u64> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
        *m.entry(3).or_insert(0) += 1;
        assert_eq!(m[&3], 31);
        m.retain(|&k, _| k > 4);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn detset_iterates_in_order() {
        let s: DetSet<i32> = [4, 2, 8, 2].into_iter().collect();
        let v: Vec<i32> = s.iter().copied().collect();
        assert_eq!(v, vec![2, 4, 8]);
    }

    /// Bit-at-a-time CRC-32C, straight from the polynomial: the
    /// reference both kernels must match.
    fn crc32c_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0x82F6_3B78
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// `len` seeded pseudo-random bytes (xorshift32).
    fn random_bytes(seed: u32, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc32c_matches_check_vectors() {
        // The CRC-32C check value ("123456789" -> 0xE3069283).
        assert_eq!(crc32c_portable(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_bitwise(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_portable(b""), 0);
        // RFC 3720 B.4: 32 bytes of zeros.
        assert_eq!(crc32c_portable(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(
            crc32c_sectors(&[0u8; PAGE]),
            [crc32c_bitwise(&[0u8; SECTOR]); 8]
        );
    }

    #[test]
    fn crc32c_single_bit_flip_changes_only_its_own_sector() {
        let mut page = random_bytes(0xC0FFEE, PAGE);
        let clean = crc32c_sectors(&page);
        for bit in 0..PAGE * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            let sums = crc32c_sectors(&page);
            page[bit / 8] ^= 1 << (bit % 8);
            let hit = bit / 8 / SECTOR;
            for s in 0..SECTORS {
                if s == hit {
                    assert_ne!(sums[s], clean[s], "flip at bit {bit} undetected");
                } else {
                    assert_eq!(sums[s], clean[s], "flip at bit {bit} moved sector {s}");
                }
            }
        }
        assert_eq!(crc32c_sectors(&page), clean);
    }

    #[test]
    fn crc32c_kernels_match_the_bitwise_reference() {
        // On x86-64 with SSE4.2 `crc32c_sectors` is the hardware kernel;
        // the portable kernel is checked against the same reference.
        for seed in 1..=16u32 {
            // One spare byte on each side: the page is also taken at
            // an odd offset, so neither kernel may assume alignment.
            let buf = random_bytes(seed.wrapping_mul(0x9E37_79B9), PAGE + 9);
            for offset in [0usize, 1, 3, 8, 9] {
                let page: &[u8; PAGE] = buf[offset..offset + PAGE].try_into().unwrap();
                let reference: [u32; SECTORS] =
                    std::array::from_fn(|s| crc32c_bitwise(&page[s * SECTOR..(s + 1) * SECTOR]));
                assert_eq!(
                    crc32c_sectors(page),
                    reference,
                    "seed {seed} offset {offset}"
                );
                assert_eq!(
                    lanes_portable::<SECTORS>(page),
                    reference,
                    "seed {seed} offset {offset}"
                );
            }
        }
        // Both kernels against the reference at every length and
        // alignment up to two words past a sector: slicing-by-8
        // directly, and `crc32c` (on x86-64 with SSE4.2, one lane of the
        // hardware kernel with its bytewise tail).
        let buf = random_bytes(0x5EED, SECTOR + 24);
        for offset in 0..8 {
            for len in 0..=SECTOR + 16 {
                let data = &buf[offset..offset + len];
                let reference = crc32c_bitwise(data);
                assert_eq!(
                    crc32c_portable(data),
                    reference,
                    "offset {offset} len {len}"
                );
                assert_eq!(crc32c(data), reference, "offset {offset} len {len}");
            }
        }
    }
}
