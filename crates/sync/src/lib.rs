//! Single-host-thread state and deterministic collections for the
//! Aquila workspace.
//!
//! The simulator steps every virtual core from one host thread
//! (`aquila_sim::engine`), so the state it shares between simulated
//! cores needs no host synchronization, only a guard against the host
//! thread changing. This crate provides:
//!
//! - [`Mutex`] / [`RwLock`] — `lock()`/`read()`/`write()` return guards
//!   directly, as `std::sync`'s do, but each lock is a cell owned by the
//!   host thread that created it. Taking it compares the caller's thread
//!   tag with the owner's and flips a plain borrow flag: no atomic
//!   instruction, no waiting. A lock taken from any other host thread
//!   panics, and so does a re-entrant lock (which would deadlock a real
//!   mutex). A panic while a guard is held releases the guard as the
//!   stack unwinds, so the lock stays usable (no poisoning). Every
//!   accessor checks the owner, `get_mut` and `into_inner` included; a
//!   lock dropped on another host thread leaks its value instead of
//!   dropping it there, so the value never runs code off its thread;
//! - [`RwLock::read_rc`] — a read guard that keeps its lock alive
//!   through an [`Rc`], for the page pool's per-thread chunks;
//! - [`DetMap`] / [`DetSet`] — deterministic ordered replacements for
//!   `std::collections::HashMap`/`HashSet` in sim-path crates;
//! - [`crc32c_sectors`] — the per-sector CRC-32C of one 4 KiB page, the
//!   mirror's checksum — and [`crc32c`] of any byte string, the LSM
//!   block checksum. Both run one SSE4.2 kernel.
//!
//! This crate holds the workspace's only `unsafe` code: the owner cell
//! behind the locks and the SSE4.2 call, each block with its `SAFETY`
//! argument. Every other crate root forbids `unsafe` outright.
//!
//! Everything here is *host-time* state: it never charges virtual
//! cycles. Lock contention that the paper models (tree locks, IPIs)
//! lives in `aquila_sim::resource` and the race detector instead.
//! Process-wide registries that parallel test threads share (the race
//! detector, tracer, metrics and fault-plan globals) use `std::sync`.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::cell::{Cell, UnsafeCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::panic::{RefUnwindSafe, UnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};

thread_local! {
    /// This host thread's tag; 0 until [`thread_tag`] first assigns one.
    static TAG: Cell<u32> = const { Cell::new(0) };
}

/// The next unassigned thread tag. Tags are never reused, so a dead
/// owner's tag matches no live thread; a process that has started 2^32
/// threads gets no more (32 bits keep a `Mutex<Page>` at 12 bytes).
static NEXT_TAG: AtomicU32 = AtomicU32::new(1);

/// The calling host thread's tag: unique among every thread the process
/// ever ran, assigned on first use.
#[inline]
fn thread_tag() -> u32 {
    TAG.with(|t| match t.get() {
        0 => {
            let tag = NEXT_TAG
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_add(1))
                .expect("aquila_sync: thread tags exhausted");
            t.set(tag);
            tag
        }
        tag => tag,
    })
}

#[cold]
#[inline(never)]
#[track_caller]
fn foreign() -> ! {
    panic!("aquila_sync: a lock owned by one host thread was used from another")
}

#[cold]
#[inline(never)]
#[track_caller]
fn reentrant() -> ! {
    panic!("aquila_sync: lock taken again while this host thread holds it")
}

/// The value of a [`Mutex`] or [`RwLock`], its owner's tag and its
/// borrow state.
///
/// `borrow` counts readers when positive and is -1 while a writer holds
/// the cell.
struct Owned<T: ?Sized> {
    owner: u32,
    borrow: Cell<i32>,
    value: ManuallyDrop<UnsafeCell<T>>,
}

// SAFETY: `Owned` only lets its owning host thread reach its fields'
// mutable state, so moving or sharing it between threads never lets two
// threads touch that state:
// - `owner` is written once, in `new`, and only read afterwards, so any
//   thread may read it;
// - `borrow` is read and written only after `check` has confirmed that
//   the caller is the owner, and by the guards, which are neither `Send`
//   nor `Sync`, so they stay on the owner thread;
// - `value` is reached only through `check`ed accessors and the guards
//   they return, and is dropped only on the owner thread: `Drop` leaks
//   it on any other thread. So `T` itself need be neither `Send` nor
//   `Sync`.
unsafe impl<T: ?Sized> Send for Owned<T> {}
// SAFETY: see `Send` above; every field is reachable from a shared
// reference only through the owner check.
unsafe impl<T: ?Sized> Sync for Owned<T> {}

impl<T> Owned<T> {
    fn new(value: T) -> Owned<T> {
        Owned {
            owner: thread_tag(),
            borrow: Cell::new(0),
            value: ManuallyDrop::new(UnsafeCell::new(value)),
        }
    }

    fn into_inner(self) -> T {
        self.check();
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `this` is never used or dropped again, so the value is
        // moved out exactly once; `check` confirmed this is the owner.
        let value = unsafe { ManuallyDrop::take(&mut this.value) };
        value.into_inner()
    }
}

impl<T: ?Sized> Owned<T> {
    /// Panics unless the calling host thread owns the cell.
    #[inline]
    #[track_caller]
    fn check(&self) {
        if self.owner != thread_tag() {
            foreign();
        }
    }

    fn is_owned_here(&self) -> bool {
        self.owner == thread_tag()
    }

    /// Takes the exclusive borrow; false if any borrow is outstanding.
    #[inline]
    #[track_caller]
    fn try_write(&self) -> bool {
        self.check();
        if self.borrow.get() != 0 {
            return false;
        }
        self.borrow.set(-1);
        true
    }

    #[inline]
    #[track_caller]
    fn write(&self) {
        if !self.try_write() {
            reentrant();
        }
    }

    #[inline]
    #[track_caller]
    fn read(&self) {
        self.check();
        let b = self.borrow.get();
        // Readers leaked with `mem::forget` must not wrap the count round
        // to a free lock.
        if b < 0 || b == i32::MAX {
            reentrant();
        }
        self.borrow.set(b + 1);
    }

    fn get_mut(&mut self) -> &mut T {
        self.check();
        self.value.get_mut()
    }

    /// The value's address, which the guards dereference while their
    /// borrow is recorded in `borrow`.
    #[inline]
    fn ptr(&self) -> *mut T {
        self.value.get()
    }
}

impl<T: ?Sized> Drop for Owned<T> {
    fn drop(&mut self) {
        if self.is_owned_here() {
            // SAFETY: the value is dropped once, here, and never used
            // again; this is the owner thread.
            unsafe { ManuallyDrop::drop(&mut self.value) }
        }
    }
}

// Like `std::sync`'s locks: a panic under a guard releases it on unwind
// and leaves no half-state behind that the lock itself relies on.
impl<T: ?Sized> UnwindSafe for Owned<T> {}
impl<T: ?Sized> RefUnwindSafe for Owned<T> {}

/// A mutual-exclusion cell whose `lock()` returns the guard directly.
///
/// Owned by the host thread that created it: see the crate docs for the
/// owner check, the re-entry panic and the lack of poisoning.
pub struct Mutex<T: ?Sized>(Owned<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`, owned by the calling host
    /// thread.
    pub fn new(value: T) -> Mutex<T> {
        Mutex(Owned::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    ///
    /// # Panics
    ///
    /// On any host thread but the owner.
    #[track_caller]
    pub fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock.
    ///
    /// # Panics
    ///
    /// On any host thread but the owner, or if this thread already holds
    /// the lock.
    #[inline]
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.write();
        MutexGuard {
            cell: &self.0,
            _here: PhantomData,
        }
    }

    /// Acquires the lock unless this thread already holds it.
    ///
    /// # Panics
    ///
    /// On any host thread but the owner.
    #[inline]
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        self.0.try_write().then_some(MutexGuard {
            cell: &self.0,
            _here: PhantomData,
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    ///
    /// # Panics
    ///
    /// On any host thread but the owner.
    #[track_caller]
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.0.is_owned_here() {
            return f.write_str("Mutex(<other thread>)");
        }
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// The guard of a [`Mutex`]: exclusive access until dropped. Neither
/// `Send` nor `Sync`, so it stays on the owner thread.
pub struct MutexGuard<'a, T: ?Sized> {
    cell: &'a Owned<T>,
    _here: PhantomData<*const ()>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard exists only on the owner thread (it is
        // `!Send`), and its borrow, recorded in `borrow` until it drops,
        // rules out a live `&mut T`.
        unsafe { &*self.cell.ptr() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the exclusive borrow (`borrow` is -1)
        // on the owner thread, and `&mut self` rules out another
        // reference through this guard.
        unsafe { &mut *self.cell.ptr() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.cell.borrow.set(0);
    }
}

/// A reader-writer cell whose `read()`/`write()` return guards directly.
///
/// Owned by the host thread that created it, like [`Mutex`]; any number
/// of read guards may be live at once, or one write guard.
pub struct RwLock<T: ?Sized>(Owned<T>);

impl<T> RwLock<T> {
    /// Creates a new lock holding `value`, owned by the calling host
    /// thread.
    pub fn new(value: T) -> RwLock<T> {
        RwLock(Owned::new(value))
    }

    /// Consumes the lock, returning the inner value.
    ///
    /// # Panics
    ///
    /// On any host thread but the owner.
    #[track_caller]
    pub fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    ///
    /// # Panics
    ///
    /// On any host thread but the owner, or while this thread holds the
    /// write guard.
    #[inline]
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read();
        RwLockReadGuard {
            cell: &self.0,
            _here: PhantomData,
        }
    }

    /// Acquires exclusive write access.
    ///
    /// # Panics
    ///
    /// On any host thread but the owner, or while this thread holds any
    /// guard of the lock.
    #[inline]
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write();
        RwLockWriteGuard {
            cell: &self.0,
            _here: PhantomData,
        }
    }

    /// Shared read access through a guard that holds the lock alive by
    /// `this` (the page pool hands these out for chunks it may drop).
    ///
    /// # Panics
    ///
    /// As [`RwLock::read`].
    #[inline]
    #[track_caller]
    pub fn read_rc(this: &Rc<RwLock<T>>) -> RcReadGuard<T> {
        this.0.read();
        RcReadGuard {
            lock: Rc::clone(this),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    ///
    /// # Panics
    ///
    /// On any host thread but the owner.
    #[track_caller]
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.0.is_owned_here() {
            return f.write_str("RwLock(<other thread>)");
        }
        if self.0.borrow.get() < 0 {
            return f.write_str("RwLock(<locked>)");
        }
        f.debug_tuple("RwLock").field(&*self.read()).finish()
    }
}

/// A shared guard of an [`RwLock`]. Neither `Send` nor `Sync`.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    cell: &'a Owned<T>,
    _here: PhantomData<*const ()>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard exists only on the owner thread (it is
        // `!Send`), and its borrow, recorded in `borrow` until it drops,
        // rules out a live `&mut T`.
        unsafe { &*self.cell.ptr() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.cell.borrow.set(self.cell.borrow.get() - 1);
    }
}

/// The exclusive guard of an [`RwLock`]. Neither `Send` nor `Sync`.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    cell: &'a Owned<T>,
    _here: PhantomData<*const ()>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard exists only on the owner thread (it is
        // `!Send`), and its borrow, recorded in `borrow` until it drops,
        // rules out a live `&mut T`.
        unsafe { &*self.cell.ptr() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the exclusive borrow (`borrow` is -1)
        // on the owner thread, and `&mut self` rules out another
        // reference through this guard.
        unsafe { &mut *self.cell.ptr() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.cell.borrow.set(0);
    }
}

/// A shared guard of an [`RwLock`] that owns an [`Rc`] of its lock
/// ([`RwLock::read_rc`]); `Rc` makes it neither `Send` nor `Sync`.
pub struct RcReadGuard<T: ?Sized> {
    lock: Rc<RwLock<T>>,
}

impl<T: ?Sized> Deref for RcReadGuard<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: as for `RwLockReadGuard`; the `Rc` keeps the lock alive
        // for as long as the guard.
        unsafe { &*self.lock.0.ptr() }
    }
}

impl<T: ?Sized> Drop for RcReadGuard<T> {
    #[inline]
    fn drop(&mut self) {
        let b = &self.lock.0.borrow;
        b.set(b.get() - 1);
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

    /// Whether `f` panics (its message printed by the default hook).
    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    #[test]
    fn a_lock_from_another_host_thread_panics() {
        let m = Arc::new(Mutex::new(1));
        let l = Arc::new(RwLock::new(2));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let verdicts = std::thread::spawn(move || {
            [
                panics(|| drop(m2.lock())),
                panics(|| drop(m2.try_lock())),
                panics(|| drop(l2.read())),
                panics(|| drop(l2.write())),
                format!("{m2:?}") == "Mutex(<other thread>)",
            ]
        })
        .join()
        .unwrap();
        assert_eq!(verdicts, [true; 5]);
        // The owner is unaffected.
        *m.lock() += 1;
        assert_eq!((*m.lock(), *l.read()), (2, 2));
    }

    #[test]
    fn get_mut_and_into_inner_check_the_owner_too() {
        let mut m = Mutex::new(vec![1]);
        let mut l = RwLock::new(3);
        m.get_mut().push(2);
        *l.get_mut() += 1;
        let (m, l) = std::thread::spawn(move || {
            assert!(panics(|| m.get_mut().push(3)));
            assert!(panics(|| *l.get_mut() += 1));
            (m, l)
        })
        .join()
        .unwrap();
        let moved = Mutex::new(5);
        let foreign_into_inner =
            std::thread::spawn(move || panics(move || assert_eq!(moved.into_inner(), 5)))
                .join()
                .unwrap();
        assert!(foreign_into_inner);
        assert_eq!((m.into_inner(), l.into_inner()), (vec![1, 2], 4));
    }

    #[test]
    fn a_reentrant_lock_panics() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(panics(|| drop(m.lock())));
        assert!(m.try_lock().is_none(), "try_lock reports it instead");
        drop(g);
        let l = RwLock::new(0);
        let r = l.read();
        let r2 = l.read();
        assert!(panics(|| drop(l.write())), "write under a read");
        drop((r, r2));
        let w = l.write();
        assert!(panics(|| drop(l.read())), "read under the write");
        drop(w);
        assert_eq!(*l.read(), 0);
    }

    #[test]
    fn a_panic_under_a_guard_leaves_the_lock_usable() {
        let m = Mutex::new(7);
        let l = RwLock::new(8);
        assert!(panics(|| {
            let mut g = m.lock();
            *g += 1;
            panic!("holder panics");
        }));
        assert!(panics(|| {
            let _r = l.read();
            let _w = RwLock::read_rc(&Rc::new(RwLock::new(0)));
            panic!("reader panics");
        }));
        assert!(panics(|| {
            let _w = l.write();
            panic!("writer panics");
        }));
        assert_eq!(
            *m.lock(),
            8,
            "no poisoning; the write before the panic stays"
        );
        *l.write() += 1;
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn a_foreign_drop_leaks_the_value() {
        struct Counted(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        drop(Mutex::new(Counted(Arc::clone(&drops))));
        assert_eq!(drops.load(Ordering::Relaxed), 1, "the owner drops it");
        let m = Mutex::new(Counted(Arc::clone(&drops)));
        std::thread::spawn(move || drop(m)).join().unwrap();
        assert_eq!(drops.load(Ordering::Relaxed), 1, "another thread leaks it");
    }

    #[test]
    fn rc_read_guards_share_with_plain_readers() {
        let l = Rc::new(RwLock::new(vec![4u8; 3]));
        let a = RwLock::read_rc(&l);
        let b = l.read();
        assert_eq!(*a, *b);
        assert!(panics(|| drop(l.write())));
        drop((a, b));
        l.write().push(5);
        assert_eq!(RwLock::read_rc(&l).len(), 4);
    }

    #[test]
    fn cells_of_thread_bound_values_are_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Mutex<Rc<u8>>>();
        send_sync::<RwLock<Rc<u8>>>();
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
