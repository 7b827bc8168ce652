//! One process-wide pool of refcounted 4 KiB pages.
//!
//! Device stores and the DRAM cache both hold their bytes as [`Page`]
//! handles into this pool, so a cache fill installs a reference to the
//! device's page instead of copying it, and writeback hands the frame's
//! page to the device, which adopts it. Only the first write to a shared
//! page copies it ([`Page::write`]). Simulated time never depends on
//! this: every copy the modelled hardware makes is still charged where it
//! happens; only the host stops moving the bytes.
//!
//! Pages live in 2 MiB chunks of 512, page-aligned, one reader-writer lock
//! per chunk, and each page has a dense reference count in its chunk.
//! Freed page ids go on a free list and are reused before the pool grows;
//! chunks are never returned. Page id 0 is the shared zero page: it is
//! never written, never counted and never freed, so "never written" costs
//! neither an allocation nor a reference count.
//!
//! **Lock rule:** a page's bytes are reachable only through a [`PageRef`]
//! (its chunk's read lock) or inside a [`Page::write`] closure (its
//! chunk's write lock). Neighbouring pages share a chunk, so a thread
//! holding either must not read or write another page while it does:
//! the second lock may be the same one. Copy the bytes out first when one
//! page must feed another. Cloning and dropping handles take no chunk
//! lock and are always safe.

use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{fence, AtomicU32, AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLockReadGuard};

use aquila_sync::{Mutex, RwLock};

use crate::PAGE_SIZE;

/// Pages per chunk: one 2 MiB host allocation and lock.
const CHUNK_PAGES: usize = 512;
/// Most chunks the pool can grow to (64 GiB of pages).
const MAX_CHUNKS: usize = 1 << 15;
/// The shared zero page.
const ZERO_ID: u32 = 0;

struct Chunk {
    /// The chunk's pages, page-aligned from `base`.
    bytes: RwLock<Box<[u8]>>,
    base: usize,
    refs: Box<[AtomicU32]>,
}

impl Chunk {
    fn new() -> Box<Chunk> {
        // One spare page so the pages can start on a page boundary.
        let bytes = vec![0u8; (CHUNK_PAGES + 1) * PAGE_SIZE].into_boxed_slice();
        let base = (PAGE_SIZE - bytes.as_ptr() as usize % PAGE_SIZE) % PAGE_SIZE;
        Box::new(Chunk {
            bytes: RwLock::new(bytes),
            base,
            refs: (0..CHUNK_PAGES).map(|_| AtomicU32::new(0)).collect(),
        })
    }
}

static CHUNKS: [OnceLock<Box<Chunk>>; MAX_CHUNKS] = [const { OnceLock::new() }; MAX_CHUNKS];

/// Free page ids (reused last-freed first) and the next never-used id.
struct Alloc {
    free: Vec<u32>,
    next: u32,
}

static ALLOC: Mutex<Alloc> = Mutex::new(Alloc {
    free: Vec::new(),
    next: ZERO_ID + 1,
});

static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The chunk holding page `id` and the page's byte offset in it.
#[inline]
fn locate(id: u32) -> (&'static Chunk, usize) {
    let id = id as usize;
    let chunk = CHUNKS[id / CHUNK_PAGES].get_or_init(Chunk::new);
    (chunk, chunk.base + (id % CHUNK_PAGES) * PAGE_SIZE)
}

#[inline]
fn refs(id: u32) -> &'static AtomicU32 {
    &locate(id).0.refs[id as usize % CHUNK_PAGES]
}

/// Takes a page id with one reference. Its bytes are stale: the caller
/// overwrites all of them.
fn alloc() -> u32 {
    let id = {
        let mut a = ALLOC.lock();
        match a.free.pop() {
            Some(id) => id,
            None => {
                let id = a.next;
                assert!(
                    (id as usize) < MAX_CHUNKS * CHUNK_PAGES,
                    "page pool exhausted"
                );
                a.next += 1;
                id
            }
        }
    };
    refs(id).store(1, Ordering::Relaxed);
    LIVE.fetch_add(1, Ordering::Relaxed);
    id
}

/// Pages currently allocated from the pool (the zero page not counted).
pub fn live_pages() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// A counted reference to one 4 KiB page of the pool.
///
/// Cloning shares the page; dropping the last reference frees it. Two
/// handles compare equal when their bytes are equal.
pub struct Page(u32);

impl Page {
    /// The shared zero page (never written, never freed).
    pub const fn zero() -> Page {
        Page(ZERO_ID)
    }

    /// A new private page holding a copy of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is exactly one page long.
    pub fn copy_of(bytes: &[u8]) -> Page {
        assert_eq!(bytes.len(), PAGE_SIZE, "a page is {PAGE_SIZE} bytes");
        let id = alloc();
        let (chunk, off) = locate(id);
        chunk.bytes.write()[off..off + PAGE_SIZE].copy_from_slice(bytes);
        Page(id)
    }

    /// Whether this is the shared zero page.
    pub fn is_zero(&self) -> bool {
        self.0 == ZERO_ID
    }

    /// Whether `self` and `other` are the same page (not merely equal
    /// bytes).
    pub fn same_as(&self, other: &Page) -> bool {
        self.0 == other.0
    }

    /// Whether another reference (or the zero page's sharing) means a
    /// write must copy first.
    fn is_shared(&self) -> bool {
        self.is_zero() || refs(self.0).load(Ordering::Acquire) > 1
    }

    /// Shared access to the page's bytes; see the module's lock rule.
    pub fn read(&self) -> PageRef<'_> {
        let (chunk, off) = locate(self.0);
        PageRef {
            guard: chunk.bytes.read(),
            off,
            _page: PhantomData,
        }
    }

    /// Runs `f` on the page's bytes for writing. A shared page is first
    /// replaced by a private copy, made in the same pass under the new
    /// page's lock; `f` must not touch another page (module lock rule).
    pub fn write<R>(&mut self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        if !self.is_shared() {
            let (chunk, off) = locate(self.0);
            return f(&mut chunk.bytes.write()[off..off + PAGE_SIZE]);
        }
        let copy = Page(alloc());
        let r = copy_then(self.0, copy.0, f);
        *self = copy;
        r
    }
}

/// Copies page `src` into the fresh page `dst` and runs `f` on `dst`,
/// taking the two chunk locks in ascending chunk order.
fn copy_then<R>(src: u32, dst: u32, f: impl FnOnce(&mut [u8]) -> R) -> R {
    let (dchunk, doff) = locate(dst);
    let drange = doff..doff + PAGE_SIZE;
    if src == ZERO_ID {
        let mut d = dchunk.bytes.write();
        d[drange.clone()].fill(0);
        return f(&mut d[drange]);
    }
    let (schunk, soff) = locate(src);
    let (sc, dc) = (src as usize / CHUNK_PAGES, dst as usize / CHUNK_PAGES);
    if sc == dc {
        let mut d = dchunk.bytes.write();
        d.copy_within(soff..soff + PAGE_SIZE, doff);
        return f(&mut d[drange]);
    }
    let mut d = if sc < dc {
        let s = schunk.bytes.read();
        let mut d = dchunk.bytes.write();
        d[drange.clone()].copy_from_slice(&s[soff..soff + PAGE_SIZE]);
        d
    } else {
        let mut d = dchunk.bytes.write();
        d[drange.clone()].copy_from_slice(&schunk.bytes.read()[soff..soff + PAGE_SIZE]);
        d
    };
    f(&mut d[drange])
}

// The counts follow `Arc`'s orderings. A clone is made from a live
// handle and publishes nothing, so its increment is `Relaxed`. Each
// decrement is `Release`, and both the last dropper (before freeing) and
// `is_shared` (before writing in place) read the count with `Acquire`, so
// every other holder's reads of the bytes happen before the page is
// reused or written. `LIVE` is a statistic and publishes nothing.
impl Clone for Page {
    fn clone(&self) -> Page {
        if !self.is_zero() {
            refs(self.0).fetch_add(1, Ordering::Relaxed);
        }
        Page(self.0)
    }
}

impl Drop for Page {
    fn drop(&mut self) {
        if self.is_zero() || refs(self.0).fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        fence(Ordering::Acquire);
        LIVE.fetch_sub(1, Ordering::Relaxed);
        ALLOC.lock().free.push(self.0);
    }
}

impl PartialEq for Page {
    fn eq(&self, other: &Page) -> bool {
        if self.same_as(other) {
            return true;
        }
        let (a, b) = (
            self.0 as usize / CHUNK_PAGES,
            other.0 as usize / CHUNK_PAGES,
        );
        if a == b {
            // One chunk, one read lock.
            let r = self.read();
            let (_, off) = locate(other.0);
            return *r == r.guard[off..off + PAGE_SIZE];
        }
        let (lo, hi) = if a < b { (self, other) } else { (other, self) };
        let lo = lo.read();
        *lo == *hi.read()
    }
}

impl Eq for Page {}

impl core::fmt::Debug for Page {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Page#{}", self.0)
    }
}

/// Read access to one page's bytes, holding its chunk's read lock; see
/// the module's lock rule.
pub struct PageRef<'a> {
    guard: RwLockReadGuard<'static, Box<[u8]>>,
    off: usize,
    _page: PhantomData<&'a Page>,
}

impl Deref for PageRef<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.guard[self.off..self.off + PAGE_SIZE]
    }
}

/// The pool is process-wide: this crate's tests that allocate pages take
/// this lock, so the ones that count live pages or watch id reuse see
/// only their own traffic.
#[cfg(test)]
pub(crate) static SERIAL: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(b: u8) -> Page {
        Page::copy_of(&[b; PAGE_SIZE])
    }

    #[test]
    fn the_zero_page_reads_zero_and_is_never_freed() {
        let _g = SERIAL.lock();
        let live = live_pages();
        let zeros: Vec<Page> = (0..1000).map(|_| Page::zero()).collect();
        assert!(zeros.iter().all(|p| p.is_zero() && p.is_shared()));
        drop(zeros);
        let z = Page::zero();
        assert!(z.read().iter().all(|&b| b == 0));
        assert_eq!(live_pages(), live, "zero-page handles allocate nothing");
        // Writing through a zero handle copies; the zero page stays zero.
        let mut w = Page::zero();
        w.write(|b| b[7] = 1);
        assert!(!w.is_zero());
        assert_eq!(live_pages(), live + 1);
        assert!(Page::zero().read().iter().all(|&b| b == 0));
        drop(w);
        assert_eq!(live_pages(), live);
    }

    #[test]
    fn a_shared_page_copies_on_write_and_a_private_one_does_not() {
        let _g = SERIAL.lock();
        let live = live_pages();
        let mut a = filled(0x11);
        let b = a.clone();
        assert!(a.same_as(&b) && a.is_shared());
        assert_eq!(live_pages(), live + 1, "a clone shares the page");
        a.write(|d| d[0] = 0x22);
        assert!(!a.same_as(&b), "the first write made a private copy");
        assert_eq!(live_pages(), live + 2);
        assert_eq!(a.read()[0], 0x22);
        assert!(a.read()[1..].iter().all(|&x| x == 0x11), "copied in full");
        assert!(
            b.read().iter().all(|&x| x == 0x11),
            "the sharer is untouched"
        );
        assert!(!a.is_shared() && !b.is_shared());
        let id = a.0;
        a.write(|d| d[1] = 0x33);
        assert_eq!(a.0, id, "a private page is written in place");
        drop((a, b));
        assert_eq!(live_pages(), live);
    }

    #[test]
    fn a_freed_id_is_reused_first() {
        let _g = SERIAL.lock();
        let a = filled(1);
        let id = a.0;
        drop(a);
        let b = filled(2);
        assert_eq!(b.0, id, "last freed, first reused");
        assert!(
            b.read().iter().all(|&x| x == 2),
            "reuse never leaks old bytes"
        );
    }

    #[test]
    fn pages_compare_by_bytes_within_and_across_chunks() {
        let _g = SERIAL.lock();
        let chunk = |p: &Page| p.0 as usize / CHUNK_PAGES;
        let mut many: Vec<Page> = (0..=CHUNK_PAGES).map(|_| filled(5)).collect();
        let b = many
            .iter()
            .position(|p| chunk(p) != chunk(&many[0]))
            .expect("513 pages span two chunks");
        assert_eq!(many[0], many[b], "equal bytes in two chunks");
        let mut by_chunk = std::collections::BTreeMap::<usize, Vec<usize>>::new();
        for (i, p) in many.iter().enumerate() {
            by_chunk.entry(chunk(p)).or_default().push(i);
        }
        let pair = by_chunk
            .values()
            .find(|v| v.len() > 1)
            .expect("a shared chunk");
        let (x, y) = (pair[0], pair[1]);
        assert_eq!(many[x], many[y], "equal bytes in one chunk");
        many[y].write(|d| d[4095] = 6);
        assert_ne!(many[x], many[y], "one byte differs");
        assert_eq!(Page::zero(), Page::copy_of(&[0; PAGE_SIZE]));
        assert_ne!(Page::zero(), many[x]);
    }

    #[test]
    fn pages_are_page_aligned() {
        let _g = SERIAL.lock();
        let p = filled(3);
        assert_eq!(p.read().as_ptr() as usize % PAGE_SIZE, 0);
    }
}
