//! One pool of refcounted 4 KiB pages per host thread.
//!
//! Device stores and the DRAM cache both hold their bytes as [`Page`]
//! handles into this pool, so a cache fill installs a reference to the
//! device's page instead of copying it, and writeback hands the frame's
//! page to the device, which adopts it. Only the first write to a shared
//! page copies it ([`Page::write`]). Simulated time never depends on
//! this: every copy the modelled hardware makes is still charged where it
//! happens; only the host stops moving the bytes.
//!
//! The simulator runs on one host thread, so the pool is that thread's:
//! a thread-local with plain reference counts, and a [`Page`] is neither
//! `Send` nor `Sync`, so a handle never reaches another thread's pool.
//! (A structure holding pages inside an `aquila_sync` cell may move
//! between threads, but only its owner thread can reach the pages, and a
//! drop elsewhere leaks them.) Parallel test threads each get a pool of
//! their own, freed when the thread exits.
//!
//! Pages live in 2 MiB chunks of 512, page-aligned, each chunk's bytes
//! in one `aquila_sync::RwLock`, and each page has a reference count.
//! Freed page ids go on a free list and are reused before the pool
//! grows; chunks are returned only with the pool. Page id 0 is the shared
//! zero page: it is never written, never counted and never freed, so
//! "never written" costs neither an allocation nor a reference count.
//!
//! **Borrow rule:** a page's bytes are reachable only through a
//! [`PageRef`] (a read borrow of its chunk) or inside a [`Page::write`]
//! closure (the chunk's write borrow). Neighbouring pages share a chunk,
//! so code holding either must not write another page while it does:
//! the chunk may be the same one, and the second borrow panics. Copy the
//! bytes out first when one page must feed another. Cloning and dropping
//! handles borrow no chunk and are always allowed.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::ops::Deref;
use std::rc::Rc;

use aquila_sync::{RcReadGuard, RwLock};

use crate::PAGE_SIZE;

/// Pages per chunk: one 2 MiB host allocation and lock.
const CHUNK_PAGES: usize = 512;
/// Most chunks a pool can grow to (64 GiB of pages).
const MAX_CHUNKS: usize = 1 << 15;
/// The shared zero page.
const ZERO_ID: u32 = 0;

/// One chunk's bytes, page-aligned from `base`.
struct Chunk {
    bytes: Rc<RwLock<Box<[u8]>>>,
    base: usize,
}

impl Chunk {
    fn new() -> Chunk {
        // One spare page so the pages can start on a page boundary.
        let bytes = vec![0u8; (CHUNK_PAGES + 1) * PAGE_SIZE].into_boxed_slice();
        let base = (PAGE_SIZE - bytes.as_ptr() as usize % PAGE_SIZE) % PAGE_SIZE;
        Chunk {
            bytes: Rc::new(RwLock::new(bytes)),
            base,
        }
    }
}

/// A host thread's pool: chunks, per-page reference counts, free page
/// ids (reused last-freed first) and the next never-used id.
struct Pool {
    chunks: Vec<Chunk>,
    refs: Vec<u32>,
    free: Vec<u32>,
    next: u32,
    live: usize,
}

thread_local! {
    static POOL: RefCell<Pool> = const {
        RefCell::new(Pool {
            chunks: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
            next: ZERO_ID + 1,
            live: 0,
        })
    };
}

impl Pool {
    /// The chunk holding page `id` and the page's byte offset in it,
    /// growing the pool to reach it.
    fn locate(&mut self, id: u32) -> (Rc<RwLock<Box<[u8]>>>, usize) {
        let id = id as usize;
        while self.chunks.len() <= id / CHUNK_PAGES {
            self.chunks.push(Chunk::new());
            self.refs.resize(self.chunks.len() * CHUNK_PAGES, 0);
        }
        let chunk = &self.chunks[id / CHUNK_PAGES];
        (
            Rc::clone(&chunk.bytes),
            chunk.base + (id % CHUNK_PAGES) * PAGE_SIZE,
        )
    }

    /// Takes a page id with one reference. Its bytes are stale: the
    /// caller overwrites all of them.
    fn alloc(&mut self) -> u32 {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                let id = self.next;
                assert!(
                    (id as usize) < MAX_CHUNKS * CHUNK_PAGES,
                    "page pool exhausted"
                );
                self.next += 1;
                id
            }
        };
        self.locate(id);
        self.refs[id as usize] = 1;
        self.live += 1;
        id
    }
}

/// Runs `f` on this thread's pool.
#[inline]
fn with_pool<R>(f: impl FnOnce(&mut Pool) -> R) -> R {
    POOL.with(|p| f(&mut p.borrow_mut()))
}

/// Pages currently allocated from the calling thread's pool (the zero
/// page not counted).
pub fn live_pages() -> usize {
    with_pool(|p| p.live)
}

/// A counted reference to one 4 KiB page of the calling thread's pool.
///
/// Cloning shares the page; dropping the last reference frees it. Two
/// handles compare equal when their bytes are equal. Neither `Send` nor
/// `Sync`: the page belongs to its thread's pool.
pub struct Page(u32, PhantomData<*const ()>);

impl Page {
    /// The shared zero page (never written, never freed).
    pub const fn zero() -> Page {
        Page(ZERO_ID, PhantomData)
    }

    /// A new private page holding a copy of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is exactly one page long.
    pub fn copy_of(bytes: &[u8]) -> Page {
        assert_eq!(bytes.len(), PAGE_SIZE, "a page is {PAGE_SIZE} bytes");
        let (id, (chunk, off)) = with_pool(|p| {
            let id = p.alloc();
            (id, p.locate(id))
        });
        chunk.write()[off..off + PAGE_SIZE].copy_from_slice(bytes);
        Page(id, PhantomData)
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
        self.is_zero() || with_pool(|p| p.refs[self.0 as usize] > 1)
    }

    /// Shared access to the page's bytes; see the module's borrow rule.
    pub fn read(&self) -> PageRef<'_> {
        let (chunk, off) = with_pool(|p| p.locate(self.0));
        PageRef {
            guard: RwLock::read_rc(&chunk),
            off,
            _page: PhantomData,
        }
    }

    /// Runs `f` on the page's bytes for writing. A shared page is first
    /// replaced by a private copy, made in the same pass under the new
    /// page's borrow; `f` must not touch another page (module borrow
    /// rule).
    pub fn write<R>(&mut self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        if !self.is_shared() {
            let (chunk, off) = with_pool(|p| p.locate(self.0));
            return f(&mut chunk.write()[off..off + PAGE_SIZE]);
        }
        let copy = Page(with_pool(Pool::alloc), PhantomData);
        let r = copy_then(self.0, copy.0, f);
        *self = copy;
        r
    }
}

/// Copies page `src` into the fresh page `dst` and runs `f` on `dst`.
fn copy_then<R>(src: u32, dst: u32, f: impl FnOnce(&mut [u8]) -> R) -> R {
    let ((dchunk, doff), (schunk, soff)) = with_pool(|p| (p.locate(dst), p.locate(src)));
    let drange = doff..doff + PAGE_SIZE;
    let mut d = dchunk.write();
    if src == ZERO_ID {
        d[drange.clone()].fill(0);
    } else if Rc::ptr_eq(&schunk, &dchunk) {
        d.copy_within(soff..soff + PAGE_SIZE, doff);
    } else {
        d[drange.clone()].copy_from_slice(&schunk.read()[soff..soff + PAGE_SIZE]);
    }
    f(&mut d[drange])
}

impl Clone for Page {
    fn clone(&self) -> Page {
        if !self.is_zero() {
            with_pool(|p| p.refs[self.0 as usize] += 1);
        }
        Page(self.0, PhantomData)
    }
}

impl Drop for Page {
    fn drop(&mut self) {
        if self.is_zero() {
            return;
        }
        // A handle outliving its thread's pool (held by another
        // thread-local torn down after it) has nothing left to free.
        let _ = POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            let refs = &mut p.refs[self.0 as usize];
            *refs -= 1;
            if *refs == 0 {
                p.live -= 1;
                p.free.push(self.0);
            }
        });
    }
}

impl PartialEq for Page {
    fn eq(&self, other: &Page) -> bool {
        self.same_as(other) || *self.read() == *other.read()
    }
}

impl Eq for Page {}

impl core::fmt::Debug for Page {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Page#{}", self.0)
    }
}

/// Read access to one page's bytes, holding a read borrow of its chunk;
/// see the module's borrow rule.
pub struct PageRef<'a> {
    guard: RcReadGuard<Box<[u8]>>,
    off: usize,
    _page: PhantomData<&'a Page>,
}

impl Deref for PageRef<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.guard[self.off..self.off + PAGE_SIZE]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(b: u8) -> Page {
        Page::copy_of(&[b; PAGE_SIZE])
    }

    #[test]
    fn the_zero_page_reads_zero_and_is_never_freed() {
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
    fn a_write_never_changes_a_page_another_handle_holds() {
        // What the mirror's identity check relies on: a handle's id and
        // bytes stay as they were, whatever the other holders write.
        for mut writer in [filled(0x44), Page::zero()] {
            let held = writer.clone();
            let (id, bytes) = (held.0, held.read().to_vec());
            writer.write(|d| d.fill(0x55));
            assert!(!writer.same_as(&held), "the writer moved to a copy");
            assert_eq!(held.0, id);
            assert_eq!(*held.read(), bytes[..]);
            assert!(writer.read().iter().all(|&x| x == 0x55));
        }
    }

    #[test]
    fn a_freed_id_is_reused_first() {
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
    fn each_host_thread_has_its_own_pool() {
        let mine = filled(7);
        let live = live_pages();
        let (theirs_id, theirs_live, reads_own) = std::thread::spawn(|| {
            assert_eq!(live_pages(), 0, "a new thread starts with an empty pool");
            let p = filled(9);
            let q = p.clone();
            let out = (p.0, live_pages(), q.read().iter().all(|&b| b == 9));
            drop((p, q));
            assert_eq!(live_pages(), 0);
            out
        })
        .join()
        .unwrap();
        assert_eq!(theirs_id, 1, "ids are numbered per pool");
        assert_eq!((theirs_live, reads_own), (1, true));
        assert_eq!(
            live_pages(),
            live,
            "the other thread's pages are not counted here"
        );
        assert!(mine.read().iter().all(|&b| b == 7), "nor written here");
    }

    #[test]
    fn pages_are_page_aligned() {
        let p = filled(3);
        assert_eq!(p.read().as_ptr() as usize % PAGE_SIZE, 0);
    }
}
