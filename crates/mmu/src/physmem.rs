//! Guest-physical memory backing the DRAM I/O cache.
//!
//! One contiguous guest-physical range holds the frames of the Aquila
//! DRAM cache (the paper resizes this range in 1 GiB EPT granules). The
//! bytes are real: page-fault handlers fill frames with device data,
//! applications read and write through their mappings, and writeback
//! hands dirty frames to the device — so KV stores and graph workloads
//! running on the simulator observe genuine data, not placeholders.
//!
//! Each frame holds a [`Page`] of the process-wide page pool
//! ([`aquila_sim::page`]) and starts as the shared zero page, so no frame
//! bytes exist until a frame is filled. A fill installs the device's own
//! page ([`PhysMem::install`]); writeback hands the frame's page to the
//! device ([`PhysMem::page`]), which adopts it; a write through a mapping
//! ([`PhysMem::write`]) copies a shared page first, making the frame
//! private. One short lock per frame slot guards the handle.
//!
//! A frame's bytes are reached only by copying them in or out
//! ([`PhysMem::read`] / [`PhysMem::write`]), under the frame's slot lock
//! and its page's chunk lock, or by taking a reference to its page; there
//! is no closure access in which a caller could fill a frame in place.

use aquila_sim::Page;
use aquila_sync::Mutex;

use aquila_vmx::Gpa;

use crate::addr::PAGE_SIZE;

/// Index of a frame within a [`PhysMem`] pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u32);

/// A pool of 4 KiB frames at a guest-physical base address, with an
/// optional second *slab* window of physically contiguous 2 MiB runs at a
/// separate base (the huge-page promotion pool). Frame indices are flat:
/// `0..slab_start` live at `base`, `slab_start..` at `slab_base`.
pub struct PhysMem {
    base: Gpa,
    slab_base: Gpa,
    slab_start: usize,
    /// The page each frame holds; the slice bounds check rejects a frame
    /// past the end.
    frames: Vec<Mutex<Page>>,
}

impl PhysMem {
    /// Creates a pool of `frames` zeroed frames based at `base`.
    pub fn new(base: Gpa, frames: usize) -> PhysMem {
        Self::with_slab(base, frames, Gpa(base.get()), 0)
    }

    /// Creates `frames` ordinary frames at `base` plus `slab_frames`
    /// slab frames at `slab_base` (which must be 2 MiB-aligned and must
    /// not overlap the ordinary window).
    pub fn with_slab(base: Gpa, frames: usize, slab_base: Gpa, slab_frames: usize) -> PhysMem {
        if slab_frames > 0 {
            assert_eq!(
                slab_base.get() % (512 * PAGE_SIZE),
                0,
                "slab base not 2M-aligned"
            );
            let main_end = base.get() + frames as u64 * PAGE_SIZE;
            let slab_end = slab_base.get() + slab_frames as u64 * PAGE_SIZE;
            assert!(
                slab_base.get() >= main_end || base.get() >= slab_end,
                "slab window overlaps the ordinary frame window"
            );
        }
        PhysMem {
            base,
            slab_base,
            slab_start: frames,
            frames: (0..frames + slab_frames)
                .map(|_| Mutex::new(Page::zero()))
                .collect(),
        }
    }

    /// Number of frames in the pool (ordinary + slab).
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// First frame index of the slab window (== ordinary frame count).
    pub fn slab_start(&self) -> usize {
        self.slab_start
    }

    /// Base guest-physical address of the pool.
    pub fn base(&self) -> Gpa {
        self.base
    }

    /// Guest-physical base address of a frame.
    pub fn gpa_of(&self, frame: FrameId) -> Gpa {
        let idx = frame.0 as usize;
        if idx < self.slab_start {
            Gpa(self.base.get() + idx as u64 * PAGE_SIZE)
        } else {
            Gpa(self.slab_base.get() + (idx - self.slab_start) as u64 * PAGE_SIZE)
        }
    }

    /// Frame containing a guest-physical address, if inside either the
    /// ordinary or the slab window.
    pub fn frame_of(&self, gpa: Gpa) -> Option<FrameId> {
        if let Some(off) = gpa.get().checked_sub(self.base.get()) {
            let idx = (off / PAGE_SIZE) as usize;
            if idx < self.slab_start {
                return Some(FrameId(idx as u32));
            }
        }
        if self.slab_start < self.frames.len() {
            if let Some(off) = gpa.get().checked_sub(self.slab_base.get()) {
                let idx = self.slab_start + (off / PAGE_SIZE) as usize;
                if idx < self.frames.len() {
                    return Some(FrameId(idx as u32));
                }
            }
        }
        None
    }

    /// A reference to the page `frame` holds: writeback hands it to the
    /// device, which adopts it without copying.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn page(&self, frame: FrameId) -> Page {
        self.frames[frame.0 as usize].lock().clone()
    }

    /// Makes `page` the contents of `frame` (a fill by reference) and
    /// returns the page the frame held before.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn install(&self, frame: FrameId, page: Page) -> Page {
        std::mem::replace(&mut *self.frames[frame.0 as usize].lock(), page)
    }

    /// Copies bytes out of a frame starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range or the bytes cross its end.
    pub fn read(&self, frame: FrameId, offset: usize, buf: &mut [u8]) {
        let page = self.frames[frame.0 as usize].lock();
        buf.copy_from_slice(&page.read()[offset..offset + buf.len()]);
    }

    /// Copies bytes into a frame starting at `offset`. A page the frame
    /// shares (with a device store, say) is copied first, so the write
    /// stays private to the frame.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range or the bytes cross its end.
    pub fn write(&self, frame: FrameId, offset: usize, buf: &[u8]) {
        self.frames[frame.0 as usize]
            .lock()
            .write(|data| data[offset..offset + buf.len()].copy_from_slice(buf));
    }

    /// Zeroes a frame (frame recycling between mappings): it drops its
    /// page and holds the shared zero page again.
    pub fn zero(&self, frame: FrameId) {
        self.install(frame, Page::zero());
    }
}

impl core::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "PhysMem {{ base: {}, frames: {} }}",
            self.base,
            self.frames.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_start_zeroed() {
        let pm = PhysMem::new(Gpa(0x1000_0000), 4);
        assert!(pm.page(FrameId(0)).read().iter().all(|&b| b == 0));
        assert_eq!(pm.frame_count(), 4);
    }

    #[test]
    fn read_write_roundtrip() {
        let pm = PhysMem::new(Gpa(0), 2);
        pm.write(FrameId(1), 100, b"hello");
        let mut buf = [0u8; 5];
        pm.read(FrameId(1), 100, &mut buf);
        assert_eq!(&buf, b"hello");
        // Other frame unaffected.
        pm.read(FrameId(0), 100, &mut buf);
        assert_eq!(buf, [0; 5]);
    }

    #[test]
    fn gpa_frame_mapping_roundtrip() {
        let pm = PhysMem::new(Gpa(0x4000_0000), 8);
        let gpa = pm.gpa_of(FrameId(3));
        assert_eq!(gpa, Gpa(0x4000_3000));
        assert_eq!(pm.frame_of(gpa), Some(FrameId(3)));
        assert_eq!(pm.frame_of(Gpa(gpa.get() + 0xfff)), Some(FrameId(3)));
        assert_eq!(pm.frame_of(Gpa(0x3FFF_F000)), None);
        assert_eq!(pm.frame_of(Gpa(0x4000_8000)), None);
    }

    #[test]
    fn zero_recycles_frame() {
        let pm = PhysMem::new(Gpa(0), 1);
        pm.write(FrameId(0), 0, &[0xAA; 4096]);
        pm.zero(FrameId(0));
        assert!(pm.page(FrameId(0)).read().iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic]
    fn out_of_range_frame_panics() {
        let pm = PhysMem::new(Gpa(0), 1);
        pm.read(FrameId(1), 0, &mut [0u8; 1]);
    }

    #[test]
    fn slab_window_is_piecewise_contiguous() {
        // 4 ordinary frames at 4 GiB, one 2M slab run at 32 GiB.
        let pm = PhysMem::with_slab(Gpa(0x1_0000_0000), 4, Gpa(0x8_0000_0000), 512);
        assert_eq!(pm.frame_count(), 516);
        assert_eq!(pm.slab_start(), 4);
        // Ordinary frames translate from the ordinary base.
        assert_eq!(pm.gpa_of(FrameId(3)), Gpa(0x1_0000_3000));
        assert_eq!(pm.frame_of(Gpa(0x1_0000_3000)), Some(FrameId(3)));
        // One past the ordinary window is not the slab.
        assert_eq!(pm.frame_of(Gpa(0x1_0000_4000)), None);
        // Slab frames are contiguous at the slab base: frame 4 is the
        // run's first page, frame 4+511 its last.
        assert_eq!(pm.gpa_of(FrameId(4)), Gpa(0x8_0000_0000));
        assert_eq!(pm.gpa_of(FrameId(4 + 511)), Gpa(0x8_0000_0000 + 511 * 4096));
        assert_eq!(
            pm.frame_of(Gpa(0x8_0000_0000 + 511 * 4096)),
            Some(FrameId(515))
        );
        assert_eq!(pm.frame_of(Gpa(0x8_0000_0000 + 512 * 4096)), None);
        // Slab frames hold real, independent bytes.
        pm.write(FrameId(515), 0, b"slab");
        let mut buf = [0u8; 4];
        pm.read(FrameId(515), 0, &mut buf);
        assert_eq!(&buf, b"slab");
        pm.read(FrameId(3), 0, &mut buf);
        assert_eq!(buf, [0; 4]);
    }

    #[test]
    fn neighbouring_frames_are_independent() {
        let pm = PhysMem::new(Gpa(0), 513);
        pm.write(FrameId(511), 4090, b"tail51");
        pm.write(FrameId(512), 0, b"head");
        let mut buf = [0u8; 6];
        pm.read(FrameId(511), 4090, &mut buf);
        assert_eq!(&buf, b"tail51");
        pm.read(FrameId(512), 0, &mut buf[..4]);
        assert_eq!(&buf[..4], b"head");
        assert!(pm.page(FrameId(510)).is_zero());
        assert_eq!(pm.page(FrameId(512)).read().len(), 4096);
    }

    #[test]
    fn fills_share_pages_and_writes_make_the_frame_private() {
        let pm = PhysMem::new(Gpa(0), 2);
        assert!(pm.page(FrameId(0)).is_zero(), "no bytes until a fill");
        let store = Page::copy_of(&[0x5A; 4096]);
        assert!(pm.install(FrameId(0), store.clone()).is_zero());
        assert!(pm.page(FrameId(0)).same_as(&store), "filled by reference");
        let mut buf = [0u8; 2];
        pm.read(FrameId(0), 10, &mut buf);
        assert_eq!(buf, [0x5A; 2]);
        // The first write copies; the store's page keeps its bytes.
        pm.write(FrameId(0), 10, b"hi");
        let private = pm.page(FrameId(0));
        assert!(!private.same_as(&store));
        assert_eq!(&private.read()[9..13], &[0x5A, b'h', b'i', 0x5A]);
        assert!(store.read().iter().all(|&b| b == 0x5A));
        // Writeback hands the frame's page over; the next write copies
        // again, so the adopted page never changes under its new owner.
        let adopted = pm.page(FrameId(0));
        pm.write(FrameId(0), 0, b"x");
        assert_eq!(adopted.read()[0], 0x5A);
        pm.zero(FrameId(0));
        assert!(pm.page(FrameId(0)).is_zero());
    }

    #[test]
    #[should_panic]
    fn overlapping_slab_window_rejected() {
        PhysMem::with_slab(Gpa(0x8_0000_0000), 1024, Gpa(0x8_0020_0000), 512);
    }
}
