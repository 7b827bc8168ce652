//! Guest-physical memory backing the DRAM I/O cache.
//!
//! One contiguous guest-physical range holds the frames of the Aquila
//! DRAM cache (the paper resizes this range in 1 GiB EPT granules). The
//! bytes are real: page-fault handlers copy device data in, applications
//! read and write through their mappings, and writeback copies dirty
//! frames out — so KV stores and graph workloads running on the simulator
//! observe genuine data, not placeholders.
//!
//! Frames live in chunks of 512 (2 MiB of host memory each), one
//! reader-writer lock per chunk: neighbouring frames share host pages and
//! a lock word instead of a heap box and a lock each. The locks keep the
//! pool sound under real threads and are uncontended under the
//! single-threaded discrete-event engine.
//!
//! **Lock rule:** a frame's bytes are only reachable inside
//! [`PhysMem::with_frame`] / [`PhysMem::with_frame_mut`], which hold its
//! chunk's lock, or through a [`FramesView`], which holds the read locks
//! of every chunk a batch touches. No caller may take another frame while
//! inside one of them or while holding a view: the other frame may share
//! a chunk, and a nested write would deadlock. A view takes its read
//! locks in ascending chunk order, all at once, so two views never wait
//! on each other.

use std::sync::RwLockReadGuard;

use aquila_sync::RwLock;

use aquila_vmx::Gpa;

use crate::addr::PAGE_SIZE;

/// Frames per chunk: one 2 MiB host allocation and lock.
const CHUNK_FRAMES: usize = 512;
const FRAME_BYTES: usize = PAGE_SIZE as usize;

/// Index of a frame within a [`PhysMem`] pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u32);

/// A pool of real 4 KiB frames at a guest-physical base address, with an
/// optional second *slab* window of physically contiguous 2 MiB runs at a
/// separate base (the huge-page promotion pool). Frame indices are flat:
/// `0..slab_start` live at `base`, `slab_start..` at `slab_base`.
pub struct PhysMem {
    base: Gpa,
    slab_base: Gpa,
    slab_start: usize,
    frames: usize,
    /// Frame `i` is bytes `(i % 512) * 4096..` of chunk `i / 512`; the
    /// last chunk holds only the remainder, so the slice bounds check
    /// rejects a frame past the end.
    chunks: Vec<RwLock<Box<[u8]>>>,
}

impl PhysMem {
    /// Allocates a pool of `frames` zeroed frames based at `base`.
    pub fn new(base: Gpa, frames: usize) -> PhysMem {
        Self::with_slab(base, frames, Gpa(base.get()), 0)
    }

    /// Allocates `frames` ordinary frames at `base` plus `slab_frames`
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
        let total = frames + slab_frames;
        PhysMem {
            base,
            slab_base,
            slab_start: frames,
            frames: total,
            chunks: (0..total.div_ceil(CHUNK_FRAMES))
                .map(|c| {
                    let n = (total - c * CHUNK_FRAMES).min(CHUNK_FRAMES);
                    RwLock::new(vec![0u8; n * FRAME_BYTES].into_boxed_slice())
                })
                .collect(),
        }
    }

    /// Number of frames in the pool (ordinary + slab).
    pub fn frame_count(&self) -> usize {
        self.frames
    }

    /// The chunk holding `frame` and the frame's byte offset in it.
    #[inline]
    fn locate(&self, frame: FrameId) -> (&RwLock<Box<[u8]>>, usize) {
        let idx = frame.0 as usize;
        (
            &self.chunks[idx / CHUNK_FRAMES],
            (idx % CHUNK_FRAMES) * FRAME_BYTES,
        )
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
        if self.slab_start < self.frames {
            if let Some(off) = gpa.get().checked_sub(self.slab_base.get()) {
                let idx = self.slab_start + (off / PAGE_SIZE) as usize;
                if idx < self.frames {
                    return Some(FrameId(idx as u32));
                }
            }
        }
        None
    }

    /// Runs `f` with shared access to a frame's bytes.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn with_frame<R>(&self, frame: FrameId, f: impl FnOnce(&[u8]) -> R) -> R {
        let (chunk, off) = self.locate(frame);
        f(&chunk.read()[off..off + FRAME_BYTES])
    }

    /// Runs `f` with exclusive access to a frame's bytes.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn with_frame_mut<R>(&self, frame: FrameId, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let (chunk, off) = self.locate(frame);
        f(&mut chunk.write()[off..off + FRAME_BYTES])
    }

    /// Shared access to the bytes of every frame in `frames`, for as long
    /// as the view lives: device writes take their page lists straight
    /// from it. Takes the read locks of the chunks the frames live in, in
    /// ascending chunk order; see the module's lock rule.
    ///
    /// # Panics
    ///
    /// Panics if a frame is out of range.
    pub fn read_view(&self, frames: impl IntoIterator<Item = FrameId>) -> FramesView<'_> {
        let mut chunks: Vec<usize> = frames
            .into_iter()
            .map(|f| f.0 as usize / CHUNK_FRAMES)
            .collect();
        chunks.sort_unstable();
        chunks.dedup();
        FramesView {
            guards: chunks
                .into_iter()
                .map(|c| (c, self.chunks[c].read()))
                .collect(),
        }
    }

    /// Copies bytes out of a frame starting at `offset`.
    pub fn read(&self, frame: FrameId, offset: usize, buf: &mut [u8]) {
        self.with_frame(frame, |data| {
            buf.copy_from_slice(&data[offset..offset + buf.len()]);
        });
    }

    /// Copies bytes into a frame starting at `offset`.
    pub fn write(&self, frame: FrameId, offset: usize, buf: &[u8]) {
        self.with_frame_mut(frame, |data| {
            data[offset..offset + buf.len()].copy_from_slice(buf);
        });
    }

    /// Zeroes a frame (frame recycling between mappings).
    pub fn zero(&self, frame: FrameId) {
        self.with_frame_mut(frame, |data| data.fill(0));
    }
}

/// Read locks on the chunks of a batch of frames; see
/// [`PhysMem::read_view`].
pub struct FramesView<'a> {
    /// `(chunk index, its read guard)`, ascending by chunk.
    guards: Vec<(usize, RwLockReadGuard<'a, Box<[u8]>>)>,
}

impl FramesView<'_> {
    /// The bytes of `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` was not in the set the view was taken over.
    pub fn frame(&self, frame: FrameId) -> &[u8] {
        let idx = frame.0 as usize;
        let at = self
            .guards
            .binary_search_by_key(&(idx / CHUNK_FRAMES), |(c, _)| *c)
            .unwrap_or_else(|_| panic!("frame {} outside the view", frame.0));
        let off = (idx % CHUNK_FRAMES) * FRAME_BYTES;
        &self.guards[at].1[off..off + FRAME_BYTES]
    }
}

impl core::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "PhysMem {{ base: {}, frames: {} }}",
            self.base, self.frames
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_start_zeroed() {
        let pm = PhysMem::new(Gpa(0x1000_0000), 4);
        pm.with_frame(FrameId(0), |d| assert!(d.iter().all(|&b| b == 0)));
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
        pm.with_frame(FrameId(0), |d| assert!(d.iter().all(|&b| b == 0)));
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
    fn frames_across_a_chunk_boundary_are_independent() {
        // 513 frames: one full chunk plus a one-frame tail chunk.
        let pm = PhysMem::new(Gpa(0), 513);
        pm.write(FrameId(511), 4090, b"tail51");
        pm.write(FrameId(512), 0, b"head");
        let mut buf = [0u8; 6];
        pm.read(FrameId(511), 4090, &mut buf);
        assert_eq!(&buf, b"tail51");
        pm.read(FrameId(512), 0, &mut buf[..4]);
        assert_eq!(&buf[..4], b"head");
        pm.with_frame(FrameId(510), |d| assert!(d.iter().all(|&b| b == 0)));
        pm.with_frame(FrameId(512), |d| assert_eq!(d.len(), 4096));
    }

    #[test]
    fn read_view_spans_chunks_in_any_frame_order() {
        // Three chunks; the view covers frames in the first and third,
        // listed out of order and with a repeat.
        let pm = PhysMem::new(Gpa(0), 1100);
        for f in [3u32, 511, 512, 1099] {
            pm.write(FrameId(f), 0, &[f as u8; 8]);
        }
        let frames = [FrameId(1099), FrameId(3), FrameId(1099), FrameId(511)];
        let view = pm.read_view(frames);
        for f in [3u32, 511, 1099] {
            let data = view.frame(FrameId(f));
            assert_eq!(data.len(), FRAME_BYTES);
            assert_eq!(&data[..8], &[f as u8; 8]);
            assert!(data[8..].iter().all(|&b| b == 0));
        }
        assert_eq!(view.guards.len(), 2, "one guard per touched chunk");
        // Readers coexist with a view; the view holds no frame lock.
        pm.with_frame(FrameId(512), |d| assert_eq!(&d[..8], &[0u8; 8][..]));
        drop(view);
        pm.write(FrameId(3), 0, b"after");
    }

    #[test]
    #[should_panic(expected = "outside the view")]
    fn read_view_rejects_a_frame_it_does_not_cover() {
        let pm = PhysMem::new(Gpa(0), 1024);
        let view = pm.read_view([FrameId(0)]);
        view.frame(FrameId(600));
    }

    #[test]
    #[should_panic]
    fn overlapping_slab_window_rejected() {
        PhysMem::with_slab(Gpa(0x8_0000_0000), 1024, Gpa(0x8_0020_0000), 512);
    }
}
