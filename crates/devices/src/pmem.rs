//! Byte-addressable persistent memory (pmem) with DAX access.
//!
//! Models the paper's `pmem` configuration: a DRAM-backed emulated NVM
//! block device used to stress the software path (section 5), and the DAX
//! direct-access path Aquila uses for byte-addressable devices (section
//! 3.3). Data moves by memory copy; the cost model distinguishes the
//! kernel's scalar `memcpy` (~2400 cycles / 4 KiB) from Aquila's AVX2
//! streaming copy (~900 + 300 cycles FPU save/restore).

use aquila_sim::{Cycles, ServiceCenter, SimCtx};

use crate::error::DeviceError;
use crate::store::{PageStore, STORE_PAGE};

/// Performance profile for a pmem DIMM region.
#[derive(Debug, Clone)]
pub struct PmemProfile {
    /// Load latency for a cacheline-sized access (Optane DC PMM: ~300 ns).
    pub load_latency: Cycles,
    /// Aggregate bandwidth cap in bytes/s.
    pub max_bw: u64,
    /// Concurrent access channels (iMC queue depth).
    pub channels: usize,
}

impl PmemProfile {
    /// The paper's `pmem` emulation: DRAM-backed (dual-socket DDR4-2400,
    /// ~50 GB/s effective), so much faster than real NVM. Used to stress
    /// the software path.
    pub fn dram_backed() -> PmemProfile {
        PmemProfile {
            load_latency: Cycles::from_nanos(80),
            max_bw: 50_000_000_000,
            channels: 48,
        }
    }
}

/// A byte-addressable persistent-memory device.
pub struct PmemDevice {
    store: PageStore,
    service: ServiceCenter,
    profile: PmemProfile,
}

impl PmemDevice {
    /// Creates a pmem device of `pages` 4 KiB pages.
    pub fn new(pages: u64, profile: PmemProfile) -> PmemDevice {
        PmemDevice {
            store: PageStore::new(pages),
            service: ServiceCenter::new(profile.channels, 0, profile.max_bw),
            profile,
        }
    }

    /// Creates a DRAM-backed pmem device (the paper's `pmem` block device).
    pub fn dram_backed(pages: u64) -> PmemDevice {
        PmemDevice::new(pages, PmemProfile::dram_backed())
    }

    /// Device capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.store.page_count()
    }

    /// Direct access to the underlying store.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// The device profile.
    pub fn profile(&self) -> &PmemProfile {
        &self.profile
    }

    /// Resets the timing model (between experiment phases; contents are
    /// untouched).
    pub fn reset_timing(&self) {
        self.service.reset();
    }

    /// DAX copy of `buf.len()` bytes from device offset `pos` into `buf`,
    /// charging the memcpy cost (`simd` selects Aquila's AVX2 streaming
    /// copy) and pacing against device bandwidth.
    ///
    /// Returns the cycles spent (CPU copy plus any bandwidth stall).
    pub fn dax_read(
        &self,
        ctx: &mut dyn SimCtx,
        pos: u64,
        buf: &mut [u8],
        simd: bool,
    ) -> Result<Cycles, DeviceError> {
        let before = ctx.now();
        self.store.read_range(pos, buf)?;
        let sp = aquila_sim::span::begin(ctx, "pmem.read", aquila_sim::CostCat::Memcpy);
        let copy = ctx.cost().memcpy(buf.len() as u64, simd);
        let r = self
            .service
            .submit(ctx.now(), self.profile.load_latency, buf.len() as u64);
        ctx.charge(aquila_sim::CostCat::Memcpy, copy);
        ctx.wait_until(r.end, aquila_sim::CostCat::DeviceIo);
        ctx.counters().device_reads += 1;
        ctx.counters().bytes_read += buf.len() as u64;
        aquila_sim::span::end(ctx, sp);
        Ok(ctx.now() - before)
    }

    /// DAX copy of a page list (one 4 KiB slice per page) to the
    /// consecutive device pages from `page`, charged as one copy of the
    /// whole run; mirror of [`Self::dax_read`].
    pub fn dax_write(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        pages: &[&[u8]],
        simd: bool,
    ) -> Result<Cycles, DeviceError> {
        let bytes = pages.len() * STORE_PAGE;
        if pages.iter().any(|p| p.len() != STORE_PAGE) {
            return Err(DeviceError::BufferSize {
                expected: bytes,
                got: pages.iter().map(|p| p.len()).sum(),
            });
        }
        let before = ctx.now();
        self.store.write_pages(page, pages, bytes)?;
        let sp = aquila_sim::span::begin(ctx, "pmem.write", aquila_sim::CostCat::Memcpy);
        let copy = ctx.cost().memcpy(bytes as u64, simd);
        let r = self
            .service
            .submit(ctx.now(), self.profile.load_latency, bytes as u64);
        ctx.charge(aquila_sim::CostCat::Memcpy, copy);
        ctx.wait_until(r.end, aquila_sim::CostCat::DeviceIo);
        ctx.counters().device_writes += 1;
        ctx.counters().bytes_written += bytes as u64;
        aquila_sim::span::end(ctx, sp);
        Ok(ctx.now() - before)
    }

    /// Page-granular DAX read (the common fault-fill size).
    pub fn dax_read_page(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        buf: &mut [u8],
        simd: bool,
    ) -> Result<(), DeviceError> {
        if buf.len() != STORE_PAGE {
            return Err(DeviceError::BufferSize {
                expected: STORE_PAGE,
                got: buf.len(),
            });
        }
        self.dax_read(ctx, page * STORE_PAGE as u64, buf, simd)?;
        Ok(())
    }
}

impl core::fmt::Debug for PmemDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PmemDevice {{ pages: {} }}", self.capacity_pages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::page_list;
    use aquila_sim::{CostCat, FreeCtx};

    #[test]
    fn dax_roundtrip_preserves_data() {
        let dev = PmemDevice::dram_backed(16);
        let mut ctx = FreeCtx::new(1);
        let data: Vec<u8> = (0..STORE_PAGE).map(|i| (i % 256) as u8).collect();
        dev.dax_write(&mut ctx, 3, &[&data], true).unwrap();
        let mut back = vec![0u8; STORE_PAGE];
        dev.dax_read_page(&mut ctx, 3, &mut back, true).unwrap();
        assert_eq!(back, data);
        assert_eq!(ctx.stats.device_reads, 1);
        assert_eq!(ctx.stats.device_writes, 1);
    }

    #[test]
    fn simd_copy_is_cheaper() {
        let dev = PmemDevice::dram_backed(16);
        let data = vec![0u8; STORE_PAGE];

        let mut ctx_simd = FreeCtx::new(1);
        dev.dax_write(&mut ctx_simd, 0, &[&data], true).unwrap();
        let mut ctx_scalar = FreeCtx::new(1);
        dev.dax_write(&mut ctx_scalar, 1, &[&data], false).unwrap();

        let simd = ctx_simd.breakdown.get(CostCat::Memcpy);
        let scalar = ctx_scalar.breakdown.get(CostCat::Memcpy);
        assert!(
            scalar.get() as f64 / simd.get() as f64 > 1.8,
            "simd {simd} vs scalar {scalar}"
        );
    }

    #[test]
    fn bandwidth_paces_bulk_traffic() {
        // 20 GB/s: copying 1 MB takes at least 1 MB / 20 GB/s = 50 us on
        // top of the CPU copy cost.
        let dev = PmemDevice::dram_backed(512);
        let mut ctx = FreeCtx::new(1);
        let chunk = vec![0u8; 256 * 1024];
        for i in 0..4 {
            dev.dax_write(&mut ctx, i * 64, &page_list(&chunk), true)
                .unwrap();
        }
        assert!(ctx.now() >= Cycles::from_micros(50), "paced: {}", ctx.now());
    }

    #[test]
    fn sub_page_ranges_work() {
        let dev = PmemDevice::dram_backed(4);
        let mut ctx = FreeCtx::new(1);
        let mut page = vec![0u8; STORE_PAGE];
        page[904..908].copy_from_slice(b"tail");
        dev.dax_write(&mut ctx, 1, &[&page], true).unwrap();
        let mut buf = [0u8; 4];
        dev.dax_read(&mut ctx, 5000, &mut buf, false).unwrap();
        assert_eq!(&buf, b"tail");
    }

    #[test]
    fn mis_sized_page_io_is_error() {
        let dev = PmemDevice::dram_backed(4);
        let mut ctx = FreeCtx::new(1);
        assert_eq!(
            dev.dax_write(&mut ctx, 0, &[&[0u8; 100]], true),
            Err(DeviceError::BufferSize {
                expected: STORE_PAGE,
                got: 100
            })
        );
        assert!(matches!(
            dev.dax_read(&mut ctx, 4 * STORE_PAGE as u64, &mut [0u8; 8], false),
            Err(DeviceError::OutOfRange { .. })
        ));
    }
}
