//! Byte-addressable persistent memory (pmem) with DAX access.
//!
//! Models the paper's `pmem` configuration: a DRAM-backed emulated NVM
//! block device used to stress the software path (section 5), and the DAX
//! direct-access path Aquila uses for byte-addressable devices (section
//! 3.3). Data moves by memory copy; the cost model distinguishes the
//! kernel's scalar `memcpy` (~2400 cycles / 4 KiB) from Aquila's AVX2
//! streaming copy (~900 + 300 cycles FPU save/restore). The host moves
//! page references instead (the page pool of [`aquila_sim::page`]); the
//! copies are charged all the same.

use aquila_sim::{CostCat, Cycles, Page, ServiceCenter, SimCtx};

use crate::error::DeviceError;
use crate::store::{PageStore, STORE_PAGE};

// Timing of the paper's `pmem` emulation: DRAM-backed (dual-socket
// DDR4-2400, ~50 GB/s effective), so much faster than real NVM. Used to
// stress the software path.
/// Load latency for a cacheline-sized access.
const LOAD_LATENCY: Cycles = Cycles::from_nanos(80);
/// Aggregate bandwidth cap in bytes/s.
const MAX_BW: u64 = 50_000_000_000;
/// Concurrent access channels (iMC queue depth).
const CHANNELS: usize = 48;

/// A byte-addressable persistent-memory device.
pub struct PmemDevice {
    store: PageStore,
    service: ServiceCenter,
}

impl PmemDevice {
    /// Creates a DRAM-backed pmem device of `pages` 4 KiB pages (the
    /// paper's `pmem` block device).
    pub fn dram_backed(pages: u64) -> PmemDevice {
        PmemDevice {
            store: PageStore::new(pages),
            service: ServiceCenter::new(CHANNELS, 0, MAX_BW),
        }
    }

    /// Device capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.store.page_count()
    }

    /// Direct access to the underlying store.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Resets the timing model (between experiment phases; contents are
    /// untouched).
    pub fn reset_timing(&self) {
        self.service.reset();
    }

    /// DAX read of `out.len()` pages from `page`, charged as one copy
    /// (`simd` selects Aquila's AVX2 streaming copy) paced against device
    /// bandwidth. The model pays the copy into the cache frame; the host
    /// hands out references to the stored pages instead of moving their
    /// bytes.
    pub fn dax_read(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        out: &mut [Page],
        simd: bool,
    ) -> Result<(), DeviceError> {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.store.page(page + i as u64)?;
        }
        let bytes = (out.len() * STORE_PAGE) as u64;
        let sp = aquila_sim::span::begin(ctx, "pmem.read", CostCat::Memcpy);
        self.transfer(ctx, bytes, simd);
        ctx.counters().device_reads += 1;
        ctx.counters().bytes_read += bytes;
        aquila_sim::span::end(ctx, sp);
        Ok(())
    }

    /// DAX write of `pages` to the consecutive device pages from `page`,
    /// charged as one copy of the whole run; mirror of
    /// [`Self::dax_read`]. The store adopts the pages themselves.
    pub fn dax_write(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        pages: &[Page],
        simd: bool,
    ) -> Result<(), DeviceError> {
        let bytes = pages.len() * STORE_PAGE;
        self.store.write_pages(page, pages, bytes)?;
        let sp = aquila_sim::span::begin(ctx, "pmem.write", CostCat::Memcpy);
        self.transfer(ctx, bytes as u64, simd);
        ctx.counters().device_writes += 1;
        ctx.counters().bytes_written += bytes as u64;
        aquila_sim::span::end(ctx, sp);
        Ok(())
    }

    /// Charges moving `bytes` by memcpy and waits out the device's
    /// bandwidth share of the transfer.
    fn transfer(&self, ctx: &mut dyn SimCtx, bytes: u64, simd: bool) {
        let copy = ctx.cost().memcpy(bytes, simd);
        let r = self.service.submit(ctx.now(), LOAD_LATENCY, bytes);
        ctx.charge(CostCat::Memcpy, copy);
        ctx.wait_until(r.end, CostCat::DeviceIo);
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
    use aquila_sim::FreeCtx;

    fn pages_of(buf: &[u8]) -> Vec<Page> {
        buf.chunks(STORE_PAGE).map(Page::copy_of).collect()
    }

    #[test]
    fn dax_roundtrip_preserves_data() {
        let dev = PmemDevice::dram_backed(16);
        let mut ctx = FreeCtx::new(1);
        let data: Vec<u8> = (0..STORE_PAGE).map(|i| (i % 256) as u8).collect();
        let written = pages_of(&data);
        dev.dax_write(&mut ctx, 3, &written, true).unwrap();
        let mut back = [Page::zero()];
        dev.dax_read(&mut ctx, 3, &mut back, true).unwrap();
        assert!(
            back[0].same_as(&written[0]),
            "the fill shares the stored page"
        );
        assert_eq!(*back[0].read(), data[..]);
        assert_eq!(ctx.stats.device_reads, 1);
        assert_eq!(ctx.stats.device_writes, 1);
    }

    #[test]
    fn simd_copy_is_cheaper() {
        let dev = PmemDevice::dram_backed(16);
        let data = [Page::zero()];

        let mut ctx_simd = FreeCtx::new(1);
        dev.dax_write(&mut ctx_simd, 0, &data, true).unwrap();
        let mut ctx_scalar = FreeCtx::new(1);
        dev.dax_write(&mut ctx_scalar, 1, &data, false).unwrap();

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
        let chunk = vec![Page::zero(); 64];
        for i in 0..4 {
            dev.dax_write(&mut ctx, i * 64, &chunk, true).unwrap();
        }
        assert!(ctx.now() >= Cycles::from_micros(50), "paced: {}", ctx.now());
    }

    #[test]
    fn out_of_range_io_is_error() {
        let dev = PmemDevice::dram_backed(4);
        let mut ctx = FreeCtx::new(1);
        assert!(matches!(
            dev.dax_write(&mut ctx, 4, &[Page::zero()], true),
            Err(DeviceError::OutOfRange { page: 4, .. })
        ));
        assert!(matches!(
            dev.dax_read(&mut ctx, 3, &mut [Page::zero(), Page::zero()], true),
            Err(DeviceError::OutOfRange { page: 4, .. })
        ));
    }
}
