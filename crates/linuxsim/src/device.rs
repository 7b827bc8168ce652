//! In-kernel device fill paths for the Linux baselines.
//!
//! A Linux page-cache fill happens *inside* the fault handler: no extra
//! syscall is paid, but the kernel cannot use SIMD copies (section 3.3)
//! and NVMe goes through the interrupt-driven block layer.

use std::sync::Arc;

use aquila_devices::{page_list, BufRef, NvmeDevice, NvmeOp, PmemDevice, STORE_PAGE};
use aquila_sim::{CostCat, Page, SimCtx};

/// A device as seen from the host kernel.
#[derive(Clone)]
pub enum KernelDevice {
    /// A pmem block device: fills are scalar memcpys.
    Pmem(Arc<PmemDevice>),
    /// An NVMe SSD through the kernel block layer.
    Nvme(Arc<NvmeDevice>),
}

impl KernelDevice {
    /// Resets the device timing model (between experiment phases).
    pub fn reset_timing(&self) {
        match self {
            KernelDevice::Pmem(d) => d.reset_timing(),
            KernelDevice::Nvme(d) => d.reset_timing(),
        }
    }

    /// Device capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        match self {
            KernelDevice::Pmem(d) => d.capacity_pages(),
            KernelDevice::Nvme(d) => d.capacity_pages(),
        }
    }

    /// Reads pages from within the kernel (fault fill / readahead).
    pub fn read_pages(&self, ctx: &mut dyn SimCtx, page: u64, buf: &mut [u8]) {
        let mut out = vec![Page::zero(); buf.len() / STORE_PAGE];
        match self {
            KernelDevice::Pmem(d) => {
                // Kernel pmem driver: scalar copy, small block-glue cost.
                ctx.charge(CostCat::DeviceIo, aquila_sim::Cycles(240));
                d.dax_read(ctx, page, &mut out, false)
                    .expect("kernel fill within device bounds");
            }
            KernelDevice::Nvme(d) => {
                let c = ctx.cost().nvme_submit_kernel;
                ctx.charge(CostCat::DeviceIo, c);
                let qp = d.create_qpair();
                qp.submit(
                    ctx.now(),
                    NvmeOp::Read,
                    page,
                    out.len(),
                    BufRef::Out(&mut out),
                )
                .expect("kernel fill within device bounds");
                // Interrupt-driven completion: CPU idles.
                qp.drain(ctx, CostCat::Idle);
                ctx.counters().device_reads += 1;
                ctx.counters().bytes_read += buf.len() as u64;
            }
        }
        // The kernel's page-cache pages are its own: one copy each.
        for (dst, data) in buf.chunks_exact_mut(STORE_PAGE).zip(&out) {
            dst.copy_from_slice(&data.read());
        }
    }

    /// Writes a page list (one 4 KiB slice per page) to consecutive
    /// device pages from `page`, from within the kernel (writeback).
    pub fn write_page_list(&self, ctx: &mut dyn SimCtx, page: u64, pages: &[&[u8]]) {
        // The kernel's buffers are its own: the device takes one copy of
        // each page.
        let pages: Vec<Page> = pages.iter().map(|p| Page::copy_of(p)).collect();
        let pages = &pages[..];
        match self {
            KernelDevice::Pmem(d) => {
                ctx.charge(CostCat::DeviceIo, aquila_sim::Cycles(240));
                d.dax_write(ctx, page, pages, false)
                    .expect("kernel writeback within device bounds");
            }
            KernelDevice::Nvme(d) => {
                let c = ctx.cost().nvme_submit_kernel;
                ctx.charge(CostCat::DeviceIo, c);
                let qp = d.create_qpair();
                qp.submit(
                    ctx.now(),
                    NvmeOp::Write,
                    page,
                    pages.len(),
                    BufRef::Pages(pages),
                )
                .expect("kernel writeback within device bounds");
                qp.drain(ctx, CostCat::Idle);
                ctx.counters().device_writes += 1;
                ctx.counters().bytes_written += (pages.len() * STORE_PAGE) as u64;
            }
        }
    }

    /// Writes `buf.len() / 4096` pages from a contiguous buffer, split
    /// into its page list.
    pub fn write_pages(&self, ctx: &mut dyn SimCtx, page: u64, buf: &[u8]) {
        self.write_page_list(ctx, page, &page_list(buf));
    }
}

impl core::fmt::Debug for KernelDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernelDevice::Pmem(_) => write!(f, "KernelDevice::Pmem"),
            KernelDevice::Nvme(_) => write!(f, "KernelDevice::Nvme"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::FreeCtx;

    #[test]
    fn pmem_fill_costs_scalar_memcpy() {
        let dev = KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(16)));
        let mut ctx = FreeCtx::new(1);
        let mut buf = vec![0u8; STORE_PAGE];
        dev.read_pages(&mut ctx, 0, &mut buf);
        // Scalar 4K copy (~2430) + glue (~240): the paper's ~2.6K-cycle
        // device component of a Linux pmem fault (Figure 8(a)).
        let total = ctx.now().get();
        assert!((2200..3600).contains(&total), "pmem fill cost {total}");
    }

    #[test]
    fn nvme_fill_waits_idle() {
        let dev = KernelDevice::Nvme(Arc::new(NvmeDevice::optane(16)));
        let mut ctx = FreeCtx::new(1);
        let mut buf = vec![0u8; STORE_PAGE];
        dev.read_pages(&mut ctx, 0, &mut buf);
        assert!(ctx.breakdown.get(CostCat::Idle) >= aquila_sim::Cycles::from_micros(9));
    }

    #[test]
    fn kernel_write_roundtrip() {
        for dev in [
            KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(16))),
            KernelDevice::Nvme(Arc::new(NvmeDevice::optane(16))),
        ] {
            let mut ctx = FreeCtx::new(1);
            let data = vec![0x3Cu8; STORE_PAGE];
            dev.write_pages(&mut ctx, 3, &data);
            let mut back = vec![0u8; STORE_PAGE];
            dev.read_pages(&mut ctx, 3, &mut back);
            assert_eq!(back, data, "{dev:?}");
        }
    }
}
