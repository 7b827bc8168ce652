//! Storage access paths: *how* a page moves between the DRAM cache and a
//! device.
//!
//! The paper's Figure 8(c) compares four ways Aquila can reach storage:
//!
//! | Path        | Mechanism                              | Cost structure |
//! |-------------|----------------------------------------|----------------|
//! | `SPDK-NVMe` | polled user-space driver, no kernel    | submit CPU + device time (spinning) |
//! | `HOST-NVMe` | direct-I/O syscall into the host OS    | vmcall/syscall + kernel path + device time (idle) |
//! | `DAX-pmem`  | AVX2 streaming memcpy to mapped NVM    | SIMD copy + bandwidth |
//! | `HOST-pmem` | direct-I/O syscall, kernel scalar copy | vmcall/syscall + kernel path + scalar copy |
//!
//! All four implement [`StorageAccess`], so the page cache and the mmio
//! engines are parameterized over the access method — which is exactly the
//! customization the paper argues for.

use std::sync::Arc;

use aquila_sim::{CostCat, Page, SimCtx};

use crate::error::DeviceError;
use crate::nvme::{BufRef, NvmeDevice, NvmeOp, QueuePair};
use crate::pmem::PmemDevice;
use crate::retry::{CircuitBreaker, RetryPolicy};
use crate::store::{page_list, STORE_PAGE};

/// Which protection domain the caller sits in, which determines the price
/// of asking the host kernel for I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallDomain {
    /// A conventional ring-3 process: host I/O costs a syscall.
    User,
    /// Aquila in VMX non-root ring 0: host I/O costs a vmcall.
    Guest,
    /// Already in the host kernel (the Linux mmap fault handler): host I/O
    /// costs neither.
    Kernel,
}

impl CallDomain {
    fn charge_entry(self, ctx: &mut dyn SimCtx) {
        match self {
            CallDomain::User => {
                let c = ctx.cost().syscall_entry_exit;
                ctx.charge(CostCat::Syscall, c);
                ctx.counters().syscalls += 1;
            }
            CallDomain::Guest => {
                let c = ctx.cost().vmcall;
                ctx.charge(CostCat::Vmexit, c);
                ctx.counters().vmexits += 1;
            }
            CallDomain::Kernel => {}
        }
    }
}

/// A named access-path kind, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Polled user-space NVMe driver (SPDK).
    SpdkNvme,
    /// Host-kernel direct I/O to NVMe.
    HostNvme,
    /// DAX memcpy to byte-addressable NVM.
    DaxPmem,
    /// Host-kernel direct I/O to the pmem block device.
    HostPmem,
}

impl AccessKind {
    /// Stable display name (matches the paper's Figure 8(c) labels).
    pub fn name(self) -> &'static str {
        match self {
            AccessKind::SpdkNvme => "SPDK-NVMe",
            AccessKind::HostNvme => "HOST-NVMe",
            AccessKind::DaxPmem => "DAX-pmem",
            AccessKind::HostPmem => "HOST-pmem",
        }
    }
}

/// A blocking page-granular storage path.
///
/// `read_refs`/`write_refs` return once the data is usable, having
/// charged all CPU, transition, and device costs to the context.
///
/// Data moves as [`Page`] references into the process-wide page pool
/// ([`aquila_sim::page`]): a read hands out the device's own pages and a
/// write's pages are adopted by the device's store, one page per device
/// page in device order, like an NVMe PRP list. A cache fill therefore
/// installs the device's page in its frame and writeback hands the frame's
/// page over; the host copies a page only when one side later writes it.
/// The charges model the hardware and are the same as if every byte
/// moved. The slice forms [`StorageAccess::read_pages`] and
/// [`StorageAccess::write_page_list`] are provided wrappers that copy
/// once, for callers that keep their bytes in their own buffers.
pub trait StorageAccess: Send + Sync {
    /// The path's kind.
    fn kind(&self) -> AccessKind;
    /// Device capacity in 4 KiB pages.
    fn capacity_pages(&self) -> u64;
    /// Reads `out.len()` pages starting at `page` as one command; each
    /// slot receives a reference to the device's page.
    fn read_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        out: &mut [Page],
    ) -> Result<(), DeviceError>;
    /// Writes `pages.len()` device-contiguous pages starting at `page` as
    /// one command; the device adopts the pages themselves.
    fn write_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        pages: &[Page],
    ) -> Result<(), DeviceError>;
    /// Reads `buf.len() / 4096` pages starting at `page` into a
    /// contiguous buffer: [`StorageAccess::read_refs`] plus one copy per
    /// page.
    fn read_pages(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        buf: &mut [u8],
    ) -> Result<(), DeviceError> {
        if !buf.len().is_multiple_of(STORE_PAGE) {
            return Err(DeviceError::BufferSize {
                expected: buf.len().next_multiple_of(STORE_PAGE),
                got: buf.len(),
            });
        }
        let mut out = vec![Page::zero(); buf.len() / STORE_PAGE];
        self.read_refs(ctx, page, &mut out)?;
        for (dst, data) in buf.chunks_exact_mut(STORE_PAGE).zip(&out) {
            dst.copy_from_slice(&data.read());
        }
        Ok(())
    }
    /// Writes a page list of 4 KiB slices to consecutive pages from
    /// `page` as one command: one copy per page into a fresh [`Page`],
    /// then [`StorageAccess::write_refs`].
    fn write_page_list(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        pages: &[&[u8]],
    ) -> Result<(), DeviceError> {
        if pages.iter().any(|p| p.len() != STORE_PAGE) {
            return Err(DeviceError::BufferSize {
                expected: pages.len() * STORE_PAGE,
                got: pages.iter().map(|p| p.len()).sum(),
            });
        }
        let copies: Vec<Page> = pages.iter().map(|p| Page::copy_of(p)).collect();
        self.write_refs(ctx, page, &copies)
    }
    /// Writes `buf.len() / 4096` pages starting at `page`, from a
    /// contiguous buffer split into its page list.
    fn write_pages(&self, ctx: &mut dyn SimCtx, page: u64, buf: &[u8]) -> Result<(), DeviceError> {
        self.write_page_list(ctx, page, &page_list(buf))
    }
    /// Writes a batch of device-contiguous segments `(first page,
    /// pages)`, keeping up to `depth` commands in flight where the path
    /// has real queue pairs, and returns the number of device commands
    /// issued. Every segment is durable when it returns `Ok`.
    ///
    /// This is the engine's one writeback primitive. The
    /// default is the blocking one-command-then-drain loop over
    /// [`StorageAccess::write_refs`], which is what DAX, the host-kernel
    /// paths and `depth <= 1` use.
    fn write_batch(
        &self,
        ctx: &mut dyn SimCtx,
        segs: &[(u64, &[Page])],
        _depth: usize,
    ) -> Result<u64, DeviceError> {
        write_each(self, ctx, segs)
    }
    /// Resets the underlying device's timing model (between experiment
    /// phases; contents untouched).
    fn reset_timing(&self);
    /// The raw NVMe device behind this path, when there is one (the
    /// primary, for a mirror). Harnesses use it to attach per-device fault
    /// plans and to capture device images; I/O goes through the access
    /// path's own methods.
    fn nvme_device(&self) -> Option<&Arc<NvmeDevice>> {
        None
    }
    /// The write-path circuit breaker, when the path has one (the
    /// primary's, for a mirror). Once it opens, writes fail with
    /// [`DeviceError::CircuitOpen`], on which the engine degrades the
    /// region (DESIGN.md §11).
    fn breaker(&self) -> Option<&Arc<CircuitBreaker>> {
        None
    }
    /// Verifies one device page against its recorded checksums,
    /// repairing it if a clean replica copy exists. Returns whether a
    /// repair happened. Paths without integrity metadata have nothing
    /// to scrub.
    fn scrub_page(&self, _ctx: &mut dyn SimCtx, _page: u64) -> Result<bool, DeviceError> {
        Ok(false)
    }
    /// Integrity counters, when the path verifies checksums (the
    /// mirrored path). `None` elsewhere.
    fn integrity_counters(&self) -> Option<crate::mirror::IntegrityCounters> {
        None
    }
}

/// Blocking batch write: one [`StorageAccess::write_refs`] per segment.
pub(crate) fn write_each<A: StorageAccess + ?Sized>(
    access: &A,
    ctx: &mut dyn SimCtx,
    segs: &[(u64, &[Page])],
) -> Result<u64, DeviceError> {
    for &(page, pages) in segs {
        access.write_refs(ctx, page, pages)?;
    }
    Ok(segs.len() as u64)
}

/// Records the device's queue occupancy right after a submission: a trace
/// counter track ("nvme.inflight") plus a high-water-mark gauge. No-ops
/// without an installed tracer/registry, and never charges cycles.
fn record_nvme_occupancy(ctx: &dyn SimCtx, dev: &NvmeDevice) {
    if !aquila_sim::trace::enabled() && aquila_sim::metrics::global().is_none() {
        return;
    }
    let depth = dev.inflight_at(ctx.now()) as u64;
    aquila_sim::trace::counter(ctx, "nvme.inflight", depth);
    aquila_sim::metrics::gauge(ctx, "nvme.inflight.max", depth);
}

/// SPDK-style polled user-space NVMe access (no kernel on the I/O path).
pub struct SpdkAccess {
    dev: Arc<NvmeDevice>,
    retry: RetryPolicy,
    breaker: Arc<CircuitBreaker>,
}

impl SpdkAccess {
    /// Wraps a device. Direct access requires the device be dedicated to
    /// this process (the paper's protection argument), which the type
    /// system encodes by taking ownership of the only handle used for I/O.
    pub fn new(dev: Arc<NvmeDevice>) -> SpdkAccess {
        SpdkAccess::with_retry(dev, RetryPolicy::default())
    }

    /// Wraps a device with an explicit retry policy.
    pub fn with_retry(dev: Arc<NvmeDevice>, retry: RetryPolicy) -> SpdkAccess {
        SpdkAccess {
            dev,
            retry,
            breaker: CircuitBreaker::new(retry.breaker_threshold, retry.breaker_cooldown),
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<NvmeDevice> {
        &self.dev
    }

    /// Submits one write on `qp`, a depth-bounded queue pair over this
    /// path's device, without waiting for it to complete. Transient
    /// command failures retry with backoff and feed the write-path
    /// breaker; [`DeviceError::QueueFull`] stays the pacing signal inside
    /// each attempt: the submitter waits until the earliest in-flight
    /// command lands, harvests it, and submits again.
    pub(crate) fn queue_write(
        &self,
        ctx: &mut dyn SimCtx,
        qp: &QueuePair<'_>,
        page: u64,
        pages: &[Page],
    ) -> Result<(), DeviceError> {
        self.retry.run(ctx, Some(&self.breaker), |ctx| {
            let submit = ctx.cost().nvme_submit_poll;
            ctx.charge(CostCat::DeviceIo, submit);
            loop {
                let res = qp.submit(
                    ctx.now(),
                    NvmeOp::Write,
                    page,
                    pages.len(),
                    BufRef::Pages(pages),
                );
                match res {
                    Ok(_) => return Ok(()),
                    Err(DeviceError::QueueFull { .. }) => {
                        if let Some(t) = qp.earliest_finish() {
                            ctx.wait_until(t, CostCat::DeviceIo);
                        }
                        qp.poll(ctx.now());
                    }
                    Err(e) => return Err(e),
                }
            }
        })?;
        ctx.counters().device_writes += 1;
        ctx.counters().bytes_written += (pages.len() * STORE_PAGE) as u64;
        Ok(())
    }
}

impl StorageAccess for SpdkAccess {
    fn kind(&self) -> AccessKind {
        AccessKind::SpdkNvme
    }

    fn reset_timing(&self) {
        self.dev.reset_timing();
    }

    fn capacity_pages(&self) -> u64 {
        self.dev.capacity_pages()
    }

    fn read_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        out: &mut [Page],
    ) -> Result<(), DeviceError> {
        let pages = out.len();
        // Reads retry but never consult the breaker: a degraded region
        // must keep serving reads (DESIGN.md §11).
        self.retry.run(ctx, None, |ctx| {
            let submit = ctx.cost().nvme_submit_poll;
            ctx.charge(CostCat::DeviceIo, submit);
            let t0 = ctx.now();
            let sp = aquila_sim::span::begin(ctx, "nvme.read", CostCat::DeviceIo);
            let qp = self.dev.create_qpair();
            let submitted = qp.submit(ctx.now(), NvmeOp::Read, page, pages, BufRef::Out(out));
            record_nvme_occupancy(ctx, &self.dev);
            if let Err(e) = submitted {
                aquila_sim::span::end(ctx, sp);
                return Err(e);
            }
            // Polled completion: the CPU spins, so the wait is DeviceIo
            // (busy), not Idle.
            qp.drain(ctx, CostCat::DeviceIo);
            let served = ctx.now() - t0;
            self.retry.observe_latency(ctx, served);
            aquila_sim::span::end(ctx, sp);
            Ok(())
        })?;
        ctx.counters().device_reads += 1;
        ctx.counters().bytes_read += (pages * STORE_PAGE) as u64;
        Ok(())
    }

    fn write_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        list: &[Page],
    ) -> Result<(), DeviceError> {
        let pages = list.len();
        self.retry.run(ctx, Some(&self.breaker), |ctx| {
            let submit = ctx.cost().nvme_submit_poll;
            ctx.charge(CostCat::DeviceIo, submit);
            let t0 = ctx.now();
            let sp = aquila_sim::span::begin(ctx, "nvme.write", CostCat::DeviceIo);
            let qp = self.dev.create_qpair();
            let submitted = qp.submit(ctx.now(), NvmeOp::Write, page, pages, BufRef::Pages(list));
            record_nvme_occupancy(ctx, &self.dev);
            if let Err(e) = submitted {
                aquila_sim::span::end(ctx, sp);
                return Err(e);
            }
            qp.drain(ctx, CostCat::DeviceIo);
            let served = ctx.now() - t0;
            self.retry.observe_latency(ctx, served);
            aquila_sim::span::end(ctx, sp);
            Ok(())
        })?;
        ctx.counters().device_writes += 1;
        ctx.counters().bytes_written += (pages * STORE_PAGE) as u64;
        Ok(())
    }

    /// Submits every segment through one queue pair of depth `depth`, so
    /// device service overlaps across commands, then busy-waits for the
    /// tail (SPDK-style polled completion).
    fn write_batch(
        &self,
        ctx: &mut dyn SimCtx,
        segs: &[(u64, &[Page])],
        depth: usize,
    ) -> Result<u64, DeviceError> {
        if depth <= 1 {
            return write_each(self, ctx, segs);
        }
        let qp = self.dev.create_qpair_depth(depth);
        for &(page, pages) in segs {
            self.queue_write(ctx, &qp, page, pages)?;
        }
        qp.drain(ctx, CostCat::DeviceIo);
        Ok(segs.len() as u64)
    }

    fn nvme_device(&self) -> Option<&Arc<NvmeDevice>> {
        Some(&self.dev)
    }

    fn breaker(&self) -> Option<&Arc<CircuitBreaker>> {
        Some(&self.breaker)
    }
}

/// Host-kernel direct I/O to an NVMe device.
pub struct HostNvmeAccess {
    dev: Arc<NvmeDevice>,
    domain: CallDomain,
    retry: RetryPolicy,
    breaker: Arc<CircuitBreaker>,
}

impl HostNvmeAccess {
    /// Creates the path; `domain` selects syscall vs vmcall entry cost.
    pub fn new(dev: Arc<NvmeDevice>, domain: CallDomain) -> HostNvmeAccess {
        HostNvmeAccess::with_retry(dev, domain, RetryPolicy::default())
    }

    /// Creates the path with an explicit retry policy.
    pub fn with_retry(
        dev: Arc<NvmeDevice>,
        domain: CallDomain,
        retry: RetryPolicy,
    ) -> HostNvmeAccess {
        HostNvmeAccess {
            dev,
            domain,
            retry,
            breaker: CircuitBreaker::new(retry.breaker_threshold, retry.breaker_cooldown),
        }
    }
}

impl StorageAccess for HostNvmeAccess {
    fn kind(&self) -> AccessKind {
        AccessKind::HostNvme
    }

    fn reset_timing(&self) {
        self.dev.reset_timing();
    }

    fn capacity_pages(&self) -> u64 {
        self.dev.capacity_pages()
    }

    fn read_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        out: &mut [Page],
    ) -> Result<(), DeviceError> {
        let pages = out.len();
        self.retry.run(ctx, None, |ctx| {
            self.domain.charge_entry(ctx);
            let sw = ctx.cost().host_directio_sw + ctx.cost().nvme_submit_kernel;
            ctx.charge(CostCat::Syscall, sw);
            let t0 = ctx.now();
            let sp = aquila_sim::span::begin(ctx, "nvme.read", CostCat::DeviceIo);
            let qp = self.dev.create_qpair();
            let submitted = qp.submit(ctx.now(), NvmeOp::Read, page, pages, BufRef::Out(out));
            record_nvme_occupancy(ctx, &self.dev);
            if let Err(e) = submitted {
                aquila_sim::span::end(ctx, sp);
                return Err(e);
            }
            // Interrupt-driven completion: the CPU sleeps.
            qp.drain(ctx, CostCat::Idle);
            let served = ctx.now() - t0;
            self.retry.observe_latency(ctx, served);
            aquila_sim::span::end(ctx, sp);
            Ok(())
        })?;
        ctx.counters().device_reads += 1;
        ctx.counters().bytes_read += (pages * STORE_PAGE) as u64;
        Ok(())
    }

    fn write_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        list: &[Page],
    ) -> Result<(), DeviceError> {
        let pages = list.len();
        self.retry.run(ctx, Some(&self.breaker), |ctx| {
            self.domain.charge_entry(ctx);
            let sw = ctx.cost().host_directio_sw + ctx.cost().nvme_submit_kernel;
            ctx.charge(CostCat::Syscall, sw);
            let t0 = ctx.now();
            let sp = aquila_sim::span::begin(ctx, "nvme.write", CostCat::DeviceIo);
            let qp = self.dev.create_qpair();
            let submitted = qp.submit(ctx.now(), NvmeOp::Write, page, pages, BufRef::Pages(list));
            record_nvme_occupancy(ctx, &self.dev);
            if let Err(e) = submitted {
                aquila_sim::span::end(ctx, sp);
                return Err(e);
            }
            qp.drain(ctx, CostCat::Idle);
            let served = ctx.now() - t0;
            self.retry.observe_latency(ctx, served);
            aquila_sim::span::end(ctx, sp);
            Ok(())
        })?;
        ctx.counters().device_writes += 1;
        ctx.counters().bytes_written += (pages * STORE_PAGE) as u64;
        Ok(())
    }

    fn nvme_device(&self) -> Option<&Arc<NvmeDevice>> {
        Some(&self.dev)
    }

    fn breaker(&self) -> Option<&Arc<CircuitBreaker>> {
        Some(&self.breaker)
    }
}

/// DAX access to byte-addressable NVM with Aquila's AVX2 streaming copy.
pub struct DaxAccess {
    dev: Arc<PmemDevice>,
    simd: bool,
}

impl DaxAccess {
    /// Creates the path; `simd` enables the AVX2 streaming copy (Aquila's
    /// optimization, on by default in the paper).
    pub fn new(dev: Arc<PmemDevice>, simd: bool) -> DaxAccess {
        DaxAccess { dev, simd }
    }
}

impl StorageAccess for DaxAccess {
    fn kind(&self) -> AccessKind {
        AccessKind::DaxPmem
    }

    fn reset_timing(&self) {
        self.dev.reset_timing();
    }

    fn capacity_pages(&self) -> u64 {
        self.dev.capacity_pages()
    }

    fn read_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        out: &mut [Page],
    ) -> Result<(), DeviceError> {
        self.dev.dax_read(ctx, page, out, self.simd)?;
        Ok(())
    }

    fn write_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        pages: &[Page],
    ) -> Result<(), DeviceError> {
        self.dev.dax_write(ctx, page, pages, self.simd)?;
        Ok(())
    }
}

/// Host-kernel direct I/O to the pmem block device (the kernel uses a
/// scalar copy — it cannot afford SIMD in kernel context, section 3.3).
pub struct HostPmemAccess {
    dev: Arc<PmemDevice>,
    domain: CallDomain,
}

impl HostPmemAccess {
    /// Creates the path; `domain` selects syscall vs vmcall entry cost.
    pub fn new(dev: Arc<PmemDevice>, domain: CallDomain) -> HostPmemAccess {
        HostPmemAccess { dev, domain }
    }
}

impl StorageAccess for HostPmemAccess {
    fn kind(&self) -> AccessKind {
        AccessKind::HostPmem
    }

    fn reset_timing(&self) {
        self.dev.reset_timing();
    }

    fn capacity_pages(&self) -> u64 {
        self.dev.capacity_pages()
    }

    fn read_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        out: &mut [Page],
    ) -> Result<(), DeviceError> {
        self.domain.charge_entry(ctx);
        let sw = ctx.cost().host_directio_sw;
        ctx.charge(CostCat::Syscall, sw);
        self.dev.dax_read(ctx, page, out, false)?;
        Ok(())
    }

    fn write_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        pages: &[Page],
    ) -> Result<(), DeviceError> {
        self.domain.charge_entry(ctx);
        let sw = ctx.cost().host_directio_sw;
        ctx.charge(CostCat::Syscall, sw);
        self.dev.dax_write(ctx, page, pages, false)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::{Cycles, FreeCtx};

    fn page_of(b: u8) -> Vec<u8> {
        vec![b; STORE_PAGE]
    }

    #[test]
    fn all_paths_move_real_data() {
        let nvme = Arc::new(NvmeDevice::optane(64));
        let pmem = Arc::new(PmemDevice::dram_backed(64));
        let paths: Vec<Box<dyn StorageAccess>> = vec![
            Box::new(SpdkAccess::new(Arc::clone(&nvme))),
            Box::new(HostNvmeAccess::new(Arc::clone(&nvme), CallDomain::Guest)),
            Box::new(DaxAccess::new(Arc::clone(&pmem), true)),
            Box::new(HostPmemAccess::new(Arc::clone(&pmem), CallDomain::User)),
        ];
        for (i, p) in paths.iter().enumerate() {
            let mut ctx = FreeCtx::new(i as u64);
            let data = page_of(0x10 + i as u8);
            p.write_pages(&mut ctx, i as u64, &data).unwrap();
            let mut back = page_of(0);
            p.read_pages(&mut ctx, i as u64, &mut back).unwrap();
            assert_eq!(back, data, "path {} corrupted data", p.kind().name());
        }
    }

    #[test]
    fn spdk_is_cheaper_than_host_nvme() {
        // Figure 8(c): bypassing the host OS reduces overhead by ~1.5x.
        let nvme = Arc::new(NvmeDevice::optane(64));
        let spdk = SpdkAccess::new(Arc::clone(&nvme));
        let host = HostNvmeAccess::new(Arc::clone(&nvme), CallDomain::Guest);
        let mut a = FreeCtx::new(1);
        let mut b = FreeCtx::new(1);
        let mut buf = page_of(0);
        spdk.read_pages(&mut a, 0, &mut buf).unwrap();
        host.read_pages(&mut b, 1, &mut buf).unwrap();
        let ratio = b.now().get() as f64 / a.now().get() as f64;
        assert!(
            (1.3..2.2).contains(&ratio),
            "HOST/SPDK ratio {ratio:.2} out of the paper's ballpark"
        );
    }

    #[test]
    fn dax_is_much_cheaper_than_host_pmem() {
        // Figure 8(c): removing the host OS from the pmem path is ~7.8x.
        let pmem = Arc::new(PmemDevice::dram_backed(64));
        let dax = DaxAccess::new(Arc::clone(&pmem), true);
        let host = HostPmemAccess::new(Arc::clone(&pmem), CallDomain::Guest);
        let mut a = FreeCtx::new(1);
        let mut b = FreeCtx::new(1);
        let mut buf = page_of(0);
        dax.read_pages(&mut a, 0, &mut buf).unwrap();
        host.read_pages(&mut b, 1, &mut buf).unwrap();
        let ratio = b.now().get() as f64 / a.now().get() as f64;
        assert!(ratio > 5.0, "HOST-pmem/DAX-pmem ratio {ratio:.2} too small");
    }

    #[test]
    fn guest_entry_counts_vmexit_user_counts_syscall() {
        let pmem = Arc::new(PmemDevice::dram_backed(8));
        let mut buf = page_of(0);

        let guest = HostPmemAccess::new(Arc::clone(&pmem), CallDomain::Guest);
        let mut gctx = FreeCtx::new(1);
        guest.read_pages(&mut gctx, 0, &mut buf).unwrap();
        assert_eq!(gctx.stats.vmexits, 1);
        assert_eq!(gctx.stats.syscalls, 0);

        let user = HostPmemAccess::new(Arc::clone(&pmem), CallDomain::User);
        let mut uctx = FreeCtx::new(1);
        user.read_pages(&mut uctx, 0, &mut buf).unwrap();
        assert_eq!(uctx.stats.syscalls, 1);
        assert_eq!(uctx.stats.vmexits, 0);
    }

    #[test]
    fn host_nvme_wait_is_idle_spdk_wait_is_busy() {
        let nvme = Arc::new(NvmeDevice::optane(64));
        let mut buf = page_of(0);

        let spdk = SpdkAccess::new(Arc::clone(&nvme));
        let mut sctx = FreeCtx::new(1);
        spdk.read_pages(&mut sctx, 0, &mut buf).unwrap();
        assert_eq!(sctx.breakdown.get(CostCat::Idle), Cycles::ZERO);
        assert!(sctx.breakdown.get(CostCat::DeviceIo) >= Cycles::from_micros(10));

        let host = HostNvmeAccess::new(Arc::clone(&nvme), CallDomain::User);
        let mut hctx = FreeCtx::new(1);
        host.read_pages(&mut hctx, 1, &mut buf).unwrap();
        assert!(hctx.breakdown.get(CostCat::Idle) >= Cycles::from_micros(9));
    }

    #[test]
    fn spdk_write_retries_through_injected_fault() {
        use aquila_sim::fault::FaultPlan;
        let nvme = Arc::new(NvmeDevice::optane(64));
        nvme.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.write:media_error@op=1").unwrap(),
        ));
        let spdk = SpdkAccess::new(Arc::clone(&nvme));
        let mut ctx = FreeCtx::new(1);
        let data = page_of(0x5A);
        // The first submission fails; the retry layer backs off and the
        // second attempt lands the data.
        spdk.write_pages(&mut ctx, 3, &data).unwrap();
        let mut back = page_of(0);
        spdk.read_pages(&mut ctx, 3, &mut back).unwrap();
        assert_eq!(back, data);
        assert!(!spdk.breaker().unwrap().is_open(ctx.now()));
        assert!(
            ctx.now() >= RetryPolicy::default().backoff_for(1),
            "retry charged its backoff"
        );
    }

    #[test]
    fn breaker_opens_under_sustained_write_failure() {
        use aquila_sim::fault::FaultPlan;
        let nvme = Arc::new(NvmeDevice::optane(64));
        // Both write attempts fail, which meets the tightened breaker
        // threshold below mid-retry.
        nvme.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.write:media_error@op=1; nvme.write:media_error@op=2").unwrap(),
        ));
        let policy = RetryPolicy {
            max_attempts: 2,
            breaker_threshold: 2,
            ..RetryPolicy::default()
        };
        let spdk = SpdkAccess::with_retry(Arc::clone(&nvme), policy);
        let mut ctx = FreeCtx::new(1);
        let data = page_of(1);
        let err = spdk.write_pages(&mut ctx, 0, &data).unwrap_err();
        assert_eq!(err, DeviceError::CircuitOpen);
        assert!(spdk.breaker().unwrap().is_open(ctx.now()));
        // Reads keep working: the breaker guards only the write path.
        let mut back = page_of(0);
        spdk.read_pages(&mut ctx, 1, &mut back).unwrap();
    }

    #[test]
    fn multi_page_reads_work_through_paths() {
        let nvme = Arc::new(NvmeDevice::optane(64));
        let spdk = SpdkAccess::new(Arc::clone(&nvme));
        let mut ctx = FreeCtx::new(1);
        let data: Vec<u8> = (0..32 * STORE_PAGE)
            .map(|i| (i / STORE_PAGE) as u8)
            .collect();
        spdk.write_pages(&mut ctx, 8, &data).unwrap();
        let mut back = vec![0u8; 32 * STORE_PAGE];
        spdk.read_pages(&mut ctx, 8, &mut back).unwrap();
        assert_eq!(back, data);
    }
}
