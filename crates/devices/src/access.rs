//! Storage access paths: *how* a page moves between the DRAM cache and a
//! device.
//!
//! The paper's Figure 8(c) compares four ways Aquila can reach storage.
//! Each device has one path type, and the path's [`Entry`] picks the bar:
//!
//! | Path        | Type + entry               | Mechanism                              | Cost structure |
//! |-------------|----------------------------|----------------------------------------|----------------|
//! | `SPDK-NVMe` | `NvmeAccess`, `Direct`     | polled user-space driver, no kernel    | submit CPU + device time (spinning) |
//! | `HOST-NVMe` | `NvmeAccess`, `Host(..)`   | direct-I/O syscall into the host OS    | vmcall/syscall + kernel path + device time (idle) |
//! | `DAX-pmem`  | `PmemAccess`, `Direct`     | AVX2 streaming memcpy to mapped NVM    | SIMD copy + bandwidth |
//! | `HOST-pmem` | `PmemAccess`, `Host(..)`   | direct-I/O syscall, kernel scalar copy | vmcall/syscall + kernel path + scalar copy |
//!
//! Both implement [`StorageAccess`] (as does the mirrored NVMe path,
//! [`crate::mirror::MirrorAccess`]), so the page cache and the mmio
//! engines are parameterized over the access method — which is exactly
//! the customization the paper argues for.

use std::sync::Arc;

use aquila_sim::{CostCat, Cycles, Page, SimCtx};

use crate::error::DeviceError;
use crate::nvme::{NvmeCmd, NvmeDevice, QueuePair};
use crate::pmem::PmemDevice;
use crate::retry::{self, CircuitBreaker};
use crate::store::{page_list, STORE_PAGE};

/// Which protection domain the caller sits in, which determines the price
/// of asking the host kernel for I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallDomain {
    /// A conventional ring-3 process: host I/O costs a syscall.
    User,
    /// Aquila in VMX non-root ring 0: host I/O costs a vmcall.
    Guest,
}

impl CallDomain {
    /// Charges one host direct-I/O call from this domain: the crossing,
    /// then the kernel's direct-I/O software path plus `extra` (the NVMe
    /// block layer's submit).
    fn charge_host_io(self, ctx: &mut dyn SimCtx, extra: Cycles) {
        match self {
            CallDomain::User => {
                let c = ctx.cost().syscall_entry_exit;
                ctx.charge(CostCat::Syscall, c);
                ctx.counters().syscalls += 1;
            }
            CallDomain::Guest => aquila_sim::vmcall(ctx),
        }
        let sw = ctx.cost().host_directio_sw + extra;
        ctx.charge(CostCat::Syscall, sw);
    }
}

/// Where a path's I/O enters the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// The process drives the device itself: SPDK's polled queue pairs
    /// for NVMe, DAX and Aquila's AVX2 streaming copy for pmem.
    Direct,
    /// Host-kernel direct I/O, called from the given domain. The kernel
    /// sleeps on NVMe completions and copies pmem pages with a scalar
    /// memcpy (it cannot afford SIMD in kernel context, section 3.3).
    Host(CallDomain),
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
/// Data moves as [`Page`] references into the host thread's page pool
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

/// Records the device's queue occupancy right after a submission on the
/// trace counter track "nvme.inflight". No-op without an installed
/// tracer, and never charges cycles.
fn record_nvme_occupancy(ctx: &dyn SimCtx, dev: &NvmeDevice) {
    if !aquila_sim::trace::enabled() {
        return;
    }
    let depth = dev.inflight_at(ctx.now()) as u64;
    aquila_sim::trace::counter(ctx, "nvme.inflight", depth);
}

/// Counts one completed command in the device counters.
fn count(ctx: &mut dyn SimCtx, cmd: &NvmeCmd<'_>) {
    let bytes = (cmd.pages() * STORE_PAGE) as u64;
    let c = ctx.counters();
    match cmd {
        NvmeCmd::Read(_) => {
            c.device_reads += 1;
            c.bytes_read += bytes;
        }
        NvmeCmd::Write(_) => {
            c.device_writes += 1;
            c.bytes_written += bytes;
        }
    }
}

/// NVMe access, polled from user space (SPDK) or through host-kernel
/// direct I/O.
pub struct NvmeAccess {
    dev: Arc<NvmeDevice>,
    entry: Entry,
    /// The write-path breaker. Once it opens, writes fail with
    /// [`DeviceError::CircuitOpen`], on which the engine degrades the
    /// region (DESIGN.md §11).
    breaker: CircuitBreaker,
}

impl NvmeAccess {
    /// Wraps a device. Direct access requires the device be dedicated to
    /// this process (the paper's protection argument), which the type
    /// system encodes by taking ownership of the only handle used for I/O.
    pub fn new(dev: Arc<NvmeDevice>, entry: Entry) -> NvmeAccess {
        NvmeAccess {
            dev,
            entry,
            breaker: CircuitBreaker::default(),
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<NvmeDevice> {
        &self.dev
    }

    /// Charges the CPU side of submitting one command attempt.
    fn charge_submit(&self, ctx: &mut dyn SimCtx) {
        match self.entry {
            Entry::Direct => {
                let c = ctx.cost().nvme_submit_poll;
                ctx.charge(CostCat::DeviceIo, c);
            }
            Entry::Host(domain) => {
                let c = ctx.cost().nvme_submit_kernel;
                domain.charge_host_io(ctx, c);
            }
        }
    }

    /// What waiting for a completion costs: a polled driver spins, so
    /// the wait is busy `DeviceIo`; the host kernel sleeps on the
    /// interrupt, so it is `Idle`.
    fn wait_cat(&self) -> CostCat {
        match self.entry {
            Entry::Direct => CostCat::DeviceIo,
            Entry::Host(_) => CostCat::Idle,
        }
    }

    /// Runs one blocking command on the pages from `page`. Each attempt
    /// pays the submit, then times the command and its completion in an
    /// `nvme.read`/`nvme.write` span. Transient failures retry with
    /// backoff; writes feed the write-path breaker, reads never consult
    /// it (a degraded region must keep serving reads, DESIGN.md §11).
    fn command(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        mut cmd: NvmeCmd<'_>,
    ) -> Result<(), DeviceError> {
        let breaker = match cmd {
            NvmeCmd::Read(_) => None,
            NvmeCmd::Write(_) => Some(&self.breaker),
        };
        retry::run(ctx, breaker, |ctx| {
            self.charge_submit(ctx);
            let sp = match cmd {
                NvmeCmd::Read(_) => aquila_sim::span::begin(ctx, "nvme.read", CostCat::DeviceIo),
                NvmeCmd::Write(_) => aquila_sim::span::begin(ctx, "nvme.write", CostCat::DeviceIo),
            };
            let done = self.complete(ctx, page, cmd.reborrow());
            aquila_sim::span::end(ctx, sp);
            done
        })?;
        count(ctx, &cmd);
        Ok(())
    }

    /// Executes one attempt of a blocking command and waits for it to
    /// complete, checking its latency against the command deadline.
    fn complete(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        cmd: NvmeCmd<'_>,
    ) -> Result<(), DeviceError> {
        let t0 = ctx.now();
        let done = self.dev.execute(t0, page, cmd);
        record_nvme_occupancy(ctx, &self.dev);
        ctx.wait_until(done?, self.wait_cat());
        let served = ctx.now() - t0;
        retry::observe_latency(ctx, served);
        Ok(())
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
        retry::run(ctx, Some(&self.breaker), |ctx| {
            self.charge_submit(ctx);
            loop {
                match qp.submit(ctx.now(), page, NvmeCmd::Write(pages)) {
                    Ok(()) => return Ok(()),
                    Err(DeviceError::QueueFull { .. }) => {
                        if let Some(t) = qp.earliest_finish() {
                            ctx.wait_until(t, self.wait_cat());
                        }
                        qp.poll(ctx);
                    }
                    Err(e) => return Err(e),
                }
            }
        })?;
        count(ctx, &NvmeCmd::Write(pages));
        Ok(())
    }
}

impl StorageAccess for NvmeAccess {
    fn kind(&self) -> AccessKind {
        match self.entry {
            Entry::Direct => AccessKind::SpdkNvme,
            Entry::Host(_) => AccessKind::HostNvme,
        }
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
        self.command(ctx, page, NvmeCmd::Read(out))
    }

    fn write_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        pages: &[Page],
    ) -> Result<(), DeviceError> {
        self.command(ctx, page, NvmeCmd::Write(pages))
    }

    /// A direct entry submits every segment through one queue pair of
    /// depth `depth`, so device service overlaps across commands, then
    /// busy-waits for the tail (SPDK-style polled completion). The host
    /// entry keeps the blocking loop, which charges the kernel's
    /// per-command path.
    fn write_batch(
        &self,
        ctx: &mut dyn SimCtx,
        segs: &[(u64, &[Page])],
        depth: usize,
    ) -> Result<u64, DeviceError> {
        if depth <= 1 || self.entry != Entry::Direct {
            return write_each(self, ctx, segs);
        }
        let qp = self.dev.create_qpair(depth);
        for &(page, pages) in segs {
            self.queue_write(ctx, &qp, page, pages)?;
        }
        qp.drain(ctx, CostCat::DeviceIo);
        Ok(segs.len() as u64)
    }

    fn nvme_device(&self) -> Option<&Arc<NvmeDevice>> {
        Some(&self.dev)
    }
}

/// Pmem access: DAX with Aquila's AVX2 streaming copy, or host-kernel
/// direct I/O to the pmem block device.
pub struct PmemAccess {
    dev: Arc<PmemDevice>,
    entry: Entry,
}

impl PmemAccess {
    /// Creates the path.
    pub fn new(dev: Arc<PmemDevice>, entry: Entry) -> PmemAccess {
        PmemAccess { dev, entry }
    }

    /// Charges entering the device and returns whether the copy is the
    /// SIMD one.
    fn enter(&self, ctx: &mut dyn SimCtx) -> bool {
        match self.entry {
            Entry::Direct => true,
            Entry::Host(domain) => {
                domain.charge_host_io(ctx, Cycles::ZERO);
                false
            }
        }
    }
}

impl StorageAccess for PmemAccess {
    fn kind(&self) -> AccessKind {
        match self.entry {
            Entry::Direct => AccessKind::DaxPmem,
            Entry::Host(_) => AccessKind::HostPmem,
        }
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
        let simd = self.enter(ctx);
        self.dev.dax_read(ctx, page, out, simd)
    }

    fn write_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        pages: &[Page],
    ) -> Result<(), DeviceError> {
        let simd = self.enter(ctx);
        self.dev.dax_write(ctx, page, pages, simd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::fault::{FaultPlan, FaultTarget};
    use aquila_sim::FreeCtx;

    fn page_of(b: u8) -> Vec<u8> {
        vec![b; STORE_PAGE]
    }

    #[test]
    fn all_paths_move_real_data() {
        let nvme = Arc::new(NvmeDevice::optane(64));
        let pmem = Arc::new(PmemDevice::dram_backed(64));
        let paths: Vec<Box<dyn StorageAccess>> = vec![
            Box::new(NvmeAccess::new(Arc::clone(&nvme), Entry::Direct)),
            Box::new(NvmeAccess::new(
                Arc::clone(&nvme),
                Entry::Host(CallDomain::Guest),
            )),
            Box::new(PmemAccess::new(Arc::clone(&pmem), Entry::Direct)),
            Box::new(PmemAccess::new(
                Arc::clone(&pmem),
                Entry::Host(CallDomain::User),
            )),
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
        let spdk = NvmeAccess::new(Arc::clone(&nvme), Entry::Direct);
        let host = NvmeAccess::new(Arc::clone(&nvme), Entry::Host(CallDomain::Guest));
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
        let dax = PmemAccess::new(Arc::clone(&pmem), Entry::Direct);
        let host = PmemAccess::new(Arc::clone(&pmem), Entry::Host(CallDomain::Guest));
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

        let guest = PmemAccess::new(Arc::clone(&pmem), Entry::Host(CallDomain::Guest));
        let mut gctx = FreeCtx::new(1);
        guest.read_pages(&mut gctx, 0, &mut buf).unwrap();
        assert_eq!(gctx.stats.vmexits, 1);
        assert_eq!(gctx.stats.syscalls, 0);

        let user = PmemAccess::new(Arc::clone(&pmem), Entry::Host(CallDomain::User));
        let mut uctx = FreeCtx::new(1);
        user.read_pages(&mut uctx, 0, &mut buf).unwrap();
        assert_eq!(uctx.stats.syscalls, 1);
        assert_eq!(uctx.stats.vmexits, 0);
    }

    #[test]
    fn host_nvme_wait_is_idle_spdk_wait_is_busy() {
        let nvme = Arc::new(NvmeDevice::optane(64));
        let mut buf = page_of(0);

        let spdk = NvmeAccess::new(Arc::clone(&nvme), Entry::Direct);
        let mut sctx = FreeCtx::new(1);
        spdk.read_pages(&mut sctx, 0, &mut buf).unwrap();
        assert_eq!(sctx.breakdown.get(CostCat::Idle), Cycles::ZERO);
        assert!(sctx.breakdown.get(CostCat::DeviceIo) >= Cycles::from_micros(10));

        let host = NvmeAccess::new(Arc::clone(&nvme), Entry::Host(CallDomain::User));
        let mut hctx = FreeCtx::new(1);
        host.read_pages(&mut hctx, 1, &mut buf).unwrap();
        assert!(hctx.breakdown.get(CostCat::Idle) >= Cycles::from_micros(9));
    }

    /// A plan failing the first `n` operations on `target` with a media
    /// error.
    fn failing(target: &str, n: u32) -> Arc<FaultPlan> {
        let spec: Vec<String> = (1..=n)
            .map(|i| format!("{target}:media_error@op={i}"))
            .collect();
        Arc::new(FaultPlan::parse(&spec.join("; ")).unwrap())
    }

    #[test]
    fn spdk_write_retries_through_injected_fault() {
        let nvme = Arc::new(NvmeDevice::optane(64));
        nvme.set_fault_plan(failing("nvme.write", 1));
        let spdk = NvmeAccess::new(Arc::clone(&nvme), Entry::Direct);
        let mut ctx = FreeCtx::new(1);
        let data = page_of(0x5A);
        // The first submission fails; the retry layer backs off and the
        // second attempt lands the data.
        spdk.write_pages(&mut ctx, 3, &data).unwrap();
        let mut back = page_of(0);
        spdk.read_pages(&mut ctx, 3, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(ctx.breakdown.get(CostCat::Idle), retry::backoff_for(1));
        assert_eq!(ctx.stats.device_writes, 1, "one write completed");
    }

    #[test]
    fn a_command_gives_up_after_four_attempts() {
        let nvme = Arc::new(NvmeDevice::optane(64));
        let plan = failing("nvme.write", 4);
        nvme.set_fault_plan(Arc::clone(&plan));
        let spdk = NvmeAccess::new(Arc::clone(&nvme), Entry::Direct);
        let mut ctx = FreeCtx::new(1);
        let err = spdk.write_pages(&mut ctx, 0, &page_of(1)).unwrap_err();
        assert_eq!(err, DeviceError::MediaError { page: 0 });
        assert_eq!(plan.ops(FaultTarget::NvmeWrite), 4);
        // Three backoffs of 5, 10 and 20 us.
        assert_eq!(ctx.breakdown.get(CostCat::Idle), Cycles::from_micros(35));
        // The budget is per command: the next write's first attempt lands.
        spdk.write_pages(&mut ctx, 0, &page_of(2)).unwrap();
        assert_eq!(plan.ops(FaultTarget::NvmeWrite), 5);
    }

    #[test]
    fn breaker_opens_under_sustained_write_failure() {
        let nvme = Arc::new(NvmeDevice::optane(64));
        let plan = failing("nvme.write", 16);
        nvme.set_fault_plan(Arc::clone(&plan));
        let spdk = NvmeAccess::new(Arc::clone(&nvme), Entry::Direct);
        let mut ctx = FreeCtx::new(1);
        let data = page_of(1);
        // Three commands spend their four attempts each: 12 failures,
        // under the threshold of 16.
        for _ in 0..3 {
            let err = spdk.write_pages(&mut ctx, 0, &data).unwrap_err();
            assert_eq!(err, DeviceError::MediaError { page: 0 });
        }
        // The fourth command's last attempt is the sixteenth failure.
        let err = spdk.write_pages(&mut ctx, 0, &data).unwrap_err();
        assert_eq!(err, DeviceError::CircuitOpen);
        assert_eq!(plan.ops(FaultTarget::NvmeWrite), 16);
        // Open: writes fail fast without reaching the device.
        let err = spdk.write_pages(&mut ctx, 0, &data).unwrap_err();
        assert_eq!(err, DeviceError::CircuitOpen);
        assert_eq!(plan.ops(FaultTarget::NvmeWrite), 16);
        // Reads keep working: the breaker guards only the write path.
        let mut back = page_of(0);
        spdk.read_pages(&mut ctx, 1, &mut back).unwrap();
        // 500 us after the trip the next write is the half-open probe; the
        // device has healed, so it lands and closes the breaker.
        let wake = ctx.now() + retry::BREAKER_COOLDOWN;
        ctx.wait_until(wake, CostCat::Idle);
        spdk.write_pages(&mut ctx, 0, &data).unwrap();
        spdk.write_pages(&mut ctx, 0, &data).unwrap();
        assert_eq!(plan.ops(FaultTarget::NvmeWrite), 18);
    }

    #[test]
    fn reads_never_feed_the_breaker() {
        let nvme = Arc::new(NvmeDevice::optane(64));
        nvme.set_fault_plan(failing("nvme.read", 16));
        let spdk = NvmeAccess::new(Arc::clone(&nvme), Entry::Direct);
        let mut ctx = FreeCtx::new(1);
        let mut back = page_of(0);
        for _ in 0..4 {
            let err = spdk.read_pages(&mut ctx, 0, &mut back).unwrap_err();
            assert_eq!(err, DeviceError::MediaError { page: 0 });
        }
        // Sixteen failed read attempts, and the write path is still closed.
        spdk.write_pages(&mut ctx, 0, &page_of(1)).unwrap();
    }

    #[test]
    fn multi_page_reads_work_through_paths() {
        let nvme = Arc::new(NvmeDevice::optane(64));
        let spdk = NvmeAccess::new(Arc::clone(&nvme), Entry::Direct);
        let mut ctx = FreeCtx::new(1);
        let data: Vec<u8> = (0..32 * STORE_PAGE)
            .map(|i| (i / STORE_PAGE) as u8)
            .collect();
        spdk.write_pages(&mut ctx, 8, &data).unwrap();
        let mut back = vec![0u8; 32 * STORE_PAGE];
        spdk.read_pages(&mut ctx, 8, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn an_injected_queue_full_on_a_blocking_command_surfaces_unretried() {
        for entry in [Entry::Direct, Entry::Host(CallDomain::Guest)] {
            let nvme = Arc::new(NvmeDevice::optane(64));
            nvme.set_fault_plan(Arc::new(
                FaultPlan::parse("nvme.read:queue_full@op=1").unwrap(),
            ));
            let path = NvmeAccess::new(nvme, entry);
            let mut ctx = FreeCtx::new(1);
            let mut out = [Page::zero()];
            assert_eq!(
                path.read_refs(&mut ctx, 0, &mut out),
                Err(DeviceError::QueueFull { depth: 1 }),
                "{entry:?}"
            );
            // One attempt: no backoff was parked and nothing completed.
            assert_eq!(ctx.breakdown.get(CostCat::Idle), Cycles::ZERO);
            assert_eq!(ctx.stats.device_reads, 0);
            path.read_refs(&mut ctx, 0, &mut out).unwrap();
        }
    }
}
