//! NVMe device model.
//!
//! Models an Intel Optane P4800X-class PCIe SSD, the paper's testbed
//! device: ~10 us access latency, >500 K random IOPS, ~2.4 GB/s of
//! bandwidth, with deep internal parallelism. A command moves its data
//! at once (the store is coherent) and completes at its reserved device
//! time: [`NvmeDevice::execute`] runs one and returns that time, which a
//! blocking caller waits for. A [`QueuePair`] keeps up to its depth of
//! commands in flight and harvests them by polling, exactly how SPDK
//! drives the device without kernel involvement.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use aquila_sync::Mutex;

use aquila_sim::fault::{
    CrashImage, DeviceImage, FaultOutcome, FaultPlan, FaultTarget, SECTOR_SIZE,
};
use aquila_sim::{Cycles, Page, ServiceCenter, SimCtx};

use crate::error::DeviceError;
use crate::retry;
use crate::store::{PageStore, STORE_PAGE};

/// Sectors per 4 KiB device page.
pub const SECTORS_PER_PAGE: u64 = (STORE_PAGE / SECTOR_SIZE) as u64;

/// An NVMe command (the two the simulation needs): its direction and
/// the pages it moves, one per device page from the command's first.
pub enum NvmeCmd<'a> {
    /// Each slot receives a reference to the stored page (a private copy
    /// when an injected fault flips bits in flight).
    Read(&'a mut [Page]),
    /// A page list in device order, like an NVMe PRP list. The store
    /// adopts the pages themselves; no bytes move on the host.
    Write(&'a [Page]),
}

impl NvmeCmd<'_> {
    /// Pages the command moves.
    pub(crate) fn pages(&self) -> usize {
        match self {
            NvmeCmd::Read(out) => out.len(),
            NvmeCmd::Write(list) => list.len(),
        }
    }

    /// The same command over a shorter borrow, for one attempt of a
    /// command that may be retried.
    pub(crate) fn reborrow(&mut self) -> NvmeCmd<'_> {
        match self {
            NvmeCmd::Read(out) => NvmeCmd::Read(out),
            NvmeCmd::Write(list) => NvmeCmd::Write(list),
        }
    }
}

// Timing of an Intel Optane DC P4800X-class device (the paper's).
/// Base access latency per command.
const LATENCY: Cycles = Cycles::from_micros(10);
/// Internal parallelism (number of concurrently served commands).
const CHANNELS: usize = 128;
/// Aggregate IOPS cap.
const MAX_IOPS: u64 = 550_000;
/// Aggregate bandwidth cap in bytes/s.
const MAX_BW: u64 = 2_400_000_000;

/// The NVMe device: real page contents plus a timing model.
pub struct NvmeDevice {
    store: PageStore,
    service: ServiceCenter,
    fault: OnceLock<Arc<FaultPlan>>,
    /// Ground truth for integrity accounting: sectors whose *stored*
    /// bytes differ from what the last writer supplied (a `corrupt`
    /// fault flipped bits as the data landed). Any overwrite heals.
    poisoned: Mutex<BTreeSet<u64>>,
    /// Latent sector errors: persistently unreadable until rewritten.
    latent: Mutex<BTreeSet<u64>>,
    /// Pages of corrupt data the device has silently returned to
    /// readers (stored-poisoned sectors plus in-flight read flips).
    /// The integrity layer's `detected` count is audited against this.
    tainted: Mutex<u64>,
}

impl NvmeDevice {
    /// Creates an Optane-class device of `pages` 4 KiB pages.
    pub fn optane(pages: u64) -> NvmeDevice {
        NvmeDevice {
            store: PageStore::new(pages),
            service: ServiceCenter::new(CHANNELS, MAX_IOPS, MAX_BW),
            fault: OnceLock::new(),
            poisoned: Mutex::new(BTreeSet::new()),
            latent: Mutex::new(BTreeSet::new()),
            tainted: Mutex::new(0),
        }
    }

    /// Restores a device from a captured image (a crash-consistency
    /// recovery boot): the store adopts the image's resident pages (the
    /// two share them until either side writes) and every other page
    /// stays implied zero.
    pub fn from_image(image: &DeviceImage) -> NvmeDevice {
        let dev = NvmeDevice::optane(image.pages);
        for (page, data) in &image.resident {
            if dev.store.adopt(*page, data.clone()).is_err() {
                unreachable!("device is sized to hold the image");
            }
        }
        dev
    }

    /// Attaches a fault plan; every command consults it. First attach
    /// wins (like the global plan install).
    pub fn set_fault_plan(&self, plan: Arc<FaultPlan>) {
        let _ = self.fault.set(plan);
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.get()
    }

    /// The attached plan if it has clauses. Only its injections put
    /// sectors into `poisoned` or `latent`, so without one both sets stay
    /// empty and commands skip them.
    fn active_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.get().filter(|p| !p.is_empty())
    }

    /// Device capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.store.page_count()
    }

    /// Direct access to the underlying store (for formatting by
    /// blobstores and filesystems).
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Commands still being served by the device at virtual time `now`
    /// (instantaneous queue occupancy across all submitters).
    pub fn inflight_at(&self, now: Cycles) -> usize {
        self.service.busy_channels(now)
    }

    /// Resets the timing model (between experiment phases; contents are
    /// untouched).
    pub fn reset_timing(&self) {
        self.service.reset();
    }

    /// Pages of corrupt data the device has silently returned to
    /// readers so far (ground truth for the *undetected* invariant:
    /// every one of these must be caught by a checksum before it is
    /// acked to a session).
    pub fn tainted_reads(&self) -> u64 {
        *self.tainted.lock()
    }

    /// Sectors currently storing silently corrupted data.
    pub fn poisoned_sectors(&self) -> u64 {
        self.poisoned.lock().len() as u64
    }

    /// Sectors currently latent (unreadable until rewritten).
    pub fn latent_sectors(&self) -> u64 {
        self.latent.lock().len() as u64
    }

    /// A rewrite heals both silent poison and latent errors on the
    /// covered sectors (fresh data, fresh cells).
    fn heal_sectors(&self, first_sector: u64, sectors: u64) {
        if self.active_plan().is_none() {
            return;
        }
        let range = first_sector..first_sector + sectors;
        let mut poi = self.poisoned.lock();
        let healed: Vec<u64> = poi.range(range.clone()).copied().collect();
        for s in healed {
            poi.remove(&s);
        }
        drop(poi);
        let mut lat = self.latent.lock();
        let healed: Vec<u64> = lat.range(range).copied().collect();
        for s in healed {
            lat.remove(&s);
        }
    }

    /// Deterministic position of the `k`-th injected bit flip within a
    /// `len`-byte payload (8191 is prime to the power-of-two bit count,
    /// so small flip budgets land on distinct bits).
    fn flip_bit(k: u64, len: usize) -> usize {
        ((k as usize) * 8191 + 7) % (len * 8)
    }

    /// Reserves device time for a `pages`-page transfer at `now`,
    /// returning when it completes.
    fn reserve(&self, now: Cycles, pages: usize) -> Cycles {
        let bytes = (pages * STORE_PAGE) as u64;
        // Service time: base latency plus on-device transfer time at the
        // device's internal stream rate (large I/Os take longer).
        let transfer = Cycles(bytes / 2); // ~4.8 GB/s internal streaming
        let r = self.service.submit(now, LATENCY + transfer, bytes);
        r.end
    }

    /// Creates a queue pair that accepts at most `depth` in-flight
    /// commands; [`QueuePair::submit`] returns
    /// [`DeviceError::QueueFull`] past that, the backpressure signal the
    /// write-behind evictor paces itself with.
    pub fn create_qpair(&self, depth: usize) -> QueuePair<'_> {
        QueuePair {
            dev: self,
            depth,
            inflight: Mutex::new(Vec::new()),
        }
    }

    /// Executes one command submitted at `now` on pages from `lba_page`:
    /// moves its data and reserves its device time, returning the
    /// virtual time it completes. A blocking caller waits until then; a
    /// [`QueuePair`] keeps the time while the command is in flight.
    ///
    /// The submission itself costs nothing here — the *access path*
    /// (SPDK polled vs host kernel) charges its own per-command CPU cost.
    ///
    /// Fails if the range exceeds the device capacity, or with what an
    /// attached fault plan injects. An injected
    /// [`DeviceError::QueueFull`] names depth 1: a command waited on
    /// alone is its own queue.
    pub fn execute(
        &self,
        now: Cycles,
        lba_page: u64,
        cmd: NvmeCmd<'_>,
    ) -> Result<Cycles, DeviceError> {
        let pages = cmd.pages();
        if lba_page + pages as u64 > self.capacity_pages() {
            return Err(DeviceError::OutOfRange {
                page: lba_page,
                pages,
                capacity: self.capacity_pages(),
            });
        }
        // Injected faults draw after the organic checks, so an operation
        // number always names a command the device actually admitted.
        let plan = self.active_plan();
        let injected = plan.and_then(|plan| {
            let target = match cmd {
                NvmeCmd::Read(_) => FaultTarget::NvmeRead,
                NvmeCmd::Write(_) => FaultTarget::NvmeWrite,
            };
            plan.draw(target, now)
        });
        match injected {
            Some(FaultOutcome::MediaError) => {
                return Err(DeviceError::MediaError { page: lba_page })
            }
            Some(FaultOutcome::Timeout) => return Err(DeviceError::Timeout),
            Some(FaultOutcome::QueueFull) => return Err(DeviceError::QueueFull { depth: 1 }),
            Some(FaultOutcome::DeviceReset) => return Err(DeviceError::DeviceReset),
            Some(
                FaultOutcome::Torn { .. }
                | FaultOutcome::Crash { .. }
                | FaultOutcome::Corrupt { .. }
                | FaultOutcome::Latent { .. },
            )
            | None => {}
        }
        let first_sector = lba_page * SECTORS_PER_PAGE;
        let nsectors = pages as u64 * SECTORS_PER_PAGE;
        match cmd {
            NvmeCmd::Read(out) => {
                if plan.is_some() {
                    // A latent fault drawn on a read marks the leading
                    // sectors of the range bad *now*; the read below then
                    // trips over them like any later read would.
                    let mut lat = self.latent.lock();
                    if let Some(FaultOutcome::Latent { sectors }) = injected {
                        for s in first_sector..first_sector + sectors.min(nsectors) {
                            lat.insert(s);
                        }
                    }
                    // Latent sectors fail the whole command loudly (the
                    // drive cannot return the data), naming the bad page.
                    if let Some(&s) = lat.range(first_sector..first_sector + nsectors).next() {
                        return Err(DeviceError::MediaError {
                            page: s / SECTORS_PER_PAGE,
                        });
                    }
                }
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = self.store.page(lba_page + i as u64)?;
                }
                if plan.is_some() {
                    // Silent corruption: flip bits in a private copy of
                    // the *returned* pages (the medium is fine; the
                    // transfer lied). Stored poison rides along for free
                    // since the store holds the flipped bytes. Every page
                    // with either counts once toward `tainted`.
                    let flips = match injected {
                        Some(FaultOutcome::Corrupt { bits }) => bits,
                        _ => 0,
                    };
                    let len = pages * STORE_PAGE;
                    for k in 0..flips {
                        let bit = NvmeDevice::flip_bit(k, len);
                        let (page, byte) = (bit / 8 / STORE_PAGE, bit / 8 % STORE_PAGE);
                        out[page].write(|b| b[byte] ^= 1 << (bit % 8));
                    }
                    let poi = self.poisoned.lock();
                    let tainted = (0..pages)
                        .filter(|&page| {
                            let s = first_sector + page as u64 * SECTORS_PER_PAGE;
                            poi.range(s..s + SECTORS_PER_PAGE).next().is_some()
                                || (0..flips)
                                    .any(|k| NvmeDevice::flip_bit(k, len) / 8 / STORE_PAGE == page)
                        })
                        .count() as u64;
                    if tainted > 0 {
                        *self.tainted.lock() += tainted;
                    }
                }
            }
            NvmeCmd::Write(list) => {
                let got = pages * STORE_PAGE;
                let store = &self.store;
                match injected {
                    Some(FaultOutcome::Torn { sectors }) => {
                        // The command dies mid-transfer: whole sectors up
                        // to the cut persist, the rest never land.
                        let keep = (sectors as usize * SECTOR_SIZE).min(got);
                        store.write_pages(lba_page, list, keep)?;
                        // The persisted prefix is fresh data.
                        self.heal_sectors(first_sector, (keep / SECTOR_SIZE) as u64);
                        return Err(DeviceError::MediaError { page: lba_page });
                    }
                    Some(FaultOutcome::Corrupt { bits }) => {
                        // Silent write corruption: bits flip as the data
                        // lands, the command still reports success. The
                        // flipped sectors become poisoned ground truth.
                        // The flips hit private copies only the store
                        // adopts, never the caller's pages.
                        let mut data = list.to_vec();
                        let mut bad = BTreeSet::new();
                        for k in 0..bits {
                            let bit = NvmeDevice::flip_bit(k, got);
                            let (page, byte) = (bit / 8 / STORE_PAGE, bit / 8 % STORE_PAGE);
                            data[page].write(|b| b[byte] ^= 1 << (bit % 8));
                            bad.insert(first_sector + (bit / 8 / SECTOR_SIZE) as u64);
                        }
                        store.write_pages(lba_page, &data, got)?;
                        self.heal_sectors(first_sector, nsectors);
                        let mut poi = self.poisoned.lock();
                        for s in bad {
                            poi.insert(s);
                        }
                    }
                    Some(FaultOutcome::Latent { sectors }) => {
                        // The write lands, then the cells degrade: the
                        // leading sectors become unreadable until the
                        // next rewrite.
                        store.write_pages(lba_page, list, got)?;
                        self.heal_sectors(first_sector, nsectors);
                        let mut lat = self.latent.lock();
                        for s in first_sector..first_sector + sectors.min(nsectors) {
                            lat.insert(s);
                        }
                    }
                    Some(FaultOutcome::Crash { sectors }) => {
                        // Power cut: capture the image as the medium
                        // stands, with a sector-granular prefix of the
                        // in-flight write applied, then let the live run
                        // proceed so the workload can finish. The
                        // crash-consistency harness recovers from the
                        // captured image, which shares the store's pages
                        // and gives the cut page a fresh copy.
                        if let Some(plan) = plan {
                            let mut image = store.snapshot();
                            let keep = (sectors as usize * SECTOR_SIZE).min(got);
                            for (i, data) in list.iter().enumerate() {
                                let n = keep.saturating_sub(i * STORE_PAGE).min(STORE_PAGE);
                                let at = lba_page + i as u64;
                                if n == STORE_PAGE {
                                    image.put(at, data.clone());
                                    continue;
                                }
                                if n > 0 {
                                    let prefix = data.read()[..n].to_vec();
                                    image.write(at * STORE_PAGE as u64, &prefix);
                                }
                                break;
                            }
                            plan.record_crash(CrashImage { at: now, image });
                        }
                        store.write_pages(lba_page, list, got)?;
                        self.heal_sectors(first_sector, nsectors);
                    }
                    _ => {
                        store.write_pages(lba_page, list, got)?;
                        self.heal_sectors(first_sector, nsectors);
                    }
                }
            }
        }
        Ok(self.reserve(now, pages))
    }
}

impl core::fmt::Debug for NvmeDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "NvmeDevice {{ pages: {} }}", self.capacity_pages())
    }
}

/// A depth-bounded NVMe submission/completion queue pair.
///
/// Commands execute at submission but *complete* at their reserved
/// device time; `poll` harvests those finished by the caller's current
/// virtual time, mirroring SPDK's `spdk_nvme_qpair_process_completions`,
/// and checks each one against the deadline as a blocking command is.
pub struct QueuePair<'d> {
    dev: &'d NvmeDevice,
    depth: usize,
    /// `(submitted, finish)` of each command in flight.
    inflight: Mutex<Vec<(Cycles, Cycles)>>,
}

impl QueuePair<'_> {
    /// Submits a command ([`NvmeDevice::execute`]) without waiting for
    /// it, or returns [`DeviceError::QueueFull`] while `depth` commands
    /// are in flight.
    pub fn submit(&self, now: Cycles, lba_page: u64, cmd: NvmeCmd<'_>) -> Result<(), DeviceError> {
        let full = DeviceError::QueueFull { depth: self.depth };
        if self.inflight.lock().len() >= self.depth {
            return Err(full);
        }
        let finish = self.dev.execute(now, lba_page, cmd).map_err(|e| match e {
            DeviceError::QueueFull { .. } => full,
            e => e,
        })?;
        self.inflight.lock().push((now, finish));
        Ok(())
    }

    /// Harvests the commands finished by the caller's current time.
    pub fn poll(&self, ctx: &mut dyn SimCtx) {
        let now = ctx.now();
        self.inflight.lock().retain(|&(submitted, finish)| {
            if finish > now {
                return true;
            }
            retry::observe_latency(ctx, finish - submitted);
            false
        });
    }

    /// Virtual time the earliest in-flight command finishes, if any.
    ///
    /// The write-behind evictor waits until exactly this instant before
    /// polling again, so it harvests completions as they land instead of
    /// stalling for the whole batch the way [`Self::drain`] does.
    pub fn earliest_finish(&self) -> Option<Cycles> {
        self.inflight.lock().iter().map(|&(_, finish)| finish).min()
    }

    /// Spins (advancing the caller's clock) until all in-flight commands
    /// complete; charges the wait to `cat`.
    pub fn drain(&self, ctx: &mut dyn SimCtx, cat: aquila_sim::CostCat) {
        let mut latest = None;
        for (submitted, finish) in self.inflight.lock().drain(..) {
            retry::observe_latency(ctx, finish - submitted);
            latest = latest.max(Some(finish));
        }
        if let Some(t) = latest {
            ctx.wait_until(t, cat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::{CostCat, FreeCtx};

    /// The page list of a contiguous buffer.
    fn pages(buf: &[u8]) -> Vec<Page> {
        buf.chunks(STORE_PAGE).map(Page::copy_of).collect()
    }

    /// Reads `buf.len() / 4096` pages from `page` into `buf`, returning
    /// when the read completes.
    fn read_into(
        dev: &NvmeDevice,
        now: Cycles,
        page: u64,
        buf: &mut [u8],
    ) -> Result<Cycles, DeviceError> {
        let mut out = vec![Page::zero(); buf.len() / STORE_PAGE];
        let finish = dev.execute(now, page, NvmeCmd::Read(&mut out))?;
        for (dst, p) in buf.chunks_mut(STORE_PAGE).zip(&out) {
            dst.copy_from_slice(&p.read());
        }
        Ok(finish)
    }

    /// A one-page read command into a scratch slot.
    fn read_one(out: &mut [Page; 1]) -> NvmeCmd<'_> {
        NvmeCmd::Read(out)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let dev = NvmeDevice::optane(64);
        let data = vec![0xABu8; STORE_PAGE];
        dev.execute(Cycles(0), 5, NvmeCmd::Write(&pages(&data)))
            .unwrap();
        let mut back = vec![0u8; STORE_PAGE];
        read_into(&dev, Cycles(0), 5, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn completion_arrives_after_latency() {
        let dev = NvmeDevice::optane(16);
        let qp = dev.create_qpair(4);
        let mut out = [Page::zero()];
        qp.submit(Cycles(0), 0, read_one(&mut out)).unwrap();
        // Nothing completes before the 10 us latency.
        let mut ctx = FreeCtx::new(1);
        ctx.wait_until(Cycles(1000), CostCat::DeviceIo);
        qp.poll(&mut ctx);
        assert!(qp.earliest_finish().is_some());
        ctx.wait_until(Cycles::from_micros(12), CostCat::DeviceIo);
        qp.poll(&mut ctx);
        assert_eq!(qp.earliest_finish(), None);
        let finish = read_into(&dev, Cycles(0), 1, &mut [0u8; STORE_PAGE]).unwrap();
        assert!(finish >= Cycles::from_micros(10));
    }

    #[test]
    fn drain_advances_clock_to_completion() {
        let dev = NvmeDevice::optane(16);
        let qp = dev.create_qpair(4);
        qp.submit(Cycles(0), 0, read_one(&mut [Page::zero()]))
            .unwrap();
        let mut ctx = FreeCtx::new(1);
        qp.drain(&mut ctx, CostCat::DeviceIo);
        assert_eq!(qp.earliest_finish(), None);
        assert!(ctx.now() >= Cycles::from_micros(10));
    }

    #[test]
    fn iops_cap_paces_submissions() {
        // 550 K IOPS => ~4363 cycles between admissions.
        let dev = NvmeDevice::optane(1024);
        let qp = dev.create_qpair(100);
        for i in 0..100 {
            qp.submit(Cycles(0), i, read_one(&mut [Page::zero()]))
                .unwrap();
        }
        // All 100 commands were admitted and stay in flight until drained.
        assert_eq!(
            qp.submit(Cycles(0), 100, read_one(&mut [Page::zero()])),
            Err(DeviceError::QueueFull { depth: 100 })
        );
        let mut ctx = FreeCtx::new(1);
        qp.drain(&mut ctx, CostCat::DeviceIo);
        // 100 admissions paced at the IOPS gate: at least 99 * 4363 cycles
        // before the last admission, plus 10 us service.
        assert!(
            ctx.now().get() > 99 * 4300,
            "IOPS gate must pace: {}",
            ctx.now()
        );
        assert_eq!(qp.earliest_finish(), None);
    }

    #[test]
    fn multi_page_io_roundtrip() {
        let dev = NvmeDevice::optane(64);
        let data: Vec<u8> = (0..8 * STORE_PAGE).map(|i| (i % 253) as u8).collect();
        dev.execute(Cycles(0), 16, NvmeCmd::Write(&pages(&data)))
            .unwrap();
        let mut back = vec![0u8; 8 * STORE_PAGE];
        read_into(&dev, Cycles(0), 16, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn io_beyond_capacity_is_error() {
        let dev = NvmeDevice::optane(4);
        let err = read_into(&dev, Cycles(0), 3, &mut vec![0u8; 2 * STORE_PAGE]).unwrap_err();
        assert_eq!(
            err,
            DeviceError::OutOfRange {
                page: 3,
                pages: 2,
                capacity: 4
            }
        );
    }

    #[test]
    fn bounded_qpair_reports_full() {
        let dev = NvmeDevice::optane(64);
        let qp = dev.create_qpair(2);
        let mut out = [Page::zero()];
        qp.submit(Cycles(0), 0, read_one(&mut out)).unwrap();
        qp.submit(Cycles(0), 1, read_one(&mut out)).unwrap();
        assert_eq!(
            qp.submit(Cycles(0), 2, read_one(&mut out)),
            Err(DeviceError::QueueFull { depth: 2 })
        );
        // Harvesting frees a slot.
        assert!(qp.earliest_finish().is_some());
        let mut ctx = FreeCtx::new(1);
        ctx.wait_until(Cycles::from_micros(20), CostCat::DeviceIo);
        qp.poll(&mut ctx);
        qp.submit(Cycles(0), 2, read_one(&mut out)).unwrap();
    }

    #[test]
    fn injected_queue_full_names_the_depth_it_hit() {
        let dev = NvmeDevice::optane(64);
        dev.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.read:queue_full*2@op=1").unwrap(),
        ));
        let mut out = [Page::zero()];
        assert_eq!(
            dev.execute(Cycles(0), 0, read_one(&mut out)),
            Err(DeviceError::QueueFull { depth: 1 }),
            "a blocking command is its own queue"
        );
        assert_eq!(
            dev.create_qpair(8).submit(Cycles(0), 0, read_one(&mut out)),
            Err(DeviceError::QueueFull { depth: 8 })
        );
        dev.execute(Cycles(0), 0, read_one(&mut out)).unwrap();
    }

    #[test]
    fn injected_media_error_fires_once_then_heals() {
        let dev = NvmeDevice::optane(64);
        dev.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.write:media_error@op=2").unwrap(),
        ));
        let data = vec![7u8; STORE_PAGE];
        dev.execute(Cycles(0), 0, NvmeCmd::Write(&pages(&data)))
            .unwrap();
        assert_eq!(
            dev.execute(Cycles(0), 1, NvmeCmd::Write(&pages(&data))),
            Err(DeviceError::MediaError { page: 1 })
        );
        // The failed write never reached the medium.
        let mut back = vec![0u8; STORE_PAGE];
        read_into(&dev, Cycles(0), 1, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0));
        // The retry (op 3) succeeds.
        dev.execute(Cycles(0), 1, NvmeCmd::Write(&pages(&data)))
            .unwrap();
    }

    #[test]
    fn torn_write_persists_sector_prefix_only() {
        let dev = NvmeDevice::optane(8);
        dev.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.write:torn=3@op=1").unwrap(),
        ));
        let data = vec![0xAAu8; STORE_PAGE];
        assert_eq!(
            dev.execute(Cycles(0), 2, NvmeCmd::Write(&pages(&data))),
            Err(DeviceError::MediaError { page: 2 })
        );
        let mut back = vec![0u8; STORE_PAGE];
        read_into(&dev, Cycles(0), 2, &mut back).unwrap();
        let cut = 3 * SECTOR_SIZE;
        assert!(back[..cut].iter().all(|&b| b == 0xAA), "prefix persisted");
        assert!(back[cut..].iter().all(|&b| b == 0), "tail never landed");
    }

    #[test]
    fn crash_point_captures_torn_image_and_run_continues() {
        let dev = NvmeDevice::optane(8);
        let plan = Arc::new(FaultPlan::parse("nvme.write:crash=2@op=2").unwrap());
        dev.set_fault_plan(Arc::clone(&plan));
        let old = vec![0x11u8; STORE_PAGE];
        let new = vec![0x22u8; STORE_PAGE];
        dev.execute(Cycles(0), 3, NvmeCmd::Write(&pages(&old)))
            .unwrap();
        // Op 2 overwrites page 3; the cut lands mid-transfer.
        dev.execute(Cycles(99), 3, NvmeCmd::Write(&pages(&new)))
            .unwrap();
        let img = plan.crash_image().expect("crash captured");
        assert_eq!(img.at, Cycles(99));
        assert_eq!(img.image.resident.len(), 1, "only page 3 holds data");
        let (page, page3) = &img.image.resident[0];
        assert_eq!(*page, 3);
        let page3 = page3.read().to_vec();
        let cut = 2 * SECTOR_SIZE;
        assert!(page3[..cut].iter().all(|&b| b == 0x22), "new prefix");
        assert!(page3[cut..].iter().all(|&b| b == 0x11), "old tail");
        // The live device saw the whole write (the run continues).
        let mut back = vec![0u8; STORE_PAGE];
        read_into(&dev, Cycles(100), 3, &mut back).unwrap();
        assert_eq!(back, new);
        // A recovered device boots from the captured image.
        let rec = NvmeDevice::from_image(&img.image);
        assert_eq!(rec.capacity_pages(), 8);
        let mut rback = vec![0u8; STORE_PAGE];
        read_into(&rec, Cycles(0), 3, &mut rback).unwrap();
        assert_eq!(&rback[..], &page3[..]);
        assert_eq!(rec.store().resident_pages(), 1, "zeros stay implied");
    }

    /// The byte image a crash used to capture: the whole store flattened,
    /// then the first `keep` bytes of the cut write laid over it.
    fn flat_torn_image(store: &PageStore, pos: u64, data: &[u8], keep: usize) -> Vec<u8> {
        let mut flat = vec![0u8; store.page_count() as usize * STORE_PAGE];
        store.read_range(0, &mut flat).unwrap();
        let end = (pos as usize + keep).min(flat.len());
        if (pos as usize) < end {
            flat[pos as usize..end].copy_from_slice(&data[..end - pos as usize]);
        }
        flat
    }

    fn expand(image: &DeviceImage) -> Vec<u8> {
        let mut flat = vec![0u8; image.bytes() as usize];
        for (page, data) in &image.resident {
            let at = *page as usize * STORE_PAGE;
            flat[at..at + STORE_PAGE].copy_from_slice(&data.read());
        }
        flat
    }

    #[test]
    fn sparse_crash_image_expands_to_the_flat_torn_image() {
        // Cuts tearing 0, 3, 8 (one whole page) and 11 sectors (into the
        // second page) of a two-page write over resident, discarded and
        // never-written pages, plus a write into the device's last pages.
        for (sectors, first) in [(0u64, 2u64), (3, 2), (8, 5), (11, 5), (11, 14)] {
            let dev = NvmeDevice::optane(16);
            let old: Vec<u8> = (0..3 * STORE_PAGE).map(|i| (i % 251) as u8 + 1).collect();
            dev.execute(Cycles(0), 1, NvmeCmd::Write(&pages(&old)))
                .unwrap();
            dev.execute(Cycles(0), 9, NvmeCmd::Write(&pages(&old[..STORE_PAGE])))
                .unwrap();
            dev.store().discard(9).unwrap();
            let plan =
                Arc::new(FaultPlan::parse(&format!("nvme.write:crash={sectors}@op=1")).unwrap());
            dev.set_fault_plan(Arc::clone(&plan));
            let new = vec![0xC3u8; 2 * STORE_PAGE];
            let pos = first * STORE_PAGE as u64;
            let keep = sectors as usize * SECTOR_SIZE;
            let want = flat_torn_image(dev.store(), pos, &new, keep);
            dev.execute(Cycles(5), first, NvmeCmd::Write(&pages(&new)))
                .unwrap();
            let img = plan.crash_image().expect("crash captured").image;
            assert_eq!(img.bytes() as usize, want.len());
            assert!(
                img.resident.windows(2).all(|w| w[0].0 < w[1].0),
                "resident pages in page order"
            );
            assert_eq!(expand(&img), want, "sectors={sectors} first={first}");
            let rec = NvmeDevice::from_image(&img);
            let mut back = vec![0u8; want.len()];
            rec.store().read_range(0, &mut back).unwrap();
            assert_eq!(back, want, "recovered device reads the flat image");
        }
    }

    /// A three-page write fed to the torn, crash and corrupt branches
    /// persists the same image as the flat buffer of its pages would, and
    /// never changes the caller's pages.
    #[test]
    fn faulty_page_list_writes_persist_the_flat_buffer_image() {
        let bufs: Vec<Vec<u8>> = (0..3u8)
            .rev()
            .map(|p| {
                (0..STORE_PAGE)
                    .map(|i| (i % 251) as u8 ^ (p * 40 + 9))
                    .collect()
            })
            .collect();
        let list: Vec<Page> = bufs.iter().rev().map(|p| Page::copy_of(p)).collect();
        let flat: Vec<u8> = bufs.iter().rev().flatten().copied().collect();
        let first = 4u64;
        let pos = first * STORE_PAGE as u64;
        // A device with old data under and around the write, and a fresh
        // device to replay the flat reference on.
        let seeded = |spec: &str| {
            let dev = NvmeDevice::optane(12);
            let old = vec![0x5Eu8; 6 * STORE_PAGE];
            dev.execute(Cycles(0), 3, NvmeCmd::Write(&pages(&old)))
                .unwrap();
            let plan = Arc::new(FaultPlan::parse(spec).unwrap());
            dev.set_fault_plan(Arc::clone(&plan));
            (dev, plan)
        };
        for sectors in [0u64, 5, 8, 13, 24] {
            let torn = format!("nvme.write:torn={sectors}@op=1");
            let (dev, _) = seeded(&torn);
            let keep = sectors as usize * SECTOR_SIZE;
            let want = flat_torn_image(dev.store(), pos, &flat, keep);
            let res = dev.execute(Cycles(0), first, NvmeCmd::Write(&list));
            assert_eq!(res, Err(DeviceError::MediaError { page: first }));
            let mut got = vec![0u8; want.len()];
            dev.store().read_range(0, &mut got).unwrap();
            assert_eq!(got, want, "torn={sectors}");

            let crash = format!("nvme.write:crash={sectors}@op=1");
            let (dev, plan) = seeded(&crash);
            let want = flat_torn_image(dev.store(), pos, &flat, keep);
            dev.execute(Cycles(0), first, NvmeCmd::Write(&list))
                .unwrap();
            let img = plan.crash_image().expect("crash captured").image;
            assert_eq!(expand(&img), want, "crash={sectors}");
        }
        for bits in [1u64, 9, 64] {
            let (dev, _) = seeded(&format!("nvme.write:corrupt={bits}@op=1"));
            dev.execute(Cycles(0), first, NvmeCmd::Write(&list))
                .unwrap();
            let mut want = flat.clone();
            let mut bad = BTreeSet::new();
            for k in 0..bits {
                let bit = NvmeDevice::flip_bit(k, want.len());
                want[bit / 8] ^= 1 << (bit % 8);
                bad.insert(first * SECTORS_PER_PAGE + (bit / 8 / SECTOR_SIZE) as u64);
            }
            let mut got = vec![0u8; flat.len()];
            dev.store().read_range(pos, &mut got).unwrap();
            assert_eq!(got, want, "corrupt={bits}");
            assert_eq!(dev.poisoned_sectors(), bad.len() as u64);
        }
        let unchanged: Vec<u8> = list.iter().flat_map(|p| p.read().to_vec()).collect();
        assert_eq!(unchanged, flat, "the flips hit private copies only");
    }

    #[test]
    fn corrupt_write_silently_poisons_and_rewrite_heals() {
        let dev = NvmeDevice::optane(8);
        dev.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.write:corrupt=4@op=1").unwrap(),
        ));
        let data = vec![0x5Au8; STORE_PAGE];
        // The corrupted write reports success (that is the whole point).
        dev.execute(Cycles(0), 2, NvmeCmd::Write(&pages(&data)))
            .unwrap();
        assert!(dev.poisoned_sectors() > 0, "flips recorded as poison");
        assert_eq!(dev.tainted_reads(), 0, "nothing returned yet");
        // The read also reports success but returns flipped bytes.
        let mut back = vec![0u8; STORE_PAGE];
        read_into(&dev, Cycles(0), 2, &mut back).unwrap();
        assert_ne!(back, data, "corruption is silent, not absent");
        let flipped: u32 = back
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 4, "exactly the budgeted bits flipped");
        assert_eq!(dev.tainted_reads(), 1, "one tainted page returned");
        // A clean rewrite heals the poison.
        dev.execute(Cycles(0), 2, NvmeCmd::Write(&pages(&data)))
            .unwrap();
        assert_eq!(dev.poisoned_sectors(), 0);
        read_into(&dev, Cycles(0), 2, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(dev.tainted_reads(), 1, "healed read is clean");
    }

    #[test]
    fn corrupt_read_flips_in_flight_only() {
        let dev = NvmeDevice::optane(8);
        dev.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.read:corrupt=2@op=1").unwrap(),
        ));
        let data = vec![0x11u8; STORE_PAGE];
        dev.execute(Cycles(0), 1, NvmeCmd::Write(&pages(&data)))
            .unwrap();
        let mut back = vec![0u8; STORE_PAGE];
        read_into(&dev, Cycles(0), 1, &mut back).unwrap();
        assert_ne!(back, data, "in-flight flip corrupted the transfer");
        assert_eq!(dev.tainted_reads(), 1);
        assert_eq!(dev.poisoned_sectors(), 0, "the medium itself is fine");
        // The next read (no fault drawn) is clean: one-shot clause.
        read_into(&dev, Cycles(0), 1, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(dev.tainted_reads(), 1);
    }

    #[test]
    fn latent_sectors_fail_reads_until_rewritten() {
        let dev = NvmeDevice::optane(8);
        dev.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.read:latent=2@op=2").unwrap(),
        ));
        let data = vec![0x33u8; STORE_PAGE];
        dev.execute(Cycles(0), 4, NvmeCmd::Write(&pages(&data)))
            .unwrap();
        let mut back = vec![0u8; STORE_PAGE];
        read_into(&dev, Cycles(0), 4, &mut back).unwrap();
        // Op 2 trips the latent clause: the read fails and keeps failing.
        assert_eq!(
            read_into(&dev, Cycles(0), 4, &mut back),
            Err(DeviceError::MediaError { page: 4 })
        );
        assert_eq!(dev.latent_sectors(), 2);
        assert_eq!(
            read_into(&dev, Cycles(0), 4, &mut back),
            Err(DeviceError::MediaError { page: 4 }),
            "latent errors persist"
        );
        // A rewrite heals the cells; reads work again.
        dev.execute(Cycles(0), 4, NvmeCmd::Write(&pages(&data)))
            .unwrap();
        assert_eq!(dev.latent_sectors(), 0);
        read_into(&dev, Cycles(0), 4, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let dev = NvmeDevice::optane(8);
        dev.set_fault_plan(Arc::new(FaultPlan::empty()));
        let data = vec![1u8; STORE_PAGE];
        for i in 0..4 {
            dev.execute(Cycles(0), i, NvmeCmd::Write(&pages(&data)))
                .unwrap();
        }
        assert_eq!(dev.fault_plan().unwrap().injected(), 0);
    }

    #[test]
    fn parallel_channels_overlap_service() {
        let dev = NvmeDevice::optane(1024);
        let mut buf = vec![0u8; STORE_PAGE];
        // Two commands at t=0 on a 128-channel device finish at nearly the
        // same time (only the IOPS gate separates them).
        let a = read_into(&dev, Cycles(0), 0, &mut buf).unwrap();
        let b = read_into(&dev, Cycles(0), 1, &mut buf).unwrap();
        assert!(a.max(b) <= Cycles::from_micros(15), "both done by 15 us");
        let spread = b.get() as i64 - a.get() as i64;
        assert!(spread.unsigned_abs() < 10_000, "channels overlap: {spread}");
    }
}
