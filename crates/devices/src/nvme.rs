//! NVMe device model with queue pairs.
//!
//! Models an Intel Optane P4800X-class PCIe SSD, the paper's testbed
//! device: ~10 us access latency, >500 K random IOPS, ~2.4 GB/s of
//! bandwidth, with deep internal parallelism. Submission and completion
//! follow the NVMe queue-pair discipline: commands are submitted to a
//! queue pair, complete at their service time, and are harvested by
//! polling the completion queue — exactly how SPDK drives the device
//! without kernel involvement.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use aquila_sync::Mutex;

use aquila_sim::fault::{
    CrashImage, DeviceImage, FaultOutcome, FaultPlan, FaultTarget, SECTOR_SIZE,
};
use aquila_sim::{Cycles, Page, ServiceCenter, SimCtx};

use crate::error::DeviceError;
use crate::store::{PageStore, STORE_PAGE};

/// Sectors per 4 KiB device page.
pub const SECTORS_PER_PAGE: u64 = (STORE_PAGE / SECTOR_SIZE) as u64;

/// An NVMe command opcode (the two the simulation needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmeOp {
    /// Read `pages` pages starting at `lba_page`.
    Read,
    /// Write `pages` pages starting at `lba_page`.
    Write,
}

/// A completed command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmeCompletion {
    /// The command identifier returned by submit.
    pub cid: u64,
    /// Virtual time the command finished on the device.
    pub finished_at: Cycles,
}

#[derive(Debug)]
struct Inflight {
    cid: u64,
    finish: Cycles,
}

/// Performance profile of an NVMe device.
#[derive(Debug, Clone)]
pub struct NvmeProfile {
    /// Base access latency per command.
    pub latency: Cycles,
    /// Internal parallelism (number of concurrently served commands).
    pub channels: usize,
    /// Aggregate IOPS cap (0 = unlimited).
    pub max_iops: u64,
    /// Aggregate bandwidth cap in bytes/s (0 = unlimited).
    pub max_bw: u64,
}

impl NvmeProfile {
    /// An Intel Optane DC P4800X-class profile (the paper's device).
    pub fn optane_p4800x() -> NvmeProfile {
        NvmeProfile {
            latency: Cycles::from_micros(10),
            channels: 128,
            max_iops: 550_000,
            max_bw: 2_400_000_000,
        }
    }
}

/// The NVMe device: real page contents plus a timing model.
pub struct NvmeDevice {
    store: PageStore,
    service: ServiceCenter,
    profile: NvmeProfile,
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
    tainted: AtomicU64,
}

impl NvmeDevice {
    /// Creates a device with `pages` 4 KiB pages and the given profile.
    pub fn new(pages: u64, profile: NvmeProfile) -> NvmeDevice {
        NvmeDevice {
            store: PageStore::new(pages),
            service: ServiceCenter::new(profile.channels, profile.max_iops, profile.max_bw),
            profile,
            fault: OnceLock::new(),
            poisoned: Mutex::new(BTreeSet::new()),
            latent: Mutex::new(BTreeSet::new()),
            tainted: AtomicU64::new(0),
        }
    }

    /// Restores a device from a captured image (a crash-consistency
    /// recovery boot): the store adopts the image's resident pages (the
    /// two share them until either side writes) and every other page
    /// stays implied zero.
    pub fn from_image(image: &DeviceImage, profile: NvmeProfile) -> NvmeDevice {
        let dev = NvmeDevice::new(image.pages, profile);
        for (page, data) in &image.resident {
            if dev.store.adopt(*page, data.clone()).is_err() {
                unreachable!("device is sized to hold the image");
            }
        }
        dev
    }

    /// Attaches a fault plan; commands submitted through any queue pair
    /// consult it. First attach wins (like the global plan install).
    pub fn set_fault_plan(&self, plan: Arc<FaultPlan>) {
        let _ = self.fault.set(plan);
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.get()
    }

    /// Creates an Optane-profile device.
    pub fn optane(pages: u64) -> NvmeDevice {
        NvmeDevice::new(pages, NvmeProfile::optane_p4800x())
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

    /// The device profile.
    pub fn profile(&self) -> &NvmeProfile {
        &self.profile
    }

    /// Commands still being served by the device at virtual time `now`
    /// (instantaneous queue occupancy across all queue pairs).
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
        self.tainted.load(Ordering::SeqCst)
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
        let r = self
            .service
            .submit(now, self.profile.latency + transfer, bytes);
        r.end
    }

    /// Creates an unbounded queue pair.
    pub fn create_qpair(&self) -> QueuePair<'_> {
        self.create_qpair_depth(usize::MAX)
    }

    /// Creates a queue pair that accepts at most `depth` in-flight
    /// commands; [`QueuePair::submit`] returns
    /// [`DeviceError::QueueFull`] past that, the backpressure signal the
    /// write-behind evictor paces itself with.
    pub fn create_qpair_depth(&self, depth: usize) -> QueuePair<'_> {
        QueuePair {
            dev: self,
            depth,
            inflight: Mutex::new(VecDeque::new()),
            next_cid: Mutex::new(0),
        }
    }
}

impl core::fmt::Debug for NvmeDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "NvmeDevice {{ pages: {}, profile: {:?} }}",
            self.capacity_pages(),
            self.profile
        )
    }
}

/// An NVMe submission/completion queue pair.
///
/// Commands move data immediately (the store is coherent) but *complete*
/// at their reserved device time; `poll` harvests completions that have
/// finished by the caller's current virtual time, mirroring SPDK's
/// `spdk_nvme_qpair_process_completions`.
pub struct QueuePair<'d> {
    dev: &'d NvmeDevice,
    depth: usize,
    inflight: Mutex<VecDeque<Inflight>>,
    next_cid: Mutex<u64>,
}

impl<'d> QueuePair<'d> {
    /// Submits a command; returns its command id.
    ///
    /// The submission itself costs nothing here — the *access path*
    /// (SPDK polled vs host kernel) charges its own per-command CPU cost.
    ///
    /// Fails if the range exceeds the device capacity, the buffer size
    /// does not match the page count, or a bounded queue is full.
    pub fn submit(
        &self,
        now: Cycles,
        op: NvmeOp,
        lba_page: u64,
        pages: usize,
        buf: BufRef<'_>,
    ) -> Result<u64, DeviceError> {
        if lba_page + pages as u64 > self.dev.capacity_pages() {
            return Err(DeviceError::OutOfRange {
                page: lba_page,
                pages,
                capacity: self.dev.capacity_pages(),
            });
        }
        if self.inflight.lock().len() >= self.depth {
            return Err(DeviceError::QueueFull { depth: self.depth });
        }
        // Injected faults draw after the organic checks, so an operation
        // number always names a command the queue actually admitted.
        let injected = self
            .dev
            .fault
            .get()
            .filter(|p| !p.is_empty())
            .and_then(|plan| {
                let target = match op {
                    NvmeOp::Read => FaultTarget::NvmeRead,
                    NvmeOp::Write => FaultTarget::NvmeWrite,
                };
                plan.draw(target, now)
            });
        match injected {
            Some(FaultOutcome::MediaError) => {
                return Err(DeviceError::MediaError { page: lba_page })
            }
            Some(FaultOutcome::Timeout) => return Err(DeviceError::Timeout),
            Some(FaultOutcome::QueueFull) => {
                return Err(DeviceError::QueueFull { depth: self.depth })
            }
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
        match (op, buf) {
            (NvmeOp::Read, BufRef::Out(out)) => {
                if out.len() != pages {
                    return Err(DeviceError::BufferSize {
                        expected: pages * STORE_PAGE,
                        got: out.len() * STORE_PAGE,
                    });
                }
                // A latent fault drawn on a read marks the leading
                // sectors of the range bad *now*; the read below then
                // trips over them like any later read would.
                if let Some(FaultOutcome::Latent { sectors }) = injected {
                    let mut lat = self.dev.latent.lock();
                    for s in first_sector..first_sector + sectors.min(nsectors) {
                        lat.insert(s);
                    }
                }
                // Latent sectors fail the whole command loudly (the
                // drive cannot return the data), naming the bad page.
                {
                    let lat = self.dev.latent.lock();
                    if let Some(&s) = lat.range(first_sector..first_sector + nsectors).next() {
                        return Err(DeviceError::MediaError {
                            page: s / SECTORS_PER_PAGE,
                        });
                    }
                }
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = self.dev.store.page(lba_page + i as u64)?;
                }
                // Silent corruption: flip bits in a private copy of the
                // *returned* pages (the medium is fine; the transfer
                // lied). Stored poison rides along for free since the
                // store holds the flipped bytes. Both count toward
                // `tainted`.
                let mut bad_page = vec![false; pages];
                if let Some(FaultOutcome::Corrupt { bits }) = injected {
                    for k in 0..bits {
                        let bit = NvmeDevice::flip_bit(k, pages * STORE_PAGE);
                        let (page, byte) = (bit / 8 / STORE_PAGE, bit / 8 % STORE_PAGE);
                        out[page].write(|b| b[byte] ^= 1 << (bit % 8));
                        bad_page[page] = true;
                    }
                }
                {
                    let poi = self.dev.poisoned.lock();
                    for &s in poi.range(first_sector..first_sector + nsectors) {
                        bad_page[((s - first_sector) / SECTORS_PER_PAGE) as usize] = true;
                    }
                }
                let tainted = bad_page.iter().filter(|&&t| t).count() as u64;
                if tainted > 0 {
                    self.dev.tainted.fetch_add(tainted, Ordering::SeqCst);
                }
            }
            (NvmeOp::Write, BufRef::Pages(list)) => {
                if list.len() != pages {
                    return Err(DeviceError::BufferSize {
                        expected: pages * STORE_PAGE,
                        got: list.len() * STORE_PAGE,
                    });
                }
                let got = pages * STORE_PAGE;
                let store = &self.dev.store;
                match injected {
                    Some(FaultOutcome::Torn { sectors }) => {
                        // The command dies mid-transfer: whole sectors up
                        // to the cut persist, the rest never land.
                        let keep = (sectors as usize * SECTOR_SIZE).min(got);
                        store.write_pages(lba_page, list, keep)?;
                        // The persisted prefix is fresh data.
                        self.dev
                            .heal_sectors(first_sector, (keep / SECTOR_SIZE) as u64);
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
                        self.dev.heal_sectors(first_sector, nsectors);
                        let mut poi = self.dev.poisoned.lock();
                        for s in bad {
                            poi.insert(s);
                        }
                    }
                    Some(FaultOutcome::Latent { sectors }) => {
                        // The write lands, then the cells degrade: the
                        // leading sectors become unreadable until the
                        // next rewrite.
                        store.write_pages(lba_page, list, got)?;
                        self.dev.heal_sectors(first_sector, nsectors);
                        let mut lat = self.dev.latent.lock();
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
                        if let Some(plan) = self.dev.fault.get() {
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
                        self.dev.heal_sectors(first_sector, nsectors);
                    }
                    _ => {
                        store.write_pages(lba_page, list, got)?;
                        self.dev.heal_sectors(first_sector, nsectors);
                    }
                }
            }
            _ => return Err(DeviceError::BufferDirection),
        }
        let finish = self.dev.reserve(now, pages);
        let mut cid_guard = self.next_cid.lock();
        let cid = *cid_guard;
        *cid_guard += 1;
        drop(cid_guard);
        self.inflight.lock().push_back(Inflight { cid, finish });
        Ok(cid)
    }

    /// Harvests completions finished by `now`.
    pub fn poll(&self, now: Cycles) -> Vec<NvmeCompletion> {
        let mut inflight = self.inflight.lock();
        let mut out = Vec::new();
        // Completions can finish out of order across channels; scan all.
        let mut i = 0;
        while i < inflight.len() {
            if inflight[i].finish <= now {
                if let Some(c) = inflight.remove(i) {
                    out.push(NvmeCompletion {
                        cid: c.cid,
                        finished_at: c.finish,
                    });
                }
            } else {
                i += 1;
            }
        }
        out
    }

    /// Number of commands still in flight.
    pub fn inflight(&self) -> usize {
        self.inflight.lock().len()
    }

    /// The queue depth (`usize::MAX` for unbounded pairs).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Virtual time the earliest in-flight command finishes, if any.
    ///
    /// The write-behind evictor waits until exactly this instant before
    /// polling again, so it harvests completions as they land instead of
    /// stalling for the whole batch the way [`Self::drain`] does.
    pub fn earliest_finish(&self) -> Option<Cycles> {
        self.inflight.lock().iter().map(|c| c.finish).min()
    }

    /// Spins (advancing the caller's clock) until all in-flight commands
    /// complete; charges the wait to `cat`.
    pub fn drain(&self, ctx: &mut dyn SimCtx, cat: aquila_sim::CostCat) -> Vec<NvmeCompletion> {
        let latest = self
            .inflight
            .lock()
            .iter()
            .map(|c| c.finish)
            .max()
            .unwrap_or(Cycles::ZERO);
        ctx.wait_until(latest, cat);
        self.poll(ctx.now())
    }
}

/// The pages a command moves, handed to [`QueuePair::submit`].
pub enum BufRef<'a> {
    /// Source data for writes: one page per device page, in device
    /// order, like an NVMe PRP list. The store adopts the pages
    /// themselves; no bytes move on the host.
    Pages(&'a [Page]),
    /// Destination for reads: each slot receives a reference to the
    /// stored page (a private copy when an injected fault flips bits in
    /// flight).
    Out(&'a mut [Page]),
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::{CostCat, FreeCtx};

    /// The page list of a contiguous buffer.
    fn pages(buf: &[u8]) -> Vec<Page> {
        buf.chunks(STORE_PAGE).map(Page::copy_of).collect()
    }

    /// Reads `n` pages from `page` through `qp` into `buf`.
    fn read_into(
        qp: &QueuePair<'_>,
        now: Cycles,
        page: u64,
        n: usize,
        buf: &mut [u8],
    ) -> Result<u64, DeviceError> {
        let mut out = vec![Page::zero(); buf.len() / STORE_PAGE];
        let cid = qp.submit(now, NvmeOp::Read, page, n, BufRef::Out(&mut out))?;
        for (dst, p) in buf.chunks_mut(STORE_PAGE).zip(&out) {
            dst.copy_from_slice(&p.read());
        }
        Ok(cid)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let dev = NvmeDevice::optane(64);
        let qp = dev.create_qpair();
        let data = vec![0xABu8; STORE_PAGE];
        qp.submit(Cycles(0), NvmeOp::Write, 5, 1, BufRef::Pages(&pages(&data)))
            .unwrap();
        let mut back = vec![0u8; STORE_PAGE];
        read_into(&qp, Cycles(0), 5, 1, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn completion_arrives_after_latency() {
        let dev = NvmeDevice::optane(16);
        let qp = dev.create_qpair();
        let mut buf = vec![0u8; STORE_PAGE];
        let cid = read_into(&qp, Cycles(0), 0, 1, &mut buf).unwrap();
        // Nothing completes before the 10 us latency.
        assert!(qp.poll(Cycles(1000)).is_empty());
        assert_eq!(qp.inflight(), 1);
        let done = qp.poll(Cycles::from_micros(12));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].cid, cid);
        assert_eq!(qp.inflight(), 0);
    }

    #[test]
    fn drain_advances_clock_to_completion() {
        let dev = NvmeDevice::optane(16);
        let qp = dev.create_qpair();
        let mut buf = vec![0u8; STORE_PAGE];
        read_into(&qp, Cycles(0), 0, 1, &mut buf).unwrap();
        let mut ctx = FreeCtx::new(1);
        let done = qp.drain(&mut ctx, CostCat::DeviceIo);
        assert_eq!(done.len(), 1);
        assert!(ctx.now() >= Cycles::from_micros(10));
    }

    #[test]
    fn iops_cap_paces_submissions() {
        // 550 K IOPS => ~4363 cycles between admissions.
        let dev = NvmeDevice::optane(1024);
        let qp = dev.create_qpair();
        let mut buf = vec![0u8; STORE_PAGE];
        for i in 0..100 {
            read_into(&qp, Cycles(0), i, 1, &mut buf).unwrap();
        }
        // All 100 commands were admitted and stay in flight until drained.
        assert_eq!(qp.inflight(), 100);
        let mut ctx = FreeCtx::new(1);
        qp.drain(&mut ctx, CostCat::DeviceIo);
        // 100 admissions paced at the IOPS gate: at least 99 * 4363 cycles
        // before the last admission, plus 10 us service.
        assert!(
            ctx.now().get() > 99 * 4300,
            "IOPS gate must pace: {}",
            ctx.now()
        );
        assert_eq!(qp.inflight(), 0);
    }

    #[test]
    fn multi_page_io_roundtrip() {
        let dev = NvmeDevice::optane(64);
        let qp = dev.create_qpair();
        let data: Vec<u8> = (0..8 * STORE_PAGE).map(|i| (i % 253) as u8).collect();
        qp.submit(
            Cycles(0),
            NvmeOp::Write,
            16,
            8,
            BufRef::Pages(&pages(&data)),
        )
        .unwrap();
        let mut back = vec![0u8; 8 * STORE_PAGE];
        read_into(&qp, Cycles(0), 16, 8, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn io_beyond_capacity_is_error() {
        let dev = NvmeDevice::optane(4);
        let qp = dev.create_qpair();
        let err = read_into(&qp, Cycles(0), 3, 2, &mut vec![0u8; 2 * STORE_PAGE]).unwrap_err();
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
    fn bounded_qpair_reports_full_and_mismatches() {
        let dev = NvmeDevice::optane(64);
        let qp = dev.create_qpair_depth(2);
        let mut buf = vec![0u8; STORE_PAGE];
        read_into(&qp, Cycles(0), 0, 1, &mut buf).unwrap();
        read_into(&qp, Cycles(0), 1, 1, &mut buf).unwrap();
        assert_eq!(
            read_into(&qp, Cycles(0), 2, 1, &mut buf),
            Err(DeviceError::QueueFull { depth: 2 })
        );
        // Harvesting frees a slot.
        assert!(qp.earliest_finish().is_some());
        qp.poll(Cycles::from_micros(20));
        read_into(&qp, Cycles(0), 2, 1, &mut buf).unwrap();
        // Direction and size mismatches are reportable too.
        assert_eq!(
            qp.submit(
                Cycles(0),
                NvmeOp::Write,
                0,
                1,
                BufRef::Out(&mut [Page::zero()])
            ),
            Err(DeviceError::BufferDirection)
        );
        assert_eq!(
            read_into(&qp, Cycles(0), 0, 2, &mut buf),
            Err(DeviceError::BufferSize {
                expected: 2 * STORE_PAGE,
                got: STORE_PAGE
            })
        );
    }

    #[test]
    fn injected_media_error_fires_once_then_heals() {
        let dev = NvmeDevice::optane(64);
        dev.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.write:media_error@op=2").unwrap(),
        ));
        let qp = dev.create_qpair();
        let data = vec![7u8; STORE_PAGE];
        qp.submit(Cycles(0), NvmeOp::Write, 0, 1, BufRef::Pages(&pages(&data)))
            .unwrap();
        assert_eq!(
            qp.submit(Cycles(0), NvmeOp::Write, 1, 1, BufRef::Pages(&pages(&data))),
            Err(DeviceError::MediaError { page: 1 })
        );
        // The failed write never reached the medium.
        let mut back = vec![0u8; STORE_PAGE];
        read_into(&qp, Cycles(0), 1, 1, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0));
        // The retry (op 3) succeeds.
        qp.submit(Cycles(0), NvmeOp::Write, 1, 1, BufRef::Pages(&pages(&data)))
            .unwrap();
    }

    #[test]
    fn torn_write_persists_sector_prefix_only() {
        let dev = NvmeDevice::optane(8);
        dev.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.write:torn=3@op=1").unwrap(),
        ));
        let qp = dev.create_qpair();
        let data = vec![0xAAu8; STORE_PAGE];
        assert_eq!(
            qp.submit(Cycles(0), NvmeOp::Write, 2, 1, BufRef::Pages(&pages(&data))),
            Err(DeviceError::MediaError { page: 2 })
        );
        let mut back = vec![0u8; STORE_PAGE];
        read_into(&qp, Cycles(0), 2, 1, &mut back).unwrap();
        let cut = 3 * SECTOR_SIZE;
        assert!(back[..cut].iter().all(|&b| b == 0xAA), "prefix persisted");
        assert!(back[cut..].iter().all(|&b| b == 0), "tail never landed");
    }

    #[test]
    fn crash_point_captures_torn_image_and_run_continues() {
        let dev = NvmeDevice::optane(8);
        let plan = Arc::new(FaultPlan::parse("nvme.write:crash=2@op=2").unwrap());
        dev.set_fault_plan(Arc::clone(&plan));
        let qp = dev.create_qpair();
        let old = vec![0x11u8; STORE_PAGE];
        let new = vec![0x22u8; STORE_PAGE];
        qp.submit(Cycles(0), NvmeOp::Write, 3, 1, BufRef::Pages(&pages(&old)))
            .unwrap();
        // Op 2 overwrites page 3; the cut lands mid-transfer.
        qp.submit(Cycles(99), NvmeOp::Write, 3, 1, BufRef::Pages(&pages(&new)))
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
        read_into(&qp, Cycles(100), 3, 1, &mut back).unwrap();
        assert_eq!(back, new);
        // A recovered device boots from the captured image.
        let rec = NvmeDevice::from_image(&img.image, NvmeProfile::optane_p4800x());
        assert_eq!(rec.capacity_pages(), 8);
        let mut rback = vec![0u8; STORE_PAGE];
        read_into(&rec.create_qpair(), Cycles(0), 3, 1, &mut rback).unwrap();
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
            let qp = dev.create_qpair();
            let old: Vec<u8> = (0..3 * STORE_PAGE).map(|i| (i % 251) as u8 + 1).collect();
            qp.submit(Cycles(0), NvmeOp::Write, 1, 3, BufRef::Pages(&pages(&old)))
                .unwrap();
            qp.submit(
                Cycles(0),
                NvmeOp::Write,
                9,
                1,
                BufRef::Pages(&pages(&old[..STORE_PAGE])),
            )
            .unwrap();
            dev.store().discard(9).unwrap();
            let plan =
                Arc::new(FaultPlan::parse(&format!("nvme.write:crash={sectors}@op=1")).unwrap());
            dev.set_fault_plan(Arc::clone(&plan));
            let new = vec![0xC3u8; 2 * STORE_PAGE];
            let pos = first * STORE_PAGE as u64;
            let keep = sectors as usize * SECTOR_SIZE;
            let want = flat_torn_image(dev.store(), pos, &new, keep);
            qp.submit(
                Cycles(5),
                NvmeOp::Write,
                first,
                2,
                BufRef::Pages(&pages(&new)),
            )
            .unwrap();
            let img = plan.crash_image().expect("crash captured").image;
            assert_eq!(img.bytes() as usize, want.len());
            assert!(
                img.resident.windows(2).all(|w| w[0].0 < w[1].0),
                "resident pages in page order"
            );
            assert_eq!(expand(&img), want, "sectors={sectors} first={first}");
            let rec = NvmeDevice::from_image(&img, NvmeProfile::optane_p4800x());
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
            dev.create_qpair()
                .submit(Cycles(0), NvmeOp::Write, 3, 6, BufRef::Pages(&pages(&old)))
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
            let res =
                dev.create_qpair()
                    .submit(Cycles(0), NvmeOp::Write, first, 3, BufRef::Pages(&list));
            assert_eq!(res, Err(DeviceError::MediaError { page: first }));
            let mut got = vec![0u8; want.len()];
            dev.store().read_range(0, &mut got).unwrap();
            assert_eq!(got, want, "torn={sectors}");

            let crash = format!("nvme.write:crash={sectors}@op=1");
            let (dev, plan) = seeded(&crash);
            let want = flat_torn_image(dev.store(), pos, &flat, keep);
            dev.create_qpair()
                .submit(Cycles(0), NvmeOp::Write, first, 3, BufRef::Pages(&list))
                .unwrap();
            let img = plan.crash_image().expect("crash captured").image;
            assert_eq!(expand(&img), want, "crash={sectors}");
        }
        for bits in [1u64, 9, 64] {
            let (dev, _) = seeded(&format!("nvme.write:corrupt={bits}@op=1"));
            dev.create_qpair()
                .submit(Cycles(0), NvmeOp::Write, first, 3, BufRef::Pages(&list))
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
        let qp = dev.create_qpair();
        let data = vec![0x5Au8; STORE_PAGE];
        // The corrupted write reports success (that is the whole point).
        qp.submit(Cycles(0), NvmeOp::Write, 2, 1, BufRef::Pages(&pages(&data)))
            .unwrap();
        assert!(dev.poisoned_sectors() > 0, "flips recorded as poison");
        assert_eq!(dev.tainted_reads(), 0, "nothing returned yet");
        // The read also reports success but returns flipped bytes.
        let mut back = vec![0u8; STORE_PAGE];
        read_into(&qp, Cycles(0), 2, 1, &mut back).unwrap();
        assert_ne!(back, data, "corruption is silent, not absent");
        let flipped: u32 = back
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 4, "exactly the budgeted bits flipped");
        assert_eq!(dev.tainted_reads(), 1, "one tainted page returned");
        // A clean rewrite heals the poison.
        qp.submit(Cycles(0), NvmeOp::Write, 2, 1, BufRef::Pages(&pages(&data)))
            .unwrap();
        assert_eq!(dev.poisoned_sectors(), 0);
        read_into(&qp, Cycles(0), 2, 1, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(dev.tainted_reads(), 1, "healed read is clean");
    }

    #[test]
    fn corrupt_read_flips_in_flight_only() {
        let dev = NvmeDevice::optane(8);
        dev.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.read:corrupt=2@op=1").unwrap(),
        ));
        let qp = dev.create_qpair();
        let data = vec![0x11u8; STORE_PAGE];
        qp.submit(Cycles(0), NvmeOp::Write, 1, 1, BufRef::Pages(&pages(&data)))
            .unwrap();
        let mut back = vec![0u8; STORE_PAGE];
        read_into(&qp, Cycles(0), 1, 1, &mut back).unwrap();
        assert_ne!(back, data, "in-flight flip corrupted the transfer");
        assert_eq!(dev.tainted_reads(), 1);
        assert_eq!(dev.poisoned_sectors(), 0, "the medium itself is fine");
        // The next read (no fault drawn) is clean: one-shot clause.
        read_into(&qp, Cycles(0), 1, 1, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(dev.tainted_reads(), 1);
    }

    #[test]
    fn latent_sectors_fail_reads_until_rewritten() {
        let dev = NvmeDevice::optane(8);
        dev.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.read:latent=2@op=2").unwrap(),
        ));
        let qp = dev.create_qpair();
        let data = vec![0x33u8; STORE_PAGE];
        qp.submit(Cycles(0), NvmeOp::Write, 4, 1, BufRef::Pages(&pages(&data)))
            .unwrap();
        let mut back = vec![0u8; STORE_PAGE];
        read_into(&qp, Cycles(0), 4, 1, &mut back).unwrap();
        // Op 2 trips the latent clause: the read fails and keeps failing.
        assert_eq!(
            read_into(&qp, Cycles(0), 4, 1, &mut back),
            Err(DeviceError::MediaError { page: 4 })
        );
        assert_eq!(dev.latent_sectors(), 2);
        assert_eq!(
            read_into(&qp, Cycles(0), 4, 1, &mut back),
            Err(DeviceError::MediaError { page: 4 }),
            "latent errors persist"
        );
        // A rewrite heals the cells; reads work again.
        qp.submit(Cycles(0), NvmeOp::Write, 4, 1, BufRef::Pages(&pages(&data)))
            .unwrap();
        assert_eq!(dev.latent_sectors(), 0);
        read_into(&qp, Cycles(0), 4, 1, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let dev = NvmeDevice::optane(8);
        dev.set_fault_plan(Arc::new(FaultPlan::empty()));
        let qp = dev.create_qpair();
        let data = vec![1u8; STORE_PAGE];
        for i in 0..4 {
            qp.submit(Cycles(0), NvmeOp::Write, i, 1, BufRef::Pages(&pages(&data)))
                .unwrap();
        }
        assert_eq!(dev.fault_plan().unwrap().injected(), 0);
    }

    #[test]
    fn parallel_channels_overlap_service() {
        let dev = NvmeDevice::optane(1024);
        let qp = dev.create_qpair();
        let mut buf = vec![0u8; STORE_PAGE];
        // Two commands at t=0 on a 128-channel device finish at nearly the
        // same time (only the IOPS gate separates them).
        read_into(&qp, Cycles(0), 0, 1, &mut buf).unwrap();
        read_into(&qp, Cycles(0), 1, 1, &mut buf).unwrap();
        let done = qp.poll(Cycles::from_micros(15));
        assert_eq!(done.len(), 2);
        let spread = done[1].finished_at.get() as i64 - done[0].finished_at.get() as i64;
        assert!(spread.unsigned_abs() < 10_000, "channels overlap: {spread}");
    }
}
