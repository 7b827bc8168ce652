//! 2-way mirrored NVMe access with verified reads and read-repair.
//!
//! The paper's durability story assumes the device returns the bytes it
//! was given; real fleets see bit-rot and latent sector errors. This
//! layer closes that gap end to end:
//!
//! - every write lands on *two* devices (primary + replica) and records,
//!   per device page, the [`Page`] handle it wrote;
//! - every read verifies the primary against that record before a byte
//!   reaches the page cache — a mismatch or an unreadable
//!   (latent) sector triggers *read-repair*: fetch the replica, verify
//!   it, hand the clean copy to the caller, and rewrite the primary;
//! - a background scrubber (driven by the engine) walks LBAs through
//!   [`MirrorAccess::scrub_page`] so cold corruption is found and
//!   repaired before a tenant ever asks for the page;
//! - when *both* copies fail verification the read surfaces
//!   [`DeviceError::Corrupt`] instead of silently serving garbage, and
//!   the engine degrades the region (DESIGN.md §16).
//!
//! A read that returns the very page the mirror recorded verifies by
//! identity: pages are copy-on-write and the record holds a reference,
//! so nobody can have changed its bytes in place. Any other page (a
//! device's flipped private copy, a torn page, an in-flight read flip)
//! is compared with the record by its eight 512-byte sector CRC-32Cs
//! ([`aquila_sync::crc32c_sectors`]). A never-written page is recorded
//! as the zero page (the store reads zeros for it), so even the first
//! fill of a fresh page is covered.
//!
//! Both copies adopt the same [`Page`]s on a write, so the host holds a
//! mirrored page once; a fault that flips bits as data lands flips them
//! in a private copy of the faulty device only.
//!
//! Writeback batches keep the deep queues of the unmirrored path:
//! [`StorageAccess::write_batch`] records every segment's pages up
//! front, then submits each
//! segment to the primary and then the replica through one
//! depth-`depth` queue pair per device, each under that device's own
//! breaker, and drains both at the end, so the two devices serve the
//! batch concurrently. A segment that never reached the primary gets its
//! previous records back, so the table only ever describes bytes that
//! landed.

use std::sync::Arc;

use aquila_sim::{CostCat, Page, SimCtx};
use aquila_sync::Mutex;

use crate::access::{write_each, AccessKind, Entry, NvmeAccess, StorageAccess};
use crate::error::DeviceError;
use crate::nvme::NvmeDevice;
use crate::retry;

#[cfg(test)]
thread_local! {
    /// Pages this thread's mirrors hashed to verify a read.
    static HASHED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The eight sector CRCs of `data`.
fn sector_crcs(data: &[u8]) -> [u32; 8] {
    #[cfg(test)]
    HASHED.with(|n| n.set(n.get() + 1));
    aquila_sync::crc32c_sectors(data)
}

/// Integrity counters a mirrored path exposes for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityCounters {
    /// Pages whose primary read failed checksum verification (silent
    /// corruption caught before reaching a caller).
    pub detected: u64,
    /// Pages repaired from the replica (checksum mismatch or latent
    /// primary error).
    pub repaired: u64,
    /// Pages where the replica also failed verification; the read
    /// surfaced [`DeviceError::Corrupt`].
    pub unrepairable: u64,
    /// Repairs that skipped the primary rewrite (a concurrent writer
    /// superseded the page, or the rewrite itself failed; the caller
    /// still got clean data).
    pub repair_skipped: u64,
    /// Ground truth from the primary device: pages of corrupt data it
    /// silently returned. `tainted - detected` is the number of
    /// corruptions that reached a caller unnoticed.
    pub tainted: u64,
    /// Write commands (both copies) the mirror issued through queue
    /// pairs deeper than one: the batched writeback path.
    pub queued_writes: u64,
}

impl IntegrityCounters {
    /// Corrupt pages the device returned that no checksum caught. The
    /// integrity invariant is that this is zero.
    pub fn undetected(&self) -> u64 {
        self.tainted.saturating_sub(self.detected)
    }
}

/// Two-way mirrored access with verified reads over two polled NVMe paths.
pub struct MirrorAccess {
    primary: NvmeAccess,
    replica: NvmeAccess,
    /// Per device page, the page last written through the mirror (the
    /// zero page if never): what a read of it must return.
    written: Vec<Mutex<Page>>,
    /// Per-page write version, bumped when a write *begins*. Repair
    /// rechecks it before rewriting the primary so a scrub racing a
    /// writeback never resurrects stale bytes.
    versions: Mutex<Vec<u64>>,
    /// Every count but `tainted`, which the primary device keeps.
    counts: Mutex<IntegrityCounters>,
    /// A per-sector CRC-32C table that, when set, verifies reads in
    /// place of `written`: the differential tests' reference.
    #[cfg(test)]
    reference: Option<tests::SectorSums>,
}

impl MirrorAccess {
    /// Mirrors `primary` onto `replica`.
    ///
    /// Content already on the primary (a formatted blobstore, a
    /// recovered crash image) is synced to the replica and recorded,
    /// modeling mirrors attached from birth.
    pub fn new(primary: Arc<NvmeDevice>, replica: Arc<NvmeDevice>) -> MirrorAccess {
        let pages = primary.capacity_pages().min(replica.capacity_pages());
        let written = (0..pages).map(|_| Mutex::new(Page::zero())).collect();
        let versions = Mutex::new(vec![0; pages as usize]);
        let m = MirrorAccess {
            primary: NvmeAccess::new(primary, Entry::Direct),
            replica: NvmeAccess::new(replica, Entry::Direct),
            written,
            versions,
            counts: Mutex::new(IntegrityCounters::default()),
            #[cfg(test)]
            reference: None,
        };
        m.sync_existing(pages);
        m
    }

    /// Shares pre-existing primary content with the replica and records
    /// it (free of simulated time: the mirror existed before the run).
    /// Only materialized pages can hold data, and an all-zero one
    /// already verifies against the zero page.
    fn sync_existing(&self, pages: u64) {
        let replica = self.replica.device().store();
        self.primary.device().store().for_each_resident(|p, data| {
            let nonzero = data.read().iter().any(|&b| b != 0);
            if p < pages && nonzero {
                let _ = replica.adopt(p, data.clone());
                *self.written[p as usize].lock() = data.clone();
            }
        });
    }

    /// The primary device (fault plans attach here).
    pub fn primary_device(&self) -> &Arc<NvmeDevice> {
        self.primary.device()
    }

    /// The replica device.
    pub fn replica_device(&self) -> &Arc<NvmeDevice> {
        self.replica.device()
    }

    /// Starts a write of the page list `pages` at `page`: bumps the page
    /// versions first, so an in-flight scrub of the old bytes never
    /// rewrites them over this write, then records the new pages.
    /// Appends the records they replaced, one per page, to `prev` for
    /// [`Self::abort_write`].
    fn begin_write(&self, page: u64, pages: &[Page], prev: &mut Vec<Page>) {
        for v in &mut self.versions.lock()[page as usize..][..pages.len()] {
            *v += 1;
        }
        for (slot, data) in self.written[page as usize..].iter().zip(pages) {
            prev.push(std::mem::replace(&mut *slot.lock(), data.clone()));
        }
        #[cfg(test)]
        if let Some(r) = &self.reference {
            r.begin(page, pages);
        }
    }

    /// Undoes [`Self::begin_write`]'s records for a write of `pages`
    /// that never reached the primary, so the table keeps describing
    /// the bytes on the medium. A page a later write has already
    /// re-recorded keeps that newer record.
    fn abort_write(&self, page: u64, pages: &[Page], prev: &[Page]) {
        let slots = self.written[page as usize..].iter();
        for ((slot, ours), old) in slots.zip(pages).zip(prev) {
            let mut slot = slot.lock();
            if slot.same_as(ours) {
                *slot = old.clone();
            }
        }
        #[cfg(test)]
        if let Some(r) = &self.reference {
            r.abort(page, pages);
        }
    }

    /// Whether `data`, as a read of `page` returned it, holds the bytes
    /// last written there.
    fn verify_page(&self, page: u64, data: &Page) -> bool {
        let ok = self.matches_record(page, data);
        #[cfg(test)]
        if let Some(r) = &self.reference {
            return r.verify(page, data, ok);
        }
        ok
    }

    /// True at once when `data` is the recorded page of `page` (its
    /// bytes cannot have changed: the record holds a reference, and a
    /// shared page is copied before any write), else when its sector
    /// CRCs equal the recorded page's.
    fn matches_record(&self, page: u64, data: &Page) -> bool {
        let recorded = {
            let slot = self.written[page as usize].lock();
            if slot.same_as(data) {
                return true;
            }
            slot.clone()
        };
        let got = sector_crcs(&data.read());
        got == sector_crcs(&recorded.read())
    }

    /// `page`'s write version.
    fn version(&self, page: u64) -> u64 {
        self.versions.lock()[page as usize]
    }

    /// Reads one page with verification and repair into `out`. Returns
    /// whether a repair happened.
    fn fetch_page(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        out: &mut Page,
    ) -> Result<bool, DeviceError> {
        let v0 = self.version(page);
        match self.primary.read_refs(ctx, page, std::slice::from_mut(out)) {
            Ok(()) => {
                if self.verify_page(page, out) {
                    return Ok(false);
                }
                // Silent corruption caught before it reaches the caller.
                self.counts.lock().detected += 1;
                self.repair_page(ctx, page, v0, out)
            }
            // The primary cannot produce the page at all (latent sector,
            // persistent media error): loud, so not "detected", but the
            // replica can still serve and heal it.
            Err(DeviceError::MediaError { .. }) => self.repair_page(ctx, page, v0, out),
            Err(e) => Err(e),
        }
    }

    /// Fetches the replica copy, verifies it, hands it to the caller,
    /// and rewrites the primary (which also heals latent sectors). The
    /// caller and both devices end up sharing the replica's page.
    fn repair_page(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        v0: u64,
        out: &mut Page,
    ) -> Result<bool, DeviceError> {
        let mut rep = [Page::zero()];
        if self.replica.read_refs(ctx, page, &mut rep).is_err() {
            self.counts.lock().unrepairable += 1;
            return Err(DeviceError::Corrupt { page });
        }
        if !self.verify_page(page, &rep[0]) {
            if self.version(page) != v0 {
                // A writer moved the page mid-verification; the error is
                // transient and a retry reads the settled state.
                self.counts.lock().repair_skipped += 1;
                return Err(DeviceError::Corrupt { page });
            }
            self.counts.lock().unrepairable += 1;
            return Err(DeviceError::Corrupt { page });
        }
        *out = rep[0].clone();
        // Rewrite the primary unless a newer write superseded the page
        // (the caller still gets the clean copy either way).
        if self.version(page) == v0 {
            if self.primary.write_refs(ctx, page, &rep).is_err() {
                self.counts.lock().repair_skipped += 1;
            }
        } else {
            self.counts.lock().repair_skipped += 1;
        }
        self.counts.lock().repaired += 1;
        Ok(true)
    }
}

impl StorageAccess for MirrorAccess {
    fn kind(&self) -> AccessKind {
        AccessKind::SpdkNvme
    }

    fn capacity_pages(&self) -> u64 {
        self.written.len() as u64
    }

    fn reset_timing(&self) {
        self.primary.reset_timing();
        self.replica.reset_timing();
    }

    fn read_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        out: &mut [Page],
    ) -> Result<(), DeviceError> {
        // Page-at-a-time so one bad sector repairs exactly one page;
        // the mirror forfeits multi-page command coalescing.
        for (i, slot) in out.iter_mut().enumerate() {
            let p = page + i as u64;
            // Bounded retry: a one-shot in-flight flip re-reads clean;
            // persistent double corruption exhausts the budget and the
            // engine degrades the region. No breaker — degraded regions
            // must keep serving reads (DESIGN.md §11).
            retry::run(ctx, None, |ctx| self.fetch_page(ctx, p, slot).map(|_| ()))?;
        }
        Ok(())
    }

    /// Both copies adopt the same pages: the replica shares the
    /// primary's bytes instead of holding a second copy.
    fn write_refs(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        pages: &[Page],
    ) -> Result<(), DeviceError> {
        let mut prev = Vec::new();
        self.begin_write(page, pages, &mut prev);
        if let Err(e) = self.primary.write_refs(ctx, page, pages) {
            self.abort_write(page, pages, &prev);
            return Err(e);
        }
        self.replica.write_refs(ctx, page, pages)
    }

    /// One depth-`depth` queue pair per copy: each segment goes to the
    /// primary and then the replica, and both queues drain at the end.
    fn write_batch(
        &self,
        ctx: &mut dyn SimCtx,
        segs: &[(u64, &[Page])],
        depth: usize,
    ) -> Result<u64, DeviceError> {
        if depth <= 1 {
            return write_each(self, ctx, segs);
        }
        let mut prev = Vec::new();
        for &(page, pages) in segs {
            self.begin_write(page, pages, &mut prev);
        }
        let pq = self.primary.device().create_qpair(depth);
        let rq = self.replica.device().create_qpair(depth);
        let mut issued = 0u64;
        let mut failure = None;
        for (i, &(page, pages)) in segs.iter().enumerate() {
            if let Err(e) = self.primary.queue_write(ctx, &pq, page, pages) {
                failure = Some((i, e));
                break;
            }
            issued += 1;
            if let Err(e) = self.replica.queue_write(ctx, &rq, page, pages) {
                failure = Some((i + 1, e));
                break;
            }
            issued += 1;
        }
        self.counts.lock().queued_writes += issued;
        if let Some((landed, e)) = failure {
            // `prev` holds each segment's records in order.
            let mut prev = &prev[..];
            for (i, &(page, pages)) in segs.iter().enumerate() {
                let (ours, rest) = prev.split_at(prev.len().min(pages.len()));
                if i >= landed {
                    self.abort_write(page, pages, ours);
                }
                prev = rest;
            }
            return Err(e);
        }
        pq.drain(ctx, CostCat::DeviceIo);
        rq.drain(ctx, CostCat::DeviceIo);
        Ok(issued)
    }

    fn nvme_device(&self) -> Option<&Arc<NvmeDevice>> {
        self.primary.nvme_device()
    }

    fn scrub_page(&self, ctx: &mut dyn SimCtx, page: u64) -> Result<bool, DeviceError> {
        if page >= self.capacity_pages() {
            return Ok(false);
        }
        self.fetch_page(ctx, page, &mut Page::zero())
    }

    fn integrity_counters(&self) -> Option<IntegrityCounters> {
        Some(IntegrityCounters {
            tainted: self.primary.device().tainted_reads(),
            ..*self.counts.lock()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::fault::{DeviceImage, FaultPlan};
    use aquila_sim::FreeCtx;

    use crate::store::STORE_PAGE;

    fn mirror_over(plan: Option<&str>) -> MirrorAccess {
        let primary = Arc::new(NvmeDevice::optane(16));
        if let Some(spec) = plan {
            primary.set_fault_plan(Arc::new(FaultPlan::parse(spec).unwrap()));
        }
        MirrorAccess::new(primary, Arc::new(NvmeDevice::optane(16)))
    }

    fn page_of(b: u8) -> Vec<u8> {
        vec![b; STORE_PAGE]
    }

    /// The bytes of `page` as a raw read of `dev` returns them.
    fn raw_read(dev: &NvmeDevice, page: u64) -> Vec<u8> {
        dev.store().page(page).unwrap().read().to_vec()
    }

    #[test]
    fn clean_roundtrip_keeps_counters_zero() {
        let m = mirror_over(None);
        let mut ctx = FreeCtx::new(1);
        let data = page_of(0x42);
        m.write_pages(&mut ctx, 3, &data).unwrap();
        let mut back = page_of(0);
        m.read_pages(&mut ctx, 3, &mut back).unwrap();
        assert_eq!(back, data);
        let c = m.integrity_counters().unwrap();
        assert_eq!(c, IntegrityCounters::default());
        // The replica holds the same bytes.
        assert_eq!(raw_read(m.replica_device(), 3), data);
        assert!(
            m.replica_device()
                .store()
                .page(3)
                .unwrap()
                .same_as(&m.primary_device().store().page(3).unwrap()),
            "both copies share one page"
        );
    }

    #[test]
    fn silent_write_corruption_is_detected_and_repaired() {
        let m = mirror_over(Some("nvme.write:corrupt=8@op=1"));
        let mut ctx = FreeCtx::new(1);
        let data = page_of(0x5A);
        // The corrupted write lands flipped on the primary, clean on the
        // replica (the plan is attached to the primary only).
        m.write_pages(&mut ctx, 2, &data).unwrap();
        assert!(m.primary_device().poisoned_sectors() > 0);
        // The read catches the mismatch and serves the replica's copy.
        let mut back = page_of(0);
        m.read_pages(&mut ctx, 2, &mut back).unwrap();
        assert_eq!(back, data, "caller saw clean bytes");
        let c = m.integrity_counters().unwrap();
        assert!(c.detected >= 1);
        assert!(c.repaired >= 1);
        assert_eq!(c.unrepairable, 0);
        assert_eq!(c.undetected(), 0, "every taint was caught");
        // Read-repair healed the primary: a raw device read is clean.
        assert_eq!(m.primary_device().poisoned_sectors(), 0);
        assert_eq!(raw_read(m.primary_device(), 2), data);
    }

    #[test]
    fn in_flight_read_flip_is_served_from_replica() {
        let m = mirror_over(Some("nvme.read:corrupt=2@op=2"));
        let mut ctx = FreeCtx::new(1);
        let data = page_of(0x17);
        m.write_pages(&mut ctx, 1, &data).unwrap(); // reads op 0 so far
        let mut back = page_of(0);
        m.read_pages(&mut ctx, 1, &mut back).unwrap();
        m.read_pages(&mut ctx, 1, &mut back).unwrap();
        assert_eq!(back, data);
        let c = m.integrity_counters().unwrap();
        assert!(c.detected >= 1, "the flipped transfer was caught");
        assert_eq!(c.undetected(), 0);
    }

    #[test]
    fn latent_primary_sector_repairs_from_replica() {
        let m = mirror_over(Some("nvme.read:latent=2@op=1"));
        let mut ctx = FreeCtx::new(1);
        let data = page_of(0x33);
        m.write_pages(&mut ctx, 4, &data).unwrap();
        let mut back = page_of(0);
        m.read_pages(&mut ctx, 4, &mut back).unwrap();
        assert_eq!(back, data, "replica served through the latent error");
        let c = m.integrity_counters().unwrap();
        assert!(c.repaired >= 1);
        // The repair rewrite healed the latent sectors.
        assert_eq!(m.primary_device().latent_sectors(), 0);
    }

    #[test]
    fn double_corruption_surfaces_typed_error() {
        let primary = Arc::new(NvmeDevice::optane(16));
        let replica = Arc::new(NvmeDevice::optane(16));
        // The same deterministic flips land on both copies, so the
        // replica cannot repair the primary.
        primary.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.write:corrupt=8@op=1").unwrap(),
        ));
        replica.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.write:corrupt=8@op=1").unwrap(),
        ));
        let m = MirrorAccess::new(primary, replica);
        let mut ctx = FreeCtx::new(1);
        m.write_pages(&mut ctx, 5, &page_of(0x77)).unwrap();
        let mut back = page_of(0);
        let err = m.read_pages(&mut ctx, 5, &mut back).unwrap_err();
        assert_eq!(err, DeviceError::Corrupt { page: 5 });
        let c = m.integrity_counters().unwrap();
        assert!(c.unrepairable >= 1);
        assert_eq!(c.undetected(), 0, "still nothing served silently");
    }

    #[test]
    fn scrubbing_repairs_cold_corruption_proactively() {
        let m = mirror_over(Some("nvme.write:corrupt=4@op=2"));
        let mut ctx = FreeCtx::new(1);
        m.write_pages(&mut ctx, 0, &page_of(0x01)).unwrap();
        m.write_pages(&mut ctx, 7, &page_of(0x02)).unwrap(); // flips here
        assert!(m.primary_device().poisoned_sectors() > 0);
        let mut scrubbed = 0;
        for p in 0..m.capacity_pages() {
            if m.scrub_page(&mut ctx, p).unwrap() {
                scrubbed += 1;
            }
        }
        assert_eq!(scrubbed, 1, "exactly the poisoned page was repaired");
        assert_eq!(m.primary_device().poisoned_sectors(), 0);
        // A later read needs no repair.
        let before = m.integrity_counters().unwrap().repaired;
        let mut back = page_of(0);
        m.read_pages(&mut ctx, 7, &mut back).unwrap();
        assert_eq!(back, page_of(0x02));
        assert_eq!(m.integrity_counters().unwrap().repaired, before);
    }

    #[test]
    fn every_tainted_read_is_detected() {
        // The device's own ground truth (`tainted`) counts the corrupt
        // pages it returned; the `undetected == 0` gate means something
        // only when some were returned and every one was caught.
        let m = mirror_over(Some("nvme.write:corrupt=4@op=1"));
        let mut ctx = FreeCtx::new(1);
        let data = page_of(0x5A);
        m.write_pages(&mut ctx, 2, &data).unwrap();
        let mut back = page_of(0);
        m.read_pages(&mut ctx, 2, &mut back).unwrap();
        assert_eq!(back, data);
        let c = m.integrity_counters().unwrap();
        assert!(c.tainted >= 1, "the device returned corrupt data");
        assert_eq!(c.tainted, c.detected, "and the mirror caught all of it");
    }

    #[test]
    fn mirrored_faulty_run_is_byte_identical_to_fault_free_run() {
        // Repair equivalence: with corrupt + latent plans active on the
        // primary, a mirrored run's logical reads AND its final primary
        // image match a fault-free run exactly.
        let run = |spec: Option<&str>| -> (Vec<Vec<u8>>, DeviceImage) {
            let m = mirror_over(spec);
            let mut ctx = FreeCtx::new(7);
            for p in 0..8u64 {
                let data: Vec<u8> = (0..STORE_PAGE)
                    .map(|i| (i as u64 * 31 + p * 7) as u8)
                    .collect();
                m.write_pages(&mut ctx, p, &data).unwrap();
            }
            let mut reads = Vec::new();
            for p in 0..8u64 {
                let mut buf = page_of(0);
                m.read_pages(&mut ctx, p, &mut buf).unwrap();
                reads.push(buf);
            }
            (reads, m.primary_device().store().snapshot())
        };
        let (clean_reads, clean_image) = run(None);
        let (faulty_reads, faulty_image) = run(Some(
            "nvme.write:corrupt=16@op=3; nvme.read:corrupt=2@op=2; nvme.read:latent=2@op=5",
        ));
        assert_eq!(clean_reads, faulty_reads, "logical reads identical");
        assert_eq!(clean_image, faulty_image, "final device image identical");
    }

    #[test]
    fn attaching_syncs_and_records_only_pages_with_data() {
        let primary = Arc::new(NvmeDevice::optane(16));
        primary.store().write_at(2, 0, &page_of(0x42)).unwrap();
        primary.store().write_at(5, 100, &[7]).unwrap();
        // Materialized but all zero: nothing to sync or record.
        primary.store().write_at(9, 0, &page_of(0)).unwrap();
        let m = MirrorAccess::new(primary, Arc::new(NvmeDevice::optane(16)));
        let recorded: Vec<u64> = (0..m.capacity_pages())
            .filter(|&p| !m.written[p as usize].lock().is_zero())
            .collect();
        assert_eq!(recorded, vec![2, 5]);
        assert_eq!(m.replica_device().store().resident_pages(), 2);
        let mut ctx = FreeCtx::new(1);
        for p in 0..m.capacity_pages() {
            assert_eq!(m.scrub_page(&mut ctx, p), Ok(false), "page {p}");
        }
        let mut back = page_of(0);
        m.read_pages(&mut ctx, 2, &mut back).unwrap();
        assert_eq!(back, page_of(0x42));
    }

    /// Four media errors in a row exhaust the retry budget.
    const WRITE_DIES: &str = "nvme.write:media_error@op=1; nvme.write:media_error@op=2; \
         nvme.write:media_error@op=3; nvme.write:media_error@op=4";

    #[test]
    fn failed_write_keeps_the_checksums_of_the_landed_bytes() {
        let m = mirror_over(None);
        let mut ctx = FreeCtx::new(1);
        m.write_pages(&mut ctx, 3, &page_of(0x11)).unwrap();
        m.primary_device()
            .set_fault_plan(Arc::new(FaultPlan::parse(WRITE_DIES).unwrap()));
        let err = m.write_pages(&mut ctx, 3, &page_of(0x22)).unwrap_err();
        assert_eq!(err, DeviceError::MediaError { page: 3 });
        // The old bytes are still on both copies and still verify.
        assert_eq!(m.scrub_page(&mut ctx, 3), Ok(false));
        let c = m.integrity_counters().unwrap();
        assert_eq!((c.detected, c.unrepairable), (0, 0), "{c:?}");
    }

    #[test]
    fn failed_batch_segment_keeps_the_checksums_of_the_landed_bytes() {
        let m = mirror_over(None);
        let mut ctx = FreeCtx::new(1);
        for p in 0..3 {
            m.write_pages(&mut ctx, p * 4, &page_of(0x10 + p as u8))
                .unwrap();
        }
        // The first segment lands; the second exhausts its retries, so
        // neither it nor the third ever reaches the primary.
        m.primary_device().set_fault_plan(Arc::new(
            FaultPlan::parse(
                "nvme.write:media_error@op=2; nvme.write:media_error@op=3; \
                 nvme.write:media_error@op=4; nvme.write:media_error@op=5",
            )
            .unwrap(),
        ));
        let [a, b, c] = [0xA0, 0xB0, 0xC0].map(|x| [Page::copy_of(&page_of(x))]);
        let segs: [(u64, &[Page]); 3] = [(0, &a), (4, &b), (8, &c)];
        assert_eq!(
            m.write_batch(&mut ctx, &segs, 8),
            Err(DeviceError::MediaError { page: 4 })
        );
        for p in [0, 4, 8] {
            assert_eq!(m.scrub_page(&mut ctx, p), Ok(false), "page {p}");
        }
        let counters = m.integrity_counters().unwrap();
        assert_eq!(counters.detected, 0, "{counters:?}");
        let mut back = page_of(0);
        m.read_pages(&mut ctx, 0, &mut back).unwrap();
        assert_eq!(back, page_of(0xA0), "the landed segment reads back new");
        m.read_pages(&mut ctx, 4, &mut back).unwrap();
        assert_eq!(back, page_of(0x11), "the lost segment reads back old");
    }

    /// A seeded series of write batches: each batch is a list of
    /// disjoint, ascending device-contiguous segments of 1-4 pages with
    /// random payloads, as the engine's writeback produces them.
    fn random_batches(seed: u64, capacity: u64) -> Vec<Vec<(u64, Vec<u8>)>> {
        let mut x = seed | 1;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        (0..6)
            .map(|_| {
                let mut segs = Vec::new();
                let mut page = next(3);
                while page < capacity {
                    let len = (1 + next(4)).min(capacity - page);
                    let fill = next(255) as u8 + 1;
                    let data = (0..len as usize * STORE_PAGE)
                        .map(|i| fill ^ (i / 97) as u8)
                        .collect();
                    segs.push((page, data));
                    page += len + 1 + next(6);
                }
                segs
            })
            .collect()
    }

    /// Final (primary, replica) images after writing `batches` through
    /// `write_batch` at `depth` (or through blocking `write_pages` when
    /// `depth` is `None`), plus the scrub's integrity counters.
    fn batched_images(
        batches: &[Vec<(u64, Vec<u8>)>],
        depth: Option<usize>,
        plan: Option<&str>,
    ) -> (DeviceImage, DeviceImage, IntegrityCounters) {
        let m = mirror_over(plan);
        let mut ctx = FreeCtx::new(5);
        for batch in batches {
            match depth {
                Some(d) => {
                    let lists: Vec<Vec<Page>> = batch
                        .iter()
                        .map(|(_, b)| b.chunks(STORE_PAGE).map(Page::copy_of).collect())
                        .collect();
                    let segs: Vec<(u64, &[Page])> = batch
                        .iter()
                        .zip(&lists)
                        .map(|((p, _), l)| (*p, &l[..]))
                        .collect();
                    let cmds = m.write_batch(&mut ctx, &segs, d).unwrap();
                    let copies = if d > 1 { 2 } else { 1 };
                    assert_eq!(cmds, copies * segs.len() as u64);
                }
                None => {
                    for (p, b) in batch {
                        m.write_pages(&mut ctx, *p, b).unwrap();
                    }
                }
            }
        }
        if let Some(plan) = m.primary_device().fault_plan() {
            assert!(plan.injected() > 0, "the plan fired inside the batches");
        }
        for p in 0..m.capacity_pages() {
            assert_eq!(
                m.scrub_page(&mut ctx, p),
                Ok(false),
                "page {p} scrubbed dirty"
            );
        }
        (
            m.primary_device().store().snapshot(),
            m.replica_device().store().snapshot(),
            m.integrity_counters().unwrap(),
        )
    }

    #[test]
    fn batched_mirror_writes_match_the_blocking_path() {
        for seed in [3u64, 17, 0xBEEF] {
            let batches = random_batches(seed, 16);
            let (p0, r0, _) = batched_images(&batches, None, None);
            assert_eq!(p0, r0, "blocking path leaves identical copies");
            for depth in [1, 2, 8] {
                let (p, r, c) = batched_images(&batches, Some(depth), None);
                assert_eq!(p, p0, "seed {seed} depth {depth}: primary image differs");
                assert_eq!(r, r0, "seed {seed} depth {depth}: replica image differs");
                assert_eq!((c.detected, c.repaired, c.unrepairable), (0, 0, 0));
                let segs: u64 = batches.iter().map(|b| b.len() as u64).sum();
                let queued = if depth > 1 { 2 * segs } else { 0 };
                assert_eq!(c.queued_writes, queued, "depth {depth}");
            }
        }
    }

    #[test]
    fn batched_mirror_writes_ride_out_queue_full_and_transient_errors() {
        let batches = random_batches(29, 16);
        let (p0, r0, _) = batched_images(&batches, None, None);
        for plan in [
            "nvme.write:queue_full*5@op=2",
            "nvme.write:media_error@op=3; nvme.write:timeout@op=4",
        ] {
            let (p, r, c) = batched_images(&batches, Some(8), Some(plan));
            assert_eq!(p, p0, "{plan}: primary image differs");
            assert_eq!(r, r0, "{plan}: replica image differs");
            assert_eq!((c.detected, c.repaired, c.unrepairable), (0, 0, 0));
        }
    }

    /// The per-sector CRC-32C table the page records replaced, kept as
    /// the reference the differential tests hold them to: a CRC per
    /// 512-byte sector recorded at write, put back sector by sector
    /// (compare-and-swap) when a write aborts, and verified by CRC. Bit
    /// 32 of an entry marks "recorded"; zero means never written, which
    /// verifies against the all-zero sector's CRC.
    pub(super) struct SectorSums {
        sums: Mutex<Vec<u64>>,
        /// Begun writes' `(page, ours, prev)` entries, for aborts.
        pending: Mutex<Vec<(u64, PageSums, PageSums)>>,
        verifies: Mutex<u64>,
        /// Verifies where the page records' verdict differed from ours.
        disagreements: Mutex<u64>,
    }

    type PageSums = [u64; 8];

    fn packed_sums(data: &Page) -> PageSums {
        aquila_sync::crc32c_sectors(&data.read()).map(|crc| (1u64 << 32) | crc as u64)
    }

    /// The eight sector entries of `page`.
    fn slots(sums: &mut [u64], page: u64) -> &mut [u64] {
        &mut sums[page as usize * 8..][..8]
    }

    impl SectorSums {
        pub(super) fn begin(&self, page: u64, pages: &[Page]) {
            for (p, data) in (page..).zip(pages) {
                let ours = packed_sums(data);
                let mut prev = [0u64; 8];
                let mut sums = self.sums.lock();
                for ((old, slot), &entry) in prev.iter_mut().zip(slots(&mut sums, p)).zip(&ours) {
                    *old = std::mem::replace(slot, entry);
                }
                self.pending.lock().push((p, ours, prev));
            }
        }

        pub(super) fn abort(&self, page: u64, pages: &[Page]) {
            for (p, data) in (page..).zip(pages) {
                let ours = packed_sums(data);
                let mut pending = self.pending.lock();
                let Some(at) = pending.iter().rposition(|e| e.0 == p && e.1 == ours) else {
                    continue;
                };
                let (_, ours, prev) = pending.remove(at);
                let mut sums = self.sums.lock();
                for ((slot, &o), &old) in slots(&mut sums, p).iter_mut().zip(&ours).zip(&prev) {
                    if *slot == o {
                        *slot = old;
                    }
                }
            }
        }

        /// The table's verdict on `data` read from `page`; `by_page` is
        /// the page records' verdict on the same read.
        pub(super) fn verify(&self, page: u64, data: &Page, by_page: bool) -> bool {
            let zero = aquila_sync::crc32c_sectors(&[0u8; STORE_PAGE])[0];
            let crcs = aquila_sync::crc32c_sectors(&data.read());
            let ok = slots(&mut self.sums.lock(), page)
                .iter()
                .zip(crcs)
                .all(|(&entry, crc)| crc == if entry == 0 { zero } else { entry as u32 });
            *self.verifies.lock() += 1;
            if ok != by_page {
                *self.disagreements.lock() += 1;
            }
            ok
        }
    }

    /// Puts the reference table under `m`, seeded from its page records.
    fn with_reference(mut m: MirrorAccess) -> MirrorAccess {
        let r = SectorSums {
            sums: Mutex::new(vec![0; m.capacity_pages() as usize * 8]),
            pending: Mutex::new(Vec::new()),
            verifies: Mutex::new(0),
            disagreements: Mutex::new(0),
        };
        for (p, slot) in (0..).zip(&m.written) {
            let data = slot.lock().clone();
            if !data.is_zero() {
                r.begin(p, &[data]);
            }
        }
        m.reference = Some(r);
        m
    }

    /// Pages this thread's mirrors have hashed so far.
    fn hashed() -> u64 {
        HASHED.with(|n| n.get())
    }

    #[test]
    fn fault_free_writes_fills_and_scrubs_never_hash() {
        let primary = Arc::new(NvmeDevice::optane(16));
        primary.store().write_at(6, 0, &page_of(0x66)).unwrap();
        let m = MirrorAccess::new(primary, Arc::new(NvmeDevice::optane(16)));
        let mut ctx = FreeCtx::new(1);
        let before = hashed();
        m.write_pages(&mut ctx, 1, &[page_of(0x11), page_of(0x12)].concat())
            .unwrap();
        let [a, b] = [0xA0, 0xB0].map(|x| [Page::copy_of(&page_of(x))]);
        let segs: [(u64, &[Page]); 2] = [(4, &a), (9, &b)];
        assert_eq!(m.write_batch(&mut ctx, &segs, 8), Ok(4));
        let mut back = page_of(0);
        for (p, want) in [
            (1, 0x11),
            (2, 0x12),
            (4, 0xA0),
            (9, 0xB0),
            (6, 0x66),
            (7, 0),
        ] {
            m.read_pages(&mut ctx, p, &mut back).unwrap();
            assert_eq!(back, page_of(want), "page {p}");
        }
        for p in 0..m.capacity_pages() {
            assert_eq!(m.scrub_page(&mut ctx, p), Ok(false), "page {p}");
        }
        assert_eq!(hashed(), before, "every read was the recorded page");
        let c = m.integrity_counters().unwrap();
        assert_eq!((c.detected, c.repaired, c.tainted), (0, 0, 0), "{c:?}");
    }

    #[test]
    fn the_page_table_is_a_fifth_of_the_sector_table() {
        // The per-sector table held eight 8-byte entries per page.
        let per_page = std::mem::size_of::<Mutex<Page>>();
        assert!(per_page * 5 <= 64, "{per_page} B per page");
    }

    #[test]
    fn an_equal_copy_on_the_primary_verifies_by_crc() {
        let m = mirror_over(None);
        let mut ctx = FreeCtx::new(1);
        m.write_pages(&mut ctx, 3, &page_of(0x42)).unwrap();
        m.primary_device()
            .store()
            .adopt(3, Page::copy_of(&page_of(0x42)))
            .unwrap();
        let before = hashed();
        let mut back = page_of(0);
        m.read_pages(&mut ctx, 3, &mut back).unwrap();
        assert_eq!(back, page_of(0x42));
        assert_eq!(hashed(), before + 2, "both pages hashed once");
        assert_eq!(
            m.integrity_counters().unwrap(),
            IntegrityCounters::default()
        );
    }

    #[test]
    fn zero_pages_verify_by_identity_and_a_zero_copy_by_crc() {
        let m = mirror_over(None);
        let mut ctx = FreeCtx::new(1);
        let before = hashed();
        assert_eq!(m.scrub_page(&mut ctx, 9), Ok(false));
        assert_eq!(hashed(), before, "never written: the zero page itself");
        m.primary_device()
            .store()
            .adopt(9, Page::copy_of(&page_of(0)))
            .unwrap();
        assert_eq!(m.scrub_page(&mut ctx, 9), Ok(false));
        assert_eq!(hashed(), before + 2, "a private zero page is hashed");
        let mut back = page_of(1);
        m.read_pages(&mut ctx, 9, &mut back).unwrap();
        assert_eq!(back, page_of(0));
        assert_eq!(
            m.integrity_counters().unwrap(),
            IntegrityCounters::default()
        );
    }

    #[test]
    fn an_aborted_segment_keeps_a_later_writes_record() {
        let m = with_reference(mirror_over(None));
        let mut ctx = FreeCtx::new(1);
        m.write_pages(&mut ctx, 5, &page_of(0x11)).unwrap();
        // A batch records page 5, a later write supersedes it and lands,
        // then the batch's segment for page 5 aborts.
        let early = [Page::copy_of(&page_of(0x22))];
        let mut prev = Vec::new();
        m.begin_write(5, &early, &mut prev);
        let later = [Page::copy_of(&page_of(0x33))];
        m.write_refs(&mut ctx, 5, &later).unwrap();
        m.abort_write(5, &early, &prev);
        assert!(m.written[5].lock().same_as(&later[0]));
        let before = hashed();
        let mut back = page_of(0);
        m.read_pages(&mut ctx, 5, &mut back).unwrap();
        assert_eq!(back, page_of(0x33));
        assert_eq!(hashed(), before, "the landed page verifies by identity");
        let c = m.integrity_counters().unwrap();
        assert_eq!((c.detected, c.repaired), (0, 0), "{c:?}");
        let r = m.reference.as_ref().unwrap();
        assert_eq!(*r.disagreements.lock(), 0);
    }

    /// One step of a differential storm.
    enum Op {
        Write(u64, Vec<u8>),
        Batch(Vec<(u64, Vec<u8>)>),
        Read(u64, usize),
        Scrub(u64),
    }

    /// A seeded storm over a 16-page mirror: blocking writes, write
    /// batches, multi-page reads and scrubs, plus a primary fault plan
    /// mixing silent write and read flips, torn writes, latent sectors,
    /// and media errors (runs of four exhaust a write's retries and abort
    /// it or the rest of its batch), and a sparse replica plan.
    fn storm(seed: u64) -> (Vec<Op>, String, String) {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let data = |len: u64, fill: u64| -> Vec<u8> {
            (0..len as usize * STORE_PAGE)
                .map(|i| (fill as u8 + 1) ^ (i / 61) as u8)
                .collect()
        };
        let mut ops = Vec::new();
        for _ in 0..160 {
            let page = next(16);
            let len = (1 + next(3)).min(16 - page);
            ops.push(match next(10) {
                0..=2 => Op::Write(page, data(len, next(255))),
                3..=4 => {
                    let mut segs = Vec::new();
                    let mut p = next(3);
                    while p < 16 {
                        let len = (1 + next(3)).min(16 - p);
                        segs.push((p, data(len, next(255))));
                        p += len + 1 + next(5);
                    }
                    Op::Batch(segs)
                }
                5..=7 => Op::Read(page, len as usize),
                _ => Op::Scrub(page),
            });
        }
        let mut clauses = Vec::new();
        let mut op = 0;
        while op < 200 {
            op += 1 + next(12);
            clauses.push(match next(7) {
                0 => format!("nvme.write:corrupt={}@op={op}", 1 + next(4)),
                1 => format!("nvme.read:corrupt={}@op={op}", 1 + next(4)),
                2 => format!("nvme.write:torn={}@op={op}", next(8)),
                3 => format!("nvme.read:latent={}@op={op}", 1 + next(8)),
                4 => format!("nvme.write:latent={}@op={op}", 1 + next(8)),
                5 => format!("nvme.write:media_error@op={op}"),
                _ => {
                    let run = (op..op + 4).map(|o| format!("nvme.write:media_error@op={o}"));
                    let run = run.collect::<Vec<_>>().join("; ");
                    op += 3;
                    run
                }
            });
        }
        let replica = format!(
            "nvme.write:corrupt=2@op={}; nvme.read:latent=1@op={}",
            1 + next(40),
            1 + next(40)
        );
        (ops, clauses.join("; "), replica)
    }

    /// What one storm step returned: an error, or a read's bytes, a
    /// batch's command count or a scrub's repair flag.
    fn apply(m: &MirrorAccess, ctx: &mut FreeCtx, op: &Op) -> Result<Vec<u8>, DeviceError> {
        match op {
            Op::Write(p, b) => m.write_pages(ctx, *p, b).map(|()| Vec::new()),
            Op::Batch(segs) => {
                let lists: Vec<Vec<Page>> = segs
                    .iter()
                    .map(|(_, b)| b.chunks(STORE_PAGE).map(Page::copy_of).collect())
                    .collect();
                let segs: Vec<(u64, &[Page])> = segs
                    .iter()
                    .zip(&lists)
                    .map(|((p, _), l)| (*p, &l[..]))
                    .collect();
                m.write_batch(ctx, &segs, 8).map(|n| vec![n as u8])
            }
            Op::Read(p, len) => {
                let mut buf = vec![0u8; len * STORE_PAGE];
                m.read_pages(ctx, *p, &mut buf).map(|()| buf)
            }
            Op::Scrub(p) => m.scrub_page(ctx, *p).map(|r| vec![r as u8]),
        }
    }

    #[test]
    fn page_records_match_the_sector_table_under_fault_storms() {
        let mut seen = IntegrityCounters::default();
        let (mut verifies, mut aborted) = (0, 0);
        for seed in 1..=12u64 {
            let (ops, primary_plan, replica_plan) = storm(seed);
            let build = || {
                let primary = Arc::new(NvmeDevice::optane(16));
                primary.set_fault_plan(Arc::new(FaultPlan::parse(&primary_plan).unwrap()));
                let replica = Arc::new(NvmeDevice::optane(16));
                replica.set_fault_plan(Arc::new(FaultPlan::parse(&replica_plan).unwrap()));
                MirrorAccess::new(primary, replica)
            };
            let (ours, theirs) = (build(), with_reference(build()));
            let (mut c1, mut c2) = (FreeCtx::new(seed), FreeCtx::new(seed));
            for (i, op) in ops.iter().enumerate() {
                let at = format!("seed {seed} op {i}");
                let got = apply(&ours, &mut c1, op);
                assert_eq!(got, apply(&theirs, &mut c2, op), "{at}");
                if got.is_err() && matches!(op, Op::Write(..) | Op::Batch(_)) {
                    aborted += 1;
                }
                let c = ours.integrity_counters().unwrap();
                assert_eq!(Some(c), theirs.integrity_counters(), "{at}");
                assert_eq!(c.undetected(), 0, "{at}: {c:?}");
                let r = theirs.reference.as_ref().unwrap();
                assert_eq!(*r.disagreements.lock(), 0, "{at}");
                for (a, b) in [
                    (ours.primary_device(), theirs.primary_device()),
                    (ours.replica_device(), theirs.replica_device()),
                ] {
                    assert_eq!(a.store().snapshot(), b.store().snapshot(), "{at}");
                }
            }
            let c = ours.integrity_counters().unwrap();
            seen.detected += c.detected;
            seen.repaired += c.repaired;
            seen.unrepairable += c.unrepairable;
            seen.tainted += c.tainted;
            seen.queued_writes += c.queued_writes;
            verifies += *theirs.reference.as_ref().unwrap().verifies.lock();
        }
        // The storms reached every verdict the table can give.
        assert!(seen.detected > 0 && seen.tainted > 0, "{seen:?}");
        assert!(seen.repaired > 0 && seen.queued_writes > 0, "{seen:?}");
        assert!(
            seen.unrepairable > 0 && aborted > 0,
            "{seen:?}, {aborted} aborted"
        );
        assert!(verifies > 1000, "{verifies} verifies");
    }
}
