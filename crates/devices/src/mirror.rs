//! 2-way mirrored NVMe access with per-sector checksums and read-repair.
//!
//! The paper's durability story assumes the device returns the bytes it
//! was given; real fleets see bit-rot and latent sector errors. This
//! layer closes that gap end to end:
//!
//! - every write lands on *two* devices (primary + replica) and records
//!   a CRC-32C per 512-byte sector, all eight of a page's in one pass
//!   ([`aquila_sync::crc32c_sectors`]);
//! - every read verifies the primary against the recorded checksums
//!   before a byte reaches the page cache — a mismatch or an unreadable
//!   (latent) sector triggers *read-repair*: fetch the replica, verify
//!   it, hand the clean copy to the caller, and rewrite the primary;
//! - a background scrubber (driven by the engine) walks LBAs through
//!   [`MirrorAccess::scrub_page`] so cold corruption is found and
//!   repaired before a tenant ever asks for the page;
//! - when *both* copies fail verification the read surfaces
//!   [`DeviceError::Corrupt`] instead of silently serving garbage, and
//!   the engine degrades the region (DESIGN.md §16).
//!
//! Never-written sectors verify against the CRC of an all-zero sector
//! (the store reads zeros for them), so even the first fill of a fresh
//! page is covered.
//!
//! Both copies adopt the same [`Page`]s on a write, so the host holds a
//! mirrored page once; a fault that flips bits as data lands flips them
//! in a private copy of the faulty device only.
//!
//! Writeback batches keep the deep queues of the unmirrored path:
//! [`StorageAccess::write_batch`] records every segment's checksums up
//! front, straight from the pages it was handed, then submits each
//! segment to the primary and then the replica through one
//! depth-`depth` queue pair per device, each under that device's own
//! breaker, and drains both at the end, so the two devices serve the
//! batch concurrently. A segment that never reached the primary gets its
//! previous checksum entries back, so the table only ever describes bytes
//! that landed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use aquila_sim::{CostCat, Page, SimCtx};
use aquila_sync::crc32c_sectors;

use crate::access::{write_each, AccessKind, Entry, NvmeAccess, StorageAccess};
use crate::error::DeviceError;
use crate::nvme::{NvmeDevice, SECTORS_PER_PAGE};
use crate::retry;
use crate::store::STORE_PAGE;

/// CRC of a never-written (all-zero) sector.
fn zero_sector_crc() -> u32 {
    static ZERO: OnceLock<u32> = OnceLock::new();
    *ZERO.get_or_init(|| crc32c_sectors(&[0u8; STORE_PAGE])[0])
}

/// A checksum-table entry: bit 32 marks "recorded", low 32 bits hold
/// the CRC. Zero means the sector was never written through the mirror
/// and verifies against [`zero_sector_crc`].
fn pack(crc: u32) -> u64 {
    (1u64 << 32) | crc as u64
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
    /// integrity invariant is that this is zero whenever checksums are
    /// enabled.
    pub fn undetected(&self) -> u64 {
        self.tainted.saturating_sub(self.detected)
    }
}

/// Two-way mirrored access with sector checksums over two polled NVMe paths.
pub struct MirrorAccess {
    primary: NvmeAccess,
    replica: NvmeAccess,
    checksums: bool,
    /// Per-sector packed checksum entries (see [`pack`]).
    sums: Vec<AtomicU64>,
    /// Per-page write version, bumped when a write *begins*. Repair
    /// rechecks it before rewriting the primary so a scrub racing a
    /// writeback never resurrects stale bytes.
    versions: Vec<AtomicU64>,
    detected: AtomicU64,
    repaired: AtomicU64,
    unrepairable: AtomicU64,
    repair_skipped: AtomicU64,
    queued_writes: AtomicU64,
}

/// The checksum entries of one page's sectors.
type PageSums = [u64; SECTORS_PER_PAGE as usize];

/// What one write recorded for a page: its own entries and the ones
/// they replaced, so an abort can put the old ones back.
struct Recorded {
    ours: PageSums,
    prev: PageSums,
}

impl MirrorAccess {
    /// Mirrors `primary` onto `replica` with checksums enabled.
    pub fn new(primary: Arc<NvmeDevice>, replica: Arc<NvmeDevice>) -> MirrorAccess {
        MirrorAccess::with_options(primary, replica, true)
    }

    /// Full-control constructor. `checksums: false` is the ablation
    /// that shows why verification matters: corruption then flows
    /// through undetected.
    ///
    /// Content already on the primary (a formatted blobstore, a
    /// recovered crash image) is synced to the replica and its
    /// checksums are recorded, modeling mirrors attached from birth.
    pub fn with_options(
        primary: Arc<NvmeDevice>,
        replica: Arc<NvmeDevice>,
        checksums: bool,
    ) -> MirrorAccess {
        let pages = primary.capacity_pages().min(replica.capacity_pages());
        let sums = (0..pages * SECTORS_PER_PAGE)
            .map(|_| AtomicU64::new(0))
            .collect();
        let versions = (0..pages).map(|_| AtomicU64::new(0)).collect();
        let m = MirrorAccess {
            primary: NvmeAccess::new(primary, Entry::Direct),
            replica: NvmeAccess::new(replica, Entry::Direct),
            checksums,
            sums,
            versions,
            detected: AtomicU64::new(0),
            repaired: AtomicU64::new(0),
            unrepairable: AtomicU64::new(0),
            repair_skipped: AtomicU64::new(0),
            queued_writes: AtomicU64::new(0),
        };
        m.sync_existing(pages);
        m
    }

    /// Shares pre-existing primary content with the replica and seeds the
    /// checksum table (free of simulated time: the mirror existed
    /// before the run). Only materialized pages can hold data, and an
    /// all-zero one already verifies against [`zero_sector_crc`].
    fn sync_existing(&self, pages: u64) {
        let replica = self.replica.device().store();
        self.primary.device().store().for_each_resident(|p, data| {
            let nonzero = data.read().iter().any(|&b| b != 0);
            if p < pages && nonzero {
                let _ = replica.adopt(p, data.clone());
                self.record_sums(p, &data.read());
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

    /// The checksum-table entries of `page`'s sectors.
    fn page_sums(&self, page: u64) -> &[AtomicU64] {
        let base = (page * SECTORS_PER_PAGE) as usize;
        &self.sums[base..base + SECTORS_PER_PAGE as usize]
    }

    /// Records the checksums of `data` for `page`.
    fn record_sums(&self, page: u64, data: &[u8]) -> Recorded {
        let ours = crc32c_sectors(data).map(pack);
        let mut prev = [0u64; SECTORS_PER_PAGE as usize];
        for ((old, slot), &entry) in prev.iter_mut().zip(self.page_sums(page)).zip(&ours) {
            *old = slot.swap(entry, Ordering::SeqCst);
        }
        Recorded { ours, prev }
    }

    /// Starts a write of the page list `pages` at `page`: bumps the page
    /// versions first, so an in-flight scrub of the old bytes never
    /// rewrites them over this write, then records the new checksums.
    /// Returns what it recorded, one entry per page, for
    /// [`Self::abort_write`].
    fn begin_write(&self, page: u64, pages: &[Page]) -> Vec<Recorded> {
        for i in 0..pages.len() as u64 {
            self.versions[(page + i) as usize].fetch_add(1, Ordering::SeqCst);
        }
        if !self.checksums {
            return Vec::new();
        }
        pages
            .iter()
            .enumerate()
            .map(|(i, data)| self.record_sums(page + i as u64, &data.read()))
            .collect()
    }

    /// Undoes [`Self::begin_write`]'s checksums for a write that never
    /// reached the primary, so the table keeps describing the bytes on
    /// the medium. A sector a later write has already re-recorded keeps
    /// that newer entry.
    fn abort_write(&self, page: u64, recorded: &[Recorded]) {
        for (i, rec) in recorded.iter().enumerate() {
            let slots = self.page_sums(page + i as u64);
            for ((slot, &ours), &prev) in slots.iter().zip(&rec.ours).zip(&rec.prev) {
                let _ = slot.compare_exchange(ours, prev, Ordering::SeqCst, Ordering::SeqCst);
            }
        }
    }

    /// Whether every sector of `data` matches its recorded checksum.
    fn verify_page(&self, page: u64, data: &[u8]) -> bool {
        let crcs = crc32c_sectors(data);
        self.page_sums(page).iter().zip(crcs).all(|(slot, crc)| {
            let entry = slot.load(Ordering::SeqCst);
            let expected = if entry == 0 {
                zero_sector_crc()
            } else {
                entry as u32
            };
            crc == expected
        })
    }

    /// Reads one page with verification and repair into `out`. Returns
    /// whether a repair happened.
    fn fetch_page(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        out: &mut Page,
    ) -> Result<bool, DeviceError> {
        let v0 = self.versions[page as usize].load(Ordering::SeqCst);
        match self.primary.read_refs(ctx, page, std::slice::from_mut(out)) {
            Ok(()) => {
                if !self.checksums || self.verify_page(page, &out.read()) {
                    return Ok(false);
                }
                // Silent corruption caught before it reaches the caller.
                self.detected.fetch_add(1, Ordering::SeqCst);
                aquila_sim::metrics::add(ctx, "aquila.integrity.detected", 1);
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
            self.unrepairable.fetch_add(1, Ordering::SeqCst);
            aquila_sim::metrics::add(ctx, "aquila.integrity.unrepairable", 1);
            return Err(DeviceError::Corrupt { page });
        }
        if self.checksums && !self.verify_page(page, &rep[0].read()) {
            if self.versions[page as usize].load(Ordering::SeqCst) != v0 {
                // A writer moved the page mid-verification; the error is
                // transient and a retry reads the settled state.
                self.repair_skipped.fetch_add(1, Ordering::SeqCst);
                return Err(DeviceError::Corrupt { page });
            }
            self.unrepairable.fetch_add(1, Ordering::SeqCst);
            aquila_sim::metrics::add(ctx, "aquila.integrity.unrepairable", 1);
            return Err(DeviceError::Corrupt { page });
        }
        *out = rep[0].clone();
        // Rewrite the primary unless a newer write superseded the page
        // (the caller still gets the clean copy either way).
        if self.versions[page as usize].load(Ordering::SeqCst) == v0 {
            if self.primary.write_refs(ctx, page, &rep).is_err() {
                self.repair_skipped.fetch_add(1, Ordering::SeqCst);
            }
        } else {
            self.repair_skipped.fetch_add(1, Ordering::SeqCst);
        }
        self.repaired.fetch_add(1, Ordering::SeqCst);
        aquila_sim::metrics::add(ctx, "aquila.integrity.repaired", 1);
        Ok(true)
    }
}

impl StorageAccess for MirrorAccess {
    fn kind(&self) -> AccessKind {
        AccessKind::SpdkNvme
    }

    fn capacity_pages(&self) -> u64 {
        self.versions.len() as u64
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
        let recorded = self.begin_write(page, pages);
        if let Err(e) = self.primary.write_refs(ctx, page, pages) {
            self.abort_write(page, &recorded);
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
        let recorded: Vec<Vec<Recorded>> = segs
            .iter()
            .map(|&(page, pages)| self.begin_write(page, pages))
            .collect();
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
        self.queued_writes.fetch_add(issued, Ordering::SeqCst);
        if let Some((landed, e)) = failure {
            for (&(page, _), rec) in segs[landed..].iter().zip(&recorded[landed..]) {
                self.abort_write(page, rec);
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
        if !self.checksums || page >= self.capacity_pages() {
            return Ok(false);
        }
        self.fetch_page(ctx, page, &mut Page::zero())
    }

    fn integrity_counters(&self) -> Option<IntegrityCounters> {
        Some(IntegrityCounters {
            detected: self.detected.load(Ordering::SeqCst),
            repaired: self.repaired.load(Ordering::SeqCst),
            unrepairable: self.unrepairable.load(Ordering::SeqCst),
            repair_skipped: self.repair_skipped.load(Ordering::SeqCst),
            tainted: self.primary.device().tainted_reads(),
            queued_writes: self.queued_writes.load(Ordering::SeqCst),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::fault::{DeviceImage, FaultPlan};
    use aquila_sim::FreeCtx;

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
    fn disabling_checksums_lets_corruption_through_undetected() {
        let primary = Arc::new(NvmeDevice::optane(16));
        primary.set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.write:corrupt=4@op=1").unwrap(),
        ));
        let m = MirrorAccess::with_options(primary, Arc::new(NvmeDevice::optane(16)), false);
        let mut ctx = FreeCtx::new(1);
        let data = page_of(0x5A);
        m.write_pages(&mut ctx, 2, &data).unwrap();
        let mut back = page_of(0);
        m.read_pages(&mut ctx, 2, &mut back).unwrap();
        assert_ne!(back, data, "garbage flowed straight through");
        let c = m.integrity_counters().unwrap();
        assert_eq!(c.detected, 0);
        assert!(
            c.undetected() > 0,
            "the ablation shows why checksums matter"
        );
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
            .filter(|&p| m.page_sums(p).iter().any(|e| e.load(Ordering::SeqCst) != 0))
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
}
