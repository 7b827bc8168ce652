//! Property test of fill by reference and copy-on-write.
//!
//! Device stores and the DRAM cache share refcounted pages from one
//! process-wide pool (DESIGN.md §17.6): a fill installs the device's page
//! in the frame, writeback hands the frame's page to the device, and only
//! the first write to a shared page copies it. Every check below compares
//! that sharing against a model that copies bytes everywhere:
//!
//! - **engine runs**: seeded mixes of fills, user writes, msync, eviction
//!   writeback (a 16-frame cache under a 48-page file), remaps and scrubs
//!   over DAX-pmem, SPDK-NVMe with transient write faults, and a mirror
//!   whose primary takes torn, corrupt and latent faults (read-repair);
//!   every read, every durable device page after an msync, and every
//!   cached frame at the end must equal the model;
//! - **device runs**: pages held by the test stand in for cache frames
//!   and move through an NVMe queue pair with torn, corrupt, crash and
//!   latent faults on writes and reads, plus discards; after every step
//!   each store page, each held page and the crash image must equal the
//!   model, so a fault never reaches a page it does not own;
//! - **mirror runs**: the same frames over a mirror with a faulty
//!   primary; logical reads, scrubs and both raw copies must match.
//!
//! After each run drops, the pool's live-page count is back where it
//! started: no reference leaks. That count is process-wide, so this file
//! holds exactly one test: no other test allocates pages beside it.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::sync::Arc;

use aquila::{AquilaRuntime, DeviceKind, MmioPolicy, Prot};
use aquila_devices::{
    BufRef, DeviceError, MirrorAccess, NvmeDevice, NvmeOp, StorageAccess, STORE_PAGE,
};
use aquila_pcache::PageKey;
use aquila_sim::fault::{FaultPlan, SECTOR_SIZE};
use aquila_sim::page::live_pages;
use aquila_sim::{CoreDebts, Cycles, FreeCtx, Page};

const SECTORS: u64 = (STORE_PAGE / SECTOR_SIZE) as u64;

/// xorshift64: the test's only randomness.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn byte(&mut self) -> u8 {
        1 + self.below(255) as u8
    }
}

fn flat(pages: &[Page]) -> Vec<u8> {
    pages.iter().flat_map(|p| p.read().to_vec()).collect()
}

fn bit_diff(a: &[u8], b: &[u8]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

// ---------------------------------------------------------------------
// Engine runs.
// ---------------------------------------------------------------------

const FILE_PAGES: u64 = 48;

/// Checks every page of the file on the device against `model`.
fn check_device(ctx: &mut FreeCtx, rt: &AquilaRuntime, f: aquila::FileId, model: &[u8], why: &str) {
    for p in 0..FILE_PAGES {
        let mut buf = vec![0u8; STORE_PAGE];
        rt.aquila.files().read_pages(ctx, f, p, &mut buf).unwrap();
        let at = p as usize * STORE_PAGE;
        assert!(buf == model[at..at + STORE_PAGE], "{why}: device page {p}");
    }
}

fn engine_run(seed: u64, kind: DeviceKind, policy: MmioPolicy, plan: Option<&str>) {
    let mut ctx = FreeCtx::new(seed);
    let debts = Arc::new(CoreDebts::new(1));
    let rt = AquilaRuntime::build_with_policy(&mut ctx, kind, 4096, 16, 1, debts, policy);
    if let Some(spec) = plan {
        let dev = rt.access.nvme_device().expect("faults need an NVMe path");
        dev.set_fault_plan(Arc::new(FaultPlan::parse(spec).unwrap()));
    }
    rt.aquila.thread_enter(&mut ctx);
    let f = rt.open("/data/cow", FILE_PAGES).unwrap();
    let mut addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, FILE_PAGES, Prot::RW)
        .unwrap();
    let mut model = vec![0u8; FILE_PAGES as usize * STORE_PAGE];
    let mut rng = Rng(seed | 1);
    let why = |step: usize| format!("{kind:?} seed {seed} step {step}");
    for step in 0..400 {
        let at =
            (rng.below(FILE_PAGES) * STORE_PAGE as u64 + rng.below(STORE_PAGE as u64)) as usize;
        let len = (1 + rng.below(300) as usize).min(model.len() - at);
        match rng.below(16) {
            // A read: a fill by reference when the page is not cached.
            0..=5 => {
                let mut buf = vec![0u8; len];
                rt.aquila
                    .read(&mut ctx, addr.add(at as u64), &mut buf)
                    .unwrap();
                assert!(buf == model[at..at + len], "{}: read at {at}", why(step));
            }
            // A user write: the first write to a shared frame copies.
            6..=11 => {
                let b = rng.byte();
                let data: Vec<u8> = (0..len).map(|i| b ^ (i as u8)).collect();
                rt.aquila
                    .write(&mut ctx, addr.add(at as u64), &data)
                    .unwrap();
                model[at..at + len].copy_from_slice(&data);
            }
            // msync: writeback hands the frames' pages to the device.
            12 | 13 => {
                rt.aquila.msync(&mut ctx, addr, FILE_PAGES).unwrap();
                check_device(&mut ctx, &rt, f, &model, &why(step));
            }
            // A remap: cached pages (dirty ones too) stay cached.
            14 => {
                rt.aquila.munmap(&mut ctx, addr, FILE_PAGES).unwrap();
                addr = rt
                    .aquila
                    .mmap(&mut ctx, f, 0, FILE_PAGES, Prot::RW)
                    .unwrap();
            }
            // A scrub pass over the file's device pages (read-repair on a
            // mirror, a no-op elsewhere).
            _ => {
                for p in 0..FILE_PAGES {
                    let dev = rt.aquila.files().dev_page(f, p).unwrap();
                    rt.access.scrub_page(&mut ctx, dev).unwrap();
                }
            }
        }
    }
    rt.aquila.msync(&mut ctx, addr, FILE_PAGES).unwrap();
    check_device(&mut ctx, &rt, f, &model, &why(400));
    let cache = rt.aquila.cache();
    let mut cached = 0;
    for p in 0..FILE_PAGES {
        if let Some(frame) = cache.lookup(&mut ctx, PageKey::new(f.0, p)) {
            let mut buf = vec![0u8; STORE_PAGE];
            cache.mem().read(frame, 0, &mut buf);
            let at = p as usize * STORE_PAGE;
            assert!(
                buf == model[at..at + STORE_PAGE],
                "{}: frame of page {p}",
                why(400)
            );
            cached += 1;
        }
    }
    assert!(
        cached > 0 && ctx.stats.evictions > 0,
        "{}: the mix evicts",
        why(400)
    );
    if let Some(c) = rt.access.integrity_counters() {
        assert_eq!(c.undetected(), 0, "{}: {c:?}", why(400));
    }
    if let Some(plan) = rt.access.nvme_device().and_then(|d| d.fault_plan()) {
        assert!(plan.injected() > 0, "{}: the plan fired", why(400));
    }
}

// ---------------------------------------------------------------------
// Device runs.
// ---------------------------------------------------------------------

const DEV_PAGES: u64 = 12;
const FRAMES: usize = 6;

/// A fault the device run plants at a known operation.
#[derive(Clone, Copy)]
enum Inj {
    Torn(u64),
    Corrupt(u64),
    Latent(u64),
    Crash(u64),
}

impl Inj {
    fn spec(self, target: &str, op: u64) -> String {
        let (kind, n) = match self {
            Inj::Torn(n) => ("torn", n),
            Inj::Corrupt(n) => ("corrupt", n),
            Inj::Latent(n) => ("latent", n),
            Inj::Crash(n) => ("crash", n),
        };
        format!("{target}:{kind}={n}@op={op}")
    }
}

/// The copy-based model of the device and of the pages the test holds.
struct Model {
    disk: Vec<Vec<u8>>,
    latent: BTreeSet<u64>,
    frames: Vec<Vec<u8>>,
}

impl Model {
    fn heal(&mut self, first_sector: u64, sectors: u64) {
        for s in first_sector..first_sector + sectors {
            self.latent.remove(&s);
        }
    }

    fn check(&self, dev: &NvmeDevice, held: &[Page], why: &str) {
        for (p, want) in self.disk.iter().enumerate() {
            let stored = dev.store().page(p as u64).unwrap();
            assert!(*stored.read() == want[..], "{why}: store page {p}");
        }
        for (i, (page, want)) in held.iter().zip(&self.frames).enumerate() {
            assert!(*page.read() == want[..], "{why}: held page {i}");
        }
    }
}

/// The captured crash image, flattened.
fn crashed_image(plan: &FaultPlan) -> Vec<u8> {
    let img = plan.crash_image().expect("crash captured").image;
    let mut flat = vec![0u8; img.bytes() as usize];
    for (p, page) in &img.resident {
        let at = *p as usize * STORE_PAGE;
        flat[at..at + STORE_PAGE].copy_from_slice(&page.read());
    }
    flat
}

fn device_run(seed: u64) {
    let dev = NvmeDevice::optane(DEV_PAGES);
    let mut rng = Rng(seed | 1);
    // Op numbers spread over the run; at most one crash (only the first
    // capture is kept).
    let writes: Vec<(u64, Inj)> = vec![
        (2 + rng.below(4), Inj::Torn(1 + rng.below(2 * SECTORS))),
        (7 + rng.below(4), Inj::Corrupt(1 + rng.below(40))),
        (12 + rng.below(4), Inj::Latent(1 + rng.below(2 * SECTORS))),
        (17 + rng.below(4), Inj::Crash(rng.below(2 * SECTORS))),
        (22 + rng.below(4), Inj::Torn(rng.below(3))),
    ];
    let reads: Vec<(u64, Inj)> = vec![
        (3 + rng.below(5), Inj::Corrupt(1 + rng.below(20))),
        (10 + rng.below(5), Inj::Latent(1 + rng.below(SECTORS))),
    ];
    let spec: Vec<String> = writes
        .iter()
        .map(|&(op, inj)| inj.spec("nvme.write", op))
        .chain(reads.iter().map(|&(op, inj)| inj.spec("nvme.read", op)))
        .collect();
    let plan = Arc::new(FaultPlan::parse(&spec.join("; ")).unwrap());
    dev.set_fault_plan(Arc::clone(&plan));
    let qp = dev.create_qpair();
    let mut held: Vec<Page> = (0..FRAMES).map(|_| Page::zero()).collect();
    let mut m = Model {
        disk: vec![vec![0u8; STORE_PAGE]; DEV_PAGES as usize],
        latent: BTreeSet::new(),
        frames: vec![vec![0u8; STORE_PAGE]; FRAMES],
    };
    let (mut wop, mut rop) = (0u64, 0u64);
    let mut crash_image: Option<Vec<u8>> = None;
    for step in 0..160 {
        let why = format!("device seed {seed} step {step}");
        let n = 1 + rng.below(3) as usize;
        let frame = rng.below((FRAMES - n + 1) as u64) as usize;
        let lba = rng.below(DEV_PAGES - n as u64 + 1);
        let (s0, ns) = (lba * SECTORS, n as u64 * SECTORS);
        match rng.below(8) {
            // Fill: the held pages take the stored pages by reference.
            0..=2 => {
                rop += 1;
                let inj = reads.iter().find(|r| r.0 == rop).map(|r| r.1);
                if let Some(Inj::Latent(k)) = inj {
                    m.latent.extend(s0..s0 + k.min(ns));
                }
                let mut out = vec![Page::zero(); n];
                let res = qp.submit(Cycles(0), NvmeOp::Read, lba, n, BufRef::Out(&mut out));
                let want: Vec<u8> = m.disk[lba as usize..lba as usize + n].concat();
                if let Some(&s) = m.latent.range(s0..s0 + ns).next() {
                    let page = s / SECTORS;
                    assert_eq!(res, Err(DeviceError::MediaError { page }), "{why}");
                } else {
                    res.unwrap();
                    let got = flat(&out);
                    match inj {
                        Some(Inj::Corrupt(bits)) => {
                            assert_eq!(bit_diff(&got, &want), bits as u32, "{why}: flips")
                        }
                        _ => {
                            assert!(got == want, "{why}: fill");
                            for (i, page) in out.iter().enumerate() {
                                let stored = dev.store().page(lba + i as u64).unwrap();
                                assert!(page.same_as(&stored), "{why}: fill by reference");
                            }
                        }
                    }
                    for (i, page) in out.into_iter().enumerate() {
                        m.frames[frame + i] = page.read().to_vec();
                        held[frame + i] = page;
                    }
                }
            }
            // A user write to a held page: the first one copies.
            3 | 4 => {
                let (off, len) = (rng.below(4000) as usize, 1 + rng.below(96) as usize);
                let b = rng.byte();
                held[frame].write(|d| d[off..off + len].fill(b));
                m.frames[frame][off..off + len].fill(b);
            }
            // Writeback: the store adopts the held pages.
            5 | 6 => {
                wop += 1;
                let inj = writes.iter().find(|w| w.0 == wop).map(|w| w.1);
                let list = &held[frame..frame + n];
                let data: Vec<u8> = m.frames[frame..frame + n].concat();
                let before: Vec<u8> = m.disk[lba as usize..lba as usize + n].concat();
                let res = qp.submit(Cycles(step), NvmeOp::Write, lba, n, BufRef::Pages(list));
                let mut landed = data.clone();
                match inj {
                    Some(Inj::Torn(k)) => {
                        assert_eq!(res, Err(DeviceError::MediaError { page: lba }), "{why}");
                        let keep = (k as usize * SECTOR_SIZE).min(data.len());
                        landed = before.clone();
                        landed[..keep].copy_from_slice(&data[..keep]);
                        m.heal(s0, (keep / SECTOR_SIZE) as u64);
                    }
                    Some(Inj::Corrupt(bits)) => {
                        res.unwrap();
                        let mut stored = Vec::new();
                        for i in 0..n as u64 {
                            stored.extend_from_slice(&dev.store().page(lba + i).unwrap().read());
                        }
                        assert_eq!(bit_diff(&stored, &data), bits as u32, "{why}: flips");
                        landed = stored;
                        m.heal(s0, ns);
                    }
                    Some(Inj::Latent(k)) => {
                        res.unwrap();
                        m.heal(s0, ns);
                        m.latent.extend(s0..s0 + k.min(ns));
                    }
                    Some(Inj::Crash(k)) => {
                        res.unwrap();
                        let keep = (k as usize * SECTOR_SIZE).min(data.len());
                        let mut want = m.disk.concat();
                        let at = lba as usize * STORE_PAGE;
                        want[at..at + keep].copy_from_slice(&data[..keep]);
                        assert!(crashed_image(&plan) == want, "{why}: crash image");
                        crash_image = Some(want);
                        m.heal(s0, ns);
                    }
                    None => {
                        res.unwrap();
                        for (i, page) in list.iter().enumerate() {
                            let stored = dev.store().page(lba + i as u64).unwrap();
                            assert!(page.same_as(&stored), "{why}: adopted");
                        }
                        m.heal(s0, ns);
                    }
                }
                for (i, bytes) in landed.chunks(STORE_PAGE).enumerate() {
                    m.disk[lba as usize + i] = bytes.to_vec();
                }
            }
            // Discard: the page goes back to the zero page.
            _ => {
                dev.store().discard(lba).unwrap();
                m.disk[lba as usize] = vec![0u8; STORE_PAGE];
            }
        }
        m.check(&dev, &held, &why);
        if let Some(want) = &crash_image {
            // The image keeps its capture while the device runs on.
            assert!(crashed_image(&plan) == *want, "{why}: image moved");
        }
    }
    assert_eq!(plan.injected(), (writes.len() + reads.len()) as u64);
}

// ---------------------------------------------------------------------
// Mirror runs.
// ---------------------------------------------------------------------

fn mirror_run(seed: u64) {
    let primary = Arc::new(NvmeDevice::optane(DEV_PAGES));
    primary.set_fault_plan(Arc::new(
        FaultPlan::parse(
            "nvme.write:corrupt=16@op=3; nvme.read:corrupt=3@op=4; \
             nvme.read:latent=2@op=9; nvme.write:latent=1@op=12; nvme.write:corrupt=5@op=20",
        )
        .unwrap(),
    ));
    let m = MirrorAccess::new(
        Arc::clone(&primary),
        Arc::new(NvmeDevice::optane(DEV_PAGES)),
    );
    let mut ctx = FreeCtx::new(seed);
    let mut rng = Rng(seed | 1);
    let mut held: Vec<Page> = (0..FRAMES).map(|_| Page::zero()).collect();
    let mut frames = vec![vec![0u8; STORE_PAGE]; FRAMES];
    let mut disk = vec![vec![0u8; STORE_PAGE]; DEV_PAGES as usize];
    for step in 0..120 {
        let why = format!("mirror seed {seed} step {step}");
        let frame = rng.below(FRAMES as u64) as usize;
        let lba = rng.below(DEV_PAGES);
        match rng.below(6) {
            0 | 1 => {
                let mut out = [Page::zero()];
                m.read_refs(&mut ctx, lba, &mut out).unwrap();
                assert!(*out[0].read() == disk[lba as usize][..], "{why}: read");
                frames[frame] = disk[lba as usize].clone();
                let [page] = out;
                held[frame] = page;
            }
            2 => {
                let b = rng.byte();
                let off = rng.below(STORE_PAGE as u64 - 8) as usize;
                held[frame].write(|d| d[off..off + 8].fill(b));
                frames[frame][off..off + 8].fill(b);
            }
            3 | 4 => {
                m.write_refs(&mut ctx, lba, &held[frame..frame + 1])
                    .unwrap();
                disk[lba as usize] = frames[frame].clone();
                let replica = m.replica_device().store().page(lba).unwrap();
                assert!(replica.same_as(&held[frame]), "{why}: the replica adopts");
            }
            _ => {
                m.scrub_page(&mut ctx, lba).unwrap();
            }
        }
        for (i, (page, want)) in held.iter().zip(&frames).enumerate() {
            assert!(*page.read() == want[..], "{why}: held page {i}");
        }
        for (p, want) in disk.iter().enumerate() {
            let rep = m.replica_device().store().page(p as u64).unwrap();
            assert!(*rep.read() == want[..], "{why}: replica page {p}");
        }
    }
    for p in 0..DEV_PAGES {
        m.scrub_page(&mut ctx, p).unwrap();
    }
    for (p, want) in disk.iter().enumerate() {
        let raw = primary.store().page(p as u64).unwrap();
        assert!(
            *raw.read() == want[..],
            "mirror seed {seed}: primary page {p} after scrub"
        );
    }
    let c = m.integrity_counters().unwrap();
    assert!(
        c.detected > 0 && c.repaired > 0,
        "mirror seed {seed}: {c:?}"
    );
    assert_eq!(c.undetected(), 0);
}

#[test]
fn shared_pages_match_a_copying_model_and_never_leak() {
    let live = live_pages();
    let mirrored = MmioPolicy {
        mirror: true,
        ..MmioPolicy::default()
    };
    let engine_runs: [(DeviceKind, MmioPolicy, Option<&str>); 3] = [
        (DeviceKind::PmemDax, MmioPolicy::default(), None),
        (
            DeviceKind::NvmeSpdk,
            MmioPolicy::default(),
            Some("nvme.write:torn=3@op=4; nvme.write:crash=2@op=9; nvme.write:timeout@op=12"),
        ),
        (
            DeviceKind::NvmeSpdk,
            mirrored,
            Some(
                "nvme.write:corrupt=8@op=3; nvme.write:torn=5@op=6; nvme.write:latent=1@op=9; \
                 nvme.read:corrupt=2@op=7; nvme.read:latent=2@op=15",
            ),
        ),
    ];
    for seed in [3u64, 17, 0xBEEF] {
        for (kind, policy, plan) in engine_runs.iter().cloned() {
            engine_run(seed, kind, policy, plan);
            assert_eq!(live_pages(), live, "seed {seed} {kind:?}: a page leaked");
        }
        device_run(seed);
        assert_eq!(live_pages(), live, "device seed {seed}: a page leaked");
        mirror_run(seed);
        assert_eq!(live_pages(), live, "mirror seed {seed}: a page leaked");
    }
}
