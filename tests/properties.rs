//! Property-based tests over the core data structures: each structure is
//! driven with random operation sequences and checked against a simple
//! reference model or invariant.
//!
//! The random cases are generated with the workspace's own deterministic
//! [`Rng64`] (the build is fully offline, so there is no `proptest`); a
//! fixed seed per property keeps failures exactly reproducible.

#![forbid(unsafe_code)]

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use aquila_mmu::{Access, Gva, PageTable, PteFlags, Vpn};
use aquila_pcache::{coalesce_runs, DirtyPage, InsertOutcome, LockFreeMap, PageKey};
use aquila_sim::{Cycles, FreeCtx, LatencyHist, Rng64};
use aquila_vma::{Prot, RegionMap, GUARD_PAGES};

const CASES: u64 = 64;

/// The page table agrees with a HashMap model under arbitrary
/// map/unmap/protect sequences.
#[test]
fn page_table_matches_model() {
    let mut rng = Rng64::new(0x9A6E);
    for _ in 0..CASES {
        let mut pt = PageTable::new();
        let mut model: HashMap<u64, (u64, bool)> = HashMap::new();
        let n = rng.range(1, 199);
        for _ in 0..n {
            let op = rng.below(4) as u8;
            let slot = rng.below(128);
            let writable = rng.chance(0.5);
            let gva = Gva(slot * 4096);
            let gpa = aquila_vmx::Gpa(0x10_0000 + slot * 4096);
            match op {
                0 => {
                    let flags = if writable { PteFlags::RW } else { PteFlags::RO };
                    pt.map(gva, gpa, flags);
                    model.insert(slot, (gpa.get(), writable));
                }
                1 => {
                    let got = pt.unmap(gva).map(|p| p.gpa.get());
                    let want = model.remove(&slot).map(|(g, _)| g);
                    assert_eq!(got, want);
                }
                2 => {
                    let flags = if writable { PteFlags::RW } else { PteFlags::RO };
                    let got = pt.protect(gva, flags).is_some();
                    if let Some(e) = model.get_mut(&slot) {
                        e.1 = writable;
                        assert!(got);
                    } else {
                        assert!(!got);
                    }
                }
                _ => {
                    let access = if writable {
                        Access::Write
                    } else {
                        Access::Read
                    };
                    let got = pt.translate(gva, access);
                    match model.get(&slot) {
                        None => assert!(got.is_err()),
                        Some(&(g, w)) => {
                            if writable && !w {
                                assert!(got.is_err());
                            } else {
                                assert_eq!(got.ok().map(|x| x.get()), Some(g));
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(pt.mapped_pages() as usize, model.len());
    }
}

/// The concurrent page map agrees with a HashMap model.
#[test]
fn lockfree_map_matches_model() {
    let mut rng = Rng64::new(0x10CF);
    for _ in 0..CASES {
        let m = LockFreeMap::new(128);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let n = rng.range(1, 299);
        for _ in 0..n {
            let op = rng.below(3) as u8;
            let page = rng.below(64);
            let val = rng.below(1000);
            let key = PageKey::new(1, page);
            match op {
                0 => match m.insert(key, val) {
                    InsertOutcome::Inserted => {
                        assert!(!model.contains_key(&page));
                        model.insert(page, val);
                    }
                    InsertOutcome::AlreadyPresent(v) => {
                        assert_eq!(model.get(&page), Some(&v));
                    }
                },
                1 => {
                    assert_eq!(m.remove(key), model.remove(&page));
                }
                _ => {
                    assert_eq!(m.get(key), model.get(&page).copied());
                }
            }
        }
        assert_eq!(m.len(), model.len());
    }
}

/// The region map agrees with a per-page model under fixed-address
/// map/unmap/protect: every page resolves to the same presence, backing
/// file window, and effective protection.
#[test]
fn region_map_matches_model() {
    // Per page: file, file page, the mapping's own write permission, and
    // whether `mprotect` forced the page read-only.
    struct Page {
        file: u32,
        fpage: u64,
        writable: bool,
        force_ro: bool,
    }
    let mut rng = Rng64::new(0x07A3);
    for _ in 0..CASES {
        let map = RegionMap::new(0);
        let mut ctx = FreeCtx::new(1);
        let mut model: HashMap<u64, Page> = HashMap::new();
        let n = rng.range(1, 99);
        for _ in 0..n {
            let start = rng.below(96);
            let len = rng.range(1, 15);
            let writable = rng.chance(0.5);
            let prot = if writable { Prot::RW } else { Prot::READ };
            match rng.below(4) {
                0 => {
                    let file = rng.below(8) as u32;
                    let fpage = rng.below(1000);
                    let free = (start..start + len).all(|v| !model.contains_key(&v));
                    let res = map.map(&mut ctx, Some(Vpn(start)), len, file, fpage, prot);
                    assert_eq!(res.is_ok(), free);
                    if free {
                        for v in start..start + len {
                            let page = Page {
                                file,
                                fpage: fpage + v - start,
                                writable,
                                force_ro: false,
                            };
                            model.insert(v, page);
                        }
                    }
                }
                1 => {
                    let removed = map.unmap(&mut ctx, Vpn(start), len);
                    let expected: Vec<u64> = (start..start + len)
                        .filter(|v| model.remove(v).is_some())
                        .collect();
                    let got: Vec<u64> = removed.iter().map(|(v, _)| v.0).collect();
                    assert_eq!(got, expected);
                }
                2 => {
                    let n = map.protect(&mut ctx, Vpn(start), len, prot);
                    let mut expected = 0;
                    for v in start..start + len {
                        if let Some(page) = model.get_mut(&v) {
                            page.force_ro = !writable;
                            expected += 1;
                        }
                    }
                    assert_eq!(n, expected);
                }
                _ => {
                    for v in start..start + len {
                        let got = map.lookup(&mut ctx, Vpn(v));
                        assert_eq!(got.is_some(), model.contains_key(&v));
                    }
                }
            }
        }
        assert_eq!(map.mapped_pages() as usize, model.len());
        for v in 0..96 + 16 {
            match (map.lookup(&mut ctx, Vpn(v)), model.get(&v)) {
                (None, None) => {}
                (Some((d, p)), Some(page)) => {
                    assert_eq!(d.file, page.file, "vpn {v}");
                    assert_eq!(d.file_page_of(Vpn(v)), page.fpage, "vpn {v}");
                    assert_eq!(p.write, page.writable && !page.force_ro, "vpn {v}");
                    assert!(p.read, "vpn {v}");
                }
                (a, b) => panic!("vpn {v}: map={} model={}", a.is_some(), b.is_some()),
            }
        }
    }
}

/// One automatically placed mapping of the VA-reuse model.
struct Placed {
    start: u64,
    pages: u64,
    file: u32,
    /// File page backing `start`.
    fpage: u64,
    /// Pages of the mapping still mapped; the guard gap after it stays
    /// reserved until this is empty.
    live: BTreeSet<u64>,
}

/// The VA-reuse model: live mappings, and the busy pages (mapped pages
/// plus live guard gaps) that placement must avoid.
#[derive(Default)]
struct VaModel {
    placed: Vec<Placed>,
    busy: BTreeSet<u64>,
}

impl VaModel {
    /// Coalesced first fit: the lowest start at or above `base` (a
    /// multiple of 512 for mappings of 512 pages or more) whose pages and
    /// guard gap are all free.
    fn first_fit(&self, base: u64, pages: u64) -> u64 {
        let align = |v: u64| {
            if pages >= 512 {
                v.next_multiple_of(512)
            } else {
                v
            }
        };
        let mut s = align(base);
        while let Some(&b) = self.busy.range(s..s + pages + GUARD_PAGES).next_back() {
            s = align(b + 1);
        }
        s
    }

    fn place(&mut self, start: u64, pages: u64, file: u32, fpage: u64) {
        self.busy.extend(start..start + pages + GUARD_PAGES);
        self.placed.push(Placed {
            start,
            pages,
            file,
            fpage,
            live: (start..start + pages).collect(),
        });
    }

    /// Unmaps `[start, start + len)`; returns the pages that were mapped.
    fn unmap(&mut self, start: u64, len: u64) -> usize {
        let mut n = 0;
        for p in &mut self.placed {
            for v in start..start + len {
                if p.live.remove(&v) {
                    self.busy.remove(&v);
                    n += 1;
                    if p.live.is_empty() {
                        let end = p.start + p.pages;
                        for g in end..end + GUARD_PAGES {
                            self.busy.remove(&g);
                        }
                    }
                }
            }
        }
        self.placed.retain(|p| !p.live.is_empty());
        n
    }
}

/// Freed virtual addresses are reused: random mmap / partial and whole
/// munmap / mremap sequences place every mapping exactly where coalesced
/// first fit over the model's busy pages says, which implies no overlap
/// with live pages or guard gaps and 2 MiB alignment for mappings of 512
/// pages or more; lookups agree with the model; and once everything is
/// unmapped, placement starts over at the base.
#[test]
fn region_map_reuses_freed_va_first_fit() {
    const BASE: u64 = 0x1000;
    let mut rng = Rng64::new(0x5F11);
    for _ in 0..CASES {
        let map = RegionMap::new(BASE);
        let mut ctx = FreeCtx::new(1);
        let mut model = VaModel::default();
        let n = rng.range(1, 99);
        for _ in 0..n {
            let size = if rng.chance(0.2) {
                rng.range(512, 1100)
            } else {
                rng.range(1, 40)
            };
            let op = if model.placed.is_empty() {
                0
            } else {
                rng.below(4)
            };
            let victim = rng.below(model.placed.len().max(1) as u64) as usize;
            let placed = match op {
                0 => {
                    let file = rng.below(8) as u32;
                    let fpage = rng.below(1000);
                    let d = map
                        .map(&mut ctx, None, size, file, fpage, Prot::RW)
                        .unwrap();
                    Some((d, file, fpage))
                }
                1 | 2 => {
                    // Whole-mapping or partial munmap.
                    let p = &model.placed[victim];
                    let (off, len) = if op == 1 {
                        (0, p.pages)
                    } else {
                        let off = rng.below(p.pages);
                        (off, rng.range(1, p.pages - off))
                    };
                    let s = p.start + off;
                    let removed = map.unmap(&mut ctx, Vpn(s), len);
                    assert_eq!(removed.len(), model.unmap(s, len));
                    None
                }
                _ => {
                    // mremap from the mapping's first still-mapped page.
                    let p = &model.placed[victim];
                    let old = *p.live.first().unwrap();
                    let old_pages = rng.range(1, p.start + p.pages - old);
                    let (file, fpage) = (p.file, p.fpage + old - p.start);
                    let d = map.remap(&mut ctx, Vpn(old), old_pages, size).unwrap();
                    model.unmap(old, old_pages);
                    Some((d, file, fpage))
                }
            };
            if let Some((d, file, fpage)) = placed {
                assert_eq!(d.start.0, model.first_fit(BASE, d.pages), "not first fit");
                assert_eq!((d.file, d.file_page), (file, fpage), "file window");
                if d.pages >= 512 {
                    assert_eq!(d.start.0 % 512, 0, "large mapping not 2 MiB-aligned");
                }
                model.place(d.start.0, d.pages, file, fpage);
            }
            let live: usize = model.placed.iter().map(|p| p.live.len()).sum();
            assert_eq!(map.mapped_pages() as usize, live);
            assert_eq!(map.desc_count(), model.placed.len());
        }
        for p in &model.placed {
            for &v in p.live.iter().step_by(7) {
                let (d, _) = map.lookup(&mut ctx, Vpn(v)).expect("live page resolves");
                assert_eq!(d.start.0, p.start, "vpn {v}");
                assert_eq!(d.file, p.file, "vpn {v}");
                assert_eq!(d.file_page_of(Vpn(v)), p.fpage + v - p.start, "vpn {v}");
            }
        }
        for p in std::mem::take(&mut model.placed) {
            map.unmap(&mut ctx, Vpn(p.start), p.pages);
        }
        assert_eq!(map.mapped_pages(), 0);
        assert_eq!(map.desc_count(), 0);
        let d = map.map(&mut ctx, None, 2000, 0, 0, Prot::RW).unwrap();
        assert_eq!(d.start.0, BASE, "fully unmapped space is one free range");
    }
}

/// The fault-remap pattern: slices of one size churned by random
/// munmap+mmap and same-size mremap keep the VA high-water mark within
/// the peak number of live slices times one slice's pages plus guard gap
/// (rounded up to 2 MiB for slices of 512 pages or more), no matter how
/// many remaps run.
#[test]
fn region_map_va_high_water_stays_at_peak_live() {
    const BASE: u64 = 0x1000;
    let mut rng = Rng64::new(0xA11C);
    for case in 0..CASES {
        let pages = if case % 2 == 0 {
            rng.range(1, 300)
        } else {
            rng.range(512, 1100)
        };
        let footprint = if pages >= 512 {
            (pages + GUARD_PAGES).next_multiple_of(512)
        } else {
            pages + GUARD_PAGES
        };
        let max_live = rng.range(1, 12) as usize;
        let map = RegionMap::new(BASE);
        let mut ctx = FreeCtx::new(1);
        let mut live: Vec<u64> = Vec::new();
        let (mut peak, mut high_water) = (0usize, BASE);
        for _ in 0..400 {
            // Retire a random live slice (munmap, munmap + mmap, or a
            // same-size mremap) or map a new one, up to `max_live` live.
            if !live.is_empty() && (live.len() == max_live || rng.chance(0.6)) {
                let old = live.swap_remove(rng.below(live.len() as u64) as usize);
                match rng.below(3) {
                    0 => {
                        map.unmap(&mut ctx, Vpn(old), pages);
                    }
                    1 => {
                        let d = map.remap(&mut ctx, Vpn(old), pages, pages).unwrap();
                        live.push(d.start.0);
                    }
                    _ => {
                        map.unmap(&mut ctx, Vpn(old), pages);
                        let d = map.map(&mut ctx, None, pages, 0, 0, Prot::READ).unwrap();
                        live.push(d.start.0);
                    }
                }
            } else {
                let d = map.map(&mut ctx, None, pages, 0, 0, Prot::READ).unwrap();
                live.push(d.start.0);
            }
            if let Some(&top) = live.iter().max() {
                high_water = high_water.max(top + pages + GUARD_PAGES);
            }
            peak = peak.max(live.len());
            assert_eq!(map.mapped_pages(), live.len() as u64 * pages);
        }
        assert!(
            high_water - BASE <= peak as u64 * footprint,
            "case {case}: high water {} pages above base for peak {peak} x {footprint}",
            high_water - BASE
        );
    }
}

/// Coalesced writeback runs preserve exactly the input pages, in
/// order, and every run is contiguous within one file.
#[test]
fn coalesce_runs_partition_invariants() {
    let mut rng = Rng64::new(0xC0A1);
    for _ in 0..CASES {
        let mut pages: BTreeSet<(u32, u64)> = BTreeSet::new();
        let n = rng.below(80);
        for _ in 0..n {
            pages.insert((rng.below(4) as u32, rng.below(200)));
        }
        let input: Vec<DirtyPage> = pages
            .iter()
            .map(|&(f, p)| DirtyPage {
                key: PageKey::new(f, p),
                frame: aquila_mmu::FrameId(0),
            })
            .collect();
        let runs = coalesce_runs(&input);
        let flat: Vec<(u32, u64)> = runs
            .iter()
            .flatten()
            .map(|d| (d.key.file, d.key.page))
            .collect();
        let expect: Vec<(u32, u64)> = pages.iter().copied().collect();
        assert_eq!(flat, expect);
        for run in &runs {
            for w in run.windows(2) {
                assert_eq!(w[0].key.file, w[1].key.file);
                assert_eq!(w[0].key.page + 1, w[1].key.page);
            }
        }
    }
}

/// Histogram quantiles are monotone and bounded by min/max, and the
/// mean is exact.
#[test]
fn histogram_invariants() {
    let mut rng = Rng64::new(0x4157);
    for _ in 0..CASES {
        let n = rng.range(1, 499);
        let values: Vec<u64> = (0..n).map(|_| rng.range(1, 999_999_999)).collect();
        let mut h = LatencyHist::new();
        let mut sum = 0u128;
        for &v in &values {
            h.record(Cycles(v));
            sum += v as u128;
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.mean().get(), (sum / values.len() as u128) as u64);
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        let mut prev = 0;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0).get();
            assert!(q >= prev);
            assert!(q >= lo && q <= hi);
            prev = q;
        }
    }
}

/// Exact quantile over a sorted vector: the value at rank
/// `max(1, ceil(q * n))`, matching `LatencyHist::quantile`'s rank rule.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// `LatencyHist::quantile` stays within the documented ~1.5% relative
/// error (1/64, one linear sub-bucket) of the exact sorted-vector
/// quantile — across magnitudes, including values placed exactly on
/// bucket boundaries.
#[test]
fn histogram_quantile_matches_exact_within_bound() {
    const BOUND: f64 = 1.0 / 64.0; // one sub-bucket of relative error
    let mut rng = Rng64::new(0x0E51);
    for case in 0..CASES {
        let n = rng.range(1, 800);
        let mut values: Vec<u64> = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let v = match case % 4 {
                // Small exact range (group 0 buckets are exact).
                0 => rng.below(64),
                // Wide uniform range.
                1 => rng.range(1, 10_000_000),
                // Log-uniform across magnitudes.
                2 => {
                    let bits = rng.range(1, 40);
                    rng.below(1u64 << bits)
                }
                // Exact bucket boundaries: (64 + sub) << (group - 1).
                _ => {
                    let group = rng.range(1, 20);
                    let sub = rng.below(64);
                    (64 + sub) << (group - 1)
                }
            };
            values.push(v);
        }
        let mut h = LatencyHist::new();
        for &v in &values {
            h.record(Cycles(v));
        }
        values.sort_unstable();
        for &q in &[0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&values, q);
            let got = h.quantile(q).get();
            if exact == 0 {
                assert_eq!(got, 0, "q={q} exact=0 got={got}");
            } else {
                let err = (got as f64 - exact as f64).abs() / exact as f64;
                assert!(
                    err <= BOUND,
                    "case={case} q={q} exact={exact} got={got} err={err}"
                );
            }
        }
    }
}

/// The empty histogram reports zero for every statistic.
#[test]
fn histogram_empty_is_all_zero() {
    let h = LatencyHist::new();
    assert_eq!(h.count(), 0);
    assert_eq!(h.mean(), Cycles::ZERO);
    assert_eq!(h.min(), Cycles::ZERO);
    assert_eq!(h.max(), Cycles::ZERO);
    for &q in &[0.0, 0.5, 0.999, 1.0] {
        assert_eq!(h.quantile(q), Cycles::ZERO);
    }
}

/// Blobstore allocation never double-assigns clusters across blobs.
#[test]
fn blobstore_clusters_disjoint() {
    let mut rng = Rng64::new(0xB10B);
    for _ in 0..8 {
        let mut ctx = FreeCtx::new(1);
        let dev = Arc::new(aquila_devices::NvmeDevice::optane(16384));
        let access: Arc<dyn aquila_devices::StorageAccess> = Arc::new(
            aquila_devices::NvmeAccess::new(dev, aquila_devices::Entry::Direct),
        );
        let bs = aquila_devices::Blobstore::format(&mut ctx, access).unwrap();
        let mut blobs = Vec::new();
        let count = rng.range(1, 9);
        for _ in 0..count {
            let s = rng.range(1, 4);
            let b = bs.create();
            if bs.resize(b, s).is_ok() {
                blobs.push((b, s));
            }
        }
        // Every (blob, page) maps to a unique device page.
        let mut seen = std::collections::HashSet::new();
        for &(b, s) in &blobs {
            for page in 0..s * aquila_devices::PAGES_PER_CLUSTER {
                let lba = bs.lba_page(b, page).unwrap();
                assert!(seen.insert(lba), "device page {lba} double-mapped");
            }
        }
    }
}

/// Zipfian sampling stays in range and is reproducible.
#[test]
fn zipfian_range_and_determinism() {
    let mut rng = Rng64::new(0x21FF);
    for _ in 0..CASES {
        let n = rng.range(1, 9_999);
        let seed = rng.next_u64();
        let z = aquila_sim::Zipfian::new(n, 0.99);
        let mut a = Rng64::new(seed);
        let mut b = Rng64::new(seed);
        for _ in 0..50 {
            let x = z.sample(&mut a);
            let y = z.sample(&mut b);
            assert!(x < n);
            assert_eq!(x, y);
        }
    }
}

/// The asynchronous write-behind pipeline is invisible to durability:
/// a random store workload run under the evictor pipeline leaves the
/// device (`PageStore`) byte-identical to the same workload evicting
/// synchronously on the faulting vcore.
#[test]
fn async_pipeline_matches_sync_device_contents() {
    for case in 0..6u64 {
        let seed = 0xA51C + case * 0x9E37;
        let sync_img = write_behind_device_image(seed, false);
        let async_img = write_behind_device_image(seed, true);
        assert_eq!(sync_img.len(), async_img.len());
        assert!(
            sync_img == async_img,
            "device contents diverged (case {case})"
        );
    }
}

/// Transparent 2 MiB promotion is invisible to correctness: the same
/// random mmap/read/write/msync workload produces byte-identical device
/// images, identical final page contents, and identical in-flight read
/// values with `huge_pages` on and off.
///
/// The workload holds its one `sync_all` until the end: promoted-mode
/// `sync_all` splinters every run (write tracking restarts at 4 KiB),
/// while 4 KiB mode leaves RW PTEs in place, so mid-workload full syncs
/// are the one operation whose *tracking* side effects legitimately
/// differ. Mid-workload durability uses `msync` ranges, which downgrade
/// (4 KiB) or demote (2 MiB) equivalently.
#[test]
fn huge_page_promotion_matches_4k_results() {
    for case in 0..4u64 {
        let seed = 0x2417 + case * 0x9E37;
        let (img4k, mem4k, rd4k) = huge_equivalence_run(seed, false);
        let (img2m, mem2m, rd2m) = huge_equivalence_run(seed, true);
        assert_eq!(rd4k, rd2m, "in-flight read values diverged (case {case})");
        assert!(mem4k == mem2m, "final page contents diverged (case {case})");
        assert!(img4k == img2m, "device image diverged (case {case})");
    }
}

/// Runs the promotion-equivalence workload and returns (device image,
/// 64-byte prefix of every file page read back through the fault path,
/// FNV fold of every value read during the workload).
fn huge_equivalence_run(seed: u64, huge: bool) -> (Vec<u8>, Vec<u8>, u64) {
    use aquila::{Advice, AquilaRuntime, DeviceKind, MmioPolicy, Prot};
    use aquila_sim::CoreDebts;

    const FILE_PAGES: u64 = 1536; // three 2 MiB runs
    const DEVICE_PAGES: u64 = 4096;
    const CACHE_FRAMES: usize = 1024; // eviction pressure + 1 slab run
    const OPS: u64 = 1500;

    let policy = if huge {
        MmioPolicy {
            huge_pages: true,
            ..MmioPolicy::default()
        }
    } else {
        MmioPolicy::default()
    };
    let mut ctx = FreeCtx::new(seed);
    let debts = Arc::new(CoreDebts::new(1));
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::NvmeSpdk,
        DEVICE_PAGES,
        CACHE_FRAMES,
        1,
        debts,
        policy,
    );
    rt.aquila.thread_enter(&mut ctx);
    let f = rt.open("/prop/huge", FILE_PAGES).unwrap();
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, FILE_PAGES, Prot::RW)
        .unwrap();
    rt.aquila
        .madvise(&mut ctx, addr, FILE_PAGES, Advice::Random)
        .unwrap();

    // Sequential warm touch: crosses each run's promotion threshold
    // (with holes device-filled, since only the first 64 pages of a run
    // are resident at the crossing).
    let mut buf = [0u8; 8];
    for p in 0..FILE_PAGES {
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut buf)
            .unwrap();
    }
    if huge {
        assert!(
            rt.aquila.promoted_runs() > 0,
            "the workload must actually exercise promotion"
        );
    }

    let mut rng = Rng64::new(seed ^ 0x2417);
    let mut read_sum = 0u64;
    for _ in 0..OPS {
        let page = rng.below(FILE_PAGES);
        let off = rng.below(4096 - 8);
        match rng.below(8) {
            0..=4 => {
                let val = rng.next_u64();
                rt.aquila
                    .write(&mut ctx, addr.add(page * 4096 + off), &val.to_le_bytes())
                    .unwrap();
            }
            5 | 6 => {
                rt.aquila
                    .read(&mut ctx, addr.add(page * 4096 + off), &mut buf)
                    .unwrap();
                read_sum = read_sum
                    .wrapping_mul(0x100_0000_01B3)
                    .wrapping_add(u64::from_le_bytes(buf));
            }
            _ => {
                // Durability point on a random sub-range: downgrades the
                // 4 KiB PTEs, demotes any promoted run it overlaps.
                let base = rng.below(FILE_PAGES - 1);
                let len = rng.range(1, (FILE_PAGES - base).min(700));
                rt.aquila
                    .msync(&mut ctx, addr.add(base * 4096), len)
                    .unwrap();
            }
        }
    }
    rt.aquila.sync_all(&mut ctx).unwrap();

    // Final page contents, read back through the fault path.
    let mut mem = vec![0u8; (FILE_PAGES * 64) as usize];
    for p in 0..FILE_PAGES {
        rt.aquila
            .read(
                &mut ctx,
                addr.add(p * 4096),
                &mut mem[(p * 64) as usize..((p + 1) * 64) as usize],
            )
            .unwrap();
    }
    // And the raw device image underneath.
    let mut img = vec![0u8; (DEVICE_PAGES * 4096) as usize];
    for chunk in 0..DEVICE_PAGES / 64 {
        let base = chunk * 64;
        rt.access
            .read_pages(
                &mut ctx,
                base,
                &mut img[(base * 4096) as usize..((base + 64) * 4096) as usize],
            )
            .unwrap();
    }
    (img, mem, read_sum)
}

/// Runs a random store workload (writes, interleaved msyncs, final
/// sync_all) over an NVMe-backed Aquila stack and returns the full
/// device contents.
fn write_behind_device_image(seed: u64, pipeline: bool) -> Vec<u8> {
    use aquila::{Advice, AquilaRuntime, DeviceKind, MmioPolicy, Prot, WritePolicy};
    use aquila_sim::{Engine, Step};
    use std::sync::atomic::{AtomicBool, Ordering};

    const FILE_PAGES: u64 = 384;
    const DEVICE_PAGES: u64 = 4096;
    const CACHE_FRAMES: usize = 64;
    const OPS: u64 = 600;

    let policy = if pipeline {
        MmioPolicy {
            low_watermark: 8,
            high_watermark: 24,
            evictor_cores: vec![1],
            write_policy: WritePolicy::Async,
            queue_depth: 8,
            evict_batch: 16,
            ..MmioPolicy::default()
        }
    } else {
        MmioPolicy {
            evict_batch: 16,
            ..MmioPolicy::default()
        }
    };
    let cores = if pipeline { 2 } else { 1 };
    let mut engine = Engine::new(cores, seed);
    let mut ctx = FreeCtx::new(seed);
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::NvmeSpdk,
        DEVICE_PAGES,
        CACHE_FRAMES,
        cores,
        engine.debts(),
        policy,
    );
    let f = rt.open("/prop/wb", FILE_PAGES).unwrap();
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, FILE_PAGES, Prot::RW)
        .unwrap();
    rt.aquila
        .madvise(&mut ctx, addr, FILE_PAGES, Advice::Random)
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    {
        let aquila = Arc::clone(&rt.aquila);
        let stop = Arc::clone(&stop);
        // The op sequence comes from its own generator so both runs see
        // identical stores regardless of engine interleaving.
        let mut rng = Rng64::new(seed ^ 0x57E9);
        let mut done = 0u64;
        engine.spawn(
            0,
            Box::new(move |ctx| {
                let page = rng.below(FILE_PAGES);
                let off = rng.below(4096 - 8);
                let val = rng.next_u64();
                aquila
                    .write(ctx, addr.add(page * 4096 + off), &val.to_le_bytes())
                    .unwrap();
                if done % 97 == 96 {
                    let base = rng.below(FILE_PAGES / 2);
                    let len = rng.range(1, FILE_PAGES / 2);
                    aquila.msync(ctx, addr.add(base * 4096), len).unwrap();
                }
                done += 1;
                if done >= OPS {
                    aquila.sync_all(ctx).unwrap();
                    stop.store(true, Ordering::Release);
                    Step::Done
                } else {
                    Step::Yield
                }
            }),
        );
    }
    if pipeline {
        engine.spawn(
            1,
            rt.aquila.evictor(Arc::clone(&stop), Cycles::from_micros(2)),
        );
    }
    engine.run();

    // Read the whole device back through the access path.
    let mut img = vec![0u8; (DEVICE_PAGES * 4096) as usize];
    for chunk in 0..DEVICE_PAGES / 64 {
        let base = chunk * 64;
        rt.access
            .read_pages(
                &mut ctx,
                base,
                &mut img[(base * 4096) as usize..((base + 64) * 4096) as usize],
            )
            .unwrap();
    }
    img
}
