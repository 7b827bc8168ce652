//! Engine-level unit tests: the full fault path, dirty tracking, eviction,
//! msync, resizing, and syscall interception.

use std::sync::Arc;

use aquila_mmu::Gva;
use aquila_sim::{CoreDebts, CostCat, Cycles, FreeCtx, SimCtx};
use aquila_vma::{Advice, Prot};

use crate::engine::AquilaConfig;
use crate::error::AquilaError;
use crate::runtime::{AquilaRuntime, DeviceKind};
use crate::syscall::Syscall;

fn runtime(kind: DeviceKind, cache_frames: usize) -> (FreeCtx, AquilaRuntime) {
    let mut ctx = FreeCtx::new(42);
    let debts = Arc::new(CoreDebts::new(1));
    let rt = AquilaRuntime::build(&mut ctx, kind, 65536, cache_frames, 1, debts);
    rt.aquila.thread_enter(&mut ctx);
    (ctx, rt)
}

#[test]
fn mmap_read_write_roundtrip() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 64);
    let f = rt.open("/data/a", 256).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 256, Prot::RW).unwrap();
    let payload = b"hello through the mmio path";
    rt.aquila.write(&mut ctx, addr.add(100), payload).unwrap();
    let mut back = vec![0u8; payload.len()];
    rt.aquila.read(&mut ctx, addr.add(100), &mut back).unwrap();
    assert_eq!(&back, payload);
    assert!(ctx.stats.page_faults >= 1);
}

#[test]
fn cross_page_access_works() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 64);
    let f = rt.open("/data/b", 64).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 64, Prot::RW).unwrap();
    let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
    rt.aquila.write(&mut ctx, addr.add(4000), &data).unwrap();
    let mut back = vec![0u8; data.len()];
    rt.aquila.read(&mut ctx, addr.add(4000), &mut back).unwrap();
    assert_eq!(back, data);
}

#[test]
fn data_persists_across_msync_and_remap() {
    let (mut ctx, rt) = runtime(DeviceKind::NvmeSpdk, 32);
    let f = rt.open("/data/persist", 64).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 64, Prot::RW).unwrap();
    rt.aquila.write(&mut ctx, addr, b"durable").unwrap();
    rt.aquila.msync(&mut ctx, addr, 64).unwrap();
    rt.aquila.munmap(&mut ctx, addr, 64).unwrap();
    // Fresh mapping reads the written-back data from the device path.
    let addr2 = rt.aquila.mmap(&mut ctx, f, 0, 64, Prot::RW).unwrap();
    let mut back = [0u8; 7];
    rt.aquila.read(&mut ctx, addr2, &mut back).unwrap();
    assert_eq!(&back, b"durable");
    assert!(ctx.stats.writebacks >= 1);
}

#[test]
fn read_fault_maps_readonly_write_marks_dirty() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 64);
    let f = rt.open("/data/dirty", 16).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 16, Prot::RW).unwrap();
    let mut b = [0u8; 1];
    rt.aquila.read(&mut ctx, addr, &mut b).unwrap();
    assert_eq!(rt.aquila.cache().dirty_count(), 0, "read leaves page clean");
    let faults_before = ctx.stats.page_faults;
    rt.aquila.write(&mut ctx, addr, &[1]).unwrap();
    assert!(
        ctx.stats.page_faults > faults_before,
        "first write takes a dirty-tracking fault"
    );
    assert_eq!(rt.aquila.cache().dirty_count(), 1);
    // A second write is fault-free (mapping upgraded).
    let faults_mid = ctx.stats.page_faults;
    rt.aquila.write(&mut ctx, addr.add(1), &[2]).unwrap();
    assert_eq!(ctx.stats.page_faults, faults_mid);
}

#[test]
fn minor_fault_after_munmap_keeps_cache() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 64);
    let f = rt.open("/data/cachekeep", 8).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 8, Prot::RW).unwrap();
    let mut b = [0u8; 1];
    rt.aquila.read(&mut ctx, addr, &mut b).unwrap();
    let major_before = ctx.stats.major_faults;
    rt.aquila.munmap(&mut ctx, addr, 8).unwrap();
    let addr2 = rt.aquila.mmap(&mut ctx, f, 0, 8, Prot::RW).unwrap();
    rt.aquila.read(&mut ctx, addr2, &mut b).unwrap();
    assert_eq!(
        ctx.stats.major_faults, major_before,
        "remap hit the shared cache; no device I/O"
    );
    assert!(ctx.stats.minor_faults > 0);
}

/// A range operation takes each page-table shard's lock once, so one
/// core tearing down 1024 pages never queues behind its own holds. The
/// only wait left is the tail of the core's own last PTE install (holds
/// are not charged, so its clock may still sit inside that hold).
#[test]
fn range_op_takes_no_self_lock_wait() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 2048);
    let f = rt.open("/data/range", 1024).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 1024, Prot::RW).unwrap();
    rt.aquila.munmap(&mut ctx, addr, 1024).unwrap();
    assert_eq!(ctx.breakdown.get(CostCat::LockWait), Cycles::ZERO);

    let addr = rt.aquila.mmap(&mut ctx, f, 0, 1024, Prot::RW).unwrap();
    let mut b = [0u8; 1];
    for page in 0..1024 {
        rt.aquila
            .read(&mut ctx, addr.add(page * 4096), &mut b)
            .unwrap();
    }
    assert_eq!(ctx.breakdown.get(CostCat::LockWait), Cycles::ZERO);
    rt.aquila.munmap(&mut ctx, addr, 1024).unwrap();
    assert!(ctx.breakdown.get(CostCat::LockWait) < ctx.cost().lock_uncontended);
}

#[test]
fn descriptor_slots_and_va_recycle_across_100k_mmaps() {
    // More mmap/munmap cycles than the region map has descriptor slots:
    // each munmap frees its slot and its address range, so every cycle
    // maps (and faults through) the same recycled range.
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 64);
    let f = rt.open("/data/churn", 4).unwrap();
    let mut b = [0u8; 1];
    let mut first = None;
    for i in 0..100_000u64 {
        let addr = rt.aquila.mmap(&mut ctx, f, i % 4, 1, Prot::READ).unwrap();
        assert_eq!(*first.get_or_insert(addr), addr, "cycle {i}: VA not reused");
        rt.aquila.read(&mut ctx, addr, &mut b).unwrap();
        rt.aquila.munmap(&mut ctx, addr, 1).unwrap();
    }
    assert_eq!(ctx.stats.page_faults, 100_000);
}

#[test]
fn eviction_under_pressure_preserves_data() {
    // Cache of 16 frames, working set of 64 pages: heavy eviction.
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 16);
    let f = rt.open("/data/pressure", 64).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 64, Prot::RW).unwrap();
    // Write a distinct byte to each page.
    for p in 0..64u64 {
        rt.aquila
            .write(&mut ctx, addr.add(p * 4096), &[p as u8])
            .unwrap();
    }
    assert!(ctx.stats.evictions > 0, "pressure must evict");
    // Read everything back: evicted dirty pages were written back.
    for p in 0..64u64 {
        let mut b = [0u8; 1];
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut b)
            .unwrap();
        assert_eq!(b[0], p as u8, "page {p} corrupted by eviction");
    }
    assert!(
        ctx.stats.tlb_shootdowns > 0,
        "eviction uses batched shootdowns"
    );
}

#[test]
fn unmapped_access_is_segfault() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 16);
    let mut b = [0u8; 1];
    let err = rt
        .aquila
        .read(&mut ctx, Gva(0xdeadbeef000), &mut b)
        .unwrap_err();
    assert!(matches!(err, AquilaError::Segfault(_)));
}

#[test]
fn write_to_readonly_mapping_rejected() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 16);
    let f = rt.open("/data/ro", 8).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 8, Prot::READ).unwrap();
    let mut b = [0u8; 1];
    rt.aquila.read(&mut ctx, addr, &mut b).unwrap();
    let err = rt.aquila.write(&mut ctx, addr, &[1]).unwrap_err();
    assert!(matches!(err, AquilaError::ProtectionViolation(_)));
}

#[test]
fn mprotect_downgrade_and_restore() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 16);
    let f = rt.open("/data/prot", 8).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 8, Prot::RW).unwrap();
    rt.aquila.write(&mut ctx, addr, &[7]).unwrap();
    rt.aquila.mprotect(&mut ctx, addr, 8, Prot::READ).unwrap();
    assert!(matches!(
        rt.aquila.write(&mut ctx, addr, &[8]).unwrap_err(),
        AquilaError::ProtectionViolation(_)
    ));
    rt.aquila.mprotect(&mut ctx, addr, 8, Prot::RW).unwrap();
    rt.aquila.write(&mut ctx, addr, &[9]).unwrap();
    let mut b = [0u8; 1];
    rt.aquila.read(&mut ctx, addr, &mut b).unwrap();
    assert_eq!(b[0], 9);
}

#[test]
fn msync_downgrades_so_writes_retrack() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 16);
    let f = rt.open("/data/sync", 8).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 8, Prot::RW).unwrap();
    rt.aquila.write(&mut ctx, addr, &[1]).unwrap();
    assert_eq!(rt.aquila.cache().dirty_count(), 1);
    rt.aquila.msync(&mut ctx, addr, 8).unwrap();
    assert_eq!(rt.aquila.cache().dirty_count(), 0);
    // New write re-dirties via a fresh protection fault.
    rt.aquila.write(&mut ctx, addr, &[2]).unwrap();
    assert_eq!(rt.aquila.cache().dirty_count(), 1);
}

#[test]
fn madvise_advice_sets_the_readahead_window() {
    // Pages prefetched by the first fault under each advice: 8 by default,
    // 32 when sequential, none under Random or DontNeed.
    let cases = [
        (Advice::Normal, 8),
        (Advice::WillNeed, 8),
        (Advice::Sequential, 32),
        (Advice::Random, 0),
        (Advice::DontNeed, 0),
    ];
    for (advice, window) in cases {
        let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 128);
        let f = rt.open("/data/advice", 256).unwrap();
        let addr = rt.aquila.mmap(&mut ctx, f, 0, 256, Prot::RW).unwrap();
        rt.aquila.madvise(&mut ctx, addr, 256, advice).unwrap();
        let mut b = [0u8; 1];
        rt.aquila.read(&mut ctx, addr, &mut b).unwrap();
        assert_eq!(ctx.stats.readahead_pages, window, "{advice:?}");
        // The next page is a minor fault exactly when it was prefetched.
        let major_before = ctx.stats.major_faults;
        rt.aquila.read(&mut ctx, addr.add(4096), &mut b).unwrap();
        let minor = ctx.stats.major_faults == major_before;
        assert_eq!(minor, window > 0, "{advice:?}");
    }
}

#[test]
fn mremap_preserves_file_window() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 32);
    let f = rt.open("/data/remap", 32).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 8, Prot::RW).unwrap();
    // A neighbor right after the guard gap leaves no room to grow in
    // place, so the mapping must move.
    rt.aquila.mmap(&mut ctx, f, 8, 8, Prot::RW).unwrap();
    rt.aquila.write(&mut ctx, addr, b"movable").unwrap();
    let new_addr = rt.aquila.mremap(&mut ctx, addr, 8, 16).unwrap();
    assert_ne!(new_addr, addr);
    let mut back = [0u8; 7];
    rt.aquila.read(&mut ctx, new_addr, &mut back).unwrap();
    assert_eq!(&back, b"movable");
    // Old range is gone.
    let mut b = [0u8; 1];
    assert!(rt.aquila.read(&mut ctx, addr, &mut b).is_err());
}

#[test]
fn cache_hit_fault_cost_matches_paper() {
    // Figure 8(c): a fault that hits the DRAM cache costs ~2179 cycles.
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 64);
    let f = rt.open("/data/hitcost", 8).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 8, Prot::RW).unwrap();
    let mut b = [0u8; 1];
    // Prime the cache.
    rt.aquila.read(&mut ctx, addr, &mut b).unwrap();
    rt.aquila.munmap(&mut ctx, addr, 8).unwrap();
    let addr2 = rt.aquila.mmap(&mut ctx, f, 0, 8, Prot::RW).unwrap();
    let before = ctx.now();
    rt.aquila.read(&mut ctx, addr2, &mut b).unwrap();
    let cost = (ctx.now() - before).get();
    assert!(
        (1500..3500).contains(&cost),
        "cache-hit fault cost {cost} outside the paper's ballpark (2179)"
    );
}

#[test]
fn grow_and_shrink_cache_via_hypervisor() {
    let mut ctx = FreeCtx::new(7);
    let debts = Arc::new(CoreDebts::new(1));
    let cfg = AquilaConfig::builder(1, 32).max_cache_frames(1024).build();
    let aquila = crate::engine::Aquila::new(cfg, debts);
    let vmexits_before = ctx.stats.vmexits;
    let added = aquila.grow_cache(&mut ctx, 512);
    assert_eq!(added, 512);
    assert_eq!(
        ctx.stats.vmexits,
        vmexits_before + 1,
        "growth is one vmcall to the host"
    );
    assert_eq!(ctx.stats.ept_faults, 0, "growth stayed in the boot granule");
    assert_eq!(aquila.cache().active_frames(), 544);
    let reclaimed = aquila.shrink_cache(&mut ctx, 100);
    assert_eq!(reclaimed, 100);
    assert_eq!(aquila.cache().active_frames(), 444);
    assert_eq!(
        ctx.stats.vmexits,
        vmexits_before + 2,
        "shrinking is one vmcall to the host"
    );
}

#[test]
fn ept_faults_count_only_newly_covered_granules() {
    use crate::engine::cache_window_end;
    const GIB_FRAMES: usize = (1 << 30) / 4096;
    let base = 0x1_0000_0000u64;
    let granules = |from: usize, to: usize| {
        cache_window_end(base, to).saturating_sub(cache_window_end(base, from)) >> 30
    };
    // Growth inside the first granule maps nothing new.
    assert_eq!(granules(32, 1024), 0);
    assert_eq!(granules(1, GIB_FRAMES), 0);
    // A growth that straddles boundaries takes one fault per new granule.
    assert_eq!(granules(GIB_FRAMES, GIB_FRAMES + 1), 1);
    assert_eq!(granules(GIB_FRAMES - 1, 3 * GIB_FRAMES + 1), 3);
    // An empty cache covers no granule; its first frame maps one.
    assert_eq!(granules(0, 1), 1);

    // Through the engine: shrinking leaves the granules mapped, so a
    // regrow into them is free; crossing the window's end is not.
    let mut ctx = FreeCtx::new(9);
    let debts = Arc::new(CoreDebts::new(1));
    let cfg = AquilaConfig::builder(1, 32).max_cache_frames(1024).build();
    let aquila = crate::engine::Aquila::new(cfg, debts);
    assert_eq!(aquila.grow_cache(&mut ctx, 992), 992);
    assert_eq!(aquila.shrink_cache(&mut ctx, 500), 500);
    assert_eq!(aquila.grow_cache(&mut ctx, 500), 500);
    assert_eq!(ctx.stats.ept_faults, 0);
    assert_eq!(ctx.breakdown.get(CostCat::Vmexit), Cycles(3 * 1500));
}

#[test]
fn syscall_interception_dispatch() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 32);
    let f = rt.open("/data/syscalls", 16).unwrap();
    let vmexits_before = ctx.stats.vmexits;
    let addr = rt
        .aquila
        .syscall(
            &mut ctx,
            Syscall::Mmap {
                file: f,
                offset: 0,
                pages: 16,
                prot: Prot::RW,
            },
        )
        .unwrap();
    rt.aquila
        .syscall(
            &mut ctx,
            Syscall::Msync {
                addr: Gva(addr),
                pages: 16,
            },
        )
        .unwrap();
    rt.aquila
        .syscall(
            &mut ctx,
            Syscall::Munmap {
                addr: Gva(addr),
                pages: 16,
            },
        )
        .unwrap();
    // Intercepted VM calls never exit to the host...
    assert_eq!(
        ctx.stats.vmexits, vmexits_before,
        "no vmexit for VM syscalls"
    );
    // ...while a forwarded call does.
    rt.aquila
        .syscall(&mut ctx, Syscall::Other { nr: 39 })
        .unwrap();
    assert_eq!(ctx.stats.vmexits, vmexits_before + 1);
}

#[test]
fn tlb_hits_make_repeat_access_free() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 32);
    let f = rt.open("/data/tlb", 4).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 4, Prot::RW).unwrap();
    let mut b = [0u8; 1];
    rt.aquila.read(&mut ctx, addr, &mut b).unwrap();
    // Subsequent reads of the same page cost nothing (pure TLB hits).
    let t0 = ctx.now();
    for _ in 0..100 {
        rt.aquila.read(&mut ctx, addr, &mut b).unwrap();
    }
    assert_eq!(ctx.now(), t0, "mmio cache hits are free");
    let (hits, _) = rt.aquila.tlb_stats();
    assert!(hits >= 100);
}

#[test]
fn trap_cost_is_nonroot_ring0() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 32);
    let f = rt.open("/data/trapcost", 4).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 4, Prot::RW).unwrap();
    let mut b = [0u8; 1];
    rt.aquila.read(&mut ctx, addr, &mut b).unwrap();
    // One fault so far; trap cycles must equal the 552-cycle non-root
    // exception cost, not Linux's 1287.
    let trap = ctx.breakdown.get(CostCat::Trap);
    assert_eq!(trap, Cycles(552 * ctx.stats.page_faults));
}

#[test]
fn beyond_eof_mmap_rejected() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 32);
    let f = rt.open("/data/eof", 8).unwrap();
    let len = rt.aquila.files().len_pages(f).unwrap();
    assert!(matches!(
        rt.aquila.mmap(&mut ctx, f, 0, len + 1, Prot::RW),
        Err(AquilaError::BeyondEof { .. })
    ));
}

#[test]
fn host_access_paths_also_work_end_to_end() {
    for kind in [DeviceKind::NvmeHost, DeviceKind::PmemHost] {
        let (mut ctx, rt) = runtime(kind, 32);
        let f = rt.open("/data/host", 16).unwrap();
        let addr = rt.aquila.mmap(&mut ctx, f, 0, 16, Prot::RW).unwrap();
        rt.aquila.write(&mut ctx, addr, b"via-host").unwrap();
        rt.aquila.msync(&mut ctx, addr, 16).unwrap();
        let mut back = [0u8; 8];
        rt.aquila.read(&mut ctx, addr, &mut back).unwrap();
        assert_eq!(&back, b"via-host", "{kind:?}");
        assert!(ctx.stats.vmexits > 0, "{kind:?} pays vmcalls for host I/O");
    }
}

#[test]
fn sync_all_flushes_everything() {
    // More dirty pages than one writeback stages at a time, so the flush
    // spans several deep-queue batches.
    const PAGES: u64 = 3000;
    let (mut ctx, rt) = runtime(DeviceKind::NvmeSpdk, 4096);
    let f = rt.open("/data/all", PAGES).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, PAGES, Prot::RW).unwrap();
    for p in 0..PAGES {
        rt.aquila
            .write(&mut ctx, addr.add(p * 4096), &[p as u8 ^ 0x5A])
            .unwrap();
    }
    assert_eq!(rt.aquila.cache().dirty_count(), PAGES as usize);
    rt.aquila.sync_all(&mut ctx).unwrap();
    assert_eq!(rt.aquila.cache().dirty_count(), 0);
    assert!(ctx.stats.writebacks >= PAGES);
    let mut page = vec![0u8; 4096];
    for p in 0..PAGES {
        rt.aquila
            .files()
            .read_pages(&mut ctx, f, p, &mut page)
            .unwrap();
        assert_eq!(page[0], p as u8 ^ 0x5A, "page {p} on the device");
    }
}

#[test]
fn evictor_pipeline_offloads_eviction_and_preserves_data() {
    // One worker vcore storing over a file 8x the cache, one evictor
    // vcore running the write-behind pipeline. The evictor must do the
    // eviction (worker major faults return via the freelist), the data
    // must read back intact, and the worker's fault path must be cheaper
    // than the same run with synchronous eviction: by at least 20% against
    // one command at a time, and still cheaper at the same queue depth
    // (both write back through the qpair; only the evictor takes the
    // round off the fault path).
    use crate::config::{MmioPolicy, WritePolicy};
    use aquila_sim::{Engine, Step};
    use std::sync::atomic::{AtomicBool, Ordering};

    let run = |pipeline: bool, queue_depth: usize| -> (f64, u64) {
        let policy = if pipeline {
            MmioPolicy {
                low_watermark: 16,
                high_watermark: 48,
                evictor_cores: vec![1],
                write_policy: WritePolicy::Async,
                queue_depth,
                evict_batch: 32,
                ..MmioPolicy::default()
            }
        } else {
            MmioPolicy {
                queue_depth,
                evict_batch: 32,
                ..MmioPolicy::default()
            }
        };
        let cores = if pipeline { 2 } else { 1 };
        let mut engine = Engine::new(cores, 7);
        let mut ctx = FreeCtx::new(7);
        let rt = AquilaRuntime::build_with_policy(
            &mut ctx,
            DeviceKind::NvmeSpdk,
            16384,
            128,
            cores,
            engine.debts(),
            policy,
        );
        let f = rt.open("/evictor", 1024).unwrap();
        let addr = rt.aquila.mmap(&mut ctx, f, 0, 1024, Prot::RW).unwrap();
        rt.aquila
            .madvise(&mut ctx, addr, 1024, Advice::Random)
            .unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let fault_cycles = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let faults = Arc::new(std::sync::atomic::AtomicU64::new(0));
        {
            let aquila = Arc::clone(&rt.aquila);
            let stop = Arc::clone(&stop);
            let fault_cycles = Arc::clone(&fault_cycles);
            let faults = Arc::clone(&faults);
            let mut p = 0u64;
            engine.spawn(
                0,
                Box::new(move |ctx| {
                    let page = (p * 2654435761) % 1024;
                    let pf0 = ctx.counters().page_faults;
                    let t0 = ctx.now();
                    aquila
                        .write(ctx, addr.add(page * 4096 + 7), &page.to_le_bytes())
                        .unwrap();
                    if ctx.counters().page_faults > pf0 {
                        fault_cycles.fetch_add((ctx.now() - t0).get(), Ordering::Relaxed);
                        faults.fetch_add(1, Ordering::Relaxed);
                    }
                    p += 1;
                    if p >= 1024 {
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
        let report = engine.run();
        assert!(report.counters.evictions > 0, "pressure forces eviction");

        // Every page written must read back with its tag.
        let mut b = [0u8; 8];
        for page in 0..1024u64 {
            rt.aquila
                .read(&mut ctx, addr.add(page * 4096 + 7), &mut b)
                .unwrap();
            assert_eq!(u64::from_le_bytes(b), page, "page {page}");
        }
        (
            fault_cycles.load(Ordering::Relaxed) as f64
                / faults.load(Ordering::Relaxed).max(1) as f64,
            report.counters.writebacks,
        )
    };

    let (qd1_cyc, qd1_wb) = run(false, 1);
    let (sync_cyc, sync_wb) = run(false, 8);
    let (async_cyc, async_wb) = run(true, 8);
    assert!(
        qd1_wb > 0 && sync_wb > 0 && async_wb > 0,
        "dirty victims were written back"
    );
    assert!(
        async_cyc < qd1_cyc * 0.8,
        "write-behind must take eviction off the fault path: sync qd1 {qd1_cyc:.0} vs async {async_cyc:.0} cycles/fault"
    );
    assert!(
        async_cyc < sync_cyc,
        "write-behind must beat inline eviction at the same depth: sync {sync_cyc:.0} vs async {async_cyc:.0} cycles/fault"
    );
}

#[test]
fn breaker_trip_degrades_region_to_read_only() {
    use crate::config::MmioPolicy;
    use crate::engine::RegionState;
    use aquila_devices::RetryPolicy;
    use aquila_sim::fault::FaultPlan;

    let mut ctx = FreeCtx::new(11);
    let debts = Arc::new(CoreDebts::new(1));
    // No retry headroom and a hair-trigger breaker: the first injected
    // media error opens the write path's circuit.
    let policy = MmioPolicy {
        retry: RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 1,
            ..RetryPolicy::default()
        },
        ..MmioPolicy::default()
    };
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::NvmeSpdk,
        65536,
        64,
        1,
        debts,
        policy,
    );
    rt.aquila.thread_enter(&mut ctx);
    // The plan is attached after the blobstore format, so the msync
    // writeback below is the first counted write command.
    rt.access
        .nvme_device()
        .expect("spdk path has an nvme device")
        .set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.write:media_error@op=1").unwrap(),
        ));

    let f = rt.open("/data/degrade", 16).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 16, Prot::RW).unwrap();
    rt.aquila.write(&mut ctx, addr, b"doomed").unwrap();
    assert_eq!(rt.aquila.region_state(), RegionState::Healthy);

    let err = rt.aquila.msync(&mut ctx, addr, 16).unwrap_err();
    assert!(matches!(err, AquilaError::Device(_)), "got {err:?}");
    assert_eq!(rt.aquila.region_state(), RegionState::ReadOnly);

    // Writes now fail fast with the typed degradation error...
    let err = rt
        .aquila
        .write(&mut ctx, addr.add(3 * 4096), &[1])
        .unwrap_err();
    assert_eq!(err, AquilaError::DegradedReadOnly);
    assert_eq!(
        rt.aquila.msync(&mut ctx, addr, 16),
        Err(AquilaError::DegradedReadOnly)
    );
    // ...while cached data stays readable, including the unpersisted
    // write (its dirty bit was restored, never silently dropped).
    let mut back = [0u8; 6];
    rt.aquila.read(&mut ctx, addr, &mut back).unwrap();
    assert_eq!(&back, b"doomed");
    assert!(rt.aquila.cache().dirty_count() >= 1);
    assert!(rt.access.breaker().unwrap().is_open(ctx.now()));
}

#[test]
fn watermark_stall_degrades_async_to_write_through() {
    use crate::config::{MmioPolicy, WritePolicy};
    use crate::engine::{RegionState, STALL_DEADLINE};

    let mut ctx = FreeCtx::new(12);
    let debts = Arc::new(CoreDebts::new(1));
    let policy = MmioPolicy {
        write_policy: WritePolicy::Async,
        low_watermark: 16,
        high_watermark: 32,
        ..MmioPolicy::default()
    };
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::NvmeSpdk,
        65536,
        64,
        1,
        debts,
        policy,
    );
    // Pin the freelist below the low watermark, as if the evictor were
    // wedged behind a failing device.
    let mut held = Vec::new();
    while rt.aquila.cache().watermark_deficit() == 0 {
        held.push(rt.aquila.cache().try_alloc(&mut ctx).unwrap());
    }
    rt.aquila.track_watermark_stall(&ctx); // Starts the stall clock.
    assert_eq!(rt.aquila.region_state(), RegionState::Healthy);
    ctx.charge(CostCat::Idle, Cycles::from_micros(9_000));
    rt.aquila.track_watermark_stall(&ctx); // Still inside the deadline.
    assert_eq!(rt.aquila.region_state(), RegionState::Healthy);
    ctx.charge(CostCat::Idle, STALL_DEADLINE);
    rt.aquila.track_watermark_stall(&ctx); // Past the deadline.
    assert_eq!(rt.aquila.region_state(), RegionState::WriteThrough);
    // Recovery of the freelist does not un-degrade (sticky for the run).
    for f in held {
        rt.aquila.cache().release_frame(&mut ctx, f);
    }
    rt.aquila.track_watermark_stall(&ctx);
    assert_eq!(rt.aquila.region_state(), RegionState::WriteThrough);
}

#[test]
fn recover_from_image_reboots_the_stack() {
    use crate::config::MmioPolicy;

    let mut ctx = FreeCtx::new(13);
    let debts = Arc::new(CoreDebts::new(1));
    let rt = AquilaRuntime::build(&mut ctx, DeviceKind::NvmeSpdk, 65536, 64, 1, debts);
    rt.aquila.thread_enter(&mut ctx);
    let f = rt.open("/data/survivor", 32).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 32, Prot::RW).unwrap();
    rt.aquila
        .write(&mut ctx, addr.add(5), b"persisted")
        .unwrap();
    rt.aquila.msync(&mut ctx, addr, 32).unwrap();
    rt.store.sync_md(&mut ctx).unwrap();
    let image = rt.access.nvme_device().unwrap().store().snapshot();
    drop(rt);

    // Reboot a fresh stack from the captured image: the blobstore loads
    // and the file is found again by name.
    let mut ctx2 = FreeCtx::new(14);
    let debts2 = Arc::new(CoreDebts::new(1));
    let rt2 =
        AquilaRuntime::recover_from_image(&mut ctx2, &image, 64, 1, debts2, MmioPolicy::default())
            .unwrap();
    rt2.aquila.thread_enter(&mut ctx2);
    let f2 = rt2.open("/data/survivor", 32).unwrap();
    let addr2 = rt2.aquila.mmap(&mut ctx2, f2, 0, 32, Prot::RW).unwrap();
    let mut back = [0u8; 9];
    rt2.aquila.read(&mut ctx2, addr2.add(5), &mut back).unwrap();
    assert_eq!(&back, b"persisted");
}

// -------------------------------------------------------------------
// Transparent 2 MiB huge pages (DESIGN.md §12).
// -------------------------------------------------------------------

fn huge_runtime(
    cache_frames: usize,
    policy: crate::config::MmioPolicy,
) -> (FreeCtx, AquilaRuntime) {
    let mut ctx = FreeCtx::new(42);
    let debts = Arc::new(CoreDebts::new(1));
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::PmemDax,
        65536,
        cache_frames,
        1,
        debts,
        policy,
    );
    rt.aquila.thread_enter(&mut ctx);
    (ctx, rt)
}

#[test]
fn huge_promotion_collapses_clean_sequential_run() {
    use crate::config::MmioPolicy;
    let policy = MmioPolicy {
        huge_pages: true,
        ..MmioPolicy::default()
    };
    let (mut ctx, rt) = huge_runtime(1024, policy);
    let f = rt.open("/data/huge-seq", 1024).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 1024, Prot::RW).unwrap();
    let mut b = [0u8; 1];
    for p in 0..512u64 {
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut b)
            .unwrap();
    }
    assert_eq!(ctx.stats.huge_promotions, 1, "one run collapsed");
    assert_eq!(rt.aquila.promoted_runs(), 1);
    assert_eq!(rt.aquila.huge_mapped_pages(), 512);
    // A re-scan is fault-free and served by the 2 MiB sub-TLB.
    let faults = ctx.stats.page_faults;
    for p in 0..512u64 {
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut b)
            .unwrap();
    }
    assert_eq!(ctx.stats.page_faults, faults, "no faults after promotion");
    assert!(
        rt.aquila.tlb_huge_hits() >= 512,
        "huge hits: {}",
        rt.aquila.tlb_huge_hits()
    );
}

#[test]
fn huge_dirty_run_demotes_on_msync_and_retracks_writes() {
    use crate::config::MmioPolicy;
    let policy = MmioPolicy {
        huge_pages: true,
        ..MmioPolicy::default()
    };
    let (mut ctx, rt) = huge_runtime(1024, policy);
    let f = rt.open("/data/huge-dirty", 512).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 512, Prot::RW).unwrap();
    for p in 0..512u64 {
        rt.aquila
            .write(&mut ctx, addr.add(p * 4096), &[p as u8])
            .unwrap();
    }
    assert_eq!(rt.aquila.promoted_runs(), 1, "uniformly dirty run promotes");
    assert_eq!(rt.aquila.cache().dirty_count(), 512);
    rt.aquila.msync(&mut ctx, addr, 512).unwrap();
    assert_eq!(ctx.stats.huge_demotions, 1, "msync splinters the run");
    assert_eq!(rt.aquila.promoted_runs(), 0);
    assert_eq!(rt.aquila.cache().dirty_count(), 0);
    // Lazy splinter: pages stay cached in their slab frames, so the
    // refaults are all minor and the data is intact.
    let major = ctx.stats.major_faults;
    let mut b = [0u8; 1];
    for p in 0..512u64 {
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut b)
            .unwrap();
        assert_eq!(b[0], p as u8, "page {p}");
    }
    assert_eq!(
        ctx.stats.major_faults, major,
        "no device I/O after demotion"
    );
    // Writes fault and are tracked at 4 KiB again.
    rt.aquila.write(&mut ctx, addr, &[0xAA]).unwrap();
    assert_eq!(rt.aquila.cache().dirty_count(), 1);
}

#[test]
fn huge_clean_run_write_upgrades_whole_leaf() {
    use crate::config::MmioPolicy;
    let policy = MmioPolicy {
        huge_pages: true,
        ..MmioPolicy::default()
    };
    let (mut ctx, rt) = huge_runtime(1024, policy);
    let f = rt.open("/data/huge-upgrade", 512).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 512, Prot::RW).unwrap();
    let mut b = [0u8; 1];
    for p in 0..512u64 {
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut b)
            .unwrap();
    }
    assert_eq!(rt.aquila.promoted_runs(), 1);
    assert_eq!(
        rt.aquila.cache().dirty_count(),
        0,
        "clean run maps read-only"
    );
    let faults = ctx.stats.page_faults;
    rt.aquila
        .write(&mut ctx, addr.add(7 * 4096 + 3), &[9])
        .unwrap();
    assert_eq!(ctx.stats.page_faults, faults + 1, "one upgrade fault");
    assert_eq!(rt.aquila.promoted_runs(), 1, "upgrade keeps the leaf huge");
    assert_eq!(
        rt.aquila.cache().dirty_count(),
        512,
        "the whole run enters dirty tracking at once"
    );
    // Later writes anywhere in the run are fault-free.
    rt.aquila
        .write(&mut ctx, addr.add(400 * 4096), &[1])
        .unwrap();
    assert_eq!(ctx.stats.page_faults, faults + 1);
    // Shutdown durability: sync_all splinters and writes the run back.
    rt.aquila.sync_all(&mut ctx).unwrap();
    assert_eq!(rt.aquila.promoted_runs(), 0);
    assert!(ctx.stats.writebacks >= 512);
    rt.aquila
        .read(&mut ctx, addr.add(7 * 4096 + 3), &mut b)
        .unwrap();
    assert_eq!(b[0], 9);
}

#[test]
fn huge_partial_dontneed_splinters_and_slab_drains() {
    use crate::config::MmioPolicy;
    let policy = MmioPolicy {
        huge_pages: true,
        ..MmioPolicy::default()
    };
    let (mut ctx, rt) = huge_runtime(512, policy);
    let f = rt.open("/data/huge-splinter", 512).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 512, Prot::RW).unwrap();
    let mut b = [0u8; 1];
    for p in 0..512u64 {
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut b)
            .unwrap();
    }
    assert_eq!(rt.aquila.promoted_runs(), 1);
    assert_eq!(rt.aquila.cache().free_slab_runs(), 0);
    // Dropping PTEs of a sub-range cannot carve a 2 MiB leaf: the whole
    // run splinters, the pages stay cached.
    rt.aquila
        .madvise(&mut ctx, addr.add(100 * 4096), 50, Advice::DontNeed)
        .unwrap();
    assert_eq!(ctx.stats.huge_demotions, 1);
    assert_eq!(rt.aquila.promoted_runs(), 0);
    let major = ctx.stats.major_faults;
    rt.aquila
        .read(&mut ctx, addr.add(120 * 4096), &mut b)
        .unwrap();
    assert_eq!(ctx.stats.major_faults, major, "dropped PTE, cached data");
    // Under pressure the unpinned slab frames drain through normal
    // eviction and the run returns to the pool.
    let f2 = rt.open("/data/huge-pressure", 2048).unwrap();
    let addr2 = rt.aquila.mmap(&mut ctx, f2, 0, 2048, Prot::RW).unwrap();
    rt.aquila
        .madvise(&mut ctx, addr2, 2048, Advice::Random)
        .unwrap();
    // Skip one page per aligned 512-run so the pressure file itself can
    // never become uniform enough to claim the freed slab run.
    for _pass in 0..2 {
        for p in (0..2048u64).filter(|p| p % 512 != 17) {
            rt.aquila
                .read(&mut ctx, addr2.add(p * 4096), &mut b)
                .unwrap();
        }
    }
    assert!(ctx.stats.evictions > 0);
    assert_eq!(ctx.stats.huge_promotions, 1, "pressure file stayed 4 KiB");
    assert_eq!(
        rt.aquila.cache().free_slab_runs(),
        1,
        "drained run returned to the slab pool"
    );
}

#[test]
fn huge_pages_off_never_promotes() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 1024);
    let f = rt.open("/data/huge-off", 512).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 512, Prot::RW).unwrap();
    let mut b = [0u8; 1];
    for p in 0..512u64 {
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut b)
            .unwrap();
    }
    assert_eq!(ctx.stats.huge_promotions, 0);
    assert_eq!(rt.aquila.promoted_runs(), 0);
    assert_eq!(rt.aquila.cache().slab_runs(), 0, "no slab without the knob");
}

// -------------------------------------------------------------------
// Readahead edge behaviour (regression).
// -------------------------------------------------------------------

#[test]
fn readahead_never_passes_the_mapping_end() {
    use aquila_pcache::PageKey;
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 64);
    let f = rt.open("/data/ra-end", 24).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 24, Prot::RW).unwrap();
    rt.aquila
        .madvise(&mut ctx, addr, 24, Advice::Sequential)
        .unwrap();
    let mut b = [0u8; 1];
    rt.aquila
        .read(&mut ctx, addr.add(20 * 4096), &mut b)
        .unwrap();
    // The sequential window would reach past page 23; it must clip at
    // the mapping/file end instead of inserting ghost pages.
    for fp in 24..64u64 {
        assert!(
            rt.aquila
                .cache()
                .lookup(&mut ctx, PageKey::new(f.0, fp))
                .is_none(),
            "page {fp} cached past the end of the file"
        );
    }
    assert!(ctx.stats.readahead_pages <= 3, "window clipped to [21, 24)");
}

#[test]
fn readahead_never_triggers_eviction() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 16);
    let fa = rt.open("/data/ra-a", 15).unwrap();
    let a = rt.aquila.mmap(&mut ctx, fa, 0, 15, Prot::RW).unwrap();
    rt.aquila.madvise(&mut ctx, a, 15, Advice::Random).unwrap();
    let mut b = [0u8; 1];
    for p in 0..15u64 {
        rt.aquila.read(&mut ctx, a.add(p * 4096), &mut b).unwrap();
    }
    assert_eq!(ctx.stats.evictions, 0, "working set fits");
    // One free frame left: the fault takes it, and the readahead window
    // must stop at the empty freelist instead of evicting.
    let fb = rt.open("/data/ra-b", 32).unwrap();
    let baddr = rt.aquila.mmap(&mut ctx, fb, 0, 32, Prot::RW).unwrap();
    rt.aquila
        .madvise(&mut ctx, baddr, 32, Advice::Sequential)
        .unwrap();
    rt.aquila.read(&mut ctx, baddr, &mut b).unwrap();
    assert_eq!(ctx.stats.evictions, 0, "readahead never evicts");
    assert_eq!(ctx.stats.readahead_pages, 0);
}

#[test]
fn readahead_window_inside_promotion_candidate_run() {
    use crate::config::MmioPolicy;
    use aquila_pcache::PageKey;
    let policy = MmioPolicy {
        huge_pages: true,
        ..MmioPolicy::default()
    };
    let (mut ctx, rt) = huge_runtime(1024, policy);
    let f = rt.open("/data/ra-huge", 600).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 600, Prot::RW).unwrap();
    rt.aquila
        .madvise(&mut ctx, addr, 600, Advice::Sequential)
        .unwrap();
    let mut b = [0u8; 1];
    for p in 0..600u64 {
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut b)
            .unwrap();
    }
    // The first run promoted with readahead active inside it; the
    // 600-page tail cannot (no full 512-page window fits).
    assert_eq!(rt.aquila.promoted_runs(), 1);
    for fp in 600..640u64 {
        assert!(
            rt.aquila
                .cache()
                .lookup(&mut ctx, PageKey::new(f.0, fp))
                .is_none(),
            "page {fp} cached past the end of the file"
        );
    }
}

#[test]
fn recover_from_unformatted_image_is_typed_error() {
    use crate::config::MmioPolicy;
    let mut ctx = FreeCtx::new(15);
    let debts = Arc::new(CoreDebts::new(1));
    let blank = aquila_sim::DeviceImage {
        pages: 256,
        resident: Vec::new(),
    };
    let err =
        AquilaRuntime::recover_from_image(&mut ctx, &blank, 16, 1, debts, MmioPolicy::default())
            .unwrap_err();
    assert!(matches!(err, AquilaError::RecoveryFailed(_)));
}

// ---------------------------------------------------------------
// Multi-tenant QoS (DESIGN.md §15).
// ---------------------------------------------------------------

#[test]
fn admission_never_drops_a_tenant_under_its_quota() {
    use crate::config::MmioPolicy;
    use crate::engine::Admission;
    use crate::session::{Tenant, TenantSpec};
    let mut ctx = FreeCtx::new(7);
    let debts = Arc::new(CoreDebts::new(1));
    let policy = MmioPolicy {
        tenant_qos: true,
        low_watermark: 24,
        high_watermark: 32,
        ..MmioPolicy::default()
    };
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::PmemDax,
        65536,
        64,
        1,
        debts,
        policy,
    );
    rt.aquila.thread_enter(&mut ctx);

    let protected = Tenant::register(
        Arc::clone(&rt.aquila),
        TenantSpec {
            id: 1,
            quota_frames: 0, // Unlimited: by definition never over quota.
            weight: 4,
            slo_p99: Cycles::from_micros(500),
        },
    );
    let noisy = Tenant::register(
        Arc::clone(&rt.aquila),
        TenantSpec {
            id: 2,
            quota_frames: 8,
            weight: 1,
            slo_p99: Cycles::MAX,
        },
    );
    let pf = protected.open(&rt, "/t/protected", 64).unwrap();
    let nf = noisy.open(&rt, "/t/noisy", 256).unwrap();
    let ps = protected.session();
    let ns = noisy.session();
    let pa = ps.mmap(&mut ctx, pf, 0, 64, Prot::RW).unwrap();
    let na = ns.mmap(&mut ctx, nf, 0, 256, Prot::RW).unwrap();
    ps.madvise(&mut ctx, pa, 64, Advice::Random).unwrap();
    ns.madvise(&mut ctx, na, 256, Advice::Random).unwrap();

    // The protected tenant warms 54 of the 64 cache frames, pulling the
    // freelist well below the 24-frame watermark.
    let mut b = [0u8; 1];
    for p in 0..54u64 {
        ps.read(&mut ctx, pa.add(p * 4096), &mut b).unwrap();
    }
    assert!(rt.aquila.cache().watermark_deficit() > 0);

    // The noisy tenant floods far past its 8-frame quota while the
    // cache is under pressure: its requests get delayed or shed, but a
    // request is only ever *refused* once the tenant is over quota.
    let mut sheds = 0u64;
    for i in 0..200u64 {
        let under_quota = !rt.aquila.cache().tenant_over_quota(2);
        match ns.read(&mut ctx, na.add((i % 256) * 4096), &mut b) {
            Ok(()) => {}
            Err(AquilaError::QosShed) => {
                assert!(!under_quota, "shed a request from a tenant under quota");
                sheds += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(sheds > 0, "an over-quota flood under pressure must shed");
    assert_eq!(noisy.shed_requests(), sheds);

    // The under-quota tenant is always admitted — even now, with the
    // freelist deep under the watermark — and its requests all succeed.
    assert!(matches!(rt.aquila.admit(1), Admission::Admit));
    for p in 0..54u64 {
        ps.read(&mut ctx, pa.add(p * 4096), &mut b).unwrap();
    }
    assert_eq!(protected.shed_requests(), 0);
    // Self-reclaim kept the noisy tenant pinned near its quota instead
    // of letting it strip-mine the protected tenant's working set.
    assert!(
        noisy.resident_frames() <= 16,
        "noisy resident {} should hug its 8-frame quota",
        noisy.resident_frames()
    );
}

#[test]
fn qos_off_never_delays_or_sheds() {
    use crate::engine::Admission;
    use crate::session::{Tenant, TenantSpec};
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 32);
    let noisy = Tenant::register(
        Arc::clone(&rt.aquila),
        TenantSpec {
            id: 3,
            quota_frames: 2,
            weight: 1,
            slo_p99: Cycles::MAX,
        },
    );
    let f = noisy.open(&rt, "/t/off", 256).unwrap();
    let s = noisy.session();
    let a = s.mmap(&mut ctx, f, 0, 256, Prot::RW).unwrap();
    s.madvise(&mut ctx, a, 256, Advice::Random).unwrap();
    let mut b = [0u8; 1];
    for p in 0..200u64 {
        s.read(&mut ctx, a.add((p % 256) * 4096), &mut b).unwrap();
    }
    assert!(rt.aquila.cache().tenant_over_quota(3));
    assert!(
        matches!(rt.aquila.admit(3), Admission::Admit),
        "QoS off: over-quota is meaningless"
    );
    assert_eq!(noisy.shed_requests(), 0);
}

#[test]
fn session_accounting_tracks_requests_and_bytes() {
    use crate::session::{Tenant, TenantSpec};
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 64);
    let t = Tenant::register(Arc::clone(&rt.aquila), TenantSpec::unlimited(5));
    let f = t.open(&rt, "/t/acct", 16).unwrap();
    let s = t.session();
    let a = s.mmap(&mut ctx, f, 0, 16, Prot::RW).unwrap();
    s.write(&mut ctx, a, b"0123456789").unwrap();
    let mut back = [0u8; 4];
    s.read(&mut ctx, a.add(2), &mut back).unwrap();
    assert_eq!(&back, b"2345");
    s.msync(&mut ctx, a, 16).unwrap();
    s.munmap(&mut ctx, a, 16).unwrap();
    assert_eq!(t.requests(), 5, "mmap+write+read+msync+munmap");
    assert_eq!(t.bytes(), (4, 10));
    assert_eq!(
        rt.aquila.cache().tenant_of_file(f.0),
        5,
        "file bound to its tenant"
    );
    assert!(t.resident_frames() >= 1);
}

#[test]
fn mirrored_runtime_scrubber_heals_silent_corruption() {
    use crate::engine::Aquila;
    use aquila_devices::{Blobstore, MirrorAccess, NvmeDevice, StorageAccess};
    use aquila_sim::fault::FaultPlan;

    let mut ctx = FreeCtx::new(21);
    let debts = Arc::new(CoreDebts::new(1));
    let primary = Arc::new(NvmeDevice::optane(4096));
    let replica = Arc::new(NvmeDevice::optane(4096));
    let mirror = Arc::new(MirrorAccess::new(Arc::clone(&primary), replica));
    let access: Arc<dyn StorageAccess> = mirror;
    let store = Arc::new(Blobstore::format(&mut ctx, Arc::clone(&access)).unwrap());
    let aq = Arc::new(Aquila::new(AquilaConfig::builder(1, 64).build(), debts));
    aq.thread_enter(&mut ctx);

    let f = aq
        .files()
        .open_blob(&store, &access, "/data/scrubbed", 16)
        .unwrap();
    let addr = aq.mmap(&mut ctx, f, 0, 16, Prot::RW).unwrap();
    for p in 0..8u64 {
        aq.write(&mut ctx, addr.add(p * 4096), &[p as u8 + 1; 64])
            .unwrap();
    }
    // Attach the storm right before writeback so blobstore metadata
    // stays clean and the corrupt clause lands on the data pages msync
    // pushes out (writeback coalesces the 8 contiguous dirty pages into
    // one device command, so op=1 is the data write).
    primary.set_fault_plan(Arc::new(
        FaultPlan::parse("nvme.write:corrupt=8@op=1").unwrap(),
    ));
    aq.msync(&mut ctx, addr, 16).unwrap();
    assert!(
        primary.poisoned_sectors() > 0,
        "the storm corrupted writeback on the primary"
    );

    // Sweep the whole LBA space the way the background scrubber thread
    // does (the thread itself runs live in the serve determinism test).
    for page in 0..access.capacity_pages() {
        let _ = access.scrub_page(&mut ctx, page);
    }
    assert_eq!(primary.poisoned_sectors(), 0, "scrubber healed the device");
    let c = access.integrity_counters().unwrap();
    assert!(c.detected >= 1, "corruption was caught: {c:?}");
    assert!(c.repaired >= 1, "and repaired from the replica: {c:?}");
    assert_eq!(c.unrepairable, 0);
    assert_eq!(c.undetected(), 0, "nothing slipped through: {c:?}");
}

#[test]
fn unrepairable_corruption_refuses_read_and_degrades_region() {
    use crate::engine::{Aquila, RegionState};
    use aquila_devices::{Blobstore, MirrorAccess, NvmeDevice, StorageAccess};
    use aquila_sim::fault::FaultPlan;

    let mut ctx = FreeCtx::new(22);
    let debts = Arc::new(CoreDebts::new(1));
    let primary = Arc::new(NvmeDevice::optane(4096));
    let replica = Arc::new(NvmeDevice::optane(4096));
    let mirror = Arc::new(MirrorAccess::new(
        Arc::clone(&primary),
        Arc::clone(&replica),
    ));
    let access: Arc<dyn StorageAccess> = mirror;
    let store = Arc::new(Blobstore::format(&mut ctx, Arc::clone(&access)).unwrap());
    let aq = Arc::new(Aquila::new(AquilaConfig::builder(1, 64).build(), debts));
    aq.thread_enter(&mut ctx);
    let f = aq
        .files()
        .open_blob(&store, &access, "/data/doomed", 16)
        .unwrap();
    // Identical flips land on BOTH copies of the file's first device
    // page, so the replica cannot repair the primary.
    primary.set_fault_plan(Arc::new(
        FaultPlan::parse("nvme.write:corrupt=8@op=1").unwrap(),
    ));
    replica.set_fault_plan(Arc::new(
        FaultPlan::parse("nvme.write:corrupt=8@op=1").unwrap(),
    ));
    let dev_page = aq.files().dev_page(f, 0).unwrap();
    access
        .write_pages(&mut ctx, dev_page, &vec![0x7Fu8; 4096])
        .unwrap();

    let addr = aq.mmap(&mut ctx, f, 0, 16, Prot::RW).unwrap();
    let mut buf = [0u8; 8];
    let err = aq.read(&mut ctx, addr, &mut buf).unwrap_err();
    assert!(
        matches!(err, AquilaError::DataCorrupted { .. }),
        "poisoned page must not be served: {err:?}"
    );
    assert_eq!(
        aq.region_state(),
        RegionState::ReadOnly,
        "the region degraded instead of trusting the medium"
    );
    let c = access.integrity_counters().unwrap();
    assert!(c.unrepairable >= 1);
    assert_eq!(c.undetected(), 0, "refused, not silently served: {c:?}");
    // Other, uncorrupted pages still serve reads in ReadOnly.
    aq.read(&mut ctx, addr.add(4096), &mut buf).unwrap();
}

#[test]
fn mirrored_async_msync_keeps_deep_queues_on_both_copies() {
    use crate::config::{MmioPolicy, WritePolicy};

    // Cycles one msync of 128 scattered dirty pages takes: every other
    // page, so each is its own device command (per copy, when mirrored).
    let msync_cycles = |mirror: bool, write_policy: WritePolicy, qd: usize| -> (u64, u64) {
        let mut ctx = FreeCtx::new(31);
        let debts = Arc::new(CoreDebts::new(1));
        let policy = MmioPolicy {
            mirror,
            write_policy,
            queue_depth: qd,
            ..MmioPolicy::default()
        };
        let rt = AquilaRuntime::build_with_policy(
            &mut ctx,
            DeviceKind::NvmeSpdk,
            65536,
            512,
            1,
            debts,
            policy,
        );
        rt.aquila.thread_enter(&mut ctx);
        let f = rt.open("/data/msync", 256).unwrap();
        let addr = rt.aquila.mmap(&mut ctx, f, 0, 256, Prot::RW).unwrap();
        for page in (0..256u64).step_by(2) {
            rt.aquila
                .write(&mut ctx, addr.add(page * 4096), &[page as u8 + 1; 64])
                .unwrap();
        }
        let t0 = ctx.now();
        rt.aquila.msync(&mut ctx, addr, 256).unwrap();
        let queued = rt
            .access
            .integrity_counters()
            .map_or(0, |c| c.queued_writes);
        ((ctx.now() - t0).get(), queued)
    };
    let (plain_async, _) = msync_cycles(false, WritePolicy::Async, 8);
    let (mirror_async, queued) = msync_cycles(true, WritePolicy::Async, 8);
    let (mirror_sync, sync_queued) = msync_cycles(true, WritePolicy::Sync, 8);
    let (mirror_qd1, _) = msync_cycles(true, WritePolicy::Sync, 1);
    assert_eq!(queued, 2 * 128, "every page went through both deep queues");
    assert_eq!(
        (mirror_sync, sync_queued),
        (mirror_async, queued),
        "msync takes the same deep-queue writeback under either policy"
    );
    assert!(
        mirror_async as f64 <= 1.25 * plain_async as f64,
        "the replica's queue must serve concurrently: mirrored {mirror_async} vs plain {plain_async} cycles"
    );
    assert!(
        (mirror_async as f64) < 0.5 * mirror_qd1 as f64,
        "batching must beat one command at a time: depth 8 {mirror_async} vs depth 1 {mirror_qd1} cycles"
    );
}

#[test]
fn failed_fill_returns_its_frame() {
    use crate::config::MmioPolicy;
    use aquila_devices::RetryPolicy;
    use aquila_sim::fault::FaultPlan;

    let mut ctx = FreeCtx::new(17);
    let debts = Arc::new(CoreDebts::new(1));
    let policy = MmioPolicy {
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        ..MmioPolicy::default()
    };
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::NvmeSpdk,
        65536,
        64,
        1,
        debts,
        policy,
    );
    rt.aquila.thread_enter(&mut ctx);
    let f = rt.open("/data/leak", 16).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 16, Prot::READ).unwrap();
    rt.access
        .nvme_device()
        .expect("spdk path has an nvme device")
        .set_fault_plan(Arc::new(
            FaultPlan::parse("nvme.read:media_error@op=1").unwrap(),
        ));
    let free = rt.aquila.cache().free_frames();
    let mut b = [0u8; 1];
    let err = rt.aquila.read(&mut ctx, addr, &mut b).unwrap_err();
    assert!(matches!(err, AquilaError::Device(_)), "got {err:?}");
    assert_eq!(
        rt.aquila.cache().free_frames(),
        free,
        "failed fill leaked its frame"
    );
    assert_eq!(rt.aquila.cache().resident(), 0);
    // The plan was one-shot: the retry fills and maps normally.
    rt.aquila.read(&mut ctx, addr, &mut b).unwrap();
    assert!(rt.aquila.cache().resident() >= 1);
}

/// Two mappings of one file range share every frame, so each frame's
/// reverse map holds two VPNs (the spill path). Unmapping one and then
/// evicting must tear down the survivor's PTEs, and the frames must all
/// come back.
#[test]
fn doubly_mapped_frames_unmap_and_evict_cleanly() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 16);
    let f = rt.open("/data/twice", 64).unwrap();
    let a = rt.aquila.mmap(&mut ctx, f, 0, 8, Prot::RW).unwrap();
    let b = rt.aquila.mmap(&mut ctx, f, 0, 8, Prot::READ).unwrap();
    assert_ne!(a, b);
    for p in 0..8u64 {
        rt.aquila
            .write(&mut ctx, a.add(p * 4096), &[p as u8 + 1])
            .unwrap();
    }
    let mut byte = [0u8; 1];
    for p in 0..8u64 {
        rt.aquila
            .read(&mut ctx, b.add(p * 4096), &mut byte)
            .unwrap();
        assert_eq!(
            byte[0],
            p as u8 + 1,
            "second mapping sees the first's write"
        );
    }
    rt.aquila.munmap(&mut ctx, a, 8).unwrap();

    // Stream the rest of the file through a third mapping: 56 pages
    // through a 16-frame cache evicts every frame `b` maps.
    let c = rt.aquila.mmap(&mut ctx, f, 8, 56, Prot::READ).unwrap();
    for p in 0..56u64 {
        rt.aquila
            .read(&mut ctx, c.add(p * 4096), &mut byte)
            .unwrap();
    }
    assert!(ctx.stats.evictions >= 8, "pressure must evict");

    // Every page of `b` lost its PTE with its frame: each read faults
    // again and brings back the bytes written through `a`.
    for p in 0..8u64 {
        let faults = ctx.stats.page_faults;
        rt.aquila
            .read(&mut ctx, b.add(p * 4096), &mut byte)
            .unwrap();
        assert_eq!(byte[0], p as u8 + 1, "page {p} after eviction");
        assert!(
            ctx.stats.page_faults > faults,
            "page {p}: stale PTE survived"
        );
    }
    let cache = rt.aquila.cache();
    assert_eq!(
        cache.free_frames() + cache.resident(),
        cache.active_frames()
    );
}

/// Writeback hands the device the cache frames' own pages: whatever the
/// access path, the device ends up holding the very pages the frames
/// hold (both copies, for a mirror), and a later write to a frame copies
/// first, so the device keeps the bytes it was given. The first
/// segment's frames are out of order; a single-page segment rides in the
/// same batch.
#[test]
fn writeback_hands_the_frames_pages_to_every_path() {
    use aquila_devices::{
        CallDomain, DaxAccess, HostNvmeAccess, MirrorAccess, NvmeDevice, PmemDevice, SpdkAccess,
        StorageAccess, STORE_PAGE,
    };
    use aquila_mmu::{FrameId, PhysMem};
    use aquila_pcache::{DirtyPage, PageKey};
    use aquila_sim::Page;

    use crate::engine::{write_planned, Segment};

    let mem = PhysMem::new(aquila_vmx::Gpa(0), 1024);
    let frames = [512u32, 40, 511, 513];
    let bytes_of = |f: u32| -> Vec<u8> {
        (0..STORE_PAGE)
            .map(|i| (i as u32 * 7 + f * 13) as u8)
            .collect()
    };
    for &f in &frames {
        mem.write(FrameId(f), 0, &bytes_of(f));
    }
    let dirty: Vec<DirtyPage> = frames
        .iter()
        .enumerate()
        .map(|(i, &f)| DirtyPage {
            key: PageKey::new(1, i as u64),
            frame: FrameId(f),
        })
        .collect();
    let paths: Vec<(&str, Arc<dyn StorageAccess>, bool)> = vec![
        (
            "SPDK-NVMe",
            Arc::new(SpdkAccess::new(Arc::new(NvmeDevice::optane(64)))),
            false,
        ),
        (
            "mirror",
            Arc::new(MirrorAccess::new(
                Arc::new(NvmeDevice::optane(64)),
                Arc::new(NvmeDevice::optane(64)),
            )),
            true,
        ),
        (
            "DAX-pmem",
            Arc::new(DaxAccess::new(Arc::new(PmemDevice::dram_backed(64)), true)),
            false,
        ),
        (
            "HOST-NVMe",
            Arc::new(HostNvmeAccess::new(
                Arc::new(NvmeDevice::optane(64)),
                CallDomain::Guest,
            )),
            false,
        ),
    ];
    for (name, access, mirrored) in paths {
        for depth in [1, 8] {
            let mut ctx = FreeCtx::new(3);
            // Pages 0-2 land contiguously at device page 20, page 3 alone
            // at device page 9.
            let segs: Vec<Segment> = vec![
                (Arc::clone(&access), 20, 0..3),
                (Arc::clone(&access), 9, 3..4),
            ];
            write_planned(&mut ctx, &mem, &dirty, &segs, depth).unwrap();
            let placed = [(20u64, 512u32), (21, 40), (22, 511), (9, 513)];
            for (dev, frame) in placed {
                let mut got = [Page::zero()];
                access.read_refs(&mut ctx, dev, &mut got).unwrap();
                assert!(
                    got[0].same_as(&mem.page(FrameId(frame))),
                    "{name} depth {depth}: device page {dev} is the frame's page"
                );
            }
            // The frames' next writes copy; the device keeps what it got.
            for (_, frame) in placed {
                mem.write(FrameId(frame), 0, b"later");
            }
            for (dev, frame) in placed {
                let mut back = vec![0u8; STORE_PAGE];
                access.read_pages(&mut ctx, dev, &mut back).unwrap();
                assert_eq!(back, bytes_of(frame), "{name} depth {depth}: page {dev}");
                mem.write(FrameId(frame), 0, &bytes_of(frame));
            }
            if mirrored {
                let c = access.integrity_counters().unwrap();
                assert_eq!((c.detected, c.repaired), (0, 0), "{name}: {c:?}");
                for dev in [9, 20, 21, 22] {
                    assert_eq!(access.scrub_page(&mut ctx, dev), Ok(false), "{name}");
                }
            }
        }
    }
}

/// A page dirtied through one mapping, unmapped while still cached and
/// dirty, then dirtied again from another core through a new mapping,
/// sits in one dirty tree. Entered in both, the second core's entry
/// outlived the page's eviction, and msync wrote the frame's next
/// occupant over the page on the device.
#[test]
fn a_page_redirtied_from_another_core_is_written_back_once() {
    let debts = Arc::new(CoreDebts::new(2));
    let mut c0 = FreeCtx::new(42).with_core(0, 2);
    let rt = AquilaRuntime::build(&mut c0, DeviceKind::NvmeSpdk, 65536, 16, 2, debts);
    let mut c1 = FreeCtx::new(43).with_core(1, 2);
    rt.aquila.thread_enter(&mut c0);
    rt.aquila.thread_enter(&mut c1);
    let f = rt.open("/data/redirty", 64).unwrap();
    let a = rt.aquila.mmap(&mut c0, f, 0, 64, Prot::RW).unwrap();
    rt.aquila.write(&mut c0, a, &[0xAA; 8]).unwrap();
    rt.aquila.munmap(&mut c0, a, 64).unwrap();
    assert_eq!(rt.aquila.cache().dirty_count(), 1, "still cached and dirty");
    let b = rt.aquila.mmap(&mut c1, f, 0, 64, Prot::RW).unwrap();
    rt.aquila.write(&mut c1, b, &[0xBB; 8]).unwrap();
    assert_eq!(rt.aquila.cache().dirty_count(), 1, "one page, one entry");
    // 39 more pages through a 16-frame cache evict page 0.
    for p in 1..40u64 {
        rt.aquila
            .write(&mut c1, b.add(p * 4096), &[0x20 + p as u8; 8])
            .unwrap();
    }
    rt.aquila.msync(&mut c1, b, 64).unwrap();
    for p in 0..40u64 {
        let mut page = vec![0u8; 4096];
        rt.aquila
            .files()
            .read_pages(&mut c1, f, p, &mut page)
            .unwrap();
        let want = if p == 0 { 0xBB } else { 0x20 + p as u8 };
        assert_eq!(&page[..8], &[want; 8], "device page {p}");
    }
}
