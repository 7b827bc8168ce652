//! Micro-benchmarks of the core data structures (host-time performance
//! of the implementation itself, complementing the virtual-time figure
//! binaries).
//!
//! Plain `std::time::Instant` timing loops — the build is fully offline,
//! so there is no Criterion. Run with `cargo bench -p aquila-bench`.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use aquila_devices::{MirrorAccess, NvmeDevice, StorageAccess, STORE_PAGE};
use aquila_kvstore::{SstReader, SstWriter};
use aquila_mmu::{Access, Gva, PageTable, PteFlags, Vpn};
use aquila_pcache::{ClockLru, Freelist, FreelistConfig, LockFreeMap, NumaTopology, PageKey};
use aquila_sim::{FreeCtx, Page};
use aquila_vmx::Gpa;
use aquila_ycsb::workload::{value_of, KeyGen, VALUE_SIZE};

/// Times `iters` calls of `f` (after a 10% warmup) and prints ns/op.
fn bench<R>(group: &str, name: &str, iters: u64, mut f: impl FnMut() -> R) {
    for _ in 0..iters / 10 {
        std::hint::black_box(f());
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let elapsed = t0.elapsed();
    println!(
        "{group}/{name:<24} {:>10.1} ns/op   ({iters} iters, {:.3} s)",
        elapsed.as_nanos() as f64 / iters as f64,
        elapsed.as_secs_f64()
    );
}

fn bench_lockfree_map() {
    let m = LockFreeMap::new(1 << 16);
    for i in 0..(1u64 << 15) {
        m.insert(PageKey::new(1, i), i);
    }
    let mut i = 0u64;
    bench("lockfree_map", "get_hit", 2_000_000, || {
        i = (i + 12_345) & ((1 << 15) - 1);
        m.get(PageKey::new(1, i))
    });
    let mut k = 1u64 << 20;
    bench("lockfree_map", "insert_remove", 1_000_000, || {
        k += 1;
        let key = PageKey::new(2, k & 0xFFFF);
        m.insert(key, k);
        m.remove(key)
    });
}

/// Misses after eviction churn: a map at the cache's 2x sizing (the
/// kv-read benchmark's 8192 frames) stays full while 400 k evictions
/// replace a random resident key with a new one, after which about 94% of
/// its buckets have spilled into the overflow map at least once (about 3%
/// of the entries sit there at any time). Then it times misses, which
/// consult the overflow map only in buckets that hold entries there now.
fn bench_lockfree_map_churn() {
    const FRAMES: usize = 8192;
    let m = LockFreeMap::new(FRAMES);
    let mut rng = aquila_sim::Rng64::new(7);
    let mut live: Vec<PageKey> = (0..FRAMES as u64).map(|p| PageKey::new(1, p)).collect();
    for &k in &live {
        m.insert(k, 0);
    }
    for page in FRAMES as u64..400_000 + FRAMES as u64 {
        let slot = rng.below(FRAMES as u64) as usize;
        m.remove(live[slot]);
        live[slot] = PageKey::new(1, page);
        m.insert(live[slot], page);
    }
    let mut i = 0u64;
    bench("lockfree_map", "miss_after_churn", 2_000_000, || {
        i = (i + 12_345) & ((1 << 20) - 1);
        m.get(PageKey::new(2, i))
    });
}

fn bench_freelist() {
    let fl = Freelist::new(
        NumaTopology::paper_testbed(),
        FreelistConfig::default(),
        (0..1u32 << 16).map(aquila_mmu::FrameId),
    );
    bench("freelist", "alloc_free", 2_000_000, || {
        let f = fl.alloc(3).expect("non-empty");
        fl.free(3, f);
    });
    // Four cores (two per node) allocate in turn until the freelist is
    // empty; then core 0 frees every frame, spilling 64-frame batches to
    // node 0. Each drain takes local hits, node-0 refills, remote refills
    // on node 1's cores and, once node 0 runs dry, rebalancing steals.
    let topo = NumaTopology {
        nodes: 2,
        cores_per_node: 2,
    };
    let cfg = FreelistConfig {
        core_spill_threshold: 64,
        level_batch: 64,
        steal_batch: 8,
    };
    let fl = Freelist::new(topo, cfg, (0..4096u32).map(aquila_mmu::FrameId));
    let mut held = Vec::with_capacity(4096);
    let mut core = 0;
    bench("freelist", "refill_steal", 2_000_000, || {
        core = (core + 1) % 4;
        match fl.alloc(core) {
            Some(f) => held.push(f),
            None => {
                for f in held.drain(..) {
                    fl.free(0, f);
                }
            }
        }
    });
}

fn bench_page_table() {
    let mut pt = PageTable::new();
    for i in 0..(1u64 << 14) {
        pt.map(Gva(i * 4096), Gpa(i * 4096), PteFlags::RW);
    }
    let mut i = 0u64;
    bench("page_table", "translate_hit", 2_000_000, || {
        i = (i + 7919) & ((1 << 14) - 1);
        pt.translate(Gva(i * 4096), Access::Read).expect("mapped")
    });
    let gva = Gva(0xDEAD_0000_0000);
    bench("page_table", "map_unmap", 1_000_000, || {
        pt.map(gva, Gpa(0x1000), PteFlags::RW);
        pt.unmap(gva)
    });
}

fn bench_clock_lru() {
    let clock = ClockLru::new(1 << 16);
    for i in 0..(1u32 << 16) {
        clock.mark_resident(aquila_mmu::FrameId(i));
    }
    bench("clock_lru", "collect_512", 5_000, || {
        let victims = clock.collect_victims(512);
        for v in &victims {
            clock.mark_resident(*v);
        }
        victims.len()
    });
}

fn bench_sst() {
    // Build an SST in a DRAM-cheap direct env.
    let mut ctx = FreeCtx::new(1);
    let dev = Arc::new(aquila_devices::PmemDevice::dram_backed(1 << 16));
    let access: Arc<dyn aquila_devices::StorageAccess> = Arc::new(aquila_devices::PmemAccess::new(
        dev,
        aquila_devices::Entry::Direct,
    ));
    let env = aquila_kvstore::DirectIoEnv::new(access, 1 << 14);
    let mut w = SstWriter::new();
    for i in 0..20_000u64 {
        w.add(format!("key{i:012}").as_bytes(), b"value-payload-64-bytes");
    }
    let file = aquila_kvstore::Env::create(&env, &mut ctx, "bench.sst", w.data_pages() + 16);
    let meta = w.finish(&mut ctx, &file, 10);
    let reader = SstReader::from_meta(meta, file);
    let mut i = 0u64;
    bench("sst", "point_get", 200_000, || {
        i = (i + 104_729) % 20_000;
        reader
            .get(&mut ctx, format!("key{i:012}").as_bytes())
            .expect("present")
    });
    bench("sst", "bloom_reject", 500_000, || {
        reader.get(&mut ctx, b"missing-key-entirely")
    });
}

fn bench_fault_path() {
    // Host-time cost of a full simulated minor fault (the engine's own
    // overhead, not virtual cycles).
    let mut ctx = FreeCtx::new(1);
    let debts = Arc::new(aquila_sim::CoreDebts::new(1));
    let rt = aquila::AquilaRuntime::build(
        &mut ctx,
        aquila::DeviceKind::PmemDax,
        1 << 15,
        1 << 13,
        1,
        debts,
    );
    let f = rt.open("/bench", 4096).expect("open");
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, 4096, aquila::Prot::RW)
        .expect("map");
    // Warm everything.
    let mut buf = [0u8; 8];
    for p in 0..4096u64 {
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut buf)
            .expect("read");
    }
    let mut p = 0u64;
    bench("mmio_fault_path", "tlb_hit_read", 500_000, || {
        p = (p + 613) & 4095;
        rt.aquila.read(&mut ctx, addr.add(p * 4096), &mut buf)
    });
    // Every read a minor fault on the cached file: the window is
    // unmapped and mapped again before each pass over its 4096 pages.
    let mut window = addr;
    let mut p = 0u64;
    bench("mmio_fault_path", "minor_fault_read", 200_000, || {
        if p == 0 {
            rt.aquila.munmap(&mut ctx, window, 4096).expect("unmap");
            window = rt
                .aquila
                .mmap(&mut ctx, f, 0, 4096, aquila::Prot::RW)
                .expect("map");
        }
        let r = rt.aquila.read(&mut ctx, window.add(p * 4096), &mut buf);
        p = (p + 1) & 4095;
        r
    });
}

fn bench_integrity() {
    // Host cost of the mirror's verification: the eight sector CRCs of
    // one page; a verified read by reference when the primary returns
    // the page the mirror recorded (an identity check) and when it
    // returns an equal private copy (both pages' sector CRCs); then one
    // page written to both copies and read back verified (plus the
    // device model's copies).
    let mut x = 0x9E37_79B9u32;
    let page: Vec<u8> = (0..STORE_PAGE)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect();
    bench("integrity", "crc32c_page", 2_000_000, || {
        aquila_sync::crc32c_sectors(std::hint::black_box(&page))
    });
    let m = MirrorAccess::new(
        Arc::new(NvmeDevice::optane(1024)),
        Arc::new(NvmeDevice::optane(1024)),
    );
    let mut ctx = FreeCtx::new(1);
    m.write_pages(&mut ctx, 0, &page).expect("write");
    m.write_pages(&mut ctx, 1, &page).expect("write");
    m.primary_device()
        .store()
        .adopt(1, Page::copy_of(&page))
        .expect("adopt");
    let mut out = [Page::zero()];
    bench("integrity", "verify_same_page", 1_000_000, || {
        m.read_refs(&mut ctx, 0, &mut out).expect("read")
    });
    bench("integrity", "verify_changed_page", 1_000_000, || {
        m.read_refs(&mut ctx, 1, &mut out).expect("read")
    });
    let mut back = vec![0u8; STORE_PAGE];
    let mut p = 0u64;
    bench("integrity", "mirror_write_read_page", 200_000, || {
        p = (p + 7) & 1023;
        m.write_pages(&mut ctx, p, &page).expect("write");
        m.read_pages(&mut ctx, p, &mut back).expect("read")
    });
}

/// Host cost of writeback: an msync of `pages` dirty pages, timed alone
/// and reported per page. Three of every four file pages are dirtied, so
/// the msync submits 3-page segments; the odd run start adds
/// single-page ones.
fn bench_writeback(name: &str, mirror: bool) {
    const FILE_PAGES: u64 = 4096;
    const ROUNDS: u32 = 40;
    let mut ctx = FreeCtx::new(1);
    let debts = Arc::new(aquila_sim::CoreDebts::new(1));
    let policy = aquila::MmioPolicy {
        mirror,
        ..aquila::MmioPolicy::default()
    };
    let rt = aquila::AquilaRuntime::build_with_policy(
        &mut ctx,
        aquila::DeviceKind::NvmeSpdk,
        1 << 15,
        1 << 13,
        1,
        debts,
        policy,
    );
    let f = rt.open("/bench-wb", FILE_PAGES).expect("open");
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, FILE_PAGES, aquila::Prot::RW)
        .expect("map");
    let dirty: Vec<u64> = (1..FILE_PAGES).filter(|p| p % 4 != 0).collect();
    let mut elapsed = std::time::Duration::ZERO;
    for round in 0..=ROUNDS {
        for &p in &dirty {
            rt.aquila
                .write(&mut ctx, addr.add(p * 4096 + 64), &[round as u8; 8])
                .expect("write");
        }
        let t0 = Instant::now();
        rt.aquila.msync(&mut ctx, addr, FILE_PAGES).expect("msync");
        // Round 0 is the warm-up (first faults, first device writes).
        if round > 0 {
            elapsed += t0.elapsed();
        }
    }
    let pages = dirty.len() as u64 * ROUNDS as u64;
    println!(
        "writeback/{name:<24} {:>10.1} ns/page ({pages} pages in {ROUNDS} msyncs, {:.3} s)",
        elapsed.as_nanos() as f64 / pages as f64,
        elapsed.as_secs_f64()
    );
}

/// Host cost of one major-fault fill: a 1024-frame cache under an
/// 8192-page file whose every page holds data on the device, read
/// without readahead, so nearly every read fills a frame (and evicts a
/// clean one). Timed alone and reported per major fault.
fn bench_fill(name: &str, kind: aquila::DeviceKind, mirror: bool) {
    const FILE_PAGES: u64 = 8192;
    const READS: u64 = 100_000;
    let mut ctx = FreeCtx::new(1);
    let debts = Arc::new(aquila_sim::CoreDebts::new(1));
    let policy = aquila::MmioPolicy {
        mirror,
        ..aquila::MmioPolicy::default()
    };
    let rt = aquila::AquilaRuntime::build_with_policy(
        &mut ctx,
        kind,
        1 << 15,
        1 << 10,
        1,
        debts,
        policy,
    );
    let f = rt.open("/bench-fill", FILE_PAGES).expect("open");
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, FILE_PAGES, aquila::Prot::RW)
        .expect("map");
    rt.aquila
        .madvise(&mut ctx, addr, FILE_PAGES, aquila::Advice::Random)
        .expect("madvise");
    for p in 0..FILE_PAGES {
        rt.aquila
            .write(&mut ctx, addr.add(p * 4096 + 8), &p.to_le_bytes())
            .expect("write");
    }
    rt.aquila.msync(&mut ctx, addr, FILE_PAGES).expect("msync");
    let mut buf = [0u8; 64];
    let mut p = 0u64;
    let faults = ctx.stats.major_faults;
    let t0 = Instant::now();
    for _ in 0..READS {
        p = (p + 613) % FILE_PAGES;
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut buf)
            .expect("read");
    }
    let elapsed = t0.elapsed();
    let fills = ctx.stats.major_faults - faults;
    println!(
        "fill/{name:<29} {:>10.1} ns/fill ({fills} major faults, {:.3} s)",
        elapsed.as_nanos() as f64 / fills as f64,
        elapsed.as_secs_f64()
    );
}

/// Host cost of the first write to a frame that shares its page with a
/// device store: the frame takes a reference to the stored page (a fill),
/// then an 8-byte write copies the page before writing it.
fn bench_cow() {
    let mem = aquila_mmu::PhysMem::new(Gpa(0), 1);
    let stored = Page::copy_of(&[0x5A; STORE_PAGE]);
    let frame = aquila_mmu::FrameId(0);
    let mut x = 0u64;
    bench("cow", "first_write", 1_000_000, || {
        mem.install(frame, stored.clone());
        x += 1;
        mem.write(frame, 64, &x.to_le_bytes());
    });
}

fn bench_tlb() {
    let fabric = aquila_mmu::TlbFabric::new(32);
    let debts = aquila_sim::CoreDebts::new(32);
    let mut ctx = FreeCtx::new(1).with_core(0, 32);
    let pages: Vec<Vpn> = (0..512).map(Vpn).collect();
    bench("tlb", "shootdown_batch_512_32cores", 20_000, || {
        fabric.shootdown_batch(&mut ctx, &debts, &pages)
    });
    // The remap shape: core 0 holds the batch's 1024 pages (refilled
    // before each round, as the faults after a remap refill them) and
    // the other 31 cores hold 64 pages each in 2 MiB regions of their own.
    let batch: Vec<Vpn> = (0..1024).map(Vpn).collect();
    for core in 1..32u64 {
        fabric.with_local(core as usize, |t| {
            for v in (core * 1024..core * 1024 + 64).map(Vpn) {
                t.insert(v, Gpa(v.0 << 12), PteFlags::RW);
            }
        });
    }
    bench(
        "tlb",
        "shootdown_batch_1024_32cores_disjoint",
        5_000,
        || {
            fabric.with_local(0, |t| {
                for &v in &batch {
                    t.insert(v, Gpa(v.0 << 12), PteFlags::RW);
                }
            });
            fabric.shootdown_batch(&mut ctx, &debts, &batch)
        },
    );
}

fn bench_ycsb() {
    // One record as a benchmark client rebuilds it to check a read.
    let mut n = 0u64;
    bench("ycsb", "record_1k", 1_000_000, || {
        n += 1;
        let key = KeyGen::key_of(n);
        let value = value_of(&key, VALUE_SIZE);
        (key, value)
    });
}

fn main() {
    bench_lockfree_map();
    bench_lockfree_map_churn();
    bench_freelist();
    bench_page_table();
    bench_clock_lru();
    bench_sst();
    bench_fault_path();
    bench_integrity();
    bench_writeback("msync_spdk_nvme", false);
    bench_writeback("msync_mirror", true);
    bench_fill("pmem_dax", aquila::DeviceKind::PmemDax, false);
    bench_fill("spdk_nvme", aquila::DeviceKind::NvmeSpdk, false);
    bench_fill("mirror", aquila::DeviceKind::NvmeSpdk, true);
    bench_cow();
    bench_tlb();
    bench_ycsb();
}
