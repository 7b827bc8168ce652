//! Cross-crate integration tests: the full Aquila stack, the baselines,
//! and the applications, exercised together.

#![forbid(unsafe_code)]

use std::sync::Arc;

use aquila::{Advice, AquilaRegion, AquilaRuntime, DeviceKind, Prot};
use aquila_devices::{Blobstore, StorageAccess};
use aquila_graph::{bfs, rmat_edges, CsrGraph, RmatParams, Team};
use aquila_kvstore::{AquilaEnv, DynEnv, Krill, KrillConfig, StoneConfig, StoneDb};
use aquila_sim::{CoreDebts, Cycles, DramRegion, FreeCtx, MemRegion, SimCtx};
use aquila_ycsb::workload::{value_of, KeyGen, OpKind, VALUE_SIZE};
use aquila_ycsb::{run_ops, Distribution, Workload};

fn runtime(kind: DeviceKind, frames: usize, pages: u64) -> (FreeCtx, AquilaRuntime) {
    let mut ctx = FreeCtx::new(0xE2E);
    let debts = Arc::new(CoreDebts::new(1));
    let rt = AquilaRuntime::build(&mut ctx, kind, pages, frames, 1, debts);
    rt.aquila.thread_enter(&mut ctx);
    (ctx, rt)
}

#[test]
fn data_survives_an_aquila_restart() {
    // Write through mmio, sync, tear the engine down, boot a fresh engine
    // over the same device, and read the data back — end-to-end
    // durability through blobstore metadata and the mmio path.
    let mut ctx = FreeCtx::new(1);
    let debts = Arc::new(CoreDebts::new(1));
    let rt = AquilaRuntime::build(&mut ctx, DeviceKind::NvmeSpdk, 32768, 512, 1, debts.clone());
    let f = rt.open("/persist/data", 128).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 128, Prot::RW).unwrap();
    rt.aquila
        .write(&mut ctx, addr.add(12345), b"survives reboot")
        .unwrap();
    rt.aquila.msync(&mut ctx, addr, 128).unwrap();
    rt.store.sync_md(&mut ctx).unwrap();
    let access: Arc<dyn StorageAccess> = Arc::clone(&rt.access);
    drop(rt);

    // "Reboot": reload the blobstore from the same device, new engine.
    let store2 = Arc::new(Blobstore::load(&mut ctx, Arc::clone(&access)).expect("reload"));
    let cfg = aquila::AquilaConfig::builder(1, 512).build();
    let aquila2 = Arc::new(aquila::Aquila::new(cfg, debts));
    let f2 = aquila2
        .files()
        .open_blob(&store2, &access, "/persist/data", 128)
        .unwrap();
    let addr2 = aquila2.mmap(&mut ctx, f2, 0, 128, Prot::RW).unwrap();
    let mut back = [0u8; 15];
    aquila2.read(&mut ctx, addr2.add(12345), &mut back).unwrap();
    assert_eq!(&back, b"survives reboot");
}

#[test]
fn stonedb_over_aquila_serves_verified_ycsb_a() {
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 4096, 1 << 17);
    let env: DynEnv = Arc::new(AquilaEnv::new(
        Arc::clone(&rt.aquila),
        Arc::clone(&rt.store),
        Arc::clone(&rt.access),
    ));
    let db = Arc::new(StoneDb::new(env, StoneConfig::default()));
    let records = 3000u64;
    db.bulk_load(
        &mut ctx,
        (0..records).map(|i| {
            let k = KeyGen::key_of(i);
            let v = value_of(&k, VALUE_SIZE);
            (k, v)
        }),
    );
    let db2 = Arc::clone(&db);
    let mut reads = 0u64;
    let mut hits = 0u64;
    run_ops(
        &mut ctx,
        Workload::A,
        Distribution::Zipfian,
        records,
        2000,
        7,
        |ctx, op| match op.kind {
            OpKind::Read => {
                reads += 1;
                if let Some(v) = db2.get(ctx, &op.key) {
                    assert_eq!(v, value_of(&op.key, VALUE_SIZE));
                    hits += 1;
                }
            }
            _ => db2.put(ctx, &op.key, &value_of(&op.key, VALUE_SIZE)),
        },
    );
    assert!(reads > 800);
    assert_eq!(hits, reads, "every loaded key must be found");
    assert!(ctx.stats.page_faults > 0, "reads go through mmio");
}

#[test]
fn krill_results_identical_across_backends() {
    // The same Krill workload over DRAM and over Aquila mmio must return
    // byte-identical results — only the timing differs.
    let run = |region: Arc<dyn MemRegion>, ctx: &mut FreeCtx| -> Vec<Option<Vec<u8>>> {
        let db = Krill::new(
            region,
            KrillConfig {
                l0_entries: 128,
                max_runs: 2,
                log_frac: 0.6,
            },
        );
        for i in 0..800u64 {
            let k = KeyGen::key_of(i % 500); // Overwrites.
            db.put(ctx, &k, &value_of(&k, 200)).unwrap();
        }
        (0..520u64)
            .map(|i| db.get(ctx, &KeyGen::key_of(i)))
            .collect()
    };

    let mut ctx1 = FreeCtx::new(3);
    let dram: Arc<dyn MemRegion> = Arc::new(DramRegion::new(32 << 20));
    let expect = run(dram, &mut ctx1);

    let (mut ctx2, rt) = runtime(DeviceKind::PmemDax, 1024, 16384);
    let f = rt.open("/krill", 8192).unwrap();
    let region: Arc<dyn MemRegion> =
        Arc::new(AquilaRegion::map(&mut ctx2, Arc::clone(&rt.aquila), f, 8192).unwrap());
    let got = run(region, &mut ctx2);

    assert_eq!(expect, got);
    assert!(ctx2.now() > ctx1.now(), "mmio costs more than DRAM");
    for (i, v) in expect.iter().enumerate() {
        if (i as u64) < 500 {
            assert!(v.is_some(), "key {i} must exist");
        } else {
            assert!(v.is_none(), "key {i} must not exist");
        }
    }
}

#[test]
fn bfs_identical_across_heap_backends() {
    let edges = rmat_edges(12, 16_384, RmatParams::default(), 77);
    let mut results = Vec::new();
    // DRAM heap.
    {
        let region: Arc<dyn MemRegion> = Arc::new(DramRegion::new(16 << 20));
        let mut team = Team::new(4, 1);
        let g = CsrGraph::build(team.ctx(0), region, 4096, &edges);
        team.barrier();
        results.push(bfs(&mut team, &g, 0).visited);
    }
    // Aquila heap.
    {
        let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 512, 16384);
        let f = rt.open("/bfs-heap", 4096).unwrap();
        let region = AquilaRegion::map(&mut ctx, Arc::clone(&rt.aquila), f, 4096).unwrap();
        rt.aquila
            .madvise(&mut ctx, region.base(), 4096, Advice::Random)
            .unwrap();
        let region: Arc<dyn MemRegion> = Arc::new(region);
        let mut team = Team::new(4, 1);
        let g = CsrGraph::build(team.ctx(0), region, 4096, &edges);
        team.barrier();
        results.push(bfs(&mut team, &g, 0).visited);
    }
    assert_eq!(results[0], results[1], "heap backend must not change BFS");
    assert!(results[0] > 1000, "graph is mostly reachable");
}

#[test]
fn runs_are_deterministic() {
    // Same seed -> bit-identical virtual time and counters.
    let run = || {
        let (mut ctx, rt) = runtime(DeviceKind::NvmeSpdk, 256, 8192);
        let f = rt.open("/det", 1024).unwrap();
        let addr = rt.aquila.mmap(&mut ctx, f, 0, 1024, Prot::RW).unwrap();
        for i in 0..500u64 {
            let page = (i * 2654435761) % 1024;
            rt.aquila
                .write(&mut ctx, addr.add(page * 4096), &i.to_le_bytes())
                .unwrap();
        }
        rt.aquila.sync_all(&mut ctx).unwrap();
        (ctx.now(), ctx.stats.page_faults, ctx.stats.writebacks)
    };
    assert_eq!(run(), run());
}

#[test]
fn cache_pressure_full_pipeline() {
    // Cache of 64 frames, file of 1024 pages: constant eviction with
    // writeback, then verify every page's content.
    let (mut ctx, rt) = runtime(DeviceKind::PmemDax, 64, 8192);
    let f = rt.open("/pressure", 1024).unwrap();
    let addr = rt.aquila.mmap(&mut ctx, f, 0, 1024, Prot::RW).unwrap();
    rt.aquila
        .madvise(&mut ctx, addr, 1024, Advice::Random)
        .unwrap();
    for p in 0..1024u64 {
        rt.aquila
            .write(&mut ctx, addr.add(p * 4096 + 7), &p.to_le_bytes())
            .unwrap();
    }
    assert!(ctx.stats.evictions > 500);
    for p in 0..1024u64 {
        let mut b = [0u8; 8];
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096 + 7), &mut b)
            .unwrap();
        assert_eq!(u64::from_le_bytes(b), p, "page {p}");
    }
    // Latency of an access is bounded even under pressure.
    let t0 = ctx.now();
    let mut b = [0u8; 8];
    rt.aquila.read(&mut ctx, addr.add(7), &mut b).unwrap();
    assert!(ctx.now() - t0 < Cycles::from_micros(1000));
}

#[test]
fn dynamic_cache_resize_under_load() {
    let mut ctx = FreeCtx::new(9);
    let debts = Arc::new(CoreDebts::new(1));
    let cfg = aquila::AquilaConfig::builder(1, 64)
        .max_cache_frames(1024)
        .build();
    let aquila = Arc::new(aquila::Aquila::new(cfg, debts));
    // Build storage by hand.
    let rt_ctx = &mut ctx;
    let dev = Arc::new(aquila_devices::PmemDevice::dram_backed(16384));
    let access: Arc<dyn StorageAccess> = Arc::new(aquila_devices::PmemAccess::new(
        dev,
        aquila_devices::Entry::Direct,
    ));
    let store = Arc::new(Blobstore::format(rt_ctx, Arc::clone(&access)).unwrap());
    let f = aquila
        .files()
        .open_blob(&store, &access, "/resize", 2048)
        .unwrap();
    let addr = aquila.mmap(&mut ctx, f, 0, 2048, Prot::RW).unwrap();

    // Measure fault count for a scan with the small cache.
    let mut b = [0u8; 8];
    for p in 0..1024u64 {
        aquila.read(&mut ctx, addr.add(p * 4096), &mut b).unwrap();
    }
    let major_small = ctx.stats.major_faults;
    assert!(ctx.stats.evictions > 0);

    // Grow the cache 16x (one vmcall; the 1 GiB EPT granule mapped at
    // boot already covers the new frames) and rescan twice:
    // the second scan fits and evicts nothing new.
    assert_eq!(aquila.grow_cache(&mut ctx, 960), 960);
    for _ in 0..2 {
        for p in 0..1024u64 {
            aquila.read(&mut ctx, addr.add(p * 4096), &mut b).unwrap();
        }
    }
    let evictions_before_last = ctx.stats.evictions;
    for p in 0..1024u64 {
        aquila.read(&mut ctx, addr.add(p * 4096), &mut b).unwrap();
    }
    assert_eq!(
        ctx.stats.evictions, evictions_before_last,
        "after growth the working set fits"
    );
    assert!(
        ctx.stats.major_faults > major_small,
        "growth happened mid-run"
    );
    assert_eq!(
        ctx.stats.ept_faults, 0,
        "growth inside the boot 1 GiB granule maps no new EPT granule"
    );
}
