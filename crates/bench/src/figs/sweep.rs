//! Write-behind sweep (beyond the paper's numbered figures): synchronous
//! eviction on the faulting vcore vs the asynchronous evictor pipeline,
//! swept over NVMe queue depth and watermark placement.
//!
//! Four worker vcores issue random 64-bit stores over an NVMe-backed
//! mapping 8x the DRAM cache, so every round of progress needs eviction
//! with dirty writeback. Under `sync` the faulting worker runs the whole
//! round — detach, shootdown, writeback — inline. Under `async` a
//! dedicated evictor vcore watches the freelist watermarks and retires
//! victims off the fault path; workers just pop clean frames. Either way
//! the writeback goes through a real NVMe queue pair at the configured
//! depth. The figure of merit is the mean fault-path cycles observed by
//! the workers: the cycles an op spends whenever it takes a page fault,
//! which is where the paper says write-behind overlap buys its latency
//! hiding.
//!
//! Parts: `qd` sweeps sync vs async x queue depth {1,2,4,8}; `watermark`
//! sweeps the low/high watermark pair at fixed depth 4; `tlb` compares
//! 4 KiB mappings against transparent 2 MiB promotion on a sequential
//! in-cache scan whose footprint exceeds the 4 KiB dTLB reach (dTLB miss
//! rate and fault-path cycles per touched page); `latency` runs the same
//! store workload under linuxsim, mmio-sync, mmio-async qd4, and
//! mmio-huge, recording every fault-service latency into a cycle-exact
//! histogram and reporting p50/p90/p99/p999.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::micro::{micro_aquila, micro_linux, prepare_micro, run_micro};
use crate::report::{banner, JsonReport};
use crate::{BenchArgs, Dev, Runner};
use aquila::{Advice, AquilaRuntime, DeviceKind, MmioPolicy, Prot, WritePolicy};
use aquila_devices::NvmeDevice;
use aquila_linuxsim::{KernelDevice, LinuxConfig, LinuxMmap};
use aquila_sim::{CoreDebts, Counters, Cycles, Engine, LatencyHist, RunReport, SimCtx, Step};

const WORKERS: usize = 4;
const FILE_PAGES: u64 = 8192;
const CACHE_FRAMES: usize = 1024;

struct Cell {
    label: String,
    mean_fault_cycles: f64,
    faults: u64,
    makespan: Cycles,
    writebacks: u64,
}

/// Runs the random-store workload: four workers (plus any configured
/// evictor cores) issue 64-bit stores over a fresh NVMe-backed stack
/// under `policy`. Every store that faults records its service latency
/// (the cycles the worker lost to it) in that worker's histogram.
fn run_stores(policy: MmioPolicy, ops_per_thread: u64) -> (Vec<LatencyHist>, RunReport) {
    let cores = WORKERS + policy.evictor_cores.len();
    let evictor_cores = policy.evictor_cores.clone();
    let mut engine = Engine::new(cores, 0x5EE9);
    let mut ctx = aquila_sim::FreeCtx::new(0x5EE9);
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::NvmeSpdk,
        FILE_PAGES + 4096,
        CACHE_FRAMES,
        cores,
        engine.debts(),
        policy,
    );
    let f = rt.open("/sweep", FILE_PAGES).expect("open");
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, FILE_PAGES, Prot::RW)
        .expect("mmap");
    rt.aquila
        .madvise(&mut ctx, addr, FILE_PAGES, Advice::Random)
        .expect("madvise");

    let stop = Arc::new(AtomicBool::new(false));
    let live = Arc::new(AtomicUsize::new(WORKERS));
    let hists: Rc<RefCell<Vec<LatencyHist>>> = Rc::new(RefCell::new(
        (0..WORKERS).map(|_| LatencyHist::new()).collect(),
    ));
    let chunk = FILE_PAGES / WORKERS as u64;
    for t in 0..WORKERS {
        let aquila = Arc::clone(&rt.aquila);
        let hists = Rc::clone(&hists);
        let stop = Arc::clone(&stop);
        let live = Arc::clone(&live);
        let lo = t as u64 * chunk;
        let mut done = 0u64;
        engine.spawn(
            t,
            Box::new(move |ctx| {
                // Disjoint per-worker slices: no page is ever hot in two
                // workers, so fault counts do not depend on interleaving.
                let page = lo + ctx.rng().below(chunk);
                let pf0 = ctx.counters().page_faults;
                let t0 = ctx.now();
                aquila
                    .write(ctx, addr.add(page * 4096 + 16), &page.to_le_bytes())
                    .expect("store");
                if ctx.counters().page_faults > pf0 {
                    hists.borrow_mut()[t].record(ctx.now() - t0);
                }
                done += 1;
                if done >= ops_per_thread {
                    if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                        stop.store(true, Ordering::Release);
                    }
                    Step::Done
                } else {
                    Step::Yield
                }
            }),
        );
    }
    for &core in &evictor_cores {
        engine.spawn(
            core,
            rt.aquila.evictor(Arc::clone(&stop), Cycles::from_micros(2)),
        );
    }
    let report = engine.run();
    let hists = hists.take();
    (hists, report)
}

/// Merges per-worker histograms in worker order.
fn merged(hists: &[LatencyHist]) -> LatencyHist {
    let mut all = LatencyHist::new();
    for h in hists {
        all.merge(h);
    }
    all
}

/// Runs one sweep cell of the random-store workload under `policy`.
fn run_cell(label: &str, policy: MmioPolicy, ops_per_thread: u64) -> Cell {
    let (hists, report) = run_stores(policy, ops_per_thread);
    let faults = merged(&hists);
    Cell {
        label: label.to_string(),
        mean_fault_cycles: faults.sum() as f64 / faults.count().max(1) as f64,
        faults: faults.count(),
        makespan: report.makespan,
        writebacks: report.counters.writebacks,
    }
}

fn async_policy(queue_depth: usize, low: usize, high: usize) -> MmioPolicy {
    MmioPolicy {
        low_watermark: low,
        high_watermark: high,
        evictor_cores: vec![WORKERS],
        write_policy: WritePolicy::Async,
        queue_depth,
        ..MmioPolicy::default()
    }
}

fn print_cells(cells: &[Cell], json: &mut JsonReport) {
    println!(
        "{:<16} {:>18} {:>10} {:>14} {:>12}",
        "policy", "fault-path cyc", "faults", "makespan(ms)", "writebacks"
    );
    for c in cells {
        println!(
            "{:<16} {:>18.0} {:>10} {:>14.3} {:>12}",
            c.label,
            c.mean_fault_cycles,
            c.faults,
            c.makespan.as_secs_f64() * 1e3,
            c.writebacks
        );
        json.add_scalar(
            format!("{}/mean_fault_cycles", c.label),
            c.mean_fault_cycles,
        );
        json.add_scalar(
            format!("{}/makespan_ms", c.label),
            c.makespan.as_secs_f64() * 1e3,
        );
        json.add_scalar(format!("{}/faults", c.label), c.faults as f64);
    }
}

fn part_qd(args: &BenchArgs, json: &mut JsonReport) {
    let ops: u64 = if args.has_flag("--full") { 4000 } else { 1500 };
    banner(
        "Write-behind sweep (qd): sync eviction vs async pipeline x NVMe queue depth",
        "expected: both policies cut fault-path cycles once the qpair overlaps writes (qd >= 4)",
    );
    let mut cells = Vec::new();
    for qd in [1usize, 2, 4, 8] {
        cells.push(run_cell(
            &format!("sync-qd{qd}"),
            MmioPolicy {
                queue_depth: qd,
                ..MmioPolicy::default()
            },
            ops,
        ));
        cells.push(run_cell(
            &format!("async-qd{qd}"),
            async_policy(qd, 0, 0),
            ops,
        ));
    }
    print_cells(&cells, json);
    // The baseline is one command at a time with eviction on the
    // faulting vcore.
    let base = cells[0].mean_fault_cycles;
    for c in &cells[1..] {
        let speedup = base / c.mean_fault_cycles;
        println!(
            "  -> {}: {speedup:.2}x lower fault-path cycles than sync-qd1",
            c.label
        );
        json.add_scalar(format!("{}/speedup_over_sync_qd1", c.label), speedup);
    }
}

fn part_watermark(args: &BenchArgs, json: &mut JsonReport) {
    let ops: u64 = if args.has_flag("--full") { 4000 } else { 1500 };
    banner(
        "Write-behind sweep (watermark): async pipeline, qd 4, low/high watermark placement",
        "higher watermarks wake the evictor earlier and refill deeper, trading cache hit rate for stall-free faults",
    );
    let mut cells = Vec::new();
    for (low, high) in [(64usize, 128usize), (128, 256), (256, 512)] {
        cells.push(run_cell(
            &format!("wm{low}-{high}"),
            async_policy(4, low, high),
            ops,
        ));
    }
    print_cells(&cells, json);
}

// ---------------------------------------------------------------------
// Part `tlb`: page-size-aware TLB model, 4 KiB vs transparent 2 MiB.
// ---------------------------------------------------------------------

/// 16 MiB scanned sequentially: larger than the 4 KiB dTLB reach, well
/// inside the 2 MiB sub-TLB reach once promoted.
const TLB_FILE_PAGES: u64 = 4096;
const TLB_CACHE_FRAMES: usize = 8192;
const TLB_PASSES: u64 = 4;

struct TlbCell {
    label: String,
    fault_cycles_per_page: f64,
    faults: u64,
    miss_rate: f64,
    scan_accesses: u64,
    scan_cycles_per_access: f64,
    promoted_runs: usize,
    huge_hits: u64,
}

/// One `tlb` cell: a single vcore touches the file once (cold, fault-path
/// cycles per page), then scans it `TLB_PASSES` times warm with mappings
/// intact (dTLB miss rate).
fn run_tlb_cell(label: &str, policy: MmioPolicy) -> TlbCell {
    let mut ctx = aquila_sim::FreeCtx::new(0x71B);
    let debts = Arc::new(aquila_sim::CoreDebts::new(1));
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::PmemDax,
        TLB_FILE_PAGES + 4096,
        TLB_CACHE_FRAMES,
        1,
        debts,
        policy,
    );
    rt.aquila.thread_enter(&mut ctx);
    let f = rt.open("/tlb", TLB_FILE_PAGES).expect("open");
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, TLB_FILE_PAGES, Prot::RW)
        .expect("mmap");
    rt.aquila
        .madvise(&mut ctx, addr, TLB_FILE_PAGES, Advice::Sequential)
        .expect("madvise");
    // Cold touch: cycles spent on accesses that fault, per touched page.
    // With promotion enabled one fault can map 512 pages, so most pages
    // never fault at all.
    let mut buf = [0u8; 64];
    let mut fault_cycles = 0u64;
    for p in 0..TLB_FILE_PAGES {
        let pf0 = ctx.stats.page_faults;
        let t0 = ctx.now();
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut buf)
            .expect("touch");
        if ctx.stats.page_faults > pf0 {
            fault_cycles += (ctx.now() - t0).get();
        }
    }
    let faults = ctx.stats.page_faults;
    // Warm scan, mappings intact: pure translation behaviour.
    let (h0, m0) = rt.aquila.tlb_stats();
    let t0 = ctx.now();
    for _ in 0..TLB_PASSES {
        for p in 0..TLB_FILE_PAGES {
            rt.aquila
                .read(&mut ctx, addr.add(p * 4096), &mut buf)
                .expect("scan");
        }
    }
    let scan_cycles = (ctx.now() - t0).get();
    let (h1, m1) = rt.aquila.tlb_stats();
    let accesses = (h1 - h0) + (m1 - m0);
    TlbCell {
        label: label.to_string(),
        fault_cycles_per_page: fault_cycles as f64 / TLB_FILE_PAGES as f64,
        faults,
        miss_rate: (m1 - m0) as f64 / accesses.max(1) as f64,
        scan_accesses: accesses,
        scan_cycles_per_access: scan_cycles as f64 / accesses.max(1) as f64,
        promoted_runs: rt.aquila.promoted_runs(),
        huge_hits: rt.aquila.tlb_huge_hits(),
    }
}

fn part_tlb(_args: &BenchArgs, json: &mut JsonReport) {
    banner(
        "TLB sweep: sequential in-cache scan, 4 KiB mappings vs transparent 2 MiB promotion",
        "expected: >=4x lower dTLB miss rate and lower fault-path cycles per page with promotion on",
    );
    let cells = [
        run_tlb_cell("4k", MmioPolicy::default()),
        run_tlb_cell(
            "2m",
            MmioPolicy {
                huge_pages: true,
                ..MmioPolicy::default()
            },
        ),
    ];
    println!(
        "{:<6} {:>16} {:>8} {:>14} {:>14} {:>9} {:>10}",
        "policy", "fault cyc/page", "faults", "dTLB miss", "scan cyc/acc", "promoted", "huge hits"
    );
    for c in &cells {
        println!(
            "{:<6} {:>16.0} {:>8} {:>13.2}% {:>14.0} {:>9} {:>10}",
            c.label,
            c.fault_cycles_per_page,
            c.faults,
            c.miss_rate * 100.0,
            c.scan_cycles_per_access,
            c.promoted_runs,
            c.huge_hits
        );
        json.add_scalar(
            format!("tlb/{}/fault_cycles_per_page", c.label),
            c.fault_cycles_per_page,
        );
        json.add_scalar(format!("tlb/{}/faults", c.label), c.faults as f64);
        json.add_scalar(format!("tlb/{}/dtlb_miss_rate", c.label), c.miss_rate);
        json.add_scalar(
            format!("tlb/{}/scan_cycles_per_access", c.label),
            c.scan_cycles_per_access,
        );
        json.add_scalar(
            format!("tlb/{}/promoted_runs", c.label),
            c.promoted_runs as f64,
        );
        json.add_scalar(format!("tlb/{}/huge_tlb_hits", c.label), c.huge_hits as f64);
    }
    // Floor the promoted miss rate at one miss per scan so a perfect
    // zero-miss run reports a finite, interpretable ratio.
    let floor = 1.0 / cells[1].scan_accesses.max(1) as f64;
    let miss_improvement = cells[0].miss_rate / cells[1].miss_rate.max(floor);
    let fault_reduction = cells[0].fault_cycles_per_page / cells[1].fault_cycles_per_page.max(1e-9);
    println!("  -> dTLB miss rate : {miss_improvement:.1}x lower with 2 MiB promotion");
    println!("  -> fault-path work: {fault_reduction:.1}x fewer cycles per touched page");
    json.add_scalar("tlb/dtlb_miss_improvement", miss_improvement);
    json.add_scalar("tlb/fault_cycle_reduction", fault_reduction);
}

// ---------------------------------------------------------------------
// Part `latency`: cycle-exact fault-service latency distributions.
// ---------------------------------------------------------------------

/// The linuxsim analog: same stores, same footprint, kernel mmap path
/// (inline reclaim, no evictor thread).
fn run_latency_linux(ops_per_thread: u64) -> (LatencyHist, Counters) {
    let mut engine = Engine::new(WORKERS, 0x5EE9);
    let mut ctx = aquila_sim::FreeCtx::new(0x5EE9);
    let kdev = KernelDevice::Nvme(Arc::new(NvmeDevice::optane(FILE_PAGES + 4096)));
    let mut cfg = LinuxConfig::linux(WORKERS, CACHE_FRAMES);
    cfg.readahead_pages = 1; // random access pattern, no window
    let lm = Arc::new(LinuxMmap::new(cfg, kdev, engine.debts()));
    let f = lm.open_file(FILE_PAGES).expect("open");
    let base = lm.mmap(&mut ctx, f, 0, FILE_PAGES, true).expect("mmap");

    let hists: Rc<RefCell<Vec<LatencyHist>>> = Rc::new(RefCell::new(
        (0..WORKERS).map(|_| LatencyHist::new()).collect(),
    ));
    let chunk = FILE_PAGES / WORKERS as u64;
    for t in 0..WORKERS {
        let lm = Arc::clone(&lm);
        let hists = Rc::clone(&hists);
        let lo = t as u64 * chunk;
        let mut done = 0u64;
        engine.spawn(
            t,
            Box::new(move |ctx| {
                let page = lo + ctx.rng().below(chunk);
                let pf0 = ctx.counters().page_faults;
                let t0 = ctx.now();
                lm.write(ctx, ((base + page) << 12) + 16, &page.to_le_bytes())
                    .expect("store");
                if ctx.counters().page_faults > pf0 {
                    hists.borrow_mut()[t].record(ctx.now() - t0);
                }
                done += 1;
                if done >= ops_per_thread {
                    Step::Done
                } else {
                    Step::Yield
                }
            }),
        );
    }
    let report = engine.run();
    let hists = hists.take();
    (merged(&hists), report.counters)
}

fn part_latency(args: &BenchArgs, json: &mut JsonReport) {
    let ops: u64 = if args.has_flag("--full") { 4000 } else { 1500 };
    banner(
        "Fault-service latency: cycle-exact distributions per backend",
        "expected: mmio beats linuxsim at p50 (lean fault path); the eviction tail at p99 is one deep-queue writeback round, inline (sync) or on the evictor (async qd4)",
    );
    let mmio = |policy| {
        let (hists, report) = run_stores(policy, ops);
        (merged(&hists), report.counters)
    };
    let cells: [(&str, (LatencyHist, Counters)); 4] = [
        ("linuxsim", run_latency_linux(ops)),
        ("mmio-sync", mmio(MmioPolicy::default())),
        ("mmio-async-qd4", mmio(async_policy(4, 0, 0))),
        (
            "mmio-huge",
            mmio(MmioPolicy {
                huge_pages: true,
                ..MmioPolicy::default()
            }),
        ),
    ];
    println!(
        "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "config", "faults", "p50", "p90", "p99", "p99.9", "max"
    );
    for (label, (h, counters)) in &cells {
        println!(
            "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            label,
            h.count(),
            h.quantile(0.5).get(),
            h.quantile(0.9).get(),
            h.quantile(0.99).get(),
            h.quantile(0.999).get(),
            h.quantile(1.0).get(),
        );
        json.add_hist(format!("latency/{label}"), h);
        for (q, name) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (0.999, "p999")] {
            json.add_scalar(
                format!("latency/{label}/{name}_cycles"),
                h.quantile(q).get() as f64,
            );
        }
        json.add_scalar(format!("latency/{label}/faults"), h.count() as f64);
        json.add_counters(format!("latency/{label}"), counters);
    }
    let [(_, (linux, _)), (_, (sync, _)), (_, (async_qd4, _)), _] = &cells;
    let p50_speedup = linux.quantile(0.5).get() as f64 / sync.quantile(0.5).get().max(1) as f64;
    let tail_speedup =
        sync.quantile(0.99).get() as f64 / async_qd4.quantile(0.99).get().max(1) as f64;
    println!("  -> mmio-sync p50 is {p50_speedup:.2}x lower than linuxsim");
    println!("  -> async qd4 p99 is {tail_speedup:.2}x lower than sync");
    json.add_scalar("latency/sync_p50_speedup_over_linux", p50_speedup);
    json.add_scalar("latency/async_p99_speedup_over_sync", tail_speedup);
}

// ---------------------------------------------------------------------
// Part `scale`: fault throughput from 1 to 256 vcores (DESIGN.md §17).
// ---------------------------------------------------------------------

/// Vcore counts swept by the `scale` part.
const SCALE_CORES: [usize; 5] = [1, 4, 16, 64, 256];
const SCALE_PAGES: u64 = 8192;
const SCALE_OPS: u64 = 200;

struct ScaleCell {
    cores: usize,
    faults: u64,
    /// Minor-fault throughput in kilo-faults per second of virtual time.
    fault_kops: f64,
    makespan_ms: f64,
}

/// One scaling cell: `cores` vcores take minor faults over disjoint
/// slices of one warm shared file (every access faults; every fault is
/// a cache hit, so the fault path itself is the entire measured cost).
fn run_scale_cell(mmio: bool, cores: usize) -> ScaleCell {
    let cache = SCALE_PAGES as usize * 2 + 512;
    let debts = Arc::new(CoreDebts::new(cores));
    let micro = if mmio {
        // The default engine is the scaled fault path: the spill-free
        // region map, one page-table shard per vcore and batched
        // freelist work-stealing.
        micro_aquila(DeviceKind::PmemDax, cores, cache, 1, SCALE_PAGES, debts)
    } else {
        micro_linux(false, Dev::Pmem, cores, cache, 1, SCALE_PAGES, debts)
    };
    prepare_micro(&micro, true);
    let r = run_micro(Arc::new(micro), cores, SCALE_OPS, true, 0x5CA1E);
    let faults = r.counters.page_faults;
    let secs = r.elapsed.as_secs_f64();
    ScaleCell {
        cores,
        faults,
        fault_kops: if secs > 0.0 {
            faults as f64 / secs / 1e3
        } else {
            0.0
        },
        makespan_ms: r.elapsed.as_secs_f64() * 1e3,
    }
}

fn part_scale(args: &BenchArgs, json: &mut JsonReport) {
    banner(
        "Scale sweep: minor-fault throughput, 1 -> 256 vcores, disjoint regions of one shared file",
        "expected: mmio (spill-free regions + sharded page table) near-linear; linuxsim flatlines on its page-cache tree lock",
    );
    // `--cores=N` restricts the sweep to one vcore count (the
    // determinism suite runs single cells double-run bit-identical).
    let only: Option<usize> = args
        .rest
        .iter()
        .find_map(|a| a.strip_prefix("--cores="))
        .and_then(|v| v.parse().ok());
    let swept: Vec<usize> = SCALE_CORES
        .iter()
        .copied()
        .filter(|&c| only.is_none_or(|o| o == c))
        .collect();
    assert!(!swept.is_empty(), "--cores must name a swept vcore count");
    println!(
        "{:<10} {:>6} {:>10} {:>14} {:>14}",
        "engine", "vcores", "faults", "kfaults/s", "makespan(ms)"
    );
    let mut cells: Vec<(&str, ScaleCell)> = Vec::new();
    for &(label, mmio) in &[("mmio", true), ("linuxsim", false)] {
        for &cores in &swept {
            let c = run_scale_cell(mmio, cores);
            println!(
                "{:<10} {:>6} {:>10} {:>14.1} {:>14.3}",
                label, c.cores, c.faults, c.fault_kops, c.makespan_ms
            );
            json.add_scalar(format!("scale/{label}/c{cores}/faults"), c.faults as f64);
            json.add_scalar(format!("scale/{label}/c{cores}/fault_kops"), c.fault_kops);
            json.add_scalar(format!("scale/{label}/c{cores}/makespan_ms"), c.makespan_ms);
            cells.push((label, c));
        }
    }
    let kops = |eng: &str, n: usize| {
        cells
            .iter()
            .find(|(l, c)| *l == eng && c.cores == n)
            .map(|(_, c)| c.fault_kops)
    };
    if only.is_none() {
        for eng in ["mmio", "linuxsim"] {
            let base = kops(eng, 1).unwrap_or(0.0).max(1e-9);
            let s64 = kops(eng, 64).unwrap_or(0.0) / base;
            let s256 = kops(eng, 256).unwrap_or(0.0) / base;
            println!("  -> {eng}: 64 vcores = {s64:.1}x its 1-vcore throughput, 256 = {s256:.1}x");
            json.add_scalar(format!("scale/{eng}/speedup_64v1"), s64);
            json.add_scalar(format!("scale/{eng}/speedup_256v1"), s256);
        }
    }
}

/// Builds this binary's part registry (dispatched by `cli::main_for`).
pub fn runner() -> Runner<'static> {
    Runner::new(
        "sweep",
        "Sync vs async write-behind across queue depth and watermarks",
    )
    .part("qd", "sync vs async x NVMe queue depth {1,2,4,8}", part_qd)
    .part(
        "watermark",
        "async watermark placement at queue depth 4",
        part_watermark,
    )
    .part(
        "tlb",
        "dTLB miss rate and fault cycles, 4 KiB vs 2 MiB",
        part_tlb,
    )
    .part(
        "latency",
        "fault-service latency distributions: linuxsim vs mmio sync/async/huge",
        part_latency,
    )
    .part(
        "scale",
        "fault throughput 1 -> 256 vcores: mmio near-linear vs linuxsim flatlining",
        part_scale,
    )
    // The multi-tenant QoS experiment also ships as its own `serve`
    // binary (with a `diurnal` part); this alias keeps the serving
    // story reachable from the sweep entry point.
    .part(
        "serve",
        "multi-tenant QoS isolation (alias of the serve binary's qos part)",
        super::serve::part_qos,
    )
    .part(
        "integrity",
        "silent-corruption storm, mirrored + scrubbed (alias of the serve binary's integrity part)",
        super::serve::part_integrity,
    )
}
