//! Figure 8: page-fault overhead breakdowns.
//!
//! (a) Average page-fault cost, Linux vs Aquila, pmem device, dataset in
//!     memory (paper: Linux 5380 cycles with 24% trap / 49% device I/O;
//!     Aquila's trap is 552 vs 1287 cycles, 2.33x lower).
//! (b) Same with evictions in the common path (8 GB cache, 100 GB
//!     dataset; paper: Aquila 2.06x lower, no Aquila component >10%).
//! (c) Device access paths in Aquila: Cache-Hit 2179 cycles; DAX-pmem vs
//!     HOST-pmem = 7.77x; SPDK-NVMe vs HOST-NVMe = 1.53x.
//!
//! `--json <path>` writes the breakdowns as a machine-readable record;
//! `--trace <path>` writes a Chrome trace of the run (Perfetto).
//! `--race` runs the deterministic race detector over the workload.

use std::sync::Arc;

use crate::micro::{micro_aquila_policy, micro_linux, prepare_micro, run_micro};
use crate::report::{banner, print_breakdown_per_op, JsonReport};
use crate::{BenchArgs, Dev, Runner};
use aquila::{DeviceKind, MmioPolicy};
use aquila_sim::CoreDebts;

/// Aquila policy for the run: `--huge` turns on transparent 2 MiB
/// promotion (khugepaged-style, threshold 64 resident pages per run).
fn aquila_policy(args: &BenchArgs) -> MmioPolicy {
    if args.has_flag("--huge") {
        MmioPolicy {
            huge_pages: true,
            ..MmioPolicy::default()
        }
    } else {
        MmioPolicy::default()
    }
}

/// Builds this binary's part registry (dispatched by `cli::main_for`).
pub fn runner() -> Runner<'static> {
    Runner::new("fig8", "Page-fault overhead breakdowns")
        .part(
            "a",
            "fault cost, dataset fits in memory (pmem)",
            |args, r| part_a(&aquila_policy(args), r),
        )
        .part(
            "b",
            "fault cost with evictions in the common path",
            |args, r| part_b(&aquila_policy(args), r),
        )
        .part(
            "c",
            "device access paths (DAX/SPDK vs host kernel)",
            |args, r| part_c(&aquila_policy(args), r),
        )
}

/// Single-threaded fault-cost probe: every access faults (cache warm,
/// mappings dropped), pmem device.
fn fault_cost(
    aquila: Option<&MmioPolicy>,
    warm: bool,
    cache_frames: usize,
    pages: u64,
) -> (f64, aquila_sim::Breakdown, u64) {
    let debts = Arc::new(CoreDebts::new(1));
    let micro = Arc::new(if let Some(policy) = aquila {
        micro_aquila_policy(
            DeviceKind::PmemDax,
            1,
            cache_frames,
            1,
            pages,
            debts,
            policy.clone(),
        )
    } else {
        micro_linux(false, Dev::Pmem, 1, cache_frames, 1, pages, debts)
    });
    prepare_micro(&micro, warm);
    let ops = 4000u64.min(pages / 2);
    let r = run_micro(micro, 1, ops, true, 0xF8);
    let faults = r.counters.page_faults.max(1);
    (r.elapsed.get() as f64 / faults as f64, r.breakdown, faults)
}

fn part_a(policy: &MmioPolicy, report: &mut JsonReport) {
    banner(
        "Figure 8(a): page-fault overhead, dataset fits in memory (pmem)",
        "Linux 5380 cycles total (49% device I/O, 24% trap); Aquila trap 552 vs 1287 (2.33x)",
    );
    // The paper's 8(a) faults fill from the pmem device (no evictions):
    // cold cache sized to hold the whole dataset.
    let (lx, lxb, lxf) = fault_cost(None, false, 16384, 8192);
    let (aq, aqb, aqf) = fault_cost(Some(policy), false, 16384, 8192);
    println!("Linux  mmap  (device fill): {lx:.0} cycles/fault");
    print_breakdown_per_op("  components", &lxb, lxf);
    println!("Aquila mmio  (device fill): {aq:.0} cycles/fault");
    print_breakdown_per_op("  components", &aqb, aqf);
    println!("  -> Aquila/Linux fault cost: {:.2}x lower", lx / aq);
    report.add_breakdown("8a/linux-device-fill", &lxb, lxf);
    report.add_breakdown("8a/aquila-device-fill", &aqb, aqf);
    report.add_scalar("8a/linux_over_aquila", lx / aq);
    // And the pure protection-switch comparison (page already cached).
    let (lxh, _, _) = fault_cost(None, true, 16384, 8192);
    let (aqh, _, _) = fault_cost(Some(policy), true, 16384, 8192);
    println!("Linux  mmap  (cache hit)  : {lxh:.0} cycles/fault");
    println!("Aquila mmio  (cache hit)  : {aqh:.0} cycles/fault (paper: 2179)");
    report.add_scalar("8a/linux_cache_hit_cycles", lxh);
    report.add_scalar("8a/aquila_cache_hit_cycles", aqh);
}

fn part_b(policy: &MmioPolicy, report: &mut JsonReport) {
    banner(
        "Figure 8(b): page-fault overhead with evictions (cache 1/8 of dataset)",
        "Aquila 2.06x lower than Linux mmap; no Aquila component above ~10%",
    );
    // Dataset 8x the cache: every fault is major and eviction runs in the
    // common path.
    let (lx, lxb, lxf) = fault_cost(None, false, 1024, 8192);
    let (aq, aqb, aqf) = fault_cost(Some(policy), false, 1024, 8192);
    println!("Linux  mmap : {lx:.0} cycles/fault");
    print_breakdown_per_op("  components", &lxb, lxf);
    println!("Aquila mmio : {aq:.0} cycles/fault");
    print_breakdown_per_op("  components", &aqb, aqf);
    println!("  -> Aquila/Linux fault cost: {:.2}x lower", lx / aq);
    report.add_breakdown("8b/linux-evicting", &lxb, lxf);
    report.add_breakdown("8b/aquila-evicting", &aqb, aqf);
    report.add_scalar("8b/linux_over_aquila", lx / aq);
}

fn part_c(policy: &MmioPolicy, report: &mut JsonReport) {
    banner(
        "Figure 8(c): Aquila device access paths (cycles per fault)",
        "Cache-Hit 2179; HOST-pmem/DAX-pmem = 7.77x; HOST-NVMe/SPDK-NVMe = 1.53x",
    );
    let mut results: Vec<(&str, f64)> = Vec::new();

    // Cache-Hit: warm cache, pmem (no device I/O on the fault path).
    let (hit, _, _) = fault_cost(Some(policy), true, 16384, 8192);
    results.push(("Cache-Hit", hit));

    // Cold-cache fault cost per access path.
    for (label, kind) in [
        ("DAX-pmem", DeviceKind::PmemDax),
        ("HOST-pmem", DeviceKind::PmemHost),
        ("SPDK-NVMe", DeviceKind::NvmeSpdk),
        ("HOST-NVMe", DeviceKind::NvmeHost),
    ] {
        let debts = Arc::new(CoreDebts::new(1));
        let micro = Arc::new(micro_aquila_policy(
            kind,
            1,
            16384,
            1,
            8192,
            debts,
            policy.clone(),
        ));
        prepare_micro(&micro, false);
        let r = run_micro(micro, 1, 3000, true, 0xF8);
        let faults = r.counters.page_faults.max(1);
        let per = r.elapsed.get() as f64 / faults as f64;
        results.push((label, per));
        report.add_breakdown(format!("8c/{label}"), &r.breakdown, faults);
        report.add_counters(format!("8c/{label}"), &r.counters);
    }

    for (label, cyc) in &results {
        println!("  {label:<12} {cyc:>10.0} cycles/fault");
        report.add_scalar(format!("8c/{label}_cycles_per_fault"), *cyc);
    }
    let get = |l: &str| {
        results
            .iter()
            .find(|(a, _)| *a == l)
            .map(|(_, c)| *c)
            .unwrap_or(1.0)
    };
    let pmem_ratio = get("HOST-pmem") / get("DAX-pmem");
    let nvme_ratio = get("HOST-NVMe") / get("SPDK-NVMe");
    println!("  -> HOST-pmem / DAX-pmem : {pmem_ratio:.2}x   (paper: 7.77x)");
    println!("  -> HOST-NVMe / SPDK-NVMe: {nvme_ratio:.2}x   (paper: 1.53x)");
    report.add_scalar("8c/host_pmem_over_dax", pmem_ratio);
    report.add_scalar("8c/host_nvme_over_spdk", nvme_ratio);
}
