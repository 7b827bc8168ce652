//! Figure 10: scalability of Aquila vs Linux mmap — random reads over a
//! shared file and over a private file per thread, with the dataset
//! fitting in memory (a) and not fitting (b).
//!
//! Paper results: shared file, in-memory — Aquila 1.81x (1 thread) to
//! 8.37x (32 threads) higher throughput; out-of-memory — 2.17x to 12.92x.
//! Private files: 1.82x-1.99x (in-memory), 2.21x-2.84x (out-of-memory).
//! Tail latency collapses for Linux on the shared file (p99 up to 177x).

use std::sync::Arc;

use crate::micro::{micro_aquila_policy, micro_linux, prepare_micro, run_micro, Micro};
use crate::report::{banner, print_rows, JsonReport, Row};
use crate::{BenchArgs, Dev, Runner};
use aquila::{DeviceKind, MmioPolicy};
use aquila_sim::CoreDebts;

struct Scale {
    pages_per_file: u64,
    ops_per_thread: u64,
    threads: Vec<usize>,
}

fn scales(args: &BenchArgs) -> Scale {
    if args.has_flag("--full") {
        Scale {
            pages_per_file: 16384, // 64 MiB per file.
            ops_per_thread: 3000,
            threads: vec![1, 2, 4, 8, 16, 32],
        }
    } else if args.has_flag("--tiny") {
        // CI-sized: enough to exercise promotion (>2 MiB per file) and
        // cross-core shootdowns, small enough for a double run.
        Scale {
            pages_per_file: 1024, // 4 MiB per file.
            ops_per_thread: 300,
            threads: vec![1, 4],
        }
    } else {
        Scale {
            pages_per_file: 4096, // 16 MiB per file.
            ops_per_thread: 1000,
            threads: vec![1, 4, 8, 16, 32],
        }
    }
}

/// Builds this binary's part registry (dispatched by `cli::main_for`).
pub fn runner() -> Runner<'static> {
    // `fit` is (a), `nofit` is (b); the historical `--fit`/`--nofit`
    // flag spellings select the same parts.
    Runner::new(
        "fig10",
        "Microbenchmark scalability, shared vs private files",
    )
    .part("fit", "(a) dataset fits in memory", |args, r| {
        run_case(&scales(args), true, args.has_flag("--huge"), r)
    })
    .part("nofit", "(b) dataset 12x the cache", |args, r| {
        run_case(&scales(args), false, args.has_flag("--huge"), r)
    })
}

fn build(
    aquila: bool,
    fit: bool,
    huge: bool,
    threads: usize,
    sc: &Scale,
    shared: bool,
) -> Arc<Micro> {
    let debts = Arc::new(CoreDebts::new(threads));
    // Private-file mode sizes the dataset with the thread count, as the
    // paper's per-thread files do.
    let nfiles = if shared { 1 } else { threads };
    let total_pages = sc.pages_per_file * nfiles as u64;
    // In-memory: cache holds the whole dataset. Out-of-memory: 1/12.5 of
    // it (the paper's 8 GB cache / 100 GB dataset ratio).
    let cache = if fit {
        (total_pages + total_pages / 8) as usize
    } else {
        (total_pages / 12) as usize
    };
    let policy = if huge {
        MmioPolicy {
            huge_pages: true,
            ..MmioPolicy::default()
        }
    } else {
        MmioPolicy::default()
    };
    Arc::new(if aquila {
        micro_aquila_policy(
            DeviceKind::PmemDax,
            threads,
            cache,
            nfiles,
            sc.pages_per_file,
            debts,
            policy,
        )
    } else {
        micro_linux(
            false,
            Dev::Pmem,
            threads,
            cache,
            nfiles,
            sc.pages_per_file,
            debts,
        )
    })
}

fn run_case(sc: &Scale, fit: bool, huge: bool, json: &mut JsonReport) {
    let case = if fit {
        "(a) dataset fits in memory"
    } else {
        "(b) dataset does not fit (cache = dataset/12)"
    };
    let paper = if fit {
        "shared: aquila 1.81x (1T) -> 8.37x (32T); private: 1.82x -> 1.99x"
    } else {
        "shared: aquila 2.17x (1T) -> 12.92x (32T); private: 2.21x -> 2.84x"
    };
    banner(&format!("Figure 10{case}"), paper);

    for shared in [true, false] {
        println!(
            "--- {} file ---",
            if shared {
                "single shared"
            } else {
                "private per-thread"
            }
        );
        let mut rows = Vec::new();
        let mut ratios = Vec::new();
        for &t in &sc.threads {
            let mut pair = Vec::new();
            for aquila in [false, true] {
                let micro = build(aquila, fit, huge, t, sc, shared);
                prepare_micro(&micro, fit);
                let r = run_micro(
                    Arc::clone(&micro),
                    t,
                    sc.ops_per_thread,
                    shared,
                    0x10 + t as u64,
                );
                let label = format!(
                    "{} {} threads={t}",
                    micro.label,
                    if shared { "shared" } else { "private" }
                );
                let row = Row::from_hist(label, r.ops, r.elapsed, &r.latency);
                json.add_hist(
                    format!("10{}/{}", if fit { "a" } else { "b" }, row.label.clone()),
                    &r.latency,
                );
                pair.push(row.kops);
                rows.push(row);
            }
            ratios.push((t, pair[1] / pair[0]));
        }
        print_rows(&rows);
        json.add_rows(&rows);
        for (t, ratio) in ratios {
            println!("  -> aquila/mmap at {t:>2} threads: {ratio:.2}x");
            json.add_scalar(
                format!(
                    "10{}/{}/threads={t}/aquila_over_mmap",
                    if fit { "a" } else { "b" },
                    if shared { "shared" } else { "private" }
                ),
                ratio,
            );
        }
        println!();
    }
}
