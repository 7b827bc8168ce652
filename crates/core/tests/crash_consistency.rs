//! Crash-consistency property harness for the mmio write path.
//!
//! Each iteration runs a seeded multi-round write/msync workload against
//! an SPDK-NVMe Aquila stack with a deterministic power-cut point
//! (`nvme.write:crash=S@op=K`) injected mid-write-back: the fault plan
//! captures the device image with only a sector-granular prefix of the
//! cut command applied, the live run continues to completion, and a
//! *fresh* Aquila recovers from the captured image. The checker then
//! asserts the paper-facing durability contract (DESIGN.md §11):
//!
//! 1. every page acknowledged by an `msync` that completed before the
//!    cut reads back at least that acknowledged version — acked data is
//!    never lost or rolled back;
//! 2. no page is half-old/half-new beyond sector granularity — every
//!    512-byte sector is entirely one written version (or still zero),
//!    at most two versions appear in a page, they are *consecutive*
//!    writebacks, and the newer one forms a prefix.
//!
//! Cut points sweep both the command index and the torn-sector count,
//! giving well over 100 distinct seeded crash scenarios in one test.

#![forbid(unsafe_code)]

use std::sync::Arc;

use aquila::{AquilaRuntime, DeviceKind, MmioPolicy, Prot, WritePolicy};
use aquila_sim::fault::{DeviceImage, FaultPlan, SECTOR_SIZE};
use aquila_sim::{CoreDebts, FreeCtx, SimCtx};

const FILE_PAGES: u64 = 128;
const PAGE: usize = 4096;
const ROUNDS: u64 = 6;

/// Byte tag a round writes into a page (nonzero so "never written" is
/// distinguishable from every version).
fn tag(round: u64, page: u64) -> u8 {
    1 + ((round * 37 + page * 11) % 250) as u8
}

/// Whether `round` writes `page` (every third page skipped, phase
/// shifting per round, so writeback runs stay short and numerous).
fn writes(round: u64, page: u64) -> bool {
    !(page + round).is_multiple_of(3)
}

struct RunOutcome {
    /// Pages in the workload file (the huge sweep uses a full 2 MiB run).
    file_pages: u64,
    /// Device image captured at the cut, with the cut's virtual time.
    cut: Option<(aquila_sim::Cycles, DeviceImage)>,
    /// Per-page history of tags in writeback order.
    history: Vec<Vec<u8>>,
    /// (completion time, per-page acked history index; -1 = never) for
    /// every msync that returned success.
    acks: Vec<(aquila_sim::Cycles, Vec<i32>)>,
    /// Write commands a mirrored stack issued through deep queue pairs.
    queued_writes: u64,
}

/// Runs the seeded workload with a crash planted at write op `cut_op`
/// tearing `sectors` sectors, and returns what the checker needs.
fn run_workload(seed: u64, cut_op: u64, sectors: usize) -> RunOutcome {
    run_workload_policy(
        seed,
        cut_op,
        sectors,
        FILE_PAGES,
        256,
        MmioPolicy::default(),
        false,
    )
}

/// Policy-parametrized variant: `file_pages`/`cache_frames` size the
/// stack, and `expect_promotion` asserts mid-run that the workload
/// actually collapsed a run to 2 MiB (so the huge sweep can't silently
/// degenerate into the 4 KiB path).
fn run_workload_policy(
    seed: u64,
    cut_op: u64,
    sectors: usize,
    file_pages: u64,
    cache_frames: usize,
    policy: MmioPolicy,
    expect_promotion: bool,
) -> RunOutcome {
    let mut ctx = FreeCtx::new(seed);
    let debts = Arc::new(CoreDebts::new(1));
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::NvmeSpdk,
        65536,
        cache_frames,
        1,
        debts,
        policy,
    );
    rt.aquila.thread_enter(&mut ctx);
    let f = rt.open("/crash/file", file_pages).unwrap();
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, file_pages, Prot::RW)
        .unwrap();
    // Blob metadata must be durable before the fault window opens, or
    // the cut could land inside the superblock write instead of data.
    rt.store.sync_md(&mut ctx).unwrap();

    // The plan attaches after format + metadata sync, so op numbering
    // counts workload writebacks only. Per-device plan, not the global:
    // every iteration gets its own.
    let plan =
        Arc::new(FaultPlan::parse(&format!("nvme.write:crash={sectors}@op={cut_op}")).unwrap());
    rt.access
        .nvme_device()
        .expect("spdk path has an nvme device")
        .set_fault_plan(Arc::clone(&plan));

    if expect_promotion {
        // Clean sequential warm touch: all-clean residency lets the
        // exact threshold crossing (in-run index 63, threshold 64)
        // promote the run, so round 0's first store goes through the
        // clean-leaf write upgrade and the first msync drains a
        // whole-leaf amplified writeback.
        let mut b = [0u8; 8];
        for page in 0..file_pages {
            rt.aquila
                .read(&mut ctx, addr.add(page * PAGE as u64), &mut b)
                .unwrap();
        }
        assert!(
            rt.aquila.promoted_runs() > 0,
            "huge sweep never promoted; the contract check would be vacuous"
        );
    }

    let mut history: Vec<Vec<u8>> = vec![Vec::new(); file_pages as usize];
    let mut acks = Vec::new();
    for round in 0..ROUNDS {
        for page in 0..file_pages {
            if writes(round, page) {
                let buf = vec![tag(round, page); PAGE];
                rt.aquila
                    .write(&mut ctx, addr.add(page * PAGE as u64), &buf)
                    .unwrap();
                history[page as usize].push(tag(round, page));
            }
        }
        if rt.aquila.msync(&mut ctx, addr, file_pages).is_ok() {
            let idx: Vec<i32> = history.iter().map(|h| h.len() as i32 - 1).collect();
            acks.push((ctx.now(), idx));
        }
    }
    RunOutcome {
        file_pages,
        cut: plan.crash_image().map(|c| (c.at, c.image)),
        history,
        acks,
        queued_writes: rt
            .access
            .integrity_counters()
            .map_or(0, |c| c.queued_writes),
    }
}

/// Recovers a fresh stack from `image` (under `policy`, so the huge
/// sweep also exercises recovery with promotion enabled) and checks
/// both contract clauses.
fn check_recovery(outcome: &RunOutcome, label: &str, policy: MmioPolicy) {
    let file_pages = outcome.file_pages;
    let (cut_at, image) = outcome.cut.as_ref().expect("cut point fired");
    // Durability floor: the last ack that completed before the cut.
    let mut floor = vec![-1i32; file_pages as usize];
    for (t, idx) in &outcome.acks {
        if t <= cut_at {
            floor.clone_from_slice(idx);
        }
    }

    let mut ctx = FreeCtx::new(0x4EC0 ^ image.bytes());
    let debts = Arc::new(CoreDebts::new(1));
    let rt = AquilaRuntime::recover_from_image(&mut ctx, image, 1024, 1, debts, policy)
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    rt.aquila.thread_enter(&mut ctx);
    let f = rt.open("/crash/file", file_pages).unwrap();
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, file_pages, Prot::RW)
        .unwrap();

    for (page, &page_floor) in floor.iter().enumerate() {
        let mut back = vec![0u8; PAGE];
        rt.aquila
            .read(&mut ctx, addr.add((page * PAGE) as u64), &mut back)
            .unwrap();
        let hist = &outcome.history[page];
        // Map each sector to a version index (-1 = still zero).
        let mut sector_versions = Vec::with_capacity(PAGE / SECTOR_SIZE);
        for (s, sector) in back.chunks_exact(SECTOR_SIZE).enumerate() {
            let t = sector[0];
            assert!(
                sector.iter().all(|&b| b == t),
                "{label}: page {page} sector {s} torn within a sector"
            );
            let version = if t == 0 {
                -1
            } else {
                hist.iter().position(|&h| h == t).unwrap_or_else(|| {
                    panic!("{label}: page {page} sector {s} holds unknown tag {t}")
                }) as i32
            };
            assert!(
                version >= page_floor,
                "{label}: page {page} sector {s} rolled back below the \
                 msync-acknowledged version ({version} < {page_floor})"
            );
            sector_versions.push(version);
        }
        // Sector-granular tearing only: at most two versions, adjacent
        // in writeback order, newer sectors strictly first.
        let hi = *sector_versions.iter().max().unwrap();
        let lo = *sector_versions.iter().min().unwrap();
        assert!(
            hi - lo <= 1,
            "{label}: page {page} mixes non-consecutive versions {lo} and {hi}"
        );
        if hi != lo {
            let first_lo = sector_versions.iter().position(|&v| v == lo).unwrap();
            assert!(
                sector_versions[first_lo..].iter().all(|&v| v == lo),
                "{label}: page {page} newer data is not a clean sector prefix: {sector_versions:?}"
            );
        }
    }
}

#[test]
fn acknowledged_data_survives_over_100_seeded_power_cuts() {
    let mut fired = 0u32;
    for k in 1..=110u64 {
        let sectors = (k % 9) as usize; // 0..=8 torn sectors, page = 8.
        let outcome = run_workload(0x5EED_0000 + k, k, sectors);
        if outcome.cut.is_none() {
            continue; // Cut op beyond the run's write count.
        }
        fired += 1;
        check_recovery(
            &outcome,
            &format!("cut_op={k} sectors={sectors}"),
            MmioPolicy::default(),
        );
    }
    assert!(
        fired >= 100,
        "only {fired} cut points fired; the sweep must cover at least 100"
    );
}

/// Power cuts landing inside writebacks of a *promoted* 2 MiB run obey
/// the same durability contract. Promotion changes the writeback shape —
/// a clean-run write upgrade dirties the whole leaf, so an msync can
/// rewrite pages the workload never touched that round — but every
/// amplified rewrite carries the page's current (already-consistent)
/// bytes, so the checker's clauses must hold unchanged: acked versions
/// never roll back, tearing stays sector-granular, and at most two
/// *consecutive* versions coexist with the newer one a clean prefix.
/// Recovery itself also runs with `huge_pages` on, so the post-crash
/// read scan re-promotes (hole-filling from the cut image) while the
/// contract is being checked.
#[test]
fn promoted_runs_keep_the_durability_contract_across_power_cuts() {
    let policy = MmioPolicy {
        huge_pages: true,
        ..MmioPolicy::default()
    };
    let mut fired = 0u32;
    for k in 0..40u64 {
        // Stride across the (dirty-amplified, much longer) writeback
        // stream so cuts land before, inside, and after the first
        // whole-leaf msync.
        let cut_op = 1 + k * 21;
        let sectors = (k % 9) as usize;
        let outcome = run_workload_policy(
            0x2417_0000 + k,
            cut_op,
            sectors,
            512, // exactly one 2 MiB run
            1024,
            policy.clone(),
            true,
        );
        if outcome.cut.is_none() {
            continue;
        }
        fired += 1;
        check_recovery(
            &outcome,
            &format!("huge cut_op={cut_op} sectors={sectors}"),
            policy.clone(),
        );
    }
    assert!(
        fired >= 30,
        "only {fired} huge cut points fired; the sweep must cover at least 30"
    );
}

/// Power cuts on the primary of a mirrored write-behind stack land
/// inside deep-queue batches that interleave primary and replica
/// commands. Recovery from the primary's image alone must keep the same
/// contract: every msync-acked version survives, and tearing stays
/// sector-granular with only the cut command torn.
#[test]
fn mirrored_async_batches_keep_the_durability_contract_across_power_cuts() {
    let policy = MmioPolicy {
        mirror: true,
        write_policy: WritePolicy::Async,
        queue_depth: 8,
        ..MmioPolicy::default()
    };
    let mut fired = 0u32;
    for k in 0..30u64 {
        // Each msync round submits ~40 segments per copy; a stride of 7
        // lands cuts at many positions within and across batches.
        let cut_op = 1 + k * 7;
        let sectors = (k % 9) as usize;
        let outcome = run_workload_policy(
            0x3A1A_0000 + k,
            cut_op,
            sectors,
            FILE_PAGES,
            256,
            policy.clone(),
            false,
        );
        assert!(
            outcome.queued_writes > 0,
            "mirrored writeback never used the deep queues; the sweep would be vacuous"
        );
        if outcome.cut.is_none() {
            continue;
        }
        fired += 1;
        check_recovery(
            &outcome,
            &format!("mirror cut_op={cut_op} sectors={sectors}"),
            MmioPolicy::default(),
        );
    }
    assert!(
        fired >= 25,
        "only {fired} mirrored cut points fired; the sweep must cover at least 25"
    );
}

#[test]
fn cut_before_any_writeback_recovers_empty_file() {
    // A crash during the very first workload writeback with zero torn
    // sectors: the image holds only durable metadata; every data page
    // must still read zero after recovery.
    let outcome = run_workload(0xBEEF, 1, 0);
    let (_, image) = outcome.cut.as_ref().unwrap();
    let mut ctx = FreeCtx::new(3);
    let debts = Arc::new(CoreDebts::new(1));
    let rt =
        AquilaRuntime::recover_from_image(&mut ctx, image, 64, 1, debts, MmioPolicy::default())
            .unwrap();
    rt.aquila.thread_enter(&mut ctx);
    let f = rt.open("/crash/file", FILE_PAGES).unwrap();
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, FILE_PAGES, Prot::RW)
        .unwrap();
    let mut b = vec![0u8; PAGE];
    for page in 0..FILE_PAGES {
        rt.aquila
            .read(&mut ctx, addr.add(page * PAGE as u64), &mut b)
            .unwrap();
        assert!(b.iter().all(|&x| x == 0), "page {page} not zero");
    }
}
