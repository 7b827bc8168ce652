//! End-to-end checks for the `aquila-prof` analysis layer.
//!
//! The load-bearing test here is the cross-check: a real engine run with
//! the global tracer and metrics registry installed, whose exported
//! Chrome trace is folded back into per-stage cycles. Closing a span is
//! the only way a window is timed, and it records both the trace end
//! event and the `<name>.cycles` histogram sample, so for every span
//! name the completed spans and the histogram agree *exactly*, in count
//! and in summed cycles; and the folded total under the `aquila.fault`
//! root equals the `aquila.fault.cycles` sum, because same-thread
//! children telescope.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::process::Command;
use std::sync::Arc;

use aquila::{Advice, AquilaRuntime, DeviceKind, MmioPolicy, Prot};
use aquila_bench::json::Json;
use aquila_bench::{prof, SCHEMA_VERSION};
use aquila_sim::{CoreDebts, FreeCtx};

/// Drives a small single-core fault-heavy workload with the process
/// globals installed, then folds the trace and cross-checks it against
/// the histograms. Kept as ONE test because the tracer and registry are
/// process-global: a second engine run in this binary would append to
/// the same ring.
#[test]
fn folded_fault_totals_match_engine_histogram() {
    aquila_sim::trace::install(aquila_sim::trace::DEFAULT_CAPACITY);
    aquila_sim::metrics::install(4);

    // Two 2 MiB runs. The first promotes after 64 resident pages (the
    // one slab run); the second cannot, so its faults go through direct
    // reclaim.
    const PAGES: u64 = 1024;
    let mut ctx = FreeCtx::new(0xF0FA);
    let debts = Arc::new(CoreDebts::new(1));
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::PmemDax,
        PAGES + 4096,
        256, // fewer frames than pages: direct-reclaim spans nest inside faults
        1,
        debts,
        MmioPolicy {
            huge_pages: true,
            ..MmioPolicy::default()
        },
    );
    rt.aquila.thread_enter(&mut ctx);
    let f = rt.open("/prof", PAGES).expect("open");
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, PAGES, Prot::RW)
        .expect("mmap");
    rt.aquila
        .madvise(&mut ctx, addr, PAGES, Advice::Random)
        .expect("madvise");
    let mut buf = [0u8; 64];
    for p in 0..PAGES {
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut buf)
            .expect("touch");
    }

    let tracer = aquila_sim::trace::global().expect("installed");
    assert_eq!(tracer.dropped(), 0, "ring must not overflow for this check");
    let doc = Json::parse(&tracer.export_chrome()).expect("export parses");
    let spans = prof::parse_trace(&doc).expect("spans parse");
    assert!(
        spans.iter().all(|s| s.end_cycles.is_some()),
        "every span closed by the end of the run"
    );
    let profile = prof::fold(&spans);
    let snap = aquila_sim::metrics::global().expect("installed").snapshot();

    // One primitive: every span name's completed spans are exactly its
    // histogram's samples, and every histogram is some span's.
    for stage in &profile.stages {
        let name = format!("{}.cycles", stage.name);
        let hist = snap
            .hist(&name)
            .unwrap_or_else(|| panic!("no histogram {name}"));
        assert_eq!(hist.count(), stage.count, "{name}: sample count");
        assert_eq!(
            hist.sum(),
            stage.total_cycles as u128,
            "{name}: summed cycles"
        );
    }
    let hists: BTreeSet<&str> = snap.hists().iter().map(|(n, _)| n.as_str()).collect();
    let stage_hists: Vec<String> = profile
        .stages
        .iter()
        .map(|s| format!("{}.cycles", s.name))
        .collect();
    assert_eq!(
        hists,
        stage_hists.iter().map(String::as_str).collect(),
        "every histogram is a span's"
    );

    let hist = snap.hist("aquila.fault.cycles").expect("fault histogram");
    assert!(
        hist.count() >= PAGES / 2,
        "the unpromoted run faults page by page"
    );
    assert_eq!(
        profile.rooted_total("aquila.fault") as u128,
        hist.sum(),
        "folded fault-subtree cycles must equal the engine histogram sum"
    );
    // The folded view actually attributes work to children, not just the
    // root: device reads happen inside faults, and so does the promotion.
    assert!(
        profile
            .folded
            .iter()
            .any(|(stack, c)| stack.starts_with("aquila.fault;") && *c > 0),
        "fault root must have attributed children"
    );
    assert!(
        profile
            .folded
            .iter()
            .any(|(stack, _)| stack.split(';').any(|s| s == "aquila.huge.promote")),
        "the promotion reaches the folded profile"
    );
}

fn prof_bin() -> &'static str {
    env!("CARGO_BIN_EXE_aquila-prof")
}

fn write_report(dir: &std::path::Path, name: &str, p99: u64) -> std::path::PathBuf {
    let j = Json::obj()
        .with("schema_version", Json::U64(SCHEMA_VERSION))
        .with(
            "scalars",
            Json::obj().with("latency/mmio-sync/p50_cycles", Json::U64(33792)),
        )
        .with(
            "latency",
            Json::Arr(vec![Json::obj()
                .with("name", Json::from("aquila.fault.cycles"))
                .with("count", Json::U64(1000))
                .with("p50_cycles", Json::U64(30000))
                .with("p99_cycles", Json::U64(p99))
                .with("p999_cycles", Json::U64(p99 + 1000))]),
        );
    let path = dir.join(name);
    std::fs::write(&path, j.render()).expect("write report");
    path
}

#[test]
fn baseline_check_fails_on_inflated_p99() {
    let dir = std::env::temp_dir().join(format!("aquila-prof-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let golden = write_report(&dir, "golden.json", 200_000);
    let inflated = write_report(&dir, "inflated.json", 300_000);

    // Inflated current vs golden baseline: regression, exit 4.
    let out = Command::new(prof_bin())
        .args(["check", inflated.to_str().unwrap(), "--baseline"])
        .arg(&golden)
        .output()
        .expect("run aquila-prof");
    assert_eq!(
        out.status.code(),
        Some(4),
        "inflated p99 must fail the check"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSION"));

    // A report within tolerance of itself passes.
    let out = Command::new(prof_bin())
        .args(["check", golden.to_str().unwrap(), "--baseline"])
        .arg(&golden)
        .output()
        .expect("run aquila-prof");
    assert_eq!(out.status.code(), Some(0), "self-comparison must pass");

    // `get` resolves scalars through the shared helper and enforces bounds.
    let out = Command::new(prof_bin())
        .args([
            "get",
            golden.to_str().unwrap(),
            "latency/mmio-sync/p50_cycles",
            "--ge",
            "1",
        ])
        .output()
        .expect("run aquila-prof");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "33792");
    let out = Command::new(prof_bin())
        .args([
            "get",
            golden.to_str().unwrap(),
            "latency/mmio-sync/p50_cycles",
            "--le",
            "1",
        ])
        .output()
        .expect("run aquila-prof");
    assert_eq!(out.status.code(), Some(1), "violated bound exits 1");

    std::fs::remove_dir_all(&dir).ok();
}
