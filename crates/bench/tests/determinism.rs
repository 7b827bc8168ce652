//! Determinism regression: the same figure binary run twice must be a
//! bit-identical pure function of its arguments — stdout, the JSON
//! record, and the Chrome trace all byte-for-byte equal. This is the
//! end-to-end guard behind the static lint (`aquila-analysis`) and the
//! runtime race detector (`aquila_sim::race`): if someone reintroduces
//! a seed-randomized map or a wall-clock read on the sim path, one of
//! the artifacts diverges here.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use aquila_bench::json::Json;

fn run_bin(exe: &str, part: &str, tag: &str) -> (Output, Vec<u8>, Vec<u8>) {
    run_bin_with(exe, part, tag, &[])
}

fn run_bin_with(exe: &str, part: &str, tag: &str, extra: &[&str]) -> (Output, Vec<u8>, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("aquila-determinism-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("mkdir");
    let json = dir.join("r.json");
    let trace = dir.join("t.trace.json");
    // Relative artifact paths, run from inside the temp dir: the binary
    // echoes the paths it wrote, and stdout must match across runs.
    let out = Command::new(exe)
        .current_dir(&dir)
        .args([
            part,
            "--race",
            "--json",
            "r.json",
            "--trace",
            "t.trace.json",
        ])
        .args(extra)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{exe} {part} failed (status {:?}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let json_bytes = fs::read(&json).expect("JSON record written");
    let trace_bytes = fs::read(&trace).expect("trace written");
    fs::remove_dir_all(&dir).ok();
    (out, json_bytes, trace_bytes)
}

fn assert_double_run_identical(exe: &str, part: &str, tag: &str) -> String {
    assert_double_run_identical_with(exe, part, tag, &[])
}

fn assert_double_run_identical_with(exe: &str, part: &str, tag: &str, extra: &[&str]) -> String {
    let (out1, json1, trace1) = run_bin_with(exe, part, &format!("{tag}-one"), extra);
    let (out2, json2, trace2) = run_bin_with(exe, part, &format!("{tag}-two"), extra);

    assert_eq!(
        out1.stdout, out2.stdout,
        "stdout diverged between identical runs"
    );
    assert_eq!(json1, json2, "JSON record diverged between identical runs");
    assert_eq!(
        trace1, trace2,
        "Chrome trace diverged between identical runs"
    );

    // The --race summary is part of stdout; make the zero-findings
    // acceptance explicit rather than implied by byte equality.
    let stdout = String::from_utf8_lossy(&out1.stdout).into_owned();
    assert!(
        stdout.contains("race detector: 0 findings"),
        "expected a clean race-detector summary, got:\n{stdout}"
    );
    stdout
}

#[test]
fn fig8_is_bit_identical_across_runs() {
    assert_double_run_identical(env!("CARGO_BIN_EXE_fig8"), "a", "fig8");
}

/// The asynchronous write-behind pipeline — evictor thread, watermark
/// refill, queue-depth-batched NVMe submission — stays a deterministic
/// pure function of its arguments, with the race detector clean.
#[test]
fn sweep_async_pipeline_is_bit_identical_across_runs() {
    let stdout = assert_double_run_identical(env!("CARGO_BIN_EXE_sweep"), "qd", "sweep");
    assert!(
        stdout.contains("async-qd4"),
        "sweep must exercise the async pipeline:\n{stdout}"
    );
}

/// The page-size-aware TLB sweep — transparent 2 MiB promotion, the
/// huge sub-TLB, and the hole-filling collapse path — is a bit-identical
/// pure function of its arguments, with the race detector clean.
#[test]
fn sweep_tlb_part_is_bit_identical_across_runs() {
    let stdout = assert_double_run_identical(env!("CARGO_BIN_EXE_sweep"), "tlb", "tlb");
    assert!(
        stdout.contains("2m"),
        "tlb sweep must run the promoted cell:\n{stdout}"
    );
}

/// Figure 10 with `--huge`: the multi-core promotion/demotion machinery
/// (candidacy scans under the fault lock, batched shootdowns, munmap
/// splintering on every `drop_mappings`) runs race-clean and
/// deterministically.
#[test]
fn fig10_with_huge_pages_is_race_clean_and_deterministic() {
    let stdout = assert_double_run_identical_with(
        env!("CARGO_BIN_EXE_fig10"),
        "fit",
        "fig10-huge",
        &["--huge", "--tiny"],
    );
    assert!(
        stdout.contains("+2M"),
        "fig10 --huge must label the promoted engine:\n{stdout}"
    );
}

/// The latency part — per-fault cycle-exact histograms across linuxsim,
/// mmio-sync, mmio-async qd4, and mmio-huge, plus the engine-side
/// schema-v3 `latency` section and the causal span trace — is a
/// bit-identical pure function of its arguments, race-clean.
#[test]
fn sweep_latency_part_is_bit_identical_across_runs() {
    let stdout = assert_double_run_identical(env!("CARGO_BIN_EXE_sweep"), "latency", "latency");
    for cfg in ["linuxsim", "mmio-sync", "mmio-async-qd4", "mmio-huge"] {
        assert!(
            stdout.contains(cfg),
            "latency sweep must report {cfg}:\n{stdout}"
        );
    }
}

/// The multi-tenant serving experiment — 8 tenants of open-loop
/// Poisson/bursty sessions over a shared cache, tenant-labeled
/// histograms, quota self-reclaim, overage-fair eviction — is a
/// bit-identical pure function of its seed, race-clean, and the
/// `tenants` section carries the QoS verdicts.
#[test]
fn serve_qos_part_is_bit_identical_across_runs() {
    let stdout = assert_double_run_identical(env!("CARGO_BIN_EXE_serve"), "qos", "serve");
    for tag in ["[qos_on]", "[qos_off]", "protected", "zipf-hot"] {
        assert!(stdout.contains(tag), "serve must report {tag}:\n{stdout}");
    }
}

/// The integrity part — a seeded silent-corruption storm over the
/// mirrored backend with the background scrubber thread live — is a
/// bit-identical pure function of its seed, race-clean, and the
/// schema-v5 `integrity` section proves the end-to-end invariant:
/// faults were injected, every corruption was detected and repaired,
/// and no corrupted payload was acked (`undetected == 0`).
#[test]
fn serve_integrity_part_is_bit_identical_and_repairs_everything() {
    let stdout = assert_double_run_identical(env!("CARGO_BIN_EXE_serve"), "integrity", "integrity");
    assert!(
        stdout.contains("faults injected"),
        "integrity part must report its storm:\n{stdout}"
    );
    let (_, json, _) = run_bin(env!("CARGO_BIN_EXE_serve"), "integrity", "integrity-json");
    let json = String::from_utf8_lossy(&json);
    assert!(
        json.contains("\"mirrored\": true"),
        "integrity JSON:\n{json}"
    );
    assert!(
        !json.contains("\"injected\": 0,"),
        "the storm must inject faults:\n{json}"
    );
    assert!(
        json.contains("\"unrepairable\": 0") && json.contains("\"undetected\": 0"),
        "every silent corruption must be caught and repaired:\n{json}"
    );
}

/// Every count is a `Counters` field incremented unconditionally, so a
/// traced run counts exactly what an untraced one does. `serve
/// integrity` exercises the mirror, the scrubber, tenant QoS and the
/// retry loop; its `counters` rows must not move when `--trace` is on.
#[test]
fn serve_integrity_counters_do_not_depend_on_tracing() {
    let counters = |trace: bool| -> String {
        let tag = if trace { "traced" } else { "untraced" };
        let dir =
            std::env::temp_dir().join(format!("aquila-counters-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let mut args = vec!["integrity", "--json", "r.json"];
        if trace {
            args.extend(["--trace", "t.trace.json"]);
        }
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .current_dir(&dir)
            .args(&args)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "serve {args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = fs::read_to_string(dir.join("r.json")).expect("JSON record written");
        fs::remove_dir_all(&dir).ok();
        let doc = Json::parse(&json).expect("record parses");
        doc.get("counters").expect("counters section").render()
    };
    let traced = counters(true);
    assert_eq!(
        traced,
        counters(false),
        "counters differ between traced and untraced runs"
    );
    for field in [
        "scrub_pages",
        "self_reclaim_pages",
        "transient_errors",
        "retry_attempts",
        "deadline_misses",
        "pt_shard_locks",
    ] {
        assert!(
            !traced.contains(&format!("\"{field}\": 0")),
            "{field} never counted, so the comparison shows nothing:\n{traced}"
        );
    }
}

/// `sweep serve` (the alias part) runs the same experiment from the
/// sweep entry point, deterministically.
#[test]
fn sweep_serve_part_is_bit_identical_across_runs() {
    let stdout = assert_double_run_identical(env!("CARGO_BIN_EXE_sweep"), "serve", "sweep-serve");
    assert!(
        stdout.contains("zipf-hot"),
        "sweep serve must run the QoS experiment:\n{stdout}"
    );
}

/// Runs one `sweep scale` cell (a seeded many-vcore fault storm over
/// disjoint regions of one shared file, on the sharded page table) twice
/// and asserts the full determinism contract: bit-identical
/// stdout/JSON/trace and a clean race detector.
fn assert_scale_cell_clean(cores: &str) {
    assert_double_run_identical_with(
        env!("CARGO_BIN_EXE_sweep"),
        "scale",
        &format!("scale-c{cores}"),
        &[&format!("--cores={cores}")],
    );
}

/// 1 vcore: the degenerate storm — the scaled fault path must be
/// race-clean and deterministic even with nothing to contend with.
#[test]
fn scale_storm_1_vcore_is_race_clean_and_bit_identical() {
    assert_scale_cell_clean("1");
}

/// 16 vcores: a mid-size concurrent fault storm across disjoint
/// per-vcore slices, race-clean and double-run bit-identical.
#[test]
fn scale_storm_16_vcores_is_race_clean_and_bit_identical() {
    assert_scale_cell_clean("16");
}

/// 256 vcores: the full-width storm — 256 concurrent faulting vcores,
/// 256 page-table shards, freelist steal batching live — race-clean
/// and bit-identical across runs.
#[test]
fn scale_storm_256_vcores_is_race_clean_and_bit_identical() {
    assert_scale_cell_clean("256");
}

/// Fault-injection property: installing an *empty* fault plan
/// (`--faults ""`) must be bit-identical to not configuring faults at
/// all — same stdout, same JSON record (including the zeroed `faults`
/// section), same trace. The injection hooks cost nothing when the plan
/// has no clauses.
#[test]
fn empty_fault_plan_is_bit_identical_to_unconfigured() {
    let exe = env!("CARGO_BIN_EXE_fig8");
    let (out_base, json_base, trace_base) = run_bin(exe, "a", "nofaults");
    let (out_empty, json_empty, trace_empty) =
        run_bin_with(exe, "a", "emptyfaults", &["--faults", ""]);
    assert_eq!(
        out_base.stdout, out_empty.stdout,
        "stdout diverged with an empty fault plan installed"
    );
    assert_eq!(
        json_base, json_empty,
        "JSON record diverged with an empty fault plan installed"
    );
    assert_eq!(
        trace_base, trace_empty,
        "trace diverged with an empty fault plan installed"
    );
}

/// A non-empty fault plan is still deterministic (double-run identical)
/// and its injections are visible in the JSON record's fault counters.
#[test]
fn injected_faults_are_deterministic_and_reported() {
    let exe = env!("CARGO_BIN_EXE_sweep");
    let spec = "nvme.write:media_error@op=40";
    let run = |tag: &str| run_bin_with(exe, "qd", tag, &["--faults", spec]);
    let (out1, json1, trace1) = run("faults-one");
    let (out2, json2, trace2) = run("faults-two");
    assert_eq!(out1.stdout, out2.stdout, "stdout diverged under faults");
    assert_eq!(json1, json2, "JSON record diverged under faults");
    assert_eq!(trace1, trace2, "trace diverged under faults");
    let json = String::from_utf8_lossy(&json1);
    assert!(
        json.contains("\"injected\": 1"),
        "fault counter missing from the JSON record:\n{json}"
    );
}

#[test]
fn fig8_artifacts_are_nonempty() {
    let (_, json, trace) = run_bin(env!("CARGO_BIN_EXE_fig8"), "a", "nonempty");
    assert!(json.len() > 64, "JSON record suspiciously small");
    assert!(trace.len() > 64, "trace suspiciously small");
    let _ = PathBuf::from(env!("CARGO_BIN_EXE_fig8")); // binary path resolved at compile time
}
