#!/usr/bin/env bash
# Full verification: build, tests, lints, and an observability smoke run.
#
# Usage: scripts/verify.sh
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "cargo build --release"
cargo build --release

step "cargo fmt --check"
cargo fmt --check

step "cargo test -q (tier-1)"
cargo test -q

step "cargo test --workspace -q"
cargo test --workspace -q

step "benchmark smoke test (toy sizes, two seeds, bit-identical)"
# The benchmark is a cargo workspace of its own that builds the stack
# from source, so a stack change that breaks its correctness checks
# (read-back values, per-vcore cycle attribution, traced == untraced)
# fails here rather than only when the benchmark is next run. `--locked`
# fails the step where a dependency change would otherwise rewrite
# examples/benchmark/Cargo.lock unnoticed.
cargo test --locked --manifest-path examples/benchmark/Cargo.toml

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc --no-deps --workspace (warnings are errors)"
# A doc link to a renamed or deleted item is a rustdoc warning; failing
# on it keeps the crate docs from pointing at code that is gone.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# Scalar extraction goes through the shared bench::json parser via
# `aquila-prof get` (one code path for every report consumer). The lint
# step below is its first user, so it is built here, with the figure
# binaries the freshness step runs.
prof=target/release/aquila-prof
cargo build --release -q -p aquila-bench --bins

step "static analysis (aquila-analysis lint --strict, AQ001-AQ010)"
cargo run --release -q -p aquila-analysis -- lint --strict \
    --json "$tmp/lint.json" --sarif "$tmp/lint.sarif"
"$prof" get "$tmp/lint.json" "findings/visible" --le 0 > /dev/null ||
    { echo "FAIL: lint JSON reports unsuppressed findings" >&2; exit 1; }
"$prof" get "$tmp/lint.json" "allowlist/stale" --le 0 > /dev/null ||
    { echo "FAIL: lint JSON reports stale allowlist entries" >&2; exit 1; }
"$prof" get "$tmp/lint.json" "graph/functions" --ge 1000 > /dev/null ||
    { echo "FAIL: symbol graph saw suspiciously few functions" >&2; exit 1; }
grep -q '"version": "2.1.0"' "$tmp/lint.sarif" ||
    { echo "FAIL: SARIF log missing version marker" >&2; exit 1; }

step "interprocedural checker fixtures (seeded AQ008/AQ009/AQ010 bugs)"
scripts/lint-fixtures.sh

step "results freshness (committed results/*.txt match what the binaries print)"
# Every committed results file must be what the current binary prints,
# so a change that moves a figure has to regenerate it in the same
# commit.
fresh() {
    local file="$1" bin="$2"
    shift 2
    "target/release/$bin" "$@" > "$tmp/$file"
    diff -u "results/$file" "$tmp/$file" ||
        { echo "FAIL: results/$file is stale (regenerate: $bin $*)" >&2; exit 1; }
}
for fig in fig5 fig7 fig8 fig9 table1; do
    fresh "$fig.txt" "$fig"
done
fresh fig6a.txt fig6 small
fresh fig6b.txt fig6 large
fresh sweep_latency.txt sweep latency
fresh serve_qos.txt serve qos diurnal
fresh serve_integrity.txt serve integrity --race
fresh fig10.txt fig10
fresh fig10_huge.txt fig10 fit --huge
fresh sweep_scale.txt sweep scale

step "fig8 smoke run with --json/--trace"
cargo run --release -q -p aquila-bench --bin fig8 -- c \
    --json "$tmp/r.json" --trace "$tmp/t.json" > "$tmp/stdout.txt"

grep -q '"schema_version": 8' "$tmp/r.json" ||
    { echo "FAIL: JSON record missing schema_version 8" >&2; exit 1; }
# Events are counted in the `counters` rows; the registry holds only
# latency histograms, so the record carries no `metrics` section.
if grep -q '"metrics"' "$tmp/r.json"; then
    echo "FAIL: JSON record still carries a metrics section" >&2; exit 1
fi
grep -q '"faults"' "$tmp/r.json" ||
    { echo "FAIL: JSON record missing faults section" >&2; exit 1; }
grep -q '"latency"' "$tmp/r.json" ||
    { echo "FAIL: JSON record missing latency section" >&2; exit 1; }
grep -q '"traceEvents"' "$tmp/t.json" ||
    { echo "FAIL: trace file missing traceEvents" >&2; exit 1; }
grep -q 'aquila.fault' "$tmp/t.json" ||
    { echo "FAIL: trace has no fault-handler spans" >&2; exit 1; }
grep -q '"ph":"b"' "$tmp/t.json" ||
    { echo "FAIL: trace has no causal span begin events" >&2; exit 1; }

step "race-detector smoke run (fig8 a --race, twice, bit-identical)"
cargo run --release -q -p aquila-bench --bin fig8 -- a --race > "$tmp/race1.txt"
cargo run --release -q -p aquila-bench --bin fig8 -- a --race > "$tmp/race2.txt"
diff "$tmp/race1.txt" "$tmp/race2.txt" ||
    { echo "FAIL: race-detector runs are not bit-identical" >&2; exit 1; }
grep -q 'race detector: 0 findings' "$tmp/race1.txt" ||
    { echo "FAIL: race detector reported findings" >&2; exit 1; }

step "write-behind sweep smoke run (sweep qd --race --json, speedups at qd4)"
# The async double-run bit-identity check lives in
# crates/bench/tests/determinism.rs (sweep_async_pipeline_is_bit_identical_
# across_runs) and already ran under `cargo test --workspace` above; this
# step asserts the performance claim itself from the JSON record.
cargo run --release -q -p aquila-bench --bin sweep -- qd --race \
    --json "$tmp/sweep.json" > "$tmp/sweep.txt"
grep -q 'race detector: 0 findings' "$tmp/sweep.txt" ||
    { echo "FAIL: race detector reported findings in sweep" >&2; exit 1; }
"$prof" get "$tmp/sweep.json" "async-qd4/speedup_over_sync_qd1" --ge 1.0 > /dev/null ||
    { echo "FAIL: async write-behind at qd4 is not faster than one-command-at-a-time sync" >&2; exit 1; }
"$prof" get "$tmp/sweep.json" "sync-qd4/speedup_over_sync_qd1" --ge 1.5 > /dev/null ||
    { echo "FAIL: inline (sync) writeback at qd4 does not overlap device commands" >&2; exit 1; }

step "fault-injection sweep smoke run (sweep qd --faults --race, twice, bit-identical)"
fault_spec='nvme.write:media_error@op=40'
cargo run --release -q -p aquila-bench --bin sweep -- qd --race \
    --faults "$fault_spec" --json "$tmp/f1.json" > "$tmp/fault1.txt"
cargo run --release -q -p aquila-bench --bin sweep -- qd --race \
    --faults "$fault_spec" --json "$tmp/f2.json" > "$tmp/fault2.txt"
# The runs write to distinct JSON paths and stdout echoes the path it
# wrote, so strip that one line before comparing.
diff <(grep -v 'wrote JSON record' "$tmp/fault1.txt") \
     <(grep -v 'wrote JSON record' "$tmp/fault2.txt") &&
    diff "$tmp/f1.json" "$tmp/f2.json" ||
    { echo "FAIL: fault-injected runs are not bit-identical" >&2; exit 1; }
grep -q 'race detector: 0 findings' "$tmp/fault1.txt" ||
    { echo "FAIL: race detector reported findings under fault injection" >&2; exit 1; }
grep -q '"injected": 1' "$tmp/f1.json" ||
    { echo "FAIL: fault counter missing from fault-injected JSON record" >&2; exit 1; }

step "tlb sweep smoke run (sweep tlb --race --json, 2 MiB dTLB-miss win)"
# Bit-identity of the double run lives in determinism.rs
# (sweep_tlb_part_is_bit_identical_across_runs); this step asserts the
# headline huge-page claims from the JSON record: >= 4x fewer warm-scan
# dTLB misses and a measurable cold fault-path cycle reduction.
cargo run --release -q -p aquila-bench --bin sweep -- tlb --race \
    --json "$tmp/tlb.json" > "$tmp/tlb.txt"
grep -q 'race detector: 0 findings' "$tmp/tlb.txt" ||
    { echo "FAIL: race detector reported findings in tlb sweep" >&2; exit 1; }
"$prof" get "$tmp/tlb.json" "tlb/dtlb_miss_improvement" --ge 4.0 > /dev/null ||
    { echo "FAIL: 2 MiB promotion does not cut dTLB misses >= 4x" >&2; exit 1; }
"$prof" get "$tmp/tlb.json" "tlb/fault_cycle_reduction" --ge 1.0 > /dev/null ||
    { echo "FAIL: promotion does not reduce fault-path cycles" >&2; exit 1; }

step "latency sweep (sweep latency --race, twice, bit-identical JSON)"
cargo run --release -q -p aquila-bench --bin sweep -- latency --race \
    --json "$tmp/lat1.json" > "$tmp/lat1.txt"
cargo run --release -q -p aquila-bench --bin sweep -- latency --race \
    --json "$tmp/lat2.json" > "$tmp/lat2.txt"
diff "$tmp/lat1.json" "$tmp/lat2.json" ||
    { echo "FAIL: latency sweep JSON not bit-identical across runs" >&2; exit 1; }
grep -q 'race detector: 0 findings' "$tmp/lat1.txt" ||
    { echo "FAIL: race detector reported findings in latency sweep" >&2; exit 1; }
for cfg in linuxsim mmio-sync mmio-async-qd4 mmio-huge; do
    "$prof" get "$tmp/lat1.json" "latency/$cfg/p99_cycles" --ge 1 > /dev/null ||
        { echo "FAIL: latency sweep missing p99 for $cfg" >&2; exit 1; }
done
"$prof" get "$tmp/lat1.json" "latency/sync_p50_speedup_over_linux" --ge 1.0 > /dev/null ||
    { echo "FAIL: mmio p50 fault latency not below linuxsim" >&2; exit 1; }

step "serve smoke run (serve qos --race --json, per-tenant SLO isolation)"
# Bit-identity of the double run lives in determinism.rs
# (serve_qos_part_is_bit_identical_across_runs); this step asserts the
# QoS claim itself: the protected tenant's p99 holds inside its declared
# SLO (48 K cycles = 20 us) with tenant QoS on, and the same seed with
# QoS off lets the zipf-hot neighbor blow it. QoS is quota self-reclaim:
# the zipf-hot tenant ends the run at most one 8-frame self-reclaim
# batch over its 256-frame quota.
cargo run --release -q -p aquila-bench --bin serve -- qos --race \
    --json "$tmp/serve.json" > "$tmp/serve.txt"
grep -q 'race detector: 0 findings' "$tmp/serve.txt" ||
    { echo "FAIL: race detector reported findings in serve" >&2; exit 1; }
grep -q '"tenants"' "$tmp/serve.json" ||
    { echo "FAIL: serve record missing its per-tenant tenants section" >&2; exit 1; }
"$prof" get "$tmp/serve.json" "serve/qos_on/protected_p99_cycles" --le 48000 > /dev/null ||
    { echo "FAIL: protected tenant p99 over SLO with QoS on" >&2; exit 1; }
"$prof" get "$tmp/serve.json" "serve/qos_on/protected_slo_met" --ge 1 > /dev/null ||
    { echo "FAIL: protected tenant SLO verdict not met with QoS on" >&2; exit 1; }
"$prof" get "$tmp/serve.json" "serve/qos_off/protected_slo_met" --le 0 > /dev/null ||
    { echo "FAIL: QoS off unexpectedly held the protected SLO (experiment lost its teeth)" >&2; exit 1; }
"$prof" get "$tmp/serve.json" "serve/qos_on/noisy_resident_frames" --le 264 > /dev/null ||
    { echo "FAIL: quota self-reclaim let the zipf-hot tenant run over quota + one batch" >&2; exit 1; }

step "integrity smoke run (serve integrity --race --json, zero undetected corruptions)"
# Bit-identity of the double run lives in determinism.rs
# (serve_integrity_part_is_bit_identical_and_repairs_everything); this
# step asserts the end-to-end integrity claim from the schema-v5
# `integrity` section: the storm injected silent faults, sector
# checksums caught every one, the mirror repaired them all, and no
# corrupted payload was acked — while the protected tenant's SLO held.
cargo run --release -q -p aquila-bench --bin serve -- integrity --race \
    --json "$tmp/integrity.json" > "$tmp/integrity.txt"
grep -q 'race detector: 0 findings' "$tmp/integrity.txt" ||
    { echo "FAIL: race detector reported findings in serve integrity" >&2; exit 1; }
"$prof" get "$tmp/integrity.json" "integrity/injected" --ge 1 > /dev/null ||
    { echo "FAIL: integrity storm injected no faults" >&2; exit 1; }
"$prof" get "$tmp/integrity.json" "integrity/detected" --ge 1 > /dev/null ||
    { echo "FAIL: no silent fault reached the checksum fallback under the storm" >&2; exit 1; }
"$prof" get "$tmp/integrity.json" "integrity/repaired" --ge 1 > /dev/null ||
    { echo "FAIL: mirrored read-repair never fired under the storm" >&2; exit 1; }
"$prof" get "$tmp/integrity.json" "integrity/unrepairable" --le 0 > /dev/null ||
    { echo "FAIL: storm produced unrepairable corruption (replica should cover it)" >&2; exit 1; }
"$prof" get "$tmp/integrity.json" "integrity/undetected" --le 0 > /dev/null ||
    { echo "FAIL: corrupted payload acked to a session (checksums missed it)" >&2; exit 1; }
"$prof" get "$tmp/integrity.json" "integrity/queued_writes" --ge 1 > /dev/null ||
    { echo "FAIL: the storm never ran through the mirror's deep-queue write path" >&2; exit 1; }
"$prof" get "$tmp/integrity.json" "serve/integrity/protected_slo_met" --ge 1 > /dev/null ||
    { echo "FAIL: protected tenant SLO broken by the integrity machinery" >&2; exit 1; }

step "scale sweep smoke run (sweep scale --race --json, 1 -> 256 vcore fault storm)"
# Double-run bit-identity at 1/16/256 vcores lives in determinism.rs
# (scale_storm_*_is_race_clean_and_bit_identical); this step asserts the
# scaling claim itself (DESIGN.md §17): the mmio fault path — spill-free
# regions, sharded page table, batched freelist steal — is near-linear
# (>= 8x at 64 vcores, >= 200x at 256: a page table serialized on one
# lock would fail this) while linuxsim's non-scalable page-cache tree
# lock collapses (< 2x).
cargo run --release -q -p aquila-bench --bin sweep -- scale --race \
    --json "$tmp/scale.json" > "$tmp/scale.txt"
grep -q 'race detector: 0 findings' "$tmp/scale.txt" ||
    { echo "FAIL: race detector reported findings in scale sweep" >&2; exit 1; }
"$prof" get "$tmp/scale.json" "scale/mmio/speedup_64v1" --ge 8.0 > /dev/null ||
    { echo "FAIL: mmio fault throughput not >= 8x at 64 vcores" >&2; exit 1; }
"$prof" get "$tmp/scale.json" "scale/linuxsim/speedup_64v1" --le 2.0 > /dev/null ||
    { echo "FAIL: linuxsim unexpectedly scales (collapse model lost its teeth)" >&2; exit 1; }
"$prof" get "$tmp/scale.json" "scale/mmio/speedup_256v1" --ge 200 > /dev/null ||
    { echo "FAIL: mmio fault throughput not >= 200x at 256 vcores" >&2; exit 1; }

step "aquila-prof flamegraph from a fig10 trace"
cargo run --release -q -p aquila-bench --bin fig10 -- fit --tiny \
    --trace "$tmp/fig10.trace.json" > /dev/null
"$prof" flame "$tmp/fig10.trace.json" --out "$tmp/fig10.folded" > "$tmp/flame.txt"
grep -q 'aquila.fault' "$tmp/fig10.folded" ||
    { echo "FAIL: folded flamegraph has no fault stacks" >&2; exit 1; }
grep -q 'aquila.fault' "$tmp/flame.txt" ||
    { echo "FAIL: aquila-prof stage table has no fault stage" >&2; exit 1; }

step "aquila-prof baseline gate vs committed golden report (expected pass)"
"$prof" check "$tmp/lat1.json" --baseline results/golden/sweep_latency.json ||
    { echo "FAIL: latency regressed vs results/golden/sweep_latency.json" >&2; exit 1; }

step "crash-consistency smoke (seeded power cut before any writeback)"
# The full >=100-cut-point property sweep runs under `cargo test
# --workspace` above (crates/core/tests/crash_consistency.rs); this step
# re-runs the cheap recovery case in release mode as a targeted smoke.
cargo test --release -q -p aquila --test crash_consistency \
    cut_before_any_writeback_recovers_empty_file
cargo test --release -q -p aquila-kvstore --test krill_recovery

step "root examples (quickstart, custom_cache_policy, heap_extension, kvstore_ycsb)"
# The examples drive the public API end to end (kvstore_ycsb checks every
# value it reads back byte for byte), so an API change that breaks one
# fails here rather than when someone next runs it.
for ex in quickstart custom_cache_policy heap_extension kvstore_ycsb; do
    cargo run --release -q --example "$ex" > "$tmp/example-$ex.txt" ||
        { echo "FAIL: example $ex exited non-zero" >&2; exit 1; }
done

echo
echo "verify: all checks passed"
