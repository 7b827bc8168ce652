//! Smoke test: every workload at toy size runs correctly, repeats its
//! simulated results bit for bit, and `BENCHMARK.json` matches the tables.

use std::path::PathBuf;

use aquila_benchmark::metrics::{result_json, simulated_values, PER_LAYER};
use aquila_benchmark::run::{run, write_trace, Options, Outcome};
use aquila_benchmark::workload::by_name;

fn toy(name: &str, seed: u64, trace: bool) -> Outcome {
    let w = by_name(name).expect("a listed workload");
    let out = run(
        w,
        &Options {
            seed,
            seconds: 1,
            trace,
            toy: true,
        },
    );
    assert_eq!(out.problems(), Vec::<String>::new(), "{name} seed {seed}");
    out
}

fn bits(o: &Outcome) -> Vec<(&'static str, u64)> {
    simulated_values(o)
        .into_iter()
        .map(|(name, v)| (name, v.to_bits()))
        .collect()
}

/// Runs `name` twice on seeds 1 and 2 (the first seed-1 run traced) and
/// returns the traced run.
fn repeats_exactly(name: &str) -> Outcome {
    let mut traced = None;
    for seed in [1, 2] {
        // The traced run also checks that tracing leaves the simulated
        // results unchanged.
        let a = toy(name, seed, seed == 1);
        let b = toy(name, seed, false);
        assert_eq!(bits(&a), bits(&b), "{name} seed {seed}");
        assert!(a.untraced.ops > 0);
        assert_eq!(a.untraced.failed, 0, "{name} seed {seed}");
        // Client cycles add up to client time but for the engine's nudges.
        assert_eq!(a.untraced.unattributed, a.untraced.nudges, "{name}");
        traced.get_or_insert(a);
    }
    traced.expect("seed 1 ran")
}

#[test]
fn fault_remap_repeats_exactly() {
    repeats_exactly("fault-remap");
}

#[test]
fn kv_read_repeats_exactly() {
    repeats_exactly("kv-read");
}

#[test]
fn kv_update_repeats_exactly() {
    repeats_exactly("kv-update");
}

/// kv-mirror makes every kind of span, so its traced run also checks the
/// trace files and the per-layer result line.
#[test]
fn kv_mirror_repeats_exactly_and_traces_every_layer() {
    let out = repeats_exactly("kv-mirror");
    let layers: Vec<_> = PER_LAYER.iter().map(|m| (m, m.value(&out))).collect();
    let line = result_json(true, out.untraced.ops, 0, &layers);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-trace");
    write_trace(&dir, &out).expect("write the trace");
    let chrome = std::fs::read_to_string(dir.join("kv-mirror.trace.json")).unwrap();
    let aggregate = std::fs::read_to_string(dir.join("kv-mirror.aggregate.json")).unwrap();
    for span in [
        "op",
        "core.read",
        "core.write",
        "core.msync",
        "core.evictor",
    ] {
        assert!(chrome.contains(&format!("\"name\":\"{span}\"")), "{span}");
        let agg = format!("\"{span}\": {{\"count\"");
        assert!(aggregate.contains(&agg), "{span}");
    }
    for (m, v) in &layers {
        assert!(v.is_finite() && *v >= 0.0, "{} = {v}", m.name);
        let entry = format!("\"{}\": {{\"value\"", m.name);
        assert!(line.contains(&entry), "{}", m.name);
        assert!(
            aggregate.contains(&format!("\"{}\": ", m.name)),
            "{}",
            m.name
        );
    }
}

#[test]
fn benchmark_json_matches_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        file,
        aquila_benchmark::manifest(),
        "BENCHMARK.json must list exactly the workloads and metrics the benchmark emits"
    );
}
