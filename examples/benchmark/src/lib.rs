//! Closed-loop benchmark of the Aquila mmio stack.
//!
//! Four seeded workloads drive the stack through its public API
//! (`AquilaRuntime`, `Aquila::{mmap, munmap, madvise, read, write, msync,
//! evictor}`) with `aquila_sim::Engine` running the simulated vcores. Each
//! run reports end-to-end metrics from an untraced measured phase and, when
//! asked, per-layer metrics from a traced one. See `README.md`.

use std::fmt::Write as _;

pub mod calibrate;
pub mod compare;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod workload;

/// Host seconds one run measures: the `--seconds` default.
pub const RUN_SECONDS: u64 = 10;

/// The command that runs the benchmark from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "examples/benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json` as the workload and metric tables define it.
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let quoted = |s: &[&str]| {
        s.iter()
            .map(|a| format!("\"{a}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [\"examples/benchmark\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let workloads = workload::WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let _ = writeln!(out, "  \"workloads\": [\n    {}\n  ],", list(workloads));
    let e2e = metrics::END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound.expect("end-to-end metrics have a bound")
            )
        })
        .collect();
    let _ = writeln!(out, "  \"end_to_end\": [\n    {}\n  ],", list(e2e));
    let layers = metrics::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.name()
            )
        })
        .collect();
    let _ = writeln!(out, "  \"per_layer\": [\n    {}\n  ]", list(layers));
    out.push_str("}\n");
    out
}
