//! Benchmark harness for the Aquila reproduction: scenario builders,
//! result reporting, and the paper's microbenchmark.
//!
//! Each figure/table of the paper has a binary under `src/bin/`:
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Table 1 (YCSB workload definitions) |
//! | `fig5`   | RocksDB YCSB-C throughput/latency across backends |
//! | `fig6`   | Ligra BFS with the heap over storage |
//! | `fig7`   | RocksDB per-get cycle breakdown |
//! | `fig8`   | Page-fault overhead breakdowns (a/b/c) |
//! | `fig9`   | Kreon kmmap vs Aquila, YCSB A-F |
//! | `fig10`  | Microbenchmark scalability, shared vs private files |
//! | `sweep`  | Sync vs async write-behind across queue depth and watermarks |
//! | `serve`  | Multi-tenant open-loop serving with QoS and per-tenant SLOs |
//!
//! Every binary is a set of named parts behind [`Runner`]: select parts
//! positionally or as `--<part>` flags, `--list` to enumerate them. The
//! binaries themselves are one-line shims over [`cli::main_for`]; their
//! bodies live in [`figs`]. Sizes are scaled from the paper's testbed
//! (see DESIGN.md); pass `--full` to the binaries for larger runs.

#![forbid(unsafe_code)]

pub mod cli;
pub mod figs;
pub mod json;
pub mod kvscen;
pub mod micro;
pub mod prof;
pub mod report;
pub mod runner;

pub use cli::BenchArgs;
pub use json::Json;
pub use kvscen::{build_stone, load_stone, warm_stone, Backend, Dev, StoneScenario};
pub use micro::{micro_aquila, micro_linux, run_micro, Micro, MicroResult};
pub use report::{
    banner, fig7_bars, print_breakdown_per_op, print_rows, print_speedup, JsonReport, Row,
    SCHEMA_VERSION,
};
pub use runner::Runner;
