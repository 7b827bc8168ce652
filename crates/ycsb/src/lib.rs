//! YCSB workload generation (Cooper et al., SoCC '10) — the paper's
//! Table 1 workloads, key/value shapes, and request distributions.
//!
//! The paper uses a C++ YCSB with 30-byte keys, 1 KiB values, and both
//! the uniform and (scrambled-)Zipfian request distributions. The
//! [`runner`] drives any key-value executor closure and records the
//! per-operation latency histogram the paper's latency results need.

#![forbid(unsafe_code)]

pub mod runner;
pub mod workload;

pub use runner::{run_ops, YcsbReport};
pub use workload::{Distribution, KeyGen, Op, OpKind, Workload, WorkloadMix};
