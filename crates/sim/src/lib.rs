//! Deterministic discrete-event simulation kernel for the Aquila
//! reproduction.
//!
//! This crate provides the substrate every other crate in the workspace
//! builds on:
//!
//! - [`time::Cycles`] — virtual time at the paper testbed's 2.4 GHz clock;
//! - [`cost::CostModel`] — the calibrated per-event cycle costs, sourced
//!   from the paper (traps, vmexits, SIMD copies, ...);
//! - [`resource`] — reservation-based contention models for locks and
//!   storage devices;
//! - [`engine`] — the discrete-event scheduler that steps virtual threads
//!   in global time order and the [`engine::SimCtx`] trait through which
//!   library code charges costs;
//! - [`hist::LatencyHist`] and [`stats::Breakdown`] — the measurement
//!   machinery behind every figure;
//! - [`trace`], [`span`], and [`metrics`] — cycle-stamped event tracing
//!   (with a Chrome `trace_event` exporter for Perfetto), causal
//!   begin/end spans with cross-thread parent links (the one timing
//!   primitive: each end feeds the trace and a `<name>.cycles`
//!   histogram), and a registry of named per-core
//!   counters/gauges/latency-histograms, all zero-cost when not
//!   installed;
//! - [`page`] — the process-wide pool of refcounted 4 KiB pages that
//!   device stores and the DRAM cache share, copied only on first write;
//! - [`fault`] — schedule-deterministic fault plans (media errors,
//!   timeouts, torn writes, power cuts) that device models consult at
//!   chosen operation counts or cycle points, zero-cost when empty.
//!
//! Everything is deterministic: a run is a pure function of the seed, the
//! cost model, and the workload parameters.

#![forbid(unsafe_code)]

pub mod cost;
pub mod engine;
pub mod fault;
pub mod hist;
pub mod metrics;
pub mod page;
pub mod race;
pub mod region;
pub mod resource;
pub mod rng;
pub mod span;
pub mod stats;
pub mod time;
pub mod trace;

pub use cost::{CostCat, CostModel};
pub use engine::{CoreDebts, Engine, FreeCtx, RunReport, SimCtx, Step, ThreadCtx, ThreadFn};
pub use fault::{
    CrashImage, DeviceImage, FaultClause, FaultKind, FaultOutcome, FaultPlan, FaultSpecError,
    FaultTarget, FaultTrigger, SECTOR_SIZE,
};
pub use hist::LatencyHist;
pub use metrics::{HistId, MetricId, MetricKind, MetricsRegistry, MetricsSnapshot};
pub use page::Page;
pub use race::{RaceDetector, RaceStats};
pub use region::{DramRegion, MemRegion};
pub use resource::{Reservation, ServiceCenter, SimMutex, SimRwLock};
pub use rng::{Rng64, ScrambledZipfian, Zipfian};
pub use span::{Span, SpanId};
pub use stats::{Breakdown, Counters};
pub use time::{Cycles, CPU_HZ};
pub use trace::{TraceEvent, Tracer};

/// Page size used throughout the simulation (4 KiB, matching the paper's
/// GVA->GPA granularity).
pub const PAGE_SIZE: usize = 4096;

/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_constants_agree() {
        assert_eq!(1usize << PAGE_SHIFT, PAGE_SIZE);
    }
}
