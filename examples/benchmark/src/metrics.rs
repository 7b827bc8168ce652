//! The metric tables: each metric's name, unit, direction, regression
//! bound, and how its value is derived from a run.
//!
//! Virtual metrics are simulated time or event counts at the modelled
//! 2.4 GHz clock; they repeat exactly for a given seed and size. Host
//! metrics are wall time and memory of the machine running the simulator.

use aquila_sim::{CostCat, CPU_HZ};

use crate::calibrate;
use crate::run::Outcome;
use crate::workload::Measured;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`, as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric.
pub struct Metric {
    /// Name in the output and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Simulated (repeats exactly per seed) rather than host-measured.
    pub simulated: bool,
    value: fn(&Outcome) -> f64,
}

impl Metric {
    /// The metric's value for a run. Per-layer host metrics need the
    /// traced phase.
    pub fn value(&self, o: &Outcome) -> f64 {
        (self.value)(o)
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    simulated: bool,
    value: fn(&Outcome) -> f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        simulated,
        value,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    simulated: bool,
    value: fn(&Outcome) -> f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        simulated,
        value,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics listed in `BENCHMARK.json`, from the untraced
/// measured phase. Each varies from seed to seed by less than a third of
/// its bound.
pub const END_TO_END: [Metric; 4] = [
    e2e("ops_per_s", "1/s", Higher, 0.06, true, |o| {
        per_sec(o.untraced.ops, o.untraced.makespan.get())
    }),
    e2e("host_ops_per_s", "1/s", Higher, 0.24, false, |o| {
        let scaled: Vec<f64> = o
            .untraced
            .windows
            .iter()
            .map(|&(rate, kernel_s)| rate * kernel_s / calibrate::REFERENCE_S)
            .collect();
        median(&scaled)
    }),
    e2e("setup_s", "s", Lower, 0.25, false, |o| median(&o.setup_s)),
    e2e("peak_rss_mb", "MiB", Lower, 0.05, false, |o| o.peak_rss_mb),
];

/// End-to-end metrics that are printed and compared but not listed in
/// `BENCHMARK.json`. The raw wall-clock rate drifts by about ±10% with the
/// shared host's load (`host_ops_per_s` is its calibrated form). The
/// simulated quantiles repeat exactly for a seed, yet across seeds they
/// either sit on one fixed cost (every fault-remap read costs the same
/// cycles) or on a handful of rare writeback stalls. The error rate of a
/// correct run is always 0.
pub const REPORTED: [Metric; 5] = [
    e2e("host_wall_ops_per_s", "1/s", Higher, 0.25, false, |o| {
        let raw: Vec<f64> = o.untraced.windows.iter().map(|w| w.0).collect();
        median(&raw)
    }),
    e2e("op_p50_us", "us", Lower, 0.01, true, |o| {
        quantile_us(&o.untraced, 0.5)
    }),
    e2e("op_p99_us", "us", Lower, 0.01, true, |o| {
        quantile_us(&o.untraced, 0.99)
    }),
    e2e("op_p999_us", "us", Lower, 0.01, true, |o| {
        quantile_us(&o.untraced, 0.999)
    }),
    e2e("error_rate", "share", Lower, 0.0, true, |o| {
        ratio(o.untraced.failed, o.untraced.ops)
    }),
];

/// Per-layer metrics. Virtual ones are client-vcore cycles or event
/// counts per op from the engine's report; host ones come from the
/// benchmark's spans in the traced phase.
pub const PER_LAYER: [Metric; 33] = [
    layer("vmx.trap_cycles_per_op", "cycles/op", Lower, true, |o| {
        cat(o, CostCat::Trap)
    }),
    layer("vmx.vmexits_per_op", "1/op", Lower, true, |o| {
        count(o, o.untraced.counters.vmexits)
    }),
    layer("vmx.vmexit_cycles_per_op", "cycles/op", Lower, true, |o| {
        cat(o, CostCat::Vmexit)
    }),
    layer(
        "core.fault_handler_cycles_per_op",
        "cycles/op",
        Lower,
        true,
        |o| cat(o, CostCat::FaultHandler),
    ),
    layer("core.faults_per_op", "1/op", Lower, true, |o| {
        count(o, o.untraced.counters.page_faults)
    }),
    layer("core.writebacks_per_op", "pages/op", Lower, true, |o| {
        count(o, o.untraced.counters.writebacks)
    }),
    layer(
        "core.syscall_cycles_per_op",
        "cycles/op",
        Lower,
        true,
        |o| cat(o, CostCat::Syscall),
    ),
    layer(
        "core.msync.cycles_per_call",
        "cycles/call",
        Lower,
        true,
        |o| ratio(o.untraced.msync_cycles, o.untraced.msync_calls),
    ),
    layer("core.evictor_busy_share", "share", Lower, true, |o| {
        o.untraced
            .evictor
            .map_or(0.0, |(busy, span)| ratio(busy, span))
    }),
    layer("mmu.tlb_cycles_per_op", "cycles/op", Lower, true, |o| {
        cat(o, CostCat::Tlb)
    }),
    layer("mmu.shootdowns_per_op", "1/op", Lower, true, |o| {
        count(o, o.untraced.counters.tlb_shootdowns)
    }),
    layer("mmu.invalidations_per_op", "1/op", Lower, true, |o| {
        count(o, o.untraced.counters.tlb_invalidations)
    }),
    layer(
        "pcache.cache_mgmt_cycles_per_op",
        "cycles/op",
        Lower,
        true,
        |o| cat(o, CostCat::CacheMgmt),
    ),
    layer(
        "pcache.eviction_cycles_per_op",
        "cycles/op",
        Lower,
        true,
        |o| cat(o, CostCat::Eviction),
    ),
    layer("pcache.hit_ratio", "share", Higher, true, |o| {
        let c = &o.untraced.counters;
        ratio(c.minor_faults, c.page_faults)
    }),
    layer("pcache.evictions_per_op", "pages/op", Lower, true, |o| {
        count(o, o.untraced.counters.evictions)
    }),
    layer(
        "devices.memcpy_cycles_per_op",
        "cycles/op",
        Lower,
        true,
        |o| cat(o, CostCat::Memcpy),
    ),
    layer("devices.bytes_read_per_op", "B/op", Lower, true, |o| {
        count(o, o.untraced.counters.bytes_read)
    }),
    layer("devices.reads_per_op", "1/op", Lower, true, |o| {
        count(o, o.untraced.counters.device_reads)
    }),
    layer("devices.io_cycles_per_op", "cycles/op", Lower, true, |o| {
        cat(o, CostCat::DeviceIo)
    }),
    layer("devices.writes_per_op", "1/op", Lower, true, |o| {
        count(o, o.untraced.counters.device_writes)
    }),
    layer("devices.write_amp", "ratio", Lower, true, |o| {
        ratio(
            o.untraced.counters.bytes_written,
            o.untraced.user_bytes_written,
        )
    }),
    layer(
        "devices.idle_cycles_per_op",
        "cycles/op",
        Lower,
        true,
        |o| cat(o, CostCat::Idle),
    ),
    layer(
        "sim.lock_wait_cycles_per_op",
        "cycles/op",
        Lower,
        true,
        |o| cat(o, CostCat::LockWait),
    ),
    layer(
        "sim.unattributed_cycles_per_op",
        "cycles/op",
        Lower,
        true,
        |o| count(o, o.untraced.unattributed),
    ),
    layer("core.read.host_ns_per_call", "ns/call", Lower, false, |o| {
        span_ns(o, "core.read")
    }),
    layer(
        "core.write.host_ns_per_call",
        "ns/call",
        Lower,
        false,
        |o| span_ns(o, "core.write"),
    ),
    layer(
        "core.msync.host_ns_per_call",
        "ns/call",
        Lower,
        false,
        |o| span_ns(o, "core.msync"),
    ),
    layer(
        "core.remap.host_ns_per_call",
        "ns/call",
        Lower,
        false,
        |o| span_ns(o, "core.remap"),
    ),
    layer(
        "core.evictor.host_ns_per_step",
        "ns/step",
        Lower,
        false,
        |o| span_ns(o, "core.evictor"),
    ),
    layer("sim.engine.host_ns_per_op", "ns/op", Lower, false, |o| {
        let t = traced(o);
        ratio(t.host_run_ns.saturating_sub(t.body_ns), t.ops)
    }),
    layer("bench.host_ns_per_op", "ns/op", Lower, false, |o| {
        let t = traced(o);
        let op = t.spans.totals().get("op").copied().unwrap_or_default();
        ratio(op.self_host_ns, t.ops)
    }),
    layer("bench.trace_overhead", "ratio", Lower, false, |o| {
        ratio(traced(o).host_run_ns, o.untraced.host_run_ns)
    }),
];

fn traced(o: &Outcome) -> &Measured {
    o.traced
        .as_ref()
        .expect("per-layer host metrics come from a traced run")
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn count(o: &Outcome, n: u64) -> f64 {
    ratio(n, o.untraced.ops)
}

fn cat(o: &Outcome, c: CostCat) -> f64 {
    count(o, o.untraced.clients.get(c).get())
}

fn span_ns(o: &Outcome, name: &str) -> f64 {
    let a = traced(o)
        .spans
        .totals()
        .get(name)
        .copied()
        .unwrap_or_default();
    ratio(a.host_ns, a.count)
}

fn per_sec(ops: u64, cycles: u64) -> f64 {
    ratio(ops, cycles) * CPU_HZ as f64
}

/// Nearest-rank quantile of the sorted per-op latencies, in virtual µs.
fn quantile_us(m: &Measured, q: f64) -> f64 {
    let l = &m.latencies;
    if l.is_empty() {
        return 0.0;
    }
    let rank = ((q * l.len() as f64).ceil() as usize).clamp(1, l.len());
    l[rank - 1] as f64 * 1e6 / CPU_HZ as f64
}

/// Median of `v` (mean of the middle two for an even count).
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Every metric, end-to-end first.
pub fn all() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain(&REPORTED).chain(&PER_LAYER)
}

/// Every simulated metric of a run, by name.
pub fn simulated_values(o: &Outcome) -> Vec<(&'static str, f64)> {
    all()
        .filter(|m| m.simulated)
        .map(|m| (m.name, m.value(o)))
        .collect()
}

/// Whether two measured phases produced the same virtual results.
pub fn same_virtual(a: &Measured, b: &Measured) -> bool {
    a.ops == b.ops
        && a.failed == b.failed
        && a.latencies == b.latencies
        && a.makespan == b.makespan
        && a.nudges == b.nudges
        && a.unattributed == b.unattributed
        && a.evictor == b.evictor
        && a.region == b.region
        && a.msync_cycles == b.msync_cycles
        && a.clients.iter().eq(b.clients.iter())
        && a.counters.iter().eq(b.counters.iter())
}

/// The printed line for one metric: name, value with all its digits,
/// unit, and `simulated` or `host`.
pub fn metric_line(m: &Metric, v: f64) -> String {
    let kind = if m.simulated { "simulated" } else { "host" };
    format!("    {:<34} {:>24} {:<11} {kind}", m.name, v, m.unit)
}

/// The name and value of a line printed by [`metric_line`].
pub fn parse_metric_line(line: &str) -> Option<(&str, f64)> {
    match line.split_whitespace().collect::<Vec<_>>()[..] {
        [name, value, _unit, "simulated" | "host"] => Some((name, value.parse().ok()?)),
        _ => None,
    }
}

/// The result line: one JSON object with the run's verdict and metrics.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&Metric, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
