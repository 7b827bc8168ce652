//! Table printing and result records for the figure binaries.

use aquila_sim::{Breakdown, CostCat, Counters, Cycles, LatencyHist};

use crate::json::Json;

/// Prints a figure banner.
pub fn banner(title: &str, paper: &str) {
    println!();
    println!("=== {title} ===");
    println!("    paper result: {paper}");
    println!();
}

/// One throughput/latency result row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (configuration).
    pub label: String,
    /// Throughput in kops/s.
    pub kops: f64,
    /// Mean latency.
    pub avg: Cycles,
    /// 99th percentile latency.
    pub p99: Cycles,
    /// 99.9th percentile latency.
    pub p999: Cycles,
}

impl Row {
    /// Builds a row from a latency histogram and elapsed virtual time.
    pub fn from_hist(label: impl Into<String>, ops: u64, elapsed: Cycles, h: &LatencyHist) -> Row {
        let kops = if elapsed == Cycles::ZERO {
            0.0
        } else {
            ops as f64 / elapsed.as_secs_f64() / 1e3
        };
        Row {
            label: label.into(),
            kops,
            avg: h.mean(),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
        }
    }
}

/// Prints rows as an aligned table.
pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<44} {:>12} {:>12} {:>12} {:>12}",
        "configuration", "kops/s", "avg", "p99", "p99.9"
    );
    for r in rows {
        println!(
            "{:<44} {:>12.1} {:>12} {:>12} {:>12}",
            r.label,
            r.kops,
            format!("{}", r.avg),
            format!("{}", r.p99),
            format!("{}", r.p999),
        );
    }
}

/// Prints the ratio of two rows' throughput (who wins, by what factor).
pub fn print_speedup(what: &str, a: &Row, b: &Row) {
    if b.kops > 0.0 {
        println!("  -> {what}: {:.2}x", a.kops / b.kops);
    }
}

/// Prints a cycle breakdown normalized per operation.
///
/// Shares and the TOTAL row are computed from the *raw* cycle totals:
/// dividing each category by `ops` first and then summing truncates up
/// to `ops - 1` cycles per category, which both understates the total
/// and skews the percentages (categories near the rounding boundary
/// could sum to more or less than 100%).
pub fn print_breakdown_per_op(label: &str, b: &Breakdown, ops: u64) {
    let ops = ops.max(1);
    println!("{label} (cycles per operation):");
    let total_raw = b.total().get();
    let mut rows: Vec<(CostCat, u64)> = b.iter().map(|(c, v)| (c, v.get())).collect();
    rows.sort_by_key(|&(_, v)| core::cmp::Reverse(v));
    for (cat, raw) in &rows {
        println!(
            "  {:<14} {:>10} cyc/op  {:>5.1}%",
            cat.name(),
            raw / ops,
            100.0 * *raw as f64 / total_raw.max(1) as f64
        );
    }
    println!("  {:<14} {:>10} cyc/op", "TOTAL", total_raw / ops);
}

/// Version of the machine-readable record layout. Bump when a field is
/// renamed, removed, or changes meaning; adding fields is compatible.
/// v2: `faults` object (injected count, crash capture flag) added and
/// guaranteed present, zeroed when no fault plan is installed.
/// v3: `latency` array added — one entry per registered latency
/// histogram in the global metrics registry (count, mean, p50/p90/p99/
/// p999/max in cycles), merged deterministically across core shards.
/// v4: `tenants` array added — one entry per tenant of a multi-tenant
/// serving run (declared quota/weight/SLO, request counts, sheds, the
/// per-tenant latency percentiles, and whether the p99 met the SLO);
/// empty for single-tenant binaries.
/// v5: `integrity` object added and guaranteed present — end-to-end
/// data-integrity accounting of a mirrored run (faults injected,
/// corruptions detected/repaired/unrepairable, and the `undetected`
/// invariant that must read zero); zeroed with `"mirrored": false`
/// for unmirrored runs.
/// v6: `metrics` array removed — every event count is a
/// [`Counters`] field, reported per run in the `counters` rows, and the
/// global registry holds only the latency histograms of `latency`.
/// v7: `tenants` entries lose `weight` and `shed`, and the `counters`
/// rows lose `qos_delayed` and `qos_shed`: quota self-reclaim is the
/// whole QoS mechanism, with no eviction weight and no admission
/// control.
/// v8: the `counters` rows lose `huge_mixed_skips`: a 2 MiB run with
/// any dirty page promotes dirty, so no promotion scan skips a run.
pub const SCHEMA_VERSION: u64 = 8;

/// Quantiles recorded for every histogram in a JSON report.
const REPORT_QUANTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 1.0];

/// A machine-readable record of one figure run, written next to the
/// stdout tables by the `--json <path>` flag.
///
/// Every number is derived from the same values the stdout printers use
/// (raw cycle totals, not per-op-rounded ones), so the JSON and the
/// tables always agree.
#[derive(Debug, Default)]
pub struct JsonReport {
    figure: String,
    title: String,
    rows: Vec<Row>,
    breakdowns: Vec<(String, u64, Breakdown)>,
    counters: Vec<(String, Counters)>,
    hists: Vec<Json>,
    scalars: Vec<(String, f64)>,
    tenants: Vec<Json>,
    integrity: Option<aquila::IntegrityCounters>,
}

impl JsonReport {
    /// Creates an empty report for `figure` (e.g. `"fig8"`).
    pub fn new(figure: impl Into<String>, title: impl Into<String>) -> JsonReport {
        JsonReport {
            figure: figure.into(),
            title: title.into(),
            ..JsonReport::default()
        }
    }

    /// Records a throughput/latency row (same data as [`print_rows`]).
    pub fn add_row(&mut self, row: &Row) {
        self.rows.push(row.clone());
    }

    /// Records every row of a table.
    pub fn add_rows(&mut self, rows: &[Row]) {
        for r in rows {
            self.add_row(r);
        }
    }

    /// Records a per-op cycle breakdown (same data as
    /// [`print_breakdown_per_op`]).
    pub fn add_breakdown(&mut self, label: impl Into<String>, b: &Breakdown, ops: u64) {
        self.breakdowns.push((label.into(), ops.max(1), b.clone()));
    }

    /// Records a set of simulation counters.
    pub fn add_counters(&mut self, label: impl Into<String>, c: &Counters) {
        self.counters.push((label.into(), c.clone()));
    }

    /// Records a latency histogram's count, mean, and quantiles.
    pub fn add_hist(&mut self, label: impl Into<String>, h: &LatencyHist) {
        let mut quantiles = Json::obj();
        for q in REPORT_QUANTILES {
            quantiles.set(&format!("p{}", q * 100.0), Json::U64(h.quantile(q).get()));
        }
        self.hists.push(
            Json::obj()
                .with("label", Json::Str(label.into()))
                .with("count", Json::U64(h.count()))
                .with("mean_cycles", Json::U64(h.mean().get()))
                .with("quantiles_cycles", quantiles),
        );
    }

    /// Records a named scalar (speedup ratios, derived figures).
    pub fn add_scalar(&mut self, name: impl Into<String>, value: f64) {
        self.scalars.push((name.into(), value));
    }

    /// Records one tenant of a multi-tenant serving run (schema v4)
    /// under `label`: the declared contract (quota and SLO) next to what
    /// the run delivered.
    ///
    /// The tenant's histogram holds its end-to-end request latencies
    /// (completion minus *scheduled* open-loop arrival, so queueing
    /// shows up); `slo_met` is derived from it here, so the JSON and any
    /// stdout table always agree on the verdict.
    pub fn add_tenant(&mut self, t: &aquila_serve::TenantOutcome, label: impl Into<String>) {
        let h = &t.hist;
        let p99 = h.quantile(0.99);
        self.tenants.push(
            Json::obj()
                .with("id", Json::U64(t.id as u64))
                .with("label", Json::Str(label.into()))
                .with("quota_frames", Json::U64(t.quota_frames as u64))
                .with("slo_p99_cycles", Json::U64(t.slo_p99.get()))
                .with("requests", Json::U64(t.requests))
                .with("count", Json::U64(h.count()))
                .with("mean_cycles", Json::U64(h.mean().get()))
                .with("p50_cycles", Json::U64(h.quantile(0.5).get()))
                .with("p99_cycles", Json::U64(p99.get()))
                .with("p999_cycles", Json::U64(h.quantile(0.999).get()))
                .with("slo_met", Json::Bool(p99 <= t.slo_p99)),
        );
    }

    /// Records the end-of-run integrity counters of a mirrored run
    /// (schema v5). Unmirrored parts never call this; their `integrity`
    /// section renders zeroed with `"mirrored": false`.
    pub fn set_integrity(&mut self, c: &aquila::IntegrityCounters) {
        self.integrity = Some(*c);
    }

    /// Builds the full record, including the latency histograms of the
    /// global metrics registry (empty when `--trace`/`--json` did not
    /// install one).
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::obj()
                    .with("label", Json::Str(r.label.clone()))
                    .with("kops", Json::F64(r.kops))
                    .with("avg_cycles", Json::U64(r.avg.get()))
                    .with("p99_cycles", Json::U64(r.p99.get()))
                    .with("p999_cycles", Json::U64(r.p999.get()))
            })
            .collect();
        let breakdowns = self
            .breakdowns
            .iter()
            .map(|(label, ops, b)| {
                let total_raw = b.total().get();
                let cats = b
                    .iter()
                    .map(|(cat, cyc)| {
                        Json::obj()
                            .with("name", Json::from(cat.name()))
                            .with("cycles", Json::U64(cyc.get()))
                            .with("cycles_per_op", Json::U64(cyc.get() / ops))
                            .with("share", Json::F64(b.share(cat)))
                    })
                    .collect();
                Json::obj()
                    .with("label", Json::Str(label.clone()))
                    .with("ops", Json::U64(*ops))
                    .with("total_cycles", Json::U64(total_raw))
                    .with("total_cycles_per_op", Json::U64(total_raw / ops))
                    .with("categories", Json::Arr(cats))
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(label, c)| {
                let mut values = Json::obj();
                for (name, v) in c.iter() {
                    values.set(name, Json::U64(v));
                }
                Json::obj()
                    .with("label", Json::Str(label.clone()))
                    .with("values", values)
            })
            .collect();
        let mut scalars = Json::obj();
        for (name, v) in &self.scalars {
            scalars.set(name, Json::F64(*v));
        }
        // Cycle-exact latency distributions (schema v3): one entry per
        // registered histogram, shards merged deterministically.
        let latency = match aquila_sim::metrics::global() {
            Some(m) => m
                .snapshot()
                .hists()
                .iter()
                .map(|(name, h)| hist_entry(name, h))
                .collect(),
            None => Vec::new(),
        };
        // Fault-injection counters from the global plan. The fields are
        // always present and read zero both without a plan and with an
        // empty one, so `--faults ""` stays bit-identical to no flag.
        let faults = match aquila_sim::fault::global() {
            Some(plan) => Json::obj()
                .with("injected", Json::U64(plan.injected()))
                .with("crash_captured", Json::Bool(plan.crash_image().is_some())),
            None => Json::obj()
                .with("injected", Json::U64(0))
                .with("crash_captured", Json::Bool(false)),
        };
        // End-to-end integrity accounting (schema v5). Always present;
        // `injected` mirrors the fault plan's count so the section is
        // self-contained for `aquila-prof get` gates. `undetected` is
        // the invariant: with checksums on it must read zero — no
        // corrupted payload was ever acked to a session.
        let c = self.integrity.unwrap_or_default();
        let integrity = Json::obj()
            .with("mirrored", Json::Bool(self.integrity.is_some()))
            .with(
                "injected",
                Json::U64(aquila_sim::fault::global().map_or(0, |p| p.injected())),
            )
            .with("detected", Json::U64(c.detected))
            .with("repaired", Json::U64(c.repaired))
            .with("repair_skipped", Json::U64(c.repair_skipped))
            .with("unrepairable", Json::U64(c.unrepairable))
            .with("tainted", Json::U64(c.tainted))
            .with("undetected", Json::U64(c.undetected()));
        Json::obj()
            .with("schema_version", Json::U64(SCHEMA_VERSION))
            .with("figure", Json::Str(self.figure.clone()))
            .with("title", Json::Str(self.title.clone()))
            .with("cpu_hz", Json::U64(aquila_sim::CPU_HZ))
            .with("rows", Json::Arr(rows))
            .with("breakdowns", Json::Arr(breakdowns))
            .with("histograms", Json::Arr(self.hists.clone()))
            .with("counters", Json::Arr(counters))
            .with("scalars", scalars)
            .with("latency", Json::Arr(latency))
            .with("tenants", Json::Arr(self.tenants.clone()))
            .with("faults", faults)
            .with("integrity", integrity)
    }

    /// Writes the record to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render())
    }
}

/// One schema-v3 `latency` entry for a named histogram.
pub fn hist_entry(name: &str, h: &LatencyHist) -> Json {
    Json::obj()
        .with("name", Json::Str(name.to_string()))
        .with("count", Json::U64(h.count()))
        .with("mean_cycles", Json::U64(h.mean().get()))
        .with("p50_cycles", Json::U64(h.quantile(0.5).get()))
        .with("p90_cycles", Json::U64(h.quantile(0.9).get()))
        .with("p99_cycles", Json::U64(h.quantile(0.99).get()))
        .with("p999_cycles", Json::U64(h.quantile(0.999).get()))
        .with("max_cycles", Json::U64(h.quantile(1.0).get()))
}

/// Aggregates a breakdown into the paper's Figure 7 three bars:
/// (device I/O, cache management, get logic), per op.
pub fn fig7_bars(b: &Breakdown, ops: u64) -> (u64, u64, u64) {
    let ops = ops.max(1);
    let dev =
        (b.get(CostCat::DeviceIo) + b.get(CostCat::Memcpy) + b.get(CostCat::Idle)).get() / ops;
    let cache = (b.get(CostCat::CacheMgmt)
        + b.get(CostCat::Syscall)
        + b.get(CostCat::LockWait)
        + b.get(CostCat::Trap)
        + b.get(CostCat::FaultHandler)
        + b.get(CostCat::Eviction)
        + b.get(CostCat::Tlb)
        + b.get(CostCat::Vmexit))
    .get()
        / ops;
    let get = b.get(CostCat::App).get() / ops;
    (dev, cache, get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_from_hist_computes_kops() {
        let mut h = LatencyHist::new();
        h.record(Cycles(2400));
        let r = Row::from_hist("x", 1000, Cycles(aquila_sim::CPU_HZ), &h);
        assert!((r.kops - 1.0).abs() < 1e-9);
        assert_eq!(r.avg, Cycles(2400));
    }

    #[test]
    fn fig7_bars_partition_breakdown() {
        let mut b = Breakdown::new();
        b.add(CostCat::DeviceIo, Cycles(1000));
        b.add(CostCat::CacheMgmt, Cycles(2000));
        b.add(CostCat::App, Cycles(3000));
        b.add(CostCat::Trap, Cycles(500));
        let (dev, cache, get) = fig7_bars(&b, 1);
        assert_eq!(dev, 1000);
        assert_eq!(cache, 2500);
        assert_eq!(get, 3000);
    }

    #[test]
    fn tenant_record_derives_slo_verdict_from_hist() {
        let mut hist = LatencyHist::new();
        for v in [100u64, 200, 300, 400] {
            hist.record(Cycles(v));
        }
        let mut r = JsonReport::new("serve", "t");
        let t = aquila_serve::TenantOutcome {
            id: 3,
            label: "protected".into(),
            quota_frames: 64,
            slo_p99: Cycles(1_000_000),
            hist,
            requests: 4,
            resident_at_end: 0,
        };
        r.add_tenant(&t, "qos_on/protected");
        let rendered = r.to_json().render();
        assert!(rendered.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(!rendered.contains("\"metrics\""));
        assert!(rendered.contains("\"slo_met\": true"));
        assert!(rendered.contains("\"quota_frames\": 64"));
    }

    #[test]
    fn integrity_section_is_always_present_and_zeroed_by_default() {
        let r = JsonReport::new("serve", "t");
        let rendered = r.to_json().render();
        assert!(rendered.contains("\"mirrored\": false"));
        assert!(rendered.contains("\"undetected\": 0"));
        let mut r = JsonReport::new("serve", "t");
        r.set_integrity(&aquila::IntegrityCounters {
            detected: 3,
            repaired: 3,
            ..Default::default()
        });
        let rendered = r.to_json().render();
        assert!(rendered.contains("\"mirrored\": true"));
        assert!(rendered.contains("\"repaired\": 3"));
    }

    #[test]
    fn zero_elapsed_is_zero_kops() {
        let h = LatencyHist::new();
        let r = Row::from_hist("x", 0, Cycles::ZERO, &h);
        assert_eq!(r.kops, 0.0);
    }
}
