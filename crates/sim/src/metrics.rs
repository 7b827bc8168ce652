//! A registry of named counters and gauges, sharded per virtual core.
//!
//! The hard-coded [`crate::stats::Counters`] struct covers the paper's
//! fixed event set; this registry covers everything else — subsystems
//! register metrics by name at runtime, each vcore updates its own shard
//! without synchronizing with the others, and a [`MetricsRegistry::snapshot`]
//! merges the shards into one sorted, machine-readable view for reports.
//! Adding a metric is one call site: there is no merge function to keep
//! in sync, so a counter can never be silently dropped from aggregation.
//!
//! Counters sum across cores; gauges keep the per-core maximum (the
//! interesting number for occupancy-style gauges like NVMe queue depth).
//! Latency histograms ([`crate::hist::LatencyHist`]) are a third,
//! first-class kind: each vcore records into its own shard and the
//! snapshot merges them in shard order — a deterministic bucket-wise sum,
//! so the merged distribution is a pure function of the run. Closing a
//! [`crate::span`] records its duration into the histogram `<name>.cycles`;
//! [`record_latency_labeled`] is the one explicit sample recorder.
//!
//! Like tracing, metrics never charge virtual cycles; with no registry
//! installed each instrumentation site costs one atomic load.

use std::sync::{Arc, OnceLock};

use aquila_sync::{DetMap, Mutex, RwLock};

use crate::engine::SimCtx;
use crate::hist::LatencyHist;
use crate::time::Cycles;

/// What a metric reports across cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count; snapshot sums the per-core shards.
    Counter,
    /// Sampled level; snapshot takes the per-core maximum.
    Gauge,
}

/// A registered metric's slot (index into every shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// A registered latency histogram's slot (index into every hist shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

struct Registrations {
    names: Vec<(&'static str, MetricKind)>,
    index: DetMap<&'static str, MetricId>,
    hist_names: Vec<String>,
    // Span histograms, keyed by the static span name; the display name
    // `name.cycles` is rendered once, at registration.
    span_hists: DetMap<&'static str, HistId>,
    // Tenant-labeled histograms: keyed by (static base name, tenant index)
    // so hot recording paths never format strings — the display name
    // `base[tNN]` is rendered exactly once, at registration.
    hist_labels: DetMap<(&'static str, u16), HistId>,
}

/// Named counters/gauges/latency-histograms with one shard per virtual
/// core.
pub struct MetricsRegistry {
    regs: RwLock<Registrations>,
    shards: Vec<Mutex<Vec<u64>>>,
    hist_shards: Vec<Mutex<Vec<LatencyHist>>>,
}

impl MetricsRegistry {
    /// Creates a registry for a machine of `cores` virtual cores.
    pub fn new(cores: usize) -> MetricsRegistry {
        let cores = cores.max(1);
        MetricsRegistry {
            regs: RwLock::new(Registrations {
                names: Vec::new(),
                index: DetMap::new(),
                hist_names: Vec::new(),
                span_hists: DetMap::new(),
                hist_labels: DetMap::new(),
            }),
            shards: (0..cores).map(|_| Mutex::new(Vec::new())).collect(),
            hist_shards: (0..cores).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Registers (or looks up) a metric, returning its stable id.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already registered with a different kind.
    pub fn register(&self, name: &'static str, kind: MetricKind) -> MetricId {
        if let Some(&id) = self.regs.read().index.get(name) {
            let existing = self.regs.read().names[id.0].1;
            assert_eq!(existing, kind, "metric {name} re-registered as {kind:?}");
            return id;
        }
        let mut regs = self.regs.write();
        if let Some(&id) = regs.index.get(name) {
            return id;
        }
        let id = MetricId(regs.names.len());
        regs.names.push((name, kind));
        regs.index.insert(name, id);
        id
    }

    fn update(&self, core: usize, id: MetricId, f: impl FnOnce(&mut u64)) {
        let shard = &self.shards[core % self.shards.len()];
        let mut values = shard.lock();
        if values.len() <= id.0 {
            values.resize(id.0 + 1, 0);
        }
        f(&mut values[id.0]);
    }

    /// Adds `delta` to a counter on `core`.
    pub fn add(&self, core: usize, id: MetricId, delta: u64) {
        self.update(core, id, |v| *v += delta);
    }

    /// Sets a gauge's current value on `core`; the snapshot keeps the
    /// per-core maximum, so this records high-water marks.
    pub fn gauge_max(&self, core: usize, id: MetricId, value: u64) {
        self.update(core, id, |v| *v = (*v).max(value));
    }

    /// Registers-and-adds in one call (for low-frequency sites).
    pub fn add_named(&self, core: usize, name: &'static str, delta: u64) {
        let id = self.register(name, MetricKind::Counter);
        self.add(core, id, delta);
    }

    /// Registers-and-gauges in one call.
    pub fn gauge_named(&self, core: usize, name: &'static str, value: u64) {
        let id = self.register(name, MetricKind::Gauge);
        self.gauge_max(core, id, value);
    }

    /// Registers (or looks up) the latency histogram `<span>.cycles` that
    /// closing a span named `span` records into.
    ///
    /// The snapshot name is rendered once here, so span ends pass only
    /// the static span name and never format a string on the simulation
    /// hot path (lint AQ007).
    pub fn register_span(&self, span: &'static str) -> HistId {
        if let Some(&id) = self.regs.read().span_hists.get(span) {
            return id;
        }
        let mut regs = self.regs.write();
        if let Some(&id) = regs.span_hists.get(span) {
            return id;
        }
        let id = HistId(regs.hist_names.len());
        regs.hist_names.push(format!("{span}.cycles"));
        regs.span_hists.insert(span, id);
        id
    }

    /// Registers (or looks up) a tenant-labeled latency histogram.
    ///
    /// The snapshot name is `base[tNN]` (zero-padded, so labeled rows
    /// sort numerically), rendered once here — recording sites pass only
    /// the static `base` and the small `index`, keeping string formatting
    /// off the simulation hot path (lint AQ007).
    pub fn register_hist_labeled(&self, base: &'static str, index: u16) -> HistId {
        if let Some(&id) = self.regs.read().hist_labels.get(&(base, index)) {
            return id;
        }
        let mut regs = self.regs.write();
        if let Some(&id) = regs.hist_labels.get(&(base, index)) {
            return id;
        }
        let id = HistId(regs.hist_names.len());
        regs.hist_names.push(format!("{base}[t{index:02}]"));
        regs.hist_labels.insert((base, index), id);
        id
    }

    /// Records one latency sample into a histogram on `core`'s shard.
    pub fn record(&self, core: usize, id: HistId, v: Cycles) {
        let shard = &self.hist_shards[core % self.hist_shards.len()];
        let mut hists = shard.lock();
        if hists.len() <= id.0 {
            hists.resize_with(id.0 + 1, LatencyHist::new);
        }
        hists[id.0].record(v);
    }

    /// Records a closed span's duration into its `<span>.cycles`
    /// histogram.
    pub fn record_span(&self, core: usize, span: &'static str, v: Cycles) {
        let id = self.register_span(span);
        self.record(core, id, v);
    }

    /// Registers-and-records into a tenant-labeled histogram.
    pub fn record_named_labeled(&self, core: usize, base: &'static str, index: u16, v: Cycles) {
        let id = self.register_hist_labeled(base, index);
        self.record(core, id, v);
    }

    /// Number of shards (virtual cores).
    pub fn cores(&self) -> usize {
        self.shards.len()
    }

    /// Merges all shards into a name-sorted snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let regs = self.regs.read();
        let mut entries: Vec<(String, MetricKind, u64)> = regs
            .names
            .iter()
            .map(|&(n, k)| (n.to_string(), k, 0u64))
            .collect();
        for shard in &self.shards {
            let values = shard.lock();
            for (slot, &v) in values.iter().enumerate() {
                let (_, kind, acc) = &mut entries[slot];
                match kind {
                    MetricKind::Counter => *acc += v,
                    MetricKind::Gauge => *acc = (*acc).max(v),
                }
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        // Merge histogram shards in shard order: bucket-wise sums commute,
        // so the merged distribution is deterministic regardless.
        let mut hists: Vec<(String, LatencyHist)> = regs
            .hist_names
            .iter()
            .map(|n| (n.clone(), LatencyHist::new()))
            .collect();
        for shard in &self.hist_shards {
            let shard_hists = shard.lock();
            for (slot, h) in shard_hists.iter().enumerate() {
                hists[slot].1.merge(h);
            }
        }
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { entries, hists }
    }
}

impl core::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "MetricsRegistry {{ metrics: {}, cores: {} }}",
            self.regs.read().names.len(),
            self.shards.len()
        )
    }
}

/// A merged, name-sorted view of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    entries: Vec<(String, MetricKind, u64)>,
    hists: Vec<(String, LatencyHist)>,
}

impl MetricsSnapshot {
    /// `(name, kind, merged value)` rows, sorted by name.
    pub fn entries(&self) -> &[(String, MetricKind, u64)] {
        &self.entries
    }

    /// Looks up a metric's merged value by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
    }

    /// `(name, merged histogram)` rows, sorted by name.
    pub fn hists(&self) -> &[(String, LatencyHist)] {
        &self.hists
    }

    /// Looks up a merged latency histogram by name.
    pub fn hist(&self, name: &str) -> Option<&LatencyHist> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Whether no metrics (of any kind) are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.hists.is_empty()
    }
}

static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();

/// Installs a process-global registry for `cores` cores and returns it.
/// If one is already installed, the existing registry is returned.
pub fn install(cores: usize) -> Arc<MetricsRegistry> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new(cores))))
}

/// The installed global registry, if any.
pub fn global() -> Option<&'static Arc<MetricsRegistry>> {
    GLOBAL.get()
}

/// Bumps a named counter on the calling vcore (no-op when no registry is
/// installed; never charges cycles).
#[inline]
pub fn add(ctx: &dyn SimCtx, name: &'static str, delta: u64) {
    if let Some(m) = GLOBAL.get() {
        m.add_named(ctx.core(), name, delta);
    }
}

/// Records a named gauge sample (per-core maximum) on the calling vcore.
#[inline]
pub fn gauge(ctx: &dyn SimCtx, name: &'static str, value: u64) {
    if let Some(m) = GLOBAL.get() {
        m.gauge_named(ctx.core(), name, value);
    }
}

/// Records a latency sample into a tenant-labeled histogram (`base[tNN]`)
/// on the calling vcore. The base name must be a static literal; only the
/// small tenant index varies — no string formatting on the hot path.
///
/// This is the one explicit sample recorder; every other histogram is a
/// span's duration ([`crate::span::end`]). It stays because its samples
/// are not span windows: `serve.request.cycles` runs from a request's
/// open-loop *scheduled* arrival, and `session.op.cycles` is per tenant.
#[inline]
pub fn record_latency_labeled(ctx: &dyn SimCtx, base: &'static str, index: u16, v: Cycles) {
    if let Some(m) = GLOBAL.get() {
        m.record_named_labeled(ctx.core(), base, index, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_cores() {
        let m = MetricsRegistry::new(4);
        let id = m.register("faults", MetricKind::Counter);
        m.add(0, id, 3);
        m.add(1, id, 4);
        m.add(3, id, 5);
        assert_eq!(m.snapshot().get("faults"), Some(12));
    }

    #[test]
    fn gauges_take_max_across_cores() {
        let m = MetricsRegistry::new(2);
        let id = m.register("queue_depth", MetricKind::Gauge);
        m.gauge_max(0, id, 9);
        m.gauge_max(0, id, 4); // lower sample does not regress the max
        m.gauge_max(1, id, 7);
        assert_eq!(m.snapshot().get("queue_depth"), Some(9));
    }

    #[test]
    fn register_is_idempotent() {
        let m = MetricsRegistry::new(1);
        let a = m.register("x", MetricKind::Counter);
        let b = m.register("x", MetricKind::Counter);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_conflict_panics() {
        let m = MetricsRegistry::new(1);
        m.register("x", MetricKind::Counter);
        m.register("x", MetricKind::Gauge);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let m = MetricsRegistry::new(1);
        m.add_named(0, "zeta", 1);
        m.add_named(0, "alpha", 1);
        let snap = m.snapshot();
        let names: Vec<&str> = snap.entries().iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn unregistered_lookup_is_none() {
        let m = MetricsRegistry::new(1);
        assert!(m.snapshot().get("nope").is_none());
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn core_out_of_range_wraps() {
        let m = MetricsRegistry::new(2);
        m.add_named(17, "wrapped", 1); // 17 % 2 == shard 1
        assert_eq!(m.snapshot().get("wrapped"), Some(1));
    }

    #[test]
    fn hist_shards_merge_deterministically() {
        let m = MetricsRegistry::new(4);
        let id = m.register_span("fault");
        m.record(0, id, Cycles(100));
        m.record(1, id, Cycles(300));
        m.record(3, id, Cycles(500));
        let snap = m.snapshot();
        let h = snap.hist("fault.cycles").expect("merged hist");
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 900);
        assert_eq!(h.min(), Cycles(100));
        assert_eq!(h.max(), Cycles(500));
        // Two snapshots of the same registry agree bucket-for-bucket.
        let again = m.snapshot();
        let h2 = again.hist("fault.cycles").unwrap();
        assert_eq!(h.quantile(0.5), h2.quantile(0.5));
        assert_eq!(h.quantile(0.999), h2.quantile(0.999));
    }

    #[test]
    fn hist_register_is_idempotent_and_name_sorted() {
        let m = MetricsRegistry::new(1);
        let a = m.register_span("zeta");
        let b = m.register_span("zeta");
        assert_eq!(a, b);
        m.record_span(0, "alpha", Cycles(7));
        let snap = m.snapshot();
        let names: Vec<&str> = snap.hists().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha.cycles", "zeta.cycles"]);
        // Registered-but-never-recorded histograms still appear (empty).
        assert_eq!(snap.hist("zeta.cycles").unwrap().count(), 0);
    }

    #[test]
    fn labeled_hists_render_once_and_sort_stably() {
        let m = MetricsRegistry::new(2);
        let a = m.register_hist_labeled("serve.req.cycles", 3);
        let b = m.register_hist_labeled("serve.req.cycles", 3);
        assert_eq!(a, b, "same (base, index) is one histogram");
        let c = m.register_hist_labeled("serve.req.cycles", 11);
        assert_ne!(a, c);
        m.record(0, a, Cycles(100));
        m.record(1, a, Cycles(200));
        m.record_named_labeled(0, "serve.req.cycles", 11, Cycles(900));
        let snap = m.snapshot();
        let h3 = snap.hist("serve.req.cycles[t03]").expect("labeled name");
        assert_eq!(h3.count(), 2);
        assert_eq!(h3.sum(), 300);
        assert_eq!(snap.hist("serve.req.cycles[t11]").unwrap().count(), 1);
        // Zero-padding keeps tenant rows in numeric order after the
        // snapshot's lexicographic sort.
        let names: Vec<&str> = snap.hists().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["serve.req.cycles[t03]", "serve.req.cycles[t11]"]
        );
    }

    #[test]
    fn labeled_and_plain_hists_share_the_registry() {
        let m = MetricsRegistry::new(1);
        m.record_span(0, "serve.req", Cycles(5));
        m.record_named_labeled(0, "serve.req.cycles", 0, Cycles(7));
        let snap = m.snapshot();
        assert_eq!(snap.hist("serve.req.cycles").unwrap().sum(), 5);
        assert_eq!(snap.hist("serve.req.cycles[t00]").unwrap().sum(), 7);
    }

    #[test]
    fn hists_and_scalars_are_independent_namespaces() {
        let m = MetricsRegistry::new(1);
        m.add_named(0, "x", 2);
        m.record_span(0, "x", Cycles(9));
        let snap = m.snapshot();
        assert_eq!(snap.get("x"), Some(2));
        assert_eq!(snap.hist("x.cycles").unwrap().count(), 1);
        assert!(!snap.is_empty());
    }
}
