//! A registry of latency histograms, sharded per virtual core.
//!
//! Events are counted in the typed, per-thread
//! [`crate::stats::Counters`]; this registry holds the distributions a
//! count cannot show. Each vcore records into its own shard without
//! synchronizing with the others, and a [`MetricsRegistry::snapshot`]
//! merges the shards in shard order — a deterministic bucket-wise sum,
//! so the merged distribution is a pure function of the run. Closing a
//! [`crate::span`] records its duration into the histogram
//! `<name>.cycles`; [`record_latency_labeled`] is the one explicit
//! sample recorder.
//!
//! Like tracing, the registry never charges virtual cycles; with none
//! installed each recording site costs one atomic load.

use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use aquila_sync::DetMap;

use crate::engine::SimCtx;
use crate::hist::LatencyHist;
use crate::lock_shared;
use crate::time::Cycles;

/// A registered latency histogram's slot (index into every hist shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

struct Registrations {
    hist_names: Vec<String>,
    // Span histograms, keyed by the static span name; the display name
    // `name.cycles` is rendered once, at registration.
    span_hists: DetMap<&'static str, HistId>,
    // Tenant-labeled histograms: keyed by (static base name, tenant index)
    // so hot recording paths never format strings — the display name
    // `base[tNN]` is rendered exactly once, at registration.
    hist_labels: DetMap<(&'static str, u16), HistId>,
}

/// Named latency histograms with one shard per virtual core.
///
/// Its locks are `std`'s: the installed global registry is shared by
/// parallel test threads.
pub struct MetricsRegistry {
    regs: RwLock<Registrations>,
    hist_shards: Vec<Mutex<Vec<LatencyHist>>>,
}

impl MetricsRegistry {
    /// Creates a registry for a machine of `cores` virtual cores.
    pub fn new(cores: usize) -> MetricsRegistry {
        let cores = cores.max(1);
        MetricsRegistry {
            regs: RwLock::new(Registrations {
                hist_names: Vec::new(),
                span_hists: DetMap::new(),
                hist_labels: DetMap::new(),
            }),
            hist_shards: (0..cores).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn regs(&self) -> RwLockReadGuard<'_, Registrations> {
        self.regs.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn regs_mut(&self) -> RwLockWriteGuard<'_, Registrations> {
        self.regs.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or looks up) the latency histogram `<span>.cycles` that
    /// closing a span named `span` records into.
    ///
    /// The snapshot name is rendered once here, so span ends pass only
    /// the static span name and never format a string on the simulation
    /// hot path (lint AQ007).
    pub fn register_span(&self, span: &'static str) -> HistId {
        if let Some(&id) = self.regs().span_hists.get(span) {
            return id;
        }
        let mut regs = self.regs_mut();
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
        if let Some(&id) = self.regs().hist_labels.get(&(base, index)) {
            return id;
        }
        let mut regs = self.regs_mut();
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
        let mut hists = lock_shared(shard);
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

    /// Merges all shards into a name-sorted snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let regs = self.regs();
        // Merge histogram shards in shard order: bucket-wise sums commute,
        // so the merged distribution is deterministic regardless.
        let mut hists: Vec<(String, LatencyHist)> = regs
            .hist_names
            .iter()
            .map(|n| (n.clone(), LatencyHist::new()))
            .collect();
        for shard in &self.hist_shards {
            let shard_hists = lock_shared(shard);
            for (slot, h) in shard_hists.iter().enumerate() {
                hists[slot].1.merge(h);
            }
        }
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { hists }
    }
}

impl core::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "MetricsRegistry {{ hists: {}, cores: {} }}",
            self.regs().hist_names.len(),
            self.hist_shards.len()
        )
    }
}

/// A merged, name-sorted view of every registered histogram.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    hists: Vec<(String, LatencyHist)>,
}

impl MetricsSnapshot {
    /// `(name, merged histogram)` rows, sorted by name.
    pub fn hists(&self) -> &[(String, LatencyHist)] {
        &self.hists
    }

    /// Looks up a merged latency histogram by name.
    pub fn hist(&self, name: &str) -> Option<&LatencyHist> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Whether no histograms are registered.
    pub fn is_empty(&self) -> bool {
        self.hists.is_empty()
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
    fn unregistered_lookup_is_none() {
        let m = MetricsRegistry::new(1);
        assert!(m.snapshot().hist("nope").is_none());
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn core_out_of_range_wraps() {
        let m = MetricsRegistry::new(2);
        m.record_span(17, "wrapped", Cycles(3)); // 17 % 2 == shard 1
        assert_eq!(m.snapshot().hist("wrapped.cycles").unwrap().count(), 1);
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
}
