//! Deterministic multi-tenant storage serving over the Aquila engine
//! (DESIGN.md §15).
//!
//! N tenants share one page cache through the tenant-scoped session API
//! ([`aquila::Tenant`]/[`aquila::Session`]): each tenant declares a
//! [`TenantSpec`] (id and frame quota) and a p99 SLO in its
//! [`TenantProfile`], and runs a set of simulated client sessions as
//! DES virtual threads, driven by seeded open-loop [`Arrival`]
//! processes in virtual time. Request latency is measured from the
//! *scheduled* arrival to completion, so queueing delay — the thing
//! multi-tenant interference actually inflates — lands in the
//! histograms instead of being absorbed by a self-throttling client.
//!
//! The harness is a pure function of its [`ServeConfig`]: the same
//! seed reproduces every arrival, every page choice, and every
//! eviction bit-for-bit, which is what lets `aquila-prof check` gate
//! per-tenant percentiles against golden records.

#![forbid(unsafe_code)]

pub mod arrival;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use aquila::{
    Advice, AquilaRuntime, DeviceKind, IntegrityCounters, MmioPolicy, Prot, Session, Tenant,
    TenantSpec, WritePolicy,
};
use aquila_sim::{CostCat, Counters, Cycles, Engine, FreeCtx, LatencyHist, SimCtx, Step, Zipfian};

pub use arrival::{Arrival, ArrivalGen};

/// One tenant's declared workload.
#[derive(Debug, Clone)]
pub struct TenantProfile {
    /// Identity and quota (installed in the cache at setup).
    pub spec: TenantSpec,
    /// Declared p99 request-latency SLO, for reporting and gating; the
    /// engine never reads it.
    pub slo_p99: Cycles,
    /// Human-readable role, carried into reports ("protected",
    /// "zipf-hot", ...).
    pub label: String,
    /// Arrival process driving every session of this tenant.
    pub arrival: Arrival,
    /// Pages of the tenant's file (its working-set ceiling).
    pub footprint_pages: u64,
    /// Page-choice skew: `Some(theta)` draws pages Zipfian-hot over the
    /// footprint, `None` draws them uniformly.
    pub zipf_theta: Option<f64>,
    /// Fraction of requests that are stores (the rest are loads).
    pub write_fraction: f64,
    /// Touch every footprint page at setup (outside measured virtual
    /// time), so the run measures steady-state behaviour rather than
    /// cold-start fills. A warmed working set only stays resident if
    /// eviction leaves it alone — which is exactly what the QoS
    /// experiments are about.
    pub warm: bool,
    /// Simulated client connections (DES virtual threads).
    pub sessions: usize,
    /// Open-loop arrivals each session issues before closing.
    pub requests_per_session: u64,
}

/// The whole serving experiment: shared cache, QoS switch, tenant set.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Seed for the engine and every session's RNG stream.
    pub seed: u64,
    /// Cores the sessions are round-robined onto (the evictor gets one
    /// more). Sessions may outnumber cores arbitrarily — each is its
    /// own virtual thread.
    pub worker_cores: usize,
    /// Shared page-cache size in frames.
    pub cache_frames: usize,
    /// Enables tenant QoS: each tenant's declared quota is installed in
    /// the engine, which then applies quota self-reclaim on the fault
    /// path and overage-fair eviction. Off registers every tenant with
    /// no quota: a free-for-all.
    pub qos: bool,
    /// Replicates the NVMe backend 2-for-1 with per-sector checksums
    /// and read-repair (DESIGN.md §16). Required for integrity runs
    /// under silent-corruption storms.
    pub mirror: bool,
    /// Virtual-time pacing of the background scrubber thread; ZERO
    /// disables scrubbing. Only meaningful with `mirror` on.
    pub scrub_rate: Cycles,
    /// The tenants.
    pub tenants: Vec<TenantProfile>,
}

/// What one tenant experienced, aggregated over its sessions in
/// deterministic (tenant, session) order.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant id (histogram label index).
    pub id: u16,
    /// Profile label.
    pub label: String,
    /// Declared frame quota (0 = unlimited).
    pub quota_frames: usize,
    /// Declared p99 SLO.
    pub slo_p99: Cycles,
    /// End-to-end request latencies (completion − scheduled arrival)
    /// of every request.
    pub hist: LatencyHist,
    /// Requests issued.
    pub requests: u64,
    /// Frames still on the tenant's account when the run ended.
    pub resident_at_end: usize,
}

impl TenantOutcome {
    /// Whether the measured p99 met the declared SLO.
    pub fn slo_met(&self) -> bool {
        self.hist.quantile(0.99) <= self.slo_p99
    }
}

/// Result of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-tenant outcomes, in config order.
    pub tenants: Vec<TenantOutcome>,
    /// Virtual time when the last session closed.
    pub makespan: Cycles,
    /// Event counters of every engine thread (sessions, evictor,
    /// scrubber).
    pub counters: Counters,
    /// End-of-run integrity counters from the mirrored backend;
    /// `None` unless the run was configured with `mirror`.
    pub integrity: Option<IntegrityCounters>,
}

impl ServeReport {
    /// Total requests issued across all tenants.
    pub fn total_requests(&self) -> u64 {
        self.tenants.iter().map(|t| t.requests).sum()
    }
}

/// Builds the serving policy: async write-behind with a dedicated
/// evictor vcore on `worker_cores`, watermarks scaled to the cache.
fn serve_policy(cfg: &ServeConfig) -> MmioPolicy {
    MmioPolicy {
        low_watermark: (cfg.cache_frames / 16).max(8),
        high_watermark: (cfg.cache_frames / 8).max(16),
        evictor_cores: vec![cfg.worker_cores],
        write_policy: WritePolicy::Async,
        queue_depth: 4,
        mirror: cfg.mirror,
        ..MmioPolicy::default()
    }
}

/// Runs the experiment to completion and reports per-tenant outcomes.
///
/// # Panics
///
/// Panics on configuration errors (no tenants, zero sessions) and on
/// any engine error: a serving run serves every request.
pub fn run(cfg: &ServeConfig) -> ServeReport {
    assert!(!cfg.tenants.is_empty(), "serve needs at least one tenant");
    assert!(cfg.worker_cores > 0, "serve needs at least one worker core");
    let cores = cfg.worker_cores + 1; // + evictor
    let device_pages: u64 = cfg.tenants.iter().map(|t| t.footprint_pages).sum::<u64>() + 4096;

    let mut engine = Engine::new(cores, cfg.seed);
    let mut ctx = FreeCtx::new(cfg.seed);
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::NvmeSpdk,
        device_pages,
        cfg.cache_frames,
        cores,
        engine.debts(),
        serve_policy(cfg),
    );

    let total_sessions: usize = cfg.tenants.iter().map(|t| t.sessions).sum();
    assert!(total_sessions > 0, "serve needs at least one session");
    let stop = Arc::new(AtomicBool::new(false));
    let live = Arc::new(AtomicUsize::new(total_sessions));

    let mut tenants: Vec<Arc<Tenant>> = Vec::new();
    // Per-tenant, per-session latency histograms, merged after the run
    // in (tenant, session) order so aggregation is interleaving-free.
    let mut hists: Vec<Rc<RefCell<Vec<LatencyHist>>>> = Vec::new();
    let mut core_rr = 0usize;
    for (ti, prof) in cfg.tenants.iter().enumerate() {
        assert!(prof.sessions > 0, "tenant {ti} has no sessions");
        let spec = TenantSpec {
            id: prof.spec.id,
            quota_frames: if cfg.qos { prof.spec.quota_frames } else { 0 },
        };
        let tenant = Tenant::register(Arc::clone(&rt.aquila), spec);
        let file = tenant
            .open(&rt, &format!("/serve/t{ti}"), prof.footprint_pages)
            .expect("open tenant file");
        let addr = rt
            .aquila
            .mmap(&mut ctx, file, 0, prof.footprint_pages, Prot::RW)
            .expect("map tenant file");
        rt.aquila
            .madvise(&mut ctx, addr, prof.footprint_pages, Advice::Random)
            .expect("madvise");
        if prof.warm {
            let mut buf = [0u8; 8];
            for p in 0..prof.footprint_pages {
                rt.aquila
                    .read(&mut ctx, addr.add(p * 4096 + 64), &mut buf)
                    .expect("warm");
            }
        }
        let zipf = prof
            .zipf_theta
            .map(|th| Zipfian::new(prof.footprint_pages, th));
        let tenant_hists: Rc<RefCell<Vec<LatencyHist>>> = Rc::new(RefCell::new(
            (0..prof.sessions).map(|_| LatencyHist::new()).collect(),
        ));
        for s in 0..prof.sessions {
            let sess: Session = tenant.session();
            let zipf = zipf.clone();
            let hists = Rc::clone(&tenant_hists);
            let stop = Arc::clone(&stop);
            let live = Arc::clone(&live);
            let mut gen = ArrivalGen::new(prof.arrival);
            let footprint = prof.footprint_pages;
            let write_fraction = prof.write_fraction;
            let quota = prof.requests_per_session;
            let mut scheduled = Cycles::ZERO;
            let mut first = true;
            let mut done = 0u64;
            engine.spawn(
                core_rr % cfg.worker_cores,
                Box::new(move |ctx| {
                    if first {
                        // The first arrival is one gap past t=0 so no
                        // session fires at the exact origin.
                        scheduled = gen.next_gap(ctx.rng(), Cycles::ZERO);
                        first = false;
                    }
                    ctx.wait_until(scheduled, CostCat::Idle);
                    let page = match &zipf {
                        Some(z) => z.sample(ctx.rng()),
                        None => ctx.rng().below(footprint),
                    };
                    let off = page * 4096 + 64;
                    let is_write = ctx.rng().chance(write_fraction);
                    let r = if is_write {
                        sess.write(ctx, addr.add(off), &page.to_le_bytes())
                    } else {
                        let mut buf = [0u8; 8];
                        sess.read(ctx, addr.add(off), &mut buf)
                    };
                    if let Err(e) = r {
                        panic!("serve request failed: {e}");
                    }
                    let lat = ctx.now().saturating_sub(scheduled);
                    hists.borrow_mut()[s].record(lat);
                    aquila_sim::metrics::record_latency_labeled(
                        ctx,
                        "serve.request.cycles",
                        sess.tenant().id(),
                        lat,
                    );
                    scheduled = scheduled + gen.next_gap(ctx.rng(), scheduled);
                    done += 1;
                    if done >= quota {
                        if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                            stop.store(true, Ordering::Release);
                        }
                        Step::Done
                    } else {
                        Step::Yield
                    }
                }),
            );
            core_rr += 1;
        }
        tenants.push(tenant);
        hists.push(tenant_hists);
    }
    engine.spawn(
        cfg.worker_cores,
        rt.aquila.evictor(Arc::clone(&stop), Cycles::from_micros(2)),
    );
    if cfg.mirror && cfg.scrub_rate > Cycles::ZERO {
        // The scrubber shares the housekeeping core with the evictor:
        // both are paced in virtual time, so they interleave cleanly.
        engine.spawn(
            cfg.worker_cores,
            rt.aquila
                .scrubber(Arc::clone(&rt.access), Arc::clone(&stop), cfg.scrub_rate),
        );
    }
    let report = engine.run();
    let integrity = rt.access.integrity_counters();

    let outcomes = cfg
        .tenants
        .iter()
        .zip(&tenants)
        .zip(&hists)
        .map(|((prof, tenant), th)| {
            let mut hist = LatencyHist::new();
            for h in th.borrow().iter() {
                hist.merge(h);
            }
            TenantOutcome {
                id: prof.spec.id,
                label: prof.label.clone(),
                quota_frames: prof.spec.quota_frames,
                slo_p99: prof.slo_p99,
                hist,
                requests: tenant.requests(),
                resident_at_end: tenant.resident_frames(),
            }
        })
        .collect();
    ServeReport {
        tenants: outcomes,
        makespan: report.makespan,
        counters: report.counters,
        integrity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(qos: bool, seed: u64) -> ServeConfig {
        ServeConfig {
            seed,
            worker_cores: 4,
            cache_frames: 256,
            qos,
            mirror: false,
            scrub_rate: Cycles::ZERO,
            tenants: vec![
                TenantProfile {
                    spec: TenantSpec {
                        id: 1,
                        quota_frames: 128,
                    },
                    slo_p99: Cycles::from_millis(10),
                    label: "steady".into(),
                    arrival: Arrival::Poisson {
                        mean: Cycles::from_micros(20),
                    },
                    footprint_pages: 96,
                    zipf_theta: None,
                    write_fraction: 0.2,
                    warm: true,
                    sessions: 2,
                    requests_per_session: 60,
                },
                TenantProfile {
                    spec: TenantSpec {
                        id: 2,
                        quota_frames: 64,
                    },
                    slo_p99: Cycles::from_millis(10),
                    label: "hot".into(),
                    arrival: Arrival::Bursty {
                        mean: Cycles::from_micros(5),
                        burst: 16,
                        calm: 40,
                    },
                    footprint_pages: 512,
                    zipf_theta: Some(0.99),
                    write_fraction: 0.5,
                    warm: false,
                    sessions: 2,
                    requests_per_session: 60,
                },
            ],
        }
    }

    #[test]
    fn run_is_bit_deterministic_for_equal_seeds() {
        let a = run(&small_cfg(true, 0xC0FFEE));
        let b = run(&small_cfg(true, 0xC0FFEE));
        assert_eq!(a.makespan, b.makespan);
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.requests, y.requests);
            assert_eq!(x.hist.count(), y.hist.count());
            assert_eq!(x.hist.quantile(0.99), y.hist.quantile(0.99));
            assert_eq!(x.resident_at_end, y.resident_at_end);
        }
    }

    #[test]
    fn open_loop_issues_every_scheduled_arrival() {
        let r = run(&small_cfg(true, 7));
        // Open loop: backlog never swallows an arrival — every
        // scheduled request is issued, served and timed.
        for (t, prof) in r.tenants.iter().zip(&small_cfg(true, 7).tenants) {
            let want = prof.sessions as u64 * prof.requests_per_session;
            assert_eq!(t.requests, want, "tenant {} lost arrivals", t.id);
            assert_eq!(t.hist.count(), want);
        }
    }

    #[test]
    fn mirrored_run_with_scrubber_is_clean_and_deterministic() {
        let mirrored = |seed| {
            let mut cfg = small_cfg(true, seed);
            cfg.mirror = true;
            cfg.scrub_rate = Cycles::from_micros(5);
            run(&cfg)
        };
        let a = mirrored(11);
        let c = a.integrity.expect("mirrored run carries counters");
        assert_eq!(c.undetected(), 0, "no corruption slipped through: {c:?}");
        assert_eq!(c.unrepairable, 0, "fault-free run has nothing to lose");
        let b = mirrored(11);
        assert_eq!(a.makespan, b.makespan, "scrubber preserves determinism");
        assert!(
            run(&small_cfg(true, 11)).integrity.is_none(),
            "unmirrored runs carry no counters"
        );
    }

    #[test]
    fn slo_verdict_follows_the_declared_bound() {
        let mut o = TenantOutcome {
            id: 1,
            label: "x".into(),
            quota_frames: 0,
            slo_p99: Cycles(100),
            hist: LatencyHist::new(),
            requests: 1,
            resident_at_end: 0,
        };
        o.hist.record(Cycles(50));
        assert!(o.slo_met());
        o.slo_p99 = Cycles(10);
        assert!(!o.slo_met());
    }
}
