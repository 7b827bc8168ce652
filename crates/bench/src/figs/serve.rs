//! Multi-tenant serving (beyond the paper's numbered figures): per-tenant
//! QoS over a shared page cache, measured open loop.
//!
//! Eight tenants share one mmio cache through the tenant-scoped session
//! API. One tenant is *protected*: steady Poisson load, warmed working
//! set inside its declared quota, and a p99 SLO. One is a *zipf-hot*
//! noisy neighbor: bursty arrivals over a footprint 4x the whole cache,
//! drawn Zipfian-hot so it keeps re-heating the same frames. Six
//! background tenants trickle along. The experiment runs twice from the
//! same seed — QoS on, then off (no tenant declares its quota to the
//! engine) — and reports every tenant's latency percentiles against its
//! SLO (the JSON record's `tenants` section).
//!
//! Expected: with QoS on, quota self-reclaim keeps the noisy neighbor's
//! pressure on its own frames (it holds at most one 8-frame
//! self-reclaim batch over its quota), so the protected tenant's p99
//! stays at cache-hit latency and inside its SLO; with QoS off the
//! neighbor evicts the protected working set and the refault tail
//! blows the SLO.

use aquila::TenantSpec;
use aquila_serve::{run, Arrival, ServeConfig, TenantProfile};
use aquila_sim::Cycles;

use crate::report::{banner, JsonReport};
use crate::{BenchArgs, Runner};

/// The protected tenant's declared p99 SLO. Cache-hit service sits two
/// orders of magnitude under this; a single NVMe refault sits well
/// over it.
const PROTECTED_SLO: Cycles = Cycles::from_micros(20);

const CACHE_FRAMES: usize = 1024;
const WORKER_CORES: usize = 8;

/// The eight-tenant cast: protected + zipf-hot neighbor + six
/// background tenants.
fn tenant_set(reqs: u64) -> Vec<TenantProfile> {
    let mut tenants = vec![
        TenantProfile {
            spec: TenantSpec {
                id: 1,
                quota_frames: 256,
            },
            slo_p99: PROTECTED_SLO,
            label: "protected".into(),
            arrival: Arrival::Poisson {
                mean: Cycles::from_micros(100),
            },
            footprint_pages: 192,
            zipf_theta: None,
            write_fraction: 0.1,
            warm: true,
            sessions: 2,
            requests_per_session: reqs * 2,
        },
        TenantProfile {
            spec: TenantSpec {
                id: 2,
                quota_frames: 256,
            },
            slo_p99: Cycles::from_millis(2),
            label: "zipf-hot".into(),
            arrival: Arrival::Bursty {
                mean: Cycles::from_micros(1),
                burst: 128,
                calm: 100,
            },
            footprint_pages: 8192,
            zipf_theta: Some(0.99),
            write_fraction: 0.5,
            warm: false,
            sessions: 4,
            requests_per_session: reqs * 4,
        },
    ];
    for id in 3..=8u16 {
        tenants.push(TenantProfile {
            spec: TenantSpec {
                id,
                quota_frames: 128,
            },
            slo_p99: Cycles::from_millis(5),
            label: format!("background-{id}"),
            arrival: Arrival::Poisson {
                mean: Cycles::from_micros(60),
            },
            footprint_pages: 256,
            zipf_theta: None,
            write_fraction: 0.3,
            warm: false,
            sessions: 1,
            requests_per_session: reqs / 2,
        });
    }
    tenants
}

pub(crate) fn part_qos(args: &BenchArgs, json: &mut JsonReport) {
    let reqs: u64 = if args.has_flag("--full") { 800 } else { 200 };
    banner(
        "Serve (qos): 8 tenants, open-loop Poisson + bursty arrivals, QoS on vs off",
        "expected: protected tenant's p99 meets its SLO with QoS on; the zipf-hot neighbor blows it with QoS off",
    );
    for (qos, tag) in [(true, "qos_on"), (false, "qos_off")] {
        let cfg = ServeConfig {
            seed: 0x5E47E,
            worker_cores: WORKER_CORES,
            cache_frames: CACHE_FRAMES,
            qos,
            mirror: false,
            scrub_rate: Cycles::ZERO,
            tenants: tenant_set(reqs),
        };
        let report = run(&cfg);
        println!(
            "[{tag}] {} tenants, {} requests, makespan {:.3} ms",
            report.tenants.len(),
            report.total_requests(),
            report.makespan.as_secs_f64() * 1e3,
        );
        println!(
            "  {:<14} {:>6} {:>7} {:>10} {:>10} {:>10} {:>10} {:>5}",
            "tenant", "quota", "reqs", "p50", "p99", "p99.9", "SLO", "met"
        );
        for t in &report.tenants {
            println!(
                "  {:<14} {:>6} {:>7} {:>10} {:>10} {:>10} {:>10} {:>5}",
                t.label,
                t.quota_frames,
                t.requests,
                t.hist.quantile(0.5).get(),
                t.hist.quantile(0.99).get(),
                t.hist.quantile(0.999).get(),
                t.slo_p99.get(),
                if t.slo_met() { "yes" } else { "NO" },
            );
            json.add_tenant(t, format!("{tag}/{}", t.label));
        }
        let protected = &report.tenants[0];
        let noisy = &report.tenants[1];
        json.add_scalar(
            format!("serve/{tag}/protected_p99_cycles"),
            protected.hist.quantile(0.99).get() as f64,
        );
        json.add_scalar(
            format!("serve/{tag}/protected_slo_met"),
            if protected.slo_met() { 1.0 } else { 0.0 },
        );
        json.add_scalar(
            format!("serve/{tag}/noisy_resident_frames"),
            noisy.resident_at_end as f64,
        );
    }
}

/// The default silent-corruption storm for `serve integrity`. Every
/// clause is a *silent* kind (bit flips, latent sectors) and the
/// mirrored build attaches the global plan to the primary device only,
/// so each injected fault is repairable from the clean replica — the
/// run must finish with `unrepairable == 0` and `undetected == 0`.
const INTEGRITY_STORM: &str = "nvme.write:corrupt=8@op=6; nvme.read:corrupt=2@op=9; \
     nvme.write:corrupt=4@op=30; nvme.read:latent=2@op=24; nvme.write:latent=1@op=50";

pub(crate) fn part_integrity(args: &BenchArgs, json: &mut JsonReport) {
    let reqs: u64 = if args.has_flag("--full") { 800 } else { 200 };
    banner(
        "Serve (integrity): 8-tenant QoS workload under a silent-corruption storm, mirrored + scrubbed",
        "expected: every injected corruption is detected by sector checksums and repaired from the replica; zero corrupted payloads acked",
    );
    // Install the default storm; a user-supplied `--faults` spec was
    // installed earlier and wins (global install is first-come).
    let _ = aquila_sim::fault::install_spec(INTEGRITY_STORM);
    let cfg = ServeConfig {
        seed: 0x1D7E6,
        worker_cores: WORKER_CORES,
        cache_frames: CACHE_FRAMES,
        qos: true,
        mirror: true,
        scrub_rate: Cycles::from_micros(1),
        tenants: tenant_set(reqs),
    };
    let report = run(&cfg);
    let c = report
        .integrity
        .expect("mirrored serve run reports integrity counters");
    let injected = aquila_sim::fault::global().map_or(0, |p| p.injected());
    println!(
        "[integrity] {} faults injected, {} detected, {} repaired ({} skipped), {} unrepairable, {} undetected",
        injected, c.detected, c.repaired, c.repair_skipped, c.unrepairable, c.undetected(),
    );
    println!(
        "  {} mirrored write commands through deep queue pairs",
        c.queued_writes
    );
    assert_eq!(
        c.undetected(),
        0,
        "integrity invariant violated: corrupted payload acked to a session ({c:?})"
    );
    for t in &report.tenants {
        json.add_tenant(t, format!("integrity/{}", t.label));
    }
    let protected = &report.tenants[0];
    println!(
        "  protected tenant p99 {} (SLO {}, {})",
        protected.hist.quantile(0.99),
        protected.slo_p99,
        if protected.slo_met() { "met" } else { "MISSED" },
    );
    json.set_integrity(&c);
    json.add_counters("serve/integrity", &report.counters);
    json.add_scalar("integrity/injected", injected as f64);
    json.add_scalar("integrity/detected", c.detected as f64);
    json.add_scalar("integrity/repaired", c.repaired as f64);
    json.add_scalar("integrity/unrepairable", c.unrepairable as f64);
    json.add_scalar("integrity/undetected", c.undetected() as f64);
    json.add_scalar("integrity/queued_writes", c.queued_writes as f64);
    json.add_scalar(
        "serve/integrity/protected_p99_cycles",
        protected.hist.quantile(0.99).get() as f64,
    );
    json.add_scalar(
        "serve/integrity/protected_slo_met",
        if protected.slo_met() { 1.0 } else { 0.0 },
    );
}

fn part_diurnal(args: &BenchArgs, json: &mut JsonReport) {
    let reqs: u64 = if args.has_flag("--full") { 1200 } else { 400 };
    banner(
        "Serve (diurnal): sinusoidally modulated load next to a steady tenant",
        "expected: the diurnal tenant's arrival count matches the steady one's at equal mean rate, with a wider latency spread at peak",
    );
    let cfg = ServeConfig {
        seed: 0xD1E1,
        worker_cores: 4,
        cache_frames: 512,
        qos: true,
        mirror: false,
        scrub_rate: Cycles::ZERO,
        tenants: vec![
            TenantProfile {
                spec: TenantSpec {
                    id: 1,
                    quota_frames: 256,
                },
                slo_p99: Cycles::from_millis(2),
                label: "steady".into(),
                arrival: Arrival::Poisson {
                    mean: Cycles::from_micros(20),
                },
                footprint_pages: 384,
                zipf_theta: None,
                write_fraction: 0.3,
                warm: false,
                sessions: 2,
                requests_per_session: reqs,
            },
            TenantProfile {
                spec: TenantSpec {
                    id: 2,
                    quota_frames: 256,
                },
                slo_p99: Cycles::from_millis(2),
                label: "diurnal".into(),
                arrival: Arrival::Diurnal {
                    mean: Cycles::from_micros(20),
                    period: Cycles::from_millis(2),
                    swing: 0.8,
                },
                footprint_pages: 384,
                zipf_theta: Some(0.9),
                write_fraction: 0.3,
                warm: false,
                sessions: 2,
                requests_per_session: reqs,
            },
        ],
    };
    let report = run(&cfg);
    println!(
        "  {:<10} {:>7} {:>10} {:>10} {:>10}",
        "tenant", "reqs", "p50", "p99", "p99.9"
    );
    for t in &report.tenants {
        println!(
            "  {:<10} {:>7} {:>10} {:>10} {:>10}",
            t.label,
            t.requests,
            t.hist.quantile(0.5).get(),
            t.hist.quantile(0.99).get(),
            t.hist.quantile(0.999).get(),
        );
        json.add_tenant(t, t.label.as_str());
        json.add_scalar(
            format!("serve/diurnal/{}_p99_cycles", t.label),
            t.hist.quantile(0.99).get() as f64,
        );
    }
}

/// Builds this binary's part registry (dispatched by `cli::main_for`).
pub fn runner() -> Runner<'static> {
    Runner::new(
        "serve",
        "Multi-tenant open-loop serving with QoS and per-tenant SLOs",
    )
    .part(
        "qos",
        "8 tenants, QoS isolation vs a zipf-hot noisy neighbor",
        part_qos,
    )
    .part(
        "diurnal",
        "diurnally modulated load next to a steady tenant",
        part_diurnal,
    )
    .part(
        "integrity",
        "silent-corruption storm under the QoS workload, mirrored + scrubbed",
        part_integrity,
    )
}
