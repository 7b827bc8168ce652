//! One workload run: repeated set-up, the measured phase, the traced
//! phase, and the read-back check.

use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::metrics::PER_LAYER;
use crate::workload::{Measured, Workload, World};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Feeds every generator.
    pub seed: u64,
    /// Length of the measured phase, in host seconds on the reference
    /// host (it sets the op count, so virtual results depend on it).
    pub seconds: u64,
    /// Also run a traced measured phase for the per-layer metrics.
    pub trace: bool,
    /// Toy sizes (for the smoke test).
    pub toy: bool,
}

/// Everything one run measured.
pub struct Outcome {
    /// The workload run.
    pub workload: &'static Workload,
    /// Host seconds of each set-up (build, load, warm-up).
    pub setup_s: Vec<f64>,
    /// The untraced measured phase: the end-to-end metrics.
    pub untraced: Measured,
    /// The traced measured phase, on a fresh set-up with the same seed.
    pub traced: Option<Measured>,
    /// Records that read back wrong after a measured phase.
    pub read_back_errors: u64,
    /// Peak resident set of this process, MiB.
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// Why the run is not correct; empty when it is.
    pub fn problems(&self) -> Vec<String> {
        let mut p = Vec::new();
        for m in std::iter::once(&self.untraced).chain(&self.traced) {
            if m.failed > 0 {
                p.push(format!("{} of {} ops failed", m.failed, m.ops));
            }
            p.extend(m.attribution_errors.iter().cloned());
        }
        if self.read_back_errors > 0 {
            p.push(format!(
                "{} records read back wrong after the measured phase",
                self.read_back_errors
            ));
        }
        if let Some(t) = &self.traced {
            if !crate::metrics::same_virtual(&self.untraced, t) {
                p.push("tracing changed the virtual results".into());
            }
        }
        p
    }
}

/// Runs `w` once: [`SETUPS`] set-ups, the measured phase after the first,
/// the traced phase after the second.
pub fn run(w: &'static Workload, o: &Options) -> Outcome {
    let params = w.params(o.seconds, o.toy);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut untraced = None;
    let mut traced = None;
    let mut read_back_errors = 0;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let mut world = World::setup(w, params, o.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        let slot = match i {
            0 => &mut untraced,
            1 if o.trace => &mut traced,
            _ => continue,
        };
        *slot = Some(world.measure(i == 1));
        read_back_errors += world.read_back();
    }
    Outcome {
        workload: w,
        setup_s,
        untraced: untraced.expect("the first set-up is measured"),
        traced,
        read_back_errors,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Writes the traced phase as `<workload>.trace.json` (Chrome
/// `trace_event`, the first [`FULL_OPS`](crate::spans::FULL_OPS) ops in
/// full) and `<workload>.aggregate.json` (every span aggregated by name,
/// and the per-layer metrics).
pub fn write_trace(dir: &Path, out: &Outcome) -> io::Result<()> {
    let t = out.traced.as_ref().expect("a traced run");
    fs::create_dir_all(dir)?;
    let name = out.workload.name;
    fs::write(
        dir.join(format!("{name}.trace.json")),
        t.spans.chrome_json(),
    )?;
    let spans: Vec<String> = t
        .spans
        .totals()
        .iter()
        .map(|(n, a)| {
            format!(
                "\"{n}\": {{\"count\": {}, \"host_ns\": {}, \"self_host_ns\": {}, \"cycles\": {}}}",
                a.count, a.host_ns, a.self_host_ns, a.cycles
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, m.value(out)))
        .collect();
    fs::write(
        dir.join(format!("{name}.aggregate.json")),
        format!(
            "{{\"workload\": \"{name}\", \"ops\": {}, \"host_run_ns\": {}, \"spans\": {{{}}}, \
             \"per_layer\": {{{}}}}}\n",
            t.ops,
            t.host_run_ns,
            spans.join(", "),
            layers.join(", ")
        ),
    )
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
