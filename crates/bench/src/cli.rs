//! Shared command-line handling for the figure binaries.
//!
//! Every `fig*` binary accepts, in addition to its own positional
//! selectors and flags:
//!
//! - `--json <path>` — write a schema-versioned machine-readable record
//!   of the run (see [`crate::report::JsonReport`]);
//! - `--trace <path>` — install the global tracer and write a Chrome
//!   `trace_event` file of the run, viewable in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! - `--race` — install the deterministic race detector
//!   ([`aquila_sim::race`]) and print its summary at the end of the run,
//!   exiting with status 3 if any finding was reported;
//! - `--faults <spec>` — install the process-global fault plan
//!   ([`aquila_sim::fault`]); every NVMe device the run builds injects
//!   the planned faults at their seeded virtual-time points (grammar in
//!   EXPERIMENTS.md, e.g. `nvme.write:media_error@op=1000`). The empty
//!   spec installs an empty plan, which is bit-identical to running
//!   without the flag.
//!
//! Either flag also installs the global metrics registry so span and
//! request latency histograms land in the JSON record. Without them,
//! the binaries run exactly as before — the recording sites are no-ops,
//! and because observability never charges virtual cycles the
//! simulated results are bit-identical either way.

use std::path::PathBuf;

use crate::report::JsonReport;

/// Parsed common arguments plus the binary-specific remainder.
#[derive(Debug)]
pub struct BenchArgs {
    /// Arguments left after extracting the common flags (positional
    /// selectors like `a`/`b`/`c` and flags like `--full`).
    pub rest: Vec<String>,
    json: Option<PathBuf>,
    trace: Option<PathBuf>,
    race: bool,
    faults: Option<String>,
}

impl BenchArgs {
    /// Parses `std::env::args`, extracting `--json`/`--trace` and
    /// installing the tracer and metrics registry as requested.
    pub fn parse() -> BenchArgs {
        Self::from_vec(std::env::args().skip(1).collect())
    }

    /// Parses an explicit argument vector (testable core of [`parse`]).
    ///
    /// [`parse`]: BenchArgs::parse
    pub fn from_vec(args: Vec<String>) -> BenchArgs {
        let mut rest = Vec::new();
        let mut json = None;
        let mut trace = None;
        let mut race = false;
        let mut faults = None;
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => match it.next() {
                    Some(p) => json = Some(PathBuf::from(p)),
                    None => die("--json requires a path"),
                },
                "--trace" => match it.next() {
                    Some(p) => trace = Some(PathBuf::from(p)),
                    None => die("--trace requires a path"),
                },
                "--race" => race = true,
                "--faults" => match it.next() {
                    Some(s) => faults = Some(s),
                    None => die("--faults requires a spec (may be empty)"),
                },
                _ => rest.push(a),
            }
        }
        let parsed = BenchArgs {
            rest,
            json,
            trace,
            race,
            faults,
        };
        if let Some(spec) = &parsed.faults {
            if let Err(e) = aquila_sim::fault::install_spec(spec) {
                die(&format!("--faults: {e}"));
            }
        }
        if parsed.trace.is_some() {
            aquila_sim::trace::install(aquila_sim::trace::DEFAULT_CAPACITY);
        }
        if parsed.race {
            aquila_sim::race::install();
        }
        if parsed.json.is_some() || parsed.trace.is_some() {
            // Shards wrap (`core % shards`), so this only needs to be an
            // upper bound on the simulated core count; the paper's
            // testbed is 32.
            aquila_sim::metrics::install(64);
        }
        parsed
    }

    /// The first positional argument, or `default`.
    pub fn selector(&self, default: &str) -> String {
        self.rest
            .iter()
            .find(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Whether a boolean flag (e.g. `--full`) is present.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    /// Whether a JSON record was requested.
    pub fn wants_json(&self) -> bool {
        self.json.is_some()
    }

    /// Whether the race detector was requested with `--race`.
    pub fn wants_race(&self) -> bool {
        self.race
    }

    /// Writes the requested artifacts (JSON record and/or Chrome trace),
    /// printing where each landed, then — under `--race` — prints the
    /// race-detector summary and exits 3 if it reported anything.
    pub fn finish(&self, report: &JsonReport) {
        if let Some(path) = &self.json {
            match report.write(path) {
                Ok(()) => println!("wrote JSON record: {}", path.display()),
                Err(e) => {
                    eprintln!("error: writing {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &self.trace {
            let tracer = aquila_sim::trace::global().expect("installed in parse");
            match tracer.write_chrome(path) {
                Ok(()) => {
                    let dropped = tracer.dropped();
                    let kept = tracer.len();
                    print!("wrote Chrome trace: {} ({kept} events", path.display());
                    if dropped > 0 {
                        print!(", {dropped} oldest dropped");
                    }
                    println!(") - open in https://ui.perfetto.dev");
                }
                Err(e) => {
                    eprintln!("error: writing {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if self.race {
            let det = aquila_sim::race::global().expect("installed in parse");
            println!("{}", det.summary());
            if !det.findings().is_empty() {
                std::process::exit(3);
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The entire `main` of a part-registry binary: looks `bin` up in
/// [`crate::figs::BINS`], builds its part registry, parses the process
/// arguments, and runs. Every `src/bin/<name>.rs` is a one-line shim
/// over this, so the CLI surface exists in exactly one place.
///
/// # Panics
///
/// Panics if `bin` is not registered — a build-time wiring error, since
/// the only callers are the shims themselves.
pub fn main_for(bin: &str) {
    let b = crate::figs::find(bin)
        .unwrap_or_else(|| panic!("binary {bin:?} not registered in figs::BINS"));
    (b.build)().run(BenchArgs::parse(), b.default);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extracts_common_flags_and_keeps_rest() {
        let a = BenchArgs::from_vec(argv(&[
            "c", "--json", "r.json", "--full", "--trace", "t.json",
        ]));
        assert_eq!(a.rest, vec!["c", "--full"]);
        assert!(!a.wants_race());
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("r.json")));
        assert_eq!(a.trace.as_deref(), Some(std::path::Path::new("t.json")));
        assert!(a.wants_json());
        assert!(a.has_flag("--full"));
        assert_eq!(a.selector("all"), "c");
    }

    #[test]
    fn selector_defaults_and_skips_flags() {
        let a = BenchArgs::from_vec(argv(&["--full"]));
        assert_eq!(a.selector("all"), "all");
        assert!(!a.wants_json());
    }
}
