//! The benchmark command. See `README.md` next to this crate.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use aquila_benchmark::compare::compare;
use aquila_benchmark::metrics::{
    metric_line, result_json, Metric, END_TO_END, PER_LAYER, REPORTED,
};
use aquila_benchmark::run::{run, write_trace, Options, Outcome};
use aquila_benchmark::workload::{by_name, Workload, WORKLOADS};
use aquila_benchmark::RUN_SECONDS;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] \
                     [--trace-dir DIR]\n       benchmark compare PARENT_DIR CHANGE_DIR";

/// Where a traced run writes when no `--trace-dir` is given.
const TRACE_DIR: &str = "target/benchmark-trace";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, parent, change] = args.as_slice() else {
            return usage("compare takes two directories");
        };
        return match compare(Path::new(parent), Path::new(change)) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("benchmark compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match parse(&args) {
        Ok((Some(w), opts, trace_dir)) => run_one(w, &opts, &trace_dir),
        Ok((None, ..)) => run_all(&args),
        Err(e) => usage(&e),
    }
}

fn usage(why: &str) -> ExitCode {
    eprintln!("benchmark: {why}\n{USAGE}");
    ExitCode::from(2)
}

type Cli = (Option<&'static Workload>, Options, PathBuf);

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut trace_dir = PathBuf::from(TRACE_DIR);
    let mut o = Options {
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        toy: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(by_name(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => o.seed = number()?,
            "--seconds" => {
                o.seconds = number()?;
                if o.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--trace-dir" => trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok((workload, o, trace_dir))
}

/// Runs every workload, one after another, each in a child process of
/// its own (so each gets its own peak RSS).
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", w.name])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(w.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn print_metrics(
    title: &str,
    table: &'static [Metric],
    out: &Outcome,
) -> Vec<(&'static Metric, f64)> {
    println!("  {title}:");
    table
        .iter()
        .map(|m| {
            let v = m.value(out);
            println!("{}", metric_line(m, v));
            (m, v)
        })
        .collect()
}

fn run_one(w: &'static Workload, o: &Options, trace_dir: &Path) -> ExitCode {
    let out = run(w, o);
    let m = &out.untraced;
    println!(
        "workload {} seed {}: {} ops on {} client vcores, measured in {:.2} host s, \
         region {:?} at the end",
        w.name,
        o.seed,
        m.ops,
        w.clients(),
        m.host_run_ns as f64 / 1e9,
        m.region
    );
    let e2e = print_metrics("end-to-end", &END_TO_END, &out);
    print_metrics("end-to-end, not gated", &REPORTED, &out);
    let mut problems = out.problems();
    let reported = if o.trace {
        let layers = print_metrics("per-layer", &PER_LAYER, &out);
        match write_trace(trace_dir, &out) {
            Ok(()) => println!("  trace written to {}", trace_dir.display()),
            Err(e) => problems.push(format!("cannot write the trace: {e}")),
        }
        layers
    } else {
        e2e
    };
    for p in &problems {
        eprintln!("benchmark: {}: {p}", w.name);
    }
    println!(
        "{}",
        result_json(problems.is_empty(), m.ops, m.failed, &reported)
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
