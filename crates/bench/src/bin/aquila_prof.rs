//! `aquila-prof` — offline analysis of trace and report artifacts.
//!
//! Modes:
//!
//! - `aquila-prof flame <trace.json> [--out <folded.txt>]`
//!   Reconstructs causal spans from a Chrome trace export and prints a
//!   per-stage self/total cycle table; the folded flamegraph lines
//!   (`stack self_cycles`) go to `--out` or stdout.
//!
//! - `aquila-prof check <current.json> --baseline <golden.json>
//!    [--tolerance 0.10] [--quantiles p99_cycles,p999_cycles]`
//!   Diffs two reports' latency arrays; both must carry the current
//!   `SCHEMA_VERSION` (anything else is a parse error). Exits 4 when any
//!   selected percentile exceeds the baseline by more than the
//!   tolerance (or a baseline histogram disappeared).
//!
//! - `aquila-prof get <report.json> <scalar> [--ge <x>] [--le <x>]`
//!   Prints a named scalar from a report's `scalars` object (the one
//!   shared extraction path — verify.sh uses this instead of awk);
//!   exits 1 when a bound fails, 3 when the scalar is missing.
//!
//! Exit codes: 0 ok, 1 bound failed, 2 usage/parse error, 3 missing
//! data, 4 latency regression.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use aquila_bench::json::Json;
use aquila_bench::prof;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("flame") => cmd_flame(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("get") => cmd_get(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprint!("{USAGE}");
            Ok(ExitCode::from(if args.is_empty() { 2 } else { 0 }))
        }
        Some(other) => Err(format!("unknown mode '{other}'")),
    };
    code.unwrap_or_else(|e| {
        eprintln!("aquila-prof: {e}");
        eprint!("{USAGE}");
        ExitCode::from(2)
    })
}

const USAGE: &str = "\
usage: aquila-prof flame <trace.json> [--out <folded.txt>]
       aquila-prof check <current.json> --baseline <golden.json> \
[--tolerance <frac>] [--quantiles <f1,f2,..>]
       aquila-prof get <report.json> <scalar> [--ge <x>] [--le <x>]
";

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Pulls `--flag value` out of an argument list, leaving positionals.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

fn cmd_flame(rest: &[String]) -> Result<ExitCode, String> {
    let mut args = rest.to_vec();
    let out_path = take_flag(&mut args, "--out")?;
    let [trace_path] = args.as_slice() else {
        return Err("flame takes exactly one trace file".into());
    };
    let doc = load(trace_path)?;
    let spans = prof::parse_trace(&doc)?;
    let profile = prof::fold(&spans);
    print!("{}", prof::stage_table(&profile));
    let folded = profile.folded_text();
    match out_path {
        Some(p) => {
            std::fs::write(&p, &folded).map_err(|e| format!("write {p}: {e}"))?;
            println!("folded stacks ({} lines) -> {p}", profile.folded.len());
        }
        None => print!("{folded}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(rest: &[String]) -> Result<ExitCode, String> {
    let mut args = rest.to_vec();
    let baseline_path =
        take_flag(&mut args, "--baseline")?.ok_or("check requires --baseline <golden.json>")?;
    let tolerance: f64 = take_flag(&mut args, "--tolerance")?
        .map(|t| t.parse().map_err(|_| format!("bad tolerance '{t}'")))
        .transpose()?
        .unwrap_or(0.10);
    let quantiles = take_flag(&mut args, "--quantiles")?
        .unwrap_or_else(|| "p99_cycles,p999_cycles".to_string());
    let quantiles: Vec<&str> = quantiles.split(',').filter(|q| !q.is_empty()).collect();
    let [current_path] = args.as_slice() else {
        return Err("check takes exactly one current report".into());
    };
    let current = load(current_path)?;
    let baseline = load(&baseline_path)?;
    let regressions = prof::diff_latency(&current, &baseline, &quantiles, tolerance)?;
    if regressions.is_empty() {
        println!(
            "ok: no latency regression vs {baseline_path} (tolerance {:.0}%)",
            tolerance * 100.0
        );
        return Ok(ExitCode::SUCCESS);
    }
    for r in &regressions {
        if r.quantile == "missing" {
            println!(
                "REGRESSION {}: histogram missing from current report",
                r.name
            );
        } else {
            println!(
                "REGRESSION {} {}: {} -> {} cycles ({:.2}x, limit +{:.0}%)",
                r.name,
                r.quantile,
                r.baseline,
                r.current,
                r.ratio(),
                tolerance * 100.0
            );
        }
    }
    Ok(ExitCode::from(4))
}

fn cmd_get(rest: &[String]) -> Result<ExitCode, String> {
    let mut args = rest.to_vec();
    let ge: Option<f64> = take_flag(&mut args, "--ge")?
        .map(|v| v.parse().map_err(|_| format!("bad --ge '{v}'")))
        .transpose()?;
    let le: Option<f64> = take_flag(&mut args, "--le")?
        .map(|v| v.parse().map_err(|_| format!("bad --le '{v}'")))
        .transpose()?;
    let [report_path, name] = args.as_slice() else {
        return Err("get takes <report.json> <scalar>".into());
    };
    let report = load(report_path)?;
    let Some(value) = report.report_scalar(name) else {
        eprintln!("aquila-prof: scalar '{name}' not in {report_path}");
        return Ok(ExitCode::from(3));
    };
    println!("{value}");
    // NaN fails every bound: a report whose scalar didn't compute must
    // not pass a gate.
    if let Some(min) = ge {
        if value < min || value.is_nan() {
            eprintln!("aquila-prof: {name} = {value} violates --ge {min}");
            return Ok(ExitCode::from(1));
        }
    }
    if let Some(max) = le {
        if value > max || value.is_nan() {
            eprintln!("aquila-prof: {name} = {value} violates --le {max}");
            return Ok(ExitCode::from(1));
        }
    }
    Ok(ExitCode::SUCCESS)
}
