//! `compare PARENT_DIR CHANGE_DIR`: judges a change against its parent
//! from repeated runs of both.
//!
//! Each directory holds one file per run, named `<workload>.<anything>`
//! (for example `kv-read.07.txt`), holding the run's standard output; the
//! compared values are its metric lines, so the simulated quantiles and
//! the error rate are compared too. Runs of a workload pair up in
//! file-name order: the i-th parent run with the i-th change run, which
//! should have been made as alternating pairs on the same seed.
//!
//! The rule: a metric *improved* on a workload when at least 10 pairs
//! were run, the change won at least 9 in 10 of them (ties count for
//! neither side), and the medians differ by more than the parent's
//! interquartile range. Otherwise it *regressed* when the change's median
//! is worse than the parent's by more than the metric's bound. When the
//! parent's own spread is wider than the bound the metric is *unresolved*,
//! unless every change run reads better than every parent run. Metrics
//! without a bound (per-layer ones) are improved, regressed (the mirror of
//! the improvement rule) or unresolved.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::metrics::{self, parse_metric_line, Better, Metric};

/// Pairs a claim needs.
const MIN_PAIRS: usize = 10;

/// The verdict for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the improvement rule.
    Improved,
    /// Not worse than the bound allows.
    WithinBound,
    /// Worse than the bound allows.
    Regressed,
    /// The runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` computes them
/// (the default exclusive method). Needs at least two values.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    Some(out)
}

/// Pairs run, pairs the change won, pairs it lost.
fn pairs(parent: &[f64], change: &[f64], better: Better) -> (usize, usize, usize) {
    let n = parent.len().min(change.len());
    let diff = |i: usize| match better {
        Better::Higher => change[i] - parent[i],
        Better::Lower => parent[i] - change[i],
    };
    let wins = (0..n).filter(|&i| diff(i) > 0.0).count();
    let losses = (0..n).filter(|&i| diff(i) < 0.0).count();
    (n, wins, losses)
}

/// Judges `change` against `parent` for one metric.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let (Some(qp), Some(qc)) = (quartiles(parent), quartiles(change)) else {
        return Verdict::Unresolved;
    };
    let (pairs, wins, losses) = pairs(parent, change, better);
    let gain = sign * (qc[1] - qp[1]);
    let iqr = qp[2] - qp[0];
    let decisive = |n: usize| pairs >= MIN_PAIRS && n * 10 >= pairs * 9;
    if decisive(wins) && gain > iqr {
        return Verdict::Improved;
    }
    let Some(bound) = bound else {
        return if decisive(losses) && -gain > iqr {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    };
    let scale = qp[1].abs().max(f64::MIN_POSITIVE);
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| sign * (c - p) > 0.0));
    if iqr / scale > bound {
        return if all_better {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        };
    }
    if -gain / scale > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Reads every run in `dir`: (workload, metric) -> values in file order.
fn load(dir: &Path) -> Result<Runs, String> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    let mut runs = Runs::new();
    for f in files {
        let name = f.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        let workload = name.split('.').next().unwrap_or_default().to_string();
        let text = fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        for (metric, value) in text.lines().filter_map(parse_metric_line) {
            runs.entry((workload.clone(), metric.to_string()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

fn metric(name: &str) -> Option<&'static Metric> {
    metrics::all().find(|m| m.name == name)
}

/// The comparison table for two directories of runs.
pub fn compare(parent: &Path, change: &Path) -> Result<String, String> {
    let p = load(parent)?;
    let c = load(change)?;
    let mut out = format!(
        "{:<12} {:<34} {:>46} {:>46} {:>7}  verdict\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for ((workload, name), pv) in &p {
        let (Some(cv), Some(m)) = (c.get(&(workload.clone(), name.clone())), metric(name)) else {
            continue;
        };
        let (Some(qp), Some(qc)) = (quartiles(pv), quartiles(cv)) else {
            continue;
        };
        let (pairs, wins, _) = pairs(pv, cv, m.better);
        let _ = writeln!(
            out,
            "{:<12} {:<34} {:>46} {:>46} {:>7}  {}",
            workload,
            name,
            format!("{:.6} [{:.6}, {:.6}]", qp[1], qp[0], qp[2]),
            format!("{:.6} [{:.6}, {:.6}]", qc[1], qc[0], qc[2]),
            format!("{wins}/{pairs}"),
            verdict(pv, cv, m.better, m.bound).name()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let same = parent.clone();
        let h = Better::Higher;
        assert_eq!(verdict(&parent, &faster, h, Some(0.1)), Verdict::Improved);
        assert_eq!(verdict(&parent, &slower, h, Some(0.1)), Verdict::Regressed);
        assert_eq!(verdict(&parent, &same, h, Some(0.1)), Verdict::WithinBound);
        assert_eq!(verdict(&parent, &slower, h, None), Verdict::Regressed);
        assert_eq!(verdict(&parent, &same, h, None), Verdict::Unresolved);
        // Nine pairs cannot establish a gain.
        assert_eq!(
            verdict(&parent[..9], &faster[..9], h, Some(0.5)),
            Verdict::WithinBound
        );
        // A parent spread wider than the bound leaves a small loss open.
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 10.0).collect();
        let bit_worse: Vec<f64> = noisy.iter().map(|v| v * 0.99).collect();
        assert_eq!(
            verdict(&noisy, &bit_worse, h, Some(0.05)),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        let far: Vec<f64> = noisy.iter().map(|v| v + 200.0).collect();
        assert_eq!(
            verdict(&noisy[..9], &far[..9], h, Some(0.05)),
            Verdict::WithinBound
        );
    }
}
