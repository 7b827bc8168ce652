//! aquila-analysis v2 — static analysis for the Aquila workspace.
//!
//! The simulator's whole value proposition is that a run is a pure
//! function of the seed and the cost model (DESIGN.md §2), and that the
//! fault path never deadlocks or blocks the host. Those properties are
//! easy to lose to a stray `HashMap`, a wall-clock read, a lock taken
//! against the declared rank order three calls deep, or a `span::begin`
//! that escapes through a `?`. This crate is the mechanical check, run
//! from CI as:
//!
//! ```text
//! cargo run -p aquila-analysis -- lint --strict
//! ```
//!
//! It is deliberately *not* built on `syn`/`rustc` internals — the
//! workspace builds offline with zero external dependencies — so the
//! front end is a hand-rolled lexer ([`lexer`]) and brace-tree item
//! scanner ([`graph`]) that build a workspace symbol graph: fn defs,
//! impl owners, call edges, `race::acquire` lock sites with resolved
//! const keys, and `span::begin`/`end` sites with path-sensitive
//! balance states. Two lint families run on top ([`lints`]):
//! line-oriented AQ001–AQ007 over cleaned source text, and the
//! interprocedural AQ008–AQ010 over the graph. Findings, allowlist
//! suppression, and the JSON/SARIF emitters live in [`report`].

#![forbid(unsafe_code)]

pub mod graph;
pub mod lexer;
pub mod lints;
pub mod report;

use std::fs;
use std::path::{Path, PathBuf};

use graph::Workspace;
use report::{Allowlist, Applied, GraphStats};

/// CLI-facing options for one lint run.
#[derive(Debug, Default, Clone)]
pub struct LintOptions {
    /// Escalate stale allowlist entries from warnings to errors.
    pub strict: bool,
    /// Write the schema-versioned JSON findings report here.
    pub json: Option<PathBuf>,
    /// Write a SARIF 2.1.0 log here.
    pub sarif: Option<PathBuf>,
}

/// The product of a lint pass, before exit-code policy is applied.
pub struct LintRun {
    pub applied: Applied,
    pub stats: GraphStats,
}

/// Every `.rs` file under `crates/*/src` and the root `src/`, sorted
/// for deterministic output. Integration tests (`tests/`, `*/tests/`)
/// are host-side test code and exempt, like `#[cfg(test)]` blocks.
pub fn rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            dirs.push(e.path().join("src"));
        }
    }
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                dirs.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Runs every lint over the tree rooted at `root` and applies the
/// allowlist at `root/crates/analysis/allowlist.txt` (absent for
/// fixture trees, which then run unsuppressed).
pub fn collect(root: &Path) -> LintRun {
    let allow = Allowlist::load(&root.join("crates/analysis/allowlist.txt"));
    let mut findings = Vec::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    for file in rs_files(root) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(source) = fs::read_to_string(&file) else {
            continue;
        };
        findings.extend(lints::lint_file(&rel, &source));
        sources.push((rel, source));
    }
    let ws = Workspace::build(sources);
    findings.extend(lints::graph_lints(&ws));
    findings.sort();
    findings.dedup();
    let stats = GraphStats {
        files: ws.files.len(),
        functions: ws.fns.len(),
        call_edges: ws.facts.iter().map(|f| f.calls.len()).sum(),
        lock_sites: ws.facts.iter().map(|f| f.acquires.len()).sum(),
        span_sites: ws.facts.iter().map(|f| f.span_begins as usize).sum(),
    };
    LintRun {
        applied: allow.apply(&findings),
        stats,
    }
}

/// Full CLI lint pass: collect, print human findings, write optional
/// JSON/SARIF artifacts, and return the process exit code (0 clean,
/// 1 findings or — under `--strict` — stale allowlist entries).
pub fn run_lint(root: &Path, opts: &LintOptions) -> i32 {
    let run = collect(root);
    let applied = &run.applied;
    for f in &applied.visible {
        println!("{}:{}: {}: {}", f.path, f.line, f.lint.id(), f.message);
    }
    if !applied.suppressed.is_empty() {
        println!(
            "lint: {} finding(s) suppressed by allowlist",
            applied.suppressed.len()
        );
    }
    for raw in &applied.stale {
        let level = if opts.strict { "error" } else { "warning" };
        println!("lint: {level}: stale allowlist entry suppresses nothing: `{raw}`");
    }
    if let Some(path) = &opts.json {
        let body = report::render_json(applied, &run.stats);
        if let Err(e) = fs::write(path, body) {
            eprintln!("lint: cannot write JSON report {}: {e}", path.display());
            return 2;
        }
    }
    if let Some(path) = &opts.sarif {
        let body = report::render_sarif(applied);
        if let Err(e) = fs::write(path, body) {
            eprintln!("lint: cannot write SARIF log {}: {e}", path.display());
            return 2;
        }
    }
    let stale_fails = opts.strict && !applied.stale.is_empty();
    if !applied.visible.is_empty() {
        println!("lint: {} finding(s)", applied.visible.len());
        1
    } else if stale_fails {
        println!(
            "lint: {} stale allowlist entr(ies) (strict)",
            applied.stale.len()
        );
        1
    } else {
        println!("lint: clean");
        0
    }
}
