//! Thin CLI over the `aquila_analysis` library.
//!
//! ```text
//! aquila-analysis -- lint [--strict] [--json PATH] [--sarif PATH] [--root DIR]
//! ```
//!
//! Exit codes: 0 clean, 1 unsuppressed findings (or stale allowlist
//! entries under `--strict`), 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use aquila_analysis::{run_lint, LintOptions};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let mut opts = LintOptions::default();
            let mut root: Option<PathBuf> = None;
            let mut it = args.iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--strict" => opts.strict = true,
                    "--json" => match it.next() {
                        Some(p) => opts.json = Some(PathBuf::from(p)),
                        None => usage("--json needs a path"),
                    },
                    "--sarif" => match it.next() {
                        Some(p) => opts.sarif = Some(PathBuf::from(p)),
                        None => usage("--sarif needs a path"),
                    },
                    "--root" => match it.next() {
                        Some(p) => root = Some(PathBuf::from(p)),
                        None => usage("--root needs a directory"),
                    },
                    other => usage(&format!("unknown flag `{other}`")),
                }
            }
            let root = root.unwrap_or_else(workspace_root);
            std::process::exit(run_lint(&root, &opts));
        }
        _ => usage("expected the `lint` subcommand"),
    }
}

fn usage(why: &str) -> ! {
    eprintln!("error: {why}");
    eprintln!("usage: aquila-analysis lint [--strict] [--json PATH] [--sarif PATH] [--root DIR]");
    std::process::exit(2);
}

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analysis sits two levels under the workspace root")
        .to_path_buf()
}
