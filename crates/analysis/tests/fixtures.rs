//! Fixture self-tests: each interprocedural checker must catch its
//! seeded bug (the acceptance criterion for AQ008–AQ010), and the real
//! workspace must feed the symbol graph the facts those checkers need.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use aquila_analysis::graph::Workspace;
use aquila_analysis::{collect, rs_files};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analysis sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn aq008_fixture_catches_seeded_lock_inversion() {
    let run = collect(&fixture_root("aq008_inversion"));
    let ids: Vec<&str> = run.applied.visible.iter().map(|f| f.lint.id()).collect();
    assert_eq!(
        ids,
        ["AQ008-interprocedural-lock-order"],
        "visible: {:?}",
        run.applied.visible
    );
    let f = &run.applied.visible[0];
    assert!(
        f.message.contains("via call to") && f.message.contains("'fix.map'"),
        "message: {}",
        f.message
    );
}

#[test]
fn aq009_fixture_catches_span_leaked_through_question_mark() {
    let run = collect(&fixture_root("aq009_span_leak"));
    let ids: Vec<&str> = run.applied.visible.iter().map(|f| f.lint.id()).collect();
    assert_eq!(
        ids,
        ["AQ009-span-balance"],
        "visible: {:?}",
        run.applied.visible
    );
    let f = &run.applied.visible[0];
    assert!(
        f.message.contains("fix.fault") && f.message.contains("`?`"),
        "message: {}",
        f.message
    );
}

#[test]
fn aq010_fixture_catches_sleep_reachable_from_threadfn() {
    let run = collect(&fixture_root("aq010_blocking"));
    let ids: Vec<&str> = run.applied.visible.iter().map(|f| f.lint.id()).collect();
    assert_eq!(
        ids,
        ["AQ010-des-blocking"],
        "visible: {:?}",
        run.applied.visible
    );
    let f = &run.applied.visible[0];
    assert!(
        f.message.contains("thread::sleep"),
        "message: {}",
        f.message
    );
}

/// The checkers are only as good as their inputs: prove the graph built
/// from the *real* workspace contains the declared rank tables, lock
/// acquisition pairs, and DES spawn roots the checkers consume. A
/// refactor that silently broke fact extraction would zero these and
/// make `lint --strict` pass vacuously.
#[test]
fn workspace_graph_sees_ranks_pairs_and_spawn_roots() {
    let root = workspace_root();
    let sources: Vec<(String, String)> = rs_files(&root)
        .into_iter()
        .filter_map(|p| {
            let rel = p
                .strip_prefix(&root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            std::fs::read_to_string(&p).ok().map(|s| (rel, s))
        })
        .collect();
    let ws = Workspace::build(sources);

    // Rank tables from sim::race declare_order calls across domains.
    for lock in ["pcache.map.bucket", "linuxsim.rmap"] {
        assert!(
            ws.ranks.contains_key(lock),
            "rank table missing {lock}; ranks = {:?}",
            ws.ranks.keys().collect::<Vec<_>>()
        );
    }
    assert!(
        ws.ranks.values().any(|(d, _)| d == "pcache")
            && ws.ranks.values().any(|(d, _)| d == "linuxsim"),
        "expected pcache and linuxsim rank domains, got {:?}",
        ws.ranks.values().collect::<Vec<_>>()
    );

    // Nested acquisitions exist (held, acquired) — AQ008's direct input.
    let pairs: usize = ws.facts.iter().map(|f| f.pairs.len()).sum();
    assert!(pairs > 0, "no (held, acquired) lock pairs observed");

    // Calls made while holding a lock — AQ008's interprocedural input.
    let held_calls: usize = ws.facts.iter().map(|f| f.held_calls.len()).sum();
    assert!(held_calls > 0, "no calls under a held lock observed");

    // Span begin sites — AQ009's input.
    let spans: u32 = ws.facts.iter().map(|f| f.span_begins).sum();
    assert!(spans >= 10, "only {spans} span::begin sites seen");

    // DES spawn roots — AQ010's input.
    let spawn_calls: usize = ws
        .facts
        .iter()
        .flat_map(|f| &f.calls)
        .filter(|c| c.in_spawn)
        .count();
    assert!(spawn_calls > 0, "no calls inside spawn arguments observed");
}

/// The whole point of gating verify.sh: the tree as committed is clean.
#[test]
fn committed_workspace_is_lint_clean() {
    let run = collect(&workspace_root());
    assert!(
        run.applied.visible.is_empty(),
        "unsuppressed findings: {:?}",
        run.applied
            .visible
            .iter()
            .map(|f| format!("{}:{}: {}", f.path, f.line, f.lint.id()))
            .collect::<Vec<_>>()
    );
    assert!(
        run.applied.stale.is_empty(),
        "stale allowlist entries: {:?}",
        run.applied.stale
    );
}
