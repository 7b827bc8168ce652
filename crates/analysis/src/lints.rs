//! The lint passes.
//!
//! Two families run over different views of the workspace:
//!
//! - [`lint_file`] — the line-oriented lints AQ001–AQ007, operating on
//!   the position-preserving cleaned text from [`crate::lexer`]. These
//!   are per-file and need no cross-file knowledge.
//! - [`graph_lints`] — the interprocedural checkers AQ008–AQ010 over
//!   the symbol graph from [`crate::graph`]: declared-rank lock-order
//!   verification through the call graph, span begin/end balance on all
//!   control-flow exits, and host-blocking calls reachable from DES
//!   thread bodies.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::graph::Workspace;
use crate::lexer::{strip_source, test_lines};
use crate::report::{Finding, Lint};

// ---------------------------------------------------------------------------
// Line-oriented lints (AQ001–AQ007)
// ---------------------------------------------------------------------------

/// Crates exempt from a lint (by path prefix under the workspace root).
fn exempt(lint: Lint, path: &str) -> bool {
    // The lint tool itself names the banned tokens in patterns.
    if path.starts_with("crates/analysis/") {
        return true;
    }
    // Bench binaries may time real (host) execution of the simulation.
    lint == Lint::WallClock && path.starts_with("crates/bench/")
}

pub fn lint_file(path: &str, source: &str) -> Vec<Finding> {
    let cleaned = strip_source(source);
    let skip = test_lines(&cleaned);
    let lines: Vec<&str> = cleaned.lines().collect();
    let mut out = Vec::new();

    let push = |out: &mut Vec<Finding>, line: usize, lint: Lint, message: String| {
        out.push(Finding {
            path: path.to_string(),
            line: line + 1,
            lint,
            message,
            text: lines[line].trim().to_string(),
        });
    };

    // AQ001 + collect unordered-container names for AQ003.
    let mut unordered_names: Vec<String> = Vec::new();
    for (n, line) in lines.iter().enumerate() {
        if skip.get(n).copied().unwrap_or(false) {
            continue;
        }
        for tok in ["HashMap", "HashSet"] {
            if let Some(col) = find_token(line, tok) {
                if !exempt(Lint::NondeterministicMap, path) {
                    push(
                        &mut out,
                        n,
                        Lint::NondeterministicMap,
                        format!(
                            "{tok} has seed-randomized iteration order; \
                             use aquila_sync::Det{} instead",
                            if tok == "HashMap" { "Map" } else { "Set" }
                        ),
                    );
                }
                // `let mut counts = HashMap::new()` / `counts: HashMap<..>`
                if let Some(name) = declared_name(line, col) {
                    unordered_names.push(name);
                }
            }
        }
        if exempt(Lint::WallClock, path) {
            continue;
        }
        for pat in ["Instant::now", "SystemTime", "thread_rng", "rand::random"] {
            if line.contains(pat) {
                push(
                    &mut out,
                    n,
                    Lint::WallClock,
                    format!(
                        "{pat} reads host state; use SimCtx::now() for \
                         virtual time and the seeded Rng64 for randomness"
                    ),
                );
            }
        }
    }

    // AQ003: iterating one of the names above where the loop window
    // also touches a trace/metrics sink.
    if !exempt(Lint::UnorderedIteration, path) {
        for (n, line) in lines.iter().enumerate() {
            if skip.get(n).copied().unwrap_or(false) {
                continue;
            }
            for name in &unordered_names {
                let iterates = line.contains(&format!("in &{name}"))
                    || line.contains(&format!("in {name}"))
                    || line.contains(&format!("{name}.iter()"))
                    || line.contains(&format!("{name}.keys()"))
                    || line.contains(&format!("{name}.values()"));
                if !iterates {
                    continue;
                }
                let window = lines[n..lines.len().min(n + 5)].join("\n");
                if window.contains("trace") || window.contains("metrics") {
                    push(
                        &mut out,
                        n,
                        Lint::UnorderedIteration,
                        format!(
                            "iteration over unordered `{name}` feeds an \
                             observability sink; order leaks into artifacts"
                        ),
                    );
                }
            }
        }
    }

    // AQ005: AquilaConfig is builder-only. A struct literal — or a call
    // to a positional `new` constructor, should one ever be reintroduced
    // — anywhere but the builder module bypasses the policy derivations
    // (watermark defaults, batch clamping). The deprecated `new` shim
    // itself was removed in PR 8.
    if path != "crates/core/src/config.rs" {
        for (n, line) in lines.iter().enumerate() {
            if skip.get(n).copied().unwrap_or(false) {
                continue;
            }
            if let Some(col) = find_token(line, "AquilaConfig") {
                let rest = line[col + "AquilaConfig".len()..].trim_start();
                // `-> AquilaConfig {` / `-> &AquilaConfig {` is a return
                // type followed by the function body, not a literal.
                let before = line[..col].trim_end();
                let type_position = before.ends_with("->")
                    || before.ends_with('&')
                    || before.ends_with("dyn")
                    || before.ends_with("impl");
                if (rest.starts_with('{') && !type_position) || rest.starts_with("::new") {
                    push(
                        &mut out,
                        n,
                        Lint::ConfigConstruction,
                        "construct AquilaConfig through AquilaConfig::builder(..); \
                         struct literals and positional constructors are sealed \
                         to crates/core/src/config.rs"
                            .to_string(),
                    );
                }
            }
        }
    }

    // AQ006: unwrap/expect on device-layer Results. `src/tests.rs`
    // files are `#[cfg(test)]`-gated at their module declaration, so
    // the in-file scan cannot see the gate; exempt them by path like
    // integration tests.
    if !path.starts_with("crates/analysis/") && !path.ends_with("/tests.rs") {
        // Entry points whose Results carry DeviceError (directly or via
        // a wrapper like BlobError); `.read(`/`.write(` are too generic
        // to list without drowning the lint in engine-API noise.
        const DEVICE_TOKENS: [&str; 16] = [
            "read_pages",
            "write_pages",
            "write_page_list",
            "read_refs",
            "write_refs",
            "dax_read",
            "dax_write",
            "adopt",
            "read_at",
            "write_at",
            "read_range",
            "write_range",
            "open_blob",
            "sync_md",
            "submit",
            "execute",
        ];
        let in_devices = path.starts_with("crates/devices/");
        for (n, line) in lines.iter().enumerate() {
            if skip.get(n).copied().unwrap_or(false) {
                continue;
            }
            if !line.contains(".unwrap()") && !line.contains(".expect(") {
                continue;
            }
            // A chained call may put the device entry point on an
            // earlier line; look back over a short window.
            let window_start = n.saturating_sub(2);
            let device_call = lines[window_start..=n]
                .iter()
                .any(|l| DEVICE_TOKENS.iter().any(|t| find_token(l, t).is_some()));
            if in_devices || device_call {
                push(
                    &mut out,
                    n,
                    Lint::DeviceUnwrap,
                    "device-layer Result unwrapped; with fault injection any \
                     command can fail at a seeded point — propagate the error \
                     into the retry/degradation policy (DESIGN.md §11)"
                        .to_string(),
                );
            }
        }
    }

    // AQ007: observability names are static literals on sim paths. The
    // cleaned source blanks string literals but preserves positions, so
    // the sink call and the argument comma are located on the cleaned
    // text (no commas hiding inside strings) and the verdict — does the
    // second argument start with `"` — is read from the raw text at the
    // same offset. Bench binaries are host-side harness code (their
    // dynamic labels go to JSON scalars, not sim-path sinks).
    if !path.starts_with("crates/analysis/") && !path.starts_with("crates/bench/") {
        let raw_lines: Vec<&str> = source.lines().collect();
        const SINKS: [&str; 5] = [
            // Labeled variant: the *base* name (second arg) must still be
            // a literal; the small tenant index may vary.
            "metrics::record_latency_labeled(",
            "trace::instant(",
            "trace::counter(",
            "span::begin(",
            "span::begin_child(",
        ];
        for (n, line) in lines.iter().enumerate() {
            if skip.get(n).copied().unwrap_or(false) {
                continue;
            }
            for sink in SINKS {
                let Some(col) = line.find(sink) else { continue };
                // Join up to three lines so multi-line calls keep the
                // cleaned/raw offset correspondence.
                let end = lines.len().min(n + 3);
                let cleaned_win = lines[n..end].join("\n");
                let raw_win = raw_lines[n..end].join("\n");
                let open = col + sink.len();
                // Find the comma ending the first (ctx) argument at
                // depth 1 of the call.
                let mut depth = 1i32;
                let mut comma = None;
                for (off, ch) in cleaned_win[open..].char_indices() {
                    match ch {
                        '(' | '[' | '{' => depth += 1,
                        ')' | ']' | '}' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        ',' if depth == 1 => {
                            comma = Some(open + off);
                            break;
                        }
                        _ => {}
                    }
                }
                let Some(comma) = comma else { continue };
                let second_arg_is_literal =
                    raw_win[comma + 1..].chars().find(|c| !c.is_whitespace()) == Some('"');
                if !second_arg_is_literal {
                    push(
                        &mut out,
                        n,
                        Lint::DynamicName,
                        format!(
                            "`{}` name must be a &'static str literal at the \
                             call site; dynamic names allocate on the hot path \
                             and make artifact schemas data-dependent",
                            sink.trim_end_matches('(')
                        ),
                    );
                }
            }
        }
    }

    // AQ004: declared lock order, statically approximated as "within a
    // function, table-lock acquisitions appear in non-decreasing rank
    // order". The precise hold-tracking version runs at simulation time
    // in aquila_sim::race; AQ008 extends it across function boundaries.
    if path.starts_with("crates/linuxsim/") {
        const TABLE: [(&str, usize); 3] = [("files", 0), ("vmas", 1), ("rmap", 2)];
        let mut prev: Option<(usize, &str)> = None;
        for (n, line) in lines.iter().enumerate() {
            if skip.get(n).copied().unwrap_or(false) {
                continue;
            }
            if line.contains("fn ") {
                prev = None;
            }
            for (name, rank) in TABLE {
                let hit = [".lock(", ".read(", ".write("]
                    .iter()
                    .any(|m| line.contains(&format!(".{name}{m}")));
                if !hit {
                    continue;
                }
                if let Some((prank, pname)) = prev {
                    if rank < prank {
                        push(
                            &mut out,
                            n,
                            Lint::LockOrder,
                            format!(
                                "`{name}` (rank {rank}) acquired after \
                                 `{pname}` (rank {prank}); declared order \
                                 is files -> vmas -> rmap"
                            ),
                        );
                    }
                }
                prev = Some((rank, name));
            }
        }
    }

    out
}

/// `tok` present as a whole token (not a substring of an identifier).
fn find_token(line: &str, tok: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = line[from..].find(tok) {
        let at = from + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after_ok = !line[at + tok.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + tok.len();
    }
    None
}

/// The variable a `HashMap`/`HashSet` mention on `line` declares, if
/// the line looks like `let [mut] NAME … = Hash…` or `NAME: Hash…`.
fn declared_name(line: &str, _col: usize) -> Option<String> {
    let head = line.trim_start();
    if let Some(rest) = head.strip_prefix("let ") {
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            return Some(name);
        }
    }
    // Struct field / binding annotation: `name: HashMap<..>`.
    let colon = line.find(':')?;
    let before: String = line[..colon]
        .trim_end()
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    let name: String = before.chars().rev().collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

// ---------------------------------------------------------------------------
// Interprocedural checkers (AQ008–AQ010)
// ---------------------------------------------------------------------------

/// One (held, acquired) edge with its observation site.
struct PairSite {
    held: String,
    acquired: String,
    path: String,
    line: usize,
    /// Callee label when the acquisition is reached through a call.
    via: Option<String>,
}

/// Runs AQ008 (interprocedural lock order), AQ009 (span balance), and
/// AQ010 (DES-blocking reachability) over the symbol graph.
pub fn graph_lints(ws: &Workspace) -> Vec<Finding> {
    let n = ws.fns.len();

    // Resolve every call once: resolved[f][call_idx] -> callee fn ids.
    let resolved: Vec<Vec<Vec<usize>>> = (0..n)
        .map(|f| ws.facts[f].calls.iter().map(|c| ws.resolve(f, c)).collect())
        .collect();

    let mut findings = Vec::new();
    let mut seen: BTreeSet<(String, usize, Lint, String)> = BTreeSet::new();
    let mut push =
        |findings: &mut Vec<Finding>, path: String, line: usize, lint: Lint, message: String| {
            // The fixed lint-tool exemption from the line lints applies here
            // too; fixture trees use their own roots so relative paths never
            // start with crates/analysis/.
            if path.starts_with("crates/analysis/") {
                return;
            }
            if seen.insert((path.clone(), line, lint, message.clone())) {
                findings.push(Finding {
                    path,
                    line,
                    lint,
                    text: message.clone(),
                    message,
                });
            }
        };

    // --- AQ008: transitive lock acquisition sets (fixpoint) ---
    // Calls inside spawn arguments run on the spawned thread, not under
    // the caller's held locks; exclude them from lock propagation.
    let mut acq: Vec<BTreeSet<String>> = (0..n)
        .map(|f| {
            ws.facts[f]
                .acquires
                .iter()
                .map(|(s, _)| s.clone())
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for f in 0..n {
            let mut add: Vec<String> = Vec::new();
            for (ci, callees) in resolved[f].iter().enumerate() {
                if ws.facts[f].calls[ci].in_spawn {
                    continue;
                }
                for &c in callees {
                    for l in &acq[c] {
                        if !acq[f].contains(l) {
                            add.push(l.clone());
                        }
                    }
                }
            }
            for l in add {
                changed |= acq[f].insert(l);
            }
        }
        if !changed {
            break;
        }
    }

    // Collect all (held, acquired) pair sites: direct (within one body)
    // plus interprocedural (a call made under a held lock reaches an
    // acquisition in the callee's transitive closure).
    let mut pairs: Vec<PairSite> = Vec::new();
    for (f, res) in resolved.iter().enumerate() {
        let path = ws.files[ws.fns[f].file].path.clone();
        for p in &ws.facts[f].pairs {
            pairs.push(PairSite {
                held: p.held.clone(),
                acquired: p.acquired.clone(),
                path: path.clone(),
                line: p.line as usize,
                via: None,
            });
        }
        for (held, ci) in &ws.facts[f].held_calls {
            if ws.facts[f].calls[*ci].in_spawn {
                continue;
            }
            for &callee in &res[*ci] {
                for l in &acq[callee] {
                    for h in held {
                        if h != l {
                            pairs.push(PairSite {
                                held: h.clone(),
                                acquired: l.clone(),
                                path: path.clone(),
                                line: ws.facts[f].calls[*ci].line as usize,
                                via: Some(ws.fn_label(callee)),
                            });
                        }
                    }
                }
            }
        }
    }

    // In-domain rank inversions. Same-name pairs are instance-keyed
    // (bucket locks share a name across instances) and are the runtime
    // detector's problem, not a static ordering violation.
    for p in &pairs {
        if p.held == p.acquired {
            continue;
        }
        let (Some((dh, rh)), Some((da, ra))) = (ws.ranks.get(&p.held), ws.ranks.get(&p.acquired))
        else {
            continue;
        };
        if dh == da && ra < rh {
            let via = p
                .via
                .as_ref()
                .map(|v| format!(" via call to `{v}`"))
                .unwrap_or_default();
            push(
                &mut findings,
                p.path.clone(),
                p.line,
                Lint::LockGraph,
                format!(
                    "'{}' (rank {ra}) acquired{via} while holding '{}' (rank {rh}) \
                     in domain '{da}'; the declared order forbids this inversion",
                    p.acquired, p.held
                ),
            );
        }
    }

    // Cross-domain (or unranked) cycles: edges held -> acquired; an edge
    // on a cycle not already reportable as an in-domain inversion is a
    // potential deadlock the rank tables cannot see.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for p in &pairs {
        if p.held != p.acquired {
            adj.entry(p.held.as_str())
                .or_default()
                .insert(p.acquired.as_str());
        }
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut stack = vec![from];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if !visited.insert(x) {
                continue;
            }
            if let Some(next) = adj.get(x) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut cyclic_reported: BTreeSet<(String, String)> = BTreeSet::new();
    for p in &pairs {
        if p.held == p.acquired {
            continue;
        }
        let same_domain_ranked = matches!(
            (ws.ranks.get(&p.held), ws.ranks.get(&p.acquired)),
            (Some((dh, _)), Some((da, _))) if dh == da
        );
        if same_domain_ranked {
            continue; // in-domain cycles imply a rank inversion, caught above
        }
        let key = (p.held.clone(), p.acquired.clone());
        if cyclic_reported.contains(&key) {
            continue;
        }
        if reaches(&p.acquired, &p.held) {
            cyclic_reported.insert(key);
            let via = p
                .via
                .as_ref()
                .map(|v| format!(" via call to `{v}`"))
                .unwrap_or_default();
            push(
                &mut findings,
                p.path.clone(),
                p.line,
                Lint::LockGraph,
                format!(
                    "lock-order cycle: '{}' acquired{via} while holding '{}', and \
                     '{}' is (transitively) held while acquiring '{}' elsewhere — \
                     cross-domain deadlock the rank tables cannot order",
                    p.acquired, p.held, p.acquired, p.held
                ),
            );
        }
    }

    // --- AQ009: span balance ---
    for f in 0..n {
        let path = ws.files[ws.fns[f].file].path.clone();
        for leak in &ws.facts[f].span_leaks {
            let what = match leak.exit {
                "rebind" => format!(
                    "span '{}' (begun line {}) still open when `{}` is rebound \
                     by a new span::begin",
                    leak.name, leak.begin_line, leak.var
                ),
                "discarded" => format!(
                    "span '{}' begun without binding the Span handle; it can \
                     never be ended",
                    leak.name
                ),
                exit => format!(
                    "span '{}' (begun line {}) escapes through `{}` without \
                     span::end; the trace loses its end event and the \
                     `<name>.cycles` histogram loses its sample",
                    leak.name, leak.begin_line, exit
                ),
            };
            push(
                &mut findings,
                path.clone(),
                leak.line as usize,
                Lint::SpanBalance,
                what,
            );
        }
    }

    // --- AQ010: host-blocking calls reachable from DES thread bodies ---
    // Roots: resolved callees of calls inside `.spawn(..)` arguments
    // (covers `Box::new(move |ctx| …)` closures and `evictor()`-style
    // ThreadFn factories alike).
    let mut roots: Vec<usize> = Vec::new();
    for (f, res) in resolved.iter().enumerate() {
        for (ci, c) in ws.facts[f].calls.iter().enumerate() {
            if c.in_spawn {
                roots.extend(res[ci].iter().copied());
            }
        }
    }
    let mut reachable = vec![false; n];
    let mut queue: VecDeque<usize> = roots.into_iter().collect();
    while let Some(f) = queue.pop_front() {
        if reachable[f] {
            continue;
        }
        reachable[f] = true;
        for callees in &resolved[f] {
            for &c in callees {
                if !reachable[c] {
                    queue.push_back(c);
                }
            }
        }
    }
    for (f, reach) in reachable.iter().enumerate() {
        let path = ws.files[ws.fns[f].file].path.clone();
        for (what, line, in_spawn) in &ws.facts[f].blocking {
            if *reach || *in_spawn {
                let ctx = if *in_spawn {
                    "inside a spawned ThreadFn body".to_string()
                } else {
                    format!("reachable from a spawned ThreadFn via `{}`", ws.fn_label(f))
                };
                push(
                    &mut findings,
                    path.clone(),
                    *line as usize,
                    Lint::DesBlocking,
                    format!(
                        "host-blocking `{what}` {ctx}; a DES thread must yield \
                         virtual time, never block the host"
                    ),
                );
            }
        }
    }

    findings
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Workspace;

    fn graph_findings(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::build(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        );
        graph_lints(&ws)
    }

    // ----- line-oriented lints (ported from the v1 monolith) -----

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn t() { let m = std::collections::HashMap::new(); }
}
fn live2() {}
";
        let findings = lint_file("crates/sim/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn aq001_flags_hashmap_in_sim_path() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let findings = lint_file("crates/pcache/src/x.rs", src);
        let aq1: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == Lint::NondeterministicMap)
            .collect();
        // One diagnostic per line per token kind.
        assert_eq!(aq1.len(), 2, "{findings:?}");
        assert_eq!(aq1[0].line, 1);
        assert_eq!(aq1[1].line, 2);
    }

    #[test]
    fn aq001_requires_whole_token() {
        let src = "struct MyHashMapLike; fn f(x: MyHashMapLike) {}\n";
        let findings = lint_file("crates/pcache/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn aq002_flags_wall_clock_outside_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(lint_file("crates/sim/src/x.rs", src).len(), 1);
        assert!(lint_file("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn aq003_flags_iteration_feeding_metrics() {
        let src = "\
fn f() {
    let mut counts = HashMap::new();
    counts.insert(1u32, 2u32);
    for (k, v) in &counts {
        metrics::record_latency_labeled(ctx, \"a.b\", *k as u16, Cycles(*v as u64));
    }
}
";
        let findings = lint_file("crates/sim/src/x.rs", src);
        assert!(
            findings.iter().any(|f| f.lint == Lint::UnorderedIteration),
            "{findings:?}"
        );
    }

    #[test]
    fn aq004_flags_rank_inversion_per_function() {
        let src = "\
fn bad(&self) {
    let rmap = self.rmap.lock();
    let vmas = self.vmas.read();
}
fn fine(&self) {
    let vmas = self.vmas.read();
    let rmap = self.rmap.lock();
}
";
        let findings = lint_file("crates/linuxsim/src/x.rs", src);
        let aq4: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == Lint::LockOrder)
            .collect();
        assert_eq!(aq4.len(), 1, "{findings:?}");
        assert_eq!(aq4[0].line, 3);
    }

    #[test]
    fn aq004_resets_between_functions() {
        let src = "\
fn a(&self) { let r = self.rmap.lock(); }
fn b(&self) { let f = self.files.lock(); }
";
        let findings = lint_file("crates/linuxsim/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn aq005_flags_direct_config_construction() {
        let literal = "fn f() { let c = AquilaConfig { cores: 1 }; }\n";
        let shim = "fn f() { let c = AquilaConfig::new(1, 64); }\n";
        let builder = "fn f() { let c = AquilaConfig::builder(1, 64).build(); }\n";
        for src in [literal, shim] {
            let findings = lint_file("crates/core/src/engine.rs", src);
            assert!(
                findings.iter().any(|f| f.lint == Lint::ConfigConstruction),
                "{src:?} -> {findings:?}"
            );
            assert!(
                lint_file("crates/core/src/config.rs", src).is_empty(),
                "builder module is exempt"
            );
        }
        assert!(lint_file("crates/core/src/engine.rs", builder).is_empty());
    }

    #[test]
    fn aq005_ignores_return_type_position() {
        // A return type followed by the function body brace is not a
        // struct literal.
        for src in [
            "pub fn config(&self) -> &AquilaConfig {\n",
            "fn take() -> AquilaConfig {\n",
            "fn dynish() -> Box<dyn AsRef<AquilaConfig>> { todo!() }\nfn f(c: &impl AsRef<AquilaConfig>) {}\n",
        ] {
            let findings = lint_file("crates/core/src/engine.rs", src);
            assert!(
                findings.iter().all(|f| f.lint != Lint::ConfigConstruction),
                "{src:?} -> {findings:?}"
            );
        }
    }

    #[test]
    fn aq006_flags_every_unwrap_inside_devices() {
        let src = "fn f(g: Guard) { let v = g.pop().unwrap(); }\n";
        let findings = lint_file("crates/devices/src/x.rs", src);
        assert!(
            findings.iter().any(|f| f.lint == Lint::DeviceUnwrap),
            "{findings:?}"
        );
        // Outside devices the same line has no device token: clean.
        assert!(lint_file("crates/core/src/x.rs", src)
            .iter()
            .all(|f| f.lint != Lint::DeviceUnwrap));
    }

    #[test]
    fn aq006_flags_device_calls_elsewhere_including_chains() {
        let inline = "fn f() { access.write_pages(ctx, 0, &b).unwrap(); }\n";
        let refs = "fn f() { access.read_refs(ctx, 0, &mut out).unwrap(); }\n";
        let adopt = "fn f() { store.adopt(3, page).expect(\"in range\"); }\n";
        let execute = "\
fn f() {
    let finish = dev
        .execute(ctx.now(), page, NvmeCmd::Read(&mut out))
        .expect(\"in range\");
}
";
        let chained = "\
fn f() {
    self.access
        .write_pages(ctx, base, buf)
        .expect(\"SST write\");
}
";
        for src in [inline, refs, adopt, execute, chained] {
            let findings = lint_file("crates/kvstore/src/x.rs", src);
            assert!(
                findings.iter().any(|f| f.lint == Lint::DeviceUnwrap),
                "{src:?} -> {findings:?}"
            );
        }
    }

    #[test]
    fn aq006_skips_tests_and_non_device_unwraps() {
        let src = "fn f() { let v = list.first().unwrap(); }\n";
        assert!(lint_file("crates/core/src/x.rs", src).is_empty());
        let dev = "fn f(g: Guard) { let v = g.pop().unwrap(); }\n";
        assert!(lint_file("crates/devices/src/tests.rs", dev).is_empty());
        let gated =
            "#[cfg(test)]\nmod t {\n    fn f() { d.read_pages(ctx, 0, &mut b).unwrap(); }\n}\n";
        assert!(lint_file("crates/core/src/x.rs", gated).is_empty());
    }

    #[test]
    fn aq007_flags_dynamic_metric_and_span_names() {
        let var = "fn f(ctx: &mut dyn SimCtx, name: &'static str) { metrics::record_latency_labeled(ctx, name, 0, Cycles(1)); }\n";
        let fmtd = "fn f(ctx: &mut dyn SimCtx) { let n = format!(\"m{}\", 1); trace::instant(ctx, &n, CostCat::App); }\n";
        for src in [var, fmtd] {
            let findings = lint_file("crates/core/src/x.rs", src);
            assert!(
                findings.iter().any(|f| f.lint == Lint::DynamicName),
                "{src:?} -> {findings:?}"
            );
        }
    }

    #[test]
    fn aq007_accepts_literal_names_and_exempts_bench() {
        let lit = "fn f(ctx: &mut dyn SimCtx) { metrics::record_latency_labeled(ctx, \"serve.request.cycles\", 3, Cycles(1)); }\n";
        assert!(lint_file("crates/core/src/x.rs", lit).is_empty());
        let multiline = "\
fn f(ctx: &mut dyn SimCtx) {
    let sp = aquila_sim::span::begin(
        ctx,
        \"aquila.fault\",
        CostCat::FaultHandler,
    );
    aquila_sim::span::end(ctx, sp);
}
";
        assert!(lint_file("crates/core/src/x.rs", multiline).is_empty());
        let span_child =
            "fn f(ctx: &mut dyn SimCtx) { let s = span::begin_child(ctx, \"tlb.ipi.drain\", CostCat::Tlb, p); span::end(ctx, s); }\n";
        assert!(lint_file("crates/sim/src/x.rs", span_child).is_empty());
        // Bench harness labels are host-side and may be dynamic.
        let var = "fn f(ctx: &mut dyn SimCtx, name: &'static str) { metrics::record_latency_labeled(ctx, name, 0, Cycles(1)); }\n";
        assert!(lint_file("crates/bench/src/x.rs", var).is_empty());
    }

    // ----- interprocedural checkers -----

    #[test]
    fn aq008_direct_inversion_in_one_body() {
        let findings = graph_findings(&[(
            "crates/demo/src/lib.rs",
            r#"
            const L_A: race::LockKey = ("d.a", 0);
            const L_B: race::LockKey = ("d.b", 0);
            fn setup() { race::declare_order("d", &["d.a", "d.b"]); }
            fn bad(ctx: &mut C) {
                race::acquire(ctx, L_B);
                race::acquire(ctx, L_A);
                race::release(ctx, L_A);
                race::release(ctx, L_B);
            }
            "#,
        )]);
        let aq8: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == Lint::LockGraph)
            .collect();
        assert_eq!(aq8.len(), 1, "{findings:?}");
        assert!(aq8[0].message.contains("'d.a'"), "{}", aq8[0].message);
    }

    #[test]
    fn aq008_interprocedural_inversion_through_helper() {
        let findings = graph_findings(&[(
            "crates/demo/src/lib.rs",
            r#"
            const L_A: race::LockKey = ("d.a", 0);
            const L_B: race::LockKey = ("d.b", 0);
            fn setup() { race::declare_order("d", &["d.a", "d.b"]); }
            fn outer(ctx: &mut C) {
                race::acquire(ctx, L_B);
                helper(ctx);
                race::release(ctx, L_B);
            }
            fn helper(ctx: &mut C) {
                race::acquire(ctx, L_A);
                race::release(ctx, L_A);
            }
            "#,
        )]);
        let aq8: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == Lint::LockGraph)
            .collect();
        assert_eq!(aq8.len(), 1, "{findings:?}");
        assert!(aq8[0].message.contains("via call to"), "{}", aq8[0].message);
    }

    #[test]
    fn aq008_correct_order_is_clean_even_across_calls() {
        let findings = graph_findings(&[(
            "crates/demo/src/lib.rs",
            r#"
            const L_A: race::LockKey = ("d.a", 0);
            const L_B: race::LockKey = ("d.b", 0);
            fn setup() { race::declare_order("d", &["d.a", "d.b"]); }
            fn outer(ctx: &mut C) {
                race::acquire(ctx, L_A);
                helper(ctx);
                race::release(ctx, L_A);
            }
            fn helper(ctx: &mut C) {
                race::acquire(ctx, L_B);
                race::release(ctx, L_B);
            }
            "#,
        )]);
        assert!(
            findings.iter().all(|f| f.lint != Lint::LockGraph),
            "{findings:?}"
        );
    }

    #[test]
    fn aq008_cross_domain_cycle() {
        let findings = graph_findings(&[(
            "crates/demo/src/lib.rs",
            r#"
            fn setup() {
                race::declare_order("p", &["p.x"]);
                race::declare_order("q", &["q.y"]);
            }
            fn one(ctx: &mut C) {
                race::acquire(ctx, ("p.x", 0));
                race::acquire(ctx, ("q.y", 0));
                race::release(ctx, ("q.y", 0));
                race::release(ctx, ("p.x", 0));
            }
            fn two(ctx: &mut C) {
                race::acquire(ctx, ("q.y", 0));
                race::acquire(ctx, ("p.x", 0));
                race::release(ctx, ("p.x", 0));
                race::release(ctx, ("q.y", 0));
            }
            "#,
        )]);
        let aq8: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == Lint::LockGraph)
            .collect();
        assert!(
            aq8.iter().any(|f| f.message.contains("cycle")),
            "{findings:?}"
        );
    }

    #[test]
    fn aq009_span_leak_through_question_mark() {
        let findings = graph_findings(&[(
            "crates/demo/src/lib.rs",
            r#"
            fn f(ctx: &mut C) -> Result<(), E> {
                let sp = span::begin(ctx, "io.fault", "c");
                fallible(ctx)?;
                span::end(ctx, sp);
                Ok(())
            }
            fn fallible(_c: &mut C) -> Result<(), E> { Ok(()) }
            "#,
        )]);
        let aq9: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == Lint::SpanBalance)
            .collect();
        assert_eq!(aq9.len(), 1, "{findings:?}");
        assert!(aq9[0].message.contains("io.fault"), "{}", aq9[0].message);
        assert!(aq9[0].message.contains("`?`"), "{}", aq9[0].message);
    }

    #[test]
    fn aq009_balanced_device_error_path_is_clean() {
        let findings = graph_findings(&[(
            "crates/demo/src/lib.rs",
            r#"
            fn f(ctx: &mut C) -> Result<(), DeviceError> {
                let sp = span::begin(ctx, "io.wb", "c");
                if let Err(e) = device_write(ctx) {
                    span::end(ctx, sp);
                    return Err(e);
                }
                span::end(ctx, sp);
                Ok(())
            }
            fn device_write(_c: &mut C) -> Result<(), DeviceError> { Ok(()) }
            "#,
        )]);
        assert!(
            findings.iter().all(|f| f.lint != Lint::SpanBalance),
            "{findings:?}"
        );
    }

    #[test]
    fn aq010_sleep_reachable_from_threadfn() {
        let findings = graph_findings(&[(
            "crates/demo/src/lib.rs",
            r#"
            fn boot(engine: &mut Engine) {
                engine.spawn(0, Box::new(move |ctx| { worker(ctx) }));
            }
            fn worker(ctx: &mut C) -> Step {
                nap();
                Step::Done
            }
            fn nap() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            "#,
        )]);
        let aq10: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == Lint::DesBlocking)
            .collect();
        assert_eq!(aq10.len(), 1, "{findings:?}");
        assert!(aq10[0].message.contains("sleep"), "{}", aq10[0].message);
    }

    #[test]
    fn aq010_sleep_not_reachable_is_clean() {
        let findings = graph_findings(&[(
            "crates/demo/src/lib.rs",
            r#"
            fn boot(engine: &mut Engine) {
                engine.spawn(0, Box::new(move |ctx| { worker(ctx) }));
            }
            fn worker(_ctx: &mut C) -> Step { Step::Done }
            fn host_only() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            "#,
        )]);
        assert!(
            findings.iter().all(|f| f.lint != Lint::DesBlocking),
            "{findings:?}"
        );
    }

    #[test]
    fn aq010_blocking_directly_inside_spawn_closure() {
        let findings = graph_findings(&[(
            "crates/demo/src/lib.rs",
            r#"
            fn boot(engine: &mut Engine) {
                engine.spawn(0, Box::new(move |ctx| {
                    std::thread::sleep(d);
                    Step::Done
                }));
            }
            "#,
        )]);
        let aq10: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == Lint::DesBlocking)
            .collect();
        assert_eq!(aq10.len(), 1, "{findings:?}");
        assert!(
            aq10[0].message.contains("inside a spawned ThreadFn"),
            "{}",
            aq10[0].message
        );
    }
}
