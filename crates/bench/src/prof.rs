//! Offline analysis for Chrome-trace exports and JSON reports of the
//! current schema (the `aquila-prof` binary is a thin CLI over this
//! module).
//!
//! Three capabilities:
//!
//! - **Span reconstruction** — parse the `b`/`e` async events written by
//!   `aquila_sim::trace::Tracer::export_chrome` back into completed
//!   spans with parent links, using the exact `ts_cycles` stamps from
//!   `args` (the `ts` microsecond field is lossy; cycles are not).
//! - **Folding** — attribute each span's *self* cycles (duration minus
//!   the part covered by its children) to its full parent-chain stack,
//!   producing `a;b;c <cycles>` folded-flamegraph lines plus a per-stage
//!   self/total table. Folding walks parent ids, not per-tid stacks, so
//!   it is robust to several virtual threads multiplexed on one core
//!   and to cross-thread causal children.
//! - **Regression diff** — compare the `latency` arrays of two reports
//!   quantile by quantile with a multiplicative tolerance. Both must carry
//!   the current [`SCHEMA_VERSION`]; older reports are rejected, not
//!   interpreted.
//!
//! Determinism: all aggregation is over sorted keys, so identical traces
//! fold to byte-identical output.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::report::SCHEMA_VERSION;

/// A span reconstructed from a Chrome trace export.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name (the `&'static str` the sim path used).
    pub name: String,
    /// Unique span id (`args.span_id`).
    pub id: u64,
    /// Parent span id, 0 for roots (`args.parent_span`).
    pub parent: u64,
    /// Begin timestamp in exact cycles (`args.ts_cycles`).
    pub begin_cycles: u64,
    /// End timestamp in exact cycles; `None` while open in the trace.
    pub end_cycles: Option<u64>,
    /// Virtual core the begin was recorded on (`tid`).
    pub tid: u64,
}

impl SpanRec {
    /// Duration in cycles; `None` for spans without an end event.
    pub fn duration(&self) -> Option<u64> {
        self.end_cycles.map(|e| e.saturating_sub(self.begin_cycles))
    }
}

/// Parses a Chrome trace document into spans (other phases are ignored).
///
/// An `e` without a matching `b` is impossible in our exports (the ring
/// exporter suppresses torn pairs) but tolerated here: it is dropped.
pub fn parse_trace(doc: &Json) -> Result<Vec<SpanRec>, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array")?;
    let mut spans: Vec<SpanRec> = Vec::new();
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        let args = ev.get("args");
        let span_id = args.and_then(|a| a.get("span_id")).and_then(Json::as_u64);
        let ts_cycles = args.and_then(|a| a.get("ts_cycles")).and_then(Json::as_u64);
        match ph {
            "b" => {
                let (Some(id), Some(ts)) = (span_id, ts_cycles) else {
                    return Err("span begin without span_id/ts_cycles".into());
                };
                let rec = SpanRec {
                    name: ev
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    id,
                    parent: args
                        .and_then(|a| a.get("parent_span"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                    begin_cycles: ts,
                    end_cycles: None,
                    tid: ev.get("tid").and_then(Json::as_u64).unwrap_or(0),
                };
                by_id.insert(id, spans.len());
                spans.push(rec);
            }
            "e" => {
                if let (Some(id), Some(ts)) = (span_id, ts_cycles) {
                    if let Some(&i) = by_id.get(&id) {
                        spans[i].end_cycles = Some(ts);
                    }
                }
            }
            _ => {}
        }
    }
    Ok(spans)
}

/// Per-stage (per span name) cycle attribution.
#[derive(Debug, Clone)]
pub struct StageStat {
    /// Span name.
    pub name: String,
    /// Completed spans with this name.
    pub count: u64,
    /// Sum of span durations.
    pub total_cycles: u64,
    /// Sum of self time (duration not covered by children).
    pub self_cycles: u64,
}

/// A folded profile: flamegraph lines plus the per-stage table.
#[derive(Debug, Clone)]
pub struct Profile {
    /// `root;child;leaf cycles` lines, sorted by stack, self-time
    /// weights.
    pub folded: Vec<(String, u64)>,
    /// Per-name stats sorted by descending total.
    pub stages: Vec<StageStat>,
}

impl Profile {
    /// Renders the folded lines in the common `stack weight` format.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (stack, cycles) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&cycles.to_string());
            out.push('\n');
        }
        out
    }

    /// Total self cycles attributed under stacks rooted at `root`
    /// (exact; used to cross-check against engine histograms).
    pub fn rooted_total(&self, root: &str) -> u64 {
        self.folded
            .iter()
            .filter(|(stack, _)| stack == root || stack.starts_with(&format!("{root};")))
            .map(|(_, c)| *c)
            .sum()
    }
}

/// Folds completed spans into a profile.
///
/// Self time is `duration - sum(child overlap with this span)`. A child
/// strictly nested on the same virtual thread overlaps its parent
/// completely, so self times telescope: the subtree under a root sums
/// exactly to the root's duration. A *causal* child on another thread
/// (e.g. an msync drain linked under an evictor round) only subtracts
/// the part that falls inside the parent's window; its remainder stays
/// attributed to its own stack line.
pub fn fold(spans: &[SpanRec]) -> Profile {
    let by_id: BTreeMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    // Overlap of each completed child with its completed parent.
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        let Some(end) = s.end_cycles else { continue };
        let Some(parent) = by_id.get(&s.parent) else {
            continue;
        };
        let Some(pend) = parent.end_cycles else {
            continue;
        };
        let lo = s.begin_cycles.max(parent.begin_cycles);
        let hi = end.min(pend);
        *covered.entry(parent.id).or_insert(0) += hi.saturating_sub(lo);
    }
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut stages: BTreeMap<&str, StageStat> = BTreeMap::new();
    for s in spans {
        let Some(dur) = s.duration() else { continue };
        let self_cycles = dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        // Build the stack by walking parent ids (depth-capped: cycles in
        // the parent graph would be a tracer bug, not a reason to hang).
        let mut stack = vec![s.name.as_str()];
        let mut cur = s.parent;
        for _ in 0..64 {
            let Some(p) = by_id.get(&cur) else { break };
            stack.push(p.name.as_str());
            cur = p.parent;
        }
        stack.reverse();
        *folded.entry(stack.join(";")).or_insert(0) += self_cycles;
        let st = stages.entry(s.name.as_str()).or_insert_with(|| StageStat {
            name: s.name.clone(),
            count: 0,
            total_cycles: 0,
            self_cycles: 0,
        });
        st.count += 1;
        st.total_cycles += dur;
        st.self_cycles += self_cycles;
    }
    let mut stages: Vec<StageStat> = stages.into_values().collect();
    stages.sort_by(|a, b| {
        b.total_cycles
            .cmp(&a.total_cycles)
            .then_with(|| a.name.cmp(&b.name))
    });
    Profile {
        folded: folded.into_iter().collect(),
        stages,
    }
}

/// Renders the per-stage table (`name count total self`).
pub fn stage_table(p: &Profile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>8} {:>16} {:>16}\n",
        "stage", "count", "total_cycles", "self_cycles"
    ));
    for s in &p.stages {
        out.push_str(&format!(
            "{:<28} {:>8} {:>16} {:>16}\n",
            s.name, s.count, s.total_cycles, s.self_cycles
        ));
    }
    out
}

/// One percentile that got worse than the baseline allows.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Histogram name (e.g. `aquila.fault.cycles`).
    pub name: String,
    /// Which field regressed (e.g. `p99_cycles`).
    pub quantile: String,
    /// Baseline value in cycles.
    pub baseline: u64,
    /// Current value in cycles.
    pub current: u64,
}

impl Regression {
    /// current / baseline (baseline 0 reports as infinite).
    pub fn ratio(&self) -> f64 {
        if self.baseline == 0 {
            f64::INFINITY
        } else {
            self.current as f64 / self.baseline as f64
        }
    }
}

/// Diffs the `latency` arrays of two reports of the current schema.
///
/// For every histogram present in the baseline and every quantile field
/// in `quantiles` (e.g. `["p99_cycles", "p999_cycles"]`), the current
/// value may exceed the baseline by at most `tolerance` (0.10 = +10%).
/// Histograms missing from the current report are regressions too: the
/// instrumentation was lost.
pub fn diff_latency(
    current: &Json,
    baseline: &Json,
    quantiles: &[&str],
    tolerance: f64,
) -> Result<Vec<Regression>, String> {
    for (doc, which) in [(current, "current"), (baseline, "baseline")] {
        let v = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{which}: missing schema_version"))?;
        if v != SCHEMA_VERSION {
            return Err(format!(
                "{which}: schema_version {v}, expected {SCHEMA_VERSION}; regenerate the report"
            ));
        }
    }
    let base = baseline
        .get("latency")
        .and_then(Json::as_arr)
        .ok_or("baseline: no latency array")?;
    let cur = current
        .get("latency")
        .and_then(Json::as_arr)
        .ok_or("current: no latency array")?;
    let cur_by_name: BTreeMap<&str, &Json> = cur
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str).map(|n| (n, e)))
        .collect();
    let mut regressions = Vec::new();
    for b in base {
        let Some(name) = b.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(c) = cur_by_name.get(name) else {
            regressions.push(Regression {
                name: name.to_string(),
                quantile: "missing".to_string(),
                baseline: 0,
                current: 0,
            });
            continue;
        };
        for q in quantiles {
            let (Some(bv), Some(cv)) = (
                b.get(q).and_then(Json::as_u64),
                c.get(q).and_then(Json::as_u64),
            ) else {
                continue;
            };
            let limit = (bv as f64 * (1.0 + tolerance)).ceil() as u64;
            if cv > limit {
                regressions.push(Regression {
                    name: name.to_string(),
                    quantile: q.to_string(),
                    baseline: bv,
                    current: cv,
                });
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, b: u64, e: u64) -> SpanRec {
        SpanRec {
            name: name.to_string(),
            id,
            parent,
            begin_cycles: b,
            end_cycles: Some(e),
            tid: 0,
        }
    }

    #[test]
    fn fold_telescopes_nested_spans() {
        // root [0,1000] -> a [100,400] -> b [150,300]; c [500,600].
        let spans = vec![
            span(1, 0, "root", 0, 1000),
            span(2, 1, "a", 100, 400),
            span(3, 2, "b", 150, 300),
            span(4, 1, "c", 500, 600),
        ];
        let p = fold(&spans);
        let m: BTreeMap<_, _> = p.folded.iter().cloned().collect();
        assert_eq!(m["root"], 600); // 1000 - 300 - 100
        assert_eq!(m["root;a"], 150); // 300 - 150
        assert_eq!(m["root;a;b"], 150);
        assert_eq!(m["root;c"], 100);
        assert_eq!(p.rooted_total("root"), 1000);
    }

    #[test]
    fn fold_clips_cross_thread_children_to_parent_window() {
        // Causal child extends past its parent: only the overlap is
        // subtracted from the parent; the remainder stays on the child.
        let spans = vec![span(1, 0, "round", 0, 100), span(2, 1, "drain", 50, 300)];
        let p = fold(&spans);
        let m: BTreeMap<_, _> = p.folded.iter().cloned().collect();
        assert_eq!(m["round"], 50); // 100 - overlap 50
        assert_eq!(m["round;drain"], 250);
        assert_eq!(p.rooted_total("round"), 300);
    }

    #[test]
    fn open_spans_are_skipped() {
        let mut open = span(2, 1, "open", 10, 0);
        open.end_cycles = None;
        let spans = vec![span(1, 0, "root", 0, 100), open];
        let p = fold(&spans);
        assert_eq!(p.rooted_total("root"), 100);
        assert_eq!(p.stages.len(), 1);
    }

    #[test]
    fn parse_trace_reconstructs_pairs() {
        let doc = Json::parse(
            r#"{"traceEvents":[
            {"name":"f","cat":"fault","ph":"b","id2":{"local":"0x1"},"ts":0.0,"pid":1,"tid":2,"args":{"span_id":1,"parent_span":0,"ts_cycles":100}},
            {"name":"x","ph":"M"},
            {"name":"f","cat":"fault","ph":"e","id2":{"local":"0x1"},"ts":1.0,"pid":1,"tid":2,"args":{"span_id":1,"ts_cycles":350}}
            ]}"#,
        )
        .unwrap();
        let spans = parse_trace(&doc).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration(), Some(250));
        assert_eq!(spans[0].tid, 2);
    }

    fn report(p99: u64) -> Json {
        report_v(SCHEMA_VERSION, p99)
    }

    fn report_v(version: u64, p99: u64) -> Json {
        Json::obj().with("schema_version", Json::U64(version)).with(
            "latency",
            Json::Arr(vec![Json::obj()
                .with("name", Json::from("aquila.fault.cycles"))
                .with("p50_cycles", Json::U64(100))
                .with("p99_cycles", Json::U64(p99))]),
        )
    }

    #[test]
    fn diff_flags_inflated_p99() {
        let regs = diff_latency(&report(250), &report(200), &["p99_cycles"], 0.10).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].quantile, "p99_cycles");
        assert!(regs[0].ratio() > 1.2);
    }

    #[test]
    fn diff_allows_within_tolerance() {
        let regs = diff_latency(&report(219), &report(200), &["p99_cycles"], 0.10).unwrap();
        assert!(regs.is_empty());
    }

    #[test]
    fn diff_flags_missing_histogram() {
        let cur = Json::obj()
            .with("schema_version", Json::U64(SCHEMA_VERSION))
            .with("latency", Json::Arr(vec![]));
        let regs = diff_latency(&cur, &report(200), &["p99_cycles"], 0.10).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].quantile, "missing");
    }

    #[test]
    fn diff_rejects_old_schema() {
        for v in [2, 4] {
            let old = report_v(v, 200);
            let err = diff_latency(&old, &report(200), &["p99_cycles"], 0.1).unwrap_err();
            assert!(
                err.contains(&format!("schema_version {v}"))
                    && err.contains(&format!("expected {SCHEMA_VERSION}")),
                "{err}"
            );
            assert!(diff_latency(&report(200), &old, &["p99_cycles"], 0.1).is_err());
        }
    }
}
