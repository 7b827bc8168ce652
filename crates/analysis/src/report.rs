//! Finding identities, the suppression allowlist, and output formats.
//!
//! Findings are reported three ways from one sorted list:
//!
//! - human text, one `path:line: AQxxx-id: message` per line;
//! - schema-versioned JSON ([`render_json`]) with a `scalars` object so
//!   `aquila-prof get` can gate CI on exact counts instead of grepping
//!   human output;
//! - SARIF 2.1.0 ([`render_sarif`]) for editor/code-host ingestion.
//!
//! The allowlist (`crates/analysis/allowlist.txt`) format is unchanged
//! from v1 — `AQxxx <path-substring> [line-substring]` — but entries now
//! track whether they suppressed anything this run: a stale entry is a
//! suppression that outlived its finding, and `--strict` makes that an
//! error so the allowlist cannot rot.

use std::fs;
use std::path::Path;

/// JSON schema version of the `--json` findings report. Bump on any
/// structural change so downstream scrapes fail loudly.
pub const JSON_SCHEMA_VERSION: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    NondeterministicMap,
    WallClock,
    UnorderedIteration,
    LockOrder,
    ConfigConstruction,
    DeviceUnwrap,
    DynamicName,
    LockGraph,
    SpanBalance,
    DesBlocking,
}

impl Lint {
    /// All lints, in report order.
    pub const ALL: [Lint; 10] = [
        Lint::NondeterministicMap,
        Lint::WallClock,
        Lint::UnorderedIteration,
        Lint::LockOrder,
        Lint::ConfigConstruction,
        Lint::DeviceUnwrap,
        Lint::DynamicName,
        Lint::LockGraph,
        Lint::SpanBalance,
        Lint::DesBlocking,
    ];

    pub fn id(self) -> &'static str {
        match self {
            Lint::NondeterministicMap => "AQ001-nondeterministic-map",
            Lint::WallClock => "AQ002-wall-clock",
            Lint::UnorderedIteration => "AQ003-unordered-iteration",
            Lint::LockOrder => "AQ004-lock-order",
            Lint::ConfigConstruction => "AQ005-config-construction",
            Lint::DeviceUnwrap => "AQ006-device-unwrap",
            Lint::DynamicName => "AQ007-dynamic-name",
            Lint::LockGraph => "AQ008-interprocedural-lock-order",
            Lint::SpanBalance => "AQ009-span-balance",
            Lint::DesBlocking => "AQ010-des-blocking",
        }
    }

    /// AQ code alone (`AQ001`), the form used in the allowlist.
    pub fn code(self) -> &'static str {
        match self {
            Lint::NondeterministicMap => "AQ001",
            Lint::WallClock => "AQ002",
            Lint::UnorderedIteration => "AQ003",
            Lint::LockOrder => "AQ004",
            Lint::ConfigConstruction => "AQ005",
            Lint::DeviceUnwrap => "AQ006",
            Lint::DynamicName => "AQ007",
            Lint::LockGraph => "AQ008",
            Lint::SpanBalance => "AQ009",
            Lint::DesBlocking => "AQ010",
        }
    }

    /// One-line rule description for the SARIF rule table.
    pub fn describe(self) -> &'static str {
        match self {
            Lint::NondeterministicMap => {
                "HashMap/HashSet on sim paths have seed-randomized iteration order"
            }
            Lint::WallClock => "wall-clock or host-RNG reads on sim paths",
            Lint::UnorderedIteration => {
                "iteration over an unordered container feeds an observability sink"
            }
            Lint::LockOrder => "single-function lock acquisition contradicts the declared rank order",
            Lint::ConfigConstruction => "AquilaConfig constructed outside the builder",
            Lint::DeviceUnwrap => "device-layer Result unwrapped instead of routed to retry policy",
            Lint::DynamicName => "metric/span name is not a static literal at the call site",
            Lint::LockGraph => {
                "interprocedural lock acquisition chain inverts a declared rank or forms a cross-domain cycle"
            }
            Lint::SpanBalance => {
                "a span::begin can escape through a control-flow exit without span::end, losing its trace end and its <name>.cycles histogram sample"
            }
            Lint::DesBlocking => "host-blocking call reachable from a DES thread body",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub path: String,
    pub line: usize,
    pub lint: Lint,
    pub message: String,
    /// The cleaned source line, for allowlist line-substring matching.
    pub text: String,
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

pub struct Allowlist {
    entries: Vec<Entry>,
}

struct Entry {
    code: String,
    path: String,
    text: Option<String>,
    /// Raw line, echoed in stale-entry diagnostics.
    raw: String,
}

impl Allowlist {
    pub fn load(path: &Path) -> Allowlist {
        let text = fs::read_to_string(path).unwrap_or_default();
        Allowlist::parse(&text)
    }

    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (Some(code), Some(path)) = (parts.next(), parts.next()) else {
                continue;
            };
            let rest = parts.next().map(|s| s.trim().to_string());
            entries.push(Entry {
                code: code.to_string(),
                path: path.to_string(),
                text: rest,
                raw: line.to_string(),
            });
        }
        Allowlist { entries }
    }

    fn matches(e: &Entry, f: &Finding) -> bool {
        e.code == f.lint.code()
            && f.path.contains(e.path.as_str())
            && e.text.as_ref().is_none_or(|t| f.text.contains(t.as_str()))
    }

    pub fn covers(&self, f: &Finding) -> bool {
        self.entries.iter().any(|e| Allowlist::matches(e, f))
    }

    /// Splits `findings` into (visible, suppressed) and reports the raw
    /// text of entries that suppressed nothing — stale suppressions.
    pub fn apply(&self, findings: &[Finding]) -> Applied {
        let mut used = vec![false; self.entries.len()];
        let mut visible = Vec::new();
        let mut suppressed = Vec::new();
        for f in findings {
            let mut hit = false;
            for (i, e) in self.entries.iter().enumerate() {
                if Allowlist::matches(e, f) {
                    used[i] = true;
                    hit = true;
                }
            }
            if hit {
                suppressed.push(f.clone());
            } else {
                visible.push(f.clone());
            }
        }
        let stale = self
            .entries
            .iter()
            .zip(&used)
            .filter(|(_, u)| !**u)
            .map(|(e, _)| e.raw.clone())
            .collect();
        Applied {
            visible,
            suppressed,
            stale,
        }
    }
}

/// The allowlist's verdict over one run's findings.
pub struct Applied {
    pub visible: Vec<Finding>,
    pub suppressed: Vec<Finding>,
    /// Raw allowlist lines that suppressed no finding this run.
    pub stale: Vec<String>,
}

// ---------------------------------------------------------------------------
// Machine-readable output
// ---------------------------------------------------------------------------

/// Workspace-shape statistics, surfaced in the JSON report so CI can
/// sanity-check that the symbol graph actually saw the code.
#[derive(Debug, Default, Clone)]
pub struct GraphStats {
    pub files: usize,
    pub functions: usize,
    pub call_edges: usize,
    pub lock_sites: usize,
    pub span_sites: usize,
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding, suppressed: bool, out: &mut String) {
    out.push_str(&format!(
        "    {{\"id\": \"{}\", \"path\": \"{}\", \"line\": {}, \"suppressed\": {}, \"message\": \"{}\"}}",
        f.lint.id(),
        esc(&f.path),
        f.line,
        suppressed,
        esc(&f.message)
    ));
}

/// Renders the schema-versioned JSON findings report. The `scalars`
/// object mirrors the schema-v3 bench reports so `aquila-prof get
/// <report> <name> --le/--ge` gates work unchanged.
pub fn render_json(applied: &Applied, stats: &GraphStats) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {JSON_SCHEMA_VERSION},\n  \"tool\": \"aquila-analysis\",\n"
    ));
    out.push_str("  \"scalars\": {\n");
    out.push_str(&format!(
        "    \"findings/visible\": {},\n",
        applied.visible.len()
    ));
    out.push_str(&format!(
        "    \"findings/suppressed\": {},\n",
        applied.suppressed.len()
    ));
    out.push_str(&format!(
        "    \"allowlist/stale\": {},\n",
        applied.stale.len()
    ));
    out.push_str(&format!("    \"graph/files\": {},\n", stats.files));
    out.push_str(&format!("    \"graph/functions\": {},\n", stats.functions));
    out.push_str(&format!(
        "    \"graph/call_edges\": {},\n",
        stats.call_edges
    ));
    out.push_str(&format!(
        "    \"graph/lock_sites\": {},\n",
        stats.lock_sites
    ));
    out.push_str(&format!("    \"graph/span_sites\": {}\n", stats.span_sites));
    out.push_str("  },\n");
    out.push_str("  \"findings\": [\n");
    let mut first = true;
    for (f, sup) in applied
        .visible
        .iter()
        .map(|f| (f, false))
        .chain(applied.suppressed.iter().map(|f| (f, true)))
    {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        finding_json(f, sup, &mut out);
    }
    out.push_str("\n  ],\n");
    out.push_str("  \"stale_allowlist\": [");
    for (i, s) in applied.stale.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", esc(s)));
    }
    out.push_str("]\n}\n");
    out
}

/// Renders visible findings as a SARIF 2.1.0 log (suppressed findings
/// appear with `suppressions` filled in, matching the SARIF model).
pub fn render_sarif(applied: &Applied) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n  \"runs\": [{\n");
    out.push_str("    \"tool\": {\"driver\": {\"name\": \"aquila-analysis\", \"rules\": [\n");
    for (i, lint) in Lint::ALL.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            lint.id(),
            esc(lint.describe()),
            if i + 1 < Lint::ALL.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]}},\n    \"results\": [\n");
    let all: Vec<(&Finding, bool)> = applied
        .visible
        .iter()
        .map(|f| (f, false))
        .chain(applied.suppressed.iter().map(|f| (f, true)))
        .collect();
    for (i, (f, sup)) in all.iter().enumerate() {
        let suppression = if *sup {
            ", \"suppressions\": [{\"kind\": \"external\"}]"
        } else {
            ""
        };
        out.push_str(&format!(
            "      {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}]{}}}{}\n",
            f.lint.id(),
            esc(&f.message),
            esc(&f.path),
            f.line,
            suppression,
            if i + 1 < all.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n  }]\n}\n");
    out
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn f(lint: Lint, path: &str, text: &str) -> Finding {
        Finding {
            path: path.to_string(),
            line: 1,
            lint,
            message: "m \"quoted\"".to_string(),
            text: text.to_string(),
        }
    }

    #[test]
    fn allowlist_matches_code_path_and_text() {
        let allow = Allowlist::parse("# comment\nAQ001 crates/pcache/ model\nAQ002 crates/sim/\n");
        assert!(allow.covers(&f(
            Lint::NondeterministicMap,
            "crates/pcache/src/x.rs",
            "let model = HashMap::new();"
        )));
        assert!(!allow.covers(&f(
            Lint::NondeterministicMap,
            "crates/pcache/src/x.rs",
            "let other = HashMap::new();"
        )));
        assert!(allow.covers(&f(Lint::WallClock, "crates/sim/src/y.rs", "anything")));
        assert!(!allow.covers(&f(Lint::WallClock, "crates/mmu/src/y.rs", "anything")));
    }

    #[test]
    fn apply_reports_stale_entries() {
        let allow = Allowlist::parse("AQ001 crates/pcache/\nAQ009 crates/never/\n");
        let findings = vec![f(Lint::NondeterministicMap, "crates/pcache/src/x.rs", "t")];
        let applied = allow.apply(&findings);
        assert_eq!(applied.visible.len(), 0);
        assert_eq!(applied.suppressed.len(), 1);
        assert_eq!(applied.stale, vec!["AQ009 crates/never/".to_string()]);
    }

    #[test]
    fn json_report_has_schema_and_scalars() {
        let allow = Allowlist::parse("");
        let applied = allow.apply(&[f(Lint::SpanBalance, "crates/core/src/x.rs", "t")]);
        let json = render_json(&applied, &GraphStats::default());
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"findings/visible\": 1"));
        assert!(json.contains("AQ009-span-balance"));
        assert!(json.contains("\\\"quoted\\\""));
    }

    #[test]
    fn sarif_lists_rules_and_results() {
        let allow = Allowlist::parse("AQ008 crates/pcache/");
        let applied = allow.apply(&[
            f(Lint::LockGraph, "crates/pcache/src/x.rs", "t"),
            f(Lint::DesBlocking, "crates/core/src/x.rs", "t"),
        ]);
        let sarif = render_sarif(&applied);
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("AQ010-des-blocking"));
        assert!(sarif.contains("suppressions"));
        // Every rule is declared even when unfired.
        assert!(sarif.contains("AQ002-wall-clock"));
    }
}
