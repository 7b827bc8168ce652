//! Workspace symbol graph: function definitions, impl owners, call edges,
//! lock-guard acquisition sites, and span begin/end sites, built from the
//! token streams produced by [`crate::lexer`].
//!
//! The graph is the substrate for the interprocedural checkers (AQ008–AQ010
//! in [`crate::lints`]).  It is deliberately a *syntactic* approximation: no
//! type inference, no trait resolution.  That is enough here because the
//! workspace's locking and span discipline is fully explicit — every lock
//! acquisition is a `race::acquire(ctx, CONST_KEY)` call with a const key
//! whose lock-name string is resolvable at parse time, and every span is a
//! `span::begin*` / `span::end*` pair on a local binding.
//!
//! Call resolution policy (documented under-approximation):
//! * `self.method(..)` resolves to a method of the same impl owner.
//! * `Type::method(..)` / `Self::method(..)` resolve exactly via the owner
//!   index.
//! * A bare `name(..)` call prefers a same-file definition, then a
//!   same-crate one, then a globally unique one.
//! * A bare `.method(..)` whose name is defined under several owners is
//!   dropped (ambiguous); a uniquely named method resolves globally.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::lexer::{self, Tok, TokKind};

/// One parsed source file.
pub struct FileSrc {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub toks: Vec<Tok>,
}

/// A function (or method) definition.
pub struct FnDef {
    pub name: String,
    /// Impl/trait owner type name, if this is a method.
    pub owner: Option<String>,
    /// Crate name derived from the path (`crates/<krate>/…`), or the path's
    /// first component for fixture trees.
    pub krate: String,
    pub file: usize,
    pub line: u32,
    /// Token range of the body, *excluding* the outer braces.
    pub body: Range<usize>,
    pub is_test: bool,
}

/// A call site observed inside a function body.
#[derive(Clone)]
pub struct CallRef {
    pub line: u32,
    /// Path segments of the callee: `["Type", "method"]`, `["helper"]`, …
    /// For `.method()` calls this is just `["method"]` with `method = true`.
    pub segments: Vec<String>,
    pub method: bool,
    /// True for `self.method(..)`.
    pub recv_self: bool,
    /// True when the call site sits inside the argument list of a
    /// `.spawn(..)` call — these are the DES thread entry points for AQ010.
    pub in_spawn: bool,
}

/// An ordered (held, acquired) lock pair observed on some path through a
/// single body.
#[derive(Clone)]
pub struct LockPair {
    pub held: String,
    pub acquired: String,
    pub line: u32,
}

/// A span begin that can escape on some exit path.
#[derive(Clone)]
pub struct SpanLeak {
    pub line: u32,
    /// Binding name, or `"_"` for a discarded begin.
    pub var: String,
    /// Span name argument, when it was a resolvable string/const.
    pub name: String,
    pub begin_line: u32,
    /// Exit kind: `"return"`, `"?"`, `"break"`, `"continue"`, `"end of fn"`,
    /// `"rebind"`, `"discarded"`.
    pub exit: &'static str,
}

/// Per-body facts extracted by the path-sensitive walker.
#[derive(Default)]
pub struct BodyFacts {
    pub calls: Vec<CallRef>,
    /// Direct `race::acquire` sites: (lock name, line).
    pub acquires: Vec<(String, u32)>,
    /// Direct (held, acquired) pairs on some path through this body.
    pub pairs: Vec<LockPair>,
    /// Calls made while at least one lock is held: (held names, call index).
    pub held_calls: Vec<(Vec<String>, usize)>,
    pub span_leaks: Vec<SpanLeak>,
    /// `span::begin*` site count (graph statistics).
    pub span_begins: u32,
    /// Host-blocking call sites: (description, line, inside spawn args).
    pub blocking: Vec<(String, u32, bool)>,
}

/// The workspace symbol graph.
pub struct Workspace {
    pub files: Vec<FileSrc>,
    pub fns: Vec<FnDef>,
    pub facts: Vec<BodyFacts>,
    /// Lock name -> (domain, rank) from `race::declare_order` calls.
    pub ranks: BTreeMap<String, (String, usize)>,
    /// name -> fn ids (free functions and methods alike).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// (owner, name) -> fn ids.
    pub by_owner: BTreeMap<(String, String), Vec<usize>>,
}

fn krate_of(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    if parts.len() >= 2 && parts[0] == "crates" {
        parts[1].to_string()
    } else {
        parts[0].to_string()
    }
}

impl Workspace {
    /// Lex and parse every `(path, source)` pair into a symbol graph.
    pub fn build(sources: Vec<(String, String)>) -> Workspace {
        let mut files = Vec::new();
        for (path, src) in sources {
            files.push(FileSrc {
                path,
                toks: lexer::lex(&src),
            });
        }

        // Pass 1: string constants usable as lock keys / span names.
        // `const NAME: … = "s"` and `const NAME: LockKey = ("s", …)`.
        let mut consts_global: BTreeMap<String, String> = BTreeMap::new();
        let mut consts_file: Vec<BTreeMap<String, String>> = Vec::new();
        for f in &files {
            let mut local = BTreeMap::new();
            let t = &f.toks;
            let mut i = 0;
            while i < t.len() {
                if t[i].kind.is_ident("const") {
                    if let Some(TokKind::Ident(name)) = t.get(i + 1).map(|x| &x.kind) {
                        // Scan to `=` at this item, then look for the first
                        // string literal before the terminating `;`.
                        let mut j = i + 2;
                        while j < t.len()
                            && !t[j].kind.is_punct('=')
                            && !t[j].kind.is_punct(';')
                            && !t[j].kind.is_punct('{')
                        {
                            j += 1;
                        }
                        if j < t.len() && t[j].kind.is_punct('=') {
                            let mut k = j + 1;
                            while k < t.len() && !t[k].kind.is_punct(';') {
                                if let TokKind::Str(s) = &t[k].kind {
                                    local.insert(name.clone(), s.clone());
                                    consts_global.insert(name.clone(), s.clone());
                                    break;
                                }
                                k += 1;
                            }
                        }
                    }
                }
                i += 1;
            }
            consts_file.push(local);
        }

        // Pass 2: declared lock rank tables.
        // `race::declare_order(domain_expr, &[e0, e1, …])` where each entry
        // is a string literal, a const name, or a `(expr).0`-style tuple.
        let mut ranks: BTreeMap<String, (String, usize)> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            let t = &f.toks;
            let mut i = 0;
            while i + 1 < t.len() {
                if t[i].kind.is_ident("declare_order") && t[i + 1].kind.is_punct('(') {
                    let close = match_delim(t, i + 1);
                    let domain = t[i + 2..close]
                        .iter()
                        .find_map(|x| x.kind.str_lit().map(str::to_string))
                        .unwrap_or_else(|| "?".into());
                    // Entries: idents/strings between `[` and `]`.
                    if let Some(open) = (i + 2..close).find(|&j| t[j].kind.is_punct('[')) {
                        let end = match_delim(t, open);
                        let mut rank = 0usize;
                        let mut j = open + 1;
                        while j < end {
                            let name = match &t[j].kind {
                                TokKind::Str(s) => Some(s.clone()),
                                TokKind::Ident(id) => {
                                    resolve_const(id, fi, &consts_file, &consts_global)
                                }
                                _ => None,
                            };
                            if let Some(n) = name {
                                ranks.entry(n).or_insert((domain.clone(), rank));
                                rank += 1;
                                // Skip to next `,` at bracket depth 0.
                                let mut depth = 0i32;
                                while j < end {
                                    match &t[j].kind {
                                        TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                                        TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                                        TokKind::Punct(',') if depth == 0 => break,
                                        _ => {}
                                    }
                                    j += 1;
                                }
                            }
                            j += 1;
                        }
                    }
                    i = close;
                }
                i += 1;
            }
        }

        // Pass 3: item scan — fn defs with impl owners.
        let mut fns: Vec<FnDef> = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            let is_test_file = f.path.ends_with("/tests.rs");
            scan_items(
                &f.toks,
                0..f.toks.len(),
                None,
                false,
                is_test_file,
                &mut |name, owner, line, body, is_test| {
                    fns.push(FnDef {
                        name,
                        owner,
                        krate: krate_of(&f.path),
                        file: fi,
                        line,
                        body,
                        is_test,
                    });
                },
            );
        }

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (id, d) in fns.iter().enumerate() {
            by_name.entry(d.name.clone()).or_default().push(id);
            if let Some(o) = &d.owner {
                by_owner
                    .entry((o.clone(), d.name.clone()))
                    .or_default()
                    .push(id);
            }
        }

        // Pass 4: body walk per fn.
        let mut facts = Vec::with_capacity(fns.len());
        for d in &fns {
            if d.is_test {
                facts.push(BodyFacts::default());
                continue;
            }
            let f = &files[d.file];
            let local_consts = &consts_file[d.file];
            let mut w = Walker {
                toks: &f.toks,
                facts: BodyFacts::default(),
                consts_local: local_consts,
                consts_global: &consts_global,
                spawn_depth: 0,
            };
            let exit = w.walk(d.body.clone(), St::live());
            w.flag_exit(&exit, "end of fn");
            facts.push(w.facts);
        }

        Workspace {
            files,
            fns,
            facts,
            ranks,
            by_name,
            by_owner,
        }
    }

    /// Resolve a call reference from `caller` to candidate fn ids.
    pub fn resolve(&self, caller: usize, call: &CallRef) -> Vec<usize> {
        let cd = &self.fns[caller];
        let name = call.segments.last().unwrap();
        if call.method {
            if call.recv_self {
                if let Some(owner) = &cd.owner {
                    if let Some(ids) = self.by_owner.get(&(owner.clone(), name.clone())) {
                        return ids.clone();
                    }
                }
            }
            // `.method()` on an unknown receiver: resolve only when the
            // method name is defined under exactly one owner.
            let owners: BTreeSet<&String> = self
                .by_name
                .get(name)
                .map(|ids| {
                    ids.iter()
                        .filter_map(|&id| self.fns[id].owner.as_ref())
                        .collect()
                })
                .unwrap_or_default();
            if owners.len() == 1 {
                let owner = (*owners.iter().next().unwrap()).clone();
                if let Some(ids) = self.by_owner.get(&(owner, name.clone())) {
                    return ids.clone();
                }
            }
            return Vec::new();
        }
        if call.segments.len() >= 2 {
            let qual = &call.segments[call.segments.len() - 2];
            let owner = if qual == "Self" {
                cd.owner.clone()
            } else {
                Some(qual.clone())
            };
            if let Some(o) = owner {
                if let Some(ids) = self.by_owner.get(&(o, name.clone())) {
                    return ids.clone();
                }
            }
            // Module-qualified free fn (`mod::helper`): fall through to the
            // bare-name rules below.
        }
        let Some(ids) = self.by_name.get(name) else {
            return Vec::new();
        };
        let free: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&id| self.fns[id].owner.is_none())
            .collect();
        let pool = if free.is_empty() { ids.clone() } else { free };
        let same_file: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|&id| self.fns[id].file == cd.file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let same_crate: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|&id| self.fns[id].krate == cd.krate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        if pool.len() == 1 {
            return pool;
        }
        Vec::new()
    }

    /// Human-readable label for a fn id: `krate::Owner::name`.
    pub fn fn_label(&self, id: usize) -> String {
        let d = &self.fns[id];
        match &d.owner {
            Some(o) => format!("{}::{}::{}", d.krate, o, d.name),
            None => format!("{}::{}", d.krate, d.name),
        }
    }
}

fn resolve_const(
    id: &str,
    file: usize,
    consts_file: &[BTreeMap<String, String>],
    consts_global: &BTreeMap<String, String>,
) -> Option<String> {
    consts_file[file]
        .get(id)
        .or_else(|| consts_global.get(id))
        .cloned()
}

/// Index of the matching close delimiter for the open delimiter at `open`.
/// Falls back to the end of the stream on imbalance.
fn match_delim(t: &[Tok], open: usize) -> usize {
    let (o, c) = match &t[open].kind {
        TokKind::Punct('(') => ('(', ')'),
        TokKind::Punct('[') => ('[', ']'),
        TokKind::Punct('{') => ('{', '}'),
        _ => return open,
    };
    let mut depth = 0i32;
    for (j, tok) in t.iter().enumerate().skip(open) {
        if tok.kind.is_punct(o) {
            depth += 1;
        } else if tok.kind.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    t.len().saturating_sub(1)
}

/// Recursively scan an item stream for `fn` definitions, tracking impl/trait
/// owners, `mod`/`trait` nesting, and `#[cfg(test)]` / `#[test]` attributes.
fn scan_items(
    t: &[Tok],
    range: Range<usize>,
    owner: Option<&str>,
    in_test: bool,
    test_file: bool,
    emit: &mut dyn FnMut(String, Option<String>, u32, Range<usize>, bool),
) {
    let mut i = range.start;
    let mut pending_test = false;
    while i < range.end {
        match &t[i].kind {
            TokKind::Punct('#') => {
                // `#[…]` attribute: inspect for test markers, then skip.
                let mut j = i + 1;
                if j < range.end && t[j].kind.is_punct('!') {
                    j += 1;
                }
                if j < range.end && t[j].kind.is_punct('[') {
                    let close = match_delim(t, j);
                    let text: Vec<&str> = t[j + 1..close]
                        .iter()
                        .filter_map(|x| x.kind.ident())
                        .collect();
                    if text.first() == Some(&"test")
                        || (text.first() == Some(&"cfg") && text.contains(&"test"))
                    {
                        pending_test = true;
                    }
                    i = close + 1;
                    continue;
                }
                i += 1;
            }
            TokKind::Ident(kw) if kw == "impl" || kw == "trait" => {
                let is_impl = kw == "impl";
                // Find the body `{` at angle-safe depth; `->`/`=>` are fused
                // Sym tokens so `<`/`>` depth tracking is safe here.
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut last_ident_before_lt: Option<String> = None;
                let mut after_for: Option<String> = None;
                let mut seen_for = false;
                while j < range.end {
                    match &t[j].kind {
                        TokKind::Punct('<') => angle += 1,
                        TokKind::Punct('>') => angle -= 1,
                        TokKind::Punct('{') if angle <= 0 => break,
                        TokKind::Punct(';') if angle <= 0 => break,
                        // `for<'a>` higher-ranked bounds are not `impl … for`.
                        TokKind::Ident(w)
                            if w == "for"
                                && angle <= 0
                                && matches!(
                                    t.get(j + 1).map(|x| &x.kind),
                                    Some(TokKind::Punct('<'))
                                ) => {}
                        TokKind::Ident(w) if w == "for" && angle <= 0 => {
                            // `impl Trait for Type` — owner comes after.
                            seen_for = true;
                        }
                        TokKind::Ident(w) if angle <= 0 => {
                            if seen_for {
                                after_for = Some(w.clone());
                                // Keep updating: last path segment wins
                                // (`linuxsim::Ucache` -> `Ucache`).
                            } else {
                                last_ident_before_lt = Some(w.clone());
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j < range.end && t[j].kind.is_punct('{') {
                    let close = match_delim(t, j);
                    let own = if is_impl {
                        after_for.or(last_ident_before_lt)
                    } else {
                        None // trait default bodies: no concrete owner
                    };
                    scan_items(
                        t,
                        j + 1..close,
                        own.as_deref(),
                        in_test || pending_test,
                        test_file,
                        emit,
                    );
                    i = close + 1;
                } else {
                    i = j + 1;
                }
                pending_test = false;
            }
            TokKind::Ident(kw) if kw == "mod" => {
                // `mod name { … }` or `mod name;`
                let mut j = i + 1;
                while j < range.end && !t[j].kind.is_punct('{') && !t[j].kind.is_punct(';') {
                    j += 1;
                }
                if j < range.end && t[j].kind.is_punct('{') {
                    let close = match_delim(t, j);
                    scan_items(
                        t,
                        j + 1..close,
                        owner,
                        in_test || pending_test,
                        test_file,
                        emit,
                    );
                    i = close + 1;
                } else {
                    i = j + 1;
                }
                pending_test = false;
            }
            TokKind::Ident(kw) if kw == "fn" => {
                let name = match t.get(i + 1).map(|x| &x.kind) {
                    Some(TokKind::Ident(n)) => n.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let line = t[i].line;
                // Body = first `{` at paren/bracket/angle depth 0 after the
                // signature; `;` first means no body (trait method decl).
                let mut j = i + 2;
                let mut paren = 0i32;
                let mut angle = 0i32;
                let mut body = None;
                while j < range.end {
                    match &t[j].kind {
                        TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
                        TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
                        TokKind::Punct('<') => angle += 1,
                        TokKind::Punct('>') => angle -= 1,
                        TokKind::Punct('{') if paren == 0 && angle <= 0 => {
                            body = Some(j);
                            break;
                        }
                        TokKind::Punct(';') if paren == 0 && angle <= 0 => break,
                        TokKind::Ident(w) if w == "where" => angle = 0,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(open) = body {
                    let close = match_delim(t, open);
                    emit(
                        name,
                        owner.map(str::to_string),
                        line,
                        open + 1..close,
                        in_test || pending_test || test_file,
                    );
                    i = close + 1;
                } else {
                    i = j + 1;
                }
                pending_test = false;
            }
            _ => {
                // Any other token at item level clears a pending attribute
                // only when it terminates an item (`;` or a brace group we
                // skip wholesale, e.g. `struct S { … }`).
                match &t[i].kind {
                    TokKind::Punct('{') => {
                        i = match_delim(t, i) + 1;
                        pending_test = false;
                    }
                    TokKind::Punct(';') => {
                        i += 1;
                        pending_test = false;
                    }
                    _ => i += 1,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Path-sensitive body walker
// ---------------------------------------------------------------------------

/// State of one span binding.
#[derive(Clone, PartialEq)]
enum SpanSt {
    Open { name: String, begin_line: u32 },
    Closed,
}

/// Abstract state along one control-flow path.
#[derive(Clone)]
struct St {
    live: bool,
    /// Held lock multiset: name -> count.
    held: BTreeMap<String, u32>,
    /// Span bindings: var -> state.
    spans: BTreeMap<String, SpanSt>,
}

impl St {
    fn live() -> St {
        St {
            live: true,
            held: BTreeMap::new(),
            spans: BTreeMap::new(),
        }
    }
    fn dead() -> St {
        St {
            live: false,
            held: BTreeMap::new(),
            spans: BTreeMap::new(),
        }
    }

    /// May-analysis join: union of held locks (max count) and Open-wins for
    /// spans; dead branches contribute nothing.
    fn join(&mut self, other: &St) {
        if !other.live {
            return;
        }
        if !self.live {
            *self = other.clone();
            return;
        }
        for (k, v) in &other.held {
            let e = self.held.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
        for (k, v) in &other.spans {
            match self.spans.get(k) {
                Some(SpanSt::Open { .. }) => {}
                _ => {
                    self.spans.insert(k.clone(), v.clone());
                }
            }
        }
    }

    fn held_names(&self) -> Vec<String> {
        self.held
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(k, _)| k.clone())
            .collect()
    }
}

/// Per-loop context on the walker's loop stack: the state at loop entry
/// (so `break`/`continue` can tell spans opened inside the loop from
/// those opened outside) and the accumulated break-exit state.
#[derive(Clone)]
struct LoopCtx {
    snap: St,
    exit: St,
}

struct Walker<'a> {
    toks: &'a [Tok],
    facts: BodyFacts,
    consts_local: &'a BTreeMap<String, String>,
    consts_global: &'a BTreeMap<String, String>,
    spawn_depth: u32,
}

const BLOCKING_METHODS: &[&str] = &["recv", "recv_timeout", "read_to_string", "read_line"];

impl<'a> Walker<'a> {
    fn resolve_str(&self, kind: &TokKind) -> Option<String> {
        match kind {
            TokKind::Str(s) => Some(s.clone()),
            TokKind::Ident(id) => self
                .consts_local
                .get(id)
                .or_else(|| self.consts_global.get(id))
                .cloned(),
            _ => None,
        }
    }

    /// Record span leaks for every Open span in `st` at an exit edge.
    fn flag_exit(&mut self, st: &St, exit: &'static str) {
        if !st.live {
            return;
        }
        self.flag_exit_at(st, exit, None);
    }

    fn flag_exit_at(&mut self, st: &St, exit: &'static str, line: Option<u32>) {
        if !st.live {
            return;
        }
        for (var, s) in &st.spans {
            if let SpanSt::Open { name, begin_line } = s {
                self.facts.span_leaks.push(SpanLeak {
                    line: line.unwrap_or(*begin_line),
                    var: var.clone(),
                    name: name.clone(),
                    begin_line: *begin_line,
                    exit,
                });
            }
        }
    }

    /// Walk a token range as a statement sequence, returning the fallthrough
    /// state.  Loop-exit snapshots let `break`/`continue` distinguish spans
    /// opened inside the loop from those opened outside.
    fn walk(&mut self, range: Range<usize>, entry: St) -> St {
        self.walk_seq(range, entry, &mut Vec::new())
    }

    fn walk_seq(&mut self, range: Range<usize>, entry: St, loops: &mut Vec<LoopCtx>) -> St {
        self.walk_bound(range, entry, loops, None)
    }

    /// [`Self::walk_seq`] with a `let` binding already pending: a match
    /// arm whose value the enclosing `let` binds.
    fn walk_bound(
        &mut self,
        range: Range<usize>,
        entry: St,
        loops: &mut Vec<LoopCtx>,
        bind: Option<String>,
    ) -> St {
        let t = self.toks;
        let mut st = entry;
        let mut i = range.start;
        // Pending `let` binding name, waiting for a `span::begin` RHS.
        let mut pending_let: Option<String> = bind;
        while i < range.end {
            match &t[i].kind {
                TokKind::Punct(';') => {
                    pending_let = None;
                    if !st.live {
                        // Re-animate after a diverging statement: subsequent
                        // statements are unreachable, keep dead state but
                        // continue scanning for nested defs — nothing to do
                        // since items don't appear here; just skip.
                    }
                    i += 1;
                }
                TokKind::Ident(kw) if kw == "let" => {
                    // `let PAT = …` — remember a simple ident pattern;
                    // `let … else { … }` handled when we hit `else`.
                    if let Some(TokKind::Ident(n)) = t.get(i + 1).map(|x| &x.kind) {
                        if n != "mut" {
                            pending_let = Some(n.clone());
                        } else if let Some(TokKind::Ident(n2)) = t.get(i + 2).map(|x| &x.kind) {
                            pending_let = Some(n2.clone());
                        }
                    }
                    i += 1;
                }
                TokKind::Ident(kw) if kw == "if" => {
                    let (next, out) = self.handle_if(i, range.end, &st, loops);
                    st = out;
                    pending_let = None;
                    i = next;
                }
                TokKind::Ident(kw) if kw == "match" => {
                    let bind = pending_let.take();
                    let (next, out) = self.handle_match(i, range.end, &st, loops, bind);
                    st = out;
                    pending_let = None;
                    i = next;
                }
                TokKind::Ident(kw) if kw == "loop" || kw == "while" || kw == "for" => {
                    let (next, out) = self.handle_loop(i, range.end, &st, kw == "loop", loops);
                    st = out;
                    pending_let = None;
                    i = next;
                }
                TokKind::Ident(kw) if kw == "return" => {
                    self.flag_exit_at(&st.clone(), "return", Some(t[i].line));
                    st = St::dead();
                    i += 1;
                }
                TokKind::Ident(kw) if kw == "break" => {
                    if let Some(ctx) = loops.last().cloned() {
                        // Spans opened since loop entry are leaked by break.
                        let mut leaked = st.clone();
                        leaked.spans.retain(|k, v| {
                            matches!(v, SpanSt::Open { .. })
                                && !matches!(ctx.snap.spans.get(k), Some(SpanSt::Open { .. }))
                        });
                        self.flag_exit_at(&leaked, "break", Some(t[i].line));
                        // Merge into the loop-exit accumulator.
                        if let Some(c) = loops.last_mut() {
                            c.exit.join(&st);
                        }
                    }
                    st = St::dead();
                    i += 1;
                }
                TokKind::Ident(kw) if kw == "continue" => {
                    if let Some(ctx) = loops.last().cloned() {
                        // A span opened this iteration and still open at
                        // `continue` is re-begun next iteration: leaked.
                        let mut leaked = st.clone();
                        leaked.spans.retain(|k, v| {
                            matches!(v, SpanSt::Open { .. })
                                && !matches!(ctx.snap.spans.get(k), Some(SpanSt::Open { .. }))
                        });
                        self.flag_exit_at(&leaked, "continue", Some(t[i].line));
                    }
                    st = St::dead();
                    i += 1;
                }
                TokKind::Punct('?') => {
                    // `expr?` early return. (`?Sized` never appears in
                    // bodies at stmt level; guard anyway.)
                    if !matches!(t.get(i + 1).map(|x| &x.kind), Some(TokKind::Ident(w)) if w == "Sized")
                    {
                        self.flag_exit_at(&st.clone(), "?", Some(t[i].line));
                    }
                    i += 1;
                }
                TokKind::Punct('{') => {
                    let close = match_delim(t, i);
                    st = self.walk_seq(i + 1..close, st, loops);
                    pending_let = None;
                    i = close + 1;
                }
                // Closure start?  Heuristic: `|` in expression position.
                TokKind::Punct('|') if self.closure_position(range.start, i) => {
                    let end = self.closure_end(i, range.end);
                    // Walk the closure body with isolated fresh state.
                    let (bs, be) = self.closure_body(i, end);
                    if bs < be {
                        let out = self.walk_seq(bs..be, St::live(), &mut Vec::new());
                        self.flag_exit(&out, "end of fn");
                    }
                    pending_let = None;
                    i = end;
                }
                TokKind::Ident(id) => {
                    let next =
                        self.handle_ident(i, range.end, &mut st, &mut pending_let, id.clone());
                    i = next;
                }
                _ => {
                    i += 1;
                }
            }
        }
        st
    }

    /// True when the `|` at `i` begins a closure (expression position).
    fn closure_position(&self, start: usize, i: usize) -> bool {
        if i == start {
            return true;
        }
        match &self.toks[i - 1].kind {
            TokKind::Punct('(')
            | TokKind::Punct(',')
            | TokKind::Punct('=')
            | TokKind::Punct('{')
            | TokKind::Punct('[')
            | TokKind::Punct(';')
            | TokKind::Punct(':') => true,
            TokKind::Sym(s) => matches!(*s, "=>" | "->" | "&&" | "||" | "=="),
            TokKind::Ident(w) => matches!(w.as_str(), "move" | "return" | "else"),
            _ => false,
        }
    }

    /// Index one past the end of the closure starting at the `|` at `i`.
    fn closure_end(&self, i: usize, limit: usize) -> usize {
        let t = self.toks;
        // Find closing `|` of the parameter list.
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < limit {
            match &t[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('>') => depth -= 1,
                TokKind::Punct('|') if depth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= limit {
            return limit;
        }
        j += 1;
        // Optional `-> Type`.
        if matches!(t.get(j).map(|x| &x.kind), Some(TokKind::Sym("->"))) {
            while j < limit && !t[j].kind.is_punct('{') {
                j += 1;
            }
        }
        if j < limit && t[j].kind.is_punct('{') {
            return match_delim(t, j) + 1;
        }
        // Expression body: up to `,` or `)` or `;` at depth 0.
        let mut depth = 0i32;
        while j < limit {
            match &t[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                    if depth == 0 {
                        return j;
                    }
                    depth -= 1;
                }
                TokKind::Punct(',') | TokKind::Punct(';') if depth == 0 => return j,
                _ => {}
            }
            j += 1;
        }
        limit
    }

    /// Token range of a closure's body given its start `|` and end.
    fn closure_body(&self, i: usize, end: usize) -> (usize, usize) {
        let t = self.toks;
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < end {
            match &t[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('>') => depth -= 1,
                TokKind::Punct('|') if depth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= end {
            return (end, end);
        }
        j += 1;
        if matches!(t.get(j).map(|x| &x.kind), Some(TokKind::Sym("->"))) {
            while j < end && !t[j].kind.is_punct('{') {
                j += 1;
            }
        }
        if j < end && t[j].kind.is_punct('{') {
            let close = match_delim(t, j);
            return (j + 1, close.min(end));
        }
        (j, end)
    }

    /// Handle an identifier in statement position: calls, span begin/end,
    /// lock acquire/release, blocking patterns, macros.
    fn handle_ident(
        &mut self,
        i: usize,
        limit: usize,
        st: &mut St,
        pending_let: &mut Option<String>,
        id: String,
    ) -> usize {
        let t = self.toks;
        // Collect the full path: ident (:: ident)*.
        let mut segs = vec![id.clone()];
        let mut j = i + 1;
        while matches!(t.get(j).map(|x| &x.kind), Some(TokKind::Sym("::"))) {
            // Skip turbofish `::<…>`.
            if matches!(t.get(j + 1).map(|x| &x.kind), Some(TokKind::Punct('<'))) {
                let mut depth = 0i32;
                let mut k = j + 1;
                while k < limit {
                    match &t[k].kind {
                        TokKind::Punct('<') => depth += 1,
                        TokKind::Punct('>') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                j = k + 1;
                continue;
            }
            match t.get(j + 1).map(|x| &x.kind) {
                Some(TokKind::Ident(n)) => {
                    segs.push(n.clone());
                    j += 2;
                }
                _ => break,
            }
        }

        // Macro invocation `name!(…)` — skip the group but scan its tokens
        // for calls and blocking patterns; diverging macros kill the path.
        if matches!(t.get(j).map(|x| &x.kind), Some(TokKind::Punct('!'))) {
            let open = j + 1;
            if open < limit
                && (t[open].kind.is_punct('(')
                    || t[open].kind.is_punct('[')
                    || t[open].kind.is_punct('{'))
            {
                let close = match_delim(t, open);
                self.scan_region_for_calls(open + 1..close, st);
                if matches!(
                    segs.last().map(String::as_str),
                    Some("panic" | "unreachable" | "todo" | "unimplemented")
                ) {
                    *st = St::dead();
                }
                *pending_let = None;
                return close + 1;
            }
            return j + 1;
        }

        let is_call = matches!(t.get(j).map(|x| &x.kind), Some(TokKind::Punct('(')));
        if is_call {
            let open = j;
            let close = match_delim(t, open);
            let line = t[i].line;
            let last = segs.last().unwrap().clone();
            let qual = if segs.len() >= 2 {
                Some(segs[segs.len() - 2].as_str())
            } else {
                None
            };

            // --- sim::race lock model ---
            if last == "acquire" && qual == Some("race") {
                if let Some(name) = self.lock_arg(open + 1, close) {
                    if st.live {
                        for held in st.held_names() {
                            self.facts.pairs.push(LockPair {
                                held,
                                acquired: name.clone(),
                                line,
                            });
                        }
                        *st.held.entry(name.clone()).or_insert(0) += 1;
                    }
                    self.facts.acquires.push((name, line));
                }
                *pending_let = None;
                return close + 1;
            }
            if last == "release" && qual == Some("race") {
                if let Some(name) = self.lock_arg(open + 1, close) {
                    if let Some(c) = st.held.get_mut(&name) {
                        *c = c.saturating_sub(1);
                    }
                }
                *pending_let = None;
                return close + 1;
            }

            // --- sim::span model ---
            if qual == Some("span") && matches!(last.as_str(), "begin" | "begin_child" | "begin_in")
            {
                let name = t[open + 1..close]
                    .iter()
                    .find_map(|x| self.resolve_str(&x.kind))
                    .unwrap_or_else(|| "?".into());
                self.facts.span_begins += 1;
                if st.live {
                    match pending_let.take() {
                        Some(var) => {
                            if let Some(SpanSt::Open {
                                name: old,
                                begin_line,
                            }) = st.spans.get(&var).cloned()
                            {
                                self.facts.span_leaks.push(SpanLeak {
                                    line,
                                    var: var.clone(),
                                    name: old,
                                    begin_line,
                                    exit: "rebind",
                                });
                            }
                            st.spans.insert(
                                var,
                                SpanSt::Open {
                                    name,
                                    begin_line: line,
                                },
                            );
                        }
                        None => {
                            self.facts.span_leaks.push(SpanLeak {
                                line,
                                var: "_".into(),
                                name,
                                begin_line: line,
                                exit: "discarded",
                            });
                        }
                    }
                }
                self.walk_args(open + 1, close, st);
                return close + 1;
            }
            if qual == Some("span") && matches!(last.as_str(), "end" | "end_in") {
                // Close whichever bound var appears in the args.
                for x in &t[open + 1..close] {
                    if let TokKind::Ident(v) = &x.kind {
                        if matches!(st.spans.get(v), Some(SpanSt::Open { .. })) {
                            st.spans.insert(v.clone(), SpanSt::Closed);
                        }
                    }
                }
                *pending_let = None;
                return close + 1;
            }

            // --- blocking patterns (AQ010 raw sites) ---
            self.note_blocking(&segs, false, line);

            // --- ordinary call ---
            let method = i > 0 && matches!(&t[i - 1].kind, TokKind::Punct('.'));
            let recv_self =
                method && i >= 2 && matches!(&t[i - 2].kind, TokKind::Ident(w) if w == "self");
            if method {
                self.note_blocking(&segs, true, line);
            }
            if st.live || self.spawn_depth > 0 {
                let idx = self.facts.calls.len();
                self.facts.calls.push(CallRef {
                    line,
                    segments: segs.clone(),
                    method,
                    recv_self,
                    in_spawn: self.spawn_depth > 0,
                });
                if st.live {
                    let held = st.held_names();
                    if !held.is_empty() {
                        self.facts.held_calls.push((held, idx));
                    }
                }
            }
            // Walk argument tokens (closures inside spawn args get marked).
            let spawning = method && last == "spawn";
            if spawning {
                self.spawn_depth += 1;
            }
            self.walk_args(open + 1, close, st);
            if spawning {
                self.spawn_depth -= 1;
            }
            *pending_let = None;
            return close + 1;
        }

        j.max(i + 1)
    }

    /// Walk a call argument region: record nested calls/blocking and walk
    /// closures with isolated state.  Lock/span effects inside argument
    /// expressions are rare in this codebase; treat them via the same
    /// scanner to stay conservative.
    fn walk_args(&mut self, start: usize, end: usize, _st: &mut St) {
        let mut region = St::live();
        let mut i = start;
        let t = self.toks;
        while i < end {
            match &t[i].kind {
                TokKind::Punct('|') => {
                    if self.closure_position(start, i) {
                        let cend = self.closure_end(i, end);
                        let (bs, be) = self.closure_body(i, cend);
                        if bs < be {
                            let out = self.walk_seq(bs..be, St::live(), &mut Vec::new());
                            self.flag_exit(&out, "end of fn");
                        }
                        i = cend;
                        continue;
                    }
                    i += 1;
                }
                TokKind::Ident(id) => {
                    let mut pl = None;
                    let next = self.handle_ident(i, end, &mut region, &mut pl, id.clone());
                    i = next;
                }
                _ => i += 1,
            }
        }
    }

    /// Scan a region (macro args) for call/blocking facts without abstract
    /// state effects.
    fn scan_region_for_calls(&mut self, range: Range<usize>, _st: &mut St) {
        let mut region = St::live();
        let mut i = range.start;
        let t = self.toks;
        while i < range.end {
            if let TokKind::Ident(id) = &t[i].kind {
                let mut pl = None;
                i = self.handle_ident(i, range.end, &mut region, &mut pl, id.clone());
            } else {
                i += 1;
            }
        }
    }

    /// Resolve the lock-name argument of `race::acquire(ctx, KEY)`.
    fn lock_arg(&self, start: usize, end: usize) -> Option<String> {
        // Last string literal or resolvable const in the arg list.
        self.toks[start..end]
            .iter()
            .rev()
            .find_map(|x| self.resolve_str(&x.kind))
    }

    fn note_blocking(&mut self, segs: &[String], method: bool, line: u32) {
        let in_spawn = self.spawn_depth > 0;
        let last = segs.last().unwrap().as_str();
        if method {
            if BLOCKING_METHODS.contains(&last) {
                self.facts.blocking.push((
                    format!(".{last}() (host-blocking receiver)"),
                    line,
                    in_spawn,
                ));
            }
            return;
        }
        let path = segs.join("::");
        let blocking = (last == "sleep" && segs.iter().any(|s| s == "thread"))
            || path.contains("fs::")
            || (segs.len() >= 2
                && segs[segs.len() - 2] == "File"
                && matches!(last, "open" | "create"))
            || path.ends_with("stdin");
        if blocking {
            self.facts.blocking.push((path, line, in_spawn));
        }
    }

    /// `if cond { … } else if … { … } else { … }` — join all arm exits.
    fn handle_if(
        &mut self,
        i: usize,
        limit: usize,
        entry: &St,
        loops: &mut Vec<LoopCtx>,
    ) -> (usize, St) {
        let t = self.toks;
        // Condition region up to the `{` at depth 0. `let`-chains live here;
        // walk the condition tokens for calls/`?`.
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < limit {
            match &t[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= limit {
            return (limit, entry.clone());
        }
        let mut cond_st = entry.clone();
        cond_st = self.walk_seq(i + 1..j, cond_st, loops);
        let close = match_delim(t, j);
        let then_out = self.walk_seq(j + 1..close, cond_st.clone(), loops);
        let mut out = then_out;
        let mut k = close + 1;
        if matches!(t.get(k).map(|x| &x.kind), Some(TokKind::Ident(w)) if w == "else") {
            k += 1;
            if matches!(t.get(k).map(|x| &x.kind), Some(TokKind::Ident(w)) if w == "if") {
                let (next, else_out) = self.handle_if(k, limit, &cond_st, loops);
                out.join(&else_out);
                return (next, out);
            }
            if k < limit && t[k].kind.is_punct('{') {
                let eclose = match_delim(t, k);
                let else_out = self.walk_seq(k + 1..eclose, cond_st, loops);
                out.join(&else_out);
                return (eclose + 1, out);
            }
        } else {
            // No else: fallthrough with untaken-branch state.
            out.join(&cond_st);
        }
        (k, out)
    }

    /// `match expr { pat => arm, … }` — join all arm exits.
    ///
    /// `bind` is the name a `let` binds the match's value to. When every
    /// arm opens a literal-named span (`let sp = match .. { A =>
    /// span::begin(ctx, "a", ..), B => span::begin(ctx, "b", ..) }`),
    /// each arm binds it, so after the join `sp` is one open span
    /// whichever arm ran.
    fn handle_match(
        &mut self,
        i: usize,
        limit: usize,
        entry: &St,
        loops: &mut Vec<LoopCtx>,
        bind: Option<String>,
    ) -> (usize, St) {
        let t = self.toks;
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < limit {
            match &t[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= limit {
            return (limit, entry.clone());
        }
        let scrut_st = self.walk_seq(i + 1..j, entry.clone(), loops);
        let close = match_delim(t, j);
        // Arm bodies: the inside of a block arm, or an expression arm up
        // to its depth-0 `,` (or the match close).
        let mut arms = Vec::new();
        let mut k = j + 1;
        while k < close {
            // Pattern up to depth-0 `=>`.
            let mut depth = 0i32;
            while k < close {
                match &t[k].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                    TokKind::Sym("=>") if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            if k >= close {
                break;
            }
            k += 1; // past `=>`
            if k < close && t[k].kind.is_punct('{') {
                let aclose = match_delim(t, k);
                arms.push(k + 1..aclose);
                k = aclose + 1;
            } else {
                let arm_start = k;
                let mut depth = 0i32;
                while k < close {
                    match &t[k].kind {
                        TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                            depth += 1
                        }
                        TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                            depth -= 1
                        }
                        TokKind::Punct(',') if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                arms.push(arm_start..k);
            }
            // Skip the `,`.
            if k < close && t[k].kind.is_punct(',') {
                k += 1;
            }
        }
        let bind = bind.filter(|_| {
            !arms.is_empty() && arms.iter().all(|arm| self.is_named_span_begin(arm.clone()))
        });
        let mut out = St::dead();
        for arm in arms {
            let arm_out = self.walk_bound(arm, scrut_st.clone(), loops, bind.clone());
            out.join(&arm_out);
        }
        if !out.live {
            // All arms diverge (or no arms): path dies.
            return (close + 1, St::dead());
        }
        (close + 1, out)
    }

    /// True when `range` is exactly one `…span::begin*(…)` call whose
    /// span name resolves at parse time.
    fn is_named_span_begin(&self, range: Range<usize>) -> bool {
        let t = self.toks;
        let mut segs = Vec::new();
        let mut j = range.start;
        while let Some(TokKind::Ident(seg)) = t.get(j).filter(|_| j < range.end).map(|x| &x.kind) {
            segs.push(seg.as_str());
            j += 1;
            if !matches!(t.get(j).map(|x| &x.kind), Some(TokKind::Sym("::"))) {
                break;
            }
            j += 1;
        }
        let begin = matches!(
            segs.as_slice(),
            [.., "span", "begin" | "begin_child" | "begin_in"]
        );
        begin
            && j + 1 < range.end
            && t[j].kind.is_punct('(')
            && match_delim(t, j) == range.end - 1
            && t[j + 1..range.end - 1]
                .iter()
                .any(|x| self.resolve_str(&x.kind).is_some())
    }

    /// `loop`/`while`/`for` — walk the body once (sound for may-analysis of
    /// spans/locks given the workspace's non-accumulating loop bodies),
    /// joining `break` states into the exit.
    fn handle_loop(
        &mut self,
        i: usize,
        limit: usize,
        entry: &St,
        is_loop: bool,
        _outer: &mut Vec<LoopCtx>,
    ) -> (usize, St) {
        let t = self.toks;
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < limit {
            match &t[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= limit {
            return (limit, entry.clone());
        }
        let head_st = self.walk_seq(i + 1..j, entry.clone(), &mut Vec::new());
        let close = match_delim(t, j);
        let mut loops = vec![LoopCtx {
            snap: head_st.clone(),
            exit: if is_loop { St::dead() } else { head_st.clone() },
        }];
        let body_out = self.walk_seq(j + 1..close, head_st.clone(), &mut loops);
        let mut exit = loops.pop().unwrap().exit;
        if !is_loop {
            // `while`/`for` may exit after any iteration, including after
            // the body ran through.
            exit.join(&body_out);
            exit.join(&head_st);
        }
        (close + 1, exit)
    }
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::build(vec![("crates/demo/src/lib.rs".into(), src.into())])
    }

    #[test]
    fn finds_fn_defs_and_impl_owners() {
        let w = ws(r#"
            pub fn free() {}
            struct S;
            impl S {
                fn method(&self) {}
            }
            impl Clone for S {
                fn clone(&self) -> S { S }
            }
        "#);
        let names: Vec<(String, Option<String>)> = w
            .fns
            .iter()
            .map(|d| (d.name.clone(), d.owner.clone()))
            .collect();
        assert!(names.contains(&("free".into(), None)));
        assert!(names.contains(&("method".into(), Some("S".into()))));
        assert!(names.contains(&("clone".into(), Some("S".into()))));
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let w = ws(r#"
            fn prod() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { std::thread::sleep(d); }
            }
        "#);
        let prod = w.fns.iter().find(|d| d.name == "prod").unwrap();
        let t = w.fns.iter().find(|d| d.name == "t").unwrap();
        assert!(!prod.is_test);
        assert!(t.is_test);
    }

    #[test]
    fn declare_order_builds_rank_table() {
        let w = ws(r#"
            const L_A: race::LockKey = ("d.a", 0);
            fn setup() {
                race::declare_order("dom", &[L_A.0, "d.b", "d.c"]);
            }
        "#);
        assert_eq!(w.ranks.get("d.a"), Some(&("dom".into(), 0)));
        assert_eq!(w.ranks.get("d.b"), Some(&("dom".into(), 1)));
        assert_eq!(w.ranks.get("d.c"), Some(&("dom".into(), 2)));
    }

    #[test]
    fn lock_pairs_and_held_calls() {
        let w = ws(r#"
            const L_A: race::LockKey = ("d.a", 0);
            const L_B: race::LockKey = ("d.b", 0);
            fn f(ctx: &mut C) {
                race::acquire(ctx, L_A);
                helper(ctx);
                race::acquire(ctx, L_B);
                race::release(ctx, L_B);
                race::release(ctx, L_A);
                race::acquire(ctx, L_B);
                race::release(ctx, L_B);
            }
            fn helper(_ctx: &mut C) {}
        "#);
        let f = w.fns.iter().position(|d| d.name == "f").unwrap();
        let facts = &w.facts[f];
        assert_eq!(facts.pairs.len(), 1);
        assert_eq!(facts.pairs[0].held, "d.a");
        assert_eq!(facts.pairs[0].acquired, "d.b");
        assert_eq!(facts.held_calls.len(), 1);
        assert_eq!(facts.held_calls[0].0, vec!["d.a".to_string()]);
    }

    #[test]
    fn span_balanced_on_both_branches_is_clean() {
        let w = ws(r#"
            fn f(ctx: &mut C) -> Result<(), E> {
                let sp = span::begin(ctx, "x", "c");
                if cond {
                    span::end(ctx, sp);
                    return Ok(());
                }
                span::end(ctx, sp);
                Ok(())
            }
        "#);
        let f = w.fns.iter().position(|d| d.name == "f").unwrap();
        assert!(w.facts[f].span_leaks.is_empty());
    }

    #[test]
    fn span_leak_through_question_mark() {
        let w = ws(r#"
            fn f(ctx: &mut C) -> Result<(), E> {
                let sp = span::begin(ctx, "x", "c");
                fallible(ctx)?;
                span::end(ctx, sp);
                Ok(())
            }
            fn fallible(_c: &mut C) -> Result<(), E> { Ok(()) }
        "#);
        let f = w.fns.iter().position(|d| d.name == "f").unwrap();
        let leaks = &w.facts[f].span_leaks;
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].exit, "?");
        assert_eq!(leaks[0].name, "x");
    }

    #[test]
    fn span_leak_through_early_return() {
        let w = ws(r#"
            fn f(ctx: &mut C) {
                let sp = span::begin(ctx, "x", "c");
                if bad {
                    return;
                }
                span::end(ctx, sp);
            }
        "#);
        let f = w.fns.iter().position(|d| d.name == "f").unwrap();
        let leaks = &w.facts[f].span_leaks;
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].exit, "return");
    }

    #[test]
    fn end_before_every_return_in_loop_is_clean() {
        // Mirrors core::engine::alloc_frame's loop shape.
        let w = ws(r#"
            fn f(ctx: &mut C) -> u64 {
                let sp = span::begin(ctx, "x", "c");
                loop {
                    if let Some(v) = attempt(ctx) {
                        span::end(ctx, sp);
                        return v;
                    }
                    step(ctx);
                }
            }
            fn attempt(_c: &mut C) -> Option<u64> { None }
            fn step(_c: &mut C) {}
        "#);
        let f = w.fns.iter().position(|d| d.name == "f").unwrap();
        assert!(
            w.facts[f].span_leaks.is_empty(),
            "leaks: {:?}",
            w.facts[f]
                .span_leaks
                .iter()
                .map(|l| l.exit)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn continue_does_not_leak_span_opened_before_loop() {
        // Mirrors core::engine::alloc_frame: the span is opened before the
        // reclaim loop and stays open across `continue` by design.
        let w = ws(r#"
            fn f(ctx: &mut C) -> Result<u64, E> {
                let sp = span::begin(ctx, "x", "c");
                loop {
                    if empty(ctx) {
                        if !retryable(ctx) {
                            span::end(ctx, sp);
                            return Err(E::NoSpace);
                        }
                        continue;
                    }
                    span::end(ctx, sp);
                    return Ok(1);
                }
            }
            fn empty(_c: &mut C) -> bool { false }
            fn retryable(_c: &mut C) -> bool { true }
        "#);
        let f = w.fns.iter().position(|d| d.name == "f").unwrap();
        assert!(
            w.facts[f].span_leaks.is_empty(),
            "exits: {:?}",
            w.facts[f]
                .span_leaks
                .iter()
                .map(|l| l.exit)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn continue_leaks_span_opened_inside_loop() {
        let w = ws(r#"
            fn f(ctx: &mut C) {
                for item in items {
                    let sp = span::begin(ctx, "iter", "c");
                    if skip(item) {
                        continue;
                    }
                    span::end(ctx, sp);
                }
            }
            fn skip(_i: I) -> bool { false }
        "#);
        let f = w.fns.iter().position(|d| d.name == "f").unwrap();
        let leaks = &w.facts[f].span_leaks;
        assert!(
            leaks.iter().any(|l| l.exit == "continue"),
            "exits: {:?}",
            leaks.iter().map(|l| l.exit).collect::<Vec<_>>()
        );
    }

    #[test]
    fn spawn_marks_calls_in_args() {
        let w = ws(r#"
            fn boot(engine: &mut Engine) {
                engine.spawn(0, factory());
                engine.spawn(1, Box::new(move |ctx| { worker(ctx) }));
                plain(engine);
            }
            fn factory() -> ThreadFn { Box::new(|_c| Step::Done) }
            fn worker(_c: &mut C) -> Step { Step::Done }
            fn plain(_e: &mut Engine) {}
        "#);
        let boot = w.fns.iter().position(|d| d.name == "boot").unwrap();
        let facts = &w.facts[boot];
        let spawned: Vec<&str> = facts
            .calls
            .iter()
            .filter(|c| c.in_spawn)
            .map(|c| c.segments.last().unwrap().as_str())
            .collect();
        assert!(spawned.contains(&"factory"), "spawned: {spawned:?}");
        assert!(spawned.contains(&"worker"), "spawned: {spawned:?}");
        let plain = facts
            .calls
            .iter()
            .find(|c| c.segments.last().unwrap() == "plain")
            .unwrap();
        assert!(!plain.in_spawn);
    }

    #[test]
    fn blocking_sites_detected() {
        let w = ws(r#"
            fn f(rx: &Receiver<u64>) {
                std::thread::sleep(std::time::Duration::from_millis(1));
                let _ = std::fs::read_to_string("x");
                let _ = rx.recv();
            }
        "#);
        let f = w.fns.iter().position(|d| d.name == "f").unwrap();
        let b = &w.facts[f].blocking;
        assert!(b.iter().any(|(p, _, _)| p.contains("sleep")), "{b:?}");
        assert!(b.iter().any(|(p, _, _)| p.contains("fs::")), "{b:?}");
        assert!(b.iter().any(|(p, _, _)| p.contains("recv")), "{b:?}");
    }

    #[test]
    fn resolve_prefers_same_file_then_unique() {
        let w = Workspace::build(vec![
            (
                "crates/a/src/lib.rs".into(),
                "fn caller() { helper(); } fn helper() {}".into(),
            ),
            ("crates/b/src/lib.rs".into(), "fn helper() {}".into()),
        ]);
        let caller = w.fns.iter().position(|d| d.name == "caller").unwrap();
        let call = &w.facts[caller].calls[0];
        let ids = w.resolve(caller, call);
        assert_eq!(ids.len(), 1);
        assert_eq!(w.fns[ids[0]].file, w.fns[caller].file);
    }

    #[test]
    fn resolve_self_method() {
        let w = ws(r#"
            struct S;
            impl S {
                fn outer(&mut self, ctx: &mut C) { self.inner(ctx); }
                fn inner(&mut self, _ctx: &mut C) {}
            }
        "#);
        let outer = w.fns.iter().position(|d| d.name == "outer").unwrap();
        let call = &w.facts[outer].calls[0];
        assert!(call.recv_self);
        let ids = w.resolve(outer, call);
        assert_eq!(ids.len(), 1);
        assert_eq!(w.fns[ids[0]].name, "inner");
    }

    #[test]
    fn span_bound_through_match_ended_on_every_path_is_clean() {
        let w = ws(r#"
            fn f(ctx: &mut C, cmd: Cmd) -> Result<(), E> {
                let sp = match cmd {
                    Cmd::Read(_) => span::begin(ctx, "read", "c"),
                    Cmd::Write(_) => aquila_sim::span::begin(ctx, "write", "c"),
                };
                let done = run(ctx);
                span::end(ctx, sp);
                done
            }
        "#);
        let f = w.fns.iter().position(|d| d.name == "f").unwrap();
        let leaks = &w.facts[f].span_leaks;
        assert!(
            leaks.is_empty(),
            "exits: {:?}",
            leaks.iter().map(|l| l.exit).collect::<Vec<_>>()
        );
    }

    #[test]
    fn span_bound_through_match_still_leaks_through_question_mark() {
        let w = ws(r#"
            fn f(ctx: &mut C, cmd: Cmd) -> Result<(), E> {
                let sp = match cmd {
                    Cmd::Read(_) => span::begin(ctx, "read", "c"),
                    Cmd::Write(_) => span::begin(ctx, "write", "c"),
                };
                run(ctx)?;
                span::end(ctx, sp);
                Ok(())
            }
        "#);
        let f = w.fns.iter().position(|d| d.name == "f").unwrap();
        let leaks = &w.facts[f].span_leaks;
        assert_eq!(
            leaks.len(),
            1,
            "exits: {:?}",
            leaks.iter().map(|l| l.exit).collect::<Vec<_>>()
        );
        assert_eq!(leaks[0].exit, "?");
        assert_eq!(leaks[0].var, "sp");
    }

    #[test]
    fn match_arms_join_spans() {
        let w = ws(r#"
            fn f(ctx: &mut C, r: Result<(), E>) {
                let sp = span::begin(ctx, "x", "c");
                match r {
                    Ok(()) => span::end(ctx, sp),
                    Err(_) => {
                        return;
                    }
                }
            }
        "#);
        let f = w.fns.iter().position(|d| d.name == "f").unwrap();
        let leaks = &w.facts[f].span_leaks;
        assert_eq!(
            leaks.len(),
            1,
            "exits: {:?}",
            leaks.iter().map(|l| l.exit).collect::<Vec<_>>()
        );
        assert_eq!(leaks[0].exit, "return");
    }
}
