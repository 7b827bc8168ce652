//! Causal begin/end spans: the one way to time a window.
//!
//! A faulting vcore triggers a pcache miss, which submits NVMe commands,
//! while a dedicated evictor writes back dirty frames and shoots down
//! remote TLBs. This module records cycle-exact begin/end spans with
//! **parent links** on the trace ring, so the whole causal chain
//! reconstructs offline (Perfetto's async `b`/`e` view, or
//! `aquila-prof`'s folded flamegraph), and closing a span records its
//! duration into the latency histogram `<name>.cycles`. A window is timed
//! once, so the trace and the histogram can never disagree about it.
//!
//! Model:
//!
//! - [`begin`] opens a span whose parent is the innermost open span of
//!   the *calling virtual thread* (each `SimCtx` carries its own span
//!   stack, so interleaved threads never corrupt each other's nesting);
//! - [`begin_child`] opens a span under an **explicit** parent, which is
//!   how causality crosses DES threads: the sender publishes its
//!   [`SpanId`] through shared state (e.g. the evictor's last writeback
//!   round, or a [`crate::engine::CoreDebts`] shootdown tag) and the
//!   receiver links to it;
//! - [`end`] closes a span and records `now - start` into the installed
//!   metrics registry's `<name>.cycles` histogram. Every `end` records,
//!   error paths included. Unbalanced inner spans are popped so a
//!   forgotten `end` cannot wedge the stack, but a forgotten span loses
//!   its histogram sample (lint AQ009 flags that).
//!
//! Determinism: span ids come from one process-global counter, allocated
//! only while a tracer is installed. The DES engine steps every virtual
//! thread from a single OS thread in virtual-time order, so allocation
//! order — and therefore the exported trace — is a pure function of the
//! run. Recording never charges virtual cycles; with neither a tracer nor
//! a registry installed, `begin` is two atomic loads and `end` a branch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cost::CostCat;
use crate::engine::SimCtx;
use crate::metrics::{self, MetricsRegistry};
use crate::time::Cycles;
use crate::trace::{self, TraceEvent, Tracer};

/// Identity of a causal span. `NONE` (zero) means "no span": tracing was
/// disabled at `begin`, or a root with no parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span id: no parent / tracing disabled.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the null id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// An open span returned by [`begin`]/[`begin_child`]; close it with
/// [`end`]. Copy so it can ride through control flow freely; the
/// `must_use` nudges call sites to actually close what they open.
#[derive(Debug, Clone, Copy)]
#[must_use = "open spans must be closed with span::end"]
pub struct Span {
    name: &'static str,
    cat: CostCat,
    id: SpanId,
    /// Open timestamp; `None` when neither a tracer nor a registry was
    /// installed at `begin`, so `end` has nothing to record.
    start: Option<Cycles>,
}

impl Span {
    /// This span's id, for publishing to another thread as a parent link.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// Process-global span id allocator. Only advanced while a tracer is
/// installed, from the engine's single OS thread — deterministic.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Opens a span on `ctx`'s thread, parented to its innermost open span.
#[inline]
pub fn begin(ctx: &mut dyn SimCtx, name: &'static str, cat: CostCat) -> Span {
    let parent = current(ctx);
    begin_child(ctx, name, cat, parent)
}

/// Opens a span under an explicit `parent` (possibly from another DES
/// thread). Pass [`SpanId::NONE`] for a root span.
#[inline]
pub fn begin_child(ctx: &mut dyn SimCtx, name: &'static str, cat: CostCat, parent: SpanId) -> Span {
    let t = trace::global().map(Arc::as_ref);
    let m = metrics::global().map(Arc::as_ref);
    begin_in(t, m, ctx, name, cat, parent)
}

/// Closes `span` at `ctx.now()`: records the trace end event and the
/// `<name>.cycles` histogram sample. A span opened with nothing installed
/// is a no-op.
#[inline]
pub fn end(ctx: &mut dyn SimCtx, span: Span) {
    if span.start.is_none() {
        return;
    }
    let t = trace::global().map(Arc::as_ref);
    let m = metrics::global().map(Arc::as_ref);
    end_in(t, m, ctx, span);
}

/// The calling thread's innermost open span, or [`SpanId::NONE`]. Use to
/// publish the current causal context to another thread.
#[inline]
pub fn current(ctx: &mut dyn SimCtx) -> SpanId {
    if !trace::enabled() {
        return SpanId::NONE;
    }
    ctx.span_stack()
        .and_then(|s| s.last().copied())
        .map(SpanId)
        .unwrap_or(SpanId::NONE)
}

/// [`begin_child`] against an explicit tracer and registry (tests; the
/// free functions use the process-global ones).
pub fn begin_in(
    t: Option<&Tracer>,
    m: Option<&MetricsRegistry>,
    ctx: &mut dyn SimCtx,
    name: &'static str,
    cat: CostCat,
    parent: SpanId,
) -> Span {
    let mut span = Span {
        name,
        cat,
        id: SpanId::NONE,
        start: None,
    };
    if t.is_none() && m.is_none() {
        return span;
    }
    let ts = ctx.now();
    span.start = Some(ts);
    if let Some(t) = t {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        t.record(TraceEvent::SpanBegin {
            name,
            cat,
            core: ctx.core(),
            ts,
            id,
            parent: parent.0,
        });
        if let Some(stack) = ctx.span_stack() {
            stack.push(id);
        }
        span.id = SpanId(id);
    }
    span
}

/// [`end`] against an explicit tracer and registry.
pub fn end_in(t: Option<&Tracer>, m: Option<&MetricsRegistry>, ctx: &mut dyn SimCtx, span: Span) {
    let Some(start) = span.start else { return };
    let now = ctx.now();
    if let (Some(t), false) = (t, span.id.is_none()) {
        if let Some(stack) = ctx.span_stack() {
            // Pop through unbalanced inner spans so a missed `end` deeper
            // in the call tree cannot leak stack entries forever.
            while let Some(top) = stack.pop() {
                if top == span.id.0 {
                    break;
                }
            }
        }
        t.record(TraceEvent::SpanEnd {
            name: span.name,
            cat: span.cat,
            core: ctx.core(),
            ts: now,
            id: span.id.0,
        });
    }
    if let Some(m) = m {
        m.record_span(ctx.core(), span.name, now.saturating_sub(start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FreeCtx;

    /// A traced span with no registry.
    fn open(
        t: &Tracer,
        ctx: &mut dyn SimCtx,
        name: &'static str,
        cat: CostCat,
        parent: SpanId,
    ) -> Span {
        begin_in(Some(t), None, ctx, name, cat, parent)
    }

    fn close(t: &Tracer, ctx: &mut dyn SimCtx, sp: Span) {
        end_in(Some(t), None, ctx, sp);
    }

    fn begins(t: &Tracer) -> Vec<(u64, u64, u64)> {
        // (id, parent, ts) of SpanBegin events, recording order.
        t.events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::SpanBegin { id, parent, ts, .. } => Some((id, parent, ts.get())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn nesting_links_parents_on_one_thread() {
        let t = Tracer::new(64);
        let mut ctx = FreeCtx::new(7);
        let outer = open(&t, &mut ctx, "outer", CostCat::App, SpanId::NONE);
        ctx.charge(CostCat::App, Cycles(10));
        let parent = ctx.span_stack().unwrap().last().copied().unwrap();
        assert_eq!(parent, outer.id().0);
        let inner = open(&t, &mut ctx, "inner", CostCat::DeviceIo, SpanId(parent));
        ctx.charge(CostCat::DeviceIo, Cycles(5));
        close(&t, &mut ctx, inner);
        close(&t, &mut ctx, outer);
        let b = begins(&t);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].1, 0, "outer is a root");
        assert_eq!(b[1].1, b[0].0, "inner parented to outer");
        assert!(ctx.span_stack().unwrap().is_empty(), "stack drained");
    }

    #[test]
    fn end_pops_unbalanced_inner_spans() {
        let t = Tracer::new(64);
        let mut ctx = FreeCtx::new(7);
        let outer = open(&t, &mut ctx, "outer", CostCat::App, SpanId::NONE);
        let _leaked = open(&t, &mut ctx, "leaked", CostCat::App, SpanId(outer.id().0));
        close(&t, &mut ctx, outer); // closes outer, discarding `leaked`
        assert!(ctx.span_stack().unwrap().is_empty());
    }

    #[test]
    fn cross_thread_parent_link() {
        let t = Tracer::new(64);
        let mut producer = FreeCtx::new(0x11).with_core(1, 4);
        let mut consumer = FreeCtx::new(0x22).with_core(2, 4);
        let round = open(
            &t,
            &mut producer,
            "evictor.round",
            CostCat::Eviction,
            SpanId::NONE,
        );
        // Publish the producer's span id; the consumer links to it even
        // though its own stack is empty.
        let handoff = round.id();
        let drain = open(&t, &mut consumer, "msync.drain", CostCat::Syscall, handoff);
        close(&t, &mut consumer, drain);
        close(&t, &mut producer, round);
        let b = begins(&t);
        assert_eq!(b[1].1, b[0].0, "consumer span parented across threads");
    }

    #[test]
    fn spans_never_charge_cycles() {
        let t = Tracer::new(8);
        let mut ctx = FreeCtx::new(1);
        let sp = open(&t, &mut ctx, "free", CostCat::App, SpanId::NONE);
        close(&t, &mut ctx, sp);
        assert_eq!(ctx.now(), Cycles(0));
    }

    #[test]
    fn end_records_the_span_window_into_its_histogram() {
        let m = MetricsRegistry::new(1);
        let mut ctx = FreeCtx::new(1);
        ctx.charge(CostCat::App, Cycles(5));
        let sp = begin_in(None, Some(&m), &mut ctx, "work", CostCat::App, SpanId::NONE);
        assert!(sp.id().is_none(), "no tracer: no span id allocated");
        ctx.charge(CostCat::App, Cycles(37));
        end_in(None, Some(&m), &mut ctx, sp);
        let snap = m.snapshot();
        let h = snap.hist("work.cycles").expect("span histogram");
        assert_eq!((h.count(), h.sum()), (1, 37));
        assert_eq!(ctx.now(), Cycles(42), "recording never charges cycles");
    }

    #[test]
    fn span_with_nothing_installed_records_nothing() {
        let m = MetricsRegistry::new(1);
        let mut ctx = FreeCtx::new(1);
        let sp = begin_in(None, None, &mut ctx, "work", CostCat::App, SpanId::NONE);
        // Even a registry present at `end` gets no sample: the span never
        // read its start.
        end_in(None, Some(&m), &mut ctx, sp);
        assert!(m.snapshot().is_empty());
        assert_eq!(ctx.now(), Cycles(0));
    }
}
