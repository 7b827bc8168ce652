//! Benchmark-owned spans, kept in memory and written out after the run.
//!
//! Spans are recorded from the benchmark's own code around each call it
//! makes into the stack: one root `op` span per operation and a child span
//! per call (`core.read`, `core.write`, `core.msync`), plus root spans for
//! calls that are not operations (`core.remap`, `core.evictor`). Each span
//! records host nanoseconds and virtual cycles. The discrete-event engine
//! runs one step at a time on one host thread, so the spans of a step nest
//! strictly and a stack is enough to pair them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use aquila_sim::SimCtx;

/// Ops whose spans are kept in full for the Chrome trace.
pub const FULL_OPS: u64 = 10_000;

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Host nanoseconds inside the spans.
    pub host_ns: u64,
    /// Host nanoseconds not covered by child spans.
    pub self_host_ns: u64,
    /// Virtual cycles inside the spans.
    pub cycles: u64,
}

struct Open {
    name: &'static str,
    op: Option<u64>,
    tid: usize,
    host0: u64,
    cyc0: u64,
    child_host: u64,
}

struct Closed {
    name: &'static str,
    op: Option<u64>,
    tid: usize,
    cyc0: u64,
    cycles: u64,
    host_ns: u64,
}

/// The span recorder. When off, every call is a branch and nothing else.
pub struct Spans {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    full: Vec<Closed>,
    agg: BTreeMap<&'static str, Agg>,
    next_op: u64,
}

impl Spans {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            full: Vec::new(),
            agg: BTreeMap::new(),
            next_op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of the next operation.
    pub fn begin_op(&mut self, ctx: &dyn SimCtx) {
        if self.on {
            let op = self.next_op;
            self.next_op += 1;
            self.push("op", Some(op), ctx);
        }
    }

    /// Opens a span named `name`, a child of the open span if any.
    pub fn begin(&mut self, name: &'static str, ctx: &dyn SimCtx) {
        if self.on {
            let op = self.stack.last().and_then(|o| o.op);
            self.push(name, op, ctx);
        }
    }

    fn push(&mut self, name: &'static str, op: Option<u64>, ctx: &dyn SimCtx) {
        let host0 = self.now_ns();
        self.stack.push(Open {
            name,
            op,
            tid: ctx.thread_id(),
            host0,
            cyc0: ctx.now().get(),
            child_host: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, ctx: &dyn SimCtx) {
        if !self.on {
            return;
        }
        let host1 = self.now_ns();
        let open = self.stack.pop().expect("span end without a matching begin");
        let host_ns = host1 - open.host0;
        let cycles = ctx.now().get() - open.cyc0;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_host += host_ns;
        }
        let a = self.agg.entry(open.name).or_default();
        a.count += 1;
        a.host_ns += host_ns;
        a.self_host_ns += host_ns - open.child_host;
        a.cycles += cycles;
        // Spans outside any op (remaps, evictor steps) are kept while the
        // first FULL_OPS ops are still being issued.
        if open.op.unwrap_or(self.next_op) < FULL_OPS {
            self.full.push(Closed {
                name: open.name,
                op: open.op,
                tid: open.tid,
                cyc0: open.cyc0,
                cycles,
                host_ns,
            });
        }
    }

    /// Totals per span name.
    pub fn totals(&self) -> &BTreeMap<&'static str, Agg> {
        &self.agg
    }

    /// The kept spans as Chrome `trace_event` JSON. Timestamps are virtual
    /// microseconds (one track per simulated thread); each event carries
    /// its host nanoseconds and exact cycles in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.full.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let op = s.op.map_or_else(|| "null".to_string(), |o| o.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"op\":{op},\"cycles\":{},\"host_ns\":{}}}}}",
                s.name,
                s.tid,
                cycles_to_us(s.cyc0),
                cycles_to_us(s.cycles),
                s.cycles,
                s.host_ns
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

fn cycles_to_us(c: u64) -> f64 {
    c as f64 / (aquila_sim::CPU_HZ as f64 / 1e6)
}
