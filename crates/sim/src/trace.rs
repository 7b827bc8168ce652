//! Cycle-accurate event tracing for the simulation.
//!
//! A [`Tracer`] collects causal span begin/end pairs, instants, and
//! counter samples stamped with *virtual* cycles and the virtual core
//! that produced them, into a bounded ring (oldest events are
//! overwritten under pressure). The ring exports to Chrome's
//! `trace_event` JSON format, so any run opens in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing` as a per-vcore
//! timeline.
//!
//! Tracing is strictly an observer: recording an event never charges
//! virtual cycles, so an instrumented run produces bit-identical results
//! to an uninstrumented one (determinism is the simulator's core
//! contract). When no tracer is installed the instrumentation sites cost
//! one atomic load each.
//!
//! The tracer is process-global, installed once by a figure binary's
//! `--trace <path>` flag via [`install`]. Library code times a window with
//! [`crate::span::begin`]/[`crate::span::end`], which record here and
//! into the metrics registry's `<name>.cycles` histogram; it marks points
//! with the free functions [`instant`] and [`counter`], which read the
//! clock and core id from the `SimCtx` they are handed.

use std::sync::{Arc, Mutex, OnceLock};

use crate::lock_shared;

use crate::cost::CostCat;
use crate::engine::SimCtx;
use crate::time::{Cycles, CPU_HZ};

/// Default ring capacity (events). ~48 bytes/event, so ~50 MB worst case.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A point-in-time event.
    Instant {
        /// Event name.
        name: &'static str,
        /// Cost category.
        cat: CostCat,
        /// Virtual core.
        core: usize,
        /// Timestamp, in virtual cycles.
        ts: Cycles,
    },
    /// A sampled counter value (rendered as a counter track).
    Counter {
        /// Counter name.
        name: &'static str,
        /// Virtual core (counters are tracked per core).
        core: usize,
        /// Timestamp, in virtual cycles.
        ts: Cycles,
        /// Sampled value.
        value: u64,
    },
    /// Opens a causal span (see [`crate::span`]); paired with the
    /// [`TraceEvent::SpanEnd`] carrying the same `id`.
    SpanBegin {
        /// Span name.
        name: &'static str,
        /// Cost category.
        cat: CostCat,
        /// Virtual core the span opened on.
        core: usize,
        /// Open timestamp, in virtual cycles.
        ts: Cycles,
        /// Process-unique span id (never zero).
        id: u64,
        /// Parent span id, or zero for a root span. The parent may live
        /// on a *different* core/thread (causal link, not a call stack).
        parent: u64,
    },
    /// Closes the causal span opened with the same `id`.
    SpanEnd {
        /// Span name (repeated so a torn pair is still readable).
        name: &'static str,
        /// Cost category (Chrome matches async events on name+cat+id).
        cat: CostCat,
        /// Virtual core the span closed on.
        core: usize,
        /// Close timestamp, in virtual cycles.
        ts: Cycles,
        /// Id of the matching [`TraceEvent::SpanBegin`].
        id: u64,
    },
}

impl TraceEvent {
    fn core(&self) -> usize {
        match *self {
            TraceEvent::Instant { core, .. }
            | TraceEvent::Counter { core, .. }
            | TraceEvent::SpanBegin { core, .. }
            | TraceEvent::SpanEnd { core, .. } => core,
        }
    }
}

/// Escapes a name for embedding in a JSON string literal (RFC 8259).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

struct Ring {
    buf: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
}

/// A bounded collector of [`TraceEvent`]s.
pub struct Tracer {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl Tracer {
    /// Creates a tracer with the given ring capacity (events).
    pub fn new(capacity: usize) -> Tracer {
        assert!(capacity > 0, "trace ring needs room for at least one event");
        Tracer {
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                head: 0,
                dropped: 0,
            }),
            capacity,
        }
    }

    /// Records one event, overwriting the oldest if the ring is full.
    pub fn record(&self, ev: TraceEvent) {
        let mut r = lock_shared(&self.ring);
        if r.buf.len() < self.capacity {
            r.buf.push(ev);
        } else {
            let head = r.head;
            r.buf[head] = ev;
            r.head = (head + 1) % self.capacity;
            r.dropped += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        lock_shared(&self.ring).buf.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        lock_shared(&self.ring).dropped
    }

    /// Returns the retained events in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let r = lock_shared(&self.ring);
        let mut out = Vec::with_capacity(r.buf.len());
        out.extend_from_slice(&r.buf[r.head..]);
        out.extend_from_slice(&r.buf[..r.head]);
        out
    }

    /// Serializes the retained events as Chrome `trace_event` JSON
    /// (`ts` in microseconds of virtual time; `tid` is the vcore).
    ///
    /// Causal spans export as async `b`/`e` pairs matched on id. When
    /// ring pressure has overwritten a span's `SpanBegin`, the orphaned
    /// `SpanEnd` is suppressed so the export never contains a torn pair.
    pub fn export_chrome(&self) -> String {
        // Cycles -> microseconds at the simulated clock.
        let us = |c: Cycles| c.get() as f64 * 1e6 / CPU_HZ as f64;
        let events = self.events();
        // Ids whose SpanBegin survived in the ring: only their ends export.
        let mut begun = aquila_sync::DetSet::new();
        for ev in &events {
            if let TraceEvent::SpanBegin { id, .. } = ev {
                begun.insert(*id);
            }
        }
        let mut out = String::with_capacity(events.len() * 96 + 256);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        // Thread-name metadata so Perfetto labels each track "vcore N".
        let mut cores: Vec<usize> = events.iter().map(|e| e.core()).collect();
        cores.sort_unstable();
        cores.dedup();
        let mut first = true;
        let mut emit = |out: &mut String, line: &str| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(line);
        };
        for c in cores {
            emit(
                &mut out,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{c},\
                     \"args\":{{\"name\":\"vcore {c}\"}}}}"
                ),
            );
        }
        for ev in &events {
            let line = match *ev {
                TraceEvent::Instant {
                    name,
                    cat,
                    core,
                    ts,
                } => format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{:.3},\"pid\":1,\"tid\":{core},\
                     \"args\":{{\"ts_cycles\":{}}}}}",
                    esc(name),
                    cat.name(),
                    us(ts),
                    ts.get()
                ),
                TraceEvent::Counter {
                    name,
                    core,
                    ts,
                    value,
                } => format!(
                    "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":1,\
                     \"tid\":{core},\"args\":{{\"value\":{value}}}}}",
                    esc(name),
                    us(ts)
                ),
                TraceEvent::SpanBegin {
                    name,
                    cat,
                    core,
                    ts,
                    id,
                    parent,
                } => format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"b\",\
                     \"id2\":{{\"local\":\"0x{id:x}\"}},\"ts\":{:.3},\"pid\":1,\
                     \"tid\":{core},\"args\":{{\"span_id\":{id},\
                     \"parent_span\":{parent},\"ts_cycles\":{}}}}}",
                    esc(name),
                    cat.name(),
                    us(ts),
                    ts.get()
                ),
                TraceEvent::SpanEnd {
                    name,
                    cat,
                    core,
                    ts,
                    id,
                } => {
                    if !begun.contains(&id) {
                        // Begin was overwritten under ring pressure; drop
                        // the end rather than export a torn pair.
                        continue;
                    }
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"e\",\
                         \"id2\":{{\"local\":\"0x{id:x}\"}},\"ts\":{:.3},\"pid\":1,\
                         \"tid\":{core},\"args\":{{\"span_id\":{id},\
                         \"ts_cycles\":{}}}}}",
                        esc(name),
                        cat.name(),
                        us(ts),
                        ts.get()
                    )
                }
            };
            emit(&mut out, &line);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the Chrome trace to `path`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.export_chrome())
    }
}

static GLOBAL: OnceLock<Arc<Tracer>> = OnceLock::new();

/// Installs a process-global tracer with `capacity` events and returns
/// it. If a tracer is already installed, the existing one is returned
/// (install-once: figure binaries call this before running).
pub fn install(capacity: usize) -> Arc<Tracer> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Tracer::new(capacity))))
}

/// The installed global tracer, if any.
pub fn global() -> Option<&'static Arc<Tracer>> {
    GLOBAL.get()
}

/// Whether tracing is enabled (a global tracer is installed).
#[inline]
pub fn enabled() -> bool {
    GLOBAL.get().is_some()
}

/// Records an instant event at `ctx.now()` on the calling vcore.
#[inline]
pub fn instant(ctx: &dyn SimCtx, name: &'static str, cat: CostCat) {
    if let Some(t) = GLOBAL.get() {
        t.record(TraceEvent::Instant {
            name,
            cat,
            core: ctx.core(),
            ts: ctx.now(),
        });
    }
}

/// Records a counter sample at `ctx.now()` on the calling vcore.
#[inline]
pub fn counter(ctx: &dyn SimCtx, name: &'static str, value: u64) {
    if let Some(t) = GLOBAL.get() {
        t.record(TraceEvent::Counter {
            name,
            core: ctx.core(),
            ts: ctx.now(),
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FreeCtx;

    #[test]
    fn ring_overwrites_oldest() {
        let t = Tracer::new(4);
        for i in 0..6u64 {
            t.record(TraceEvent::Counter {
                name: "x",
                core: 0,
                ts: Cycles(i),
                value: i,
            });
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 2);
        let evs = t.events();
        // Oldest two (ts 0, 1) overwritten; order preserved.
        let ts: Vec<u64> = evs
            .iter()
            .map(|e| match e {
                TraceEvent::Counter { ts, .. } => ts.get(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ts, vec![2, 3, 4, 5]);
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let t = Tracer::new(16);
        t.record(TraceEvent::SpanBegin {
            name: "fault",
            cat: CostCat::FaultHandler,
            core: 1,
            ts: Cycles(2400),
            id: 1,
            parent: 0,
        });
        t.record(TraceEvent::SpanEnd {
            name: "fault",
            cat: CostCat::FaultHandler,
            core: 1,
            ts: Cycles(7200),
            id: 1,
        });
        t.record(TraceEvent::Instant {
            name: "shootdown",
            cat: CostCat::Tlb,
            core: 0,
            ts: Cycles(100),
        });
        t.record(TraceEvent::Counter {
            name: "nvme.inflight",
            core: 0,
            ts: Cycles(200),
            value: 7,
        });
        let s = t.export_chrome();
        assert!(s.starts_with('{') && s.trim_end().ends_with('}'));
        assert!(s.contains("\"traceEvents\""));
        assert!(s.contains("\"ph\":\"b\""));
        assert!(s.contains("\"ph\":\"e\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"ph\":\"C\""));
        assert!(s.contains("\"name\":\"vcore 0\""));
        assert!(s.contains("\"name\":\"vcore 1\""));
        // 2400 cycles at 2.4 GHz = exactly 1 us.
        assert!(s.contains("\"ts\":1.000"), "virtual-cycle timestamp:\n{s}");
        assert!(s.contains("\"ts\":3.000"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    /// Count occurrences of a span id in export lines of phase `ph`.
    fn phase_ids(export: &str, ph: char) -> Vec<u64> {
        let needle = format!("\"ph\":\"{ph}\"");
        export
            .lines()
            .filter(|l| l.contains(&needle))
            .map(|l| {
                let tail = l.split("\"span_id\":").nth(1).expect("span_id arg");
                tail.split(|c: char| !c.is_ascii_digit())
                    .next()
                    .unwrap()
                    .parse::<u64>()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn overflowed_ring_drops_oldest_and_never_tears_span_pairs() {
        use crate::rng::Rng64;
        // Property check over several seeds: a tiny ring under random
        // begin/end/counter pressure drops the oldest events, and the
        // Chrome export never contains an `e` whose `b` was dropped.
        for seed in 1u64..=8 {
            let t = Tracer::new(16);
            let mut rng = Rng64::new(seed);
            let mut open: Vec<u64> = Vec::new();
            let mut next_id = 1u64;
            let mut recorded = 0u64;
            for step in 0..200u64 {
                match rng.below(3) {
                    0 => {
                        let parent = open.last().copied().unwrap_or(0);
                        t.record(TraceEvent::SpanBegin {
                            name: "work",
                            cat: CostCat::App,
                            core: 0,
                            ts: Cycles(step),
                            id: next_id,
                            parent,
                        });
                        open.push(next_id);
                        next_id += 1;
                    }
                    1 => {
                        if let Some(id) = open.pop() {
                            t.record(TraceEvent::SpanEnd {
                                name: "work",
                                cat: CostCat::App,
                                core: 0,
                                ts: Cycles(step),
                                id,
                            });
                        } else {
                            continue;
                        }
                    }
                    _ => t.record(TraceEvent::Counter {
                        name: "c",
                        core: 0,
                        ts: Cycles(step),
                        value: step,
                    }),
                }
                recorded += 1;
            }
            // Drop-oldest accounting: ring holds the newest `capacity`.
            assert_eq!(t.len() as u64 + t.dropped(), recorded, "seed {seed}");
            assert!(t.len() <= 16);
            let export = t.export_chrome();
            let begins = phase_ids(&export, 'b');
            for id in phase_ids(&export, 'e') {
                assert!(
                    begins.contains(&id),
                    "seed {seed}: torn pair — end {id} exported without its begin"
                );
            }
            // Cheap well-formedness: balanced braces/brackets.
            assert_eq!(export.matches('{').count(), export.matches('}').count());
            assert_eq!(export.matches('[').count(), export.matches(']').count());
        }
    }

    #[test]
    fn export_escapes_names() {
        let t = Tracer::new(8);
        t.record(TraceEvent::Instant {
            name: "bad\"name\\with\ncontrol\tchars",
            cat: CostCat::Other,
            core: 0,
            ts: Cycles(1),
        });
        let s = t.export_chrome();
        assert!(s.contains("bad\\\"name\\\\with\\ncontrol\\tchars"), "{s}");
        // No raw quote/newline survives inside the name.
        assert!(!s.contains("bad\"name"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn span_pairs_roundtrip_through_export() {
        let t = Tracer::new(16);
        t.record(TraceEvent::SpanBegin {
            name: "aquila.fault",
            cat: CostCat::FaultHandler,
            core: 2,
            ts: Cycles(2400),
            id: 7,
            parent: 0,
        });
        t.record(TraceEvent::SpanBegin {
            name: "aquila.fault.read",
            cat: CostCat::DeviceIo,
            core: 2,
            ts: Cycles(3600),
            id: 8,
            parent: 7,
        });
        t.record(TraceEvent::SpanEnd {
            name: "aquila.fault.read",
            cat: CostCat::DeviceIo,
            core: 2,
            ts: Cycles(6000),
            id: 8,
        });
        t.record(TraceEvent::SpanEnd {
            name: "aquila.fault",
            cat: CostCat::FaultHandler,
            core: 2,
            ts: Cycles(7200),
            id: 7,
        });
        let s = t.export_chrome();
        assert!(s.contains("\"ph\":\"b\""));
        assert!(s.contains("\"ph\":\"e\""));
        assert!(s.contains("\"parent_span\":7"));
        assert!(s.contains("\"id2\":{\"local\":\"0x7\"}"));
        assert_eq!(phase_ids(&s, 'b'), vec![7, 8]);
        assert_eq!(phase_ids(&s, 'e'), vec![8, 7]);
    }

    #[test]
    fn free_functions_are_noops_without_global() {
        // The global may or may not be installed (test order), so only
        // check these never panic or charge cycles.
        let mut ctx = FreeCtx::new(1);
        ctx.charge(CostCat::App, Cycles(10));
        instant(&ctx, "tick", CostCat::Other);
        counter(&ctx, "gauge", 3);
        assert_eq!(ctx.now(), Cycles(10), "tracing never charges cycles");
    }
}
