//! The discrete-event simulation engine.
//!
//! Virtual threads are closures stepped in global virtual-time order: the
//! scheduler always advances the thread with the smallest local clock, so
//! reservations on shared resources (see [`crate::resource`]) are made in
//! causally consistent order. Each step performs one unit of workload (one
//! request, one fault, one graph iteration) and charges its costs through
//! the thread's [`ThreadCtx`].
//!
//! The engine is deliberately single-threaded and deterministic: with the
//! same seed and cost model it reproduces results bit-for-bit on any host,
//! which is what lets a one-core container reproduce the paper's 32-thread
//! scalability figures.

use std::sync::Arc;

use aquila_sync::Mutex;

use crate::cost::{CostCat, CostModel};
use crate::rng::Rng64;
use crate::stats::{Breakdown, Counters};
use crate::time::Cycles;

/// Result of one workload step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The thread has more work; reschedule it at its new clock.
    Yield,
    /// The thread has finished its workload.
    Done,
}

/// Execution context handed to library code: virtual clock, cost charging,
/// RNG, and counters.
///
/// Library crates (`pcache`, the Aquila core, `linuxsim`, ...) accept
/// `&mut dyn SimCtx` so they can be driven both by the engine and by plain
/// unit tests via [`FreeCtx`].
pub trait SimCtx {
    /// Current virtual time of this thread.
    fn now(&self) -> Cycles;
    /// Charges `c` cycles to category `cat`, advancing the clock.
    fn charge(&mut self, cat: CostCat, c: Cycles);
    /// Advances the clock to `t` (no-op if already past), charging the gap
    /// to `cat`. Used after resource reservations.
    fn wait_until(&mut self, t: Cycles, cat: CostCat);
    /// The calibrated cost model.
    fn cost(&self) -> &CostModel;
    /// The thread's deterministic RNG.
    fn rng(&mut self) -> &mut Rng64;
    /// Simulation event counters.
    fn counters(&mut self) -> &mut Counters;
    /// The core this thread is pinned to.
    fn core(&self) -> usize;
    /// Number of cores in the simulated machine.
    fn num_cores(&self) -> usize;
    /// Identity of the virtual thread, for happens-before tracking in
    /// [`crate::race`]. Defaults to the pinned core — correct for free
    /// contexts and one-thread-per-core runs; the engine's [`ThreadCtx`]
    /// overrides it with the dense engine thread id.
    fn thread_id(&self) -> usize {
        self.core()
    }
    /// This virtual thread's open causal-span stack (ids, innermost
    /// last), used by [`crate::span`]. `None` means the context does not
    /// track spans; [`ThreadCtx`] and [`FreeCtx`] both do.
    fn span_stack(&mut self) -> Option<&mut Vec<u64>> {
        None
    }
}

/// Takes one `vmcall`: a deliberate vmexit to the hypervisor, charged as
/// [`CostModel::vmcall`] to [`CostCat::Vmexit`] and counted in
/// [`Counters::vmexits`]. Aquila pays it on its uncommon path (cache
/// resizing) and for every host I/O call it makes from non-root ring 0.
pub fn vmcall(ctx: &mut dyn SimCtx) {
    let c = ctx.cost().vmcall;
    ctx.charge(CostCat::Vmexit, c);
    ctx.counters().vmexits += 1;
}

/// Per-core pending interrupt work, charged to a core the next time one of
/// its threads runs.
///
/// Cross-core effects (TLB shootdown IPIs interrupting remote cores) cannot
/// be charged synchronously in a reservation model, so senders deposit the
/// handler cost as *debt* and each thread drains its core's debt at the
/// start of its next step.
#[derive(Debug, Default)]
pub struct CoreDebts {
    ledger: Mutex<Vec<Debt>>,
}

/// One core's pending interrupt work.
#[derive(Debug, Default, Clone, Copy)]
struct Debt {
    cycles: u64,
    /// Causal-span id of the latest depositor ([`crate::span`]); drained
    /// with the debt so the IPI handler's span links back to the
    /// shootdown that caused it. Zero when untagged.
    span_tag: u64,
}

impl CoreDebts {
    /// Creates a debt ledger for `cores` cores.
    pub fn new(cores: usize) -> CoreDebts {
        CoreDebts {
            ledger: Mutex::new(vec![Debt::default(); cores]),
        }
    }

    /// Deposits `c` cycles of pending interrupt work on `core`.
    pub fn deposit(&self, core: usize, c: Cycles) {
        if let Some(d) = self.ledger.lock().get_mut(core) {
            d.cycles += c.get();
        }
    }

    /// Deposits on every core except `sender`.
    pub fn broadcast_except(&self, sender: usize, c: Cycles) {
        for (i, d) in self.ledger.lock().iter_mut().enumerate() {
            if i != sender {
                d.cycles += c.get();
            }
        }
    }

    /// Drains and returns the pending debt for `core`.
    pub fn drain(&self, core: usize) -> Cycles {
        match self.ledger.lock().get_mut(core) {
            Some(d) => Cycles(std::mem::take(&mut d.cycles)),
            None => Cycles::ZERO,
        }
    }

    /// Tags every core except `sender` with the depositor's causal-span
    /// id (the shootdown span), linking the remote IPI drains back to it.
    pub fn tag_broadcast_except(&self, sender: usize, span: crate::span::SpanId) {
        if span.is_none() {
            return;
        }
        for (i, d) in self.ledger.lock().iter_mut().enumerate() {
            if i != sender {
                d.span_tag = span.0;
            }
        }
    }

    /// Takes (and clears) the causal-span tag for `core`.
    pub fn take_span_tag(&self, core: usize) -> crate::span::SpanId {
        match self.ledger.lock().get_mut(core) {
            Some(d) => crate::span::SpanId(std::mem::take(&mut d.span_tag)),
            None => crate::span::SpanId::NONE,
        }
    }

    /// Number of cores tracked.
    pub fn cores(&self) -> usize {
        self.ledger.lock().len()
    }
}

/// The per-thread execution context used inside the engine.
pub struct ThreadCtx {
    id: usize,
    core: usize,
    num_cores: usize,
    clock: Cycles,
    cost: Arc<CostModel>,
    rng: Rng64,
    /// Per-category charged cycles for this thread.
    pub breakdown: Breakdown,
    /// Event counters for this thread.
    pub stats: Counters,
    debts: Arc<CoreDebts>,
    /// Open causal-span ids ([`crate::span`]), innermost last.
    spans: Vec<u64>,
}

impl ThreadCtx {
    /// Thread identifier (dense, 0-based).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Drains pending cross-core interrupt debt into the TLB category as
    /// a `tlb.ipi.drain` span. When the depositor tagged this core with
    /// its causal span (a traced TLB shootdown), the drain is its child,
    /// linking the remote IPI-handling cost back to the shootdown.
    fn drain_debt(&mut self) {
        let d = self.debts.drain(self.core);
        if d > Cycles::ZERO {
            let parent = self.debts.take_span_tag(self.core);
            let sp = crate::span::begin_child(self, "tlb.ipi.drain", CostCat::Tlb, parent);
            self.charge(CostCat::Tlb, d);
            crate::span::end(self, sp);
        }
    }
}

impl SimCtx for ThreadCtx {
    fn now(&self) -> Cycles {
        self.clock
    }

    fn charge(&mut self, cat: CostCat, c: Cycles) {
        self.clock += c;
        self.breakdown.add(cat, c);
    }

    fn wait_until(&mut self, t: Cycles, cat: CostCat) {
        if t > self.clock {
            let gap = t - self.clock;
            self.clock = t;
            self.breakdown.add(cat, gap);
        }
    }

    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn rng(&mut self) -> &mut Rng64 {
        &mut self.rng
    }

    fn counters(&mut self) -> &mut Counters {
        &mut self.stats
    }

    fn core(&self) -> usize {
        self.core
    }

    fn num_cores(&self) -> usize {
        self.num_cores
    }

    fn thread_id(&self) -> usize {
        self.id
    }

    fn span_stack(&mut self) -> Option<&mut Vec<u64>> {
        Some(&mut self.spans)
    }
}

/// A free-running context for unit tests: same accounting as [`ThreadCtx`],
/// no engine required.
pub struct FreeCtx {
    clock: Cycles,
    cost: Arc<CostModel>,
    rng: Rng64,
    /// Per-category charged cycles.
    pub breakdown: Breakdown,
    /// Event counters.
    pub stats: Counters,
    core: usize,
    num_cores: usize,
    spans: Vec<u64>,
}

impl FreeCtx {
    /// Creates a context with the paper cost model and the given seed.
    pub fn new(seed: u64) -> FreeCtx {
        FreeCtx {
            clock: Cycles::ZERO,
            cost: Arc::new(CostModel::paper()),
            rng: Rng64::new(seed),
            breakdown: Breakdown::new(),
            stats: Counters::new(),
            core: 0,
            num_cores: 1,
            spans: Vec::new(),
        }
    }

    /// Sets the core id and machine width (for code paths that ask).
    pub fn with_core(mut self, core: usize, num_cores: usize) -> FreeCtx {
        self.core = core;
        self.num_cores = num_cores;
        self
    }
}

impl SimCtx for FreeCtx {
    fn now(&self) -> Cycles {
        self.clock
    }

    fn charge(&mut self, cat: CostCat, c: Cycles) {
        self.clock += c;
        self.breakdown.add(cat, c);
    }

    fn wait_until(&mut self, t: Cycles, cat: CostCat) {
        if t > self.clock {
            let gap = t - self.clock;
            self.clock = t;
            self.breakdown.add(cat, gap);
        }
    }

    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn rng(&mut self) -> &mut Rng64 {
        &mut self.rng
    }

    fn counters(&mut self) -> &mut Counters {
        &mut self.stats
    }

    fn core(&self) -> usize {
        self.core
    }

    fn num_cores(&self) -> usize {
        self.num_cores
    }

    fn span_stack(&mut self) -> Option<&mut Vec<u64>> {
        Some(&mut self.spans)
    }
}

/// A workload step function: performs one unit of work, returns whether the
/// thread continues.
pub type ThreadFn = Box<dyn FnMut(&mut ThreadCtx) -> Step>;

struct SimThread {
    ctx: ThreadCtx,
    body: ThreadFn,
    done: bool,
}

/// Aggregate results of an engine run.
#[derive(Debug)]
pub struct RunReport {
    /// Virtual time at which the last thread finished.
    pub makespan: Cycles,
    /// Per-thread finish times.
    pub finish_times: Vec<Cycles>,
    /// Merged per-category breakdown across threads.
    pub breakdown: Breakdown,
    /// Merged event counters across threads.
    pub counters: Counters,
    /// Per-thread breakdowns (for per-core analyses).
    pub per_thread: Vec<Breakdown>,
}

impl RunReport {
    /// Throughput in operations per second given a total op count.
    pub fn ops_per_sec(&self, total_ops: u64) -> f64 {
        if self.makespan == Cycles::ZERO {
            return 0.0;
        }
        total_ops as f64 / self.makespan.as_secs_f64()
    }
}

/// The discrete-event engine: a set of virtual threads pinned to cores.
pub struct Engine {
    cost: Arc<CostModel>,
    debts: Arc<CoreDebts>,
    threads: Vec<SimThread>,
    num_cores: usize,
    seed: u64,
}

impl Engine {
    /// Creates an engine for a machine with `num_cores` cores.
    pub fn new(num_cores: usize, seed: u64) -> Engine {
        Engine::with_cost(num_cores, seed, CostModel::paper())
    }

    /// Creates an engine with a custom cost model.
    pub fn with_cost(num_cores: usize, seed: u64, cost: CostModel) -> Engine {
        assert!(num_cores > 0, "a machine needs at least one core");
        Engine {
            cost: Arc::new(cost),
            debts: Arc::new(CoreDebts::new(num_cores)),
            threads: Vec::new(),
            num_cores,
            seed,
        }
    }

    /// The shared cross-core interrupt ledger (for shootdown senders).
    pub fn debts(&self) -> Arc<CoreDebts> {
        Arc::clone(&self.debts)
    }

    /// The engine's cost model.
    pub fn cost(&self) -> Arc<CostModel> {
        Arc::clone(&self.cost)
    }

    /// Spawns a virtual thread pinned to `core`.
    pub fn spawn(&mut self, core: usize, body: ThreadFn) -> usize {
        assert!(core < self.num_cores, "core {core} out of range");
        let id = self.threads.len();
        let mut seed_rng = Rng64::new(self.seed ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let rng = seed_rng.fork();
        self.threads.push(SimThread {
            ctx: ThreadCtx {
                id,
                core,
                num_cores: self.num_cores,
                clock: Cycles::ZERO,
                cost: Arc::clone(&self.cost),
                rng,
                breakdown: Breakdown::new(),
                stats: Counters::new(),
                debts: Arc::clone(&self.debts),
                spans: Vec::new(),
            },
            body,
            done: false,
        });
        id
    }

    /// Runs all threads to completion and returns the merged report.
    ///
    /// # Panics
    ///
    /// Panics if a thread yields more than `10^12` times without finishing
    /// (a runaway-workload backstop).
    pub fn run(&mut self) -> RunReport {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut heap: BinaryHeap<Reverse<(Cycles, usize)>> = self
            .threads
            .iter()
            .enumerate()
            .map(|(i, t)| Reverse((t.ctx.clock, i)))
            .collect();
        let mut steps: u64 = 0;
        while let Some(Reverse((_, idx))) = heap.pop() {
            let t = &mut self.threads[idx];
            if t.done {
                continue;
            }
            t.ctx.drain_debt();
            let before = t.ctx.clock;
            let step = (t.body)(&mut t.ctx);
            steps += 1;
            assert!(steps < 1_000_000_000_000, "engine runaway: too many steps");
            match step {
                Step::Done => t.done = true,
                Step::Yield => {
                    if t.ctx.clock == before {
                        // Guarantee progress to avoid a livelocked heap.
                        t.ctx.clock += Cycles(1);
                    }
                    heap.push(Reverse((t.ctx.clock, idx)));
                }
            }
        }

        let mut breakdown = Breakdown::new();
        let mut counters = Counters::new();
        let mut per_thread = Vec::with_capacity(self.threads.len());
        let mut finish_times = Vec::with_capacity(self.threads.len());
        let mut makespan = Cycles::ZERO;
        for t in &self.threads {
            breakdown.merge(&t.ctx.breakdown);
            counters.merge(&t.ctx.stats);
            per_thread.push(t.ctx.breakdown.clone());
            finish_times.push(t.ctx.clock);
            makespan = makespan.max(t.ctx.clock);
        }
        RunReport {
            makespan,
            finish_times,
            breakdown,
            counters,
            per_thread,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_accumulates_time() {
        let mut e = Engine::new(1, 1);
        e.spawn(
            0,
            Box::new(|ctx| {
                ctx.charge(CostCat::App, Cycles(100));
                if ctx.now() >= Cycles(1000) {
                    Step::Done
                } else {
                    Step::Yield
                }
            }),
        );
        let r = e.run();
        assert_eq!(r.makespan, Cycles(1000));
        assert_eq!(r.breakdown.get(CostCat::App), Cycles(1000));
    }

    #[test]
    fn threads_interleave_in_time_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let order: Rc<RefCell<Vec<(usize, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut e = Engine::new(2, 1);
        for (id, step_cost) in [(0usize, 30u64), (1, 100)] {
            let order = Rc::clone(&order);
            let mut n = 0;
            e.spawn(
                id,
                Box::new(move |ctx| {
                    order.borrow_mut().push((id, ctx.now().get()));
                    ctx.charge(CostCat::App, Cycles(step_cost));
                    n += 1;
                    if n == 3 {
                        Step::Done
                    } else {
                        Step::Yield
                    }
                }),
            );
        }
        e.run();
        // Events must be globally sorted by the time each step started.
        let times: Vec<u64> = order.borrow().iter().map(|&(_, t)| t).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        // Thread 0 (cheap steps) runs several times before thread 1's
        // second step at t=100.
        let t0_runs_before_100 = order
            .borrow()
            .iter()
            .filter(|&&(id, t)| id == 0 && t < 100)
            .count();
        assert!(t0_runs_before_100 >= 3);
    }

    #[test]
    fn zero_progress_yield_still_terminates() {
        let mut e = Engine::new(1, 1);
        let mut n = 0;
        e.spawn(
            0,
            Box::new(move |_ctx| {
                n += 1;
                if n > 10 {
                    Step::Done
                } else {
                    Step::Yield
                }
            }),
        );
        let r = e.run();
        // Forced 1-cycle progress per empty yield.
        assert_eq!(r.makespan, Cycles(10));
    }

    #[test]
    fn core_debt_is_drained_as_tlb_time() {
        let mut e = Engine::new(2, 1);
        let debts = e.debts();
        let d2 = Arc::clone(&debts);
        // Thread on core 0 deposits interrupt work on core 1 and finishes.
        e.spawn(
            0,
            Box::new(move |ctx| {
                d2.deposit(1, Cycles(500));
                ctx.charge(CostCat::App, Cycles(10));
                Step::Done
            }),
        );
        // Thread on core 1 takes two cheap steps; the debt lands on it.
        let mut n = 0;
        e.spawn(
            1,
            Box::new(move |ctx| {
                ctx.charge(CostCat::App, Cycles(5));
                n += 1;
                if n == 2 {
                    Step::Done
                } else {
                    Step::Yield
                }
            }),
        );
        let r = e.run();
        assert_eq!(r.breakdown.get(CostCat::Tlb), Cycles(500));
    }

    #[test]
    fn broadcast_except_skips_sender() {
        let d = CoreDebts::new(4);
        d.broadcast_except(2, Cycles(100));
        assert_eq!(d.drain(2), Cycles::ZERO);
        assert_eq!(d.drain(0), Cycles(100));
        assert_eq!(d.drain(0), Cycles::ZERO);
        assert_eq!(d.cores(), 4);
    }

    #[test]
    fn report_ops_per_sec() {
        let mut e = Engine::new(1, 1);
        e.spawn(
            0,
            Box::new(|ctx| {
                ctx.charge(CostCat::App, Cycles(crate::time::CPU_HZ));
                Step::Done
            }),
        );
        let r = e.run();
        // 1000 ops in exactly one virtual second.
        assert!((r.ops_per_sec(1000) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn free_ctx_behaves_like_thread_ctx() {
        let mut ctx = FreeCtx::new(42).with_core(3, 8);
        ctx.charge(CostCat::Syscall, Cycles(150));
        ctx.wait_until(Cycles(1000), CostCat::Idle);
        ctx.wait_until(Cycles(10), CostCat::Idle); // no-op, already past
        assert_eq!(ctx.now(), Cycles(1000));
        assert_eq!(ctx.breakdown.get(CostCat::Idle), Cycles(850));
        assert_eq!(ctx.core(), 3);
        assert_eq!(ctx.num_cores(), 8);
    }

    #[test]
    fn rng_streams_differ_per_thread() {
        let mut e = Engine::new(2, 7);
        use std::cell::RefCell;
        use std::rc::Rc;
        let vals: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for core in 0..2 {
            let vals = Rc::clone(&vals);
            e.spawn(
                core,
                Box::new(move |ctx| {
                    vals.borrow_mut().push(ctx.rng().next_u64());
                    Step::Done
                }),
            );
        }
        e.run();
        let v = vals.borrow();
        assert_ne!(v[0], v[1]);
    }
}
