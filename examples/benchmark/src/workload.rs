//! The four closed-loop workloads: their sizes, set-up, client loops and
//! the read-back check.
//!
//! Every workload keeps records of [`RECORD`] bytes in one file: record
//! `n` sits at byte `n * RECORD` and holds a little-endian `u64` version
//! followed by bytes `8..` of `value_of(key_of(n))`. Clients are closed
//! loops with zero think time: a client issues its next operation when the
//! previous one returns.
//!
//! All phases of a run share one virtual timeline. Set-up runs on a free
//! context; the warm-up and the measured phase each run on their own
//! [`Engine`], whose threads first wait until the previous phase ended.
//! Nothing in the stack that remembers a virtual time (the write-behind
//! horizon, the watermark stall clock, device queues) ever sees time run
//! backwards.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use aquila::{
    Advice, Aquila, AquilaError, AquilaRuntime, DeviceKind, FileId, Gva, MmioPolicy, Prot,
    RegionState, WritePolicy,
};
use aquila_sim::{
    Breakdown, CostCat, Counters, Cycles, Engine, FreeCtx, Rng64, ScrambledZipfian, SimCtx, Step,
    ThreadCtx, ThreadFn,
};
use aquila_ycsb::workload::{value_of, KeyGen};

use crate::calibrate;
use crate::spans::Spans;

/// Bytes per record.
pub const RECORD: u64 = 1024;
const PAGE: u64 = 4096;
const RECORDS_PER_PAGE: u64 = PAGE / RECORD;

/// Toy sizes divide pages and cache by this (the smoke test's scale).
const TOY_DIV: u64 = 64;
/// Measured ops per toy run.
const TOY_OPS: u64 = 4096;

/// How a workload's clients pick their operations.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pattern {
    /// Each client maps its own slice of the file, reads 64 B from every
    /// page of it once in a shuffled order, then unmaps and remaps it.
    FaultRemap,
    /// YCSB-style point reads and updates of whole records over one
    /// shared mapping of the file.
    Kv { read_share: f64, zipfian: bool },
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the benchmark runs it.
    pub why: &'static str,
    pattern: Pattern,
    device: DeviceKind,
    clients: usize,
    /// 2-way mirrored NVMe with checksums, write-behind eviction and a
    /// dedicated evictor vcore.
    mirror: bool,
    pages: u64,
    cache_frames: usize,
    /// Each client msyncs the file after this many of its own updates.
    msync_every: u64,
    /// Measured ops per second of `--seconds`: sized so the measured phase
    /// takes about that long on a 2-vCPU x86-64 host.
    ops_per_second: u64,
}

/// The workloads, in the order the benchmark runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fault-remap",
        why: "every read is a minor fault on a fully cached pmem file with 32 clients remapping their slices: the fault path (trap, handler, TLB) with no device I/O or eviction",
        pattern: Pattern::FaultRemap,
        device: DeviceKind::PmemDax,
        clients: 32,
        mirror: false,
        pages: 32768,
        cache_frames: 32768 + 32768 / 8,
        msync_every: 0,
        ops_per_second: 450_000,
    },
    Workload {
        name: "kv-read",
        why: "YCSB-C uniform reads of 1 KiB records over pmem with the dataset 4x the cache: major faults, AVX copies and clean eviction, no writes",
        pattern: Pattern::Kv {
            read_share: 1.0,
            zipfian: false,
        },
        device: DeviceKind::PmemDax,
        clients: 4,
        mirror: false,
        pages: 32768,
        cache_frames: 8192,
        msync_every: 0,
        ops_per_second: 320_000,
    },
    Workload {
        name: "kv-update",
        why: "YCSB-A zipfian over NVMe with periodic msync: dirty tracking, inline eviction with writeback and write-protect shootdowns; the bypass twin of kv-mirror",
        pattern: Pattern::Kv {
            read_share: 0.5,
            zipfian: true,
        },
        device: DeviceKind::NvmeSpdk,
        clients: 4,
        mirror: false,
        pages: 32768,
        cache_frames: 8192,
        msync_every: 1024,
        ops_per_second: 320_000,
    },
    Workload {
        name: "kv-mirror",
        why: "kv-update's ops over a 2-way mirrored NVMe with checksums, write-behind eviction and a dedicated evictor vcore: the mirror, host CRC and async pipeline",
        pattern: Pattern::Kv {
            read_share: 0.5,
            zipfian: true,
        },
        device: DeviceKind::NvmeSpdk,
        clients: 4,
        mirror: true,
        pages: 32768,
        cache_frames: 8192,
        msync_every: 1024,
        ops_per_second: 85_000,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Concrete sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// File pages.
    pub pages: u64,
    /// DRAM cache frames.
    pub cache_frames: usize,
    /// Measured ops per client.
    pub ops_per_client: u64,
    /// Updates per client between msyncs (0: never).
    pub msync_every: u64,
}

impl Workload {
    /// Sizes for a run measuring about `seconds`, or the toy sizes.
    pub fn params(&self, seconds: u64, toy: bool) -> Params {
        let (div, ops) = if toy {
            (TOY_DIV, TOY_OPS)
        } else {
            (1, self.ops_per_second * seconds)
        };
        Params {
            pages: self.pages / div,
            cache_frames: self.cache_frames / div as usize,
            ops_per_client: (ops / self.clients as u64).max(1),
            msync_every: self.msync_every / div.min(16),
        }
    }

    /// Client vcores.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Simulated cores: one per client, plus the evictor's.
    fn cores(&self) -> usize {
        self.clients + usize::from(self.mirror)
    }
}

/// The bytes of record `n` at `version`.
pub fn record(n: u64, version: u64) -> Vec<u8> {
    let mut v = value_of(&KeyGen::key_of(n), RECORD as usize);
    v[..8].copy_from_slice(&version.to_le_bytes());
    v
}

/// Independent generator streams derived from the run's seed.
#[derive(Debug, Clone, Copy)]
enum Stream {
    Setup = 1,
    LoadEngine,
    WarmEngine,
    WarmOps,
    Engine,
    Ops,
}

fn rng(seed: u64, stream: Stream, client: u64) -> Rng64 {
    Rng64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((stream as u64) << 56) ^ client)
}

fn seed_of(seed: u64, stream: Stream) -> u64 {
    rng(seed, stream, u64::MAX).next_u64()
}

/// Equal-op windows the measured phase's host time is split into.
const WINDOWS: u64 = 64;
/// Fewest ops in a window: each window pays for a run of the reference
/// kernel, which would swamp runs too short to time anyway.
const MIN_WINDOW_OPS: u64 = 4096;

/// What a run of the clients is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Every client writes version 0 of its share of the records, in
    /// order.
    Load,
    /// Untimed, on its own seed stream.
    WarmUp,
    /// The end-to-end measurement.
    Measured,
    /// The same ops as `Measured`, with spans recorded.
    Traced,
}

/// One client's place in its loop.
struct Client {
    rng: Rng64,
    /// Ops left in the current phase.
    left: u64,
    updates: u64,
    /// The next record this client loads.
    next_record: u64,
    slice: Option<Slice>,
}

/// A fault-remap client's mapped slice and pass order.
struct Slice {
    first_page: u64,
    base: Option<Gva>,
    order: Vec<u64>,
    pos: usize,
}

/// What one engine thread did in a phase.
#[derive(Debug, Clone, Default)]
struct ThreadTally {
    start: Cycles,
    snap: Breakdown,
    nudges: u64,
}

/// What the benchmark counted in a phase.
#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
    latencies: Vec<u64>,
    window: u64,
    window_start: Option<Instant>,
    /// Per window: host ops per second, and the reference kernel's
    /// duration right after it.
    windows: Vec<(f64, f64)>,
    msync_calls: u64,
    msync_cycles: u64,
    user_bytes_written: u64,
    body_ns: u64,
    threads: Vec<ThreadTally>,
}

impl Tally {
    /// Ends a window of `window` ops, runs the reference kernel, and
    /// starts the next window.
    fn close_window(&mut self) {
        let start = self.window_start.expect("the phase opened a window");
        let rate = self.window as f64 / start.elapsed().as_secs_f64();
        self.windows.push((rate, calibrate::kernel_s()));
        self.window_start = Some(Instant::now());
    }
}

/// State the client loops share. The engine steps one thread at a time
/// on one host thread, so `RefCell` borrows never overlap.
struct Shared {
    aq: Arc<Aquila>,
    file: FileId,
    /// The mapping of the whole file: the load's, then the kv ops'.
    base: Cell<Option<Gva>>,
    pattern: Pattern,
    pages: u64,
    msync_every: u64,
    zipf: Option<ScrambledZipfian>,
    versions: RefCell<Vec<u64>>,
    spans: RefCell<Spans>,
    tally: RefCell<Tally>,
}

impl Shared {
    fn op_begin(&self, ctx: &dyn SimCtx) {
        self.spans.borrow_mut().begin_op(ctx);
    }

    fn begin(&self, name: &'static str, ctx: &dyn SimCtx) {
        self.spans.borrow_mut().begin(name, ctx);
    }

    fn end(&self, ctx: &dyn SimCtx) {
        self.spans.borrow_mut().end(ctx);
    }

    fn expected(&self, n: u64) -> Vec<u8> {
        record(n, self.versions.borrow()[n as usize])
    }

    /// Writes version 0 of the client's next record.
    fn load_step(&self, ctx: &mut dyn SimCtx, c: &mut Client) -> bool {
        let base = self.base.get().expect("the load maps the whole file");
        let n = c.next_record;
        c.next_record += 1;
        self.aq
            .write(ctx, base.add(n * RECORD), &record(n, 0))
            .is_ok()
    }

    /// Runs the client's next step: `Some(ok)` for an operation, `None`
    /// for a remap between passes.
    fn step(&self, ctx: &mut dyn SimCtx, c: &mut Client) -> Option<bool> {
        match &mut c.slice {
            Some(s) => self.slice_step(ctx, s, &mut c.rng),
            None => Some(self.kv_op(ctx, c)),
        }
    }

    fn slice_step(&self, ctx: &mut dyn SimCtx, s: &mut Slice, rng: &mut Rng64) -> Option<bool> {
        if s.pos == s.order.len() {
            self.begin("core.remap", ctx);
            let r = self.remap(ctx, s);
            self.end(ctx);
            if r.is_err() {
                self.tally.borrow_mut().failed += 1;
            }
            for i in (1..s.order.len()).rev() {
                s.order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            s.pos = 0;
            return None;
        }
        let page = s.order[s.pos];
        s.pos += 1;
        let slot = rng.below(RECORDS_PER_PAGE);
        let n = (s.first_page + page) * RECORDS_PER_PAGE + slot;
        self.op_begin(ctx);
        let mut buf = [0u8; 64];
        let ok = match s.base {
            Some(base) => {
                self.begin("core.read", ctx);
                let r = self
                    .aq
                    .read(ctx, base.add(page * PAGE + slot * RECORD), &mut buf);
                self.end(ctx);
                r.is_ok() && buf[..] == self.expected(n)[..buf.len()]
            }
            None => false,
        };
        self.end(ctx);
        Some(ok)
    }

    fn remap(&self, ctx: &mut dyn SimCtx, s: &mut Slice) -> Result<(), AquilaError> {
        let pages = s.order.len() as u64;
        if let Some(b) = s.base.take() {
            self.aq.munmap(ctx, b, pages)?;
        }
        let b = self
            .aq
            .mmap(ctx, self.file, s.first_page, pages, Prot::READ)?;
        self.aq.madvise(ctx, b, pages, Advice::Random)?;
        s.base = Some(b);
        Ok(())
    }

    fn kv_op(&self, ctx: &mut dyn SimCtx, c: &mut Client) -> bool {
        let Pattern::Kv { read_share, .. } = self.pattern else {
            unreachable!("kv op on a slice workload")
        };
        let base = self.base.get().expect("kv workloads map the whole file");
        let read = c.rng.f64() < read_share;
        let records = self.pages * RECORDS_PER_PAGE;
        let n = match &self.zipf {
            Some(z) => z.sample(&mut c.rng),
            None => c.rng.below(records),
        };
        let addr = base.add(n * RECORD);
        self.op_begin(ctx);
        let ok = if read {
            let mut buf = [0u8; RECORD as usize];
            self.begin("core.read", ctx);
            let r = self.aq.read(ctx, addr, &mut buf);
            self.end(ctx);
            r.is_ok() && buf[..] == self.expected(n)[..]
        } else {
            let version = self.versions.borrow()[n as usize] + 1;
            let rec = record(n, version);
            self.begin("core.write", ctx);
            let r = self.aq.write(ctx, addr, &rec);
            self.end(ctx);
            let mut ok = r.is_ok();
            if ok {
                self.versions.borrow_mut()[n as usize] = version;
                self.tally.borrow_mut().user_bytes_written += RECORD;
            }
            c.updates += 1;
            if self.msync_every > 0 && c.updates.is_multiple_of(self.msync_every) {
                let t0 = ctx.now();
                self.begin("core.msync", ctx);
                let r = self.aq.msync(ctx, base, self.pages);
                self.end(ctx);
                let mut t = self.tally.borrow_mut();
                t.msync_calls += 1;
                t.msync_cycles += (ctx.now() - t0).get();
                ok &= r.is_ok();
            }
            ok
        };
        self.end(ctx);
        ok
    }
}

/// Wraps a thread body: the first step waits for the phase start and
/// snapshots the thread's breakdown; every later step runs `body`. Counts
/// the engine's 1-cycle progress nudges (a yield that left the clock
/// unchanged) so attribution can be checked exactly.
fn thread(
    sh: &Rc<Shared>,
    tid: usize,
    t0: Cycles,
    mut body: impl FnMut(&mut ThreadCtx, &Shared) -> Step + 'static,
) -> ThreadFn {
    let sh = Rc::clone(sh);
    let mut started = false;
    Box::new(move |ctx| {
        let before = ctx.now();
        let timed = sh.spans.borrow().on().then(Instant::now);
        let step = if started {
            body(ctx, &sh)
        } else {
            started = true;
            ctx.wait_until(t0, CostCat::Other);
            sh.tally.borrow_mut().threads[tid] = ThreadTally {
                start: ctx.now(),
                snap: ctx.breakdown.clone(),
                nudges: 0,
            };
            Step::Yield
        };
        let mut t = sh.tally.borrow_mut();
        if let Some(h) = timed {
            t.body_ns += h.elapsed().as_nanos() as u64;
        }
        if step == Step::Yield && ctx.now() == before {
            t.threads[tid].nudges += 1;
        }
        step
    })
}

/// One measured phase's results.
pub struct Measured {
    /// Operations issued.
    pub ops: u64,
    /// Operations that returned an error or read unexpected bytes.
    pub failed: u64,
    /// Per-op virtual latencies in cycles, sorted.
    pub latencies: Vec<u64>,
    /// Client vcores' makespan: first op step to last finish.
    pub makespan: Cycles,
    /// Cycles charged to the client vcores during the phase, by category.
    pub clients: Breakdown,
    /// Event counters of every thread (clients and evictor).
    pub counters: Counters,
    /// Engine progress nudges on the client vcores.
    pub nudges: u64,
    /// Client finish times minus their charged cycles, summed.
    pub unattributed: u64,
    /// Client vcores whose charged cycles plus nudges miss their finish
    /// time.
    pub attribution_errors: Vec<String>,
    /// The evictor vcore's (non-idle cycles, span) when it runs.
    pub evictor: Option<(u64, u64)>,
    /// msync calls and the virtual cycles spent in them.
    pub msync_calls: u64,
    /// Virtual cycles inside msync calls.
    pub msync_cycles: u64,
    /// Bytes the clients wrote through the mapping.
    pub user_bytes_written: u64,
    /// Write-path health of the region when the phase ended.
    pub region: RegionState,
    /// Host nanoseconds of `Engine::run`.
    pub host_run_ns: u64,
    /// Per equal-op window of the run: host ops per second, and the
    /// reference kernel's duration right after the window.
    pub windows: Vec<(f64, f64)>,
    /// Host nanoseconds inside thread step bodies (traced runs only).
    pub body_ns: u64,
    /// The spans recorded (empty when untraced).
    pub spans: Spans,
}

/// A workload set up and warmed, ready for its measured phase.
pub struct World {
    w: &'static Workload,
    p: Params,
    seed: u64,
    rt: AquilaRuntime,
    engine: Option<Engine>,
    ctx: FreeCtx,
    sh: Rc<Shared>,
    clients: Vec<Rc<RefCell<Client>>>,
    /// Virtual time at which the next phase starts.
    t_next: Cycles,
}

impl World {
    /// Builds the runtime, loads version 0 of every record, msyncs, and
    /// runs the untimed warm-up (a tenth of the measured ops, on its own
    /// seed stream).
    pub fn setup(w: &'static Workload, p: Params, seed: u64) -> World {
        let cores = w.cores();
        // The runtime deposits cross-core shootdown work on the measured
        // engine's ledger, which only that engine's threads drain.
        let engine = Engine::new(cores, seed_of(seed, Stream::Engine));
        let mut ctx = FreeCtx::new(seed_of(seed, Stream::Setup)).with_core(0, cores);
        let policy = if w.mirror {
            MmioPolicy {
                mirror: true,
                write_policy: WritePolicy::Async,
                evictor_cores: vec![w.clients],
                ..MmioPolicy::default()
            }
        } else {
            MmioPolicy::default()
        };
        let rt = AquilaRuntime::build_with_policy(
            &mut ctx,
            w.device,
            2 * p.pages + 4096,
            p.cache_frames,
            cores,
            engine.debts(),
            policy,
        );
        for core in 1..cores {
            rt.aquila
                .thread_enter(&mut FreeCtx::new(0).with_core(core, cores));
        }
        rt.aquila.thread_enter(&mut ctx);
        let aq = Arc::clone(&rt.aquila);
        let file = rt
            .open("/bench/records", p.pages)
            .expect("open the record file");
        let base = aq
            .mmap(&mut ctx, file, 0, p.pages, Prot::RW)
            .expect("map the record file");
        aq.madvise(&mut ctx, base, p.pages, Advice::Random)
            .expect("madvise the record file");
        let records = p.pages * RECORDS_PER_PAGE;
        let per_client = records / w.clients as u64;
        let (zipf, slice_pages) = match w.pattern {
            Pattern::FaultRemap => (None, p.pages / w.clients as u64),
            Pattern::Kv { zipfian, .. } => (zipfian.then(|| ScrambledZipfian::new(records)), 0),
        };
        let clients = (0..w.clients as u64)
            .map(|c| {
                Rc::new(RefCell::new(Client {
                    // Each phase reseeds it from its own stream.
                    rng: Rng64::new(0),
                    left: 0,
                    updates: 0,
                    next_record: c * per_client,
                    slice: (slice_pages > 0).then(|| Slice {
                        first_page: c * slice_pages,
                        base: None,
                        order: (0..slice_pages).collect(),
                        pos: slice_pages as usize,
                    }),
                }))
            })
            .collect();
        let t_next = ctx.now();
        let mut world = World {
            w,
            p,
            seed,
            engine: Some(engine),
            ctx,
            sh: Rc::new(Shared {
                aq,
                file,
                base: Cell::new(Some(base)),
                pattern: w.pattern,
                pages: p.pages,
                msync_every: p.msync_every,
                zipf,
                versions: RefCell::new(vec![0; records as usize]),
                spans: RefCell::new(Spans::new(false)),
                tally: RefCell::new(Tally::default()),
            }),
            rt,
            clients,
            t_next,
        };
        // The load is an engine phase of its own, so a workload's evictor
        // refills the freelist while the records go in, as it would for
        // an application loading its data.
        let load = Engine::new(cores, seed_of(seed, Stream::LoadEngine));
        let loaded = world.run_phase(load, Phase::Load, per_client);
        assert_eq!(loaded.failed, 0, "every record loads");
        let ctx = &mut world.ctx;
        ctx.wait_until(world.t_next, CostCat::Other);
        let aq = &world.sh.aq;
        aq.msync(ctx, base, p.pages).expect("msync the load");
        if slice_pages > 0 {
            aq.munmap(ctx, base, p.pages)
                .expect("unmap the load mapping");
            world.sh.base.set(None);
        }
        world.t_next = ctx.now();
        // Whole passes, so the measured phase starts with a remap and
        // every measured read of fault-remap faults.
        let mut warm_ops = p.ops_per_client.div_ceil(10);
        if slice_pages > 0 {
            warm_ops = warm_ops.next_multiple_of(slice_pages);
        }
        let warm = Engine::new(cores, seed_of(seed, Stream::WarmEngine));
        world.run_phase(warm, Phase::WarmUp, warm_ops);
        // The load and warm-up engines never drained the measured engine's
        // ledger.
        let debts = world.engine.as_ref().expect("fresh engine").debts();
        for core in 0..cores {
            debts.drain(core);
        }
        world.rt.aquila.reset_lock_timing();
        world.rt.access.reset_timing();
        world
    }

    /// Runs every client for `ops` ops (and the evictor while they run).
    fn run_phase(&mut self, mut engine: Engine, phase: Phase, ops: u64) -> Measured {
        let w = self.w;
        let threads = w.cores();
        let total = ops * w.clients as u64;
        let (stream, window) = match phase {
            Phase::Load | Phase::WarmUp => (Stream::WarmOps, u64::MAX),
            Phase::Measured | Phase::Traced => (Stream::Ops, (total / WINDOWS).max(MIN_WINDOW_OPS)),
        };
        self.sh.spans.replace(Spans::new(phase == Phase::Traced));
        self.sh.tally.replace(Tally {
            window,
            latencies: Vec::with_capacity(total as usize),
            threads: vec![ThreadTally::default(); threads],
            ..Tally::default()
        });
        let live = Rc::new(Cell::new(w.clients));
        let stop = Arc::new(AtomicBool::new(false));
        for (tid, client) in self.clients.iter().enumerate() {
            {
                let mut c = client.borrow_mut();
                c.rng = rng(self.seed, stream, tid as u64);
                c.left = ops;
            }
            let client = Rc::clone(client);
            let live = Rc::clone(&live);
            let stop = Arc::clone(&stop);
            let body = move |ctx: &mut ThreadCtx, sh: &Shared| {
                let mut c = client.borrow_mut();
                let t0 = ctx.now();
                let did = if phase == Phase::Load {
                    Some(sh.load_step(ctx, &mut c))
                } else {
                    sh.step(ctx, &mut c)
                };
                if let Some(ok) = did {
                    c.left -= 1;
                    let mut t = sh.tally.borrow_mut();
                    t.ops += 1;
                    t.failed += u64::from(!ok);
                    t.latencies.push((ctx.now() - t0).get());
                    if t.ops.is_multiple_of(t.window) {
                        t.close_window();
                    }
                }
                if c.left > 0 {
                    return Step::Yield;
                }
                live.set(live.get() - 1);
                if live.get() == 0 {
                    stop.store(true, Ordering::Release);
                }
                Step::Done
            };
            engine.spawn(tid, thread(&self.sh, tid, self.t_next, body));
        }
        if w.mirror {
            let mut evictor = self.sh.aq.evictor(stop, Cycles::from_micros(2));
            let body = move |ctx: &mut ThreadCtx, sh: &Shared| {
                sh.begin("core.evictor", ctx);
                let step = evictor(ctx);
                sh.end(ctx);
                step
            };
            engine.spawn(w.clients, thread(&self.sh, w.clients, self.t_next, body));
        }
        calibrate::prepare();
        let h0 = Instant::now();
        self.sh.tally.borrow_mut().window_start = Some(h0);
        let report = engine.run();
        let tally = self.sh.tally.take();
        // The reference kernel is not the simulator's work.
        let kernel_ns = (tally.windows.iter().map(|w| w.1).sum::<f64>() * 1e9) as u64;
        let host_run_ns = h0.elapsed().as_nanos() as u64 - kernel_ns;
        self.t_next = report.makespan;

        let spans = self.sh.spans.replace(Spans::new(false));
        let mut clients = Breakdown::new();
        let mut unattributed = 0;
        let mut nudges = 0;
        let mut attribution_errors = Vec::new();
        let mut start = Cycles::MAX;
        let mut finish = Cycles::ZERO;
        for (tid, th) in tally.threads.iter().enumerate().take(w.clients) {
            let charged = report.per_thread[tid].since(&th.snap);
            let span = report.finish_times[tid] - th.start;
            if span.get() != charged.total().get() + th.nudges {
                attribution_errors.push(format!(
                    "client vcore {tid}: finish - start = {} cycles but charged {} + {} nudges",
                    span.get(),
                    charged.total().get(),
                    th.nudges
                ));
            }
            unattributed += span.get() - charged.total().get();
            nudges += th.nudges;
            clients.merge(&charged);
            start = start.min(th.start);
            finish = finish.max(report.finish_times[tid]);
        }
        let evictor = w.mirror.then(|| {
            let th = &tally.threads[w.clients];
            let charged = report.per_thread[w.clients].since(&th.snap);
            let busy = charged.total().get() - charged.get(CostCat::Idle).get();
            (busy, (report.finish_times[w.clients] - th.start).get())
        });
        let mut latencies = tally.latencies;
        latencies.sort_unstable();
        Measured {
            ops: tally.ops,
            failed: tally.failed,
            latencies,
            makespan: finish - start,
            clients,
            counters: report.counters,
            nudges,
            unattributed,
            attribution_errors,
            evictor,
            msync_calls: tally.msync_calls,
            msync_cycles: tally.msync_cycles,
            user_bytes_written: tally.user_bytes_written,
            region: self.rt.aquila.region_state(),
            host_run_ns,
            windows: tally.windows,
            body_ns: tally.body_ns.saturating_sub(kernel_ns),
            spans,
        }
    }

    /// The measured phase, on the engine made at set-up.
    pub fn measure(&mut self, trace: bool) -> Measured {
        let engine = self.engine.take().expect("a world is measured once");
        let phase = if trace {
            Phase::Traced
        } else {
            Phase::Measured
        };
        self.run_phase(engine, phase, self.p.ops_per_client)
    }

    /// After the measured phase: msync, unmap, map the whole file again
    /// and re-read every record. Returns the records that read wrong.
    pub fn read_back(&mut self) -> u64 {
        let aq = Arc::clone(&self.sh.aq);
        let ctx = &mut self.ctx;
        ctx.wait_until(self.t_next, CostCat::Other);
        let pages = self.p.pages;
        let mut bad = 0;
        match self.sh.base.get() {
            Some(base) => {
                bad += u64::from(aq.msync(ctx, base, pages).is_err());
                bad += u64::from(aq.munmap(ctx, base, pages).is_err());
            }
            None => {
                for c in &self.clients {
                    let mut c = c.borrow_mut();
                    let s = c.slice.as_mut().expect("slice workloads");
                    if let Some(b) = s.base.take() {
                        bad += u64::from(aq.munmap(ctx, b, s.order.len() as u64).is_err());
                    }
                }
            }
        }
        let Ok(base) = aq.mmap(ctx, self.sh.file, 0, pages, Prot::READ) else {
            return bad + 1;
        };
        let versions = self.sh.versions.borrow();
        let mut buf = [0u8; RECORD as usize];
        for (n, &v) in versions.iter().enumerate() {
            let n = n as u64;
            let ok = aq.read(ctx, base.add(n * RECORD), &mut buf).is_ok();
            bad += u64::from(!ok || buf[..] != record(n, v)[..]);
        }
        bad
    }
}
