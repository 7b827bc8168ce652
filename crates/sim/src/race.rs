//! Deterministic data-race and lock-order detector for the DES.
//!
//! The scalability claims the simulation reproduces (tree-lock
//! serialization, per-core pcache partitions, TLB shootdown fan-out)
//! only mean anything if the run is bit-deterministic *and* the modeled
//! concurrency is sound. This module checks the second half at runtime:
//! sim-path crates annotate their shared accesses and lock
//! acquisitions, and the detector replays classic dynamic analyses over
//! the deterministic schedule the engine already produces:
//!
//! - **Happens-before (FastTrack)**: every virtual thread carries a
//!   vector clock; lock releases publish the holder's clock and
//!   acquisitions join it. Variables keep a last-write *epoch*
//!   `(tid, clock)` — the FastTrack fast path — promoted to a full read
//!   vector only when genuinely read-shared. Conflicting accesses not
//!   ordered by the clocks are reported.
//! - **Lockset (Eraser)**: each variable intersects the locks held
//!   across its accesses; an empty lockset on a variable touched by two
//!   or more threads means the locking discipline — not just this
//!   schedule — is broken.
//! - **Lock order**: crates declare a canonical order per domain
//!   ([`declare_order`]); acquisitions that invert a declared rank are
//!   flagged immediately, and an order graph over all nested
//!   acquisitions is checked for cycles (potential deadlocks) even
//!   where no rank was declared.
//!
//! Like [`crate::trace`], the detector is an *observer*: it is host-time
//! only, charges zero virtual cycles, never blocks a virtual thread, and
//! — because the DES schedule is a pure function of the seed — its
//! report is identical across runs. Annotations route through a global
//! [`install`]ed detector and are no-ops when none is installed.
//!
//! Atomics are modeled with [`read_acquire`]/[`write_release`]: an
//! acquire-read joins the reader's clock with the variable's last-write
//! clock (Acquire/Release publication), and such variables are exempt
//! from lockset checking (they are lock-free by design, e.g. the pcache
//! hashtable's probe path).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::lock_shared;

use crate::engine::SimCtx;

/// A lock identity: (name, instance). Instance distinguishes per-core or
/// per-bucket locks sharing one name; ordering checks apply to the name.
pub type LockKey = (&'static str, u64);

/// A shared-variable identity: (name, instance).
pub type VarKey = (&'static str, u64);

/// A growable vector clock over dense thread ids.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct VectorClock {
    clocks: Vec<u64>,
}

impl VectorClock {
    /// The all-zero clock.
    pub fn new() -> VectorClock {
        VectorClock::default()
    }

    /// Component for thread `tid` (0 if never seen).
    #[inline]
    pub fn get(&self, tid: usize) -> u64 {
        self.clocks.get(tid).copied().unwrap_or(0)
    }

    /// Sets thread `tid`'s component to `v`, growing as needed.
    pub fn set(&mut self, tid: usize, v: u64) {
        if self.clocks.len() <= tid {
            self.clocks.resize(tid + 1, 0);
        }
        self.clocks[tid] = v;
    }

    /// Pointwise maximum with `other` (the happens-before join).
    pub fn join(&mut self, other: &VectorClock) {
        if self.clocks.len() < other.clocks.len() {
            self.clocks.resize(other.clocks.len(), 0);
        }
        for (i, &c) in other.clocks.iter().enumerate() {
            if c > self.clocks[i] {
                self.clocks[i] = c;
            }
        }
    }

    /// Whether `self` is pointwise >= `other` (other happens-before or
    /// equals self).
    pub fn dominates(&self, other: &VectorClock) -> bool {
        (0..other.clocks.len().max(self.clocks.len())).all(|i| self.get(i) >= other.get(i))
    }
}

/// A FastTrack epoch: one (thread, clock) pair standing in for a full
/// vector when a variable is accessed by one thread at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Epoch {
    /// Thread that performed the access.
    pub tid: usize,
    /// That thread's clock component at the access.
    pub clock: u64,
}

/// One detector finding. `Ord` gives reports a deterministic order and
/// the detector dedups by full value.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Finding {
    /// Two writes unordered by happens-before.
    WriteWrite {
        /// The racing variable.
        var: VarKey,
        /// Thread of the earlier write epoch.
        first: usize,
        /// Thread of the later, unordered write.
        second: usize,
    },
    /// A read and a later write unordered by happens-before.
    ReadWrite {
        /// The racing variable.
        var: VarKey,
        /// Thread of the earlier read.
        reader: usize,
        /// Thread of the unordered write.
        writer: usize,
    },
    /// A write and a later read unordered by happens-before.
    WriteRead {
        /// The racing variable.
        var: VarKey,
        /// Thread of the earlier write.
        writer: usize,
        /// Thread of the unordered read.
        reader: usize,
    },
    /// Eraser: a variable touched by >= 2 threads whose lockset
    /// intersection is empty.
    EmptyLockset {
        /// The undisciplined variable.
        var: VarKey,
        /// Thread whose access emptied the lockset.
        tid: usize,
    },
    /// An acquisition violating a [`declare_order`] rank.
    LockOrderInversion {
        /// Order domain both locks belong to.
        domain: &'static str,
        /// Higher-ranked lock already held.
        held: &'static str,
        /// Lower-ranked lock being acquired.
        acquired: &'static str,
        /// Acquiring thread.
        tid: usize,
    },
    /// A cycle in the dynamic lock-order graph (potential deadlock).
    LockCycle {
        /// Lock names along the cycle; first == last.
        path: Vec<&'static str>,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::WriteWrite { var, first, second } => write!(
                f,
                "write-write race on {}[{}]: t{first} vs t{second}",
                var.0, var.1
            ),
            Finding::ReadWrite { var, reader, writer } => write!(
                f,
                "read-write race on {}[{}]: read t{reader} vs write t{writer}",
                var.0, var.1
            ),
            Finding::WriteRead { var, writer, reader } => write!(
                f,
                "write-read race on {}[{}]: write t{writer} vs read t{reader}",
                var.0, var.1
            ),
            Finding::EmptyLockset { var, tid } => write!(
                f,
                "empty lockset on {}[{}] (>=2 threads, no common lock; t{tid})",
                var.0, var.1
            ),
            Finding::LockOrderInversion {
                domain,
                held,
                acquired,
                tid,
            } => write!(
                f,
                "lock-order inversion in domain {domain}: t{tid} acquired {acquired} while holding {held}"
            ),
            Finding::LockCycle { path } => {
                write!(f, "lock-order cycle: {}", path.join(" -> "))
            }
        }
    }
}

/// Aggregate detector statistics (all deterministic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RaceStats {
    /// Distinct virtual threads observed.
    pub threads: usize,
    /// Distinct lock instances observed.
    pub locks: usize,
    /// Distinct shared variables observed.
    pub vars: usize,
    /// Total lock acquisitions.
    pub acquires: u64,
    /// Total annotated accesses.
    pub accesses: u64,
    /// Deduplicated findings.
    pub findings: usize,
}

#[derive(Default)]
struct ThreadState {
    vc: VectorClock,
    held: Vec<LockKey>,
}

#[derive(Default)]
struct VarState {
    write_epoch: Option<Epoch>,
    write_vc: VectorClock,
    read_epoch: Option<Epoch>,
    read_vc: Option<VectorClock>,
    lockset: Option<BTreeSet<LockKey>>,
    atomic: bool,
    threads: BTreeSet<usize>,
}

#[derive(Default)]
struct Inner {
    threads: BTreeMap<usize, ThreadState>,
    /// Release clocks per lock instance.
    locks: BTreeMap<LockKey, VectorClock>,
    vars: BTreeMap<VarKey, VarState>,
    /// Declared rank per lock name: name -> (domain, rank).
    ranks: BTreeMap<&'static str, (&'static str, usize)>,
    /// Dynamic lock-order graph over lock names: held -> then-acquired.
    edges: BTreeMap<&'static str, BTreeSet<&'static str>>,
    findings: BTreeSet<Finding>,
    acquires: u64,
    accesses: u64,
}

impl Inner {
    fn thread(&mut self, tid: usize) -> &mut ThreadState {
        self.threads.entry(tid).or_insert_with(|| {
            let mut ts = ThreadState::default();
            ts.vc.set(tid, 1);
            ts
        })
    }

    /// DFS: is `to` reachable from `from` in the order graph? Returns the
    /// path if so.
    fn path(&self, from: &'static str, to: &'static str) -> Option<Vec<&'static str>> {
        let mut stack = vec![vec![from]];
        let mut visited = BTreeSet::new();
        while let Some(p) = stack.pop() {
            let last = *p.last().expect("non-empty path");
            if last == to {
                return Some(p);
            }
            if !visited.insert(last) {
                continue;
            }
            if let Some(next) = self.edges.get(last) {
                for &n in next {
                    let mut q = p.clone();
                    q.push(n);
                    stack.push(q);
                }
            }
        }
        None
    }
}

/// The deterministic race detector. Construct directly for tests or via
/// [`install`] for a process-global instance the annotations feed.
#[derive(Default)]
pub struct RaceDetector {
    inner: Mutex<Inner>,
}

impl RaceDetector {
    /// Creates an empty detector.
    pub fn new() -> RaceDetector {
        RaceDetector::default()
    }

    /// Declares a canonical acquisition order for `names` within
    /// `domain`: earlier names must be acquired before later ones when
    /// nested. Idempotent; later declarations overwrite.
    pub fn declare_order(&self, domain: &'static str, names: &[&'static str]) {
        let mut inner = lock_shared(&self.inner);
        for (rank, &name) in names.iter().enumerate() {
            inner.ranks.insert(name, (domain, rank));
        }
    }

    /// Records thread `tid` acquiring `lock`.
    pub fn on_acquire(&self, tid: usize, lock: LockKey) {
        let mut inner = lock_shared(&self.inner);
        inner.acquires += 1;
        let held = self.held_snapshot(&mut inner, tid);
        // Declared-rank check against every held lock in the same domain.
        for &h in &held {
            if h.0 == lock.0 {
                continue;
            }
            if let (Some(&(dh, rh)), Some(&(dl, rl))) =
                (inner.ranks.get(h.0), inner.ranks.get(lock.0))
            {
                if dh == dl && rh > rl {
                    inner.findings.insert(Finding::LockOrderInversion {
                        domain: dh,
                        held: h.0,
                        acquired: lock.0,
                        tid,
                    });
                }
            }
        }
        // Dynamic order graph + cycle detection on new edges.
        for &h in &held {
            if h.0 == lock.0 {
                continue;
            }
            let new_edge = inner.edges.entry(h.0).or_default().insert(lock.0);
            if new_edge {
                if let Some(mut path) = inner.path(lock.0, h.0) {
                    path.push(lock.0);
                    inner.findings.insert(Finding::LockCycle { path });
                }
            }
        }
        // Happens-before: join the last release of this lock instance.
        let release_vc = inner.locks.get(&lock).cloned();
        let ts = inner.thread(tid);
        if let Some(vc) = release_vc {
            ts.vc.join(&vc);
        }
        ts.held.push(lock);
    }

    /// Records thread `tid` releasing `lock`: publishes the thread's
    /// clock on the lock and ticks the thread's own component.
    pub fn on_release(&self, tid: usize, lock: LockKey) {
        let mut inner = lock_shared(&self.inner);
        let ts = inner.thread(tid);
        if let Some(pos) = ts.held.iter().rposition(|&l| l == lock) {
            ts.held.remove(pos);
        }
        let vc = ts.vc.clone();
        let next = ts.vc.get(tid) + 1;
        ts.vc.set(tid, next);
        inner.locks.insert(lock, vc);
    }

    /// Records a plain read of `var` by `tid`.
    pub fn on_read(&self, tid: usize, var: VarKey) {
        self.access(tid, var, false, false);
    }

    /// Records a plain write of `var` by `tid`.
    pub fn on_write(&self, tid: usize, var: VarKey) {
        self.access(tid, var, true, false);
    }

    /// Records an Acquire-ordered atomic read of `var`: joins the
    /// reader's clock with the variable's last-write clock and exempts
    /// the variable from lockset checks.
    pub fn on_read_acquire(&self, tid: usize, var: VarKey) {
        self.access(tid, var, false, true);
    }

    /// Records a Release-ordered atomic write of `var` (lockset-exempt).
    pub fn on_write_release(&self, tid: usize, var: VarKey) {
        self.access(tid, var, true, true);
    }

    fn held_snapshot(&self, inner: &mut Inner, tid: usize) -> Vec<LockKey> {
        inner.thread(tid).held.clone()
    }

    fn access(&self, tid: usize, var: VarKey, is_write: bool, atomic: bool) {
        let mut inner = lock_shared(&self.inner);
        inner.accesses += 1;
        let held: BTreeSet<LockKey> = inner.thread(tid).held.iter().copied().collect();
        if atomic {
            // Atomic accesses are synchronization operations, not data
            // accesses: they carry happens-before edges (a Release write
            // publishes the writer's clock, an Acquire read joins it)
            // but are never themselves race-checked. An Acquire probe
            // racing a later Release store is the by-design behaviour of
            // a lock-free structure, not a finding. Marking the variable
            // atomic also exempts it from Eraser lockset checks below.
            let vc = inner.thread(tid).vc.clone();
            let vs = inner.vars.entry(var).or_default();
            vs.atomic = true;
            if is_write {
                vs.write_vc.join(&vc);
            } else {
                let wvc = vs.write_vc.clone();
                inner.thread(tid).vc.join(&wvc);
            }
            return;
        }
        let vc = inner.thread(tid).vc.clone();
        let vs = inner.vars.entry(var).or_default();
        vs.atomic |= atomic;
        let mut found: Vec<Finding> = Vec::new();

        if is_write {
            if let Some(w) = vs.write_epoch {
                if w.tid != tid && vc.get(w.tid) < w.clock {
                    found.push(Finding::WriteWrite {
                        var,
                        first: w.tid,
                        second: tid,
                    });
                }
            }
            if let Some(rvc) = &vs.read_vc {
                for rt in 0..rvc.clocks.len() {
                    let c = rvc.get(rt);
                    if c > 0 && rt != tid && vc.get(rt) < c {
                        found.push(Finding::ReadWrite {
                            var,
                            reader: rt,
                            writer: tid,
                        });
                    }
                }
            } else if let Some(r) = vs.read_epoch {
                if r.tid != tid && vc.get(r.tid) < r.clock {
                    found.push(Finding::ReadWrite {
                        var,
                        reader: r.tid,
                        writer: tid,
                    });
                }
            }
            vs.write_epoch = Some(Epoch {
                tid,
                clock: vc.get(tid),
            });
            vs.write_vc = vc.clone();
        } else {
            if let Some(w) = vs.write_epoch {
                if w.tid != tid && vc.get(w.tid) < w.clock {
                    found.push(Finding::WriteRead {
                        var,
                        writer: w.tid,
                        reader: tid,
                    });
                }
            }
            // FastTrack read tracking: epoch fast path while the
            // variable is thread-local, promotion to a vector on the
            // first concurrent second reader.
            match (&mut vs.read_vc, vs.read_epoch) {
                (Some(rvc), _) => rvc.set(tid, vc.get(tid)),
                (rv @ None, Some(r)) if r.tid != tid => {
                    let mut rvc = VectorClock::new();
                    rvc.set(r.tid, r.clock);
                    rvc.set(tid, vc.get(tid));
                    *rv = Some(rvc);
                    vs.read_epoch = None;
                }
                _ => {
                    vs.read_epoch = Some(Epoch {
                        tid,
                        clock: vc.get(tid),
                    });
                }
            }
        }

        // Eraser lockset discipline (skipped for modeled atomics).
        if !vs.atomic {
            vs.threads.insert(tid);
            let ls = match vs.lockset.take() {
                None => held,
                Some(prev) => prev.intersection(&held).copied().collect(),
            };
            if ls.is_empty() && vs.threads.len() >= 2 {
                found.push(Finding::EmptyLockset { var, tid });
            }
            vs.lockset = Some(ls);
        }

        for f in found {
            inner.findings.insert(f);
        }
    }

    /// Deduplicated findings in deterministic (`Ord`) order.
    pub fn findings(&self) -> Vec<Finding> {
        lock_shared(&self.inner).findings.iter().cloned().collect()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> RaceStats {
        let inner = lock_shared(&self.inner);
        RaceStats {
            threads: inner.threads.len(),
            locks: inner.locks.len(),
            vars: inner.vars.len(),
            acquires: inner.acquires,
            accesses: inner.accesses,
            findings: inner.findings.len(),
        }
    }

    /// Deterministic multi-line report: a summary line plus one line per
    /// finding.
    pub fn summary(&self) -> String {
        let s = self.stats();
        let mut out = format!(
            "race detector: {} findings ({} threads, {} locks, {} vars, {} acquisitions, {} accesses)",
            s.findings, s.threads, s.locks, s.vars, s.acquires, s.accesses
        );
        for f in self.findings() {
            out.push_str("\n  ");
            out.push_str(&f.to_string());
        }
        out
    }
}

static GLOBAL: OnceLock<Arc<RaceDetector>> = OnceLock::new();

/// Installs (or returns) the process-global detector the annotation
/// functions feed. Idempotent.
pub fn install() -> Arc<RaceDetector> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(RaceDetector::new())))
}

/// The installed global detector, if any.
pub fn global() -> Option<&'static Arc<RaceDetector>> {
    GLOBAL.get()
}

/// Whether a global detector is installed (annotations are no-ops
/// otherwise).
#[inline]
pub fn enabled() -> bool {
    GLOBAL.get().is_some()
}

/// Declares a canonical lock order on the global detector (no-op when
/// disabled). See [`RaceDetector::declare_order`].
pub fn declare_order(domain: &'static str, names: &[&'static str]) {
    if let Some(d) = GLOBAL.get() {
        d.declare_order(domain, names);
    }
}

/// Annotates a lock acquisition by the current virtual thread.
#[inline]
pub fn acquire(ctx: &dyn SimCtx, lock: LockKey) {
    if let Some(d) = GLOBAL.get() {
        d.on_acquire(ctx.thread_id(), lock);
    }
}

/// Annotates a lock release by the current virtual thread.
#[inline]
pub fn release(ctx: &dyn SimCtx, lock: LockKey) {
    if let Some(d) = GLOBAL.get() {
        d.on_release(ctx.thread_id(), lock);
    }
}

/// Annotates a plain shared read.
#[inline]
pub fn read(ctx: &dyn SimCtx, var: VarKey) {
    if let Some(d) = GLOBAL.get() {
        d.on_read(ctx.thread_id(), var);
    }
}

/// Annotates a plain shared write.
#[inline]
pub fn write(ctx: &dyn SimCtx, var: VarKey) {
    if let Some(d) = GLOBAL.get() {
        d.on_write(ctx.thread_id(), var);
    }
}

/// Annotates an Acquire-ordered atomic read (lock-free structures).
#[inline]
pub fn read_acquire(ctx: &dyn SimCtx, var: VarKey) {
    if let Some(d) = GLOBAL.get() {
        d.on_read_acquire(ctx.thread_id(), var);
    }
}

/// Annotates a Release-ordered atomic write (lock-free structures).
#[inline]
pub fn write_release(ctx: &dyn SimCtx, var: VarKey) {
    if let Some(d) = GLOBAL.get() {
        d.on_write_release(ctx.thread_id(), var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: VarKey = ("test.var", 0);
    const L: LockKey = ("test.lock", 0);

    #[test]
    fn vector_clock_join_and_dominates() {
        let mut a = VectorClock::new();
        a.set(0, 3);
        a.set(2, 1);
        let mut b = VectorClock::new();
        b.set(1, 5);
        b.set(2, 4);
        assert!(!a.dominates(&b));
        a.join(&b);
        assert_eq!(a.get(0), 3);
        assert_eq!(a.get(1), 5);
        assert_eq!(a.get(2), 4);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn read_epoch_fast_path_then_promotion() {
        let d = RaceDetector::new();
        d.on_write(0, V);
        d.on_read(0, V); // Same-thread re-read: stays an epoch.
        {
            let inner = lock_shared(&d.inner);
            let vs = &inner.vars[&V];
            assert!(vs.read_vc.is_none(), "fast path keeps an epoch");
            assert_eq!(vs.read_epoch.map(|e| e.tid), Some(0));
        }
        // A second reader: race with the write AND promotion to a vector.
        d.on_read(1, V);
        {
            let inner = lock_shared(&d.inner);
            let vs = &inner.vars[&V];
            assert!(vs.read_vc.is_some(), "shared read promotes to vector");
            assert!(vs.read_epoch.is_none());
        }
        assert!(d.findings().iter().any(|f| matches!(
            f,
            Finding::WriteRead {
                writer: 0,
                reader: 1,
                ..
            }
        )));
    }

    #[test]
    fn unordered_writes_race() {
        let d = RaceDetector::new();
        d.on_write(0, V);
        d.on_write(1, V);
        assert!(d.findings().iter().any(|f| matches!(
            f,
            Finding::WriteWrite {
                first: 0,
                second: 1,
                ..
            }
        )));
        // Eraser agrees: two threads, no common lock.
        assert!(d
            .findings()
            .iter()
            .any(|f| matches!(f, Finding::EmptyLockset { .. })));
    }

    #[test]
    fn lock_protected_writes_do_not_race() {
        let d = RaceDetector::new();
        for tid in 0..3 {
            d.on_acquire(tid, L);
            d.on_write(tid, V);
            d.on_read(tid, V);
            d.on_release(tid, L);
        }
        assert_eq!(d.findings(), vec![], "release/acquire orders the writes");
        assert_eq!(d.stats().acquires, 3);
    }

    #[test]
    fn release_acquire_atomics_do_not_race() {
        let d = RaceDetector::new();
        d.on_write_release(0, V); // Publication...
        d.on_read_acquire(1, V); // ...observed with Acquire: ordered.
        assert_eq!(d.findings(), vec![]);
    }

    #[test]
    fn declared_rank_inversion_is_flagged() {
        let d = RaceDetector::new();
        d.declare_order("dom", &["a", "b"]);
        d.on_acquire(0, ("b", 0));
        d.on_acquire(0, ("a", 0)); // b held while taking a: inverted.
        assert!(d.findings().iter().any(|f| matches!(
            f,
            Finding::LockOrderInversion {
                held: "b",
                acquired: "a",
                ..
            }
        )));
    }

    #[test]
    fn three_lock_cycle_is_detected() {
        let (a, b, c) = (("la", 0), ("lb", 0), ("lc", 0));
        let d = RaceDetector::new();
        // t0: a -> b, t1: b -> c (no cycle yet), t2: c -> a closes it.
        d.on_acquire(0, a);
        d.on_acquire(0, b);
        d.on_release(0, b);
        d.on_release(0, a);
        d.on_acquire(1, b);
        d.on_acquire(1, c);
        d.on_release(1, c);
        d.on_release(1, b);
        assert!(d.findings().is_empty());
        d.on_acquire(2, c);
        d.on_acquire(2, a);
        let cycles: Vec<_> = d
            .findings()
            .into_iter()
            .filter_map(|f| match f {
                Finding::LockCycle { path } => Some(path),
                _ => None,
            })
            .collect();
        assert_eq!(cycles.len(), 1);
        let path = &cycles[0];
        assert_eq!(path.first(), path.last(), "path closes on itself");
        assert!(path.len() >= 4, "three locks + closing node: {path:?}");
    }

    #[test]
    fn per_instance_locks_share_a_name_without_cycles() {
        // Per-core lock instances: sequential acquire/release of
        // ("tlb", i) must not build self-edges.
        let d = RaceDetector::new();
        for i in 0..4 {
            d.on_acquire(0, ("tlb", i));
            d.on_write(0, ("tlb.state", i));
            d.on_release(0, ("tlb", i));
        }
        assert_eq!(d.findings(), vec![]);
    }
}
