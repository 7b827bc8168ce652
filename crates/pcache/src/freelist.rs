//! The hierarchical two-level freelist for DRAM cache frames.
//!
//! Paper section 3.2: the first level is a queue per NUMA node, the second
//! a queue per core. Allocation checks, in order, the local core queue,
//! the local NUMA queue, then remote NUMA queues. Freed (evicted) pages go
//! to the local core queue and spill to the NUMA queue in batches when a
//! threshold is exceeded; all movement between levels is batched (4096
//! pages in the paper's evaluation), which keeps allocator contention
//! negligible.
//!
//! On the host every queue sits under one mutex, and each batch move is
//! one `drain` plus one `extend`. That lock is host bookkeeping, not the
//! model: the contention the paper's design avoids is described by the
//! per-core and per-node race-detector annotations and the `freelist_op`
//! charge in [`crate::DramCache`], which see the per-core queues as
//! independent.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use aquila_sync::Mutex;

use aquila_mmu::FrameId;

/// Machine NUMA shape.
#[derive(Debug, Clone, Copy)]
pub struct NumaTopology {
    /// Number of NUMA nodes.
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
}

impl NumaTopology {
    /// The paper's testbed: 2 sockets x 16 hyperthreads.
    pub fn paper_testbed() -> NumaTopology {
        NumaTopology {
            nodes: 2,
            cores_per_node: 16,
        }
    }

    /// A single-node machine with `cores` cores.
    pub fn flat(cores: usize) -> NumaTopology {
        NumaTopology {
            nodes: 1,
            cores_per_node: cores.max(1),
        }
    }

    /// Total cores.
    pub fn cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// NUMA node of a core.
    pub fn node_of(&self, core: usize) -> usize {
        (core / self.cores_per_node) % self.nodes
    }
}

/// Tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct FreelistConfig {
    /// Core-queue occupancy above which frames spill to the NUMA queue.
    pub core_spill_threshold: usize,
    /// Batch size for movement between levels (paper: 4096).
    pub level_batch: usize,
    /// Extra frames a sibling steal migrates into the stealing core's
    /// queue (work-stealing rebalance; default 8). 0 steals exactly the
    /// one frame being allocated, the reference the alloc-sequence tests
    /// compare batching against.
    pub steal_batch: usize,
}

impl Default for FreelistConfig {
    fn default() -> Self {
        FreelistConfig {
            core_spill_threshold: 8192,
            level_batch: 4096,
            steal_batch: 8,
        }
    }
}

/// Where [`Freelist::alloc_traced`] found its frame. Callers with a
/// simulation context use this to meter refills and steals and to
/// annotate the cross-core queue traffic for the race detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocOutcome {
    /// Popped from the caller's own core queue.
    LocalHit,
    /// Refilled the core queue from this NUMA node's queue.
    NodeRefill(usize),
    /// Refilled from a remote NUMA node's queue.
    RemoteNode(usize),
    /// Stole from a sibling core's queue.
    Steal {
        /// The core stolen from.
        victim: usize,
        /// Extra frames migrated to the stealer's queue beyond the one
        /// returned (the `steal_batch` rebalance).
        rebalanced: usize,
    },
}

/// The two-level frame freelist.
pub struct Freelist {
    topo: NumaTopology,
    cfg: FreelistConfig,
    queues: Mutex<Queues>,
    /// Frames across all queues, kept under the queue lock so it is exact;
    /// an atomic so the watermark checks read it without the lock.
    free: AtomicUsize,
}

/// Both levels of queues, FIFO each.
struct Queues {
    cores: Vec<VecDeque<FrameId>>,
    nodes: Vec<VecDeque<FrameId>>,
}

impl Queues {
    /// Pops the first frame of node queue `node` and moves up to `extra`
    /// more behind it into core queue `core`, in queue order.
    fn refill(&mut self, core: usize, node: usize, extra: usize) -> Option<FrameId> {
        let nq = &mut self.nodes[node];
        let first = nq.pop_front()?;
        let k = extra.min(nq.len());
        self.cores[core].extend(nq.drain(..k));
        Some(first)
    }
}

impl Freelist {
    /// Creates a freelist for the given topology, initially populated with
    /// `frames` distributed round-robin across NUMA node queues.
    pub fn new(
        topo: NumaTopology,
        cfg: FreelistConfig,
        frames: impl Iterator<Item = FrameId>,
    ) -> Freelist {
        let mut q = Queues {
            cores: vec![VecDeque::new(); topo.cores()],
            nodes: vec![VecDeque::new(); topo.nodes],
        };
        for (i, frame) in frames.enumerate() {
            q.nodes[i % topo.nodes].push_back(frame);
        }
        Freelist {
            free: AtomicUsize::new(q.nodes.iter().map(VecDeque::len).sum()),
            queues: Mutex::new(q),
            topo,
            cfg,
        }
    }

    /// Allocates a frame for `core`: local core queue, then local NUMA
    /// queue (refilling the core queue with a batch), then remote nodes,
    /// then — as a last resort — stealing from sibling core queues, so
    /// frames freed by another core's eviction round are never stranded
    /// below the spill threshold. Returns `None` when the cache is fully
    /// occupied — the caller must evict.
    pub fn alloc(&self, core: usize) -> Option<FrameId> {
        self.alloc_traced(core).map(|(f, _)| f)
    }

    /// Like [`Freelist::alloc`], but reports where the frame came from.
    /// A sibling steal additionally migrates up to `steal_batch` extra
    /// frames from the victim's queue into the stealer's (deterministic
    /// ascending victim scan), so one steal rebalances a run of them.
    pub fn alloc_traced(&self, core: usize) -> Option<(FrameId, AllocOutcome)> {
        let mut q = self.queues.lock();
        let got = self.take(&mut q, core);
        if got.is_some() {
            self.free.fetch_sub(1, Ordering::Relaxed);
        }
        got
    }

    /// The search behind [`Freelist::alloc_traced`], without the count.
    fn take(&self, q: &mut Queues, core: usize) -> Option<(FrameId, AllocOutcome)> {
        let core = core % q.cores.len();
        if let Some(f) = q.cores[core].pop_front() {
            return Some((f, AllocOutcome::LocalHit));
        }
        // A refill moves up to a level batch, capped at 64 frames.
        let extra = self.cfg.level_batch.min(64).saturating_sub(1);
        let local = self.topo.node_of(core);
        if let Some(f) = q.refill(core, local, extra) {
            return Some((f, AllocOutcome::NodeRefill(local)));
        }
        for n in (0..self.topo.nodes).filter(|&n| n != local) {
            if let Some(f) = q.refill(core, n, extra) {
                return Some((f, AllocOutcome::RemoteNode(n)));
            }
        }
        for other in (0..q.cores.len()).filter(|&o| o != core) {
            let [mine, theirs] = q
                .cores
                .get_disjoint_mut([core, other])
                .expect("distinct core indices");
            if let Some(f) = theirs.pop_front() {
                let rebalanced = self.cfg.steal_batch.min(theirs.len());
                mine.extend(theirs.drain(..rebalanced));
                return Some((
                    f,
                    AllocOutcome::Steal {
                        victim: other,
                        rebalanced,
                    },
                ));
            }
        }
        None
    }

    /// Frees a frame from `core` (eviction places recycled pages here);
    /// spills a batch to the NUMA queue if the core queue grew beyond its
    /// threshold. Returns `true` when a spill happened, so callers with a
    /// simulation context can record the (rare) slow path.
    pub fn free(&self, core: usize, frame: FrameId) -> bool {
        let mut q = self.queues.lock();
        let Queues { cores, nodes } = &mut *q;
        let core = core % cores.len();
        let cq = &mut cores[core];
        self.free.fetch_add(1, Ordering::Relaxed);
        cq.push_back(frame);
        if cq.len() > self.cfg.core_spill_threshold {
            let k = self.cfg.level_batch.min(cq.len());
            nodes[self.topo.node_of(core)].extend(cq.drain(..k));
            return true;
        }
        false
    }

    /// Total free frames across all queues. O(1): the watermark checks
    /// read it on every evictor poll.
    pub fn free_count(&self) -> usize {
        self.free.load(Ordering::Relaxed)
    }

    /// Adds new frames (dynamic cache growth) to a node queue.
    pub fn grow(&self, node: usize, frames: impl Iterator<Item = FrameId>) {
        let node = node % self.topo.nodes;
        let mut q = self.queues.lock();
        let nq = &mut q.nodes[node];
        let before = nq.len();
        nq.extend(frames);
        self.free.fetch_add(nq.len() - before, Ordering::Relaxed);
    }
}

impl core::fmt::Debug for Freelist {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Freelist {{ free: {}, nodes: {}, cores: {} }}",
            self.free_count(),
            self.topo.nodes,
            self.topo.cores()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: u32) -> impl Iterator<Item = FrameId> {
        (0..n).map(FrameId)
    }

    #[test]
    fn alloc_until_empty_then_none() {
        let fl = Freelist::new(NumaTopology::flat(2), FreelistConfig::default(), frames(10));
        let mut got = Vec::new();
        while let Some(f) = fl.alloc(0) {
            got.push(f.0);
        }
        got.sort();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(fl.alloc(0).is_none());
        assert_eq!(fl.free_count(), 0);
    }

    #[test]
    fn free_then_alloc_recycles() {
        let fl = Freelist::new(NumaTopology::flat(1), FreelistConfig::default(), frames(1));
        let f = fl.alloc(0).unwrap();
        assert!(fl.alloc(0).is_none());
        fl.free(0, f);
        assert_eq!(fl.alloc(0), Some(f));
    }

    #[test]
    fn core_queue_hit_after_refill() {
        let fl = Freelist::new(
            NumaTopology::flat(4),
            FreelistConfig::default(),
            frames(100),
        );
        // First alloc pulls a batch into core 1's queue.
        fl.alloc(1).unwrap();
        // Subsequent allocs on core 1 hit the core queue (node queues
        // untouched beyond the first refill batch).
        let before: usize = fl.free_count();
        fl.alloc(1).unwrap();
        assert_eq!(fl.free_count(), before - 1);
    }

    #[test]
    fn remote_node_steal_when_local_empty() {
        // Node 0 exhausted; core 0 (node 0) must steal from node 1.
        let topo = NumaTopology {
            nodes: 2,
            cores_per_node: 1,
        };
        let fl = Freelist::new(topo, FreelistConfig::default(), frames(2));
        // Frames round-robin: frame 0 -> node 0, frame 1 -> node 1.
        let a = fl.alloc(0).unwrap();
        let b = fl.alloc(0).unwrap();
        let mut got = [a.0, b.0];
        got.sort();
        assert_eq!(got, [0, 1]);
    }

    #[test]
    fn spill_moves_batch_to_node_queue() {
        let cfg = FreelistConfig {
            core_spill_threshold: 10,
            level_batch: 8,
            steal_batch: 0,
        };
        let fl = Freelist::new(NumaTopology::flat(2), cfg, frames(0));
        let mut spilled = false;
        for i in 0..12 {
            spilled |= fl.free(0, FrameId(i));
        }
        assert!(spilled, "crossing the threshold must report a spill");
        // After crossing the threshold a batch moved to the node queue;
        // core 1 (same node) can now allocate.
        assert!(fl.alloc(1).is_some());
        assert_eq!(fl.free_count(), 11);
    }

    #[test]
    fn grow_adds_frames() {
        let fl = Freelist::new(
            NumaTopology::paper_testbed(),
            FreelistConfig::default(),
            frames(0),
        );
        assert!(fl.alloc(0).is_none());
        fl.grow(0, (100..110).map(FrameId));
        assert_eq!(fl.free_count(), 10);
        assert!(fl.alloc(5).is_some());
    }

    #[test]
    fn topology_node_mapping() {
        let t = NumaTopology::paper_testbed();
        assert_eq!(t.cores(), 32);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(15), 0);
        assert_eq!(t.node_of(16), 1);
        assert_eq!(t.node_of(31), 1);
    }

    #[test]
    fn batched_steal_reports_and_rebalances() {
        let cfg = FreelistConfig {
            core_spill_threshold: 1000,
            level_batch: 4,
            steal_batch: 4,
        };
        let fl = Freelist::new(NumaTopology::flat(2), cfg, frames(0));
        // Core 1 holds every free frame (eviction freed them there).
        for i in 0..6 {
            fl.free(1, FrameId(i));
        }
        // Core 0's alloc steals the head and migrates a batch behind it.
        let (f, o) = fl.alloc_traced(0).unwrap();
        assert_eq!(f, FrameId(0));
        assert_eq!(
            o,
            AllocOutcome::Steal {
                victim: 1,
                rebalanced: 4
            }
        );
        // The migrated frames now satisfy local hits, in victim order.
        for i in 1..5 {
            let (f, o) = fl.alloc_traced(0).unwrap();
            assert_eq!((f, o), (FrameId(i), AllocOutcome::LocalHit));
        }
        // The victim keeps what was not migrated.
        let (f, o) = fl.alloc_traced(1).unwrap();
        assert_eq!((f, o), (FrameId(5), AllocOutcome::LocalHit));
        assert!(fl.alloc(0).is_none());
    }

    #[test]
    fn steal_batch_larger_than_victim_queue_takes_what_exists() {
        let cfg = FreelistConfig {
            core_spill_threshold: 1000,
            level_batch: 4,
            steal_batch: 64,
        };
        let fl = Freelist::new(NumaTopology::flat(2), cfg, frames(0));
        for i in 0..3 {
            fl.free(1, FrameId(i));
        }
        let (f, o) = fl.alloc_traced(0).unwrap();
        assert_eq!(f, FrameId(0));
        assert_eq!(
            o,
            AllocOutcome::Steal {
                victim: 1,
                rebalanced: 2
            },
            "a short victim queue bounds the rebalance"
        );
        assert_eq!(fl.free_count(), 2);
    }

    /// Steal batching is pure prefetch: the *sequence of frames* each
    /// alloc returns is byte-identical to the `steal_batch = 0` steal-one
    /// reference — batching only changes which queue they wait in.
    #[test]
    fn steal_batch_is_invisible_to_the_alloc_sequence() {
        let seq = |batch: usize| -> Vec<u32> {
            let cfg = FreelistConfig {
                core_spill_threshold: 1000,
                level_batch: 4,
                steal_batch: batch,
            };
            let fl = Freelist::new(NumaTopology::flat(4), cfg, frames(0));
            for i in 0..32 {
                fl.free(0, FrameId(i));
            }
            (0..32).map(|_| fl.alloc(2).unwrap().0).collect()
        };
        let legacy = seq(0);
        assert_eq!(legacy, seq(3));
        assert_eq!(legacy, seq(64));
    }

    /// The degenerate single-core topology can never steal (there is no
    /// sibling), whatever the batch knob says.
    #[test]
    fn single_core_topology_never_steals() {
        let cfg = FreelistConfig {
            steal_batch: 8,
            ..FreelistConfig::default()
        };
        let fl = Freelist::new(NumaTopology::flat(1), cfg, frames(16));
        for _ in 0..16 {
            let (_, o) = fl.alloc_traced(0).unwrap();
            assert!(
                matches!(o, AllocOutcome::LocalHit | AllocOutcome::NodeRefill(0)),
                "unexpected outcome {o:?} on a single-core machine"
            );
        }
        assert!(fl.alloc(0).is_none());
    }

    /// The O(1) count agrees with the queues it summarizes through
    /// refills, spills, steals and growth.
    #[test]
    fn free_count_matches_the_queues() {
        let cfg = FreelistConfig {
            core_spill_threshold: 12,
            level_batch: 8,
            steal_batch: 3,
        };
        let fl = Freelist::new(NumaTopology::paper_testbed(), cfg, frames(40));
        let summed = |fl: &Freelist| {
            let q = fl.queues.lock();
            q.cores
                .iter()
                .chain(&q.nodes)
                .map(VecDeque::len)
                .sum::<usize>()
        };
        let mut held = Vec::new();
        for i in 0..200usize {
            if i % 3 == 2 {
                if let Some(f) = held.pop() {
                    fl.free(i % 7, f);
                }
            } else if let Some(f) = fl.alloc(i % 32) {
                held.push(f);
            }
            if i == 100 {
                fl.grow(1, (40..50).map(FrameId));
            }
            assert_eq!(fl.free_count(), summed(&fl), "step {i}");
        }
        assert_eq!(fl.free_count() + held.len(), 50);
    }

    /// One queue per level, moved one frame at a time: the freelist's
    /// reference semantics, which its batched moves must reproduce.
    struct Model {
        topo: NumaTopology,
        cfg: FreelistConfig,
        cores: Vec<VecDeque<FrameId>>,
        nodes: Vec<VecDeque<FrameId>>,
    }

    impl Model {
        fn new(topo: NumaTopology, cfg: FreelistConfig, n: u32) -> Model {
            let mut nodes = vec![VecDeque::new(); topo.nodes];
            for (i, f) in frames(n).enumerate() {
                nodes[i % topo.nodes].push_back(f);
            }
            Model {
                cores: vec![VecDeque::new(); topo.cores()],
                nodes,
                topo,
                cfg,
            }
        }

        fn refill(&mut self, core: usize, node: usize) -> Option<FrameId> {
            let first = self.nodes[node].pop_front()?;
            for _ in 1..self.cfg.level_batch.min(64) {
                match self.nodes[node].pop_front() {
                    Some(f) => self.cores[core].push_back(f),
                    None => break,
                }
            }
            Some(first)
        }

        fn alloc(&mut self, core: usize) -> Option<(FrameId, AllocOutcome)> {
            if let Some(f) = self.cores[core].pop_front() {
                return Some((f, AllocOutcome::LocalHit));
            }
            let local = self.topo.node_of(core);
            if let Some(f) = self.refill(core, local) {
                return Some((f, AllocOutcome::NodeRefill(local)));
            }
            for n in 0..self.topo.nodes {
                if n != local {
                    if let Some(f) = self.refill(core, n) {
                        return Some((f, AllocOutcome::RemoteNode(n)));
                    }
                }
            }
            for other in 0..self.cores.len() {
                if other == core {
                    continue;
                }
                if let Some(f) = self.cores[other].pop_front() {
                    let mut rebalanced = 0;
                    while rebalanced < self.cfg.steal_batch {
                        let Some(extra) = self.cores[other].pop_front() else {
                            break;
                        };
                        self.cores[core].push_back(extra);
                        rebalanced += 1;
                    }
                    let victim = other;
                    return Some((f, AllocOutcome::Steal { victim, rebalanced }));
                }
            }
            None
        }

        fn free(&mut self, core: usize, frame: FrameId) -> bool {
            self.cores[core].push_back(frame);
            if self.cores[core].len() <= self.cfg.core_spill_threshold {
                return false;
            }
            let node = self.topo.node_of(core);
            for _ in 0..self.cfg.level_batch {
                match self.cores[core].pop_front() {
                    Some(f) => self.nodes[node].push_back(f),
                    None => break,
                }
            }
            true
        }
    }

    /// A seeded alloc/free trace over 2 nodes x 4 cores: every alloc
    /// returns the model's frame and outcome, every free its spill
    /// verdict, and the trace reaches node refills, remote refills,
    /// rebalancing steals and spills.
    #[test]
    fn batched_moves_match_the_one_queue_per_level_model() {
        let topo = NumaTopology {
            nodes: 2,
            cores_per_node: 4,
        };
        let cfg = FreelistConfig {
            core_spill_threshold: 6,
            level_batch: 5,
            steal_batch: 3,
        };
        let fl = Freelist::new(topo, cfg, frames(48));
        let mut model = Model::new(topo, cfg, 48);
        let mut rng = aquila_sim::Rng64::new(33);
        let mut held = Vec::new();
        let (mut node, mut remote, mut steals, mut spills) = (0, 0, 0, 0);
        for step in 0..4000 {
            // Allocate on any core, but free only on node 0's first two
            // cores, so node 1 runs dry and cores 2-7 must steal.
            if rng.below(100) < 52 {
                let core = rng.below(8) as usize;
                let got = fl.alloc_traced(core);
                assert_eq!(got, model.alloc(core), "step {step}: alloc on core {core}");
                match got {
                    Some((_, AllocOutcome::NodeRefill(_))) => node += 1,
                    Some((_, AllocOutcome::RemoteNode(_))) => remote += 1,
                    Some((_, AllocOutcome::Steal { rebalanced, .. })) if rebalanced > 0 => {
                        steals += 1
                    }
                    _ => {}
                }
                held.extend(got.map(|(f, _)| f));
            } else if !held.is_empty() {
                let f = held.swap_remove(rng.below(held.len() as u64) as usize);
                let core = rng.below(2) as usize;
                let spilled = fl.free(core, f);
                assert_eq!(
                    spilled,
                    model.free(core, f),
                    "step {step}: free on core {core}"
                );
                spills += spilled as usize;
            }
        }
        assert_eq!(fl.free_count() + held.len(), 48);
        let reached = [
            ("node refills", node),
            ("remote refills", remote),
            ("rebalancing steals", steals),
            ("spills", spills),
        ];
        for (what, n) in reached {
            assert!(n > 0, "the trace never reached {what}");
        }
    }

    #[test]
    fn concurrent_alloc_free_conserves_frames() {
        use std::sync::Arc;
        let fl = Arc::new(Freelist::new(
            NumaTopology::flat(4),
            FreelistConfig::default(),
            frames(256),
        ));
        let mut handles = Vec::new();
        for core in 0..4 {
            let fl = Arc::clone(&fl);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    if let Some(f) = fl.alloc(core) {
                        fl.free(core, f);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fl.free_count(), 256, "frames must be conserved");
    }
}
