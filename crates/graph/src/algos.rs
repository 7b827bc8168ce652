//! Ligra-style graph algorithms over region-backed CSR graphs.
//!
//! BFS is the paper's Figure 6 workload; connected components exercise
//! the same edge-map pattern with a different state footprint. All per-vertex state lives in the region — the whole point
//! of the heap-extension scenario — and each parallel round ends at a
//! team barrier, like Ligra's OpenMP loops.

use aquila_sim::{CostCat, Cycles, SimCtx};

use crate::csr::CsrGraph;
use crate::team::Team;

/// Per-edge CPU work (compare + branch in the edge map).
const EDGE_WORK: Cycles = Cycles(20);
/// Per-vertex CPU work (frontier bookkeeping).
const VERTEX_WORK: Cycles = Cycles(60);

/// Sentinel for "unvisited" in the parents array.
pub const NO_PARENT: u32 = u32::MAX;

/// BFS result summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsResult {
    /// Vertices reached (including the source).
    pub visited: u64,
    /// BFS rounds executed.
    pub rounds: u32,
    /// Region offset of the parents array (u32 per vertex).
    pub parents_at: u64,
}

/// Runs breadth-first search from `src`, with per-vertex parents stored
/// in the region right after the graph.
pub fn bfs(team: &mut Team, g: &CsrGraph, src: u32) -> BfsResult {
    let n = g.vertices();
    let parents_at = (g.bytes_used() + 4095) & !4095;
    assert!(
        parents_at + n * 4 <= g.region().len(),
        "region lacks space for BFS state"
    );

    // Initialize parents to NO_PARENT in parallel chunks.
    let chunks = team.chunks(n as usize);
    let region = std::sync::Arc::clone(g.region());
    team.round(|tid, ctx| {
        let (a, b) = chunks[tid];
        if a < b {
            let buf = vec![0xFFu8; (b - a) * 4];
            region.write(ctx, parents_at + a as u64 * 4, &buf);
        }
    });

    // Source.
    region.write_u32(team.ctx(0), parents_at + src as u64 * 4, src);
    team.barrier();

    let mut frontier = vec![src];
    let mut visited = 1u64;
    let mut rounds = 0u32;
    while !frontier.is_empty() {
        rounds += 1;
        let nthreads = team.threads();
        let mut nexts: Vec<Vec<u32>> = vec![Vec::new(); nthreads];
        {
            // Edge-granular dynamic scheduling, as Ligra's edgeMap does:
            // work goes to the currently least-loaded thread in segments,
            // and a hub's edge list is split across threads instead of
            // serializing one of them.
            let min_clock = |team: &mut Team| {
                (0..nthreads)
                    .min_by_key(|&t| team.ctx(t).now())
                    .expect("team is non-empty")
            };
            const EDGE_SEG: usize = 512;
            for &u in &frontier {
                let tid = min_clock(team);
                let ctx = team.ctx(tid);
                ctx.charge(CostCat::App, VERTEX_WORK);
                let neigh = g.neighbors(ctx, u);
                for seg in neigh.chunks(EDGE_SEG) {
                    let tid = min_clock(team);
                    let ctx = team.ctx(tid);
                    for &v in seg {
                        ctx.charge(CostCat::App, EDGE_WORK);
                        let p = region.read_u32(ctx, parents_at + v as u64 * 4);
                        if p == NO_PARENT {
                            region.write_u32(ctx, parents_at + v as u64 * 4, u);
                            nexts[tid].push(v);
                        }
                    }
                }
            }
            team.barrier();
        }
        // Merge and deduplicate (two threads may discover the same vertex
        // in one round; either parent is a valid BFS parent).
        let mut next: Vec<u32> = nexts.into_iter().flatten().collect();
        next.sort_unstable();
        next.dedup();
        visited += next.len() as u64;
        frontier = next;
    }
    BfsResult {
        visited,
        rounds,
        parents_at,
    }
}

/// Connected components by label propagation (treating edges as
/// undirected via forward pushes until fixpoint); labels stored in the
/// region after the graph. Returns the number of distinct labels among
/// reachable fixpoints and the iteration count.
pub fn label_propagation(team: &mut Team, g: &CsrGraph, max_iters: u32) -> (u64, u32) {
    let n = g.vertices();
    let labels_at = (g.bytes_used() + 4095) & !4095;
    let region = std::sync::Arc::clone(g.region());
    assert!(labels_at + n * 4 <= region.len(), "region lacks space");

    // labels[v] = v.
    let chunks = team.chunks(n as usize);
    team.round(|tid, ctx| {
        let (a, b) = chunks[tid];
        let mut buf = Vec::with_capacity((b - a) * 4);
        for v in a..b {
            buf.extend_from_slice(&(v as u32).to_le_bytes());
        }
        if a < b {
            region.write(ctx, labels_at + a as u64 * 4, &buf);
        }
    });

    let mut iters = 0u32;
    loop {
        if iters >= max_iters {
            break;
        }
        iters += 1;
        let changed = std::sync::atomic::AtomicU64::new(0);
        let chunks = team.chunks(n as usize);
        team.round(|tid, ctx| {
            let (a, b) = chunks[tid];
            for u in a..b {
                ctx.charge(CostCat::App, VERTEX_WORK);
                let lu = region.read_u32(ctx, labels_at + u as u64 * 4);
                for v in g.neighbors(ctx, u as u32) {
                    ctx.charge(CostCat::App, EDGE_WORK);
                    let lv = region.read_u32(ctx, labels_at + v as u64 * 4);
                    if lu < lv {
                        region.write_u32(ctx, labels_at + v as u64 * 4, lu);
                        changed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }
        });
        if changed.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            break;
        }
    }

    // Count distinct labels.
    let mut seen = aquila_sync::DetSet::new();
    let ctx = team.ctx(0);
    for v in 0..n {
        seen.insert(region.read_u32(ctx, labels_at + v * 4));
    }
    team.barrier();
    (seen.len() as u64, iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::{DramRegion, MemRegion};
    use std::sync::Arc;

    fn chain(n: u32) -> (Team, CsrGraph) {
        // 0 -> 1 -> 2 -> ... -> n-1.
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let region: Arc<dyn MemRegion> = Arc::new(DramRegion::new(4 << 20));
        let mut team = Team::new(2, 1);
        let g = CsrGraph::build(team.ctx(0), region, n as u64, &edges);
        team.barrier();
        (team, g)
    }

    #[test]
    fn bfs_on_chain_visits_everything() {
        let (mut team, g) = chain(100);
        let r = bfs(&mut team, &g, 0);
        assert_eq!(r.visited, 100);
        assert_eq!(r.rounds, 100, "one round per chain hop (last is empty)");
        // Parents follow the chain.
        let region = Arc::clone(g.region());
        let ctx = team.ctx(0);
        for v in 1..100u64 {
            assert_eq!(region.read_u32(ctx, r.parents_at + v * 4), v as u32 - 1);
        }
        assert_eq!(
            region.read_u32(ctx, r.parents_at),
            0,
            "source parents itself"
        );
    }

    #[test]
    fn bfs_from_middle_visits_suffix() {
        let (mut team, g) = chain(50);
        let r = bfs(&mut team, &g, 25);
        assert_eq!(r.visited, 25, "only the suffix is reachable");
    }

    #[test]
    fn bfs_on_star_is_two_rounds() {
        let edges: Vec<(u32, u32)> = (1..64).map(|v| (0, v)).collect();
        let region: Arc<dyn MemRegion> = Arc::new(DramRegion::new(1 << 20));
        let mut team = Team::new(4, 1);
        let g = CsrGraph::build(team.ctx(0), region, 64, &edges);
        team.barrier();
        let r = bfs(&mut team, &g, 0);
        assert_eq!(r.visited, 64);
        assert_eq!(r.rounds, 2);
    }

    #[test]
    fn bfs_deterministic_across_team_sizes() {
        // Visited count must not depend on thread count.
        let edges = crate::rmat::rmat_edges(10, 4096, crate::rmat::RmatParams::default(), 5);
        let mut counts = Vec::new();
        for threads in [1usize, 2, 8] {
            let region: Arc<dyn MemRegion> = Arc::new(DramRegion::new(8 << 20));
            let mut team = Team::new(threads, 1);
            let g = CsrGraph::build(team.ctx(0), region, 1024, &edges);
            team.barrier();
            counts.push(bfs(&mut team, &g, 0).visited);
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], counts[2]);
    }

    #[test]
    fn label_propagation_chain_converges_to_one() {
        let (mut team, g) = chain(32);
        let (labels, iters) = label_propagation(&mut team, &g, 100);
        assert_eq!(labels, 1, "a chain is one component");
        assert!(iters <= 100);
    }
}
