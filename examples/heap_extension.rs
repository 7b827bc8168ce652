//! Extending the application heap over fast storage: Ligra-style BFS
//! whose graph and per-vertex state live in a memory-mapped file.
//!
//! ```sh
//! cargo run --release --example heap_extension
//! ```

#![forbid(unsafe_code)]

use std::sync::Arc;

use aquila::{AquilaRegion, AquilaRuntime, DeviceKind};
use aquila_graph::{bfs, label_propagation, rmat_edges, CsrGraph, RmatParams, Team};
use aquila_sim::{CoreDebts, DramRegion, MemRegion};

fn main() {
    let scale = 14u32; // 16 K vertices, 160 K edges.
    let n = 1u64 << scale;
    let edges = rmat_edges(scale, n * 10, RmatParams::default(), 2026);
    let heap_pages = ((16 + (n + 1) * 8 + n * 10 * 4 + n * 8) / 4096 + 32).next_power_of_two();

    // Heap A: plain DRAM (the in-memory baseline).
    let dram: Arc<dyn MemRegion> = Arc::new(DramRegion::new(heap_pages * 4096));

    // Heap B: an Aquila-mapped file over pmem, with a DRAM cache of one
    // quarter of the heap — the dataset does NOT fit in memory.
    let mut setup = aquila_sim::FreeCtx::new(1);
    let debts = Arc::new(CoreDebts::new(8));
    let rt = AquilaRuntime::build(
        &mut setup,
        DeviceKind::PmemDax,
        heap_pages + 4096,
        (heap_pages / 4) as usize,
        8,
        debts,
    );
    let file = rt.open("/ligra-heap", heap_pages).expect("open");
    let mapped: Arc<dyn MemRegion> = Arc::new(
        AquilaRegion::map(&mut setup, Arc::clone(&rt.aquila), file, heap_pages).expect("map"),
    );

    for (label, region) in [("dram-only", dram), ("aquila/pmem", mapped)] {
        let mut team = Team::new(8, 3);
        let g = CsrGraph::build(team.ctx(0), Arc::clone(&region), n, &edges);
        team.barrier();

        let t0 = team.now();
        let r = bfs(&mut team, &g, 0);
        let bfs_time = team.now() - t0;

        let t1 = team.now();
        let (components, iters) = label_propagation(&mut team, &g, 50);
        let cc_time = team.now() - t1;

        println!(
            "{label:<12} BFS: visited {} in {} rounds, {:.3}s | CC: {} labels in {} iters, {:.3}s",
            r.visited,
            r.rounds,
            bfs_time.as_secs_f64(),
            components,
            iters,
            cc_time.as_secs_f64()
        );
    }
    println!();
    println!("Same algorithms, same results — only the heap's backing changed.");
    println!("That is the paper's Figure 6 scenario: no application redesign,");
    println!("just a memory-mapped file behind the allocator.");
}
