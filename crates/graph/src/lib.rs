//! Ligra-style graph processing over storage-extended heaps.
//!
//! The paper's Figure 6 scenario: a graph framework whose arrays live in
//! a memory region that may be plain DRAM, Linux `mmap`, or Aquila mmio —
//! extending the application heap over fast storage with no algorithm
//! changes.
//!
//! - [`rmat`] — R-MAT graph generation (the paper's workload);
//! - [`csr::CsrGraph`] — CSR graphs stored in a
//!   [`aquila_sim::MemRegion`];
//! - [`team::Team`] — OpenMP-style thread teams with barrier-idle
//!   accounting (Figure 6(c)'s user/system/idle split);
//! - [`algos`] — BFS (the paper's benchmark) and label-propagation
//!   components.

#![forbid(unsafe_code)]

pub mod algos;
pub mod csr;
pub mod rmat;
pub mod team;

pub use algos::{bfs, label_propagation, BfsResult, NO_PARENT};
pub use csr::CsrGraph;
pub use rmat::{rmat_edges, RmatParams};
pub use team::Team;
