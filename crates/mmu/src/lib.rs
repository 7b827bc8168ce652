//! x86-64 memory-management substrate: guest page tables, TLBs, and
//! physical frame memory.
//!
//! The guest page table here maps GVA -> GPA (regular 4 KiB pages, owned
//! by Aquila in non-root ring 0), the first of the paper's two
//! translation stages. The second, the hypervisor's EPT (GPA -> HPA), is
//! not a table: nothing observable translates through it, and the
//! engine only counts the 1 GiB granules that map its DRAM cache.
//!
//! - [`pagetable::PageTable`] — a real four-level radix page table with
//!   accessed/dirty semantics (read faults map read-only; the later write
//!   fault is how Aquila tracks dirty pages), supporting both 4 KiB PTEs
//!   and transparent 2 MiB PD-level huge leaves;
//! - [`tlb`] — per-core set-associative TLBs (a 1536-entry 4 KiB array
//!   plus a 32-entry 2 MiB sub-TLB) and the *batched* TLB shootdown (one
//!   IPI round per 512-page batch, section 4.1);
//! - [`physmem::PhysMem`] — real 4 KiB frames backing the DRAM cache,
//!   with an optional 2 MiB-contiguous slab window for promoted runs;
//! - [`mmu::Mmu`] — page table plus TLBs, the one MMU model both
//!   engines translate and shoot down through.

#![forbid(unsafe_code)]

pub mod addr;
pub mod mmu;
pub mod pagetable;
pub mod physmem;
pub mod sharded;
pub mod tlb;

pub use addr::{
    Gva, Vpn, ENTRIES_PER_TABLE, HUGE_PAGE_PAGES, PAGE_2M, PAGE_SHIFT, PAGE_SIZE, PT_LEVELS,
};
pub use aquila_vmx::{ApicFabric, Gpa};
pub use mmu::Mmu;
pub use pagetable::{Access, LeafKind, PageFaultKind, PageTable, Pte, PteFlags};
pub use physmem::{FrameId, PhysMem};
pub use sharded::{ShardedPageTable, L_PT_SHARD};
pub use tlb::{Tlb, TlbFabric};
