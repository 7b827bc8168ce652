//! x86-64 memory-management substrate: guest page tables, TLBs, and
//! physical frame memory.
//!
//! Together with `aquila-vmx` this crate provides the two-level address
//! translation the paper relies on: the guest page table here maps GVA ->
//! GPA (regular 4 KiB pages, owned by Aquila in non-root ring 0), while
//! the EPT in `aquila-vmx` maps GPA -> HPA under hypervisor control.
//!
//! - [`pagetable::PageTable`] — a real four-level radix page table with
//!   accessed/dirty semantics (read faults map read-only; the later write
//!   fault is how Aquila tracks dirty pages), supporting both 4 KiB PTEs
//!   and transparent 2 MiB PD-level huge leaves;
//! - [`tlb`] — per-core set-associative TLBs (a 1536-entry 4 KiB array
//!   plus a 32-entry 2 MiB sub-TLB) and the *batched* TLB shootdown (one
//!   IPI round per 512-page batch, section 4.1);
//! - [`physmem::PhysMem`] — real 4 KiB frames backing the DRAM cache,
//!   with an optional 2 MiB-contiguous slab window for promoted runs.

#![forbid(unsafe_code)]

pub mod addr;
pub mod pagetable;
pub mod physmem;
pub mod sharded;
pub mod tlb;

pub use addr::{
    Gva, Vpn, ENTRIES_PER_TABLE, HUGE_PAGE_PAGES, PAGE_2M, PAGE_SHIFT, PAGE_SIZE, PT_LEVELS,
};
pub use pagetable::{Access, LeafKind, PageFaultKind, PageTable, Pte, PteFlags};
pub use physmem::{FrameId, PhysMem};
pub use sharded::{ShardedPageTable, L_PT_SHARD};
pub use tlb::{Tlb, TlbFabric};
