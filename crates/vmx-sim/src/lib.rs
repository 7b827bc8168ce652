//! Intel VT-x hardware model for the Aquila reproduction.
//!
//! The paper's performance argument for VMX non-root ring 0 is which
//! transition each operation pays: exception delivery (552 cycles, not
//! Linux's 1287-cycle trap) on a page fault, and a `vmcall` only on the
//! uncommon path. Each of those is one charge from `aquila_sim`'s
//! calibrated cost model (`CostModel::trap_nonroot_ring0`,
//! `aquila_sim::vmcall`), made where the operation runs, which is what
//! lets a container with no `/dev/kvm` reproduce the paper's
//! transition-cost arguments. No vcpu state is kept: no result reads
//! one. This crate holds the rest of the model:
//!
//! - [`addr::Gpa`] — guest-physical addresses, and [`PAGE_1G`], the EPT
//!   granule that maps Aquila's DRAM cache;
//! - [`apic::ApicFabric`] — IPIs with the vmexit-mediated, rate-limited
//!   send path used for batched TLB shootdowns.
//!
//! The EPT that maps Aquila's DRAM cache is not modelled as a table:
//! nothing translates through it, and the only effect the experiments
//! observe — one EPT fault per newly mapped 1 GiB granule when the cache
//! grows — is a count the engine keeps itself.

#![forbid(unsafe_code)]

pub mod addr;
pub mod apic;

pub use addr::{Gpa, PAGE_1G};
pub use apic::ApicFabric;
