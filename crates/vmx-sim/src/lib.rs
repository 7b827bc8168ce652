//! Intel VT-x hardware model for the Aquila reproduction.
//!
//! Models the virtualization features Aquila builds on (via Dune):
//!
//! - [`vcpu::Vcpu`] — VMX root/non-root modes, vmentry and vmcall, and
//!   exception delivery in non-root ring 0 with the paper's measured
//!   transition costs;
//! - [`apic::ApicFabric`] — IPIs with the vmexit-mediated, rate-limited
//!   send path used for batched TLB shootdowns.
//!
//! The EPT that maps Aquila's DRAM cache is not modelled as a table:
//! nothing translates through it, and the only effect the experiments
//! observe — one EPT fault per newly mapped 1 GiB granule when the cache
//! grows — is a count the engine keeps itself.
//!
//! The *functional* state (the vcpu mode) is real; the *cost* of each
//! hardware event is charged through `aquila_sim`'s calibrated cost
//! model, which is what lets a container with no `/dev/kvm` reproduce the
//! paper's transition-cost arguments.

#![forbid(unsafe_code)]

pub mod addr;
pub mod apic;
pub mod vcpu;

pub use addr::{Gpa, PAGE_1G};
pub use apic::ApicFabric;
pub use vcpu::{msr, Vcpu};
