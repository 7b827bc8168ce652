//! Intel VT-x hardware model for the Aquila reproduction.
//!
//! Models the virtualization features Aquila builds on (via Dune):
//!
//! - [`vcpu::Vcpu`] — VMX root/non-root modes, vmentry and vmcall, and
//!   exception delivery in non-root ring 0 with the paper's measured
//!   transition costs;
//! - [`ept::Ept`] — per-process extended page tables with 4 KiB / 2 MiB /
//!   1 GiB leaves and EPT violations (the mechanism behind Aquila's
//!   dynamic cache resizing);
//! - [`apic::ApicFabric`] — IPIs with the vmexit-mediated, rate-limited
//!   send path used for batched TLB shootdowns.
//!
//! The *functional* state (modes, mappings, counters) is real; the *cost*
//! of each hardware event is charged through `aquila_sim`'s calibrated
//! cost model, which is what lets a container with no `/dev/kvm` reproduce
//! the paper's transition-cost arguments.

#![forbid(unsafe_code)]

pub mod addr;
pub mod apic;
pub mod ept;
pub mod vcpu;

pub use addr::{Gpa, Hpa, PAGE_1G, PAGE_2M, PAGE_4K};
pub use apic::{ApicFabric, IpiRateLimiter};
pub use ept::{Ept, EptAccess, EptError, EptPageSize, EptPerms, EptViolation};
pub use vcpu::{msr, CpuMode, Vcpu, Vmcs};
