//! Virtual CPU state: VMX modes and the cost of mode transitions.
//!
//! The performance argument of the paper is entirely about *which
//! transition* each mmio operation pays:
//!
//! - a Linux page fault pays a ring-3 -> ring-0 trap (1287 cycles, charged
//!   by the Linux baseline itself);
//! - an Aquila page fault stays in non-root ring 0 and pays only exception
//!   delivery (552 cycles);
//! - uncommon operations (mapping management, cache resize) pay a
//!   vmcall (~1500 cycles), which is fine because they are rare.
//!
//! [`Vcpu`] makes the Aquila-side charges explicit and countable.

use aquila_sim::{CostCat, Cycles, SimCtx};

/// VMX operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpuMode {
    /// VMX root: the hypervisor / host OS.
    VmxRoot,
    /// VMX non-root: guest execution (where Aquila runs applications).
    VmxNonRoot,
}

/// Model-specific registers the simulation knows about.
pub mod msr {
    /// Syscall entry point (`MSR_LSTAR`); Aquila installs its own handler
    /// here to intercept system calls in non-root ring 0 (section 4.4).
    pub const LSTAR: u32 = 0xC000_0082;
}

/// A virtual CPU.
///
/// Tracks the VMX mode and charges transition costs through the
/// [`SimCtx`]; vmexits are counted in the context's counters. One `Vcpu`
/// corresponds to one simulated core running one Aquila thread, always
/// in ring 0.
#[derive(Debug)]
pub struct Vcpu {
    mode: CpuMode,
}

impl Vcpu {
    /// Creates a vcpu in VMX root (hypervisor context).
    pub fn new() -> Vcpu {
        Vcpu {
            mode: CpuMode::VmxRoot,
        }
    }

    /// Enters the guest (vmlaunch/vmresume): VMX root -> non-root ring 0.
    ///
    /// This is how Aquila places the application in a privileged domain.
    /// The entry half of the transition cost is folded into the round-trip
    /// constants charged at exit points, so entry itself charges nothing.
    pub fn vmentry(&mut self) {
        self.mode = CpuMode::VmxNonRoot;
    }

    /// Executes a `vmcall` hypercall: a deliberate vmexit with hypervisor
    /// dispatch (used by Aquila's uncommon-path operations).
    pub fn vmcall(&mut self, ctx: &mut dyn SimCtx, _nr: u64) {
        debug_assert_eq!(self.mode, CpuMode::VmxNonRoot, "vmcall requires guest mode");
        ctx.counters().vmexits += 1;
        let c = ctx.cost().vmcall;
        ctx.charge(CostCat::Vmexit, c);
    }

    /// Delivers an exception (e.g. a page fault) and returns from it.
    ///
    /// In non-root ring 0 this costs only exception delivery on an
    /// alternate stack, with no protection-domain switch (Aquila,
    /// section 4.2).
    pub fn deliver_exception(&mut self, ctx: &mut dyn SimCtx) {
        let c = ctx.cost().trap_nonroot_ring0;
        ctx.charge(CostCat::Trap, c);
    }

    /// Writes an MSR from guest context, charged as a cheap `wrmsr`.
    pub fn write_msr(&mut self, ctx: &mut dyn SimCtx, _index: u32, _value: u64) {
        ctx.charge(CostCat::Other, Cycles(100));
    }
}

impl Default for Vcpu {
    fn default() -> Self {
        Vcpu::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::FreeCtx;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "vmcall requires guest mode")]
    fn vmcall_before_vmentry_is_refused() {
        let mut v = Vcpu::new();
        let mut ctx = FreeCtx::new(1);
        v.vmcall(&mut ctx, 7);
    }

    #[test]
    fn nonroot_ring0_trap_costs_552() {
        let mut v = Vcpu::new();
        let mut ctx = FreeCtx::new(1);
        v.vmentry();
        v.deliver_exception(&mut ctx);
        assert_eq!(ctx.breakdown.get(CostCat::Trap), Cycles(552));
    }

    #[test]
    fn vmcall_charges_and_counts() {
        let mut v = Vcpu::new();
        let mut ctx = FreeCtx::new(1);
        v.vmentry();
        v.vmcall(&mut ctx, 7);
        assert_eq!(ctx.stats.vmexits, 1);
        assert!(ctx.breakdown.get(CostCat::Vmexit) > Cycles::ZERO);
    }

    #[test]
    fn lstar_write_is_cheap() {
        let mut v = Vcpu::new();
        let mut ctx = FreeCtx::new(1);
        v.vmentry();
        v.write_msr(&mut ctx, msr::LSTAR, 0x4000);
        assert_eq!(ctx.stats.vmexits, 0);
        assert_eq!(ctx.breakdown.get(CostCat::Other), Cycles(100));
    }
}
