//! The calibrated cycle-cost model.
//!
//! Every hardware or kernel event that the simulation cannot execute for
//! real (traps, vmexits, device accesses, SIMD memory copies, TLB
//! operations) is charged from this table. The defaults come from the
//! Aquila paper (EuroSys '21) and the sources it cites; each field's doc
//! comment records the provenance so calibration stays auditable.

use crate::time::Cycles;

/// Charge categories used for execution-time breakdowns.
///
/// The figure binaries aggregate charged cycles per category to produce the
/// paper's breakdown plots (Figures 7 and 8) and the user/system/idle split
/// of Figure 6(c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostCat {
    /// Application-level computation (e.g. key comparison, BFS logic).
    App,
    /// Protection-domain switch into and out of a fault/exception handler.
    Trap,
    /// Page-fault handler software path excluding I/O and cache management.
    FaultHandler,
    /// I/O page-cache management: lookups, insertions, LRU, dirty tracking.
    CacheMgmt,
    /// Page-frame allocation and eviction (freelist, victim selection).
    Eviction,
    /// Waiting for and transferring data to/from a storage device.
    DeviceIo,
    /// Memory copies between the DRAM cache and a byte-addressable device.
    Memcpy,
    /// TLB invalidations and shootdown IPIs.
    Tlb,
    /// System-call entry/exit and in-kernel syscall work.
    Syscall,
    /// Hypervisor transitions: vmexit/vmentry and vmcall round trips.
    Vmexit,
    /// Time spent spinning on or queueing for a contended lock.
    LockWait,
    /// CPU idle while blocked on synchronous device I/O.
    Idle,
    /// Everything else (setup, bookkeeping outside the measured path).
    Other,
}

impl CostCat {
    /// All categories, in display order.
    pub const ALL: [CostCat; 13] = [
        CostCat::App,
        CostCat::Trap,
        CostCat::FaultHandler,
        CostCat::CacheMgmt,
        CostCat::Eviction,
        CostCat::DeviceIo,
        CostCat::Memcpy,
        CostCat::Tlb,
        CostCat::Syscall,
        CostCat::Vmexit,
        CostCat::LockWait,
        CostCat::Idle,
        CostCat::Other,
    ];

    /// Stable short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CostCat::App => "app",
            CostCat::Trap => "trap",
            CostCat::FaultHandler => "fault-handler",
            CostCat::CacheMgmt => "cache-mgmt",
            CostCat::Eviction => "eviction",
            CostCat::DeviceIo => "device-io",
            CostCat::Memcpy => "memcpy",
            CostCat::Tlb => "tlb",
            CostCat::Syscall => "syscall",
            CostCat::Vmexit => "vmexit",
            CostCat::LockWait => "lock-wait",
            CostCat::Idle => "idle",
            CostCat::Other => "other",
        }
    }

    /// Index of the category inside [`CostCat::ALL`].
    pub fn index(self) -> usize {
        match self {
            CostCat::App => 0,
            CostCat::Trap => 1,
            CostCat::FaultHandler => 2,
            CostCat::CacheMgmt => 3,
            CostCat::Eviction => 4,
            CostCat::DeviceIo => 5,
            CostCat::Memcpy => 6,
            CostCat::Tlb => 7,
            CostCat::Syscall => 8,
            CostCat::Vmexit => 9,
            CostCat::LockWait => 10,
            CostCat::Idle => 11,
            CostCat::Other => 12,
        }
    }
}

/// Calibrated per-event cycle costs.
///
/// Constructed via [`CostModel::paper`] (the defaults used by every
/// experiment) and optionally tweaked for ablations. All values are in
/// cycles at 2.4 GHz unless stated otherwise.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Ring-3 -> ring-0 trap plus `iret` return (protection-domain switch,
    /// excluding the handler body). Paper section 6.4 measures 1287 cycles
    /// (536 ns).
    pub trap_ring3: Cycles,
    /// Exception entry/exit when already in non-root ring 0 (Aquila's fault
    /// path). Paper section 6.4 / Figure 8(a): 552 cycles (230 ns), 2.33x
    /// cheaper than the ring-3 trap.
    pub trap_nonroot_ring0: Cycles,
    /// vmexit + vmentry round trip. Paper section 4.4 cites ~750 cycles
    /// (250 ns), from Dune.
    pub vmexit_roundtrip: Cycles,
    /// Explicit `vmcall` hypercall round trip (a deliberate vmexit plus
    /// hypervisor dispatch).
    pub vmcall: Cycles,
    /// IPI send through an MSR write that takes a vmexit so the hypervisor
    /// can rate-limit interrupt floods (Aquila section 4.1): 2081 cycles,
    /// against 298 for a direct posted-interrupt send (Shinjuku).
    pub ipi_send_vmexit: Cycles,
    /// IPI send from root mode, the Linux baseline's: a direct
    /// posted-interrupt write with no vmexit and no rate limiter, 298
    /// cycles (Aquila section 4.1, citing Shinjuku).
    pub ipi_send_native: Cycles,
    /// Receiving and dispatching an IPI on the target core (vmexit-less
    /// receive path).
    pub ipi_receive: Cycles,
    /// Local TLB invalidation of a single page (`invlpg`).
    pub tlb_invlpg: Cycles,
    /// Full local TLB flush (CR3 reload class cost).
    pub tlb_flush_local: Cycles,
    /// 4 KB memcpy without SIMD (kernel-style `memcpy`): ~2400 cycles
    /// (paper section 3.3).
    pub memcpy_4k_nosimd: Cycles,
    /// 4 KB memcpy with AVX2 streaming stores: ~900 cycles (section 3.3).
    pub memcpy_4k_avx2: Cycles,
    /// FPU (AVX) state save + restore around a SIMD copy in kernel/fault
    /// context: ~300 cycles (section 3.3, XSAVEOPT/FXRSTOR).
    pub fpu_save_restore: Cycles,
    /// System-call entry/exit (syscall/sysret plus kernel entry glue),
    /// excluding the in-kernel work of the specific call.
    pub syscall_entry_exit: Cycles,
    /// Page-fault handler software body in the Linux kernel (VMA lookup
    /// on the rb-tree, page-cache radix lookup, rmap insertion, memcg
    /// accounting, PTE install), excluding the trap, locks, and device
    /// I/O. Calibrated between Figure 8(a) (Linux fault ~5380 cycles with
    /// ~2.6 K of pmem I/O) and Figure 10(a) (Linux mmio 1.81x slower than
    /// Aquila for in-memory minor faults).
    pub linux_fault_body: Cycles,
    /// Aquila page-fault handler software body (lock-free hash lookup, PTE
    /// install), excluding trap, I/O, and the region lookup, which is
    /// charged separately. Calibrated against the Figure 8(c) cache-hit
    /// total of 2179 cycles (2179 - 552 trap - lookup/map costs) when that
    /// lookup was a four-level radix VMA walk; the spill-free region map
    /// resolves it with one `radix_level`, so the modeled cache-hit fault
    /// is three levels (75 cycles) cheaper than the paper's.
    pub aquila_fault_body: Cycles,
    /// One probe of the lock-free cached-page hash table.
    pub hash_lookup: Cycles,
    /// Insertion/removal in the lock-free cached-page hash table.
    pub hash_update: Cycles,
    /// Pop or push on a per-core freelist queue.
    pub freelist_op: Cycles,
    /// LRU bookkeeping per fault (approximate LRU list update).
    pub lru_update: Cycles,
    /// Insert/remove in a per-core dirty-page red-black tree.
    pub rbtree_op: Cycles,
    /// One step of a radix-tree walk (per level).
    pub radix_level: Cycles,
    /// Uncontended lock acquire+release (cache-hot).
    pub lock_uncontended: Cycles,
    /// Extra cost of a contended acquisition (cacheline transfer), added on
    /// top of queueing delay, which the resource model supplies.
    pub lock_contended_extra: Cycles,
    /// Per-get cost of user-space block-cache management on the lookup
    /// side: key hashing, shard locking, handle pinning/unpinning, LRU
    /// list maintenance, and block registration. Calibrated with
    /// `ucache_evict` so Figure 7's measured 32 K cycles/get of
    /// "user-space lookups and evictions" emerges at the ~75% miss ratio
    /// of the 4x-cache experiment.
    pub ucache_lookup: Cycles,
    /// Per-eviction cost in the user-space cache: victim selection, block
    /// deallocation, replacement copy-in, LRU surgery under the shard
    /// lock.
    pub ucache_evict: Cycles,
    /// Fixed per-request CPU cost of an NVMe submission/completion pair in
    /// a polled user-space driver (SPDK-style, no syscalls).
    pub nvme_submit_poll: Cycles,
    /// Fixed per-request CPU cost of an NVMe I/O through the host kernel
    /// (interrupt-driven block layer), excluding syscall entry/exit.
    pub nvme_submit_kernel: Cycles,
    /// In-kernel software path of a *direct I/O* `pread`/`pwrite` request
    /// issued from Aquila to the host OS (VFS + block layer + completion),
    /// excluding syscall entry/exit, the vmcall, and the device itself.
    /// Calibrated against Figure 8(c): HOST-pmem is 7.77x the DAX-pmem
    /// fault cost and HOST-NVMe 1.53x the SPDK-NVMe cost, and against
    /// Figure 7's ~13 K cycles of per-get syscall cost at the measured
    /// miss ratio.
    pub host_directio_sw: Cycles,
}

impl CostModel {
    /// The paper-calibrated default model.
    pub fn paper() -> CostModel {
        CostModel {
            trap_ring3: Cycles(1287),
            trap_nonroot_ring0: Cycles(552),
            vmexit_roundtrip: Cycles(750),
            vmcall: Cycles(1500),
            ipi_send_vmexit: Cycles(2081),
            ipi_send_native: Cycles(298),
            ipi_receive: Cycles(300),
            tlb_invlpg: Cycles(120),
            tlb_flush_local: Cycles(500),
            memcpy_4k_nosimd: Cycles(2400),
            memcpy_4k_avx2: Cycles(900),
            fpu_save_restore: Cycles(300),
            syscall_entry_exit: Cycles(150),
            linux_fault_body: Cycles(1900),
            aquila_fault_body: Cycles(1000),
            hash_lookup: Cycles(80),
            hash_update: Cycles(120),
            freelist_op: Cycles(60),
            lru_update: Cycles(90),
            rbtree_op: Cycles(180),
            radix_level: Cycles(25),
            lock_uncontended: Cycles(40),
            lock_contended_extra: Cycles(150),
            ucache_lookup: Cycles(10_500),
            ucache_evict: Cycles(33_000),
            nvme_submit_poll: Cycles(1200),
            nvme_submit_kernel: Cycles(3200),
            host_directio_sw: Cycles(17_500),
        }
    }

    /// Cost of copying `bytes` between DRAM and a byte-addressable device.
    ///
    /// When `simd` is set, the copy uses AVX2 streaming stores plus one FPU
    /// state save/restore (Aquila's optimization, section 3.3); otherwise
    /// the kernel-style scalar copy cost applies. Sub-4 KB copies are
    /// charged pro rata with a small fixed floor.
    pub fn memcpy(&self, bytes: u64, simd: bool) -> Cycles {
        let per_4k = if simd {
            self.memcpy_4k_avx2
        } else {
            self.memcpy_4k_nosimd
        };
        let whole = bytes / 4096;
        let rem = bytes % 4096;
        let mut c = per_4k * whole + Cycles(per_4k.get() * rem / 4096);
        // Fixed setup floor for tiny copies.
        c += Cycles(30);
        if simd {
            c += self.fpu_save_restore;
        }
        c
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_match_paper() {
        let m = CostModel::paper();
        assert_eq!(m.trap_ring3, Cycles(1287));
        assert_eq!(m.trap_nonroot_ring0, Cycles(552));
        assert_eq!(m.ipi_send_vmexit, Cycles(2081));
        assert_eq!(m.ipi_send_native, Cycles(298));
        assert_eq!(m.memcpy_4k_nosimd, Cycles(2400));
    }

    #[test]
    fn simd_memcpy_is_about_2x_faster_for_4k() {
        // Paper section 3.3: 1200 vs 2400 cycles for a 4 KB copy.
        let m = CostModel::paper();
        let simd = m.memcpy(4096, true);
        let scalar = m.memcpy(4096, false);
        assert!(simd.get() >= 1200 && simd.get() <= 1300, "{simd:?}");
        assert!(scalar.get() >= 2400 && scalar.get() <= 2500, "{scalar:?}");
        assert!(scalar.get() as f64 / simd.get() as f64 > 1.8);
    }

    #[test]
    fn memcpy_scales_with_size() {
        let m = CostModel::paper();
        let one = m.memcpy(4096, false);
        let four = m.memcpy(4 * 4096, false);
        assert!(four.get() > 3 * one.get());
        let half = m.memcpy(2048, false);
        assert!(half < one);
    }

    #[test]
    fn nonroot_trap_is_2_33x_cheaper() {
        // Paper: 552 vs 1287 cycles, i.e. 2.33x.
        let m = CostModel::paper();
        let ratio = m.trap_ring3.get() as f64 / m.trap_nonroot_ring0.get() as f64;
        assert!((ratio - 2.33).abs() < 0.01, "{ratio}");
    }

    #[test]
    fn categories_are_consistent() {
        for (i, c) in CostCat::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
    }
}
