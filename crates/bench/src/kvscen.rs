//! StoneDB scenario construction: one call builds the store over any
//! (backend, device) pair, loads it, and warms the relevant cache.

use std::sync::Arc;

use aquila::{AquilaRuntime, DeviceKind};
use aquila_devices::{
    CallDomain, Entry, NvmeAccess, NvmeDevice, PmemAccess, PmemDevice, StorageAccess,
};
use aquila_kvstore::{AquilaEnv, DirectIoEnv, DynEnv, MmapEnv, StoneConfig, StoneDb};
use aquila_linuxsim::{KernelDevice, LinuxConfig, LinuxMmap};
use aquila_sim::{CoreDebts, FreeCtx, SimCtx};
use aquila_ycsb::workload::{value_of, KeyGen, VALUE_SIZE};

/// Read-path backend (the Figure 5 dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// O_DIRECT read/write + user-space cache.
    DirectIo,
    /// Linux mmap reads.
    Mmap,
    /// Aquila mmio reads.
    Aquila,
}

impl Backend {
    /// Display name (paper's legend).
    pub fn name(self) -> &'static str {
        match self {
            Backend::DirectIo => "read/write",
            Backend::Mmap => "mmap",
            Backend::Aquila => "aquila",
        }
    }

    /// All three, in the paper's order.
    pub const ALL: [Backend; 3] = [Backend::DirectIo, Backend::Mmap, Backend::Aquila];
}

/// Storage device (the Figure 5 second dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dev {
    /// Optane-class NVMe.
    Nvme,
    /// DRAM-backed pmem.
    Pmem,
}

impl Dev {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Dev::Nvme => "nvme",
            Dev::Pmem => "pmem",
        }
    }
}

/// A built StoneDB scenario.
pub struct StoneScenario {
    /// The store.
    pub db: Arc<StoneDb>,
    /// Human-readable configuration label.
    pub label: String,
    resets: Vec<Box<dyn Fn()>>,
}

impl StoneScenario {
    /// Resets all timing models (run between load and measurement).
    pub fn reset_timing(&self) {
        for r in &self.resets {
            r();
        }
    }
}

/// Builds a StoneDB over `(backend, dev)` with a cache of `cache_frames`
/// 4 KiB blocks/frames and a device of `device_pages` pages.
///
/// `fit` marks the dataset-fits-in-cache configuration: it disables the
/// Aquila TLB-pressure surcharge (no eviction churn) and undersizes the
/// Linux kernel cache by 5% (the cgroup shares its budget with kernel
/// overheads, so `mmap` never gets the full nominal size).
pub fn build_stone(
    backend: Backend,
    dev: Dev,
    cores: usize,
    cache_frames: usize,
    device_pages: u64,
    fit: bool,
    debts: Arc<CoreDebts>,
) -> StoneScenario {
    let mut setup = FreeCtx::new(0xBEEF);
    let mut resets: Vec<Box<dyn Fn()>> = Vec::new();
    let env: DynEnv = match backend {
        Backend::DirectIo => {
            let access: Arc<dyn StorageAccess> = match dev {
                Dev::Nvme => Arc::new(NvmeAccess::new(
                    Arc::new(NvmeDevice::optane(device_pages)),
                    Entry::Host(CallDomain::User),
                )),
                Dev::Pmem => Arc::new(PmemAccess::new(
                    Arc::new(PmemDevice::dram_backed(device_pages)),
                    Entry::Host(CallDomain::User),
                )),
            };
            let e = Arc::new(DirectIoEnv::new(Arc::clone(&access), cache_frames));
            let cache = Arc::clone(e.cache());
            resets.push(Box::new(move || access.reset_timing()));
            resets.push(Box::new(move || cache.reset_timing()));
            e
        }
        Backend::Mmap => {
            let kdev = match dev {
                Dev::Nvme => KernelDevice::Nvme(Arc::new(NvmeDevice::optane(device_pages))),
                Dev::Pmem => KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(device_pages))),
            };
            let frames = if fit {
                cache_frames * 95 / 100
            } else {
                cache_frames
            };
            let lm = Arc::new(LinuxMmap::new(
                LinuxConfig::linux(cores, frames),
                kdev.clone(),
                debts,
            ));
            let lm2 = Arc::clone(&lm);
            resets.push(Box::new(move || {
                lm2.reset_timing();
                kdev.reset_timing();
            }));
            Arc::new(MmapEnv::new(lm))
        }
        Backend::Aquila => {
            let kind = match dev {
                Dev::Nvme => DeviceKind::NvmeSpdk,
                Dev::Pmem => DeviceKind::PmemDax,
            };
            let rt =
                AquilaRuntime::build(&mut setup, kind, device_pages, cache_frames, cores, debts);
            let access = Arc::clone(&rt.access);
            resets.push(Box::new(move || access.reset_timing()));
            Arc::new(AquilaEnv::new(
                Arc::clone(&rt.aquila),
                Arc::clone(&rt.store),
                Arc::clone(&rt.access),
            ))
        }
    };
    let cfg = StoneConfig {
        mmio_tlb_pressure: !fit,
        ..Default::default()
    };
    let db = Arc::new(StoneDb::new(env, cfg));
    StoneScenario {
        db,
        label: format!("{}/{}", backend.name(), dev.name()),
        resets,
    }
}

/// Bulk-loads `records` YCSB records (sorted keys, 1 KiB values).
pub fn load_stone(ctx: &mut dyn SimCtx, db: &StoneDb, records: u64) {
    db.bulk_load(
        ctx,
        (0..records).map(|i| {
            let k = KeyGen::key_of(i);
            let v = value_of(&k, VALUE_SIZE);
            (k, v)
        }),
    );
}

/// Warms the read cache by touching every record once.
pub fn warm_stone(ctx: &mut dyn SimCtx, db: &StoneDb, records: u64) {
    for i in 0..records {
        let k = KeyGen::key_of(i);
        let _ = db.get(ctx, &k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_build_load_and_read() {
        for backend in Backend::ALL {
            for dev in [Dev::Nvme, Dev::Pmem] {
                let debts = Arc::new(CoreDebts::new(1));
                let scen = build_stone(backend, dev, 1, 2048, 65536, true, debts);
                let mut ctx = FreeCtx::new(1);
                load_stone(&mut ctx, &scen.db, 500);
                scen.reset_timing();
                let mut hits = 0;
                for i in (0..500).step_by(37) {
                    let k = KeyGen::key_of(i);
                    if scen.db.get(&mut ctx, &k) == Some(value_of(&k, VALUE_SIZE)) {
                        hits += 1;
                    }
                }
                assert_eq!(hits, 14, "{}: wrong values", scen.label);
            }
        }
    }

    #[test]
    fn warm_makes_repeat_reads_cheap_for_mmio() {
        let debts = Arc::new(CoreDebts::new(1));
        let scen = build_stone(Backend::Aquila, Dev::Pmem, 1, 4096, 65536, true, debts);
        let mut ctx = FreeCtx::new(1);
        load_stone(&mut ctx, &scen.db, 300);
        warm_stone(&mut ctx, &scen.db, 300);
        scen.reset_timing();
        let major_before = ctx.stats.major_faults;
        warm_stone(&mut ctx, &scen.db, 300);
        assert_eq!(
            ctx.stats.major_faults, major_before,
            "warm data stays cached"
        );
    }
}
