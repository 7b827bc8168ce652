//! One-call assembly of a complete Aquila stack: device, access path,
//! blobstore, engine.
//!
//! Experiments and applications use [`AquilaRuntime`] so they do not
//! repeat the wiring: pick a device kind, a cache size, and go.

use std::sync::Arc;

use aquila_devices::{
    BlobError, Blobstore, CallDomain, Entry, MirrorAccess, NvmeAccess, NvmeDevice, PmemAccess,
    PmemDevice, StorageAccess,
};
use aquila_sim::{fault, CoreDebts, DeviceImage, SimCtx};

use crate::engine::{Aquila, AquilaConfig};
use crate::error::AquilaError;

/// Which device + access path to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// Optane-class NVMe accessed through the SPDK polled driver
    /// (Aquila's default for block devices).
    NvmeSpdk,
    /// NVMe through host-kernel direct I/O (the HOST-NVMe ablation).
    NvmeHost,
    /// DRAM-backed pmem with DAX + AVX2 copies (Aquila's default for
    /// byte-addressable devices).
    PmemDax,
    /// pmem through host-kernel direct I/O (the HOST-pmem ablation).
    PmemHost,
}

/// A ready-to-use Aquila stack.
pub struct AquilaRuntime {
    /// The engine.
    pub aquila: Arc<Aquila>,
    /// The blobstore over the device.
    pub store: Arc<Blobstore>,
    /// The storage access path.
    pub access: Arc<dyn StorageAccess>,
    /// The device kind built.
    pub kind: DeviceKind,
}

impl AquilaRuntime {
    /// Builds the full stack.
    ///
    /// `device_pages` sizes the backing device; `cache_frames` the DRAM
    /// cache; `cores` the simulated machine width.
    pub fn build(
        ctx: &mut dyn SimCtx,
        kind: DeviceKind,
        device_pages: u64,
        cache_frames: usize,
        cores: usize,
        debts: Arc<CoreDebts>,
    ) -> AquilaRuntime {
        Self::build_with_policy(
            ctx,
            kind,
            device_pages,
            cache_frames,
            cores,
            debts,
            crate::config::MmioPolicy::default(),
        )
    }

    /// [`AquilaRuntime::build`] with an explicit replacement/write-behind
    /// policy section.
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_policy(
        ctx: &mut dyn SimCtx,
        kind: DeviceKind,
        device_pages: u64,
        cache_frames: usize,
        cores: usize,
        debts: Arc<CoreDebts>,
        policy: crate::config::MmioPolicy,
    ) -> AquilaRuntime {
        // Aquila itself is the guest: host I/O costs it a vmcall.
        let entry = match kind {
            DeviceKind::NvmeSpdk | DeviceKind::PmemDax => Entry::Direct,
            DeviceKind::NvmeHost | DeviceKind::PmemHost => Entry::Host(CallDomain::Guest),
        };
        let access: Arc<dyn StorageAccess> = match kind {
            // A mirrored backend replicates 2-for-1 with per-sector
            // checksums and read-repair (DESIGN.md §16). The fault plan
            // attaches to the primary only, so the replica is the clean
            // copy repairs draw from.
            DeviceKind::NvmeSpdk if policy.mirror => Arc::new(MirrorAccess::new(
                Self::nvme_device(device_pages),
                Arc::new(NvmeDevice::optane(device_pages)),
            )),
            DeviceKind::NvmeSpdk | DeviceKind::NvmeHost => {
                Arc::new(NvmeAccess::new(Self::nvme_device(device_pages), entry))
            }
            DeviceKind::PmemDax | DeviceKind::PmemHost => Arc::new(PmemAccess::new(
                Arc::new(PmemDevice::dram_backed(device_pages)),
                entry,
            )),
        };
        let store = Arc::new(
            Blobstore::format(ctx, Arc::clone(&access)).expect("blobstore format on fresh device"),
        );
        Self::assemble(kind, store, access, cache_frames, cores, debts, policy)
    }

    /// Creates an NVMe device with the process-global fault plan (if one
    /// was installed, e.g. via the benches' `--faults` flag) attached.
    fn nvme_device(device_pages: u64) -> Arc<NvmeDevice> {
        let dev = Arc::new(NvmeDevice::optane(device_pages));
        if let Some(plan) = fault::global() {
            dev.set_fault_plan(Arc::clone(plan));
        }
        dev
    }

    fn assemble(
        kind: DeviceKind,
        store: Arc<Blobstore>,
        access: Arc<dyn StorageAccess>,
        cache_frames: usize,
        cores: usize,
        debts: Arc<CoreDebts>,
        policy: crate::config::MmioPolicy,
    ) -> AquilaRuntime {
        let cfg = AquilaConfig::builder(cores, cache_frames)
            .policy(policy)
            .build();
        let aquila = Arc::new(Aquila::new(cfg, debts));
        AquilaRuntime {
            aquila,
            store,
            access,
            kind,
        }
    }

    /// Reboots an Aquila stack from a captured NVMe device image (the
    /// crash-consistency harness's recovery path): the device is restored
    /// page-for-page from the image and the blobstore is *loaded*, not
    /// formatted, so every file and page that was durable at the capture
    /// point is visible again through [`AquilaRuntime::open`].
    pub fn recover_from_image(
        ctx: &mut dyn SimCtx,
        image: &DeviceImage,
        cache_frames: usize,
        cores: usize,
        debts: Arc<CoreDebts>,
        policy: crate::config::MmioPolicy,
    ) -> Result<AquilaRuntime, AquilaError> {
        let dev = Arc::new(NvmeDevice::from_image(image));
        if let Some(plan) = fault::global() {
            dev.set_fault_plan(Arc::clone(plan));
        }
        let access: Arc<dyn StorageAccess> = Arc::new(NvmeAccess::new(dev, Entry::Direct));
        let store = match Blobstore::load(ctx, Arc::clone(&access)) {
            Ok(bs) => Arc::new(bs),
            Err(BlobError::Device(e)) => return Err(AquilaError::Device(e)),
            Err(_) => {
                return Err(AquilaError::RecoveryFailed(
                    "device image does not hold a loadable blobstore",
                ))
            }
        };
        Ok(Self::assemble(
            DeviceKind::NvmeSpdk,
            store,
            access,
            cache_frames,
            cores,
            debts,
            policy,
        ))
    }

    /// Opens (or creates) a named file of at least `pages` pages through
    /// the intercepted-`open` path.
    pub fn open(&self, name: &str, pages: u64) -> Result<crate::file::FileId, crate::AquilaError> {
        self.aquila
            .files()
            .open_blob(&self.store, &self.access, name, pages)
    }
}

impl core::fmt::Debug for AquilaRuntime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AquilaRuntime {{ kind: {:?} }}", self.kind)
    }
}
