//! Tenant-scoped sessions over the Aquila engine (DESIGN.md §15).
//!
//! Until PR 8 every caller passed raw [`Gva`]s straight to
//! [`Aquila`]; a multi-tenant front end needs an accountable surface
//! instead. A [`Tenant`] is registered once with a [`TenantSpec`] (id
//! and frame quota); every file it opens is bound to its tenant id in
//! the pcache, so frame accounting, quota enforcement, and fair
//! eviction all happen per tenant. A [`Session`]
//! is one simulated client connection: it wraps the engine operations
//! (`mmap`/`read`/`write`/`msync`/...) with per-tenant request counts
//! and tenant-labeled latency histograms
//! (`session.op.cycles[tNN]` via
//! [`aquila_sim::metrics::record_latency_labeled`]).
//!
//! The QoS mechanism is quota self-reclaim: a fault from a tenant over
//! its declared quota first evicts a small batch of that tenant's own
//! frames, so its pressure lands on its own working set. Every request
//! is served; a tenant with no quota is never self-reclaimed.

use std::sync::Arc;

use aquila_sync::Mutex;

use aquila_mmu::Gva;
use aquila_sim::{Cycles, SimCtx};
use aquila_vma::{Advice, Prot};

use crate::engine::Aquila;
use crate::error::AquilaError;
use crate::file::FileId;
use crate::runtime::AquilaRuntime;

/// Declared identity and resources of one tenant.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Small dense tenant id (also the histogram label index; ids are
    /// taken modulo [`aquila_pcache::MAX_TENANTS`] in the cache).
    pub id: u16,
    /// Frame quota in the shared cache; 0 = unlimited (never
    /// self-reclaimed).
    pub quota_frames: usize,
}

impl TenantSpec {
    /// A spec with no quota.
    pub fn unlimited(id: u16) -> TenantSpec {
        TenantSpec {
            id,
            quota_frames: 0,
        }
    }
}

/// Per-tenant request accounting (plain counters; the latency
/// distributions live in the metrics registry as labeled histograms).
#[derive(Debug, Default, Clone, Copy)]
struct TenantStats {
    requests: u64,
    bytes_read: u64,
    bytes_written: u64,
}

/// A registered tenant: the handle through which its files are opened
/// and its [`Session`]s created.
pub struct Tenant {
    aquila: Arc<Aquila>,
    spec: TenantSpec,
    stats: Mutex<TenantStats>,
}

impl Tenant {
    /// Registers a tenant with the engine: installs its quota in the
    /// shared cache and returns the handle.
    pub fn register(aquila: Arc<Aquila>, spec: TenantSpec) -> Arc<Tenant> {
        aquila.cache().set_tenant_quota(spec.id, spec.quota_frames);
        Arc::new(Tenant {
            aquila,
            spec,
            stats: Mutex::new(TenantStats::default()),
        })
    }

    /// The declared spec.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// The tenant id.
    pub fn id(&self) -> u16 {
        self.spec.id
    }

    /// Opens (or creates) a file owned by this tenant: every cache frame
    /// the file ever occupies is charged to this tenant's account.
    pub fn open(&self, rt: &AquilaRuntime, name: &str, pages: u64) -> Result<FileId, AquilaError> {
        let file = rt.open(name, pages)?;
        self.aquila.cache().bind_file_tenant(file.0, self.spec.id);
        Ok(file)
    }

    /// Opens a new session (one simulated client connection).
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            tenant: Arc::clone(self),
        }
    }

    /// Frames currently resident in the shared cache on this tenant's
    /// account.
    pub fn resident_frames(&self) -> usize {
        self.aquila.cache().tenant_resident(self.spec.id)
    }

    /// Total requests issued through this tenant's sessions.
    pub fn requests(&self) -> u64 {
        self.stats.lock().requests
    }

    /// Bytes read / written through this tenant's sessions.
    pub fn bytes(&self) -> (u64, u64) {
        let st = self.stats.lock();
        (st.bytes_read, st.bytes_written)
    }

    fn account<T>(
        &self,
        ctx: &mut dyn SimCtx,
        t0: Cycles,
        result: Result<T, AquilaError>,
    ) -> Result<T, AquilaError> {
        self.stats.lock().requests += 1;
        aquila_sim::metrics::record_latency_labeled(
            ctx,
            "session.op.cycles",
            self.spec.id,
            ctx.now().saturating_sub(t0),
        );
        result
    }
}

impl core::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Tenant {{ id: {}, quota: {} }}",
            self.spec.id, self.spec.quota_frames
        )
    }
}

/// One client connection of a tenant: the accountable replacement for
/// calling [`Aquila`] directly. Sessions are cheap (an `Arc` clone) —
/// a serving layer opens one per simulated connection.
pub struct Session {
    tenant: Arc<Tenant>,
}

impl Session {
    /// The owning tenant.
    pub fn tenant(&self) -> &Arc<Tenant> {
        &self.tenant
    }

    fn aq(&self) -> &Aquila {
        &self.tenant.aquila
    }

    /// Maps `pages` pages of a tenant file ([`Aquila::mmap`]).
    pub fn mmap(
        &self,
        ctx: &mut dyn SimCtx,
        file: FileId,
        offset_page: u64,
        pages: u64,
        prot: Prot,
    ) -> Result<Gva, AquilaError> {
        let t0 = ctx.now();
        let r = self.aq().mmap(ctx, file, offset_page, pages, prot);
        self.tenant.account(ctx, t0, r)
    }

    /// Unmaps a range ([`Aquila::munmap`]).
    pub fn munmap(&self, ctx: &mut dyn SimCtx, addr: Gva, pages: u64) -> Result<(), AquilaError> {
        let t0 = ctx.now();
        let r = self.aq().munmap(ctx, addr, pages);
        self.tenant.account(ctx, t0, r)
    }

    /// Applies mapping advice ([`Aquila::madvise`]).
    pub fn madvise(
        &self,
        ctx: &mut dyn SimCtx,
        addr: Gva,
        pages: u64,
        advice: Advice,
    ) -> Result<(), AquilaError> {
        let t0 = ctx.now();
        let r = self.aq().madvise(ctx, addr, pages, advice);
        self.tenant.account(ctx, t0, r)
    }

    /// Reads through the mapping ([`Aquila::read`]).
    pub fn read(&self, ctx: &mut dyn SimCtx, addr: Gva, buf: &mut [u8]) -> Result<(), AquilaError> {
        let t0 = ctx.now();
        let r = self.aq().read(ctx, addr, buf);
        if r.is_ok() {
            self.tenant.stats.lock().bytes_read += buf.len() as u64;
        }
        self.tenant.account(ctx, t0, r)
    }

    /// Writes through the mapping ([`Aquila::write`]).
    pub fn write(&self, ctx: &mut dyn SimCtx, addr: Gva, data: &[u8]) -> Result<(), AquilaError> {
        let t0 = ctx.now();
        let r = self.aq().write(ctx, addr, data);
        if r.is_ok() {
            self.tenant.stats.lock().bytes_written += data.len() as u64;
        }
        self.tenant.account(ctx, t0, r)
    }

    /// Flushes a range to the device ([`Aquila::msync`]).
    pub fn msync(&self, ctx: &mut dyn SimCtx, addr: Gva, pages: u64) -> Result<(), AquilaError> {
        let t0 = ctx.now();
        let r = self.aq().msync(ctx, addr, pages);
        self.tenant.account(ctx, t0, r)
    }
}

impl core::fmt::Debug for Session {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Session {{ tenant: {} }}", self.tenant.spec.id)
    }
}
