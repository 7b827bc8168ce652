//! Aquila configuration: the typed builder and the mmio policy section.
//!
//! Construction goes through [`AquilaConfig::builder`]; the builder is the
//! only supported way to assemble a configuration (lint AQ005 rejects
//! direct struct construction elsewhere). The replacement/write-behind
//! knobs live in their own [`MmioPolicy`] section so the eviction pipeline
//! can be configured as a unit:
//!
//! ```
//! use aquila::config::{AquilaConfig, WritePolicy};
//!
//! let cfg = AquilaConfig::builder(4, 4096)
//!     .max_cache_frames(8192)
//!     .write_policy(WritePolicy::Async)
//!     .watermarks(256, 1024)
//!     .queue_depth(8)
//!     .evictor_cores(vec![3])
//!     .build();
//! assert_eq!(cfg.policy.low_watermark, 256);
//! ```

use aquila_devices::RetryPolicy;
use aquila_pcache::NumaTopology;
use aquila_sim::Cycles;
use aquila_vmx::IpiSendPath;

/// When eviction writeback happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Dirty victims are written back inside the faulting vcore's
    /// eviction round — the fault that triggers eviction pays for the
    /// round's writeback (the pre-pipeline behavior, and the default).
    Sync,
    /// Dedicated evictor threads watch the freelist watermarks, detach
    /// victim batches off the fault path, and write them back; faulting
    /// vcores take clean frames from the freelist and rarely block.
    Async,
}

/// The cache-replacement and write-behind policy section of
/// [`AquilaConfig`].
#[derive(Debug, Clone)]
pub struct MmioPolicy {
    /// Pages evicted per eviction round (paper: 512; clamped at boot to
    /// 1/8 of the cache so a round never wipes the working set).
    pub evict_batch: usize,
    /// Free-frame count below which the evictor starts a round. 0 means
    /// "derive from the cache size" under [`WritePolicy::Async`] and
    /// "disabled" under [`WritePolicy::Sync`].
    pub low_watermark: usize,
    /// Free-frame count the evictor refills to once triggered. Same 0
    /// semantics as `low_watermark`.
    pub high_watermark: usize,
    /// Simulated cores that run evictor threads (the harness spawns one
    /// [`crate::Aquila::evictor`] thread per listed core).
    pub evictor_cores: Vec<usize>,
    /// When writeback happens relative to the fault path.
    pub write_policy: WritePolicy,
    /// NVMe queue depth of every writeback (msync, `sync_all`, inline
    /// eviction and the evictor), under either [`WritePolicy`]. 1
    /// degenerates to the blocking one-command-then-drain discipline.
    pub queue_depth: usize,
    /// Retry/backoff policy applied to transient device-command failures
    /// (media errors, timeouts, controller resets), per command, on
    /// blocking I/O and queue-pair submission alike.
    pub retry: RetryPolicy,
    /// How long the freelist may sit *continuously* below the low
    /// watermark before the engine concludes the write-behind evictor
    /// cannot keep up and degrades the region to synchronous
    /// write-through (DESIGN.md §11). Only meaningful under
    /// [`WritePolicy::Async`]; [`Cycles::MAX`] disables the deadline.
    pub stall_deadline: Cycles,
    /// Enables transparent 2 MiB huge-page promotion (DESIGN.md §12):
    /// 2 MiB-aligned runs of resident file pages collapse into a single
    /// PD-level PTE backed by a physically contiguous slab run.
    pub huge_pages: bool,
    /// Resident 4 KiB pages (out of 512) a 2 MiB-aligned run needs before
    /// promotion triggers; the remainder is filled eagerly from the
    /// device during collapse. Clamped to `1..=512` at engine boot.
    pub promote_threshold: usize,
    /// Upper bound on promoted cache share, in percent of
    /// `max_cache_frames` (sizes the slab pool: promotion stops when all
    /// slab runs are in use). Clamped to `1..=100` at engine boot.
    pub max_promoted_share: usize,
    /// Enables multi-tenant QoS (DESIGN.md §15): per-tenant freelist
    /// quotas (an over-quota tenant reclaims its own frames before
    /// consuming the shared freelist), tenant-fair evictor rounds
    /// (victim batches apportioned by weighted overage), and admission
    /// control on the fault path (an over-quota tenant's faults are
    /// delayed — or shed — while the cache is under watermark pressure
    /// or degraded). Off by default: single-tenant runs are bit-for-bit
    /// unchanged.
    pub tenant_qos: bool,
    /// Base admission-delay unit under [`MmioPolicy::tenant_qos`]. A
    /// noisy tenant's fault is delayed by this amount scaled by how deep
    /// the freelist sits below the low watermark; sheds kick in when the
    /// deficit exceeds half the low watermark or the region is degraded.
    pub qos_delay: Cycles,
    /// Mirrors the NVMe backend 2-for-1 with per-sector checksums and
    /// read-repair (DESIGN.md §16). Only meaningful for
    /// `DeviceKind::NvmeSpdk`. Writeback batches go through one deep
    /// queue pair per copy, so both devices serve them concurrently. Off by default: single-device runs are bit-for-bit
    /// unchanged.
    pub mirror: bool,
    /// Verify per-sector checksums on every read through the mirror
    /// (on by default; disabling it is the ablation that lets silent
    /// corruption through undetected). No effect without
    /// [`MmioPolicy::mirror`].
    pub checksums: bool,
    /// Virtual-time pause between background-scrubber pages;
    /// [`Cycles::ZERO`] disables the scrubber. Only meaningful with
    /// [`MmioPolicy::mirror`].
    pub scrub_rate: Cycles,
    /// Number of page-table shards with per-vcore ownership (keyed by
    /// 2 MiB block, so huge runs keep one owner). 0 keeps the legacy
    /// single shared table, byte-identical to the pre-sharding engine.
    pub pt_shards: usize,
    /// Extra frames a sibling freelist steal migrates to the stealing
    /// core (work-stealing rebalance, DESIGN.md §17). 0 keeps the legacy
    /// steal-one behavior.
    pub freelist_steal_batch: usize,
}

impl Default for MmioPolicy {
    fn default() -> MmioPolicy {
        MmioPolicy {
            evict_batch: 512,
            low_watermark: 0,
            high_watermark: 0,
            evictor_cores: Vec::new(),
            write_policy: WritePolicy::Sync,
            queue_depth: 8,
            retry: RetryPolicy::default(),
            stall_deadline: Cycles::from_millis(10),
            huge_pages: false,
            promote_threshold: 512,
            max_promoted_share: 50,
            tenant_qos: false,
            qos_delay: Cycles::from_micros(2),
            mirror: false,
            checksums: true,
            scrub_rate: Cycles::ZERO,
            pt_shards: 0,
            freelist_steal_batch: 0,
        }
    }
}

/// Aquila configuration. Build one with [`AquilaConfig::builder`].
#[derive(Debug, Clone)]
pub struct AquilaConfig {
    /// Simulated cores (threads enter Aquila 1:1 with cores).
    pub cores: usize,
    /// Initial DRAM cache size in 4 KiB frames.
    pub cache_frames: usize,
    /// Maximum cache size (dynamic resizing headroom).
    pub max_cache_frames: usize,
    /// Readahead window in pages under `Advice::Normal`.
    pub readahead: usize,
    /// Readahead window under `Advice::Sequential`.
    pub readahead_seq: usize,
    /// IPI send path for shootdowns (paper default: vmexit-mediated).
    pub ipi_path: IpiSendPath,
    /// NUMA shape.
    pub topology: NumaTopology,
    /// Replacement and write-behind policy.
    pub policy: MmioPolicy,
}

impl AquilaConfig {
    /// Starts a builder for a flat-`cores` machine with a cache of
    /// `cache_frames` frames.
    pub fn builder(cores: usize, cache_frames: usize) -> AquilaConfigBuilder {
        AquilaConfigBuilder {
            cfg: AquilaConfig {
                cores,
                cache_frames,
                max_cache_frames: cache_frames,
                readahead: 8,
                readahead_seq: 32,
                ipi_path: IpiSendPath::VmexitMediated,
                topology: NumaTopology::flat(cores),
                policy: MmioPolicy::default(),
            },
        }
    }
}

/// Builder for [`AquilaConfig`]. Every knob has a sensible default; call
/// [`AquilaConfigBuilder::build`] to finish.
#[derive(Debug, Clone)]
pub struct AquilaConfigBuilder {
    cfg: AquilaConfig,
}

impl AquilaConfigBuilder {
    /// Maximum cache size for dynamic resizing (default: `cache_frames`).
    pub fn max_cache_frames(mut self, frames: usize) -> Self {
        self.cfg.max_cache_frames = frames;
        self
    }

    /// Readahead windows for `Advice::Normal` and `Advice::Sequential`.
    pub fn readahead(mut self, normal: usize, sequential: usize) -> Self {
        self.cfg.readahead = normal;
        self.cfg.readahead_seq = sequential;
        self
    }

    /// IPI send path for TLB shootdowns.
    pub fn ipi_path(mut self, path: IpiSendPath) -> Self {
        self.cfg.ipi_path = path;
        self
    }

    /// NUMA topology (default: flat).
    pub fn topology(mut self, topology: NumaTopology) -> Self {
        self.cfg.topology = topology;
        self
    }

    /// Replaces the whole policy section at once.
    pub fn policy(mut self, policy: MmioPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Pages evicted per eviction round.
    pub fn evict_batch(mut self, batch: usize) -> Self {
        self.cfg.policy.evict_batch = batch;
        self
    }

    /// Freelist watermarks driving the asynchronous evictor: start a
    /// round below `low` free frames, refill to `high`.
    pub fn watermarks(mut self, low: usize, high: usize) -> Self {
        self.cfg.policy.low_watermark = low;
        self.cfg.policy.high_watermark = high;
        self
    }

    /// When eviction writeback happens ([`WritePolicy::Sync`] default).
    pub fn write_policy(mut self, policy: WritePolicy) -> Self {
        self.cfg.policy.write_policy = policy;
        self
    }

    /// NVMe queue depth for writeback (default 8).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.cfg.policy.queue_depth = depth;
        self
    }

    /// Cores that run evictor threads.
    pub fn evictor_cores(mut self, cores: Vec<usize>) -> Self {
        self.cfg.policy.evictor_cores = cores;
        self
    }

    /// Retry/backoff policy for transient device-command failures.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.policy.retry = retry;
        self
    }

    /// Continuous-watermark-stall budget before write-behind degrades to
    /// write-through ([`Cycles::MAX`] disables).
    pub fn stall_deadline(mut self, deadline: Cycles) -> Self {
        self.cfg.policy.stall_deadline = deadline;
        self
    }

    /// Enables transparent 2 MiB huge-page promotion (default off).
    pub fn huge_pages(mut self, on: bool) -> Self {
        self.cfg.policy.huge_pages = on;
        self
    }

    /// Resident pages (of 512) that trigger promotion of an aligned run.
    pub fn promote_threshold(mut self, pages: usize) -> Self {
        self.cfg.policy.promote_threshold = pages;
        self
    }

    /// Maximum promoted share of the cache, in percent (sizes the slab
    /// pool).
    pub fn max_promoted_share(mut self, percent: usize) -> Self {
        self.cfg.policy.max_promoted_share = percent;
        self
    }

    /// Enables multi-tenant QoS: quotas, fair eviction, admission
    /// control (default off).
    pub fn tenant_qos(mut self, on: bool) -> Self {
        self.cfg.policy.tenant_qos = on;
        self
    }

    /// Base admission-delay unit applied to over-quota tenants under
    /// pressure (default 2 µs).
    pub fn qos_delay(mut self, delay: Cycles) -> Self {
        self.cfg.policy.qos_delay = delay;
        self
    }

    /// Enables the 2-way mirrored NVMe backend with read-repair
    /// (default off).
    pub fn mirror(mut self, on: bool) -> Self {
        self.cfg.policy.mirror = on;
        self
    }

    /// Per-sector checksum verification on mirrored reads (default on).
    pub fn checksums(mut self, on: bool) -> Self {
        self.cfg.policy.checksums = on;
        self
    }

    /// Virtual-time pause between scrubbed pages; [`Cycles::ZERO`]
    /// (default) disables the background scrubber.
    pub fn scrub_rate(mut self, rate: Cycles) -> Self {
        self.cfg.policy.scrub_rate = rate;
        self
    }

    /// Page-table shards with per-vcore ownership; 0 (default) keeps the
    /// legacy single shared table.
    pub fn pt_shards(mut self, shards: usize) -> Self {
        self.cfg.policy.pt_shards = shards;
        self
    }

    /// Extra frames migrated per sibling freelist steal (default 0:
    /// steal exactly one).
    pub fn freelist_steal_batch(mut self, batch: usize) -> Self {
        self.cfg.policy.freelist_steal_batch = batch;
        self
    }

    /// Finishes the configuration.
    ///
    /// Under [`WritePolicy::Async`] with unset (0) watermarks, defaults
    /// are derived from the cache size: low = frames/8, high = frames/4.
    /// `high_watermark` is clamped to at least `low_watermark`.
    ///
    /// Panics if the retry policy is degenerate (zero attempts, zero
    /// breaker threshold/cooldown, zero command timeout) — every retry
    /// site assumes a usable policy, so misconfiguration fails at build
    /// time, not mid-run.
    pub fn build(self) -> AquilaConfig {
        let mut cfg = self.cfg;
        if let Err(why) = cfg.policy.retry.validate() {
            panic!("invalid retry policy: {why}");
        }
        if cfg.policy.write_policy == WritePolicy::Async && cfg.policy.low_watermark == 0 {
            cfg.policy.low_watermark = (cfg.cache_frames / 8).max(8);
            cfg.policy.high_watermark = (cfg.cache_frames / 4).max(16);
        }
        cfg.policy.high_watermark = cfg.policy.high_watermark.max(cfg.policy.low_watermark);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_policy_defaults() {
        let cfg = AquilaConfig::builder(4, 1024).build();
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.cache_frames, 1024);
        assert_eq!(cfg.max_cache_frames, 1024);
        assert_eq!(cfg.policy.evict_batch, 512);
        assert_eq!(cfg.policy.write_policy, WritePolicy::Sync);
        assert_eq!(cfg.policy.queue_depth, 8);
        assert_eq!(cfg.policy.low_watermark, 0, "sync mode: no watermarks");
        assert!(cfg.policy.evictor_cores.is_empty());
    }

    #[test]
    fn async_derives_watermarks_from_cache_size() {
        let cfg = AquilaConfig::builder(2, 4096)
            .write_policy(WritePolicy::Async)
            .build();
        assert_eq!(cfg.policy.low_watermark, 512);
        assert_eq!(cfg.policy.high_watermark, 1024);
    }

    #[test]
    fn explicit_watermarks_survive_and_clamp() {
        let cfg = AquilaConfig::builder(2, 4096)
            .write_policy(WritePolicy::Async)
            .watermarks(100, 50)
            .queue_depth(16)
            .evictor_cores(vec![1])
            .build();
        assert_eq!(cfg.policy.low_watermark, 100);
        assert_eq!(cfg.policy.high_watermark, 100, "clamped up to low");
        assert_eq!(cfg.policy.queue_depth, 16);
        assert_eq!(cfg.policy.evictor_cores, vec![1]);
    }

    #[test]
    fn retry_and_stall_knobs_flow_through() {
        let cfg = AquilaConfig::builder(2, 256)
            .retry(RetryPolicy {
                max_attempts: 7,
                ..RetryPolicy::default()
            })
            .stall_deadline(Cycles::from_micros(50))
            .build();
        assert_eq!(cfg.policy.retry.max_attempts, 7);
        assert_eq!(cfg.policy.stall_deadline, Cycles::from_micros(50));
        let d = MmioPolicy::default();
        assert_eq!(d.retry.max_attempts, RetryPolicy::default().max_attempts);
        assert!(d.stall_deadline > Cycles::ZERO);
    }

    #[test]
    fn huge_page_knobs_default_off_and_flow_through() {
        let d = MmioPolicy::default();
        assert!(!d.huge_pages);
        assert_eq!(d.promote_threshold, 512);
        assert_eq!(d.max_promoted_share, 50);
        let cfg = AquilaConfig::builder(2, 4096)
            .huge_pages(true)
            .promote_threshold(384)
            .max_promoted_share(25)
            .build();
        assert!(cfg.policy.huge_pages);
        assert_eq!(cfg.policy.promote_threshold, 384);
        assert_eq!(cfg.policy.max_promoted_share, 25);
    }

    #[test]
    fn integrity_knobs_default_off_and_flow_through() {
        let d = MmioPolicy::default();
        assert!(!d.mirror, "mirroring must be opt-in");
        assert!(d.checksums, "verification defaults on once mirrored");
        assert_eq!(d.scrub_rate, Cycles::ZERO, "scrubber off by default");
        let cfg = AquilaConfig::builder(2, 1024)
            .mirror(true)
            .checksums(false)
            .scrub_rate(Cycles::from_micros(50))
            .build();
        assert!(cfg.policy.mirror);
        assert!(!cfg.policy.checksums);
        assert_eq!(cfg.policy.scrub_rate, Cycles::from_micros(50));
    }

    #[test]
    #[should_panic(expected = "invalid retry policy")]
    fn degenerate_retry_policy_fails_at_build() {
        let _ = AquilaConfig::builder(2, 1024)
            .retry(RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            })
            .build();
    }

    #[test]
    fn scale_knobs_default_off_and_flow_through() {
        let d = MmioPolicy::default();
        assert_eq!(d.pt_shards, 0, "legacy shared page table by default");
        assert_eq!(d.freelist_steal_batch, 0, "legacy steal-one by default");
        let cfg = AquilaConfig::builder(16, 4096)
            .pt_shards(16)
            .freelist_steal_batch(8)
            .build();
        assert_eq!(cfg.policy.pt_shards, 16);
        assert_eq!(cfg.policy.freelist_steal_batch, 8);
    }

    #[test]
    fn qos_knobs_default_off_and_flow_through() {
        let d = MmioPolicy::default();
        assert!(!d.tenant_qos, "QoS must be opt-in");
        assert_eq!(d.qos_delay, Cycles::from_micros(2));
        let cfg = AquilaConfig::builder(2, 1024)
            .tenant_qos(true)
            .qos_delay(Cycles::from_micros(5))
            .build();
        assert!(cfg.policy.tenant_qos);
        assert_eq!(cfg.policy.qos_delay, Cycles::from_micros(5));
    }
}
