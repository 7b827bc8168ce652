//! Aquila configuration: the typed builder and the mmio policy section.
//!
//! Construction goes through [`AquilaConfig::builder`]; the builder is the
//! only supported way to assemble a configuration (lint AQ005 rejects
//! direct struct construction elsewhere). It takes the core count and the
//! cache size and has two setters: [`AquilaConfigBuilder::max_cache_frames`]
//! and [`AquilaConfigBuilder::policy`], which sets the
//! replacement/write-behind knobs of the [`MmioPolicy`] section as a
//! unit. The NUMA shape follows from the core count; device retry and
//! timing (`aquila_devices::retry`) and the huge-page promotion threshold
//! are constants:
//!
//! ```
//! use aquila::config::{AquilaConfig, MmioPolicy, WritePolicy};
//!
//! let cfg = AquilaConfig::builder(4, 4096)
//!     .max_cache_frames(8192)
//!     .policy(MmioPolicy {
//!         write_policy: WritePolicy::Async,
//!         low_watermark: 256,
//!         high_watermark: 1024,
//!         evictor_cores: vec![3],
//!         ..MmioPolicy::default()
//!     })
//!     .build();
//! assert_eq!(cfg.policy.low_watermark, 256);
//! ```

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
    /// Enables transparent 2 MiB huge-page promotion (DESIGN.md §12):
    /// 2 MiB-aligned runs of resident file pages collapse into a single
    /// PD-level PTE backed by a physically contiguous slab run, once 64
    /// of a run's 512 pages are resident.
    pub huge_pages: bool,
    /// Mirrors the NVMe backend 2-for-1 with per-sector checksums and
    /// read-repair (DESIGN.md §16); every read through the mirror
    /// verifies its sector checksums. Only meaningful for
    /// `DeviceKind::NvmeSpdk`. Writeback batches go through one deep
    /// queue pair per copy, so both devices serve them concurrently. Off
    /// by default: single-device runs are bit-for-bit unchanged.
    pub mirror: bool,
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
            huge_pages: false,
            mirror: false,
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
    /// Replacement and write-behind policy.
    pub policy: MmioPolicy,
}

impl AquilaConfig {
    /// Starts a builder for a `cores`-core machine with a cache of
    /// `cache_frames` frames. The NUMA shape follows from `cores`: more
    /// than 16 cores are two nodes, fewer are one.
    pub fn builder(cores: usize, cache_frames: usize) -> AquilaConfigBuilder {
        AquilaConfigBuilder {
            cfg: AquilaConfig {
                cores,
                cache_frames,
                max_cache_frames: cache_frames,
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

    /// Replaces the whole policy section at once.
    pub fn policy(mut self, policy: MmioPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Finishes the configuration.
    ///
    /// Under [`WritePolicy::Async`] with unset (0) watermarks, defaults
    /// are derived from the cache size: low = frames/8, high = frames/4.
    /// `high_watermark` is clamped to at least `low_watermark`.
    pub fn build(self) -> AquilaConfig {
        let mut cfg = self.cfg;
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
        assert!(!cfg.policy.huge_pages, "huge pages must be opt-in");
        assert_eq!(
            crate::session::TenantSpec::unlimited(1).quota_frames,
            0,
            "QoS must be opt-in: a tenant declares a quota to get it"
        );
        assert!(!cfg.policy.mirror, "mirroring must be opt-in");
    }

    #[test]
    fn async_derives_watermarks_from_cache_size() {
        let cfg = AquilaConfig::builder(2, 4096)
            .policy(MmioPolicy {
                write_policy: WritePolicy::Async,
                ..MmioPolicy::default()
            })
            .build();
        assert_eq!(cfg.policy.low_watermark, 512);
        assert_eq!(cfg.policy.high_watermark, 1024);
    }

    #[test]
    fn explicit_watermarks_survive_and_clamp() {
        let cfg = AquilaConfig::builder(2, 4096)
            .policy(MmioPolicy {
                write_policy: WritePolicy::Async,
                low_watermark: 100,
                high_watermark: 50,
                ..MmioPolicy::default()
            })
            .build();
        assert_eq!(cfg.policy.low_watermark, 100);
        assert_eq!(cfg.policy.high_watermark, 100, "clamped up to low");
    }
}
