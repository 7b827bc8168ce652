//! Baseline I/O stacks the paper compares Aquila against.
//!
//! - [`mmap::LinuxMmap`] — Linux mmio: ring-3 fault traps, the
//!   single-lock kernel page cache, 128 KiB forced readahead, 32-page
//!   reclaim batches, on Aquila's [`aquila_mmu::Mmu`]; with
//!   [`mmap::LinuxConfig::kmmap`] it becomes
//!   Kreon's custom kernel path (lazy coalesced writeback, no forced
//!   readahead, batched `msync`);
//! - [`ucache::UserCache`] — the user-space block cache + O_DIRECT
//!   `pread` configuration RocksDB recommends (Figure 1(b));
//! - [`pagecache::KernelPageCache`] — the shared kernel page cache and
//!   its contended tree lock;
//! - [`device::KernelDevice`] — in-kernel fill paths (scalar-copy pmem,
//!   interrupt-driven NVMe).

#![forbid(unsafe_code)]

pub mod device;
pub mod mmap;
pub mod pagecache;
pub mod region;
pub mod ucache;

pub use device::KernelDevice;
pub use mmap::{LinuxConfig, LinuxError, LinuxFileId, LinuxMmap};
pub use pagecache::{KVictim, KernelPageCache};
pub use region::LinuxRegion;
pub use ucache::UserCache;
