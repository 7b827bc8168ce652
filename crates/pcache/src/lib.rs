//! The Aquila DRAM I/O cache (paper section 3.2).
//!
//! A scalable page cache purpose-built for mmio, replacing the Linux
//! kernel buffer cache that FastMap showed does not scale:
//!
//! - [`hashtable::LockFreeMap`] — the cached-page index with no global
//!   contention point (lock-free reads, per-bucket-locked writes);
//! - [`freelist::Freelist`] — the hierarchical two-level (per-core +
//!   per-NUMA-node) frame allocator with batched level movement;
//! - [`lru::ClockLru`] — the LRU approximation updated on page faults;
//! - [`dirty::DirtyTrees`] — per-core device-offset-sorted dirty trees
//!   enabling merged writeback I/Os and fast `msync`;
//! - [`cache::DramCache`] — the assembled cache with batched (512-page)
//!   eviction, dynamic grow/shrink, and a policy/mechanism split that
//!   leaves page tables and shootdowns to the mmio engine.

#![forbid(unsafe_code)]

pub mod cache;
pub mod dirty;
pub mod freelist;
pub mod hashtable;
pub mod key;
pub mod lru;

pub use cache::{CacheConfig, DramCache, Victim, MAX_TENANTS};
pub use dirty::{coalesce_runs, DirtyPage, DirtyTrees};
pub use freelist::{AllocOutcome, Freelist, FreelistConfig, NumaTopology};
pub use hashtable::{InsertOutcome, LockFreeMap};
pub use key::PageKey;
pub use lru::ClockLru;
