//! Key-value stores for the Aquila evaluation.
//!
//! - [`lsm::StoneDb`] — a RocksDB-style LSM tree (skiplist memtable,
//!   leveled SSTs with bloom filters, compaction), generic over an
//!   [`env::Env`]: direct I/O + user cache, Linux `mmap`, or Aquila mmio
//!   (the Figure 5/7 comparison);
//! - [`kreon::Krill`] — a Kreon-style mmio-native store (value log +
//!   per-level index) over any [`aquila_sim::MemRegion`]: kmmap or Aquila
//!   (the Figure 9 comparison).

#![forbid(unsafe_code)]

pub mod block;
pub mod bloom;
pub mod env;
pub mod kreon;
pub mod lsm;
pub mod memtable;
pub mod sst;

pub use env::{AquilaEnv, DirectIoEnv, DynEnv, Env, EnvFile, EnvKind, MmapEnv};
pub use kreon::{Krill, KrillConfig, KrillError};
pub use lsm::{StoneConfig, StoneDb};
pub use memtable::Memtable;
pub use sst::{SstReader, SstWriter};
