//! **Aquila**: a library OS for customizable, low-overhead memory-mapped
//! I/O — a reproduction of "Memory-Mapped I/O on Steroids" (EuroSys '21).
//!
//! Aquila collocates the application, the I/O page cache, and device
//! access in VMX non-root ring 0, so the *common path* of mmio — page
//! faults, cache replacement, device I/O — never crosses a protection
//! boundary, while the *uncommon path* (mapping management, cache
//! resizing) goes to the hypervisor where full mmap compatibility and
//! protection are preserved.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use aquila::{AquilaRuntime, DeviceKind, Prot};
//! use aquila_sim::{CoreDebts, FreeCtx, SimCtx};
//!
//! let mut ctx = FreeCtx::new(1);
//! let debts = Arc::new(CoreDebts::new(1));
//! let rt = AquilaRuntime::build(&mut ctx, DeviceKind::PmemDax, 4096, 256, 1, debts);
//! rt.aquila.thread_enter(&mut ctx);
//!
//! let file = rt.open("/data/example", 64).unwrap();
//! let addr = rt.aquila.mmap(&mut ctx, file, 0, 64, Prot::RW).unwrap();
//! rt.aquila.write(&mut ctx, addr, b"hello, mmio").unwrap();
//! let mut back = [0u8; 11];
//! rt.aquila.read(&mut ctx, addr, &mut back).unwrap();
//! assert_eq!(&back, b"hello, mmio");
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod error;
pub mod file;
pub mod region;
mod rmap;
pub mod runtime;
pub mod session;

#[cfg(test)]
mod tests;

pub use aquila_devices::{IntegrityCounters, StorageAccess};
pub use aquila_mmu::Gva;
pub use aquila_vma::{Advice, Prot};
pub use config::{AquilaConfig, AquilaConfigBuilder, MmioPolicy, WritePolicy};
pub use engine::{Aquila, RegionState};
pub use error::AquilaError;
pub use file::{FileId, Files};
pub use region::AquilaRegion;
pub use runtime::{AquilaRuntime, DeviceKind};
pub use session::{Session, Tenant, TenantSpec};
