//! Storage substrate for the Aquila reproduction: devices, access paths,
//! and the SPDK-style blobstore.
//!
//! - [`nvme::NvmeDevice`] — an Optane P4800X-class NVMe model with real
//!   queue-pair submission/completion and an IOPS/bandwidth-capped timing
//!   model;
//! - [`pmem::PmemDevice`] — byte-addressable NVM with DAX access and the
//!   paper's SIMD-vs-scalar memcpy cost distinction;
//! - [`access`] — the four storage paths of Figure 8(c) (SPDK-NVMe,
//!   HOST-NVMe, DAX-pmem, HOST-pmem) behind one [`access::StorageAccess`]
//!   trait;
//! - [`spdk::Blobstore`] — the flat blob namespace Aquila maps files onto.
//!
//! Device contents are real bytes; only the timing is modelled.

#![forbid(unsafe_code)]

pub mod access;
pub mod error;
pub mod mirror;
pub mod nvme;
pub mod pmem;
pub mod retry;
pub mod spdk;
pub mod store;

pub use access::{
    AccessKind, CallDomain, DaxAccess, HostNvmeAccess, HostPmemAccess, SpdkAccess, StorageAccess,
};
pub use error::DeviceError;
pub use mirror::{IntegrityCounters, MirrorAccess};
pub use nvme::{BufRef, NvmeCompletion, NvmeDevice, NvmeOp, NvmeProfile, QueuePair};
pub use pmem::{PmemDevice, PmemProfile};
pub use retry::{CircuitBreaker, RetryPolicy};
pub use spdk::{BlobError, BlobId, Blobstore, MD_PAGES, PAGES_PER_CLUSTER};
pub use store::{page_list, PageStore, STORE_PAGE};
