//! Storage substrate for the Aquila reproduction: devices, access paths,
//! and the SPDK-style blobstore.
//!
//! - [`nvme::NvmeDevice`] — an Optane P4800X-class NVMe model: blocking
//!   commands ([`nvme::NvmeDevice::execute`]), depth-bounded queue pairs
//!   for batches, and an IOPS/bandwidth-capped timing model;
//! - [`pmem::PmemDevice`] — byte-addressable NVM with DAX access and the
//!   paper's SIMD-vs-scalar memcpy cost distinction;
//! - [`access`] — the four storage paths of Figure 8(c) as two types
//!   behind one [`access::StorageAccess`] trait: [`access::NvmeAccess`]
//!   (SPDK-NVMe with a direct entry, HOST-NVMe with a host one) and
//!   [`access::PmemAccess`] (DAX-pmem direct, HOST-pmem through the
//!   host); [`mirror::MirrorAccess`] mirrors two direct NVMe paths;
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

pub use access::{AccessKind, CallDomain, Entry, NvmeAccess, PmemAccess, StorageAccess};
pub use error::DeviceError;
pub use mirror::{IntegrityCounters, MirrorAccess};
pub use nvme::{NvmeCmd, NvmeDevice, QueuePair};
pub use pmem::PmemDevice;
pub use spdk::{BlobError, BlobId, Blobstore, MD_PAGES, PAGES_PER_CLUSTER};
pub use store::{page_list, PageStore, STORE_PAGE};
