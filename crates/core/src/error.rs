//! Error types of the Aquila public API.

use aquila_devices::DeviceError;
use aquila_mmu::Gva;

/// Errors surfaced by Aquila's mmap-compatible interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AquilaError {
    /// Access to an address with no valid mapping (SIGSEGV equivalent).
    Segfault(Gva),
    /// Write to a read-only mapping (SIGSEGV/EACCES equivalent).
    ProtectionViolation(Gva),
    /// Unknown file handle.
    BadFile,
    /// I/O beyond the end of the backing file.
    BeyondEof {
        /// Offending file page.
        page: u64,
        /// File length in pages.
        len: u64,
    },
    /// The blobstore or device ran out of space.
    NoSpace,
    /// The requested fixed mapping overlaps an existing one.
    MappingOverlap,
    /// The address range is not mapped (munmap/msync on a hole).
    NotMapped,
    /// The region was degraded to read-only after persistent device
    /// write failures (circuit breaker open): writes and `msync` are
    /// refused; reads keep working (DESIGN.md §11).
    DegradedReadOnly,
    /// A crash-recovery boot could not reassemble the stack from the
    /// captured device image.
    RecoveryFailed(&'static str),
    /// A storage-device operation failed (out-of-range I/O, mismatched
    /// buffer, full queue pair).
    Device(DeviceError),
    /// A read's data failed its integrity check on every copy (primary
    /// and replica): the engine refuses to map the poisoned page and
    /// degrades the region to read-only instead of serving garbage
    /// (DESIGN.md §16).
    DataCorrupted {
        /// The device page that could not be verified.
        page: u64,
    },
}

impl From<DeviceError> for AquilaError {
    fn from(e: DeviceError) -> AquilaError {
        AquilaError::Device(e)
    }
}

impl core::fmt::Display for AquilaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AquilaError::Segfault(gva) => write!(f, "segmentation fault at {gva}"),
            AquilaError::ProtectionViolation(gva) => {
                write!(f, "write to read-only mapping at {gva}")
            }
            AquilaError::BadFile => write!(f, "bad file handle"),
            AquilaError::BeyondEof { page, len } => {
                write!(f, "access to page {page} beyond file length {len}")
            }
            AquilaError::NoSpace => write!(f, "out of storage space"),
            AquilaError::MappingOverlap => write!(f, "mapping overlaps existing range"),
            AquilaError::NotMapped => write!(f, "address range not mapped"),
            AquilaError::DegradedReadOnly => {
                write!(f, "region degraded to read-only; write refused")
            }
            AquilaError::RecoveryFailed(why) => write!(f, "crash recovery failed: {why}"),
            AquilaError::Device(e) => write!(f, "device error: {e}"),
            AquilaError::DataCorrupted { page } => {
                write!(f, "unrepairable data corruption at device page {page}")
            }
        }
    }
}

impl std::error::Error for AquilaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(format!("{}", AquilaError::Segfault(Gva(0x1000))).contains("0x1000"));
        assert!(format!("{}", AquilaError::BeyondEof { page: 9, len: 4 }).contains('9'));
        assert!(!format!("{}", AquilaError::BadFile).is_empty());
    }
}
