//! Device-level errors.
//!
//! Storage paths used to `panic!` on out-of-range I/O, mismatched
//! buffers, and overfull queues. Those conditions are *reportable*: a
//! mis-sized mmap window or an evictor pushing past its queue depth is
//! a caller bug or a backpressure signal, not a reason to abort the
//! simulation. Every fallible device operation returns [`DeviceError`],
//! which the engine surfaces through `AquilaError::Device`.

/// An error from a device-model operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// An I/O touched pages beyond the device capacity.
    OutOfRange {
        /// First page of the offending range.
        page: u64,
        /// Length of the range in pages.
        pages: usize,
        /// Device capacity in pages.
        capacity: u64,
    },
    /// A sub-page access crossed its page boundary.
    CrossesPage {
        /// Offset within the page.
        offset: usize,
        /// Length of the access.
        len: usize,
    },
    /// A buffer length did not match the requested page count.
    BufferSize {
        /// Bytes the operation required.
        expected: usize,
        /// Bytes the caller supplied.
        got: usize,
    },
    /// A bounded queue pair is full; poll completions and resubmit.
    QueueFull {
        /// The queue depth that was exceeded.
        depth: usize,
    },
    /// The medium failed the command (uncorrectable error). Transient;
    /// retryable with backoff.
    MediaError {
        /// First page of the failed transfer.
        page: u64,
    },
    /// The command did not complete within the device's deadline.
    /// Transient; retryable with backoff.
    Timeout,
    /// The controller reset; in-flight state was lost. Transient;
    /// retryable with backoff.
    DeviceReset,
    /// The retry layer's circuit breaker is open: too many consecutive
    /// command failures. Not retryable — callers must degrade.
    CircuitOpen,
    /// Data read back failed its integrity check and no replica could
    /// supply a clean copy. Transient from the retry layer's point of
    /// view (a one-shot in-flight flip re-reads clean), but persistent
    /// corruption exhausts the budget and feeds the breaker, so the
    /// engine degrades the region instead of serving garbage.
    Corrupt {
        /// First page of the corrupt transfer.
        page: u64,
    },
}

impl core::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeviceError::OutOfRange {
                page,
                pages,
                capacity,
            } => write!(
                f,
                "I/O beyond device capacity: pages {page}..{} of {capacity}",
                page + *pages as u64
            ),
            DeviceError::CrossesPage { offset, len } => {
                write!(
                    f,
                    "access at offset {offset} len {len} crosses page boundary"
                )
            }
            DeviceError::BufferSize { expected, got } => {
                write!(
                    f,
                    "buffer size {got} does not match transfer size {expected}"
                )
            }
            DeviceError::QueueFull { depth } => {
                write!(f, "queue pair full (depth {depth})")
            }
            DeviceError::MediaError { page } => {
                write!(f, "uncorrectable media error at page {page}")
            }
            DeviceError::Timeout => write!(f, "command timed out"),
            DeviceError::DeviceReset => write!(f, "device reset; command lost"),
            DeviceError::CircuitOpen => {
                write!(f, "circuit breaker open after consecutive device failures")
            }
            DeviceError::Corrupt { page } => {
                write!(f, "unrepairable data corruption at page {page}")
            }
        }
    }
}

impl DeviceError {
    /// Whether the error is a transient device condition worth retrying
    /// (as opposed to a caller bug or a backpressure signal).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            DeviceError::MediaError { .. }
                | DeviceError::Timeout
                | DeviceError::DeviceReset
                | DeviceError::Corrupt { .. }
        )
    }
}

impl std::error::Error for DeviceError {}
