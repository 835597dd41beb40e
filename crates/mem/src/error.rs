//! Error type for the memory substrate.

use core::fmt;

use crate::{PageSize, VirtAddr};

/// Errors produced by the simulated memory subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Physical memory has no free block large enough for the request.
    OutOfMemory {
        /// Bytes that were requested.
        requested: u64,
    },
    /// No contiguous, aligned free block exists for the requested order,
    /// even though enough total memory is free (fragmentation).
    Fragmented {
        /// Requested page size.
        size: PageSize,
    },
    /// A translation was requested for an unmapped virtual address.
    NotMapped {
        /// The faulting address.
        addr: VirtAddr,
    },
    /// Attempted to map a page over an existing mapping.
    AlreadyMapped {
        /// Base of the conflicting page.
        addr: VirtAddr,
    },
    /// A page-table operation targeted a page of the wrong size
    /// (e.g. splintering a base page).
    WrongPageSize {
        /// The size that was found.
        found: PageSize,
        /// The size the operation needed.
        expected: PageSize,
    },
    /// Attempted to free a frame that is not allocated.
    NotAllocated,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory { requested } => {
                write!(f, "out of physical memory (requested {requested} bytes)")
            }
            MemError::Fragmented { size } => {
                write!(f, "no contiguous free block for a {size} page")
            }
            MemError::NotMapped { addr } => write!(f, "address {addr} is not mapped"),
            MemError::AlreadyMapped { addr } => write!(f, "address {addr} is already mapped"),
            MemError::WrongPageSize { found, expected } => {
                write!(f, "page has size {found}, expected {expected}")
            }
            MemError::NotAllocated => write!(f, "frame is not allocated"),
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = MemError::OutOfMemory { requested: 4096 };
        assert_eq!(
            e.to_string(),
            "out of physical memory (requested 4096 bytes)"
        );
        let e = MemError::Fragmented {
            size: PageSize::Super2M,
        };
        assert!(e.to_string().contains("2MB"));
        let e = MemError::WrongPageSize {
            found: PageSize::Base4K,
            expected: PageSize::Super2M,
        };
        assert!(e.to_string().contains("4KB"));
    }

    #[test]
    fn is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<MemError>();
    }
}
