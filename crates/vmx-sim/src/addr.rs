//! Guest-physical addresses.
//!
//! Intel VT-x translates in two stages: guest virtual -> guest physical
//! (regular page tables, owned by the guest — see the `aquila-mmu` crate)
//! and guest physical -> host physical (the EPT, owned by the hypervisor).
//! The simulation models the first stage; a distinct newtype keeps guest
//! physical addresses from being mixed up with guest virtual ones.

use core::fmt;

/// Size of a 1 GiB huge page: the EPT granule that maps Aquila's DRAM
/// cache (section 3.5).
pub const PAGE_1G: u64 = 1 << 30;

/// A guest-physical address (GPA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gpa(pub u64);

impl Gpa {
    /// Returns the raw address.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Gpa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gpa({:#x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_hex() {
        assert_eq!(format!("{}", Gpa(0xff)), "Gpa(0xff)");
    }
}
