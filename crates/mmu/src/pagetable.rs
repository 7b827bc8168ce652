//! The guest page table: a real four-level radix tree mapping GVA -> GPA.
//!
//! Aquila keeps a *single page table shared by all threads of a process*
//! (section 3.4), unlike RadixVM's per-core tables; this reduces total
//! page faults at the cost of requiring TLB shootdowns, which Aquila
//! batches. Dirty tracking works exactly as in the paper (section 3.2):
//! read faults install read-only mappings, and the subsequent write fault
//! marks the page dirty.

use aquila_vmx::Gpa;

use crate::addr::{Gva, Vpn, ENTRIES_PER_TABLE, HUGE_PAGE_PAGES, PAGE_SIZE, PT_LEVELS};

/// Permissions and state bits of a leaf page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PteFlags {
    /// Mapping is valid.
    pub present: bool,
    /// Writes allowed.
    pub writable: bool,
    /// Hardware-set on write (the simulation sets it on write access).
    pub dirty: bool,
    /// Hardware-set on any access.
    pub accessed: bool,
}

impl PteFlags {
    /// A present read-only mapping (initial state after a read fault).
    pub const RO: PteFlags = PteFlags {
        present: true,
        writable: false,
        dirty: false,
        accessed: false,
    };

    /// A present writable mapping.
    pub const RW: PteFlags = PteFlags {
        present: true,
        writable: true,
        dirty: false,
        accessed: false,
    };
}

/// A leaf entry: target guest-physical page plus flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Guest-physical page base this VPN maps to.
    pub gpa: Gpa,
    /// Entry flags.
    pub flags: PteFlags,
}

/// The kind of access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// A page-fault condition raised by translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFaultKind {
    /// No present mapping for the address.
    NotPresent,
    /// Present but the access violates the permissions (write to
    /// read-only — this is how dirty tracking faults arise).
    Protection,
}

/// The leaf granularity a translation resolved through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafKind {
    /// An ordinary 4 KiB PTE.
    Small,
    /// A 2 MiB PD-level huge leaf.
    Huge,
}

/// A radix slot. Directories (the PML4 root and its PDPTs) hold
/// [`Node::Dir`]; a PD slot holds a [`Node::Leaves`] table of 4 KiB PTEs
/// or a [`Node::Huge`] leaf. Each level is one boxed array, so a walk
/// makes one dependent load per level.
enum Node {
    /// The next directory down: 512 slots.
    Dir(Box<[Node; ENTRIES_PER_TABLE]>),
    /// A level-0 table under a PD slot: 512 4 KiB leaf entries.
    Leaves(Box<[Option<Pte>; ENTRIES_PER_TABLE]>),
    /// A 2 MiB leaf installed directly in a level-1 (PD) slot; `gpa` is
    /// the 2 MiB-aligned base of the backing guest-physical run.
    Huge(Pte),
    Empty,
}

/// A boxed 512-entry level, built on the heap.
fn new_level<T>(mut empty: impl FnMut() -> T) -> Box<[T; ENTRIES_PER_TABLE]> {
    let slots: Box<[T]> = (0..ENTRIES_PER_TABLE).map(|_| empty()).collect();
    match slots.try_into() {
        Ok(level) => level,
        Err(_) => unreachable!("collected exactly one level of slots"),
    }
}

/// A four-level page table (one per process, shared by all threads).
pub struct PageTable {
    root: Box<[Node; ENTRIES_PER_TABLE]>,
    mapped: u64,
    huge_mapped: u64,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> PageTable {
        PageTable {
            root: new_level(|| Node::Empty),
            mapped: 0,
            huge_mapped: 0,
        }
    }

    /// Number of present leaf mappings, in 4 KiB-page equivalents (a
    /// huge leaf counts as 512).
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Number of 2 MiB huge leaves currently installed.
    pub fn huge_mapped(&self) -> u64 {
        self.huge_mapped
    }

    /// Installs (or replaces) the mapping for the page containing `gva`.
    ///
    /// Returns the previous entry, if any.
    pub fn map(&mut self, gva: Gva, gpa: Gpa, flags: PteFlags) -> Option<Pte> {
        let slot = self.pd_slot_mut_create(gva);
        if matches!(slot, Node::Empty) {
            *slot = Node::Leaves(new_level(|| None));
        }
        let leaves = match slot {
            Node::Leaves(t) => t,
            Node::Huge(_) => panic!("4 KiB map inside a promoted 2 MiB region; demote first"),
            Node::Dir(_) | Node::Empty => unreachable!("a PD slot holds leaves"),
        };
        let prev = leaves[gva.pt_index(0)].replace(Pte { gpa, flags });
        if prev.is_none() {
            self.mapped += 1;
        }
        prev
    }

    /// Removes the mapping for the page containing `gva`.
    pub fn unmap(&mut self, gva: Gva) -> Option<Pte> {
        let leaf = self.leaf_mut(gva)?;
        let prev = leaf.take();
        if prev.is_some() {
            self.mapped -= 1;
        }
        prev
    }

    /// Reads the entry for the page containing `gva` without access
    /// checks. A huge leaf is reported as its synthesized 4 KiB slice, so
    /// callers that reason per-page keep working.
    pub fn lookup(&self, gva: Gva) -> Option<Pte> {
        self.lookup_leaf(gva).map(|(pte, kind)| match kind {
            LeafKind::Small => pte,
            LeafKind::Huge => Pte {
                gpa: Gpa(pte.gpa.get() + gva.vpn().huge_index() * PAGE_SIZE),
                flags: pte.flags,
            },
        })
    }

    /// Reads the *leaf* covering `gva`: the 4 KiB PTE, or the covering
    /// 2 MiB huge leaf (base GPA, not the per-page slice) with
    /// [`LeafKind::Huge`].
    pub fn lookup_leaf(&self, gva: Gva) -> Option<(Pte, LeafKind)> {
        match self.pd_slot(gva)? {
            Node::Leaves(t) => t[gva.pt_index(0)].map(|pte| (pte, LeafKind::Small)),
            Node::Huge(pte) => Some((*pte, LeafKind::Huge)),
            Node::Dir(_) | Node::Empty => None,
        }
    }

    /// Translates an access, updating accessed/dirty bits like hardware
    /// would. Resolves through either a 4 KiB PTE or a 2 MiB huge leaf.
    pub fn translate(&mut self, gva: Gva, access: Access) -> Result<Gpa, PageFaultKind> {
        self.translate_leaf(gva, access).map(|(gpa, ..)| gpa)
    }

    /// [`PageTable::translate`] that also returns the leaf it resolved
    /// through, with the accessed/dirty bits it just set — what
    /// [`PageTable::lookup_leaf`] would read after the walk.
    pub fn translate_leaf(
        &mut self,
        gva: Gva,
        access: Access,
    ) -> Result<(Gpa, Pte, LeafKind), PageFaultKind> {
        let (pte, off, kind) = match self.pd_slot_mut(gva) {
            Some(Node::Huge(pte)) => (pte, gva.huge_offset(), LeafKind::Huge),
            Some(Node::Leaves(t)) => match &mut t[gva.pt_index(0)] {
                Some(p) => (p, gva.page_offset(), LeafKind::Small),
                None => return Err(PageFaultKind::NotPresent),
            },
            _ => return Err(PageFaultKind::NotPresent),
        };
        if !pte.flags.present {
            return Err(PageFaultKind::NotPresent);
        }
        if access == Access::Write && !pte.flags.writable {
            return Err(PageFaultKind::Protection);
        }
        pte.flags.accessed = true;
        if access == Access::Write {
            pte.flags.dirty = true;
        }
        Ok((Gpa(pte.gpa.get() + off), *pte, kind))
    }

    /// Updates the flags of an existing mapping (the `mprotect` /
    /// write-enable path). Returns the old flags. On a huge leaf the new
    /// flags apply to the whole 2 MiB region.
    pub fn protect(&mut self, gva: Gva, flags: PteFlags) -> Option<PteFlags> {
        let pte = match self.pd_slot_mut(gva)? {
            Node::Huge(pte) => pte,
            Node::Leaves(t) => t[gva.pt_index(0)].as_mut()?,
            Node::Dir(_) | Node::Empty => return None,
        };
        Some(std::mem::replace(&mut pte.flags, flags))
    }

    /// Installs a 2 MiB huge leaf at the (2 MiB-aligned) `gva`, mapping
    /// it to the (2 MiB-aligned) `gpa` run. Any 4 KiB mappings previously
    /// present under the slot are displaced; the caller is expected to
    /// have unmapped and shot them down first, so the return value — the
    /// number of displaced 4 KiB leaves — is normally 0.
    pub fn map_huge(&mut self, gva: Gva, gpa: Gpa, flags: PteFlags) -> u64 {
        debug_assert_eq!(gva.huge_offset(), 0, "huge map requires 2M-aligned GVA");
        debug_assert_eq!(gpa.get() % (HUGE_PAGE_PAGES * PAGE_SIZE), 0);
        let slot = self.pd_slot_mut_create(gva);
        let displaced = match std::mem::replace(slot, Node::Huge(Pte { gpa, flags })) {
            Node::Leaves(t) => t.iter().filter(|l| l.is_some()).count() as u64,
            Node::Huge(_) => HUGE_PAGE_PAGES,
            Node::Empty => 0,
            Node::Dir(_) => unreachable!("a PD slot holds leaves"),
        };
        self.mapped -= displaced;
        if displaced == HUGE_PAGE_PAGES {
            self.huge_mapped -= 1;
        }
        self.mapped += HUGE_PAGE_PAGES;
        self.huge_mapped += 1;
        displaced
    }

    /// Removes the huge leaf covering `gva` (the splinter/demote path).
    /// The 4 KiB slices become not-present and refault on demand.
    pub fn unmap_huge(&mut self, gva: Gva) -> Option<Pte> {
        match self.pd_slot_mut(gva) {
            Some(slot @ Node::Huge(_)) => {
                let Node::Huge(pte) = std::mem::replace(slot, Node::Empty) else {
                    unreachable!("matched huge above");
                };
                self.mapped -= HUGE_PAGE_PAGES;
                self.huge_mapped -= 1;
                Some(pte)
            }
            _ => None,
        }
    }

    /// Visits all present mappings in the VPN range `[start, end)`.
    pub fn for_range(&self, start: Vpn, end: Vpn, mut f: impl FnMut(Vpn, Pte)) {
        // The radix is sparse; ranges in this workspace are modest, so a
        // straightforward per-page probe is clear and fast enough.
        let mut vpn = start;
        while vpn < end {
            if let Some(pte) = self.lookup(vpn.base()) {
                f(vpn, pte);
            }
            vpn = vpn.next();
        }
    }

    /// 4 KiB leaf slot, if the walk reaches a level-0 table. A covering
    /// huge leaf yields `None`: per-page mutation under a promoted region
    /// is a caller bug (demote first).
    fn leaf_mut(&mut self, gva: Gva) -> Option<&mut Option<Pte>> {
        match self.pd_slot_mut(gva)? {
            Node::Leaves(t) => Some(&mut t[gva.pt_index(0)]),
            _ => None,
        }
    }

    /// The level-1 (PD) slot covering `gva`, without creating tables.
    fn pd_slot(&self, gva: Gva) -> Option<&Node> {
        let mut dir = &self.root;
        for level in (2..PT_LEVELS).rev() {
            match &dir[gva.pt_index(level)] {
                Node::Dir(d) => dir = d,
                _ => return None,
            }
        }
        Some(&dir[gva.pt_index(1)])
    }

    /// [`PageTable::pd_slot`], mutably.
    fn pd_slot_mut(&mut self, gva: Gva) -> Option<&mut Node> {
        let mut dir = &mut self.root;
        for level in (2..PT_LEVELS).rev() {
            match &mut dir[gva.pt_index(level)] {
                Node::Dir(d) => dir = d,
                _ => return None,
            }
        }
        Some(&mut dir[gva.pt_index(1)])
    }

    /// The level-1 (PD) slot covering `gva`, creating directories on the
    /// way down.
    fn pd_slot_mut_create(&mut self, gva: Gva) -> &mut Node {
        let mut dir = &mut self.root;
        for level in (2..PT_LEVELS).rev() {
            let slot = &mut dir[gva.pt_index(level)];
            if matches!(slot, Node::Empty) {
                *slot = Node::Dir(new_level(|| Node::Empty));
            }
            dir = match slot {
                Node::Dir(d) => d,
                _ => unreachable!("levels above 1 hold only directories"),
            };
        }
        &mut dir[gva.pt_index(1)]
    }
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_unmap() {
        let mut pt = PageTable::new();
        let gva = Gva(0x7000_0000_1000);
        assert_eq!(
            pt.translate(gva, Access::Read),
            Err(PageFaultKind::NotPresent)
        );
        pt.map(gva, Gpa(0x4000), PteFlags::RW);
        assert_eq!(pt.translate(gva.add(0x123), Access::Read), Ok(Gpa(0x4123)));
        assert_eq!(pt.mapped_pages(), 1);
        let prev = pt.unmap(gva).unwrap();
        assert_eq!(prev.gpa, Gpa(0x4000));
        assert_eq!(
            pt.translate(gva, Access::Read),
            Err(PageFaultKind::NotPresent)
        );
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn write_to_readonly_is_protection_fault() {
        let mut pt = PageTable::new();
        let gva = Gva(0x1000);
        pt.map(gva, Gpa(0x2000), PteFlags::RO);
        assert_eq!(pt.translate(gva, Access::Read), Ok(Gpa(0x2000)));
        assert_eq!(
            pt.translate(gva, Access::Write),
            Err(PageFaultKind::Protection)
        );
    }

    #[test]
    fn dirty_and_accessed_bits_are_set() {
        let mut pt = PageTable::new();
        let gva = Gva(0x2000);
        pt.map(gva, Gpa(0x3000), PteFlags::RW);
        assert!(!pt.lookup(gva).unwrap().flags.accessed);
        pt.translate(gva, Access::Read).unwrap();
        let e = pt.lookup(gva).unwrap();
        assert!(e.flags.accessed);
        assert!(!e.flags.dirty);
        pt.translate(gva, Access::Write).unwrap();
        assert!(pt.lookup(gva).unwrap().flags.dirty);
    }

    #[test]
    fn protect_enables_writes() {
        let mut pt = PageTable::new();
        let gva = Gva(0x5000);
        pt.map(gva, Gpa(0x6000), PteFlags::RO);
        assert_eq!(
            pt.translate(gva, Access::Write),
            Err(PageFaultKind::Protection)
        );
        let old = pt.protect(gva, PteFlags::RW).unwrap();
        assert!(!old.writable);
        assert_eq!(pt.translate(gva, Access::Write), Ok(Gpa(0x6000)));
        assert!(pt.protect(Gva(0xdead_0000), PteFlags::RW).is_none());
    }

    #[test]
    fn remap_replaces_and_counts_once() {
        let mut pt = PageTable::new();
        let gva = Gva(0x9000);
        assert!(pt.map(gva, Gpa(0x1000), PteFlags::RW).is_none());
        let prev = pt.map(gva, Gpa(0x2000), PteFlags::RO).unwrap();
        assert_eq!(prev.gpa, Gpa(0x1000));
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn distant_addresses_do_not_collide() {
        let mut pt = PageTable::new();
        // Same low indices, different PML4 slots.
        let a = Gva(0x0000_0000_0000_1000);
        let b = Gva(0x0000_7F00_0000_1000);
        pt.map(a, Gpa(0xA000), PteFlags::RW);
        pt.map(b, Gpa(0xB000), PteFlags::RW);
        assert_eq!(pt.translate(a, Access::Read), Ok(Gpa(0xA000)));
        assert_eq!(pt.translate(b, Access::Read), Ok(Gpa(0xB000)));
        assert_eq!(pt.mapped_pages(), 2);
    }

    #[test]
    fn for_range_visits_present_pages() {
        let mut pt = PageTable::new();
        for i in [1u64, 3, 4] {
            pt.map(Gva(i * 4096), Gpa(i * 0x1_0000), PteFlags::RW);
        }
        let mut seen = Vec::new();
        pt.for_range(Vpn(0), Vpn(6), |vpn, pte| seen.push((vpn.0, pte.gpa.get())));
        assert_eq!(seen, vec![(1, 0x1_0000), (3, 0x3_0000), (4, 0x4_0000)]);
    }

    #[test]
    fn unmap_missing_returns_none() {
        let mut pt = PageTable::new();
        assert!(pt.unmap(Gva(0x123000)).is_none());
    }

    const HUGE: u64 = HUGE_PAGE_PAGES * PAGE_SIZE;

    #[test]
    fn huge_map_translates_every_slice() {
        let mut pt = PageTable::new();
        let gva = Gva(4 * HUGE);
        let gpa = Gpa(16 * HUGE);
        assert_eq!(pt.map_huge(gva, gpa, PteFlags::RW), 0);
        assert_eq!(pt.mapped_pages(), HUGE_PAGE_PAGES);
        assert_eq!(pt.huge_mapped(), 1);
        // First, middle, and last 4K slices all resolve through the leaf.
        for off in [0u64, 255 * PAGE_SIZE + 0x123, HUGE - 1] {
            assert_eq!(
                pt.translate(gva.add(off), Access::Write),
                Ok(Gpa(gpa.get() + off))
            );
        }
        // Per-page lookup synthesizes the slice PTE.
        let slice = pt.lookup(gva.add(7 * PAGE_SIZE)).unwrap();
        assert_eq!(slice.gpa, Gpa(gpa.get() + 7 * PAGE_SIZE));
        let (leaf, kind) = pt.lookup_leaf(gva.add(7 * PAGE_SIZE)).unwrap();
        assert_eq!(kind, LeafKind::Huge);
        assert_eq!(leaf.gpa, gpa);
    }

    #[test]
    fn huge_write_to_readonly_faults_and_protect_upgrades_whole_leaf() {
        let mut pt = PageTable::new();
        let gva = Gva(2 * HUGE);
        pt.map_huge(gva, Gpa(8 * HUGE), PteFlags::RO);
        let inside = gva.add(100 * PAGE_SIZE);
        assert!(pt.translate(inside, Access::Read).is_ok());
        assert_eq!(
            pt.translate(inside, Access::Write),
            Err(PageFaultKind::Protection)
        );
        // protect on any covered address upgrades the whole leaf.
        let mut rw = PteFlags::RW;
        rw.dirty = true;
        let old = pt.protect(inside, rw).unwrap();
        assert!(!old.writable);
        assert!(pt.translate(gva.add(HUGE - 1), Access::Write).is_ok());
        assert!(pt.lookup_leaf(gva).unwrap().0.flags.dirty);
    }

    #[test]
    fn unmap_huge_splinters_to_not_present() {
        let mut pt = PageTable::new();
        let gva = Gva(HUGE);
        pt.map_huge(gva, Gpa(4 * HUGE), PteFlags::RW);
        let pte = pt.unmap_huge(gva.add(33 * PAGE_SIZE)).unwrap();
        assert_eq!(pte.gpa, Gpa(4 * HUGE));
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(pt.huge_mapped(), 0);
        assert_eq!(
            pt.translate(gva, Access::Read),
            Err(PageFaultKind::NotPresent)
        );
        // The region accepts ordinary 4K maps again after the splinter.
        pt.map(gva, Gpa(0x7000), PteFlags::RW);
        assert_eq!(pt.translate(gva, Access::Read), Ok(Gpa(0x7000)));
        assert!(pt.unmap_huge(gva).is_none());
    }

    #[test]
    fn huge_map_reports_displaced_small_leaves() {
        let mut pt = PageTable::new();
        let gva = Gva(3 * HUGE);
        pt.map(gva, Gpa(0x1000), PteFlags::RW);
        pt.map(gva.add(5 * PAGE_SIZE), Gpa(0x2000), PteFlags::RO);
        assert_eq!(pt.map_huge(gva, Gpa(32 * HUGE), PteFlags::RW), 2);
        assert_eq!(pt.mapped_pages(), HUGE_PAGE_PAGES);
    }

    #[test]
    fn huge_map_over_half_filled_leaves_then_fresh_leaves_after_unmap() {
        let mut pt = PageTable::new();
        let gva = Gva(5 * HUGE);
        for i in (0..HUGE_PAGE_PAGES).step_by(2) {
            pt.map(gva.add(i * PAGE_SIZE), Gpa(i * PAGE_SIZE), PteFlags::RW);
        }
        assert_eq!(pt.mapped_pages(), HUGE_PAGE_PAGES / 2);
        assert_eq!(
            pt.map_huge(gva, Gpa(64 * HUGE), PteFlags::RW),
            HUGE_PAGE_PAGES / 2
        );
        assert_eq!(pt.mapped_pages(), HUGE_PAGE_PAGES);
        assert_eq!(pt.huge_mapped(), 1);
        assert!(pt.unmap_huge(gva).is_some());
        // The displaced leaf table is gone: one map builds a fresh one
        // holding only the new entry.
        assert_eq!(
            pt.map(gva.add(2 * PAGE_SIZE), Gpa(0x9000), PteFlags::RO),
            None
        );
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(pt.lookup_leaf(gva), None);
        assert_eq!(
            pt.lookup_leaf(gva.add(2 * PAGE_SIZE)),
            Some((
                Pte {
                    gpa: Gpa(0x9000),
                    flags: PteFlags::RO
                },
                LeafKind::Small
            ))
        );
        let mut seen = 0;
        pt.for_range(gva.vpn(), Vpn(gva.vpn().0 + HUGE_PAGE_PAGES), |_, _| {
            seen += 1
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn translate_leaf_returns_the_updated_leaf() {
        let mut pt = PageTable::new();
        let small = Gva(0x3000);
        pt.map(small, Gpa(0x8000), PteFlags::RW);
        let (gpa, pte, kind) = pt.translate_leaf(small.add(0x10), Access::Write).unwrap();
        assert_eq!((gpa, kind), (Gpa(0x8010), LeafKind::Small));
        assert_eq!(Some((pte, kind)), pt.lookup_leaf(small));
        assert!(pte.flags.dirty && pte.flags.accessed);
        let huge = Gva(6 * HUGE);
        pt.map_huge(huge, Gpa(32 * HUGE), PteFlags::RO);
        let (gpa, pte, kind) = pt
            .translate_leaf(huge.add(PAGE_SIZE + 5), Access::Read)
            .unwrap();
        assert_eq!(
            (gpa, kind),
            (Gpa(32 * HUGE + PAGE_SIZE + 5), LeafKind::Huge)
        );
        assert_eq!(Some((pte, kind)), pt.lookup_leaf(huge));
        assert_eq!(
            pt.translate_leaf(huge, Access::Write),
            Err(PageFaultKind::Protection)
        );
    }

    #[test]
    fn huge_and_small_neighbours_coexist() {
        let mut pt = PageTable::new();
        let huge_gva = Gva(8 * HUGE);
        let small_gva = Gva(9 * HUGE + 3 * PAGE_SIZE);
        pt.map_huge(huge_gva, Gpa(64 * HUGE), PteFlags::RW);
        pt.map(small_gva, Gpa(0xABC000), PteFlags::RW);
        assert_eq!(pt.mapped_pages(), HUGE_PAGE_PAGES + 1);
        assert_eq!(
            pt.translate(huge_gva.add(12), Access::Read),
            Ok(Gpa(64 * HUGE + 12))
        );
        assert_eq!(pt.translate(small_gva, Access::Read), Ok(Gpa(0xABC000)));
        let mut seen = 0;
        pt.for_range(
            huge_gva.vpn(),
            Vpn(huge_gva.vpn().0 + HUGE_PAGE_PAGES),
            |_, _| seen += 1,
        );
        assert_eq!(seen, HUGE_PAGE_PAGES);
    }
}
