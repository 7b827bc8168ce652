//! Per-category cycle accounting and event counters.

use crate::cost::CostCat;
use crate::time::Cycles;

/// Accumulates charged cycles per [`CostCat`].
///
/// This is what the figure binaries read to produce the paper's breakdown
/// plots (Figures 7, 8) and the user/system/idle split of Figure 6(c).
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    cells: [u64; CostCat::ALL.len()],
}

impl Breakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Breakdown {
        Breakdown::default()
    }

    /// Adds `c` cycles to category `cat`.
    #[inline]
    pub fn add(&mut self, cat: CostCat, c: Cycles) {
        self.cells[cat.index()] += c.get();
    }

    /// Cycles accumulated in `cat`.
    pub fn get(&self, cat: CostCat) -> Cycles {
        Cycles(self.cells[cat.index()])
    }

    /// Total cycles across all categories.
    pub fn total(&self) -> Cycles {
        Cycles(self.cells.iter().sum())
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &Breakdown) {
        for (a, b) in self.cells.iter_mut().zip(other.cells.iter()) {
            *a += b;
        }
    }

    /// Difference `self - other`, saturating at zero per category.
    pub fn since(&self, other: &Breakdown) -> Breakdown {
        let mut out = Breakdown::new();
        for (i, (a, b)) in self.cells.iter().zip(other.cells.iter()).enumerate() {
            out.cells[i] = a.saturating_sub(*b);
        }
        out
    }

    /// Fraction of the total that `cat` accounts for (0 when empty).
    pub fn share(&self, cat: CostCat) -> f64 {
        let total = self.total().get();
        if total == 0 {
            return 0.0;
        }
        self.get(cat).get() as f64 / total as f64
    }

    /// Iterates over non-empty `(category, cycles)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CostCat, Cycles)> + '_ {
        CostCat::ALL
            .iter()
            .copied()
            .filter(|c| self.cells[c.index()] > 0)
            .map(|c| (c, Cycles(self.cells[c.index()])))
    }

    /// Multi-line human-readable table, sorted by descending share.
    pub fn table(&self) -> String {
        let total = self.total().get().max(1);
        let mut rows: Vec<(CostCat, u64)> = CostCat::ALL
            .iter()
            .map(|&c| (c, self.cells[c.index()]))
            .filter(|&(_, v)| v > 0)
            .collect();
        rows.sort_by_key(|&(_, v)| core::cmp::Reverse(v));
        let mut out = String::new();
        for (cat, v) in rows {
            out.push_str(&format!(
                "  {:<14} {:>14} cyc  {:>5.1}%\n",
                cat.name(),
                v,
                100.0 * v as f64 / total as f64
            ));
        }
        out
    }
}

/// Defines [`Counters`] with every field enumerated exactly once.
///
/// `merge`, `NAMES`, and `iter` are all generated from the same field
/// list, so adding a counter cannot silently be dropped from merges or
/// from machine-readable reports (the bug class the old field-by-field
/// `merge` invited).
macro_rules! define_counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Simulation-wide event counters.
        #[derive(Debug, Clone, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl Counters {
            /// Field names, in declaration order (matches [`Self::iter`]).
            pub const NAMES: &'static [&'static str] = &[$(stringify!($name)),+];

            /// Creates zeroed counters.
            pub fn new() -> Counters {
                Counters::default()
            }

            /// Merges another counter set into this one.
            pub fn merge(&mut self, o: &Counters) {
                $(self.$name += o.$name;)+
            }

            /// Iterates over `(name, value)` pairs in declaration order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
                [$((stringify!($name), self.$name)),+].into_iter()
            }
        }
    };
}

define_counters! {
    /// Page faults taken (both minor and major).
    page_faults,
    /// Faults satisfied from the DRAM cache (minor).
    minor_faults,
    /// Faults that required device I/O (major).
    major_faults,
    /// Pages evicted from the DRAM cache.
    evictions,
    /// Dirty pages written back to the device.
    writebacks,
    /// Read I/O operations issued to a device.
    device_reads,
    /// Write I/O operations issued to a device.
    device_writes,
    /// Bytes read from devices.
    bytes_read,
    /// Bytes written to devices.
    bytes_written,
    /// TLB shootdown rounds (one IPI broadcast, possibly many pages).
    tlb_shootdowns,
    /// Individual page invalidations requested.
    tlb_invalidations,
    /// System calls executed through a kernel (host or guest-intercepted).
    syscalls,
    /// vmcalls / forced vmexits taken.
    vmexits,
    /// EPT violations handled by the hypervisor.
    ept_faults,
    /// Readahead pages fetched speculatively.
    readahead_pages,
    /// 2 MiB huge-page promotions (512-page runs collapsed to one PTE).
    huge_promotions,
    /// 2 MiB huge-page demotions (runs splintered back to 4 KiB).
    huge_demotions,
    /// Frame allocations refilled from a NUMA node queue (the vcore's
    /// own node or a remote one).
    freelist_refills,
    /// Of those refills, the ones a remote node served.
    freelist_remote_refills,
    /// Frame allocations that stole from a sibling vcore's queue.
    freelist_steals,
    /// Frames those steals moved: the one allocated plus the batch
    /// rebalanced to the thief.
    freelist_stolen_frames,
    /// Frame frees that overflowed the vcore queue into the node queue.
    freelist_spills,
    /// Evicted pages that were dirty.
    dirty_victims,
    /// Direct-reclaim eviction rounds on the fault path.
    direct_evict_rounds,
    /// Pages retired by direct-reclaim rounds.
    direct_evict_pages,
    /// Rounds of the write-behind evictor thread that retired pages.
    evictor_rounds,
    /// Pages retired by evictor rounds.
    evictor_pages,
    /// Page-table shard lock acquisitions.
    pt_shard_locks,
    /// Device write commands issued by writeback.
    writeback_ios,
    /// Region degradations (the one Healthy -> ReadOnly step).
    degrade_transitions,
    /// Pages an over-quota tenant evicted from its own frames.
    self_reclaim_pages,
    /// Faults refused because no copy of the page verified.
    read_refused,
    /// Pages the integrity scrubber visited.
    scrub_pages,
    /// Scrubbed pages repaired from the replica.
    scrub_repaired,
    /// Scrubbed pages that no copy could repair.
    scrub_unrepairable,
    /// Write faults that made a read-only 2 MiB leaf writable.
    huge_write_upgrades,
    /// Transient device errors the retry loop saw.
    transient_errors,
    /// Circuit-breaker trips.
    breaker_trips,
    /// Command retries after a transient error.
    retry_attempts,
    /// Blocking commands that completed past the command deadline.
    deadline_misses,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut b = Breakdown::new();
        b.add(CostCat::Trap, Cycles(100));
        b.add(CostCat::Trap, Cycles(50));
        b.add(CostCat::DeviceIo, Cycles(850));
        assert_eq!(b.get(CostCat::Trap), Cycles(150));
        assert_eq!(b.total(), Cycles(1000));
        assert!((b.share(CostCat::DeviceIo) - 0.85).abs() < 1e-12);
    }

    #[test]
    fn breakdown_merge_and_since() {
        let mut a = Breakdown::new();
        a.add(CostCat::App, Cycles(10));
        let snapshot = a.clone();
        a.add(CostCat::App, Cycles(5));
        a.add(CostCat::Tlb, Cycles(7));
        let delta = a.since(&snapshot);
        assert_eq!(delta.get(CostCat::App), Cycles(5));
        assert_eq!(delta.get(CostCat::Tlb), Cycles(7));

        let mut m = Breakdown::new();
        m.merge(&a);
        m.merge(&delta);
        assert_eq!(m.get(CostCat::App), Cycles(20));
    }

    #[test]
    fn iter_skips_empty_categories() {
        let mut b = Breakdown::new();
        b.add(CostCat::Memcpy, Cycles(1));
        let items: Vec<_> = b.iter().collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].0, CostCat::Memcpy);
    }

    #[test]
    fn table_sorted_by_share() {
        let mut b = Breakdown::new();
        b.add(CostCat::App, Cycles(1));
        b.add(CostCat::DeviceIo, Cycles(99));
        let t = b.table();
        let dev = t.find("device-io").unwrap();
        let app = t.find("app").unwrap();
        assert!(dev < app, "largest category first:\n{t}");
    }

    #[test]
    fn counters_merge() {
        let mut a = Counters::new();
        a.page_faults = 3;
        a.bytes_read = 4096;
        let mut b = Counters::new();
        b.page_faults = 2;
        b.tlb_shootdowns = 1;
        a.merge(&b);
        assert_eq!(a.page_faults, 5);
        assert_eq!(a.tlb_shootdowns, 1);
        assert_eq!(a.bytes_read, 4096);
    }

    #[test]
    fn counters_merge_covers_every_field() {
        // Set every counter to 1 through the generated iterator's field
        // list; a merge must double all of them. Guards against merge and
        // iter disagreeing with the struct definition.
        let mut a = Counters::new();
        let mut b = Counters::new();
        for c in [&mut a, &mut b] {
            c.page_faults = 1;
            c.minor_faults = 1;
            c.major_faults = 1;
            c.evictions = 1;
            c.writebacks = 1;
            c.device_reads = 1;
            c.device_writes = 1;
            c.bytes_read = 1;
            c.bytes_written = 1;
            c.tlb_shootdowns = 1;
            c.tlb_invalidations = 1;
            c.syscalls = 1;
            c.vmexits = 1;
            c.ept_faults = 1;
            c.readahead_pages = 1;
            c.huge_promotions = 1;
            c.huge_demotions = 1;
            c.freelist_refills = 1;
            c.freelist_remote_refills = 1;
            c.freelist_steals = 1;
            c.freelist_stolen_frames = 1;
            c.freelist_spills = 1;
            c.dirty_victims = 1;
            c.direct_evict_rounds = 1;
            c.direct_evict_pages = 1;
            c.evictor_rounds = 1;
            c.evictor_pages = 1;
            c.pt_shard_locks = 1;
            c.writeback_ios = 1;
            c.degrade_transitions = 1;
            c.self_reclaim_pages = 1;
            c.read_refused = 1;
            c.scrub_pages = 1;
            c.scrub_repaired = 1;
            c.scrub_unrepairable = 1;
            c.huge_write_upgrades = 1;
            c.transient_errors = 1;
            c.breaker_trips = 1;
            c.retry_attempts = 1;
            c.deadline_misses = 1;
        }
        a.merge(&b);
        assert_eq!(Counters::NAMES.len(), a.iter().count());
        for (name, v) in a.iter() {
            assert_eq!(v, 2, "counter {name} dropped from merge");
        }
    }

    #[test]
    fn counters_iter_matches_names() {
        let c = Counters::new();
        let from_iter: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(from_iter, Counters::NAMES);
    }

    #[test]
    fn empty_share_is_zero() {
        let b = Breakdown::new();
        assert_eq!(b.share(CostCat::App), 0.0);
    }
}
