//! Per-core dirty-page trees, sorted by device offset.
//!
//! Paper section 3.2: dirty pages live in a structure *separate* from the
//! page hash table (FastMap's key insight) so writeback and `msync` never
//! contend with lookups; and to avoid one contended lock, there is one
//! sorted tree *per core*. Keeping the trees sorted by device offset makes
//! merging dirty pages into large sequential write I/Os cheap — writeback
//! merges the per-core trees like sorted runs.
//!
//! Rust's `BTreeMap` stands in for the paper's red-black trees: both are
//! ordered maps with logarithmic operations; only the constant differs,
//! and the cost model charges the paper-calibrated `rbtree_op` per
//! operation regardless.

use std::collections::BTreeMap;

use aquila_sync::Mutex;

use aquila_mmu::FrameId;

use crate::key::PageKey;

/// A dirty page entry queued for writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtyPage {
    /// The file page that is dirty.
    pub key: PageKey,
    /// The cache frame holding the dirty data.
    pub frame: FrameId,
}

/// Per-core tree contents: `(file, page) -> frame`.
type Tree = BTreeMap<(u32, u64), FrameId>;

/// The per-core dirty trees.
///
/// A page sits in at most one tree: each frame has a dirty word holding
/// the owning core plus one (0 while clean). Marking sets it only while
/// it is 0, so a page re-dirtied from another core (a fresh mapping of a
/// still-dirty page) is not entered twice; eviction, drains and
/// migration read and clear it, and removal goes to the one tree the
/// word names. Trees and words are plain state in one `aquila_sync`
/// cell; the per-core trees are the model, and the race detector sees
/// them through the cache's per-core annotations.
pub struct DirtyTrees {
    state: Mutex<Dirty>,
}

struct Dirty {
    trees: Vec<Tree>,
    owner: Vec<u32>,
}

impl Dirty {
    /// Removes `k` from tree `core` and clears its frame's dirty word.
    fn drain_one(&mut self, core: usize, k: (u32, u64), out: &mut Vec<DirtyPage>) {
        let frame = self.trees[core].remove(&k).expect("key just observed");
        self.owner[frame.0 as usize] = 0;
        out.push(DirtyPage {
            key: PageKey::new(k.0, k.1),
            frame,
        });
    }
}

impl DirtyTrees {
    /// Creates trees for `cores` cores over a pool of `frames` frames.
    pub fn new(cores: usize, frames: usize) -> DirtyTrees {
        DirtyTrees {
            state: Mutex::new(Dirty {
                trees: vec![BTreeMap::new(); cores.max(1)],
                owner: vec![0; frames],
            }),
        }
    }

    /// Number of per-core trees.
    pub fn cores(&self) -> usize {
        self.state.lock().trees.len()
    }

    /// Marks `key` (held in `frame`) dirty from `core`. Returns false,
    /// changing nothing, if the frame is already dirty in any core's tree.
    pub fn insert(&self, core: usize, key: PageKey, frame: FrameId) -> bool {
        let d = &mut *self.state.lock();
        let core = core % d.trees.len();
        let word = &mut d.owner[frame.0 as usize];
        if *word != 0 {
            return false;
        }
        *word = core as u32 + 1;
        d.trees[core].insert((key.file, key.page), frame);
        true
    }

    /// Cleans `frame`, which holds `key`: clears its dirty word and
    /// removes the page from the one tree the word named. Returns that
    /// tree's core, or `None` if the frame was clean.
    pub fn take(&self, frame: FrameId, key: PageKey) -> Option<usize> {
        let d = &mut *self.state.lock();
        let core = std::mem::take(&mut d.owner[frame.0 as usize]);
        if core == 0 {
            return None;
        }
        let core = core as usize - 1;
        d.trees[core].remove(&(key.file, key.page));
        Some(core)
    }

    /// Whether `frame` holds a dirty page: its dirty word, no tree
    /// search.
    pub fn is_dirty(&self, frame: FrameId) -> bool {
        self.state.lock().owner[frame.0 as usize] != 0
    }

    /// Total dirty pages across all trees.
    pub fn len(&self) -> usize {
        self.state.lock().trees.iter().map(Tree::len).sum()
    }

    /// Whether no pages are dirty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains all dirty pages of `file` whose page index lies in
    /// `[start, end)`, merged across cores in device-offset order (the
    /// `msync` and writeback path).
    pub fn drain_file_range(&self, file: u32, start: u64, end: u64) -> Vec<DirtyPage> {
        let d = &mut *self.state.lock();
        let mut merged: Vec<DirtyPage> = Vec::new();
        for core in 0..d.trees.len() {
            let keys: Vec<(u32, u64)> = d.trees[core]
                .range((file, start)..(file, end))
                .map(|(&k, _)| k)
                .collect();
            for k in keys {
                d.drain_one(core, k, &mut merged);
            }
        }
        // Per-core trees are sorted runs; a final sort merges them.
        merged.sort_by_key(|d| (d.key.file, d.key.page));
        merged
    }

    /// Drains every dirty page (shutdown / full sync), sorted by device
    /// offset.
    pub fn drain_all(&self) -> Vec<DirtyPage> {
        let d = &mut *self.state.lock();
        let mut merged: Vec<DirtyPage> = Vec::new();
        for core in 0..d.trees.len() {
            while let Some(&k) = d.trees[core].keys().next() {
                d.drain_one(core, k, &mut merged);
            }
        }
        merged.sort_by_key(|d| (d.key.file, d.key.page));
        merged
    }
}

impl core::fmt::Debug for DirtyTrees {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "DirtyTrees {{ cores: {}, dirty: {} }}",
            self.cores(),
            self.len()
        )
    }
}

/// Coalesces device-offset-sorted dirty pages into contiguous runs, the
/// unit of large writeback I/Os (paper: "multiple sorted red-black trees
/// simplify merging of pages in larger I/Os").
///
/// Input must be sorted by `(file, page)`; each output run is a maximal
/// sequence of consecutive pages of one file.
pub fn coalesce_runs(pages: &[DirtyPage]) -> Vec<Vec<DirtyPage>> {
    let mut runs: Vec<Vec<DirtyPage>> = Vec::new();
    for &p in pages {
        match runs.last_mut() {
            Some(run) => {
                let last = run.last().expect("runs are non-empty");
                if last.key.file == p.key.file && last.key.page + 1 == p.key.page {
                    run.push(p);
                } else {
                    runs.push(vec![p]);
                }
            }
            None => runs.push(vec![p]),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dp(file: u32, page: u64, frame: u32) -> DirtyPage {
        DirtyPage {
            key: PageKey::new(file, page),
            frame: FrameId(frame),
        }
    }

    #[test]
    fn insert_take_roundtrip() {
        let t = DirtyTrees::new(4, 16);
        assert!(t.insert(1, PageKey::new(0, 5), FrameId(9)));
        assert!(!t.insert(1, PageKey::new(0, 5), FrameId(9)), "re-mark");
        assert_eq!(t.len(), 1);
        assert_eq!(t.take(FrameId(9), PageKey::new(0, 5)), Some(1));
        assert!(t.is_empty());
        assert_eq!(t.take(FrameId(9), PageKey::new(0, 5)), None);
    }

    #[test]
    fn a_page_dirtied_from_two_cores_sits_in_one_tree() {
        let t = DirtyTrees::new(4, 16);
        let key = PageKey::new(1, 2);
        assert!(t.insert(3, key, FrameId(7)));
        assert!(!t.insert(0, key, FrameId(7)), "already dirty on core 3");
        assert_eq!(t.len(), 1);
        assert!(t.is_dirty(FrameId(7)));
        assert_eq!(t.take(FrameId(7), key), Some(3), "the owning core's tree");
        assert!(t.is_empty() && !t.is_dirty(FrameId(7)));
        // Clean again: the next mark may come from any core.
        assert!(t.insert(0, key, FrameId(7)));
        assert_eq!(t.drain_all().len(), 1);
        assert!(t.insert(2, key, FrameId(7)), "a drain clears the word");
    }

    #[test]
    fn drain_file_range_is_sorted_and_scoped() {
        let t = DirtyTrees::new(4, 16);
        // Spread pages of file 1 across cores, plus noise in file 2.
        t.insert(0, PageKey::new(1, 30), FrameId(0));
        t.insert(1, PageKey::new(1, 10), FrameId(1));
        t.insert(2, PageKey::new(1, 20), FrameId(2));
        t.insert(3, PageKey::new(2, 15), FrameId(3));
        t.insert(0, PageKey::new(1, 99), FrameId(4));
        let drained = t.drain_file_range(1, 0, 50);
        let pages: Vec<u64> = drained.iter().map(|d| d.key.page).collect();
        assert_eq!(pages, vec![10, 20, 30], "sorted by device offset");
        // Out-of-range and other-file pages remain.
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn drain_all_empties_everything() {
        let t = DirtyTrees::new(2, 16);
        for i in 0..10 {
            t.insert(i as usize % 2, PageKey::new(0, 9 - i), FrameId(i as u32));
        }
        let all = t.drain_all();
        assert_eq!(all.len(), 10);
        assert!(all.windows(2).all(|w| w[0].key.page < w[1].key.page));
        assert!(t.is_empty());
    }

    #[test]
    fn coalesce_merges_contiguous_pages() {
        let pages = vec![
            dp(0, 1, 0),
            dp(0, 2, 1),
            dp(0, 3, 2),
            dp(0, 7, 3),
            dp(1, 8, 4),
            dp(1, 9, 5),
        ];
        let runs = coalesce_runs(&pages);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].len(), 3, "pages 1-3 of file 0");
        assert_eq!(runs[1].len(), 1, "page 7 of file 0");
        assert_eq!(runs[2].len(), 2, "file boundary splits runs");
    }

    #[test]
    fn coalesce_empty_input() {
        assert!(coalesce_runs(&[]).is_empty());
    }
}
