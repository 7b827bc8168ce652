//! The reverse map: cache frame -> virtual pages mapping it.
//!
//! Eviction and promotion must find every PTE that points at a frame.
//! Almost every frame is mapped at most once, so the map is one word per
//! frame holding the first mapper as `vpn + 1` (0 = unmapped). A frame
//! mapped at more VPNs sets [`SPILL`] in its word and keeps the extra
//! VPNs, in push order, in one shared spill map. A frame with at most one
//! mapping never allocates.
//!
//! Every operation on one frame is atomic: words without [`SPILL`] change
//! by compare-and-swap, and a word with [`SPILL`] set changes only under
//! the spill lock. A lock-free operation publishes nothing but the word
//! itself (its Release writes pair with the Acquire loads of the same
//! word); spill-map contents are ordered by the spill lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use aquila_mmu::{FrameId, Vpn};
use aquila_sync::Mutex;

/// Word bit: more mappers of this frame live in the spill map.
const SPILL: u64 = 1 << 63;

/// Frame -> mapping VPNs, in the order they were pushed.
pub(crate) struct Rmap {
    words: Box<[AtomicU64]>,
    spill: Mutex<BTreeMap<u32, Vec<Vpn>>>,
}

impl Rmap {
    /// An empty map over `frames` frames.
    pub(crate) fn new(frames: usize) -> Rmap {
        Rmap {
            words: (0..frames).map(|_| AtomicU64::new(0)).collect(),
            spill: Mutex::new(BTreeMap::new()),
        }
    }

    fn word(&self, frame: FrameId) -> &AtomicU64 {
        &self.words[frame.0 as usize]
    }

    /// Replaces `cur` by `new`; false if another thread changed it first.
    fn cas(w: &AtomicU64, cur: u64, new: u64) -> bool {
        w.compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Appends `vpn` to the frame's mappers.
    pub(crate) fn push(&self, frame: FrameId, vpn: Vpn) {
        assert!(vpn.0 + 1 < SPILL, "vpn {vpn:?} too wide");
        let w = self.word(frame);
        if Self::cas(w, 0, vpn.0 + 1) {
            return;
        }
        let mut spill = self.spill.lock();
        loop {
            let cur = w.load(Ordering::Acquire);
            if cur == 0 {
                if Self::cas(w, 0, vpn.0 + 1) {
                    return;
                }
            } else if cur & SPILL != 0 || Self::cas(w, cur, cur | SPILL) {
                spill.entry(frame.0).or_default().push(vpn);
                return;
            }
        }
    }

    /// Removes every occurrence of `vpn` from the frame's mappers,
    /// keeping the others in order.
    pub(crate) fn remove(&self, frame: FrameId, vpn: Vpn) {
        let w = self.word(frame);
        loop {
            let cur = w.load(Ordering::Acquire);
            if cur & SPILL == 0 {
                if cur != vpn.0 + 1 || Self::cas(w, cur, 0) {
                    return;
                }
                continue;
            }
            let mut spill = self.spill.lock();
            let cur = w.load(Ordering::Acquire);
            if cur & SPILL == 0 {
                continue;
            }
            let rest = spill
                .remove(&frame.0)
                .expect("spill bit without spill entry");
            let mut all = std::iter::once(Vpn((cur & !SPILL) - 1))
                .chain(rest)
                .filter(|&p| p != vpn);
            let Some(first) = all.next() else {
                w.store(0, Ordering::Release);
                return;
            };
            let rest: Vec<Vpn> = all.collect();
            if rest.is_empty() {
                w.store(first.0 + 1, Ordering::Release);
            } else {
                w.store((first.0 + 1) | SPILL, Ordering::Release);
                spill.insert(frame.0, rest);
            }
            return;
        }
    }

    /// Empties the frame's mappers, appending them to `out` in push
    /// order.
    pub(crate) fn take_into(&self, frame: FrameId, out: &mut Vec<Vpn>) {
        let w = self.word(frame);
        loop {
            let cur = w.load(Ordering::Acquire);
            if cur == 0 {
                return;
            }
            if cur & SPILL == 0 {
                if Self::cas(w, cur, 0) {
                    out.push(Vpn(cur - 1));
                    return;
                }
                continue;
            }
            let mut spill = self.spill.lock();
            if w.load(Ordering::Acquire) & SPILL == 0 {
                continue;
            }
            let cur = w.swap(0, Ordering::AcqRel);
            out.push(Vpn((cur & !SPILL) - 1));
            out.extend(
                spill
                    .remove(&frame.0)
                    .expect("spill bit without spill entry"),
            );
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(rmap: &Rmap, frame: u32) -> Vec<u64> {
        let mut out = Vec::new();
        rmap.take_into(FrameId(frame), &mut out);
        out.iter().map(|v| v.0).collect()
    }

    #[test]
    fn single_mapper_round_trips_without_spilling() {
        let rmap = Rmap::new(4);
        rmap.push(FrameId(2), Vpn(0));
        assert!(rmap.spill.lock().is_empty());
        assert_eq!(take(&rmap, 2), [0]);
        assert_eq!(take(&rmap, 2), [] as [u64; 0]);
        rmap.push(FrameId(1), Vpn(7));
        rmap.remove(FrameId(1), Vpn(8));
        rmap.remove(FrameId(1), Vpn(7));
        assert_eq!(take(&rmap, 1), [] as [u64; 0]);
    }

    #[test]
    fn take_keeps_push_order_across_the_spill() {
        let rmap = Rmap::new(2);
        for v in [30, 10, 20, 10] {
            rmap.push(FrameId(0), Vpn(v));
        }
        rmap.push(FrameId(1), Vpn(5));
        assert_eq!(take(&rmap, 0), [30, 10, 20, 10]);
        assert!(rmap.spill.lock().is_empty());
        assert_eq!(take(&rmap, 1), [5]);
    }

    #[test]
    fn remove_drops_every_occurrence_and_keeps_order() {
        let rmap = Rmap::new(1);
        for v in [1, 2, 3, 2, 4] {
            rmap.push(FrameId(0), Vpn(v));
        }
        // Removing the first mapper promotes the next one into the word.
        rmap.remove(FrameId(0), Vpn(1));
        rmap.remove(FrameId(0), Vpn(2));
        rmap.push(FrameId(0), Vpn(5));
        assert_eq!(take(&rmap, 0), [3, 4, 5]);
        // Down to one mapper, the spill entry goes away.
        rmap.push(FrameId(0), Vpn(6));
        rmap.push(FrameId(0), Vpn(7));
        rmap.remove(FrameId(0), Vpn(7));
        assert!(rmap.spill.lock().is_empty());
        rmap.remove(FrameId(0), Vpn(6));
        assert_eq!(take(&rmap, 0), [] as [u64; 0]);
    }

    #[test]
    fn concurrent_pushes_and_removes_lose_nothing() {
        let rmap = Rmap::new(1);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (rmap, start) = (&rmap, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..500 {
                        let v = Vpn(t * 1000 + i);
                        rmap.push(FrameId(0), v);
                        if i % 2 == 0 {
                            rmap.remove(FrameId(0), v);
                        }
                    }
                });
            }
        });
        let mut got = take(&rmap, 0);
        got.sort_unstable();
        let want: Vec<u64> = (0..4u64)
            .flat_map(|t| (0..500).filter(|i| i % 2 == 1).map(move |i| t * 1000 + i))
            .collect();
        assert_eq!(got, want);
        assert!(rmap.spill.lock().is_empty());
    }
}
