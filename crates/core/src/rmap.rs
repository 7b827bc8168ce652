//! The reverse map: cache frame -> virtual pages mapping it.
//!
//! Eviction and promotion must find every PTE that points at a frame.
//! Almost every frame is mapped at most once, so the map is one word per
//! frame holding the first mapper as `vpn + 1` (0 = unmapped). A frame
//! mapped at more VPNs sets [`SPILL`] in its word and keeps the extra
//! VPNs, in push order, in one spill map. A frame with at most one
//! mapping never allocates.
//!
//! The words and the spill map are plain state in one `aquila_sync`
//! cell: the simulator runs on one host thread, so every operation on a
//! frame is a single step.

use std::collections::BTreeMap;

use aquila_mmu::{FrameId, Vpn};
use aquila_sync::Mutex;

/// Word bit: more mappers of this frame live in the spill map.
const SPILL: u64 = 1 << 63;

/// Frame -> mapping VPNs, in the order they were pushed.
pub(crate) struct Rmap {
    state: Mutex<State>,
}

struct State {
    words: Box<[u64]>,
    spill: BTreeMap<u32, Vec<Vpn>>,
}

impl Rmap {
    /// An empty map over `frames` frames.
    pub(crate) fn new(frames: usize) -> Rmap {
        Rmap {
            state: Mutex::new(State {
                words: vec![0; frames].into_boxed_slice(),
                spill: BTreeMap::new(),
            }),
        }
    }

    /// Appends `vpn` to the frame's mappers.
    pub(crate) fn push(&self, frame: FrameId, vpn: Vpn) {
        assert!(vpn.0 + 1 < SPILL, "vpn {vpn:?} too wide");
        let st = &mut *self.state.lock();
        let w = &mut st.words[frame.0 as usize];
        if *w == 0 {
            *w = vpn.0 + 1;
        } else {
            *w |= SPILL;
            st.spill.entry(frame.0).or_default().push(vpn);
        }
    }

    /// Removes every occurrence of `vpn` from the frame's mappers,
    /// keeping the others in order.
    pub(crate) fn remove(&self, frame: FrameId, vpn: Vpn) {
        let st = &mut *self.state.lock();
        let w = &mut st.words[frame.0 as usize];
        if *w & SPILL == 0 {
            if *w == vpn.0 + 1 {
                *w = 0;
            }
            return;
        }
        let rest = st
            .spill
            .remove(&frame.0)
            .expect("spill bit without spill entry");
        let mut all = std::iter::once(Vpn((*w & !SPILL) - 1))
            .chain(rest)
            .filter(|&p| p != vpn);
        let Some(first) = all.next() else {
            *w = 0;
            return;
        };
        let rest: Vec<Vpn> = all.collect();
        if rest.is_empty() {
            *w = first.0 + 1;
        } else {
            *w = (first.0 + 1) | SPILL;
            st.spill.insert(frame.0, rest);
        }
    }

    /// Empties the frame's mappers, appending them to `out` in push
    /// order.
    pub(crate) fn take_into(&self, frame: FrameId, out: &mut Vec<Vpn>) {
        let st = &mut *self.state.lock();
        let cur = std::mem::take(&mut st.words[frame.0 as usize]);
        if cur == 0 {
            return;
        }
        out.push(Vpn((cur & !SPILL) - 1));
        if cur & SPILL != 0 {
            out.extend(
                st.spill
                    .remove(&frame.0)
                    .expect("spill bit without spill entry"),
            );
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
        assert!(rmap.state.lock().spill.is_empty());
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
        assert!(rmap.state.lock().spill.is_empty());
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
        assert!(rmap.state.lock().spill.is_empty());
        rmap.remove(FrameId(0), Vpn(6));
        assert_eq!(take(&rmap, 0), [] as [u64; 0]);
    }

    #[test]
    fn interleaved_pushes_and_removes_lose_nothing() {
        // Four mappers' pushes and removes interleaved on one frame, as
        // vcores stepping in turn issue them.
        let rmap = Rmap::new(1);
        for i in 0..500 {
            for t in 0..4u64 {
                let v = Vpn(t * 1000 + i);
                rmap.push(FrameId(0), v);
                if i % 2 == 0 {
                    rmap.remove(FrameId(0), v);
                }
            }
        }
        let mut got = take(&rmap, 0);
        got.sort_unstable();
        let want: Vec<u64> = (0..4u64)
            .flat_map(|t| (0..500).filter(|i| i % 2 == 1).map(move |i| t * 1000 + i))
            .collect();
        assert_eq!(got, want);
        assert!(rmap.state.lock().spill.is_empty());
    }
}
