//! CLOCK-based LRU approximation for eviction victim selection.
//!
//! The paper evicts "via an approximation of LRU", updated on page faults
//! (section 3.2). CLOCK is the canonical such approximation: each frame
//! carries a reference bit set when the frame is (re)faulted; the clock
//! hand sweeps frames, clearing reference bits and collecting unreferenced
//! resident frames as victims. Selection is batched (512 frames per
//! eviction round in the paper) so the TLB shootdown and writeback costs
//! amortize.

use aquila_mmu::FrameId;
use aquila_sync::Mutex;

/// CLOCK state over a fixed frame pool.
pub struct ClockLru {
    state: Mutex<Clock>,
}

/// Reference and residency bits per frame, and the hand.
struct Clock {
    referenced: Vec<bool>,
    resident: Vec<bool>,
    hand: usize,
}

impl ClockLru {
    /// Creates CLOCK state for `frames` frames, all non-resident.
    pub fn new(frames: usize) -> ClockLru {
        ClockLru {
            state: Mutex::new(Clock {
                referenced: vec![false; frames],
                resident: vec![false; frames],
                hand: 0,
            }),
        }
    }

    /// Number of tracked frames.
    pub fn frames(&self) -> usize {
        self.state.lock().referenced.len()
    }

    /// Marks a frame recently used (called from the fault path).
    #[inline]
    pub fn touch(&self, frame: FrameId) {
        self.state.lock().referenced[frame.0 as usize] = true;
    }

    /// Marks a frame resident (it now holds a cached page).
    pub fn mark_resident(&self, frame: FrameId) {
        let c = &mut *self.state.lock();
        c.resident[frame.0 as usize] = true;
        c.referenced[frame.0 as usize] = true;
    }

    /// Marks a frame free (evicted or never filled).
    pub fn mark_free(&self, frame: FrameId) {
        let c = &mut *self.state.lock();
        c.resident[frame.0 as usize] = false;
        c.referenced[frame.0 as usize] = false;
    }

    /// Resident frame count (linear scan; diagnostics only).
    pub fn resident_count(&self) -> usize {
        self.state.lock().resident.iter().filter(|&&r| r).count()
    }

    /// Sweeps the clock hand and collects up to `batch` distinct
    /// victims among the frames `pred` accepts (the tenant-fair evictor
    /// sweeps one tenant's frames at a time; every other batch accepts
    /// all frames). `pred` must not call back into the CLOCK.
    ///
    /// Referenced frames get a second chance (bit cleared, skipped).
    /// Returns fewer than `batch` victims — possibly none — if the pool
    /// has too few unreferenced matching resident frames after two full
    /// sweeps. Frames `pred` rejects are passed over *without* touching
    /// their reference bits, so a scoped sweep never ages another
    /// tenant's recency state.
    pub fn collect_victims_where(
        &self,
        batch: usize,
        pred: impl Fn(FrameId) -> bool,
    ) -> Vec<FrameId> {
        let c = &mut *self.state.lock();
        let n = c.referenced.len();
        if n == 0 {
            return Vec::new();
        }
        let mut victims = Vec::with_capacity(batch);
        let mut steps = 0usize;
        // The second sweep meets the first sweep's victims again, in the
        // order they were taken; `again` indexes the next one.
        let mut again = 0;
        // Two full sweeps guarantee every matching resident frame either
        // gets its reference bit cleared (sweep 1) or becomes a victim
        // (sweep 2).
        while victims.len() < batch && steps < 2 * n {
            let i = c.hand % n;
            c.hand = c.hand.wrapping_add(1);
            steps += 1;
            if !c.resident[i] {
                continue;
            }
            if !pred(FrameId(i as u32)) {
                continue;
            }
            if victims.get(again) == Some(&FrameId(i as u32)) {
                again += 1;
                continue;
            }
            if std::mem::take(&mut c.referenced[i]) {
                continue; // Second chance.
            }
            victims.push(FrameId(i as u32));
        }
        victims
    }
}

impl core::fmt::Debug for ClockLru {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ClockLru {{ frames: {}, resident: {} }}",
            self.frames(),
            self.resident_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_come_from_resident_unreferenced() {
        let c = ClockLru::new(8);
        for i in 0..4 {
            c.mark_resident(FrameId(i));
        }
        // All recently touched: first sweep clears bits, second collects.
        let v = c.collect_victims_where(2, |_| true);
        assert_eq!(v.len(), 2);
        for f in &v {
            assert!(f.0 < 4, "victim must be resident");
        }
    }

    #[test]
    fn touched_frames_survive_one_round() {
        let c = ClockLru::new(4);
        c.mark_resident(FrameId(0));
        c.mark_resident(FrameId(1));
        // Clear both reference bits via a collection round.
        let _ = c.collect_victims_where(2, |_| true);
        c.mark_resident(FrameId(2));
        c.mark_resident(FrameId(3));
        c.touch(FrameId(0));
        // Frame 0 is referenced; frame 1 is not: 1 must be evicted first.
        let v = c.collect_victims_where(1, |_| true);
        assert_eq!(v, vec![FrameId(1)]);
    }

    #[test]
    fn empty_pool_yields_nothing() {
        let c = ClockLru::new(0);
        assert!(c.collect_victims_where(10, |_| true).is_empty());
        let c = ClockLru::new(4);
        assert!(
            c.collect_victims_where(10, |_| true).is_empty(),
            "nothing resident"
        );
    }

    #[test]
    fn mark_free_removes_from_consideration() {
        let c = ClockLru::new(4);
        c.mark_resident(FrameId(0));
        c.mark_free(FrameId(0));
        assert!(c.collect_victims_where(4, |_| true).is_empty());
        assert_eq!(c.resident_count(), 0);
    }

    #[test]
    fn batch_bounded_by_request() {
        let c = ClockLru::new(64);
        for i in 0..64 {
            c.mark_resident(FrameId(i));
        }
        let v = c.collect_victims_where(10, |_| true);
        assert_eq!(v.len(), 10);
        // Victims are distinct.
        let mut ids: Vec<u32> = v.iter().map(|f| f.0).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn a_wrapping_sweep_collects_each_frame_once() {
        let c = ClockLru::new(8);
        for i in 0..5 {
            c.mark_resident(FrameId(i));
        }
        // Clear every reference bit; frame 0 is taken on the wrap.
        assert_eq!(c.collect_victims_where(1, |_| true), vec![FrameId(0)]);
        c.mark_free(FrameId(0));
        c.touch(FrameId(3));
        c.touch(FrameId(4));
        // From the hand at 1: frames 1 and 2 are unreferenced and taken
        // in the first sweep, 3 and 4 lose their bits and are taken in
        // the second, which meets 1 and 2 again without retaking them.
        let v = c.collect_victims_where(4, |_| true);
        assert_eq!(v, [1, 2, 3, 4].map(FrameId));
    }

    #[test]
    fn scoped_sweep_skips_rejected_frames_without_aging_them() {
        let c = ClockLru::new(8);
        for i in 0..8 {
            c.mark_resident(FrameId(i));
        }
        // A sweep restricted to even frames never yields odd ones.
        let evens = c.collect_victims_where(8, |f| f.0 % 2 == 0);
        assert_eq!(evens.len(), 4);
        assert!(evens.iter().all(|f| f.0 % 2 == 0));
        // The odd frames' reference bits were left alone: an unrestricted
        // single-victim sweep must still give them their second chance
        // (i.e. the first collected victim is one whose bit was already
        // cleared by the scoped sweep — an even frame).
        let next = c.collect_victims_where(1, |_| true);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].0 % 2, 0, "odd frames kept their reference bits");
    }

    #[test]
    fn fault_order_approximates_lru() {
        // Frames faulted long ago (and never touched again) are evicted
        // before recently touched ones.
        let c = ClockLru::new(16);
        for i in 0..16 {
            c.mark_resident(FrameId(i));
        }
        let _ = c.collect_victims_where(0, |_| true); // No-op, hand at 0, bits set.
                                                      // Clear all bits with one sweep.
        let cleared = c.collect_victims_where(16, |_| true);
        assert_eq!(cleared.len(), 16, "second sweep collects everything");
    }
}
