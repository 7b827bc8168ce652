//! Reservation-based contention models for shared resources.
//!
//! The discrete-event engine steps virtual threads in global time order, so
//! a shared resource can be modelled as a *reservation*: acquiring it at
//! virtual time `now` for `hold` cycles reserves the first interval of
//! length `hold` that starts no earlier than `now` and no earlier than the
//! resource's previous reservations. Queueing delay then emerges naturally
//! from overlapping requests — which is exactly how the paper's contended
//! kernel locks behave (Figure 10's collapse of Linux `mmap` under a single
//! page-cache tree lock).
//!
//! The models use `aquila_sync` locks internally so the structures stay `Sync`
//! and usable from real threads in library code, even though the engine
//! itself is single-threaded.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use aquila_sync::Mutex;

use crate::time::Cycles;

/// Outcome of a resource reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Queueing delay experienced before the resource was granted.
    pub wait: Cycles,
    /// Virtual time at which the holder acquired the resource.
    pub start: Cycles,
    /// Virtual time at which the resource is released / the operation
    /// completes.
    pub end: Cycles,
}

/// A mutual-exclusion resource with FIFO-by-arrival reservation semantics.
///
/// Models, e.g., the Linux page-cache tree lock or a shard lock in a
/// user-space cache. The only state is the reservation cursor: the
/// virtual time at which the last holder releases.
#[derive(Debug, Default)]
pub struct SimMutex {
    available: Mutex<Cycles>,
}

impl SimMutex {
    /// Creates an idle mutex.
    pub fn new() -> SimMutex {
        SimMutex::default()
    }

    /// Reserves the mutex at `now` for `hold` cycles.
    pub fn acquire(&self, now: Cycles, hold: Cycles) -> Reservation {
        let mut available = self.available.lock();
        let start = now.max(*available);
        let end = start + hold;
        *available = end;
        Reservation {
            wait: start - now,
            start,
            end,
        }
    }

    /// Backlog at `now`: how far the resource's reservation cursor is
    /// ahead of the caller's clock. Zero means an acquisition at `now`
    /// would be granted immediately; a large backlog means many holders
    /// are queued ahead. Callers can use this to model *non-scalable*
    /// locks, whose per-acquisition cost grows with the number of
    /// waiters spinning on the lock's cache line.
    pub fn backlog(&self, now: Cycles) -> Cycles {
        let available = *self.available.lock();
        if available > now {
            available - now
        } else {
            Cycles::ZERO
        }
    }

    /// Resets reservation state (between experiment phases).
    pub fn reset(&self) {
        *self.available.lock() = Cycles::ZERO;
    }
}

#[derive(Debug, Default)]
struct RwState {
    /// Earliest time a new writer may start (after all prior writers).
    writer_available: Cycles,
    /// Latest end among granted readers; a writer must also wait for this.
    readers_until: Cycles,
}

/// A readers-writer resource: readers overlap freely; writers exclude
/// everyone.
///
/// Models Linux's `mmap_sem`-style locks where page faults take the lock
/// for reading and `mmap`/`munmap` take it for writing.
#[derive(Debug, Default)]
pub struct SimRwLock {
    state: Mutex<RwState>,
}

impl SimRwLock {
    /// Creates an idle lock.
    pub fn new() -> SimRwLock {
        SimRwLock::default()
    }

    /// Reserves a shared (read) slot at `now` for `hold` cycles.
    pub fn acquire_read(&self, now: Cycles, hold: Cycles) -> Reservation {
        let mut st = self.state.lock();
        let start = now.max(st.writer_available);
        let end = start + hold;
        st.readers_until = st.readers_until.max(end);
        Reservation {
            wait: start - now,
            start,
            end,
        }
    }

    /// Reserves an exclusive (write) slot at `now` for `hold` cycles.
    pub fn acquire_write(&self, now: Cycles, hold: Cycles) -> Reservation {
        let mut st = self.state.lock();
        let start = now.max(st.writer_available).max(st.readers_until);
        let end = start + hold;
        st.writer_available = end;
        Reservation {
            wait: start - now,
            start,
            end,
        }
    }

    /// Resets reservation state (between experiment phases).
    pub fn reset(&self) {
        *self.state.lock() = RwState::default();
    }
}

#[derive(Debug)]
struct ServiceState {
    /// Each channel's free time, earliest on top. Channels are
    /// interchangeable, so only the multiset of free times matters.
    channels: BinaryHeap<Reverse<Cycles>>,
    gate: Cycles,
}

/// A service center with `k` parallel channels and a global admission gate,
/// modelling a storage device.
///
/// Each operation occupies one channel for its service time (latency plus
/// transfer). The admission gate enforces device-wide IOPS and bandwidth
/// caps: successive operations may not be admitted faster than
/// `gap_per_op + bytes * gap_per_byte` apart. An Optane-class NVMe device
/// is then `k = 128` channels, ~10 us service, 500 K IOPS gate.
#[derive(Debug)]
pub struct ServiceCenter {
    state: Mutex<ServiceState>,
    /// Minimum spacing between admissions (1 / max IOPS).
    gap_per_op: Cycles,
    /// Additional admission spacing per byte transferred (1 / bandwidth).
    gap_per_byte_femto: u64,
}

impl ServiceCenter {
    /// Creates a service center.
    ///
    /// `channels` is the internal parallelism; `max_iops` and
    /// `max_bytes_per_sec` bound aggregate admission (zero means
    /// unlimited).
    pub fn new(channels: usize, max_iops: u64, max_bytes_per_sec: u64) -> ServiceCenter {
        assert!(channels > 0, "a device needs at least one channel");
        let gap_per_op = Cycles(crate::time::CPU_HZ.checked_div(max_iops).unwrap_or(0));
        // Store per-byte gap in femtocycles to keep integer precision:
        // gap_per_byte = CPU_HZ / bytes_per_sec cycles, usually < 1.
        let gap_per_byte_femto = crate::time::CPU_HZ
            .saturating_mul(1_000_000_000)
            .checked_div(max_bytes_per_sec)
            .unwrap_or(0);
        ServiceCenter {
            state: Mutex::new(ServiceState {
                channels: vec![Reverse(Cycles::ZERO); channels].into(),
                gate: Cycles::ZERO,
            }),
            gap_per_op,
            gap_per_byte_femto,
        }
    }

    /// Submits an operation of `bytes` bytes with channel service time
    /// `service` at virtual time `now`.
    pub fn submit(&self, now: Cycles, service: Cycles, bytes: u64) -> Reservation {
        let mut st = self.state.lock();
        // Admission gate: IOPS and bandwidth pacing.
        let admit = now.max(st.gate);
        let advance =
            self.gap_per_op + Cycles(self.gap_per_byte_femto.saturating_mul(bytes) / 1_000_000_000);
        st.gate = admit + advance;
        // Channel selection: earliest-available channel.
        let mut earliest = st.channels.peek_mut().expect("at least one channel");
        let start = admit.max(earliest.0);
        let end = start + service;
        *earliest = Reverse(end);
        drop(earliest);
        Reservation {
            wait: start - now,
            start,
            end,
        }
    }

    /// Channels still serving an operation at virtual time `now` — the
    /// device's instantaneous queue occupancy, for observability.
    pub fn busy_channels(&self, now: Cycles) -> usize {
        self.state
            .lock()
            .channels
            .iter()
            .filter(|c| c.0 > now)
            .count()
    }

    /// Resets reservation state.
    pub fn reset(&self) {
        let mut st = self.state.lock();
        let channels = st.channels.len();
        st.channels = vec![Reverse(Cycles::ZERO); channels].into();
        st.gate = Cycles::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_serializes_overlapping_holders() {
        let m = SimMutex::new();
        let a = m.acquire(Cycles(0), Cycles(100));
        assert_eq!(a.wait, Cycles::ZERO);
        assert_eq!(a.end, Cycles(100));
        // Second arrival at t=10 must wait until t=100.
        let b = m.acquire(Cycles(10), Cycles(100));
        assert_eq!(b.start, Cycles(100));
        assert_eq!(b.wait, Cycles(90));
        assert_eq!(b.end, Cycles(200));
        // The cursor sits at the last release: a third arrival at t=150
        // sees a 50-cycle backlog and waits it out.
        assert_eq!(m.backlog(Cycles(150)), Cycles(50));
        assert_eq!(m.acquire(Cycles(150), Cycles(1)).wait, Cycles(50));
    }

    #[test]
    fn mutex_idle_gap_resets_waiting() {
        let m = SimMutex::new();
        m.acquire(Cycles(0), Cycles(10));
        let late = m.acquire(Cycles(1000), Cycles(10));
        assert_eq!(late.wait, Cycles::ZERO);
        assert_eq!(late.start, Cycles(1000));
    }

    #[test]
    fn rwlock_readers_overlap_writers_exclude() {
        let l = SimRwLock::new();
        let r1 = l.acquire_read(Cycles(0), Cycles(100));
        let r2 = l.acquire_read(Cycles(10), Cycles(100));
        // Readers overlap: r2 does not wait for r1.
        assert_eq!(r2.wait, Cycles::ZERO);
        // A writer waits for all readers.
        let w = l.acquire_write(Cycles(20), Cycles(50));
        assert_eq!(w.start, Cycles(110));
        assert_eq!(w.end, Cycles(160));
        // A subsequent reader waits for the writer.
        let r3 = l.acquire_read(Cycles(30), Cycles(10));
        assert_eq!(r3.start, Cycles(160));
        assert_eq!(r1.wait, Cycles::ZERO);
        assert_eq!((w.wait, r3.wait), (Cycles(90), Cycles(130)));
    }

    #[test]
    fn service_center_parallel_channels() {
        let d = ServiceCenter::new(2, 0, 0);
        let a = d.submit(Cycles(0), Cycles(100), 4096);
        let b = d.submit(Cycles(0), Cycles(100), 4096);
        let c = d.submit(Cycles(0), Cycles(100), 4096);
        // Two ops run in parallel; the third queues behind one of them.
        assert_eq!(a.end, Cycles(100));
        assert_eq!(b.end, Cycles(100));
        assert_eq!(c.start, Cycles(100));
        assert_eq!(c.wait, Cycles(100));
        assert_eq!(d.busy_channels(Cycles(50)), 2);
        assert_eq!(d.busy_channels(Cycles(150)), 1);
    }

    #[test]
    fn service_center_iops_gate() {
        // 1M IOPS cap => 2400 cycles between admissions at 2.4 GHz.
        let d = ServiceCenter::new(64, 1_000_000, 0);
        let a = d.submit(Cycles(0), Cycles(10), 0);
        let b = d.submit(Cycles(0), Cycles(10), 0);
        assert_eq!(a.start, Cycles(0));
        assert_eq!(b.start, Cycles(2400));
    }

    #[test]
    fn service_center_bandwidth_gate() {
        // 2.4 GB/s => 1 cycle per byte at 2.4 GHz.
        let d = ServiceCenter::new(64, 0, 2_400_000_000);
        d.submit(Cycles(0), Cycles(10), 4096);
        let b = d.submit(Cycles(0), Cycles(10), 4096);
        assert_eq!(b.start, Cycles(4096));
    }

    #[test]
    fn service_center_reset() {
        let d = ServiceCenter::new(1, 0, 0);
        d.submit(Cycles(0), Cycles(1_000_000), 1);
        d.reset();
        assert_eq!(d.busy_channels(Cycles(0)), 0);
        let a = d.submit(Cycles(0), Cycles(10), 1);
        assert_eq!(a.wait, Cycles::ZERO);
    }

    /// The linear scan `submit` used before the channel heap: take the
    /// first earliest-free channel of a flat list.
    struct ScanCenter {
        channels: Vec<Cycles>,
        gate: Cycles,
        gap_per_op: Cycles,
        gap_per_byte_femto: u64,
    }

    impl ScanCenter {
        fn like(d: &ServiceCenter, channels: usize) -> ScanCenter {
            ScanCenter {
                channels: vec![Cycles::ZERO; channels],
                gate: Cycles::ZERO,
                gap_per_op: d.gap_per_op,
                gap_per_byte_femto: d.gap_per_byte_femto,
            }
        }

        fn submit(&mut self, now: Cycles, service: Cycles, bytes: u64) -> Reservation {
            let admit = now.max(self.gate);
            self.gate = admit
                + self.gap_per_op
                + Cycles(self.gap_per_byte_femto.saturating_mul(bytes) / 1_000_000_000);
            let (idx, _) = self
                .channels
                .iter()
                .enumerate()
                .min_by_key(|&(_, c)| *c)
                .expect("at least one channel");
            let start = admit.max(self.channels[idx]);
            let end = start + service;
            self.channels[idx] = end;
            Reservation {
                wait: start - now,
                start,
                end,
            }
        }

        fn busy_channels(&self, now: Cycles) -> usize {
            self.channels.iter().filter(|&&c| c > now).count()
        }
    }

    #[test]
    fn channel_heap_matches_the_linear_scan() {
        // Seeded submission streams with bursts (many arrivals at one
        // instant), idle gaps, mixed service times and sizes, on an
        // Optane-like and on a narrow, gate-free device.
        for (seed, channels, iops, bw) in [
            (1u64, 128usize, 550_000u64, 2_400_000_000u64),
            (7, 4, 0, 0),
            (0xBEEF, 48, 0, 50_000_000_000),
        ] {
            let heap = ServiceCenter::new(channels, iops, bw);
            let mut scan = ScanCenter::like(&heap, channels);
            let mut rng = crate::rng::Rng64::new(seed);
            let mut now = Cycles::ZERO;
            for i in 0..20_000u64 {
                match rng.next_u64() % 8 {
                    0 => now += Cycles(rng.next_u64() % 200_000),
                    1..=3 => now += Cycles(rng.next_u64() % 2_000),
                    _ => {}
                }
                let service = Cycles(1_000 + rng.next_u64() % 40_000);
                let bytes = 4096 * (1 + rng.next_u64() % 16);
                let a = heap.submit(now, service, bytes);
                let b = scan.submit(now, service, bytes);
                assert_eq!(a, b, "seed {seed} submission {i}");
                let probe = now + Cycles(rng.next_u64() % 30_000);
                assert_eq!(heap.busy_channels(probe), scan.busy_channels(probe));
                if i == 10_000 {
                    heap.reset();
                    scan = ScanCenter::like(&heap, channels);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channel_device_panics() {
        let _ = ServiceCenter::new(0, 0, 0);
    }
}
