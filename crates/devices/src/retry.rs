//! Bounded retry with deterministic backoff, plus a circuit breaker.
//!
//! Device commands can now fail transiently (media errors, timeouts,
//! controller resets — see [`DeviceError::is_transient`]). This module
//! gives every access path one fixed policy for surviving them, set by
//! the constants below: retry up to a bound with exponential
//! *virtual-cycle* backoff (charged as Idle, so the schedule stays
//! deterministic), track commands that exceeded the per-command
//! deadline, and trip a [`CircuitBreaker`] after enough consecutive
//! failures so a dead device fails fast instead of melting the run in
//! retry loops. An open breaker surfaces as
//! [`DeviceError::CircuitOpen`], on which the engine makes the region
//! read-only (DESIGN.md §11).
//!
//! `QueueFull` is deliberately *not* retried here: it is backpressure,
//! owned by the submission loops that pace themselves with it.

use aquila_sync::Mutex;

use aquila_sim::{CostCat, Cycles, SimCtx};

use crate::error::DeviceError;

/// Total command attempts, including the first.
pub const MAX_ATTEMPTS: u32 = 4;
/// Backoff before the first retry; doubles per subsequent retry.
pub const BACKOFF: Cycles = Cycles::from_micros(5);
/// Consecutive failed attempts (across commands) that trip the breaker.
pub const BREAKER_THRESHOLD: u32 = 16;
/// Virtual-time cooldown after a trip before the breaker admits one
/// half-open probe command (see [`CircuitBreaker`]).
pub const BREAKER_COOLDOWN: Cycles = Cycles::from_micros(500);
/// Per-command latency deadline; completions past it count in
/// [`aquila_sim::Counters::deadline_misses`] (observability only — the
/// simulated device always completes, so there is no abort path).
pub const COMMAND_TIMEOUT: Cycles = Cycles::from_millis(1);

/// Backoff before retry number `retry` (1-based), doubling each time
/// with a cap so the exponent cannot overflow.
pub fn backoff_for(retry: u32) -> Cycles {
    BACKOFF * (1u64 << retry.saturating_sub(1).min(10))
}

/// Runs `attempt` until it succeeds, exhausts [`MAX_ATTEMPTS`], or hits
/// a non-transient error. Transient failures wait the backoff (as Idle —
/// the CPU would be parked, not spinning) and feed the breaker when one
/// is supplied; when the breaker is or becomes open, the call fails fast
/// with [`DeviceError::CircuitOpen`].
pub fn run(
    ctx: &mut dyn SimCtx,
    breaker: Option<&CircuitBreaker>,
    mut attempt: impl FnMut(&mut dyn SimCtx) -> Result<(), DeviceError>,
) -> Result<(), DeviceError> {
    if breaker.is_some_and(|b| b.is_open(ctx.now())) {
        return Err(DeviceError::CircuitOpen);
    }
    let mut tries = 0u32;
    loop {
        match attempt(ctx) {
            Ok(()) => {
                if let Some(b) = breaker {
                    b.record_success();
                }
                return Ok(());
            }
            Err(e) if !e.is_transient() => return Err(e),
            Err(e) => {
                ctx.counters().transient_errors += 1;
                if let Some(b) = breaker {
                    if b.record_failure(ctx.now()) {
                        ctx.counters().breaker_trips += 1;
                    }
                    if b.is_open(ctx.now()) {
                        return Err(DeviceError::CircuitOpen);
                    }
                }
                tries += 1;
                if tries >= MAX_ATTEMPTS {
                    return Err(e);
                }
                ctx.counters().retry_attempts += 1;
                let park = ctx.now() + backoff_for(tries);
                ctx.wait_until(park, CostCat::Idle);
            }
        }
    }
}

/// Records a completed command's observed latency against
/// [`COMMAND_TIMEOUT`].
pub fn observe_latency(ctx: &mut dyn SimCtx, latency: Cycles) {
    if latency > COMMAND_TIMEOUT {
        ctx.counters().deadline_misses += 1;
    }
}

/// Breaker phase. `Open` remembers when it tripped so the cooldown is
/// measured in deterministic virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum BreakerPhase {
    /// Commands flow; consecutive failures are counted.
    #[default]
    Closed,
    /// Commands fail fast until the cooldown elapses.
    Open {
        /// Virtual time of the trip.
        since: Cycles,
    },
    /// The cooldown elapsed and exactly one probe command was admitted;
    /// everyone else still fails fast until the probe resolves.
    HalfOpen,
}

#[derive(Default)]
struct BreakerState {
    consecutive: u32,
    phase: BreakerPhase,
}

/// Trips open after [`BREAKER_THRESHOLD`] consecutive command failures;
/// a success before the threshold resets the count. An open breaker fails fast until a
/// [`BREAKER_COOLDOWN`] elapses, then admits exactly one *half-open
/// probe*: if the probe succeeds the breaker closes (the device
/// healed); if it fails the breaker re-opens and the cooldown restarts.
/// All transitions are keyed off the caller's virtual `now`, so the
/// probe schedule is as deterministic as the rest of the DES. The
/// default breaker is closed.
#[derive(Default)]
pub struct CircuitBreaker {
    state: Mutex<BreakerState>,
}

impl CircuitBreaker {
    /// Whether a command issued at virtual time `now` must fail fast.
    ///
    /// Returning `false` from the `Open` phase *admits the caller as the
    /// half-open probe* — the breaker moves to `HalfOpen` and every
    /// other caller keeps failing fast until the probe's success or
    /// failure is recorded.
    pub fn is_open(&self, now: Cycles) -> bool {
        let mut st = self.state.lock();
        match st.phase {
            BreakerPhase::Closed => false,
            BreakerPhase::Open { since } => {
                if now >= since + BREAKER_COOLDOWN {
                    st.phase = BreakerPhase::HalfOpen;
                    false
                } else {
                    true
                }
            }
            BreakerPhase::HalfOpen => true,
        }
    }

    /// Records a command success: closes the breaker (the half-open
    /// probe healed it) and resets the consecutive-failure count.
    pub fn record_success(&self) {
        let mut st = self.state.lock();
        st.consecutive = 0;
        st.phase = BreakerPhase::Closed;
    }

    /// Counts a failure at virtual time `now`; returns `true` when this
    /// one trips (or re-trips, for a failed probe) the breaker.
    pub fn record_failure(&self, now: Cycles) -> bool {
        let mut st = self.state.lock();
        st.consecutive += 1;
        match st.phase {
            BreakerPhase::Closed if st.consecutive >= BREAKER_THRESHOLD => {
                st.phase = BreakerPhase::Open { since: now };
                true
            }
            BreakerPhase::HalfOpen => {
                st.phase = BreakerPhase::Open { since: now };
                true
            }
            _ => false,
        }
    }
}

impl core::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let st = self.state.lock();
        write!(
            f,
            "CircuitBreaker {{ phase: {:?}, consecutive: {}/{} }}",
            st.phase, st.consecutive, BREAKER_THRESHOLD
        )
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use aquila_sim::{FreeCtx, Page};

    use crate::{Entry, NvmeAccess, NvmeDevice, StorageAccess};

    /// Fails `n` commands of [`MAX_ATTEMPTS`] attempts each through `b`,
    /// returning the last error.
    fn fail_commands(ctx: &mut FreeCtx, b: &CircuitBreaker, n: u32) -> DeviceError {
        let mut last = None;
        for _ in 0..n {
            last = run(ctx, Some(b), |_| Err(DeviceError::Timeout)).err();
        }
        last.unwrap()
    }

    #[test]
    fn success_passes_through() {
        let mut ctx = FreeCtx::new(1);
        let mut calls = 0;
        run(&mut ctx, None, |_| {
            calls += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(calls, 1);
        assert_eq!(ctx.now(), Cycles::ZERO, "no backoff on success");
    }

    #[test]
    fn transient_errors_retry_with_backoff() {
        let mut ctx = FreeCtx::new(1);
        let mut calls = 0;
        run(&mut ctx, None, |_| {
            calls += 1;
            if calls < 3 {
                Err(DeviceError::Timeout)
            } else {
                Ok(())
            }
        })
        .unwrap();
        assert_eq!(calls, 3);
        // Two retries: backoff 5 us + 10 us.
        assert_eq!(ctx.now(), Cycles::from_micros(15));
    }

    #[test]
    fn attempt_budget_is_bounded() {
        let mut ctx = FreeCtx::new(1);
        let mut calls = 0;
        let err = run(&mut ctx, None, |_| {
            calls += 1;
            Err(DeviceError::MediaError { page: 7 })
        })
        .unwrap_err();
        assert_eq!(calls, 4);
        assert_eq!(err, DeviceError::MediaError { page: 7 });
        // Three retries: backoff 5 + 10 + 20 us.
        assert_eq!(ctx.now(), Cycles::from_micros(35));
        assert_eq!(ctx.stats.transient_errors, 4);
        assert_eq!(ctx.stats.retry_attempts, 3);
    }

    #[test]
    fn non_transient_errors_do_not_retry() {
        let mut ctx = FreeCtx::new(1);
        let mut calls = 0;
        let err = run(&mut ctx, None, |_| {
            calls += 1;
            Err(DeviceError::QueueFull { depth: 8 })
        })
        .unwrap_err();
        assert_eq!(calls, 1, "QueueFull is backpressure, not a retry case");
        assert_eq!(err, DeviceError::QueueFull { depth: 8 });
        assert_eq!(ctx.now(), Cycles::ZERO);
    }

    #[test]
    fn breaker_trips_after_threshold_and_fails_fast() {
        let b = CircuitBreaker::default();
        let mut ctx = FreeCtx::new(1);
        // Three commands x 4 attempts of pure failure stay under the
        // 16-failure threshold; the fourth command's last attempt trips.
        assert_eq!(fail_commands(&mut ctx, &b, 3), DeviceError::Timeout);
        assert!(!b.is_open(ctx.now()));
        assert_eq!(fail_commands(&mut ctx, &b, 1), DeviceError::CircuitOpen);
        assert!(b.is_open(ctx.now()));
        assert_eq!(ctx.stats.transient_errors, 16);
        assert_eq!(ctx.stats.breaker_trips, 1);
        // Open breaker fails fast without calling the closure.
        let mut calls = 0;
        let e = run(&mut ctx, Some(&b), |_| {
            calls += 1;
            Ok(())
        })
        .unwrap_err();
        assert_eq!(e, DeviceError::CircuitOpen);
        assert_eq!(calls, 0);
    }

    #[test]
    fn success_resets_consecutive_count() {
        let b = CircuitBreaker::default();
        for t in 0..15 {
            assert!(!b.record_failure(Cycles(t)));
        }
        b.record_success();
        for t in 0..15 {
            assert!(!b.record_failure(Cycles(100 + t)));
        }
        assert!(
            b.record_failure(Cycles(200)),
            "sixteenth consecutive failure trips"
        );
        assert!(!b.record_failure(Cycles(201)), "trip reports only once");
    }

    /// A breaker tripped by its sixteenth failure at `at`.
    fn tripped_at(at: Cycles) -> CircuitBreaker {
        let b = CircuitBreaker::default();
        for _ in 1..BREAKER_THRESHOLD {
            assert!(!b.record_failure(at));
        }
        assert!(b.record_failure(at), "trips at the threshold");
        b
    }

    #[test]
    fn breaker_half_open_probe_closes_on_success() {
        let t = Cycles(100);
        let b = tripped_at(t);
        // Inside the 500 us cooldown: fail fast.
        assert!(b.is_open(t + Cycles(1)));
        assert!(b.is_open(t + Cycles::from_micros(500) - Cycles(1)));
        // Cooldown elapsed: exactly one caller is admitted as the probe,
        // everyone else keeps failing fast until it resolves.
        let probe = t + Cycles::from_micros(500);
        assert!(!b.is_open(probe), "probe admitted after cooldown");
        assert!(b.is_open(probe), "only one probe at a time");
        // Probe succeeds: the breaker closes and its count restarts.
        b.record_success();
        assert!(!b.is_open(probe + Cycles(1)));
        for _ in 1..BREAKER_THRESHOLD {
            assert!(!b.record_failure(probe + Cycles(2)));
        }
    }

    #[test]
    fn breaker_half_open_probe_failure_reopens() {
        let b = tripped_at(Cycles(10));
        let cooldown = Cycles::from_micros(500);
        assert!(!b.is_open(Cycles(10) + cooldown), "probe admitted");
        // Probe fails: re-trip, cooldown restarts from the failure time.
        let refail = Cycles(10) + cooldown + Cycles(100);
        assert!(b.record_failure(refail), "failed probe re-trips");
        assert!(b.is_open(refail + Cycles(1)));
        assert!(
            b.is_open(refail + cooldown - Cycles(1)),
            "cooldown restarted"
        );
        assert!(
            !b.is_open(refail + cooldown),
            "second probe after re-cooldown"
        );
        b.record_success();
        assert!(!b.is_open(refail + cooldown * 10));
    }

    #[test]
    fn retry_run_drives_probe_through_the_breaker() {
        // End-to-end trip -> cooldown -> probe -> close through run().
        let b = CircuitBreaker::default();
        let mut ctx = FreeCtx::new(1);
        assert_eq!(fail_commands(&mut ctx, &b, 4), DeviceError::CircuitOpen);
        assert_eq!(
            run(&mut ctx, Some(&b), |_| Ok(())).unwrap_err(),
            DeviceError::CircuitOpen,
            "fails fast inside the cooldown"
        );
        // Park past the cooldown: the next command is the probe and a
        // healed device closes the breaker for everyone.
        let wake = ctx.now() + BREAKER_COOLDOWN;
        ctx.wait_until(wake, CostCat::Idle);
        run(&mut ctx, Some(&b), |_| Ok(())).unwrap();
        assert!(!b.is_open(ctx.now()), "probe success re-armed the path");
        run(&mut ctx, Some(&b), |_| Ok(())).unwrap();
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_for(1), Cycles::from_micros(5));
        assert_eq!(backoff_for(2), Cycles::from_micros(10));
        assert_eq!(backoff_for(3), Cycles::from_micros(20));
        assert_eq!(
            backoff_for(40),
            Cycles::from_micros(5 * 1024),
            "exponent capped"
        );
    }

    #[test]
    fn completions_past_one_millisecond_count_as_deadline_misses() {
        let mut ctx = FreeCtx::new(1);
        assert_eq!(COMMAND_TIMEOUT, Cycles::from_millis(1));
        observe_latency(&mut ctx, COMMAND_TIMEOUT);
        assert_eq!(ctx.stats.deadline_misses, 0, "exactly 1 ms is in time");
        observe_latency(&mut ctx, COMMAND_TIMEOUT + Cycles(1));
        assert_eq!(ctx.stats.deadline_misses, 1);

        // Through a real command: one page is served in ~11 us, 2048 pages
        // (8 MiB at the device's ~4.8 GB/s internal rate) in ~1.7 ms.
        let path = NvmeAccess::new(Arc::new(NvmeDevice::optane(2048)), Entry::Direct);
        path.read_refs(&mut ctx, 0, &mut [Page::zero()]).unwrap();
        assert_eq!(ctx.stats.deadline_misses, 1);
        let t0 = ctx.now();
        path.read_refs(&mut ctx, 0, &mut vec![Page::zero(); 2048])
            .unwrap();
        assert!(ctx.now() - t0 > COMMAND_TIMEOUT);
        assert_eq!(ctx.stats.deadline_misses, 2);
    }

    #[test]
    fn queued_commands_meet_the_same_deadline() {
        let path = NvmeAccess::new(Arc::new(NvmeDevice::optane(8192)), Entry::Direct);
        let batch = |ctx: &mut FreeCtx, pages: usize| {
            let data = vec![Page::zero(); pages];
            let segs: Vec<(u64, &[Page])> =
                (0..4u64).map(|i| (i * pages as u64, &data[..])).collect();
            path.write_batch(ctx, &segs, 4).unwrap();
        };
        // Four 1-page writes at depth 4 each land in ~11 us.
        let mut ctx = FreeCtx::new(1);
        batch(&mut ctx, 1);
        assert_eq!(ctx.stats.deadline_misses, 0);
        // A 2048-page write takes ~1.75 ms (4.2M cycles) from submission
        // to completion: each queued command misses the deadline once.
        batch(&mut ctx, 2048);
        assert_eq!(ctx.stats.deadline_misses, 4);
    }
}
