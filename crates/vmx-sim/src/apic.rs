//! APIC model and the rate-limited IPI send path.
//!
//! Aquila's batched TLB shootdowns (section 4.1) send inter-processor
//! interrupts whose *send* side deliberately goes through an intercepted
//! MSR write (a vmexit) so the hypervisor can rate-limit a malicious guest
//! flooding a core with IPIs. That raises the send cost from the 298
//! cycles of a direct posted-interrupt send (Shinjuku) to 2081 cycles; the
//! *receive* side stays vmexit-less. Batching amortizes the send cost over
//! many invalidated pages. [`ApicFabric::native`] is the direct send of
//! a kernel in root mode (the Linux baseline's), with no limiter.

use aquila_sim::{CoreDebts, CostCat, Cycles, SimCtx};

/// Hypervisor-side token-bucket rate limiter for mediated IPI sends.
///
/// Refills `rate_per_sec` tokens per simulated second up to `burst`; a send
/// that finds the bucket empty is delayed until the next token accrues.
/// This is the denial-of-service defence of section 4.1.
#[derive(Debug)]
struct IpiRateLimiter {
    tokens: f64,
    burst: f64,
    rate_per_cycle: f64,
    last: Cycles,
}

impl IpiRateLimiter {
    /// Creates a limiter allowing `rate_per_sec` sends/s with the given
    /// burst size.
    fn new(rate_per_sec: u64, burst: u64) -> IpiRateLimiter {
        IpiRateLimiter {
            tokens: burst as f64,
            burst: burst as f64,
            rate_per_cycle: rate_per_sec as f64 / aquila_sim::CPU_HZ as f64,
            last: Cycles::ZERO,
        }
    }

    /// Admits one send at `now`; returns the extra delay imposed.
    fn admit(&mut self, now: Cycles) -> Cycles {
        if now > self.last {
            self.tokens = (self.tokens + (now - self.last).get() as f64 * self.rate_per_cycle)
                .min(self.burst);
            self.last = now;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Cycles::ZERO
        } else {
            let deficit = 1.0 - self.tokens;
            self.tokens = 0.0;
            Cycles((deficit / self.rate_per_cycle) as u64)
        }
    }
}

/// The per-machine APIC fabric: delivers IPIs between simulated cores.
///
/// Receive-side handler cost is deposited as core debt (drained by the
/// engine the next time the target core runs), modelling asynchronous
/// interruption without cross-thread synchronization.
#[derive(Debug)]
pub struct ApicFabric {
    /// The hypervisor's limiter on a mediated send; `None` for a native
    /// send.
    limiter: Option<IpiRateLimiter>,
}

impl ApicFabric {
    /// Creates a mediated fabric with a generous default rate limit (1 M
    /// sends/s, burst 1024) — enough for any honest workload, throttling
    /// floods.
    pub fn new() -> ApicFabric {
        ApicFabric {
            limiter: Some(IpiRateLimiter::new(1_000_000, 1024)),
        }
    }

    /// Creates a fabric whose sends go out directly, without a vmexit
    /// or a limiter.
    pub fn native() -> ApicFabric {
        ApicFabric { limiter: None }
    }

    /// Sends an IPI from the calling core to every other core.
    ///
    /// Charges the sender the send (mediated, plus any rate-limit delay,
    /// or native) and deposits the receive-handler cost on all other
    /// cores. Returns the number of target cores.
    pub fn broadcast(
        &mut self,
        ctx: &mut dyn SimCtx,
        debts: &CoreDebts,
        handler_cost: Cycles,
    ) -> usize {
        let send_cost = match &mut self.limiter {
            Some(limiter) => {
                let delay = limiter.admit(ctx.now());
                if delay > Cycles::ZERO {
                    ctx.charge(CostCat::Tlb, delay);
                }
                ctx.cost().ipi_send_vmexit
            }
            None => ctx.cost().ipi_send_native,
        };
        ctx.charge(CostCat::Tlb, send_cost);
        let receive = ctx.cost().ipi_receive + handler_cost;
        debts.broadcast_except(ctx.core(), receive);
        ctx.num_cores().saturating_sub(1)
    }
}

impl Default for ApicFabric {
    fn default() -> Self {
        ApicFabric::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::FreeCtx;

    #[test]
    fn mediated_send_costs_2081() {
        let mut fabric = ApicFabric::new();
        let debts = CoreDebts::new(4);
        let mut ctx = FreeCtx::new(1).with_core(0, 4);
        let targets = fabric.broadcast(&mut ctx, &debts, Cycles(0));
        assert_eq!(targets, 3);
        assert_eq!(ctx.breakdown.get(CostCat::Tlb), Cycles(2081));
    }

    #[test]
    fn native_send_costs_298_and_is_never_throttled() {
        let mut fabric = ApicFabric::native();
        let debts = CoreDebts::new(2);
        let mut ctx = FreeCtx::new(1).with_core(0, 2);
        for _ in 0..2000 {
            fabric.broadcast(&mut ctx, &debts, Cycles(0));
        }
        assert_eq!(ctx.breakdown.get(CostCat::Tlb), Cycles(2000 * 298));
        assert_eq!(debts.drain(1), Cycles(2000 * 300));
    }

    #[test]
    fn receive_cost_lands_on_other_cores() {
        let mut fabric = ApicFabric::new();
        let debts = CoreDebts::new(3);
        let mut ctx = FreeCtx::new(1).with_core(1, 3);
        fabric.broadcast(&mut ctx, &debts, Cycles(100));
        // ipi_receive (300) + handler (100) deposited on cores 0 and 2.
        assert_eq!(debts.drain(0), Cycles(400));
        assert_eq!(debts.drain(2), Cycles(400));
        assert_eq!(debts.drain(1), Cycles::ZERO);
    }

    #[test]
    fn rate_limiter_throttles_floods() {
        // 1000 sends/s, burst 2: the third immediate send is delayed.
        let mut l = IpiRateLimiter::new(1000, 2);
        assert_eq!(l.admit(Cycles(0)), Cycles::ZERO);
        assert_eq!(l.admit(Cycles(0)), Cycles::ZERO);
        let d = l.admit(Cycles(0));
        assert!(d > Cycles::ZERO);
        // After a long quiet period, tokens refill.
        assert_eq!(l.admit(Cycles(aquila_sim::CPU_HZ)), Cycles::ZERO);
    }

    #[test]
    fn limiter_respects_burst_cap() {
        let mut l = IpiRateLimiter::new(1000, 4);
        // A very long gap must not accumulate more than `burst` tokens.
        let _ = l.admit(Cycles(aquila_sim::CPU_HZ * 100));
        for _ in 0..3 {
            assert_eq!(l.admit(Cycles(aquila_sim::CPU_HZ * 100)), Cycles::ZERO);
        }
        assert!(l.admit(Cycles(aquila_sim::CPU_HZ * 100)) > Cycles::ZERO);
    }

    #[test]
    fn flood_through_fabric_is_throttled() {
        let mut fabric = ApicFabric {
            limiter: Some(IpiRateLimiter::new(1000, 1)),
        };
        let debts = CoreDebts::new(2);
        let mut ctx = FreeCtx::new(1).with_core(0, 2);
        for _ in 0..10 {
            fabric.broadcast(&mut ctx, &debts, Cycles(0));
        }
        // Every other send pays a token-refill delay of up to 2.4 M
        // cycles (1000 sends/s): the flood is paced down to the
        // configured rate. Unthrottled, ten sends would charge 10 * 2081
        // cycles; more than 8 M means at least four sends were delayed.
        let charged = ctx.breakdown.get(CostCat::Tlb).get();
        assert!(
            charged > 4 * 2_000_000,
            "flood must be rate-limited: {charged}"
        );
    }

    #[test]
    fn single_core_broadcast_has_no_targets() {
        let mut fabric = ApicFabric::new();
        let debts = CoreDebts::new(1);
        let mut ctx = FreeCtx::new(1).with_core(0, 1);
        let targets = fabric.broadcast(&mut ctx, &debts, Cycles(10));
        assert_eq!(targets, 0);
    }
}
