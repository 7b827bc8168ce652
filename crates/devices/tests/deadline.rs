//! A command that completes more than 1 ms after its submission counts
//! one `aquila.retry.deadline_misses`.
//!
//! The counter lives in the process-global metrics registry, so this
//! file holds one test: no other test issues commands beside it.

use std::sync::Arc;

use aquila_devices::retry::{observe_latency, COMMAND_TIMEOUT};
use aquila_devices::{Entry, NvmeAccess, NvmeDevice, StorageAccess};
use aquila_sim::{Cycles, FreeCtx, Page, SimCtx};

#[test]
fn completions_past_one_millisecond_count_as_deadline_misses() {
    let reg = aquila_sim::metrics::install(1);
    let misses = || reg.snapshot().get("aquila.retry.deadline_misses");
    let mut ctx = FreeCtx::new(1);
    assert_eq!(COMMAND_TIMEOUT, Cycles::from_millis(1));
    observe_latency(&ctx, COMMAND_TIMEOUT);
    assert_eq!(misses(), None, "exactly 1 ms is in time");
    observe_latency(&ctx, COMMAND_TIMEOUT + Cycles(1));
    assert_eq!(misses(), Some(1));

    // Through a real command: one page is served in ~11 us, 2048 pages
    // (8 MiB at the device's ~4.8 GB/s internal rate) in ~1.7 ms.
    let path = NvmeAccess::new(Arc::new(NvmeDevice::optane(2048)), Entry::Direct);
    path.read_refs(&mut ctx, 0, &mut [Page::zero()]).unwrap();
    assert_eq!(misses(), Some(1));
    let t0 = ctx.now();
    path.read_refs(&mut ctx, 0, &mut vec![Page::zero(); 2048])
        .unwrap();
    assert!(ctx.now() - t0 > COMMAND_TIMEOUT);
    assert_eq!(misses(), Some(2));
}
