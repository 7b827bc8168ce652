//! Pins the kernel fill and writeback paths' charges: each device arm
//! reads and writes 1 and 8 pages on a fresh device from a fresh
//! `FreeCtx`, and each row records the exact per-category cycles, the
//! device counters, the spans (count/summed cycles) and the final clock.
//!
//! The spans are read from the process-global metrics registry, so this
//! file holds one test: no other test records spans beside it.

use std::sync::Arc;

use aquila_devices::{NvmeDevice, PmemDevice, STORE_PAGE};
use aquila_linuxsim::KernelDevice;
use aquila_sim::{FreeCtx, MetricsSnapshot, SimCtx};

/// The rows as the kernel paths charged them when their NVMe arms drained
/// a one-command queue pair.
const EXPECTED: [&str; 8] = [
    "pmem readx1: device-io=240 memcpy=2430 | device_reads=1 bytes_read=4096 | pmem.read.cycles=1/2430 | t=2670",
    "pmem readx8: device-io=240 memcpy=19230 | device_reads=1 bytes_read=32768 | pmem.read.cycles=1/19230 | t=19470",
    "pmem writex1: device-io=240 memcpy=2430 | device_writes=1 bytes_written=4096 | pmem.write.cycles=1/2430 | t=2670",
    "pmem writex8: device-io=240 memcpy=19230 | device_writes=1 bytes_written=32768 | pmem.write.cycles=1/19230 | t=19470",
    "nvme readx1: device-io=3200 idle=26048 | device_reads=1 bytes_read=4096 |  | t=29248",
    "nvme readx8: device-io=3200 idle=40384 | device_reads=1 bytes_read=32768 |  | t=43584",
    "nvme writex1: device-io=3200 idle=26048 | device_writes=1 bytes_written=4096 |  | t=29248",
    "nvme writex8: device-io=3200 idle=40384 | device_writes=1 bytes_written=32768 |  | t=43584",
];

/// The spans closed between two snapshots: `name=count/cycles`.
fn spans(before: &MetricsSnapshot, after: &MetricsSnapshot) -> String {
    let mut out = Vec::new();
    for (name, h) in after.hists() {
        let (count, sum) = before
            .hists()
            .iter()
            .find(|(n, _)| n == name)
            .map_or((0, 0), |(_, h)| (h.count(), h.sum()));
        if h.count() > count {
            out.push(format!("{name}={}/{}", h.count() - count, h.sum() - sum));
        }
    }
    out.join(" ")
}

#[test]
fn kernel_device_arms_charge_what_they_charged() {
    let reg = aquila_sim::metrics::install(1);
    let mut rows = Vec::new();
    for name in ["pmem", "nvme"] {
        for (op, n) in [("read", 1usize), ("read", 8), ("write", 1), ("write", 8)] {
            let dev = match name {
                "pmem" => KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(64))),
                _ => KernelDevice::Nvme(Arc::new(NvmeDevice::optane(64))),
            };
            let mut ctx = FreeCtx::new(1);
            let mut buf = vec![7u8; n * STORE_PAGE];
            let before = reg.snapshot();
            match op {
                "read" => dev.read_pages(&mut ctx, 8, &mut buf),
                _ => dev.write_pages(&mut ctx, 8, &buf),
            }
            let after = reg.snapshot();
            let cycles: Vec<String> = ctx
                .breakdown
                .iter()
                .map(|(cat, c)| format!("{}={}", cat.name(), c.get()))
                .collect();
            let counters: Vec<String> = ctx
                .stats
                .iter()
                .filter(|&(_, v)| v > 0)
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            rows.push(format!(
                "{name} {op}x{n}: {} | {} | {} | t={}",
                cycles.join(" "),
                counters.join(" "),
                spans(&before, &after),
                ctx.now().get()
            ));
        }
    }
    for (row, want) in rows.iter().zip(EXPECTED) {
        assert_eq!(row, want);
    }
    assert_eq!(rows.len(), EXPECTED.len());
}
