//! Pins every storage path's charges, one row per path and command.
//!
//! Each row reads and writes 1 and 8 pages, and writes a two-segment
//! batch at queue depth 8, on a fresh device from a fresh `FreeCtx`, and
//! records the exact per-category cycles, the device counters, the
//! `nvme.*`/`pmem.*` spans (count/summed cycles) and the final clock.
//! Comparing paths with each other would let a charge move between
//! categories unnoticed; this table does not.
//!
//! The spans are read from the process-global metrics registry, so this
//! file holds one test: no other test records spans beside it.

use std::sync::Arc;

use aquila_devices::{
    CallDomain, Entry, MirrorAccess, NvmeAccess, NvmeDevice, PmemAccess, PmemDevice, StorageAccess,
    STORE_PAGE,
};
use aquila_sim::{FreeCtx, MetricsSnapshot, Page, SimCtx};

type Make = fn() -> Arc<dyn StorageAccess>;

fn nvme() -> Arc<NvmeDevice> {
    Arc::new(NvmeDevice::optane(64))
}

fn pmem() -> Arc<PmemDevice> {
    Arc::new(PmemDevice::dram_backed(64))
}

const PATHS: [(&str, Make); 7] = [
    ("SPDK-NVMe", || {
        Arc::new(NvmeAccess::new(nvme(), Entry::Direct))
    }),
    ("HOST-NVMe/guest", || {
        Arc::new(NvmeAccess::new(nvme(), Entry::Host(CallDomain::Guest)))
    }),
    ("HOST-NVMe/user", || {
        Arc::new(NvmeAccess::new(nvme(), Entry::Host(CallDomain::User)))
    }),
    ("DAX-pmem", || {
        Arc::new(PmemAccess::new(pmem(), Entry::Direct))
    }),
    ("HOST-pmem/guest", || {
        Arc::new(PmemAccess::new(pmem(), Entry::Host(CallDomain::Guest)))
    }),
    ("HOST-pmem/user", || {
        Arc::new(PmemAccess::new(pmem(), Entry::Host(CallDomain::User)))
    }),
    ("mirror", || Arc::new(MirrorAccess::new(nvme(), nvme()))),
];

/// `<op>x<pages>`: what each row runs.
const OPS: [(&str, usize); 5] = [
    ("read", 1),
    ("read", 8),
    ("write", 1),
    ("write", 8),
    ("batch", 8),
];

/// The rows as the paths charged them before the NVMe and pmem access
/// structs were merged (one struct per Figure 8(c) bar).
const EXPECTED: [&str; 35] = [
    "SPDK-NVMe readx1: device-io=27248 | device_reads=1 bytes_read=4096 | nvme.read.cycles=1/26048 | t=27248",
    "SPDK-NVMe readx8: device-io=41584 | device_reads=1 bytes_read=32768 | nvme.read.cycles=1/40384 | t=41584",
    "SPDK-NVMe writex1: device-io=27248 | device_writes=1 bytes_written=4096 | nvme.write.cycles=1/26048 | t=27248",
    "SPDK-NVMe writex8: device-io=41584 | device_writes=1 bytes_written=32768 | nvme.write.cycles=1/40384 | t=41584",
    "SPDK-NVMe batchx8: device-io=54139 | device_writes=2 bytes_written=32768 |  | t=54139",
    "HOST-NVMe/guest readx1: syscall=20700 vmexit=1500 idle=26048 | device_reads=1 bytes_read=4096 vmexits=1 | nvme.read.cycles=1/26048 | t=48248",
    "HOST-NVMe/guest readx8: syscall=20700 vmexit=1500 idle=40384 | device_reads=1 bytes_read=32768 vmexits=1 | nvme.read.cycles=1/40384 | t=62584",
    "HOST-NVMe/guest writex1: syscall=20700 vmexit=1500 idle=26048 | device_writes=1 bytes_written=4096 vmexits=1 | nvme.write.cycles=1/26048 | t=48248",
    "HOST-NVMe/guest writex8: syscall=20700 vmexit=1500 idle=40384 | device_writes=1 bytes_written=32768 vmexits=1 | nvme.write.cycles=1/40384 | t=62584",
    "HOST-NVMe/guest batchx8: syscall=41400 vmexit=3000 idle=64384 | device_writes=2 bytes_written=32768 vmexits=2 | nvme.write.cycles=2/64384 | t=108784",
    "HOST-NVMe/user readx1: syscall=20850 idle=26048 | device_reads=1 bytes_read=4096 syscalls=1 | nvme.read.cycles=1/26048 | t=46898",
    "HOST-NVMe/user readx8: syscall=20850 idle=40384 | device_reads=1 bytes_read=32768 syscalls=1 | nvme.read.cycles=1/40384 | t=61234",
    "HOST-NVMe/user writex1: syscall=20850 idle=26048 | device_writes=1 bytes_written=4096 syscalls=1 | nvme.write.cycles=1/26048 | t=46898",
    "HOST-NVMe/user writex8: syscall=20850 idle=40384 | device_writes=1 bytes_written=32768 syscalls=1 | nvme.write.cycles=1/40384 | t=61234",
    "HOST-NVMe/user batchx8: syscall=41700 idle=64384 | device_writes=2 bytes_written=32768 syscalls=2 | nvme.write.cycles=2/64384 | t=106084",
    "DAX-pmem readx1: memcpy=1230 | device_reads=1 bytes_read=4096 | pmem.read.cycles=1/1230 | t=1230",
    "DAX-pmem readx8: memcpy=7530 | device_reads=1 bytes_read=32768 | pmem.read.cycles=1/7530 | t=7530",
    "DAX-pmem writex1: memcpy=1230 | device_writes=1 bytes_written=4096 | pmem.write.cycles=1/1230 | t=1230",
    "DAX-pmem writex8: memcpy=7530 | device_writes=1 bytes_written=32768 | pmem.write.cycles=1/7530 | t=7530",
    "DAX-pmem batchx8: memcpy=7860 | device_writes=2 bytes_written=32768 | pmem.write.cycles=2/7860 | t=7860",
    "HOST-pmem/guest readx1: memcpy=2430 syscall=17500 vmexit=1500 | device_reads=1 bytes_read=4096 vmexits=1 | pmem.read.cycles=1/2430 | t=21430",
    "HOST-pmem/guest readx8: memcpy=19230 syscall=17500 vmexit=1500 | device_reads=1 bytes_read=32768 vmexits=1 | pmem.read.cycles=1/19230 | t=38230",
    "HOST-pmem/guest writex1: memcpy=2430 syscall=17500 vmexit=1500 | device_writes=1 bytes_written=4096 vmexits=1 | pmem.write.cycles=1/2430 | t=21430",
    "HOST-pmem/guest writex8: memcpy=19230 syscall=17500 vmexit=1500 | device_writes=1 bytes_written=32768 vmexits=1 | pmem.write.cycles=1/19230 | t=38230",
    "HOST-pmem/guest batchx8: memcpy=19260 syscall=35000 vmexit=3000 | device_writes=2 bytes_written=32768 vmexits=2 | pmem.write.cycles=2/19260 | t=57260",
    "HOST-pmem/user readx1: memcpy=2430 syscall=17650 | device_reads=1 bytes_read=4096 syscalls=1 | pmem.read.cycles=1/2430 | t=20080",
    "HOST-pmem/user readx8: memcpy=19230 syscall=17650 | device_reads=1 bytes_read=32768 syscalls=1 | pmem.read.cycles=1/19230 | t=36880",
    "HOST-pmem/user writex1: memcpy=2430 syscall=17650 | device_writes=1 bytes_written=4096 syscalls=1 | pmem.write.cycles=1/2430 | t=20080",
    "HOST-pmem/user writex8: memcpy=19230 syscall=17650 | device_writes=1 bytes_written=32768 syscalls=1 | pmem.write.cycles=1/19230 | t=36880",
    "HOST-pmem/user batchx8: memcpy=19260 syscall=35300 | device_writes=2 bytes_written=32768 syscalls=2 | pmem.write.cycles=2/19260 | t=54560",
    "mirror readx1: device-io=27248 | device_reads=1 bytes_read=4096 | nvme.read.cycles=1/26048 | t=27248",
    "mirror readx8: device-io=217984 | device_reads=8 bytes_read=32768 | nvme.read.cycles=8/208384 | t=217984",
    "mirror writex1: device-io=54496 | device_writes=2 bytes_written=8192 | nvme.write.cycles=2/52096 | t=54496",
    "mirror writex8: device-io=83168 | device_writes=2 bytes_written=65536 | nvme.write.cycles=2/80768 | t=83168",
    "mirror batchx8: device-io=55339 | device_writes=4 bytes_written=65536 |  | t=55339",
];

/// The device spans closed between two snapshots: `name=count/cycles`.
fn spans(before: &MetricsSnapshot, after: &MetricsSnapshot) -> String {
    let mut out = Vec::new();
    for (name, h) in after.hists() {
        if !(name.starts_with("nvme.") || name.starts_with("pmem.")) {
            continue;
        }
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
fn every_path_charges_what_it_charged() {
    let reg = aquila_sim::metrics::install(1);
    let mut rows = Vec::new();
    for (name, make) in PATHS {
        for (op, n) in OPS {
            let access = make();
            let mut ctx = FreeCtx::new(1);
            let pages: Vec<Page> = (0..n)
                .map(|i| Page::copy_of(&[i as u8 + 1; STORE_PAGE]))
                .collect();
            let before = reg.snapshot();
            match op {
                "read" => access.read_refs(&mut ctx, 8, &mut vec![Page::zero(); n]),
                "write" => access.write_refs(&mut ctx, 8, &pages),
                _ => {
                    let segs = [(8u64, &pages[..4]), (20u64, &pages[4..])];
                    access.write_batch(&mut ctx, &segs, 8).map(drop)
                }
            }
            .unwrap();
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
