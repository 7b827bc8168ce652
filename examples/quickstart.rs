//! Quickstart: boot Aquila, map a file, and do memory-mapped I/O.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

#![forbid(unsafe_code)]

use std::sync::Arc;

use aquila::{AquilaRuntime, DeviceKind, Prot};
use aquila_sim::{CoreDebts, CostCat, FreeCtx, SimCtx};

fn main() {
    // A simulation context: every operation charges calibrated cycle
    // costs here, so the run reports exactly what the hardware would do.
    let mut ctx = FreeCtx::new(42);
    let debts = Arc::new(CoreDebts::new(1));

    // Boot a full Aquila stack: a DRAM-backed pmem device with DAX
    // access, a blobstore for the file namespace, a 1024-frame DRAM
    // cache, and the engine itself in (simulated) VMX non-root ring 0.
    let rt = AquilaRuntime::build(&mut ctx, DeviceKind::PmemDax, 16384, 1024, 1, debts);
    rt.aquila.thread_enter(&mut ctx);

    // Intercepted open(): the name maps to a blob transparently.
    let file = rt.open("/data/quickstart", 256).expect("open");

    // mmap-compatible mapping, then plain reads and writes through it.
    let addr = rt
        .aquila
        .mmap(&mut ctx, file, 0, 256, Prot::RW)
        .expect("mmap");
    rt.aquila
        .write(&mut ctx, addr, b"hello, memory-mapped storage!")
        .expect("write");

    let mut back = [0u8; 29];
    rt.aquila.read(&mut ctx, addr, &mut back).expect("read");
    assert_eq!(&back, b"hello, memory-mapped storage!");
    println!("read back: {}", String::from_utf8_lossy(&back));

    // Repeat reads are TLB hits: zero software cost — the paper's core
    // argument for mmio over software caches.
    let before = ctx.now();
    for _ in 0..1000 {
        rt.aquila.read(&mut ctx, addr, &mut back).expect("read");
    }
    println!(
        "1000 repeat reads cost {} cycles of software time",
        (ctx.now() - before).get()
    );

    // msync writes dirty pages back, sorted and coalesced.
    rt.aquila.msync(&mut ctx, addr, 256).expect("msync");

    println!(
        "page faults: {} (major {}), writebacks: {}, vmexits: {}",
        ctx.stats.page_faults, ctx.stats.major_faults, ctx.stats.writebacks, ctx.stats.vmexits
    );
    println!(
        "trap cycles: {} (552 per fault: non-root ring 0, not 1287)",
        ctx.breakdown.get(CostCat::Trap)
    );
    println!("total virtual time: {}", ctx.now());
}
