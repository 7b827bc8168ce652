//! A fixed reference kernel that tracks how fast the host runs right now.
//!
//! The host this benchmark runs on is shared: across runs of the same
//! seed, wall-clock rates of the simulator drift by ±10% with the load
//! other tenants put on the caches, memory and sibling threads. The
//! measured phase therefore runs this kernel after every window of ops and
//! scales the window's rate by the kernel's duration over
//! [`REFERENCE_S`]. Both slow down together, so the scaled rate keeps what
//! the code under test changes and sheds most of what the machine does.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The kernel's duration on the reference host (2-vCPU x86-64 container).
pub const REFERENCE_S: f64 = 0.002;

/// 32 MiB: larger than the host's last-level cache, like the simulator's
/// working set, so the kernel is memory-bound like the simulator.
const WORDS: usize = 4 << 20;
const LOADS: usize = 200_000;

fn buffer() -> &'static [u64] {
    static BUF: OnceLock<Vec<u64>> = OnceLock::new();
    BUF.get_or_init(|| {
        (0..WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    })
}

/// Allocates the kernel's buffer, outside any timed window.
pub fn prepare() {
    black_box(buffer());
}

/// Runs the kernel once: `LOADS` loads at pseudo-random places of the
/// buffer. Returns its duration in seconds.
pub fn kernel_s() -> f64 {
    let buf = buffer();
    let t0 = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u64;
    for _ in 0..LOADS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(buf[x as usize & (WORDS - 1)]);
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}
