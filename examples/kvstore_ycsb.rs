//! A key-value store over Aquila mmio: StoneDB (RocksDB-style LSM)
//! running the YCSB-A mix, with value verification.
//!
//! ```sh
//! cargo run --release --example kvstore_ycsb
//! ```

#![forbid(unsafe_code)]

use std::sync::Arc;

use aquila::{AquilaRuntime, DeviceKind};
use aquila_kvstore::{AquilaEnv, StoneConfig, StoneDb};
use aquila_sim::{CoreDebts, FreeCtx};
use aquila_ycsb::workload::{value_of, KeyGen, OpKind, VALUE_SIZE};
use aquila_ycsb::{run_ops, Distribution, Workload};

fn main() {
    let mut ctx = FreeCtx::new(7);
    let debts = Arc::new(CoreDebts::new(1));
    let rt = AquilaRuntime::build(&mut ctx, DeviceKind::NvmeSpdk, 1 << 19, 8192, 1, debts);
    rt.aquila.thread_enter(&mut ctx);

    // StoneDB reads its SSTs through Aquila mmio; writes go straight to
    // the blobstore via the intercepted write path.
    let env = Arc::new(AquilaEnv::new(
        Arc::clone(&rt.aquila),
        Arc::clone(&rt.store),
        Arc::clone(&rt.access),
    ));
    let db = Arc::new(StoneDb::new(env, StoneConfig::default()));

    // Load 20k records (1 KiB values), bulk-built into L1.
    let records = 20_000u64;
    db.bulk_load(
        &mut ctx,
        (0..records).map(|i| {
            let k = KeyGen::key_of(i);
            let v = value_of(&k, VALUE_SIZE);
            (k, v)
        }),
    );
    println!("loaded {records} records; levels: {:?}", db.level_sizes());

    // Run YCSB-A (50% reads / 50% updates), verifying read results.
    let db2 = Arc::clone(&db);
    let mut verified = 0u64;
    let report = run_ops(
        &mut ctx,
        Workload::A,
        Distribution::Zipfian,
        records,
        20_000,
        99,
        |ctx, op| match op.kind {
            OpKind::Read => {
                if let Some(v) = db2.get(ctx, &op.key) {
                    assert_eq!(v, value_of(&op.key, VALUE_SIZE), "corrupt value!");
                    verified += 1;
                }
            }
            _ => db2.put(ctx, &op.key, &value_of(&op.key, VALUE_SIZE)),
        },
    );

    println!("ycsb-A: {}", report.summary());
    println!("verified {verified} reads byte-for-byte");
    println!(
        "faults: {} ({} major), readahead pages: {}",
        ctx.stats.page_faults, ctx.stats.major_faults, ctx.stats.readahead_pages
    );
}
