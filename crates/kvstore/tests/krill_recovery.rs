//! Krill crash recovery over the full Aquila stack.
//!
//! The store runs over an `AquilaRegion` on the SPDK-NVMe path; a
//! deterministic power cut (`nvme.write:crash=S@op=K`) lands inside one
//! of several commit write-backs. A fresh stack recovers from the
//! captured device image and `Krill::reopen` replays the committed log.
//! The contract under test: commits are atomic and ordered — the
//! recovered store serves exactly the keys of some prefix of the commit
//! history, each with its exact value, and always at least every commit
//! that fully preceded the cut.

#![forbid(unsafe_code)]

use std::sync::Arc;

use aquila::{AquilaRegion, AquilaRuntime, DeviceKind, MmioPolicy};
use aquila_kvstore::{Krill, KrillConfig};
use aquila_sim::fault::{DeviceImage, FaultPlan};
use aquila_sim::{CoreDebts, FreeCtx};

const DB_PAGES: u64 = 2048;
const BASE_KEYS: u64 = 300;
const ROUNDS: u64 = 6;
const KEYS_PER_ROUND: u64 = 50;

fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
    (
        format!("key{i:08}").into_bytes(),
        format!("value-{i}-{}", "z".repeat(80)).into_bytes(),
    )
}

/// Runs the workload with a cut armed after the base commit; returns the
/// captured crash image, if the cut fired.
fn run_with_cut(seed: u64, cut_op: u64, sectors: usize) -> Option<DeviceImage> {
    let mut ctx = FreeCtx::new(seed);
    let debts = Arc::new(CoreDebts::new(1));
    let rt = AquilaRuntime::build(&mut ctx, DeviceKind::NvmeSpdk, 65536, 512, 1, debts);
    rt.aquila.thread_enter(&mut ctx);
    let f = rt.open("/krill/db", DB_PAGES).unwrap();
    rt.store.sync_md(&mut ctx).unwrap();
    let region: Arc<dyn aquila_sim::MemRegion> =
        Arc::new(AquilaRegion::map(&mut ctx, Arc::clone(&rt.aquila), f, DB_PAGES).unwrap());
    let db = Krill::new(Arc::clone(&region), KrillConfig::default());

    // Base batch: committed with no fault plan installed — these keys
    // are unconditionally durable.
    for i in 0..BASE_KEYS {
        let (k, v) = kv(i);
        db.put(&mut ctx, &k, &v).unwrap();
    }
    db.commit(&mut ctx);

    // Arm the cut, then run several put+commit rounds under it.
    let plan =
        Arc::new(FaultPlan::parse(&format!("nvme.write:crash={sectors}@op={cut_op}")).unwrap());
    rt.access
        .nvme_device()
        .expect("spdk path has an nvme device")
        .set_fault_plan(Arc::clone(&plan));
    for round in 0..ROUNDS {
        let lo = BASE_KEYS + round * KEYS_PER_ROUND;
        for i in lo..lo + KEYS_PER_ROUND {
            let (k, v) = kv(i);
            db.put(&mut ctx, &k, &v).unwrap();
        }
        db.commit(&mut ctx);
    }

    plan.crash_image().map(|c| c.image)
}

#[test]
fn reopen_after_power_cut_serves_every_committed_key() {
    let mut fired = 0u32;
    for k in 1..=12u64 {
        let sectors = ((k * 3) % 9) as usize;
        let Some(image) = run_with_cut(0xD0_0000 + k, k, sectors) else {
            continue;
        };
        fired += 1;

        let mut ctx = FreeCtx::new(0xAF7E0 + k);
        let debts = Arc::new(CoreDebts::new(1));
        let rt = AquilaRuntime::recover_from_image(
            &mut ctx,
            &image,
            512,
            1,
            debts,
            MmioPolicy::default(),
        )
        .unwrap();
        rt.aquila.thread_enter(&mut ctx);
        let f = rt.open("/krill/db", DB_PAGES).unwrap();
        let region: Arc<dyn aquila_sim::MemRegion> =
            Arc::new(AquilaRegion::map(&mut ctx, Arc::clone(&rt.aquila), f, DB_PAGES).unwrap());
        let db = Krill::reopen(&mut ctx, region, KrillConfig::default())
            .unwrap_or_else(|e| panic!("cut_op={k}: reopen failed: {e:?}"));

        // The base commit fully preceded the cut: every key must be
        // served with its exact value.
        for i in 0..BASE_KEYS {
            let (key, val) = kv(i);
            assert_eq!(
                db.get(&mut ctx, &key),
                Some(val),
                "cut_op={k}: committed key {i} lost"
            );
        }
        // The armed rounds must recover as an atomic, ordered prefix of
        // the commit history: round r visible => all earlier rounds
        // fully visible, and no round partially visible.
        let mut prefix_ended = false;
        for round in 0..ROUNDS {
            let lo = BASE_KEYS + round * KEYS_PER_ROUND;
            let present = (lo..lo + KEYS_PER_ROUND)
                .filter(|&i| {
                    let (key, val) = kv(i);
                    match db.get(&mut ctx, &key) {
                        Some(got) => {
                            assert_eq!(got, val, "cut_op={k}: key {i} served a torn value");
                            true
                        }
                        None => false,
                    }
                })
                .count() as u64;
            assert!(
                present == 0 || present == KEYS_PER_ROUND,
                "cut_op={k}: commit round {round} was not atomic \
                 ({present}/{KEYS_PER_ROUND} keys visible)"
            );
            if present == 0 {
                prefix_ended = true;
            } else {
                assert!(
                    !prefix_ended,
                    "cut_op={k}: round {round} visible after a missing earlier round"
                );
            }
        }
    }
    assert!(fired >= 8, "only {fired} cut points fired in the sweep");
}
