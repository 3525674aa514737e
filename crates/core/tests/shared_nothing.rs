//! The shared-nothing hot path: workers on different shards write no
//! common cache line on a steady-state get or set, yet every counter
//! stays exact and every quota change still lands on the next op.
//!
//! * Per-tenant op tallies are per-shard cells summed at snapshot time:
//!   two workers on two shards issue known ops and the tenant rows
//!   report exactly those counts.
//! * Shards cache each tenant's keys and quota state in a slot that is
//!   refreshed when the registry's generation moves: tightening a quota
//!   mid-run rejects the very next over-budget write on every shard.
//! * After warm-up, gets and sets take none of the store-wide locks (the
//!   tenant registry, the tenant keyring, the EPC resident-set state);
//!   their acquisition counters only move on slow paths.

use sgx_sim::enclave::EnclaveBuilder;
use shieldstore::{Config, Error, ShieldStore, TenantQuota, TenantStat, DEFAULT_TENANT};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn store(shards: usize) -> Arc<ShieldStore> {
    let enclave = EnclaveBuilder::new("shared-nothing").epc_bytes(16 << 20).build();
    let config = Config::shield_opt().buckets(1024).mac_hashes(256).with_shards(shards);
    Arc::new(ShieldStore::new(enclave, config).unwrap())
}

/// `n` distinct keys with prefix `tag` that `store` routes to `shard`.
fn keys_on(store: &ShieldStore, shard: usize, tag: &str, n: usize) -> Vec<Vec<u8>> {
    (0..)
        .map(|i| format!("{tag}-{i}").into_bytes())
        .filter(|k| store.shard_of(k) == shard)
        .take(n)
        .collect()
}

fn row(store: &ShieldStore, tenant: u32) -> TenantStat {
    let snap = store.snapshot();
    *snap.tenants.iter().find(|r| r.tenant == tenant && r.gets + r.sets > 0).expect("tenant row")
}

#[test]
fn tenant_rows_count_exactly_across_two_shard_workers() {
    const TENANT: u32 = 3;
    const KEYS: usize = 150;
    const ABSENT: usize = 40;
    let store = store(2);
    let workers: Vec<_> = (0..2)
        .map(|shard| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let keys = keys_on(&store, shard, "present", KEYS);
                let absent = keys_on(&store, shard, "absent", ABSENT);
                for k in &keys {
                    store.set_t(TENANT, k, b"first").unwrap();
                    store.set(k, b"default").unwrap();
                }
                for k in &keys {
                    assert_eq!(store.get_t(TENANT, k).unwrap(), b"first");
                }
                for k in &absent {
                    assert_eq!(store.get_t(TENANT, k), Err(Error::KeyNotFound));
                }
                for k in keys.iter().step_by(2) {
                    store.set_t(TENANT, k, b"again").unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let t = row(&store, TENANT);
    assert_eq!(t.sets, 2 * (KEYS + KEYS / 2) as u64);
    assert_eq!(t.gets, 2 * (KEYS + ABSENT) as u64);
    assert_eq!(t.hits, 2 * KEYS as u64);
    assert_eq!(t.misses, 2 * ABSENT as u64);
    assert_eq!(t.quota_rejections, 0);
    assert_eq!(t.used_keys, 2 * KEYS as u64);
    let d = row(&store, DEFAULT_TENANT);
    assert_eq!((d.sets, d.gets, d.used_keys), (2 * KEYS as u64, 0, 2 * KEYS as u64));
    // The per-shard tallies and the shard op counters agree.
    let ops = store.stats();
    assert_eq!(ops.sets, t.sets + d.sets);
    assert_eq!(ops.gets, t.gets);
}

#[test]
fn tightened_quota_rejects_the_next_write_on_every_shard() {
    const TENANT: u32 = 9;
    const SHARDS: usize = 4;
    let store = store(SHARDS);
    let per_shard: Vec<_> = (0..SHARDS).map(|s| keys_on(&store, s, "quota", 9)).collect();
    // Warm every shard's slot for the tenant with 8 inserts each.
    for keys in &per_shard {
        for k in &keys[..8] {
            store.set_t(TENANT, k, b"value").unwrap();
        }
    }
    let used = store.tenants().state(TENANT).usage.used_keys.load(Ordering::SeqCst);
    assert_eq!(used, 8 * SHARDS as u64);

    // Freeze the key budget at current usage: the next insert on every
    // shard must be refused, while same-size updates still fit.
    store.tenants().configure(TENANT, TenantQuota { max_keys: used, ..TenantQuota::default() });
    for keys in &per_shard {
        assert_eq!(
            store.set_t(TENANT, &keys[8], b"value"),
            Err(Error::QuotaExceeded { tenant: 9 })
        );
        store.set_t(TENANT, &keys[0], b"VALUE").unwrap();
    }
    assert_eq!(row(&store, TENANT).quota_rejections, SHARDS as u64);

    // Loosening lands on the next op too.
    store.tenants().configure(TENANT, TenantQuota::default());
    for keys in &per_shard {
        store.set_t(TENANT, &keys[8], b"value").unwrap();
    }
    assert_eq!(row(&store, TENANT).used_keys, 9 * SHARDS as u64);
}

#[test]
fn steady_state_takes_no_global_lock() {
    const OPS: usize = 10_000;
    let store = store(2);
    let epc = Arc::clone(store.enclave().memory().epc());
    let key_sets: Vec<_> = (0..2).map(|s| keys_on(&store, s, "steady", 64)).collect();

    // Warm-up: every shard builds its tenant slots and every touched
    // enclave page becomes resident.
    for keys in &key_sets {
        for k in keys {
            for tenant in [DEFAULT_TENANT, 5] {
                store.set_t(tenant, k, b"warm-value").unwrap();
                store.get_t(tenant, k).unwrap();
            }
        }
    }
    let before = (
        store.tenants().lock_acquisitions(),
        store.keyring_lock_acquisitions(),
        epc.lock_acquisitions(),
        store.enclave().stats().snapshot().epc_faults,
    );

    let workers: Vec<_> = key_sets
        .into_iter()
        .map(|keys| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..OPS / 2 {
                    let k = &keys[i % keys.len()];
                    let tenant = if i % 3 == 0 { 5 } else { DEFAULT_TENANT };
                    if i % 2 == 0 {
                        store.get_t(tenant, k).unwrap();
                    } else {
                        store.set_t(tenant, k, b"same-size!").unwrap();
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let after = (
        store.tenants().lock_acquisitions(),
        store.keyring_lock_acquisitions(),
        epc.lock_acquisitions(),
        store.enclave().stats().snapshot().epc_faults,
    );
    assert_eq!(after, before, "(registry, keyring, EPC state, faults) moved in the steady state");
    // The slow-path counters do count: a new tenant takes both tenant
    // locks once on its shard.
    store.get_t(77, b"new-tenant").unwrap_err();
    assert_eq!(store.tenants().lock_acquisitions(), before.0 + 1);
    assert_eq!(store.keyring_lock_acquisitions(), before.1 + 1);
}
