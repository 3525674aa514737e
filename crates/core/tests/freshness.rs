//! Freshness inside one write. A write verifies its bucket set, mutates
//! untrusted memory, and stores the set's new hash. An attacker who owns
//! untrusted memory can act between the last two steps: here a stale
//! copy of the written entry goes back over its allocation, and its old
//! MAC goes back into the side array. If the new hash were derived by
//! re-reading MACs from untrusted memory, it would endorse the stale
//! version and the key would silently roll back. The store derives the
//! hash from its enclave copy of the verified MACs instead, so the next
//! read of the key fails closed.

use sgx_sim::enclave::EnclaveBuilder;
use shieldstore::{Config, Error, ShieldStore};

const KEY: &[u8] = b"balance";
const OLD: &[u8] = b"v1-100";
const NEW: &[u8] = b"v2-999";

fn store(mac_bucket: bool) -> ShieldStore {
    let enclave = EnclaveBuilder::new("freshness").epc_bytes(8 << 20).seed(3).build();
    let config = Config { mac_bucket, ..Config::shield_opt() }.buckets(16).mac_hashes(4);
    ShieldStore::new(enclave, config).unwrap()
}

/// Arms the rollback during an in-place update of `KEY` from `OLD` to
/// `NEW` (equal lengths, so the entry keeps its allocation) and returns
/// what a later read of `KEY` answers.
fn read_after_rollback(mac_bucket: bool, batched: bool) -> Result<Vec<u8>, Error> {
    let store = store(mac_bucket);
    // Neighbours, so the key shares its bucket set and chains with others.
    for i in 0..24 {
        store.set(format!("neighbour-{i}").as_bytes(), b"n").unwrap();
    }
    let shard = store.shard_of(KEY);
    let before: Vec<u64> = store.stale_entry_copies(shard).iter().map(|s| s.handle).collect();
    store.set(KEY, OLD).unwrap();
    let stale = store
        .stale_entry_copies(shard)
        .into_iter()
        .find(|s| !before.contains(&s.handle))
        .expect("the key's entry is new in its shard");

    store.arm_rollback_before_hash_store(shard, stale);
    let attacks = store.enclave().stats().snapshot().attack_steps;
    if batched {
        store.multi_set(&[(KEY, NEW)]).unwrap();
    } else {
        store.set(KEY, NEW).unwrap();
    }
    assert_eq!(
        store.enclave().stats().snapshot().attack_steps,
        attacks + 1,
        "the rollback landed inside the write"
    );
    store.get(KEY)
}

fn assert_fresh_or_fail_closed(mac_bucket: bool, batched: bool) {
    match read_after_rollback(mac_bucket, batched) {
        Ok(v) => assert_eq!(v, NEW, "stale value served after a mid-write rollback"),
        Err(e) => assert!(matches!(e, Error::IntegrityViolation { .. }), "unexpected {e:?}"),
    }
}

#[test]
fn mid_write_rollback_is_not_endorsed_with_mac_buckets() {
    assert_fresh_or_fail_closed(true, false);
}

#[test]
fn mid_write_rollback_is_not_endorsed_without_mac_buckets() {
    assert_fresh_or_fail_closed(false, false);
}

#[test]
fn mid_batch_rollback_is_not_endorsed() {
    assert_fresh_or_fail_closed(true, true);
    assert_fresh_or_fail_closed(false, true);
}
