//! Set-up shared by every workload: the enclave, the store
//! configuration, the preload and the end-of-run footprint.

use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use shield_workload::make_key;
use shieldstore::{Config, DurabilityPolicy, ShieldStore};
use std::sync::Arc;

pub const KEY_LEN: usize = 16;
/// The usable EPC of the paper's SGX generation.
pub const EPC_BYTES: usize = 90 << 20;
/// Shards, event loops and closed-loop workers: one per core of the
/// 2-core host the figures are recorded on.
pub const SHARDS: usize = 2;

pub fn enclave(seed: u64) -> Arc<Enclave> {
    EnclaveBuilder::new("shieldstore-perfbench").epc_bytes(EPC_BYTES).seed(seed).build()
}

/// Buckets ≈ keys and half as many MAC hashes, as in the paper's runs.
pub fn config(keys: u64, seed: u64, durability: Option<DurabilityPolicy>) -> Config {
    let buckets = (keys as usize).next_power_of_two();
    let mut config =
        Config::shield_opt().with_shards(SHARDS).buckets(buckets).mac_hashes(buckets / 2);
    config.seed = seed;
    match durability {
        Some(policy) => config.with_durability(policy),
        None => config,
    }
}

/// Writes version 0 of keys `0..keys`, one thread per shard, and returns
/// the ids each shard owns.
pub fn preload(store: &ShieldStore, keys: u64, val_len: usize) -> Result<Vec<Vec<u64>>, String> {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..SHARDS)
            .map(|w| {
                s.spawn(move || -> Result<Vec<u64>, String> {
                    let mut owned = Vec::new();
                    for id in 0..keys {
                        let key = make_key(id, KEY_LEN);
                        if store.shard_of(&key) != w {
                            continue;
                        }
                        store
                            .set(&key, &crate::oracle::Shadow::value(id, 0, val_len))
                            .map_err(|e| format!("preload of key {id} failed: {e}"))?;
                        owned.push(id);
                    }
                    Ok(owned)
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().expect("preload thread panicked")).collect()
    })
}

/// Untrusted-heap live bytes plus EPC-resident bytes per live key+value
/// byte.
pub fn bytes_per_user_byte(store: &ShieldStore, val_len: usize) -> f64 {
    let snap = store.snapshot();
    let epc = store.enclave().memory().epc().resident_pages() * sgx_sim::PAGE_SIZE;
    let user = snap.entries as f64 * (KEY_LEN + val_len) as f64;
    (snap.heap_live_bytes as f64 + epc as f64) / user
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Per-op ratio that reads 0 rather than NaN when nothing ran.
pub fn per(count: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        count / ops as f64
    }
}
