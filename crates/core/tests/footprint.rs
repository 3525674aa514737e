//! Untrusted-memory footprint budgets. A store with about one bucket per
//! key is filled with fixed-size values, and the untrusted heap's live
//! bytes per user byte (key + value) must stay within a budget. The
//! budgets sit between the footprint of the two sizing rules and the
//! footprint with either one reverted:
//!
//! - entries take sub-octave size classes (a 333 B entry takes 352 B, not
//!   the 512 B of a power-of-two class);
//! - a MAC-bucket node is sized to its MAC count (one MAC takes a 32 B
//!   node, not a full 30-slot node of 512 B).
//!
//! Everything here is deterministic: fixed enclave seed, fixed keys.

use sgx_sim::enclave::EnclaveBuilder;
use shieldstore::{Config, ShieldStore};

const KEYS: usize = 16_384;
const KEY_LEN: usize = 16;

/// Heap live bytes and chunk count after loading `KEYS` keys of
/// `val_len`-byte values, then deleting every fourth key.
fn footprint(val_len: usize) -> (f64, u64) {
    let enclave = EnclaveBuilder::new("footprint").epc_bytes(64 << 20).seed(11).build();
    let config = Config::shield_opt().buckets(KEYS).mac_hashes(KEYS / 2);
    let store = ShieldStore::new(enclave, config).unwrap();
    let value = vec![0x5a; val_len];
    for i in 0..KEYS {
        store.set(format!("key-{i:012}").as_bytes(), &value).unwrap();
    }
    for i in (0..KEYS).step_by(4) {
        store.delete(format!("key-{i:012}").as_bytes()).unwrap();
    }
    let snap = store.snapshot();
    assert_eq!(snap.entries as usize, KEYS - KEYS / 4);
    let user = snap.entries as f64 * (KEY_LEN + val_len) as f64;
    (snap.heap_live_bytes as f64 / user, snap.heap_chunks)
}

#[test]
fn footprint_256b_values() {
    let (ratio, chunks) = footprint(256);
    // Measured 1.40. Power-of-two entry classes give 2.01, full-size MAC
    // nodes 2.61.
    assert!(ratio <= 1.5, "heap bytes per user byte {ratio:.3} over the 1.5 budget");
    assert_eq!(chunks, 1);
}

#[test]
fn footprint_64b_values() {
    let (ratio, _) = footprint(64);
    // Measured 2.15. Power-of-two entry classes give 3.62, full-size MAC
    // nodes 6.29.
    assert!(ratio <= 2.3, "heap bytes per user byte {ratio:.3} over the 2.3 budget");
}
