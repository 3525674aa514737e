//! Property-based tests for ShieldStore's internal data structures: the
//! untrusted heap, MAC chains, the entry codec, and bucket-set mapping.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sgx_sim::enclave::EnclaveBuilder;
use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use shieldstore::alloc::{UntrustedHeap, NULL_HANDLE};
use shieldstore::config::AllocMode;
use shieldstore::entry;
use shieldstore::integrity::BucketSets;
use shieldstore::mac_bucket;

fn heap() -> UntrustedHeap {
    UntrustedHeap::new(
        EnclaveBuilder::new("core-prop").build(),
        AllocMode::Pooled { granularity: 1 << 20 },
    )
}

/// Heap bytes of a bucket holding `count` MACs: full nodes of `capacity`
/// slots, then a tail with the next power of two of its MACs (at most
/// `capacity`), each rounded up to its size class.
fn mac_node_bytes(count: usize, capacity: usize) -> usize {
    let node = |slots: usize| UntrustedHeap::class_len(12 + 16 * slots);
    let full = count / capacity;
    let tail = count % capacity;
    let tail_bytes = if tail == 0 { 0 } else { node(tail.next_power_of_two().min(capacity)) };
    full * node(capacity) + tail_bytes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// Live heap allocations never alias: each keeps its own contents
    /// across arbitrary alloc/free interleavings.
    #[test]
    fn heap_no_aliasing(ops in pvec((any::<u8>(), 1usize..300), 1..80)) {
        let mut h = heap();
        let mut live: Vec<(u64, Vec<u8>)> = Vec::new();
        for (i, &(tag, len)) in ops.iter().enumerate() {
            if tag % 3 != 0 || live.is_empty() {
                let handle = h.alloc(len);
                prop_assert_ne!(handle, NULL_HANDLE);
                let fill = vec![tag ^ (i as u8); len];
                h.bytes_mut(handle, len).copy_from_slice(&fill);
                live.push((handle, fill));
            } else {
                let idx = (tag as usize) % live.len();
                let (handle, data) = live.swap_remove(idx);
                prop_assert_eq!(h.bytes(handle, data.len()), &data[..]);
                h.free(handle, data.len());
            }
            for (handle, data) in &live {
                prop_assert_eq!(h.bytes(*handle, data.len()), &data[..]);
            }
        }
    }

    /// Freshly allocated memory is always zeroed, even after recycling.
    #[test]
    fn heap_alloc_zeroed(len in 1usize..500, rounds in 1usize..8) {
        let mut h = heap();
        for _ in 0..rounds {
            let a = h.alloc(len);
            prop_assert!(h.bytes(a, len).iter().all(|&b| b == 0));
            h.bytes_mut(a, len).fill(0xff);
            h.free(a, len);
        }
    }

    /// The MAC chain mirrors a reference vector under arbitrary
    /// insert-front / insert-back / set / remove sequences written back
    /// through `mac_bucket::store`, for any node capacity; the heap holds
    /// exactly the nodes the count implies after every step, and nothing
    /// once the bucket is drained.
    #[test]
    fn mac_chain_mirrors_vec(
        capacity in 1usize..8,
        ops in pvec((0u8..4, any::<u8>(), any::<prop::sample::Index>()), 1..120),
    ) {
        let mut h = heap();
        let mut head = NULL_HANDLE;
        let mut reference: Vec<[u8; 16]> = Vec::new();
        for &(op, fill, ref idx) in &ops {
            let mac = [fill; 16];
            let old_count = reference.len();
            match op {
                0 => reference.insert(0, mac),
                1 => reference.push(mac),
                2 if !reference.is_empty() => {
                    let at = idx.index(reference.len());
                    reference[at] = mac;
                }
                3 if !reference.is_empty() => {
                    reference.remove(idx.index(reference.len()));
                }
                _ => continue,
            }
            prop_assert!(
                mac_bucket::store(&mut h, &mut head, old_count, &reference.concat(), capacity)
                    .is_some()
            );
            let mut out = Vec::new();
            let n = mac_bucket::try_gather(&h, head, &mut out, usize::MAX, capacity);
            prop_assert_eq!(n, Some(reference.len()));
            let got: Vec<[u8; 16]> = out.chunks(16).map(|c| c.try_into().unwrap()).collect();
            prop_assert_eq!(&got, &reference);
            prop_assert_eq!(h.live_bytes(), mac_node_bytes(reference.len(), capacity));
        }
        while !reference.is_empty() {
            let old_count = reference.len();
            reference.pop();
            prop_assert!(
                mac_bucket::store(&mut h, &mut head, old_count, &reference.concat(), capacity)
                    .is_some()
            );
            prop_assert_eq!(h.live_bytes(), mac_node_bytes(reference.len(), capacity));
        }
        prop_assert_eq!(head, NULL_HANDLE);
        prop_assert_eq!(h.live_bytes(), 0);
    }

    /// Entry encode/parse/decrypt/verify roundtrips for arbitrary keys,
    /// values, hints and IVs.
    #[test]
    fn entry_codec_roundtrip(
        key in pvec(any::<u8>(), 1..64),
        value in pvec(any::<u8>(), 0..256),
        hint in any::<u8>(),
        tenant in any::<u32>(),
        expires_at in any::<u64>(),
        iv in any::<[u8; 16]>(),
        next in any::<u64>(),
        enc_key in any::<[u8; 16]>(),
        mac_key in any::<[u8; 16]>(),
    ) {
        let enc = AesCtr::new(&enc_key);
        let mac = Cmac::new(&mac_key);
        let mut buf = vec![0u8; entry::HEADER_LEN + key.len() + value.len()];
        entry::encode_into(&mut buf, next, hint, tenant, expires_at, &iv, &key, &value, &enc, &mac);

        let header = entry::parse_header(&buf);
        prop_assert_eq!(header.next, next);
        prop_assert_eq!(header.hint, hint);
        prop_assert_eq!(header.tenant, tenant);
        prop_assert_eq!(header.expires_at, expires_at);
        prop_assert_eq!(header.entry_len(), buf.len());
        let ct = &buf[entry::HEADER_LEN..];
        prop_assert!(entry::verify_mac(&mac, &header, ct));
        let (k, v) = entry::decrypt_entry(&enc, &header, ct);
        prop_assert_eq!(k.clone(), key.clone());
        prop_assert_eq!(v, value);
        prop_assert_eq!(entry::decrypt_key(&enc, &header, ct), key);
    }

    /// Bucket sets partition the bucket range: every bucket belongs to
    /// exactly one set, and the set ranges tile [0, buckets) in order.
    #[test]
    fn bucket_sets_partition(buckets in 1usize..5000, hashes in 1usize..5000) {
        let bs = BucketSets::new(buckets, hashes);
        let mut covered = 0usize;
        for set in 0..bs.num_sets() {
            let range = bs.buckets_of(set);
            prop_assert_eq!(range.start, covered);
            prop_assert!(range.end > range.start);
            for b in range.clone() {
                prop_assert_eq!(bs.set_of(b), set);
            }
            covered = range.end;
        }
        prop_assert_eq!(covered, buckets);
        prop_assert!(bs.num_sets() <= hashes.min(buckets).max(1));
    }
}
