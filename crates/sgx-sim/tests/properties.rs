//! Property-based tests for the SGX simulator: resource bounds, data
//! integrity of the metered arena, and seal/counter invariants under
//! arbitrary operation sequences.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sgx_sim::cost::CostModel;
use sgx_sim::enclave::EnclaveBuilder;
use sgx_sim::epc::Epc;
use sgx_sim::seal;
use sgx_sim::stats::SimStats;
use sgx_sim::vclock;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// The resident set never exceeds the EPC budget, no matter the touch
    /// pattern, and counted faults+hits equals touches.
    #[test]
    fn resident_set_bounded(
        budget in 1usize..32,
        touches in pvec((0u64..64, any::<bool>()), 1..200),
    ) {
        vclock::reset();
        let stats = Arc::new(SimStats::new());
        let epc = Epc::new(budget, CostModel::I7_7700, Arc::clone(&stats));
        for &(page, write) in &touches {
            epc.touch(page, write);
            prop_assert!(epc.resident_pages() <= budget);
        }
        let snap = stats.snapshot();
        prop_assert_eq!(snap.epc_faults + snap.epc_hits, touches.len() as u64);
        // Every eviction must have been preceded by a fault that needed
        // the slot.
        prop_assert!(snap.epc_evictions <= snap.epc_faults);
        vclock::reset();
    }

    /// Two threads touching overlapping pages under eviction pressure:
    /// every touch is counted exactly once, as a lock-free hit, a hit
    /// found under the lock, or a fault, and the resident set never
    /// exceeds the budget while faults evict behind concurrent hits.
    #[test]
    fn concurrent_touches_counted_once(
        budget in 1usize..24,
        a in pvec((0u64..48, any::<bool>()), 4000..12000),
        b in pvec((0u64..48, any::<bool>()), 4000..12000),
    ) {
        let stats = Arc::new(SimStats::new());
        let epc = Arc::new(Epc::new(budget, CostModel::I7_7700, Arc::clone(&stats)));
        let total = a.len() + b.len();
        let start = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = [a, b]
            .into_iter()
            .map(|seq| {
                let epc = Arc::clone(&epc);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    vclock::reset();
                    start.wait();
                    let mut bounded = true;
                    for (page, write) in seq {
                        epc.touch(page, write);
                        bounded &= epc.resident_pages() <= budget;
                    }
                    vclock::reset();
                    bounded
                })
            })
            .collect();
        for h in handles {
            prop_assert!(h.join().unwrap(), "resident set exceeded the budget");
        }
        let snap = stats.snapshot();
        prop_assert_eq!(snap.epc_faults + snap.epc_hits, total as u64);
        prop_assert!(snap.epc_evictions <= snap.epc_faults);
        prop_assert!(epc.resident_pages() <= budget);
        // The exited threads' hit cells were folded into the total.
        prop_assert_eq!(stats.epc_hits.live_cells(), 0);
    }

    /// Metered enclave memory is still memory: arbitrary interleavings of
    /// alloc/write/read/free preserve every live allocation's contents.
    #[test]
    fn arena_preserves_contents(
        ops in pvec((any::<u16>(), 1usize..200), 1..60),
        epc_pages in 1usize..64,
    ) {
        vclock::reset();
        let enclave = EnclaveBuilder::new("prop-arena")
            .epc_bytes(epc_pages * 4096)
            .build();
        let memory = enclave.memory();
        let mut live: Vec<(u64, Vec<u8>)> = Vec::new();
        for (i, &(tag, len)) in ops.iter().enumerate() {
            match tag % 3 {
                0 | 1 => {
                    let addr = memory.alloc(len).unwrap();
                    let fill = vec![(tag & 0xff) as u8 ^ i as u8; len];
                    memory.write(addr, &fill);
                    live.push((addr, fill));
                }
                _ => {
                    if !live.is_empty() {
                        let idx = (tag as usize) % live.len();
                        let (addr, data) = live.swap_remove(idx);
                        prop_assert_eq!(memory.read_vec(addr, data.len()), data.clone());
                        memory.free(addr, data.len());
                    }
                }
            }
            // All live allocations still hold their bytes.
            for (addr, data) in &live {
                prop_assert_eq!(&memory.read_vec(*addr, data.len()), data);
            }
        }
        vclock::reset();
    }

    /// Sealing roundtrips for any payload, and any corruption at any
    /// position is rejected.
    #[test]
    fn seal_roundtrip_and_tamper(
        payload in pvec(any::<u8>(), 0..300),
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let enclave = EnclaveBuilder::new("prop-seal").build();
        let blob = seal::seal(&enclave, &payload);
        prop_assert_eq!(seal::unseal(&enclave, &blob).unwrap(), payload);

        let mut bad = blob.clone();
        let at = flip.index(bad.len());
        bad[at] ^= 1 << bit;
        prop_assert!(seal::unseal(&enclave, &bad).is_err());
    }

    /// The cost model's cycle->ns conversion is monotone.
    #[test]
    fn cost_conversion_monotone(a in 0u64..10_000_000, b in 0u64..10_000_000) {
        let m = CostModel::I7_7700;
        if a <= b {
            prop_assert!(m.cycles_to_ns(a) <= m.cycles_to_ns(b));
        } else {
            prop_assert!(m.cycles_to_ns(a) >= m.cycles_to_ns(b));
        }
    }
}

/// Deterministic (non-proptest) cross-checks that belong with the
/// properties: virtual-clock accounting composes across scopes.
#[test]
fn vclock_scoped_composition() {
    vclock::reset();
    vclock::charge(5);
    let (_, inner) = vclock::scoped(|| {
        vclock::charge(7);
        let (_, nested) = vclock::scoped(|| vclock::charge(3));
        assert_eq!(nested, 3);
        vclock::charge(2);
    });
    assert_eq!(inner, 9, "inner scope sees its own charges only");
    assert_eq!(vclock::take(), 5, "outer accumulation restored");
}
