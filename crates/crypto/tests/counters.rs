//! The process-wide crypto counters stay exact across threads: work done
//! on threads that have since exited is still counted, and their cells
//! leave the registry. This file holds a single test so no other test
//! runs crypto in the process while it measures.

use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use shield_crypto::stats::{crypto_bytes, crypto_ops, live_cells};
use std::sync::{Arc, Barrier};

#[test]
fn totals_are_exact_across_exiting_threads() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 500;
    let (bytes0, ops0, cells0) = (crypto_bytes(), crypto_ops(), live_cells());

    // Every thread works, then waits until all have worked, so their
    // cells are live at the same time when the totals are first read.
    let worked = Arc::new(Barrier::new(THREADS + 1));
    let release = Arc::new(Barrier::new(THREADS + 1));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (worked, release) = (Arc::clone(&worked), Arc::clone(&release));
            std::thread::spawn(move || {
                let ctr = AesCtr::new(&[t as u8; 16]);
                let mac = Cmac::new(&[!(t as u8); 16]);
                let mut data = vec![0u8; 100 + t];
                for _ in 0..ROUNDS {
                    ctr.apply_keystream(&[1u8; 16], &mut data);
                    mac.compute(&data[..8 * (t + 1)]);
                }
                worked.wait();
                release.wait();
            })
        })
        .collect();

    let bytes: u64 = (0..THREADS).map(|t| (ROUNDS * (100 + t + 8 * (t + 1))) as u64).sum();
    let ops = (THREADS * ROUNDS * 2) as u64;
    worked.wait();
    assert_eq!(live_cells(), cells0 + THREADS, "one cell per working thread");
    assert_eq!(crypto_bytes() - bytes0, bytes, "live cells summed");
    assert_eq!(crypto_ops() - ops0, ops);

    release.wait();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(live_cells(), cells0, "exited threads' cells are retired");
    assert_eq!(crypto_bytes() - bytes0, bytes, "retired cells folded into the total");
    assert_eq!(crypto_ops() - ops0, ops);
}
