//! Worker scaling on real threads: one store served by one closed-loop
//! worker, then by two, each worker owning one shard's keys (paper
//! §5.3, Fig. 13).
//!
//! Figure 13's harness runs its workers one after another and models
//! their parallelism. This one runs them on real threads, so it shows
//! whether workers on disjoint shards slow each other down through
//! cache lines they both write. The store and the op mix follow the
//! benchmark of record's `embedded-rd50u-256B` workload: 1M keys with
//! 256-byte values, buckets ≈ keys, half as many MAC hashes, a 90 MiB
//! EPC, two shards, and 50% gets / 50% same-size sets drawn uniformly
//! from the worker's own keys. Throughput is wall-clock ops per second
//! (modeled SGX time is not added); latencies are per call, timed from
//! outside the store after a warm-up.
//!
//! ```text
//! cargo run --release -p shieldstore-bench --bin worker_scaling [--seed N]
//! ```

use sgx_sim::enclave::EnclaveBuilder;
use shield_workload::{make_key, make_value, Generator, Op, Spec};
use shieldstore::{Config, ShieldStore};
use shieldstore_bench::{report, Args};
use std::time::{Duration, Instant};

const KEYS: u64 = 1_000_000;
const KEY_LEN: usize = 16;
const VAL_LEN: usize = 256;
const SHARDS: usize = 2;
const WARM: Duration = Duration::from_millis(500);
const RUN: Duration = Duration::from_secs(5);

/// One worker's measured calls.
#[derive(Default)]
struct Tally {
    get_ns: Vec<u64>,
    set_ns: Vec<u64>,
}

fn median(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    ns.get(ns.len() / 2).map_or(0.0, |&v| v as f64 / 1e3)
}

/// Closed loop over `ids` (one shard's keys) until `end`, recording
/// calls that start after `warm_end`.
fn work(store: &ShieldStore, ids: &[u64], seed: u64, warm_end: Instant, end: Instant) -> Tally {
    let spec = Spec::by_name("RD50_U").expect("RD50_U is a Table 2 workload");
    let mut generator = Generator::new(spec, ids.len() as u64, seed);
    let mut tally = Tally::default();
    let mut round = 0;
    loop {
        let now = Instant::now();
        if now >= end {
            return tally;
        }
        let op = generator.next_op();
        let id = ids[op.key_id() as usize];
        let key = make_key(id, KEY_LEN);
        let (samples, elapsed) = match op {
            Op::Get(_) => {
                let t0 = Instant::now();
                store.get(&key).expect("preloaded key reads back");
                (&mut tally.get_ns, t0.elapsed())
            }
            _ => {
                round += 1;
                let value = make_value(id, round, VAL_LEN);
                let t0 = Instant::now();
                store.set(&key, &value).expect("same-size update fits");
                (&mut tally.set_ns, t0.elapsed())
            }
        };
        if now >= warm_end {
            samples.push(elapsed.as_nanos() as u64);
        }
    }
}

fn main() {
    let args = Args::parse();
    let buckets = (KEYS as usize).next_power_of_two();
    let config = Config::shield_opt().with_shards(SHARDS).buckets(buckets).mac_hashes(buckets / 2);
    let enclave = EnclaveBuilder::new("worker-scaling").epc_bytes(90 << 20).seed(args.seed).build();
    let store = ShieldStore::new(enclave, config).expect("store");

    // Preload every key once and learn which shard owns it.
    let mut owned: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
    for id in 0..KEYS {
        let key = make_key(id, KEY_LEN);
        store.set(&key, &make_value(id, 0, VAL_LEN)).expect("preload");
        owned[store.shard_of(&key)].push(id);
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("=== Worker scaling: 1..{SHARDS} real workers, one shard each ===");
    println!("keys={KEYS} value={VAL_LEN}B shards={SHARDS} run={RUN:?} cores={cores}\n");
    let mut table = report::Table::new(&["workers", "Kop/s", "get p50 (us)", "set p50 (us)"]);
    let mut rates = Vec::new();
    for workers in 1..=SHARDS.min(cores) {
        let start = Instant::now();
        let (warm_end, end) = (start + WARM, start + WARM + RUN);
        let mut total = std::thread::scope(|s| {
            let handles: Vec<_> = owned[..workers]
                .iter()
                .enumerate()
                .map(|(w, ids)| {
                    let store = &store;
                    s.spawn(move || work(store, ids, args.seed + w as u64, warm_end, end))
                })
                .collect();
            let mut total = Tally::default();
            for h in handles {
                let t = h.join().expect("worker panicked");
                total.get_ns.extend(t.get_ns);
                total.set_ns.extend(t.set_ns);
            }
            total
        });
        let secs = (Instant::now() - warm_end).as_secs_f64();
        let kops = (total.get_ns.len() + total.set_ns.len()) as f64 / secs / 1e3;
        rates.push(kops);
        table.row(&[
            workers.to_string(),
            report::kops(kops),
            format!("{:.2}", median(&mut total.get_ns)),
            format!("{:.2}", median(&mut total.set_ns)),
        ]);
    }
    table.print();
    if let [one, .., most] = rates[..] {
        println!("\n{}/1 throughput: {}", rates.len(), report::ratio(most / one));
    }
    println!("\nexpect: with nothing shared between shards, two workers on two cores");
    println!("        approach 2x one worker and per-call latency does not rise.");
}
