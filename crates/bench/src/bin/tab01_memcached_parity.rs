//! Table 1: baseline maturity check — memcached vs our baseline, no SGX.
//!
//! The paper validates its hand-written baseline key-value store by
//! showing it matches memcached's throughput in the networked setting
//! with 512-byte values (313.5 vs 311.6 Kop/s at 1 thread; 876.6 vs
//! 845.8 at 4). Here both stores run insecure (no SGX model) over
//! loopback TCP.

use shield_baseline::{KvBackend, MemcachedLike, NaiveEnclaveStore};
use shield_net::server::{CrossingMode, Server, ServerConfig};
use shieldstore_bench::load::{run_load, LoadConfig};
use shieldstore_bench::{harness, report, Args};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args = Args::parse();
    let scale = args.scale;
    report::banner("Table 1", "memcached vs baseline, no SGX, 512B values", &scale);

    const VAL_LEN: usize = 512;
    let mut table =
        report::Table::new(&["workers", "Insecure Memcached(Kop/s)", "Insecure Baseline(Kop/s)"]);

    for workers in [1usize, 4] {
        let mut row = vec![workers.to_string()];
        for is_memcached in [true, false] {
            let store: Arc<dyn KvBackend> = if is_memcached {
                Arc::new(MemcachedLike::insecure(scale.num_buckets))
            } else {
                Arc::new(NaiveEnclaveStore::insecure(scale.num_buckets))
            };
            harness::preload(&*store, scale.num_keys, VAL_LEN);
            store.set_concurrency(workers);
            let server = Server::start(
                Arc::clone(&store),
                None,
                ServerConfig {
                    event_loops: workers,
                    crossing: CrossingMode::Ecall,
                    secure: false,
                    ..Default::default()
                },
            )
            .expect("server start");
            let report = run_load(
                server.addr(),
                None,
                &LoadConfig {
                    users: scale.users,
                    requests_per_user: scale.requests_per_user,
                    secure: false,
                    workload: "RD50_Z".into(),
                    num_keys: scale.num_keys,
                    val_len: VAL_LEN,
                    seed: args.seed,
                },
            )
            .expect("load");
            server.shutdown();
            row.push(report::kops(report.kops(Duration::ZERO)));
        }
        table.row(&row);
    }
    table.print();
    println!();
    println!("expect: the two stores within a few percent of each other at both worker");
    println!("        counts, as in the paper's Table 1.");
}
