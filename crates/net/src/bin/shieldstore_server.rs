//! The ShieldStore server daemon.
//!
//! Runs a shielded key-value store behind the attested, encrypted TCP
//! protocol, with optional periodic snapshots.
//!
//! ```text
//! cargo run --release -p shield-net --bin shieldstore_server -- --port 7700
//! ```
//!
//! Flags:
//!
//! ```text
//! --port N                listen port (default: OS-assigned, printed)
//! --buckets N             hash buckets (default 65536)
//! --mac-hashes N          in-enclave MAC hashes (default 16384)
//! --shards N              hash partitions (default 4)
//! --event-loops N         network event loops (default: same as --shards,
//!                         aligning each loop with a hash partition)
//! --epc-mb N              simulated EPC budget in MiB (default 90)
//! --seed N                platform seed; clients use the same seed to
//!                         derive the attestation verifier (default 0)
//! --ecalls                use plain ECALLs instead of HotCalls
//! --insecure              no attestation or traffic crypto
//! --snapshot PATH         snapshot file; enables periodic persistence
//! --snapshot-secs N       snapshot period (default 60, as in the paper)
//! --ordered-index         enable range/prefix scans (EPC cost grows with
//!                         the key count; see the shieldstore::ordered docs)
//! ```

use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::EnclaveBuilder;
use shield_net::server::{CrossingMode, Server, ServerConfig};
use shieldstore::KvBackend;
use shieldstore::{Config, ShieldStore};
use std::sync::Arc;

struct Opts {
    port: u16,
    buckets: usize,
    mac_hashes: usize,
    shards: usize,
    event_loops: Option<usize>,
    epc_mb: usize,
    seed: u64,
    crossing: CrossingMode,
    secure: bool,
    snapshot: Option<std::path::PathBuf>,
    snapshot_secs: u64,
    ordered_index: bool,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        port: 0,
        buckets: 65_536,
        mac_hashes: 16_384,
        shards: 4,
        event_loops: None,
        epc_mb: 90,
        seed: 0,
        crossing: CrossingMode::HotCalls,
        secure: true,
        snapshot: None,
        snapshot_secs: 60,
        ordered_index: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |name: &str| args.next().unwrap_or_else(|| panic!("{name} requires a value"));
        match arg.as_str() {
            "--port" => opts.port = value("--port").parse().expect("port number"),
            "--buckets" => opts.buckets = value("--buckets").parse().expect("number"),
            "--mac-hashes" => opts.mac_hashes = value("--mac-hashes").parse().expect("number"),
            "--shards" => opts.shards = value("--shards").parse().expect("number"),
            "--event-loops" => {
                opts.event_loops = Some(value("--event-loops").parse().expect("number"))
            }
            "--epc-mb" => opts.epc_mb = value("--epc-mb").parse().expect("number"),
            "--seed" => opts.seed = value("--seed").parse().expect("number"),
            "--ecalls" => opts.crossing = CrossingMode::Ecall,
            "--insecure" => opts.secure = false,
            "--snapshot" => opts.snapshot = Some(value("--snapshot").into()),
            "--snapshot-secs" => {
                opts.snapshot_secs = value("--snapshot-secs").parse().expect("number")
            }
            "--ordered-index" => opts.ordered_index = true,
            "--help" | "-h" => {
                eprintln!(
                    "flags: --port N --buckets N --mac-hashes N --shards N --event-loops N \
                     --epc-mb N --seed N --ecalls --insecure --snapshot PATH --snapshot-secs N"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    opts
}

fn main() {
    let opts = parse_opts();

    let enclave = EnclaveBuilder::new("shieldstore-server")
        .epc_bytes(opts.epc_mb << 20)
        .seed(opts.seed)
        .build();
    // A long-running service prefers quarantining a corrupted partition
    // over refusing all traffic: the rest of the store keeps serving.
    let mut config = Config::shield_opt()
        .buckets(opts.buckets)
        .mac_hashes(opts.mac_hashes)
        .with_shards(opts.shards)
        .with_quarantine();
    if opts.ordered_index {
        config = config.with_ordered_index();
    }
    let store =
        Arc::new(ShieldStore::new(Arc::clone(&enclave), config).expect("store construction"));

    // Bind explicitly when a port was requested; Server::start picks an
    // ephemeral port otherwise.
    let server = if opts.port != 0 {
        Server::start_on(
            ("127.0.0.1", opts.port),
            Arc::clone(&store) as Arc<dyn KvBackend>,
            Some(Arc::clone(&enclave)),
            ServerConfig {
                event_loops: opts.event_loops.unwrap_or(opts.shards),
                crossing: opts.crossing,
                secure: opts.secure,
                ..Default::default()
            },
        )
        .expect("server start")
    } else {
        Server::start(
            Arc::clone(&store) as Arc<dyn KvBackend>,
            Some(Arc::clone(&enclave)),
            ServerConfig {
                event_loops: opts.event_loops.unwrap_or(opts.shards),
                crossing: opts.crossing,
                secure: opts.secure,
                ..Default::default()
            },
        )
        .expect("server start")
    };

    println!("shieldstore server listening on {}", server.addr());
    println!("enclave measurement: {}", hex(enclave.measurement()));
    println!(
        "clients: connect with the same --seed ({}) to derive the attestation verifier",
        opts.seed
    );

    // Periodic snapshots, as in the paper (every 60 s by default).
    if let Some(path) = opts.snapshot.clone() {
        let counter_path = path.with_extension("counter");
        let counter = PersistentCounter::open(&counter_path).expect("counter file");
        let period = std::time::Duration::from_secs(opts.snapshot_secs);
        let store = Arc::clone(&store);
        std::thread::spawn(move || loop {
            std::thread::sleep(period);
            match store.snapshot_background(&path, &counter) {
                Ok(job) => {
                    while !job.is_done() {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    match job.finish() {
                        Ok(cpu) => eprintln!("[snapshot] written (writer cpu {cpu:?})"),
                        Err(e) => eprintln!("[snapshot] merge failed: {e}"),
                    }
                }
                Err(e) => eprintln!("[snapshot] failed to start: {e}"),
            }
        });
        println!("periodic snapshots every {}s to {:?}", opts.snapshot_secs, opts.snapshot);
    }

    println!("press ctrl-c to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
