//! Network-engine scale benchmark: 10k concurrent clients + throughput.
//!
//! Two measurements against the readiness-loop engine, written to
//! `BENCH_net_scale.json` at the repo root:
//!
//! 1. **Throughput at 64 clients** — a mixed read-heavy load over 64
//!    concurrent connections, the regression anchor for the engine's
//!    hot path (compare across commits; it must not fall when the
//!    engine changes).
//! 2. **Latency at ≥10k concurrent clients** — ramp `SS_NET_SCALE_CLIENTS`
//!    (default 10,000) connections, keep them all open, then measure
//!    per-request round-trip latency with every other connection parked
//!    on the pollers. Reports p50/p95/p99.
//!
//! The process fd ceiling here is 20,000 and each loopback connection
//! consumes an fd on both ends, so the server runs in a child process
//! (`SS_NET_SCALE_ROLE=server`, port handed back over stdout) and the
//! parent keeps its whole budget for client sockets.

use shield_net::client::KvClient;
use shield_net::poller::raise_nofile_limit;
use shield_net::server::{Server, ServerConfig};
use shieldstore::hist::LatencyHist;
use shieldstore_bench::load::{run_load, LoadConfig};
use std::io::BufRead;
use std::time::{Duration, Instant};

const ROLE_ENV: &str = "SS_NET_SCALE_ROLE";
const LOOPS_ENV: &str = "SS_NET_SCALE_EVENT_LOOPS";
const CLIENTS_ENV: &str = "SS_NET_SCALE_CLIENTS";
const REQS_ENV: &str = "SS_NET_SCALE_REQS";

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Child role: serve until killed, announcing the bound port first.
fn run_server() -> ! {
    let clients = env_usize(CLIENTS_ENV, 10_000);
    let _ = raise_nofile_limit((clients + 512) as u64);
    let enclave = sgx_sim::enclave::EnclaveBuilder::new("net-scale").epc_bytes(64 << 20).build();
    let store = std::sync::Arc::new(
        shieldstore::ShieldStore::new(
            std::sync::Arc::clone(&enclave),
            shieldstore::Config::shield_opt().buckets(1024).mac_hashes(64).with_shards(4),
        )
        .expect("store"),
    );
    let backend: std::sync::Arc<dyn shield_baseline::KvBackend> = store as _;
    let server = Server::start(
        backend,
        Some(enclave),
        ServerConfig {
            event_loops: env_usize(LOOPS_ENV, 2),
            secure: false,
            max_connections: clients + 128,
            // Parked clients go minutes between requests at this scale.
            frame_timeout: Duration::from_secs(600),
            ..Default::default()
        },
    )
    .expect("server start");
    println!("ADDR={}", server.addr());
    use std::io::Write;
    std::io::stdout().flush().expect("flush addr");
    loop {
        std::thread::park();
    }
}

fn main() {
    if std::env::var(ROLE_ENV).as_deref() == Ok("server") {
        run_server();
    }

    let clients = env_usize(CLIENTS_ENV, 10_000);
    let event_loops = env_usize(LOOPS_ENV, 2);
    let reqs_per_user = env_usize(REQS_ENV, 1000);
    let _ = raise_nofile_limit((clients + 512) as u64);

    let exe = std::env::current_exe().expect("own executable path");
    let mut child = std::process::Command::new(&exe)
        .env(ROLE_ENV, "server")
        .env(LOOPS_ENV, event_loops.to_string())
        .env(CLIENTS_ENV, clients.to_string())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn server child");
    let addr: std::net::SocketAddr = {
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout).read_line(&mut line).expect("child addr line");
        line.trim()
            .strip_prefix("ADDR=")
            .expect("child announces ADDR=")
            .parse()
            .expect("valid server addr")
    };

    // Phase 1: 64-client mixed-load throughput (the regression anchor).
    let load = run_load(
        addr,
        None,
        &LoadConfig {
            users: 64,
            requests_per_user: reqs_per_user,
            secure: false,
            workload: "RD95_Z".into(),
            num_keys: 10_000,
            val_len: 128,
            seed: 42,
        },
    )
    .expect("64-client load");
    let kops_64 = load.kops(Duration::ZERO);
    println!(
        "64-client throughput: {kops_64:.1} Kop/s ({} ops, {} errors, {:?})",
        load.ops, load.errors, load.wall
    );

    // Phase 2: ramp the full herd and hold it open.
    let ramp_started = Instant::now();
    let mut herd: Vec<KvClient> = Vec::with_capacity(clients);
    for i in 0..clients {
        herd.push(KvClient::connect_insecure(addr).expect("ramp connect"));
        if i.is_multiple_of(512) && i > 0 {
            // Brief pause so the accept loops keep ahead of the listen
            // backlog; loopback SYN drops cost a 1s retransmit.
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let ramp = ramp_started.elapsed();
    println!("ramped {clients} concurrent clients in {ramp:?}");

    // Per-request round trips with every connection live. Two sweeps:
    // a write sweep (distinct keys per client) and a read sweep.
    let mut hist = LatencyHist::new();
    let mut errors = 0u64;
    for (i, client) in herd.iter_mut().enumerate() {
        let key = format!("scale-{i}");
        let t = Instant::now();
        match client.set(key.as_bytes(), b"net-scale") {
            Ok(()) => hist.record(t.elapsed().as_nanos() as u64),
            Err(_) => errors += 1,
        }
    }
    for (i, client) in herd.iter_mut().enumerate() {
        let key = format!("scale-{i}");
        let t = Instant::now();
        match client.get(key.as_bytes()) {
            Ok(Some(v)) if v == b"net-scale" => hist.record(t.elapsed().as_nanos() as u64),
            _ => errors += 1,
        }
    }
    println!(
        "latency over {} samples at {clients} live connections: \
         p50={}ns p95={}ns p99={}ns max={}ns ({errors} errors)",
        hist.count(),
        hist.p50(),
        hist.p95(),
        hist.p99(),
        hist.max_ns(),
    );

    drop(herd);
    child.kill().ok();
    child.wait().ok();

    let json = format!(
        "{{\n  \"bench\": \"net_scale\",\n  \"event_loops\": {event_loops},\n  \
         \"throughput_64_clients\": {{\n    \"users\": 64,\n    \"workload\": \"RD95_Z\",\n    \
         \"ops\": {},\n    \"errors\": {},\n    \"wall_ms\": {},\n    \"kops\": {:.3}\n  }},\n  \
         \"concurrency\": {{\n    \"concurrent_clients\": {clients},\n    \
         \"ramp_ms\": {},\n    \"samples\": {},\n    \"errors\": {errors},\n    \
         \"p50_ns\": {},\n    \"p95_ns\": {},\n    \"p99_ns\": {},\n    \"max_ns\": {}\n  }}\n}}\n",
        load.ops,
        load.errors,
        load.wall.as_millis(),
        kops_64,
        ramp.as_millis(),
        hist.count(),
        hist.p50(),
        hist.p95(),
        hist.p99(),
        hist.max_ns(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net_scale.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    assert!(errors == 0, "scale sweep saw {errors} errors");
    assert!(hist.count() as usize >= 2 * clients - 2, "lost latency samples");
}
