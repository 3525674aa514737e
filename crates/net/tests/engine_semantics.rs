//! PR 5 semantics, pinned on the readiness-loop engine.
//!
//! The blocking thread-per-connection server established the hardening
//! contract: slow-loris connections die at the frame timeout, expired
//! deadlines shed as `Busy` without desyncing the sealed channel,
//! excess connections are refused at accept, shutdown drains within its
//! deadline even against stalled peers, and quarantined partitions fail
//! closed over the wire. `tests/robustness.rs` checks those on the
//! default configuration; this suite re-proves them where the new
//! engine is actually different — multiple event loops sharing the
//! accept socket, cross-loop shard handoffs in the request path, and
//! per-connection pipelining with read backpressure.

use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::EnclaveBuilder;
use shield_net::protocol::{OpCode, Request, Status};
use shield_net::server::{Server, ServerConfig};
use shield_net::{KvClient, NetError};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn multi_loop_server(
    name: &str,
    cfg: ServerConfig,
    quarantine: bool,
) -> (Arc<sgx_sim::enclave::Enclave>, Arc<shieldstore::ShieldStore>, Server) {
    let enclave = EnclaveBuilder::new(name).epc_bytes(16 << 20).build();
    let mut store_cfg =
        shieldstore::Config::shield_opt().buckets(256).mac_hashes(64).with_shards(4);
    if quarantine {
        store_cfg = store_cfg.with_quarantine();
    }
    let store = Arc::new(shieldstore::ShieldStore::new(Arc::clone(&enclave), store_cfg).unwrap());
    let backend: Arc<dyn shieldstore::KvBackend> = Arc::clone(&store) as _;
    let server = Server::start(backend, Some(Arc::clone(&enclave)), cfg).unwrap();
    (enclave, store, server)
}

fn secure_client(enclave: &Arc<sgx_sim::enclave::Enclave>, server: &Server, seed: u64) -> KvClient {
    let verifier =
        AttestationVerifier::for_enclave(enclave).expect_measurement(*enclave.measurement());
    KvClient::connect_secure(server.addr(), &verifier, seed).unwrap()
}

/// Keys spanning every shard, so a multi-loop server must hand requests
/// across loops no matter which loop accepted the connection.
fn spanning_keys(store: &shieldstore::ShieldStore, per_shard: usize) -> Vec<String> {
    let shards = store.num_shards();
    let mut buckets = vec![0usize; shards];
    let mut keys = Vec::new();
    let mut i = 0u64;
    while buckets.iter().any(|&b| b < per_shard) {
        let key = format!("span-{i}");
        let shard = store.shard_of(key.as_bytes());
        if buckets[shard] < per_shard {
            buckets[shard] += 1;
            keys.push(key);
        }
        i += 1;
    }
    keys
}

/// Slow loris against a multi-loop engine: the loop that owns the
/// stalled connection kills it at the frame timeout while every other
/// loop keeps serving. The victim sees EOF, not a hang.
#[test]
fn slow_loris_dies_at_frame_timeout_on_multi_loop_engine() {
    let (enclave, _store, server) = multi_loop_server(
        "engine-loris",
        ServerConfig {
            event_loops: 4,
            frame_timeout: Duration::from_millis(200),
            secure: false,
            ..Default::default()
        },
        false,
    );
    drop(enclave);

    let mut healthy = KvClient::connect_insecure(server.addr()).unwrap();
    healthy.set(b"alive", b"yes").unwrap();

    // Half a length header, then silence: the classic loris shape.
    let mut loris = std::net::TcpStream::connect(server.addr()).unwrap();
    std::io::Write::write_all(&mut loris, &[0x10, 0x00]).unwrap();
    loris.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // The owning loop must notice the deadline without any new I/O on
    // the connection and hard-close it.
    let mut buf = [0u8; 8];
    let started = Instant::now();
    let n = std::io::Read::read(&mut loris, &mut buf).unwrap();
    assert_eq!(n, 0, "expected EOF from the frame-timeout kill");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "kill took {:?}, frame timeout is 200ms",
        started.elapsed()
    );

    // Other loops were never wedged.
    assert_eq!(healthy.get(b"alive").unwrap().as_deref(), Some(b"yes".as_ref()));
    drop(healthy);
    server.shutdown();
}

/// A zero request deadline sheds every admitted request as `Busy` on a
/// multi-loop engine — including requests that crossed loops — and the
/// sealed channel's sequence numbers stay aligned across the sheds.
#[test]
fn zero_deadline_sheds_busy_across_loops_without_desync() {
    let (enclave, store, server) = multi_loop_server(
        "engine-shed",
        ServerConfig { event_loops: 2, request_deadline: Duration::ZERO, ..Default::default() },
        false,
    );
    let mut client = secure_client(&enclave, &server, 97);
    for key in spanning_keys(&store, 2) {
        match client.get(key.as_bytes()) {
            Err(NetError::Busy) => {}
            other => panic!("{key}: expected Busy, got {other:?}"),
        }
    }
    // The channel survived eight sheds: the next frame still opens and
    // seals correctly (and is itself shed, not rejected as garbage).
    match client.ping() {
        Err(NetError::Busy) => {}
        other => panic!("expected Busy ping, got {other:?}"),
    }
    assert!(server.shed_requests() >= 9);
    drop(client);
    server.shutdown();
}

/// The accept share is EPOLLEXCLUSIVE across loops, but the connection
/// cap is global: whichever loop wins the accept race must honor it.
#[test]
fn connection_cap_is_global_across_accept_sharing_loops() {
    let (enclave, _store, server) = multi_loop_server(
        "engine-cap",
        ServerConfig { event_loops: 4, max_connections: 2, ..Default::default() },
        false,
    );
    let mut a = secure_client(&enclave, &server, 1);
    let mut b = secure_client(&enclave, &server, 2);
    a.ping().unwrap();
    b.ping().unwrap();

    let verifier =
        AttestationVerifier::for_enclave(&enclave).expect_measurement(*enclave.measurement());
    assert!(
        KvClient::connect_secure(server.addr(), &verifier, 3).is_err(),
        "third connection must be refused at the global cap"
    );
    assert!(server.refused_connections() >= 1);

    // Freeing a slot re-admits: the cap is a gauge, not a ratchet.
    drop(a);
    let mut c = loop {
        // The server decrements `active` when the loop reaps the closed
        // socket; retry briefly until the slot is visible.
        match KvClient::connect_secure(server.addr(), &verifier, 4) {
            Ok(c) => break c,
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    c.ping().unwrap();
    drop((b, c));
    server.shutdown();
}

/// Pipelined requests hit every shard from one connection: responses
/// come back exactly in request order (the sealed channel demands it),
/// values are correct, and the engine recorded cross-loop handoffs.
#[test]
fn pipelined_cross_shard_burst_preserves_order_and_hands_off() {
    let (enclave, store, server) = multi_loop_server(
        "engine-pipeline",
        ServerConfig { event_loops: 2, max_pipeline: 4, ..Default::default() },
        false,
    );
    let mut client = secure_client(&enclave, &server, 55);
    let keys = spanning_keys(&store, 8);

    let sets: Vec<Request> = keys
        .iter()
        .map(|k| Request {
            op: OpCode::Set,
            key: k.clone().into_bytes(),
            value: k.clone().into_bytes(),
        })
        .collect();
    // Depth 32 against max_pipeline 4: the engine must pause reads at
    // the cap and resume as responses release, never dropping or
    // reordering a frame.
    for resp in client.pipeline(&sets).unwrap() {
        assert_eq!(resp.status, Status::Ok, "pipelined set failed");
    }
    let gets: Vec<Request> = keys
        .iter()
        .map(|k| Request { op: OpCode::Get, key: k.clone().into_bytes(), value: Vec::new() })
        .collect();
    let responses = client.pipeline(&gets).unwrap();
    assert_eq!(responses.len(), keys.len());
    for (key, resp) in keys.iter().zip(&responses) {
        assert_eq!(resp.status, Status::Ok, "{key}: unexpected status");
        assert_eq!(resp.value, key.as_bytes(), "response out of order");
    }

    assert!(server.cross_loop_handoffs() >= 1, "keys span all shards but no request crossed loops");
    assert_eq!(server.requests_served(), 2 * keys.len() as u64);
    drop(client);
    server.shutdown();
}

/// Shutdown with live cross-loop traffic *and* a stalled connection:
/// in-flight pipelined work completes, the stalled peer is hard-closed,
/// and the whole drain lands within the deadline (plus scheduling
/// slack), not at the frame timeout.
#[test]
fn drain_completes_within_deadline_despite_cross_loop_work_and_stall() {
    let (enclave, store, server) = multi_loop_server(
        "engine-drain",
        ServerConfig {
            event_loops: 2,
            frame_timeout: Duration::from_secs(60),
            drain_deadline: Duration::from_millis(400),
            ..Default::default()
        },
        false,
    );

    // Cross-loop traffic right up to the drain.
    let mut client = secure_client(&enclave, &server, 21);
    for key in spanning_keys(&store, 4) {
        client.set(key.as_bytes(), b"persisted").unwrap();
    }

    // A stalled peer that only the drain hard-close can evict (the
    // frame timeout is a minute out).
    let mut stalled = std::net::TcpStream::connect(server.addr()).unwrap();
    std::io::Write::write_all(&mut stalled, &[0x02]).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let a loop adopt it

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(5), "drain took {elapsed:?} against a 400ms deadline");
    drop((client, stalled));
}

/// Quarantine fails closed over the wire on a multi-loop engine: the
/// poisoned partition answers `Quarantined` from whichever loop owns
/// it, healthy shards keep serving, and the stats frame carries the
/// gauges — including the engine's own.
#[test]
fn quarantine_fails_closed_over_the_wire_on_multi_loop_engine() {
    let (enclave, store, server) = multi_loop_server(
        "engine-quarantine",
        ServerConfig { event_loops: 2, ..Default::default() },
        true,
    );
    let mut client = secure_client(&enclave, &server, 77);
    let keys = spanning_keys(&store, 8);
    for k in &keys {
        client.set(k.as_bytes(), b"value").unwrap();
    }
    assert!(store.tamper_any_entry_byte(5));

    // First sweep trips the violation; second proves fail-closed.
    for k in &keys {
        let _ = client.get(k.as_bytes());
    }
    let report = store.quarantine_report();
    assert!(!report.is_clean());

    let mut quarantined = 0;
    for k in &keys {
        let (shard, set) = store.key_partition(k.as_bytes());
        let poisoned = report.shards[shard].quarantined_sets.contains(&set);
        match client.get(k.as_bytes()) {
            Ok(v) => {
                assert!(!poisoned, "{k}: quarantined key served");
                assert_eq!(v.as_deref(), Some(b"value".as_ref()));
            }
            Err(NetError::Quarantined) => {
                assert!(poisoned, "{k}: healthy key reported quarantined");
                quarantined += 1;
            }
            other => panic!("{k}: unexpected outcome {other:?}"),
        }
    }
    assert!(quarantined >= 1);

    let snap = client.stats().unwrap();
    assert!(snap.quarantined_sets >= 1);
    assert_eq!(snap.event_loops, 2);
    assert!(snap.cross_loop_handoffs >= 1);
    drop(client);
    server.shutdown();
}
