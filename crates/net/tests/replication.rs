//! Replication end-to-end: read scale-out, replica lag visibility, and
//! verifiable failover with fencing of the stale primary.

use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use shield_net::repl::{ReplicaConfig, ReplicaNode};
use shield_net::{CrossingMode, KvClient, NetError, Server, ServerConfig};
use shieldstore::{Config, DurabilityPolicy, ShieldStore, Watermark};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Primary and replica run the same enclave binary on the same
/// platform: identical name + seed gives identical MRENCLAVE sealing
/// keys, which promotion needs to read the primary's sealed pin.
fn enclave() -> Arc<Enclave> {
    EnclaveBuilder::new("repl-e2e").seed(7).epc_bytes(8 << 20).build()
}

fn store_config() -> Config {
    Config::shield_opt()
        .buckets(128)
        .mac_hashes(32)
        .with_shards(2)
        .with_durability(DurabilityPolicy::Strict)
        // So the replica's read gate covers scans too.
        .with_ordered_index()
}

fn server_config() -> ServerConfig {
    ServerConfig {
        event_loops: 2,
        crossing: CrossingMode::HotCalls,
        secure: true,
        ..Default::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ss-net-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wait_caught_up(handle: &shield_net::ReplicaHandle, target: Watermark) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.watermark() < target {
        assert!(
            Instant::now() < deadline,
            "replica stuck at {} chasing {}",
            handle.watermark(),
            target
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn failover_preserves_every_acked_write_and_fences_the_old_primary() {
    let primary_wal = scratch("failover-p");
    let replica_wal = scratch("failover-r");

    let primary_enclave = enclave();
    let primary = Arc::new(ShieldStore::new(Arc::clone(&primary_enclave), store_config()).unwrap());
    primary.attach_wal(&primary_wal).unwrap();
    let primary_server = Server::start(
        Arc::clone(&primary) as Arc<dyn shieldstore::KvBackend>,
        Some(Arc::clone(&primary_enclave)),
        server_config(),
    )
    .unwrap();
    let verifier = AttestationVerifier::for_enclave(&primary_enclave)
        .expect_measurement(*primary_enclave.measurement());

    let replica_enclave = enclave();
    let replica_store =
        Arc::new(ShieldStore::new(Arc::clone(&replica_enclave), store_config()).unwrap());
    let node = ReplicaNode::start(
        primary_server.addr(),
        &verifier,
        Arc::clone(&replica_store),
        Arc::clone(&replica_enclave),
        server_config(),
        ReplicaConfig {
            primary_wal_dir: primary_wal.clone(),
            wal_dir: replica_wal.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let handle = node.handle();

    // Load the primary, then take the durable watermark: everything at
    // or below it is acked to clients and must survive failover.
    let mut client = KvClient::connect_secure(primary_server.addr(), &verifier, 100).unwrap();
    for i in 0..200u32 {
        client.set(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    let (gen, seq) = client.flush().unwrap().expect("primary has a WAL");
    let acked = Watermark::new(gen, seq);
    drop(client);

    // The replica streams to the acked watermark before the primary dies.
    wait_caught_up(&handle, acked);

    // Pre-promotion: every write op answers ReadOnly and leaves the
    // replica untouched; every read op serves.
    let mut rc = KvClient::connect_secure(node.addr(), &verifier, 101).unwrap();
    type Write = fn(&mut KvClient) -> shield_net::Result<()>;
    let writes: [(&str, Write); 6] = [
        ("set", |c| c.set(b"k000", b"x")),
        ("set-ttl", |c| c.set_ttl(b"k001", b"x", 1 << 40)),
        ("delete", |c| c.delete(b"k002").map(drop)),
        ("append", |c| c.append(b"k003", b"x")),
        ("increment", |c| c.increment(b"counter", 1).map(drop)),
        ("multi-set", |c| {
            c.multi_set(&[(b"k004".to_vec(), b"x".to_vec()), (b"new".to_vec(), b"x".to_vec())])
        }),
    ];
    for (name, write) in writes {
        match write(&mut rc) {
            Err(NetError::ReadOnly) => {}
            other => panic!("replica {name} must answer ReadOnly, got {other:?}"),
        }
    }
    assert_eq!(replica_store.len(), 200, "a refused write changed the replica");
    for i in 0..5u32 {
        let got = replica_store.get(format!("k{i:03}").as_bytes()).unwrap();
        assert_eq!(got, format!("v{i}").into_bytes(), "k{i:03} changed on the replica");
    }
    assert_eq!(rc.get(b"k000").unwrap().unwrap(), b"v0");
    assert_eq!(
        rc.multi_get(&[b"k001".to_vec(), b"new".to_vec()]).unwrap(),
        vec![Some(b"v1".to_vec()), None]
    );
    assert_eq!(rc.scan_prefix(b"k00", 100).unwrap().len(), 10);

    // Kill the primary (server gone; the store object lingers, like a
    // hung process that later resumes).
    primary_server.shutdown();

    // Promote over the wire. The returned watermark covers every acked
    // write.
    let promoted = rc.promote().unwrap();
    assert!(Watermark::new(promoted.0, promoted.1) >= acked, "promotion lost acked writes");
    assert!(handle.promoted());

    // Zero acked-write loss: every write at the durable watermark reads
    // back on the promoted replica.
    for i in 0..200u32 {
        let got = rc.get(format!("k{i:03}").as_bytes()).unwrap();
        assert_eq!(got.as_deref(), Some(format!("v{i}").as_bytes()), "k{i:03} lost in failover");
    }

    // The promoted node accepts writes and they are durable in its own
    // WAL.
    rc.set(b"post-failover", b"new-primary").unwrap();
    assert_eq!(rc.get(b"post-failover").unwrap().unwrap(), b"new-primary");
    assert!(rc.flush().unwrap().is_some(), "promoted node runs its own WAL");

    // The resurrected stale primary is fenced: its monotonic counter
    // moved behind its back, so its next commit fails closed.
    assert!(primary.set(b"split-brain", b"stale").is_err(), "fenced stale primary must not commit");

    drop(rc);
    node.shutdown();
    let _ = std::fs::remove_dir_all(&primary_wal);
    let _ = std::fs::remove_dir_all(&replica_wal);
}

#[test]
fn replica_lag_gauges_and_read_scale_out() {
    let primary_wal = scratch("lag-p");
    let replica_wal = scratch("lag-r");

    let primary_enclave = enclave();
    let primary = Arc::new(ShieldStore::new(Arc::clone(&primary_enclave), store_config()).unwrap());
    primary.attach_wal(&primary_wal).unwrap();
    let primary_server = Server::start(
        Arc::clone(&primary) as Arc<dyn shieldstore::KvBackend>,
        Some(Arc::clone(&primary_enclave)),
        server_config(),
    )
    .unwrap();
    let verifier = AttestationVerifier::for_enclave(&primary_enclave)
        .expect_measurement(*primary_enclave.measurement());

    let replica_enclave = enclave();
    let replica_store =
        Arc::new(ShieldStore::new(Arc::clone(&replica_enclave), store_config()).unwrap());
    let node = ReplicaNode::start(
        primary_server.addr(),
        &verifier,
        Arc::clone(&replica_store),
        Arc::clone(&replica_enclave),
        server_config(),
        ReplicaConfig {
            primary_wal_dir: primary_wal.clone(),
            wal_dir: replica_wal.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let handle = node.handle();

    let mut client = KvClient::connect_secure(primary_server.addr(), &verifier, 200).unwrap();
    for i in 0..50u32 {
        client.set(format!("lag{i}").as_bytes(), b"value").unwrap();
    }
    let (gen, seq) = client.flush().unwrap().expect("primary has a WAL");
    wait_caught_up(&handle, Watermark::new(gen, seq));

    // Primary-side gauges: role 1, one subscriber, bytes shipped, and
    // the replica's ack visible once it catches up.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = client.stats().unwrap();
        assert_eq!(snap.repl_role, 1, "a primary with subscribers reports role 1");
        assert_eq!(snap.repl_subscribers, 1);
        assert!(snap.repl_segments_shipped > 0);
        assert!(snap.repl_bytes_shipped > 0);
        // The ack arrives on the round after the apply; poll briefly.
        if snap.repl_acked_seq >= seq && snap.repl_lag_records == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "primary never saw the replica's ack");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Replica-side gauges: role 2, applied watermark, zero lag.
    let mut rc = KvClient::connect_secure(node.addr(), &verifier, 201).unwrap();
    let rsnap = rc.stats().unwrap();
    assert_eq!(rsnap.repl_role, 2, "a streaming replica reports role 2");
    assert_eq!(rsnap.repl_acked_generation, gen);
    assert!(rsnap.repl_acked_seq >= seq);
    assert_eq!(rsnap.repl_lag_records, 0, "caught-up replica has no lag");

    // Read scale-out: the same data serves from both nodes.
    for i in 0..50u32 {
        let key = format!("lag{i}");
        assert_eq!(rc.get(key.as_bytes()).unwrap().unwrap(), b"value");
        assert_eq!(client.get(key.as_bytes()).unwrap().unwrap(), b"value");
    }

    drop(client);
    drop(rc);
    node.shutdown();
    primary_server.shutdown();
    let _ = std::fs::remove_dir_all(&primary_wal);
    let _ = std::fs::remove_dir_all(&replica_wal);
}
