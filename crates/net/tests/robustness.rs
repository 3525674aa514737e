//! Robustness tests for the wire protocol and session layer: malformed,
//! truncated, and fuzz-shaped inputs must produce errors, never panics.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::EnclaveBuilder;
use shield_net::protocol::{self, read_frame, write_frame, OpCode, Request, Response};
use shield_net::session;
use std::io::Cursor;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Arbitrary bytes never panic the request decoder.
    #[test]
    fn request_decode_never_panics(bytes in pvec(any::<u8>(), 0..128)) {
        let _ = Request::decode(&bytes);
    }

    /// Arbitrary bytes never panic the response decoder.
    #[test]
    fn response_decode_never_panics(bytes in pvec(any::<u8>(), 0..128)) {
        let _ = Response::decode(&bytes);
    }

    /// Any request under any opcode must decode back to itself.
    #[test]
    fn request_roundtrip(
        op in 1u8..11,
        key in pvec(any::<u8>(), 0..64),
        value in pvec(any::<u8>(), 0..128),
    ) {
        let request = Request { op: OpCode::from_u8(op).unwrap(), key, value };
        prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request);
    }

    /// Arbitrary bytes never panic any batch or scan decoder.
    #[test]
    fn batch_decoders_never_panic(bytes in pvec(any::<u8>(), 0..256)) {
        let _ = protocol::decode_multi_get(&bytes);
        let _ = protocol::decode_multi_get_response(&bytes);
        let _ = protocol::decode_multi_set(&bytes);
        let _ = protocol::decode_scan(&bytes);
        let _ = protocol::decode_stats(&bytes);
    }

    /// Arbitrary bytes never panic the stats decoder, even when they
    /// start with the genuine version and field-count prefix (so the
    /// fixed-width body parser itself gets exercised, not just the
    /// header check).
    #[test]
    fn stats_decode_never_panics(bytes in pvec(any::<u8>(), 0..4096)) {
        let _ = protocol::decode_stats(&bytes);
        let mut prefixed = vec![
            protocol::STATS_WIRE_VERSION,
            shieldstore::OpStats::FIELDS.len() as u8,
        ];
        prefixed.extend_from_slice(&bytes);
        let _ = protocol::decode_stats(&prefixed);
    }

    /// A stats snapshot with arbitrary counters and recorded samples
    /// roundtrips exactly; truncating the encoding anywhere is rejected.
    #[test]
    fn stats_roundtrip_and_truncation(
        counters in pvec(any::<u64>(), 0..64),
        samples in pvec(any::<u64>(), 0..32),
        cut_at in any::<prop::sample::Index>(),
    ) {
        let mut snap = shieldstore::StatsSnapshot::default();
        // Cycle the drawn values over the whole field table, so every
        // counter gets exercised regardless of how many were drawn.
        for (i, f) in shieldstore::OpStats::FIELDS.iter().enumerate() {
            *(f.get_mut)(&mut snap.ops) = counters.get(i % counters.len().max(1)).copied()
                .unwrap_or(0);
        }
        for (i, s) in samples.iter().enumerate() {
            match i % 4 {
                0 => snap.hists.get.record(*s),
                1 => snap.hists.set.record(*s),
                2 => snap.hists.delete.record(*s),
                _ => snap.hists.batch.record(*s),
            }
        }
        let encoded = protocol::encode_stats(&snap);
        prop_assert_eq!(protocol::decode_stats(&encoded).unwrap(), snap);
        let cut = cut_at.index(encoded.len()); // strictly shorter
        prop_assert!(protocol::decode_stats(&encoded[..cut]).is_err());
    }

    /// Batch payloads roundtrip for arbitrary key/value shapes,
    /// including empty keys and duplicate keys.
    #[test]
    fn batch_payload_roundtrip(
        keys in pvec(pvec(any::<u8>(), 0..16), 0..8),
        vals in pvec(pvec(any::<u8>(), 0..16), 0..8),
    ) {
        prop_assert_eq!(&protocol::decode_multi_get(&protocol::encode_multi_get(&keys)).unwrap(), &keys);
        let items: Vec<(Vec<u8>, Vec<u8>)> =
            keys.iter().cloned().zip(vals.iter().cloned()).collect();
        prop_assert_eq!(&protocol::decode_multi_set(&protocol::encode_multi_set(&items)).unwrap(), &items);
        prop_assert_eq!(&protocol::decode_scan(&protocol::encode_scan(&items)).unwrap(), &items);
        let results: Vec<Option<Vec<u8>>> =
            vals.iter().enumerate().map(|(i, v)| (i % 2 == 0).then(|| v.clone())).collect();
        prop_assert_eq!(
            &protocol::decode_multi_get_response(&protocol::encode_multi_get_response(&results)).unwrap(),
            &results
        );
    }

    /// Truncating an encoded request at any point is rejected (never
    /// mis-decoded to something shorter).
    #[test]
    fn truncated_request_rejected(
        key in pvec(any::<u8>(), 1..32),
        value in pvec(any::<u8>(), 1..32),
        cut_at in any::<prop::sample::Index>(),
    ) {
        let full = Request { op: OpCode::Set, key, value }.encode();
        let cut = cut_at.index(full.len() - 1); // strictly shorter
        prop_assert!(Request::decode(&full[..cut]).is_err());
    }

    /// Frames roundtrip through a buffer for any body.
    #[test]
    fn frame_roundtrip(bodies in pvec(pvec(any::<u8>(), 0..200), 1..5)) {
        let mut wire = Vec::new();
        for body in &bodies {
            write_frame(&mut wire, body).unwrap();
        }
        let mut cursor = Cursor::new(wire);
        for body in &bodies {
            prop_assert_eq!(&read_frame(&mut cursor).unwrap().unwrap(), body);
        }
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// A truncated frame body surfaces as an error, not a hang or panic.
    #[test]
    fn truncated_frame_rejected(body in pvec(any::<u8>(), 1..100), cut_at in any::<prop::sample::Index>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let cut = 4 + cut_at.index(body.len()); // keep the header, cut the body
        let mut cursor = Cursor::new(&wire[..cut]);
        prop_assert!(read_frame(&mut cursor).is_err());
    }

    /// Responses roundtrip under every status, including the overload
    /// statuses Busy and Quarantined.
    #[test]
    fn response_roundtrip_all_statuses(
        status in 0u8..5,
        value in pvec(any::<u8>(), 0..128),
    ) {
        let response = Response {
            status: protocol::Status::from_u8(status).unwrap(),
            value,
        };
        prop_assert_eq!(Response::decode(&response.encode()).unwrap(), response);
    }

    /// Unknown status bytes are rejected, never mapped to a valid status.
    #[test]
    fn unknown_status_bytes_rejected(raw in any::<u8>(), value in pvec(any::<u8>(), 0..32)) {
        let status = 8u8.wrapping_add(raw % 248); // any byte in 8..=255
        let mut bytes = vec![status];
        bytes.extend_from_slice(&(value.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&value);
        prop_assert!(Response::decode(&bytes).is_err());
        prop_assert!(protocol::Status::from_u8(status).is_err());
    }

    /// The versioned scan-limit codec: corrupting the version byte is
    /// rejected; corrupting a limit byte yields a *different* limit
    /// (payload integrity is the session MAC's job, not the codec's);
    /// truncating or extending the encoding anywhere is rejected.
    #[test]
    fn scan_limit_corruption_and_truncation(
        limit in any::<u32>(),
        idx in 0usize..5,
        raw_flip in any::<u8>(),
        extra in 1usize..4,
    ) {
        let flip = raw_flip.max(1); // nonzero, so the byte really changes
        let encoded = protocol::encode_scan_limit(limit);
        prop_assert_eq!(encoded.len(), 5);
        prop_assert_eq!(protocol::decode_scan_limit(&encoded).unwrap(), limit);

        let mut corrupted = encoded.clone();
        corrupted[idx] ^= flip;
        if idx == 0 {
            prop_assert!(protocol::decode_scan_limit(&corrupted).is_err());
        } else {
            prop_assert_ne!(protocol::decode_scan_limit(&corrupted).unwrap(), limit);
        }

        for cut in 0..encoded.len() {
            prop_assert!(protocol::decode_scan_limit(&encoded[..cut]).is_err());
        }
        let mut extended = encoded;
        extended.extend(std::iter::repeat_n(0, extra));
        prop_assert!(protocol::decode_scan_limit(&extended).is_err());
    }

    /// Arbitrary bytes never panic the scan-limit decoder.
    #[test]
    fn scan_limit_decode_never_panics(bytes in pvec(any::<u8>(), 0..16)) {
        let _ = protocol::decode_scan_limit(&bytes);
    }

    /// Feeding arbitrary bytes to the sealed-channel opener never panics
    /// and (with overwhelming probability) never authenticates.
    #[test]
    fn garbage_never_authenticates(bytes in pvec(any::<u8>(), 0..256)) {
        // Establish a real session over an in-memory exchange.
        let enclave = EnclaveBuilder::new("robust-net").build();
        let verifier = AttestationVerifier::for_enclave(&enclave);
        let (mut client, mut server) = handshake_pair(&enclave, &verifier);
        prop_assert!(server.open(&bytes).is_err());
        // The session still works after rejecting garbage.
        let ok = client.seal(b"still works");
        prop_assert_eq!(server.open(&ok).unwrap(), b"still works");
    }
}

/// A valid data request of every shape the client encodes: selector
/// `sel` picks the opcode, the rest fills its key and payload.
fn data_request(sel: u8, key: Vec<u8>, value: Vec<u8>, keys: Vec<Vec<u8>>, n: u64) -> Request {
    let (op, value) = match sel {
        0 => (OpCode::Get, Vec::new()),
        1 => (OpCode::Set, value),
        2 => (OpCode::SetTtl, protocol::encode_set_ttl(n.max(1), &value)),
        3 => (OpCode::Delete, Vec::new()),
        4 => (OpCode::Append, value),
        5 => (OpCode::Increment, n.to_le_bytes().to_vec()),
        6 => (OpCode::MultiGet, protocol::encode_multi_get(&keys)),
        7 => {
            let items: Vec<(Vec<u8>, Vec<u8>)> =
                keys.iter().map(|k| (k.clone(), value.clone())).collect();
            (OpCode::MultiSet, protocol::encode_multi_set(&items))
        }
        _ => (OpCode::ScanPrefix, protocol::encode_scan_limit(n as u32)),
    };
    Request { op, key, value }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Every proper prefix of a valid data request decodes to `Err`,
    /// never a panic, and only the whole request yields its operation.
    /// That holds for the whole encoded request and, where the payload
    /// is self-delimiting (TTL header, delta, batch, scan limit), for
    /// every prefix of the payload under the full request header too.
    #[test]
    fn data_request_prefixes_never_decode(
        sel in 0u8..9,
        key in pvec(any::<u8>(), 0..16),
        value in pvec(any::<u8>(), 0..16),
        keys in pvec(pvec(any::<u8>(), 0..8), 0..5),
        n in any::<u64>(),
    ) {
        let request = data_request(sel, key, value, keys, n);
        prop_assert!(request.as_op().is_ok());
        let encoded = request.encode();
        prop_assert_eq!(&Request::decode(&encoded).unwrap(), &request);
        for cut in 0..encoded.len() {
            let decoded = Request::decode(&encoded[..cut]).and_then(|r| r.as_op().map(drop));
            prop_assert!(decoded.is_err(), "prefix of {} bytes decoded", cut);
        }
        let delimited = match request.op {
            OpCode::SetTtl => 8,
            OpCode::Increment | OpCode::MultiGet | OpCode::MultiSet | OpCode::ScanPrefix => {
                request.value.len()
            }
            _ => 0,
        };
        for cut in 0..delimited {
            let prefix = Request { value: request.value[..cut].to_vec(), ..request.clone() };
            prop_assert!(prefix.as_op().is_err(), "{:?} payload prefix of {} bytes decoded", request.op, cut);
        }
    }

    /// Arbitrary payloads under any opcode never panic the operation
    /// decoder.
    #[test]
    fn as_op_never_panics(op in 1u8..17, key in pvec(any::<u8>(), 0..16), value in pvec(any::<u8>(), 0..64)) {
        let _ = Request { op: OpCode::from_u8(op).unwrap(), key, value }.as_op();
    }
}

/// Runs the real handshake over an in-memory duplex pipe.
fn handshake_pair(
    enclave: &std::sync::Arc<sgx_sim::enclave::Enclave>,
    verifier: &AttestationVerifier,
) -> (session::SessionCrypto, session::SessionCrypto) {
    use std::io::{Read, Write};

    struct Pipe {
        rx: std::sync::mpsc::Receiver<u8>,
        tx: std::sync::mpsc::Sender<u8>,
    }
    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            for (i, slot) in buf.iter_mut().enumerate() {
                match self.rx.recv() {
                    Ok(b) => *slot = b,
                    Err(_) if i == 0 => {
                        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof))
                    }
                    Err(_) => return Ok(i),
                }
            }
            Ok(buf.len())
        }
    }
    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            for &b in buf {
                self.tx
                    .send(b)
                    .map_err(|_| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let (tx_a, rx_b) = std::sync::mpsc::channel();
    let (tx_b, rx_a) = std::sync::mpsc::channel();
    let mut client_side = Pipe { rx: rx_a, tx: tx_a };
    let mut server_side = Pipe { rx: rx_b, tx: tx_b };

    let enclave2 = std::sync::Arc::clone(enclave);
    let server_thread =
        std::thread::spawn(move || session::server_handshake(&mut server_side, &enclave2));
    let client = session::client_handshake(&mut client_side, verifier, 1).expect("client side");
    let (server, _tenant) = server_thread.join().expect("join").expect("server side");
    (client, server)
}

// ---------------------------------------------------------------------
// Live-server hardening: drain, shedding, connection caps, quarantine.
// ---------------------------------------------------------------------

use shield_net::client::{Connector, RetryClient, RetryPolicy};
use shield_net::server::{Server, ServerConfig};
use shield_net::{KvClient, NetError};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn hardened_server(
    name: &str,
    cfg: ServerConfig,
    quarantine: bool,
) -> (Arc<sgx_sim::enclave::Enclave>, Arc<shieldstore::ShieldStore>, Server) {
    let enclave = EnclaveBuilder::new(name).epc_bytes(16 << 20).build();
    let mut store_cfg =
        shieldstore::Config::shield_opt().buckets(256).mac_hashes(64).with_shards(2);
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

/// A connection that sends half a frame header and stalls must not block
/// `shutdown()`: the drain deadline hard-closes it.
#[test]
fn half_frame_stall_does_not_block_shutdown() {
    let (enclave, _store, server) = hardened_server(
        "drain-stall",
        ServerConfig {
            // Long enough that the stalled frame never times out on its
            // own: only the drain hard-close can unstick the handler.
            frame_timeout: Duration::from_secs(60),
            drain_deadline: Duration::from_millis(400),
            secure: false,
            ..Default::default()
        },
        false,
    );
    drop(enclave);

    // A healthy client proves the server is actually serving.
    let mut healthy = KvClient::connect_insecure(server.addr()).unwrap();
    healthy.set(b"k", b"v").unwrap();

    // The stalled connection: half a length header, then silence.
    let mut stalled = std::net::TcpStream::connect(server.addr()).unwrap();
    std::io::Write::write_all(&mut stalled, &[0x04, 0x00]).unwrap();

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "shutdown took {elapsed:?}, expected to finish within the drain deadline"
    );
    drop(stalled);
}

/// With a zero request deadline every admitted request is shed: the
/// client sees `Busy`, never a wrong answer, and the session's crypto
/// sequence stays aligned across sheds.
#[test]
fn zero_deadline_sheds_requests_as_busy() {
    let (enclave, _store, server) = hardened_server(
        "shed-deadline",
        ServerConfig { request_deadline: Duration::ZERO, ..Default::default() },
        false,
    );
    let mut client = secure_client(&enclave, &server, 41);
    for _ in 0..4 {
        match client.get(b"k") {
            Err(NetError::Busy) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
    }
    // Sheds kept the sealed channel aligned: ping still round-trips the
    // crypto (and is itself shed, not rejected as a bad frame).
    match client.ping() {
        Err(NetError::Busy) => {}
        other => panic!("expected Busy ping, got {other:?}"),
    }
    assert!(server.shed_requests() >= 5);
    drop(client);
    server.shutdown();
}

/// Connections past `max_connections` are refused at accept and counted.
#[test]
fn connection_cap_refuses_excess_clients() {
    let (enclave, _store, server) = hardened_server(
        "conn-cap",
        ServerConfig { max_connections: 1, ..Default::default() },
        false,
    );
    let mut first = secure_client(&enclave, &server, 7);
    first.ping().unwrap();

    // The second connection is dropped before any handshake byte, so the
    // client-side handshake fails.
    let verifier =
        AttestationVerifier::for_enclave(&enclave).expect_measurement(*enclave.measurement());
    assert!(KvClient::connect_secure(server.addr(), &verifier, 8).is_err());
    assert!(server.refused_connections() >= 1);

    // The admitted session is unaffected.
    first.set(b"still", b"serving").unwrap();
    assert_eq!(first.get(b"still").unwrap().as_deref(), Some(b"serving".as_ref()));
    drop(first);
    server.shutdown();
}

/// An integrity violation quarantines one partition: its keys answer
/// `Quarantined` over the wire while the rest of the store keeps
/// serving correct values, and the stats opcode reports the gauges.
#[test]
fn quarantined_partition_answers_quarantined_over_the_wire() {
    let (enclave, store, server) =
        hardened_server("quarantine-wire", ServerConfig::default(), true);
    let mut client = secure_client(&enclave, &server, 11);
    let keys: Vec<String> = (0..64).map(|i| format!("q{i}")).collect();
    for k in &keys {
        client.set(k.as_bytes(), b"value").unwrap();
    }
    assert!(store.tamper_any_entry_byte(5));

    // First sweep trips the violation; afterwards the store names the
    // poisoned partition.
    for k in &keys {
        let _ = client.get(k.as_bytes());
    }
    let report = store.quarantine_report();
    assert!(!report.is_clean());
    assert_eq!(report.quarantined_sets(), 1);

    // Second sweep: quarantined partition fails closed with the
    // dedicated wire status; every other key still serves correctly.
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

    // The live stats snapshot carries the quarantine gauges.
    let snap = client.stats().unwrap();
    assert_eq!(snap.quarantined_sets, 1);
    assert_eq!(snap.quarantined_shards, 0);
    assert!(snap.ops.quarantine_rejections >= 1);
    drop(client);
    server.shutdown();
}

/// The retry client backs off on `Busy` and gives up after the policy's
/// retry budget — it never invents an answer.
#[test]
fn retry_client_exhausts_busy_retries() {
    let (enclave, _store, server) = hardened_server(
        "retry-busy",
        ServerConfig { request_deadline: Duration::ZERO, ..Default::default() },
        false,
    );
    let verifier =
        AttestationVerifier::for_enclave(&enclave).expect_measurement(*enclave.measurement());
    let policy = RetryPolicy {
        max_retries: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        ..Default::default()
    };
    let mut client =
        RetryClient::new(Connector::Secure { addr: server.addr(), verifier, seed: 21 }, policy);
    match client.get(b"k") {
        Err(NetError::Busy) => {}
        other => panic!("expected Busy after exhausted retries, got {other:?}"),
    }
    assert_eq!(client.busy_retries(), 3);
    assert_eq!(client.reconnects(), 0, "Busy must not tear down the session");
    server.shutdown();
}

/// The retry client re-establishes a torn-down session and replays an
/// idempotent request against a healthy server.
#[test]
fn retry_client_reconnects_after_session_loss() {
    let (enclave, _store, server) =
        hardened_server("retry-reconnect", ServerConfig::default(), false);
    let verifier =
        AttestationVerifier::for_enclave(&enclave).expect_measurement(*enclave.measurement());
    let policy = RetryPolicy {
        max_retries: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        read_timeout: Some(Duration::from_millis(500)),
        ..Default::default()
    };
    let mut client =
        RetryClient::new(Connector::Secure { addr: server.addr(), verifier, seed: 33 }, policy);
    client.set(b"k", b"v1").unwrap();

    // Tear down the session out from under the client: the next
    // operation must transparently reconnect and replay.
    client.disconnect();
    assert_eq!(client.get(b"k").unwrap().as_deref(), Some(b"v1".as_ref()));
    assert!(client.reconnects() >= 1);
    server.shutdown();
}
