//! Wire-layer attacks: a deterministic byte-level fault proxy sits
//! between a real client and a real server, garbling, truncating,
//! duplicating, and dropping frames. The client survives by failing
//! closed — any receive failure poisons the session and forces a
//! reconnect — and the shadow model checks that no fault ever turns
//! into silently wrong data.

use crate::model::{ShadowModel, Violation};
use crate::proxy::{FaultPlan, FaultProxy};
use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::EnclaveBuilder;
use shield_net::client::KvClient;
use shield_net::server::{CrossingMode, Server, ServerConfig};
use shield_workload::rng::SplitMix64;
use shieldstore::{Config, ShieldStore};
use std::sync::Arc;
use std::time::Duration;

const NUM_KEYS: u64 = 24;
const OPS: u64 = 14;
const READ_TIMEOUT: Duration = Duration::from_millis(150);

/// Outcome accounting for one wire-phase run.
#[derive(Debug, Default, Clone)]
pub struct WireReport {
    /// Operations attempted over the faulty link.
    pub ops: u64,
    /// Frame faults the proxy actually injected.
    pub faults: u64,
    /// Operations that failed closed (poisoned session, reconnect).
    pub failed_closed: u64,
    /// Reconnects forced by poisoned sessions.
    pub reconnects: u64,
}

fn key_bytes(id: u64) -> Vec<u8> {
    shield_workload::make_key(id, 12)
}

fn value_bytes(id: u64, step: u64) -> Vec<u8> {
    shield_workload::make_value(id, step, 20)
}

/// Runs the proxy-mediated wire phase for one seed.
pub fn run_wire_phase(seed: u64) -> Result<WireReport, Violation> {
    sgx_sim::vclock::reset();
    let enclave = EnclaveBuilder::new("adversary-wire").seed(seed).epc_bytes(8 << 20).build();
    let store = Arc::new(
        ShieldStore::new(Arc::clone(&enclave), Config::shield_opt().buckets(64).mac_hashes(16))
            .expect("store construction"),
    );
    // One event loop: the engine then executes an old connection's
    // in-flight request before a new connection's (strict global FIFO),
    // so the model's sequential view stays valid across reconnects.
    // Short frame/drain deadlines keep seeds fast when the proxy's
    // `Stall` fault leaves a half-written frame on the server.
    let backend: Arc<dyn shield_baseline::KvBackend> = store.clone();
    let server = Server::start(
        backend,
        Some(Arc::clone(&enclave)),
        ServerConfig {
            event_loops: 1,
            crossing: CrossingMode::HotCalls,
            secure: true,
            frame_timeout: Duration::from_millis(500),
            drain_deadline: Duration::from_millis(500),
            ..Default::default()
        },
    )
    .expect("server start");
    let verifier = AttestationVerifier::for_enclave(&enclave);
    // skip_frames=1 keeps the one-frame-each-way handshake clean; every
    // frame after that is fair game, one fault per `period` frames.
    let proxy = FaultProxy::start(server.addr(), FaultPlan { seed, skip_frames: 1, period: 3 })
        .expect("proxy start");

    let mut report = WireReport::default();
    let mut model = ShadowModel::new();
    let mut rng = SplitMix64::new(seed ^ 0x3131_c0de_fa17_0000);
    let mut conn_seq = 0u64;
    let mut client = connect(&proxy, &verifier, seed, &mut conn_seq);

    let result = (|| {
        for step in 0..OPS {
            report.ops += 1;
            let id = rng.next_u64() % NUM_KEYS;
            let key = key_bytes(id);
            let failed = match rng.next_below(3) {
                0 => match client.get(&key) {
                    Ok(observed) => {
                        model.check_read("wire get", &key, &observed)?;
                        false
                    }
                    Err(_) => true,
                },
                1 => {
                    let value = value_bytes(id, step);
                    match client.set(&key, &value) {
                        Ok(()) => {
                            model.apply_set(&key, &value);
                            false
                        }
                        Err(_) => {
                            // The request may or may not have reached the
                            // store before the fault hit.
                            model.apply_failed_set(&key, &value);
                            true
                        }
                    }
                }
                _ => match client.delete(&key) {
                    Ok(true) => {
                        model.check_delete_hit("wire delete", &key)?;
                        model.apply_delete(&key);
                        false
                    }
                    Ok(false) => {
                        model.check_read("wire delete miss", &key, &None)?;
                        false
                    }
                    Err(_) => {
                        model.apply_failed_delete(&key);
                        true
                    }
                },
            };
            if failed {
                // Fail closed: the session is poisoned; reconnect.
                report.failed_closed += 1;
                report.reconnects += 1;
                client = connect(&proxy, &verifier, seed, &mut conn_seq);
            }
        }

        // Batched ops through the same faulty link.
        for round in 0..3u64 {
            report.ops += 1;
            let n = 2 + rng.next_below(4) as usize;
            if rng.next_below(2) == 0 {
                let keys: Vec<Vec<u8>> =
                    (0..n).map(|_| key_bytes(rng.next_u64() % NUM_KEYS)).collect();
                match client.multi_get(&keys) {
                    Ok(results) if results.len() == keys.len() => {
                        for (key, r) in keys.iter().zip(results) {
                            model.check_read("wire multi_get", key, &r)?;
                        }
                    }
                    Ok(results) => {
                        return Err(Violation {
                            context: "wire multi_get".into(),
                            detail: format!(
                                "asked for {} keys, got {} results",
                                keys.len(),
                                results.len()
                            ),
                        });
                    }
                    Err(_) => {
                        report.failed_closed += 1;
                        report.reconnects += 1;
                        client = connect(&proxy, &verifier, seed, &mut conn_seq);
                    }
                }
            } else {
                let items: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
                    .map(|i| {
                        let id = rng.next_u64() % NUM_KEYS;
                        (key_bytes(id), value_bytes(id, 1000 + round * 10 + i as u64))
                    })
                    .collect();
                match client.multi_set(&items) {
                    Ok(()) => {
                        for (key, value) in &items {
                            model.apply_set(key, value);
                        }
                    }
                    Err(_) => {
                        for (key, value) in &items {
                            model.apply_failed_set(key, value);
                        }
                        report.failed_closed += 1;
                        report.reconnects += 1;
                        client = connect(&proxy, &verifier, seed, &mut conn_seq);
                    }
                }
            }
        }
        Ok(())
    })();

    report.faults = proxy.faults_injected();
    drop(client);
    proxy.shutdown();
    server.shutdown();
    // With every worker joined, the store is quiescent: its counters must
    // be self-consistent no matter where the injected faults cut frames.
    result.and_then(|()| crate::engine::check_stats(&store, "wire phase stats")).map(|()| report)
}

fn connect(
    proxy: &FaultProxy,
    verifier: &AttestationVerifier,
    seed: u64,
    conn_seq: &mut u64,
) -> KvClient {
    *conn_seq += 1;
    // The handshake itself crosses the proxy but is protected by
    // skip_frames; retry a few times anyway in case a previous
    // connection's teardown races the accept loop.
    for attempt in 0..8u64 {
        match KvClient::connect_secure(proxy.addr(), verifier, seed ^ (*conn_seq << 32) ^ attempt) {
            Ok(mut c) => {
                c.set_read_timeout(Some(READ_TIMEOUT)).expect("set timeout");
                return c;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    panic!("could not reconnect through the fault proxy");
}

// ---------------------------------------------------------------------
// Overload-and-tamper phase: saturate a small-capacity server past its
// connection cap while corrupting one partition, and check graceful
// degradation — untampered partitions keep answering correctly,
// tampered partitions answer `Quarantined`, shed requests answer `Busy`
// (never a wrong value), and shutdown drains within its deadline even
// with a stalled half-frame connection.
// ---------------------------------------------------------------------

/// Outcome accounting for one overload-phase run.
#[derive(Debug, Default, Clone)]
pub struct OverloadReport {
    /// Operations attempted across all segments.
    pub ops: u64,
    /// Requests answered `Busy` (admission control or deadline sheds).
    pub busy: u64,
    /// Requests answered `Quarantined` on the poisoned partition.
    pub quarantined: u64,
    /// Connections refused at the cap.
    pub refused: u64,
    /// Reconnects performed by the self-healing client segment.
    pub reconnects: u64,
    /// Wall-clock milliseconds `shutdown()` took with a stalled
    /// half-frame connection still open.
    pub drain_ms: u64,
}

const OVERLOAD_CLIENTS: usize = 3;
const OVERLOAD_ROUNDS: u64 = 6;

fn violation(context: &str, detail: String) -> Violation {
    Violation { context: context.into(), detail }
}

/// Connects through the real listener with a few retries, so a prior
/// connection's asynchronous teardown cannot race the accept cap.
fn connect_direct(
    addr: std::net::SocketAddr,
    verifier: &AttestationVerifier,
    seed: u64,
) -> Result<KvClient, shield_net::NetError> {
    let mut last = None;
    for attempt in 0..100u64 {
        match KvClient::connect_secure(addr, verifier, seed ^ (attempt << 40)) {
            Ok(mut c) => {
                c.set_read_timeout(Some(Duration::from_secs(2))).expect("set timeout");
                return Ok(c);
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    Err(last.expect("at least one attempt"))
}

/// Runs the overload-and-tamper phase for one seed.
pub fn run_overload_phase(seed: u64) -> Result<OverloadReport, Violation> {
    sgx_sim::vclock::reset();
    let enclave = EnclaveBuilder::new("adversary-overload").seed(seed).epc_bytes(8 << 20).build();
    let store = Arc::new(
        ShieldStore::new(
            Arc::clone(&enclave),
            Config::shield_opt().buckets(64).mac_hashes(16).with_shards(2).with_quarantine(),
        )
        .expect("store construction"),
    );
    let backend: Arc<dyn shield_baseline::KvBackend> = store.clone();
    let server = Server::start(
        Arc::clone(&backend),
        Some(Arc::clone(&enclave)),
        ServerConfig {
            event_loops: 2,
            crossing: CrossingMode::HotCalls,
            secure: true,
            max_connections: OVERLOAD_CLIENTS + 1,
            max_in_flight: 2,
            frame_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_millis(500),
            ..Default::default()
        },
    )
    .expect("server start");
    let verifier = AttestationVerifier::for_enclave(&enclave);
    let mut report = OverloadReport::default();

    // Populate, then corrupt one entry in untrusted memory.
    let keys: Vec<Vec<u8>> = (0..NUM_KEYS).map(key_bytes).collect();
    let mut client = connect_direct(server.addr(), &verifier, seed).expect("populate connect");
    for (i, key) in keys.iter().enumerate() {
        client.set(key, &value_bytes(i as u64, 0)).expect("populate set");
        report.ops += 1;
    }
    assert!(store.tamper_any_entry_byte(seed), "tamper must land");

    // First sweep trips the violation; afterwards the store must name
    // exactly one quarantined bucket set.
    for key in &keys {
        report.ops += 1;
        match client.get(key) {
            Ok(Some(_)) | Err(_) => {}
            Ok(None) => {
                return Err(violation(
                    "overload first sweep",
                    "a populated key vanished without an error".into(),
                ));
            }
        }
    }
    let q = store.quarantine_report();
    if q.is_clean() || q.quarantined_sets() != 1 {
        return Err(violation(
            "overload quarantine report",
            format!("expected exactly one quarantined set, got {q:?}"),
        ));
    }
    let poisoned = |key: &[u8]| -> bool {
        let (shard, set) = store.key_partition(key);
        q.shards[shard].whole || q.shards[shard].quarantined_sets.contains(&set)
    };

    // Second sweep: tampered partition answers `Quarantined`, every
    // other key still serves its exact value.
    for (i, key) in keys.iter().enumerate() {
        report.ops += 1;
        match client.get(key) {
            Ok(Some(v)) if !poisoned(key) && v == value_bytes(i as u64, 0) => {}
            Err(shield_net::NetError::Quarantined) if poisoned(key) => report.quarantined += 1,
            other => {
                return Err(violation(
                    "overload partition sweep",
                    format!("key {i}: poisoned={} but outcome {other:?}", poisoned(key)),
                ));
            }
        }
    }
    if report.quarantined == 0 {
        return Err(violation(
            "overload partition sweep",
            "no key mapped to the quarantined partition".into(),
        ));
    }
    drop(client);

    // Concurrency rounds: barrier-synchronized clients hammer the
    // healthy keys past the in-flight cap. Every reply is either the
    // exact stored value or an honest `Busy` — never a wrong value.
    let healthy: Arc<Vec<(Vec<u8>, Vec<u8>)>> = Arc::new(
        keys.iter()
            .enumerate()
            .filter(|(_, k)| !poisoned(k))
            .map(|(i, k)| (k.clone(), value_bytes(i as u64, 0)))
            .collect(),
    );
    let barrier = Arc::new(std::sync::Barrier::new(OVERLOAD_CLIENTS));
    let mut handles = Vec::new();
    for t in 0..OVERLOAD_CLIENTS {
        let healthy = Arc::clone(&healthy);
        let barrier = Arc::clone(&barrier);
        let verifier = verifier.clone();
        let addr = server.addr();
        handles.push(std::thread::spawn(move || -> Result<(u64, u64), Violation> {
            let mut client = connect_direct(addr, &verifier, seed ^ ((t as u64 + 2) << 48))
                .expect("overload connect");
            let (mut ops, mut busy) = (0u64, 0u64);
            for round in 0..OVERLOAD_ROUNDS {
                barrier.wait();
                for (i, (key, want)) in healthy.iter().enumerate() {
                    if !(i as u64 + round + t as u64).is_multiple_of(3) {
                        continue;
                    }
                    ops += 1;
                    match client.get(key) {
                        Ok(Some(v)) if &v == want => {}
                        Err(shield_net::NetError::Busy) => busy += 1,
                        other => {
                            return Err(violation(
                                "overload concurrency",
                                format!("client {t} round {round}: {other:?}"),
                            ));
                        }
                    }
                }
            }
            Ok((ops, busy))
        }));
    }
    for handle in handles {
        let (ops, busy) = handle.join().expect("overload client thread")?;
        report.ops += ops;
        report.busy += busy;
    }

    // Connection cap: hold the cap's worth of sessions, then one more
    // connect must be refused at accept.
    let mut held = Vec::new();
    for c in 0..OVERLOAD_CLIENTS + 1 {
        let mut client = connect_direct(server.addr(), &verifier, seed ^ ((c as u64 + 9) << 44))
            .expect("cap-fill connect");
        client.ping().expect("cap-fill ping");
        held.push(client);
    }
    if KvClient::connect_secure(server.addr(), &verifier, seed ^ (0xcab << 44)).is_ok() {
        return Err(violation(
            "overload connection cap",
            "a connection past the cap was admitted".into(),
        ));
    }
    report.refused = server.refused_connections();
    if report.refused == 0 {
        return Err(violation(
            "overload connection cap",
            "refused connection was not counted".into(),
        ));
    }
    // The held sessions are unaffected by the refusal.
    for client in &mut held {
        report.ops += 1;
        client.ping().expect("held session ping");
    }
    drop(held);

    // Deterministic worker-side shedding: a second door onto the same
    // store with a zero request deadline sheds everything it admits.
    let shed_door = Server::start(
        backend,
        Some(Arc::clone(&enclave)),
        ServerConfig {
            event_loops: 1,
            crossing: CrossingMode::HotCalls,
            secure: true,
            request_deadline: Duration::ZERO,
            ..Default::default()
        },
    )
    .expect("shed door start");
    let mut shed_client =
        connect_direct(shed_door.addr(), &verifier, seed ^ (0x5ed << 44)).expect("shed connect");
    for _ in 0..4 {
        report.ops += 1;
        match shed_client.get(&keys[0]) {
            Err(shield_net::NetError::Busy) => report.busy += 1,
            other => {
                return Err(violation(
                    "overload shed door",
                    format!("expected Busy from the zero-deadline door, got {other:?}"),
                ));
            }
        }
    }
    drop(shed_client);
    shed_door.shutdown();

    // Self-healing client through the byte-fault proxy: authenticated
    // replies are correct by construction; the RetryClient must also
    // stay *live*, transparently reconnecting poisoned sessions.
    let proxy = FaultProxy::start(server.addr(), FaultPlan { seed, skip_frames: 1, period: 3 })
        .expect("proxy start");
    let mut healer = shield_net::client::RetryClient::new(
        shield_net::client::Connector::Secure {
            addr: proxy.addr(),
            verifier: verifier.clone(),
            seed: seed ^ (0x4ea1 << 40),
        },
        shield_net::client::RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
            seed,
            read_timeout: Some(READ_TIMEOUT),
        },
    );
    let mut correct_gets = 0u64;
    for attempt in 0..200u64 {
        let (key, want) = &healthy[(attempt % healthy.len() as u64) as usize];
        report.ops += 1;
        match healer.get(key) {
            Ok(Some(v)) if &v == want => correct_gets += 1,
            Ok(other) => {
                return Err(violation(
                    "overload self-healing client",
                    format!("authenticated reply with a wrong value: {other:?}"),
                ));
            }
            // The retry budget can run dry under a dense fault schedule;
            // the next operation starts a fresh session.
            Err(_) => {}
        }
        if correct_gets >= 10 && healer.reconnects() >= 1 {
            break;
        }
    }
    report.reconnects = healer.reconnects();
    if correct_gets < 10 || report.reconnects == 0 {
        return Err(violation(
            "overload self-healing client",
            format!(
                "wanted 10 correct gets and ≥1 reconnect, got {correct_gets} and {}",
                report.reconnects
            ),
        ));
    }
    drop(healer);
    proxy.shutdown();

    // Drain: a half-frame slow-loris connection must not stall
    // `shutdown()` past the drain deadline.
    let mut stalled = std::net::TcpStream::connect(server.addr()).expect("slow-loris connect");
    std::io::Write::write_all(&mut stalled, &[0x07, 0x00]).expect("half frame");
    let started = std::time::Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    report.drain_ms = elapsed.as_millis() as u64;
    drop(stalled);
    if elapsed > Duration::from_secs(5) {
        return Err(violation(
            "overload drain",
            format!("shutdown took {elapsed:?} with a stalled connection"),
        ));
    }

    // Quiescent store: counters self-consistent, quarantine gauges live.
    crate::engine::check_stats(&store, "overload phase stats")?;
    let snap = store.snapshot();
    if snap.quarantined_sets != 1 || snap.ops.quarantine_rejections == 0 {
        return Err(violation(
            "overload gauges",
            format!(
                "expected quarantine gauges in the snapshot, got sets={} rejections={}",
                snap.quarantined_sets, snap.ops.quarantine_rejections
            ),
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_phase_runs_clean_on_a_couple_seeds() {
        for seed in 0..2 {
            let report = run_overload_phase(seed).unwrap_or_else(|v| {
                panic!("seed {seed}: overload-phase violation: {v}");
            });
            assert!(report.busy >= 4, "seed {seed}: shed door must shed");
            assert!(report.quarantined >= 1, "seed {seed}: quarantine must land");
            assert!(report.refused >= 1, "seed {seed}: cap must refuse");
            assert!(report.reconnects >= 1, "seed {seed}: healer must reconnect");
        }
    }

    #[test]
    fn wire_phase_runs_clean_on_a_few_seeds() {
        let mut total_faults = 0;
        for seed in 0..4 {
            let report = run_wire_phase(seed).unwrap_or_else(|v| {
                panic!("seed {seed}: wire-phase violation: {v}");
            });
            total_faults += report.faults;
        }
        assert!(total_faults > 0, "the proxy never injected a fault");
    }
}
