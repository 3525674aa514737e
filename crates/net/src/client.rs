//! The client side: a request handle and a self-healing wrapper.
//!
//! The paper's networked evaluation drives the server from a client
//! machine simulating 256 concurrent users (§6.1). [`KvClient`] is one
//! user's connection; [`RetryClient`] adds reconnect-and-retry on top.

use crate::protocol::{self, OpCode, Request, Response, Status};
use crate::session::{self, SessionCrypto};
use crate::{NetError, Result};
use sgx_sim::attest::AttestationVerifier;
use shield_crypto::drbg::Drbg;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Maps a non-success wire status to its client-side error. `Busy` and
/// `Quarantined` get dedicated variants so callers (and the retry layer)
/// can distinguish "retry later" from "do not bother".
fn status_err(status: Status, what: &str) -> NetError {
    match status {
        Status::Busy => NetError::Busy,
        Status::Quarantined => NetError::Quarantined,
        Status::QuotaExceeded => NetError::QuotaExceeded,
        Status::ReadOnly => NetError::ReadOnly,
        Status::StorageFailed => NetError::StorageFailed,
        _ => NetError::Protocol(format!("server rejected {what}")),
    }
}

/// A connected client (one simulated user).
pub struct KvClient {
    stream: TcpStream,
    crypto: Option<SessionCrypto>,
    /// Set when a response fails to authenticate or decode. From that
    /// point the request/response pairing on this connection can no
    /// longer be trusted (a dropped or injected frame could shift every
    /// later response onto the wrong request), so the session refuses
    /// further use; callers must reconnect.
    poisoned: bool,
}

impl std::fmt::Debug for KvClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvClient").field("secure", &self.crypto.is_some()).finish()
    }
}

impl KvClient {
    /// Connects and runs the attested handshake (paper §3.2) under the
    /// default tenant namespace.
    pub fn connect_secure(
        addr: SocketAddr,
        verifier: &AttestationVerifier,
        seed: u64,
    ) -> Result<KvClient> {
        Self::connect_secure_tenant(addr, verifier, seed, 0)
    }

    /// [`connect_secure`](Self::connect_secure) bound to a tenant
    /// namespace. The tenant id travels in the handshake hello, so every
    /// operation on the session is scoped to that tenant's keyspace —
    /// there is no per-op tenant switch.
    pub fn connect_secure_tenant(
        addr: SocketAddr,
        verifier: &AttestationVerifier,
        seed: u64,
        tenant: u32,
    ) -> Result<KvClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let crypto = session::client_handshake_tenant(&mut stream, verifier, seed, tenant)?;
        Ok(KvClient { stream, crypto: Some(crypto), poisoned: false })
    }

    /// Connects without attestation or traffic crypto (insecure runs).
    pub fn connect_insecure(addr: SocketAddr) -> Result<KvClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(KvClient { stream, crypto: None, poisoned: false })
    }

    /// Bounds how long [`recv`](Self::recv) blocks waiting for a frame.
    /// `None` restores blocking reads. Adversarial harnesses use this to
    /// survive an attacker who silently drops frames.
    pub fn set_read_timeout(&mut self, timeout: Option<std::time::Duration>) -> Result<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Issues one request and awaits its response.
    pub fn call(&mut self, request: &Request) -> Result<Response> {
        self.send(request)?;
        self.recv()
    }

    /// Writes one request frame without waiting for the reply. Pair
    /// with [`recv`](Self::recv); the server handles each connection's
    /// frames sequentially, so replies arrive in send order.
    pub fn send(&mut self, request: &Request) -> Result<()> {
        if self.poisoned {
            return Err(NetError::Security("session poisoned by an earlier bad frame".into()));
        }
        let body = request.encode();
        let out = match &mut self.crypto {
            Some(c) => c.seal(&body),
            None => body,
        };
        protocol::write_frame(&mut self.stream, &out)
    }

    /// Reads the next response frame (for a request previously written
    /// with [`send`](Self::send)).
    pub fn recv(&mut self) -> Result<Response> {
        if self.poisoned {
            return Err(NetError::Security("session poisoned by an earlier bad frame".into()));
        }
        // Any failure here — timeout, disconnect, authentication, decode —
        // poisons the session: a response may still be in flight, and
        // reading it later would attribute it to the wrong request.
        match self.recv_inner() {
            Ok(r) => Ok(r),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn recv_inner(&mut self) -> Result<Response> {
        let reply = protocol::read_frame(&mut self.stream)?
            .ok_or_else(|| NetError::Protocol("server disconnected".into()))?;
        let plain = match &mut self.crypto {
            Some(c) => c.open(&reply)?,
            None => reply,
        };
        Response::decode(&plain)
    }

    /// Pipelines several requests: writes every frame before reading any
    /// reply, overlapping client request encoding with server work
    /// instead of paying one full round-trip per request. Responses are
    /// returned in request order (the server processes one connection's
    /// frames sequentially, which also keeps the session-crypto
    /// sequence numbers aligned).
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>> {
        for request in requests {
            self.send(request)?;
        }
        requests.iter().map(|_| self.recv()).collect()
    }

    /// Reads a key; `Ok(None)` when absent.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let r = self.call(&Request { op: OpCode::Get, key: key.to_vec(), value: Vec::new() })?;
        match r.status {
            Status::Ok => Ok(Some(r.value)),
            Status::NotFound => Ok(None),
            s => Err(status_err(s, "get")),
        }
    }

    /// Writes a key.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let r =
            self.call(&Request { op: OpCode::Set, key: key.to_vec(), value: value.to_vec() })?;
        match r.status {
            Status::Ok => Ok(()),
            s => Err(status_err(s, "set")),
        }
    }

    /// Writes a key with a time-to-live: the entry expires `ttl_ns`
    /// nanoseconds after the server applies it (reads then miss, and the
    /// background sweeper reclaims it). `ttl_ns` must be non-zero; use
    /// [`set`](Self::set) for non-expiring writes.
    pub fn set_ttl(&mut self, key: &[u8], value: &[u8], ttl_ns: u64) -> Result<()> {
        let r = self.call(&Request {
            op: OpCode::SetTtl,
            key: key.to_vec(),
            value: protocol::encode_set_ttl(ttl_ns, value),
        })?;
        match r.status {
            Status::Ok => Ok(()),
            s => Err(status_err(s, "set-ttl")),
        }
    }

    /// Deletes a key; `Ok(false)` when it did not exist.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let r = self.call(&Request { op: OpCode::Delete, key: key.to_vec(), value: Vec::new() })?;
        match r.status {
            Status::Ok => Ok(true),
            Status::NotFound => Ok(false),
            s => Err(status_err(s, "delete")),
        }
    }

    /// Appends to a key's value.
    pub fn append(&mut self, key: &[u8], suffix: &[u8]) -> Result<()> {
        let r =
            self.call(&Request { op: OpCode::Append, key: key.to_vec(), value: suffix.to_vec() })?;
        match r.status {
            Status::Ok => Ok(()),
            s => Err(status_err(s, "append")),
        }
    }

    /// Adds `delta` to a decimal value, returning the new value.
    pub fn increment(&mut self, key: &[u8], delta: i64) -> Result<i64> {
        let r = self.call(&Request {
            op: OpCode::Increment,
            key: key.to_vec(),
            value: delta.to_le_bytes().to_vec(),
        })?;
        match r.status {
            Status::Ok if r.value.len() == 8 => {
                Ok(i64::from_le_bytes(r.value[..].try_into().expect("8 bytes")))
            }
            s => Err(status_err(s, "increment")),
        }
    }

    /// Ordered prefix scan (requires a server store with the ordered
    /// index enabled): up to `limit` key-value pairs in key order.
    pub fn scan_prefix(&mut self, prefix: &[u8], limit: u32) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let r = self.call(&Request {
            op: OpCode::ScanPrefix,
            key: prefix.to_vec(),
            value: protocol::encode_scan_limit(limit),
        })?;
        match r.status {
            Status::Ok => protocol::decode_scan(&r.value),
            s => Err(status_err(s, "scan (index enabled?)")),
        }
    }

    /// Batched read: one wire round-trip (and one enclave dispatch) for
    /// the whole batch. Returns one entry per key in input order,
    /// `None` for misses.
    pub fn multi_get(&mut self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        let r = self.call(&Request {
            op: OpCode::MultiGet,
            key: Vec::new(),
            value: protocol::encode_multi_get(keys),
        })?;
        match r.status {
            Status::Ok => {
                let results = protocol::decode_multi_get_response(&r.value)?;
                if results.len() != keys.len() {
                    return Err(NetError::Protocol("multi-get result count mismatch".into()));
                }
                Ok(results)
            }
            s => Err(status_err(s, "multi-get")),
        }
    }

    /// Batched write: one wire round-trip for the whole batch. Fails as
    /// a unit if the server rejected any item.
    pub fn multi_set(&mut self, items: &[(Vec<u8>, Vec<u8>)]) -> Result<()> {
        let r = self.call(&Request {
            op: OpCode::MultiSet,
            key: Vec::new(),
            value: protocol::encode_multi_set(items),
        })?;
        match r.status {
            Status::Ok => Ok(()),
            s => Err(status_err(s, "multi-set")),
        }
    }

    /// Fetches the server's observability snapshot: aggregated counters,
    /// per-op latency histograms, occupancy gauges, and SGX transition
    /// counters. Errors when the server's store is not instrumented.
    pub fn stats(&mut self) -> Result<shieldstore::StatsSnapshot> {
        let r = self.call(&Request { op: OpCode::Stats, key: Vec::new(), value: Vec::new() })?;
        match r.status {
            Status::Ok => protocol::decode_stats(&r.value),
            s => Err(status_err(s, "stats (uninstrumented store?)")),
        }
    }

    /// Durability barrier: asks the server to commit every operation
    /// buffered in its write-ahead log before returning. Returns the
    /// durable `(generation, seq)` watermark — every earlier write
    /// survives a crash — or `Ok(None)` on a server without a WAL
    /// (there is nothing to flush).
    pub fn flush(&mut self) -> Result<Option<(u64, u64)>> {
        let r = self.call(&Request { op: OpCode::Flush, key: Vec::new(), value: Vec::new() })?;
        match r.status {
            Status::Ok if r.value.is_empty() => Ok(None),
            Status::Ok => protocol::decode_watermark(&r.value).map(Some),
            s => Err(status_err(s, "flush of the write-ahead log")),
        }
    }

    /// Registers this connection's owner as a replication subscriber on
    /// a primary, returning the decoded hello (log keys + start
    /// position). Secure sessions only — the hello carries key material.
    pub fn repl_subscribe(&mut self) -> Result<shieldstore::ReplHello> {
        let r =
            self.call(&Request { op: OpCode::ReplSubscribe, key: Vec::new(), value: Vec::new() })?;
        match r.status {
            Status::Ok => shieldstore::ReplHello::decode(&r.value)
                .ok_or_else(|| NetError::Protocol("malformed replication hello".into())),
            s => Err(status_err(s, "replication subscribe (no WAL, or truncated log?)")),
        }
    }

    /// Polls the primary for the next sealed log batch after
    /// `(generation, after_seq)`, bounded by `max_bytes`.
    pub fn repl_segment(
        &mut self,
        generation: u64,
        after_seq: u64,
        max_bytes: u32,
    ) -> Result<shieldstore::ReplBatch> {
        let r = self.call(&Request {
            op: OpCode::ReplSegment,
            key: Vec::new(),
            value: protocol::encode_repl_poll(generation, after_seq, max_bytes),
        })?;
        match r.status {
            Status::Ok => shieldstore::ReplBatch::decode(&r.value)
                .ok_or_else(|| NetError::Protocol("malformed replication batch".into())),
            s => Err(status_err(s, "replication segment poll")),
        }
    }

    /// Reports `subscriber`'s verified-and-applied watermark to the
    /// primary.
    pub fn repl_ack(&mut self, subscriber: u64, generation: u64, seq: u64) -> Result<()> {
        let r = self.call(&Request {
            op: OpCode::ReplAck,
            key: Vec::new(),
            value: protocol::encode_repl_ack(subscriber, generation, seq),
        })?;
        match r.status {
            Status::Ok => Ok(()),
            s => Err(status_err(s, "replication ack (ran ahead of durable?)")),
        }
    }

    /// Asks a replica server to promote itself to primary, returning
    /// the promoted `(generation, seq)` watermark. Non-replica servers
    /// answer an error.
    pub fn promote(&mut self) -> Result<(u64, u64)> {
        let r = self.call(&Request { op: OpCode::Promote, key: Vec::new(), value: Vec::new() })?;
        match r.status {
            Status::Ok => protocol::decode_watermark(&r.value),
            s => Err(status_err(s, "promotion (not a replica, or fenced?)")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        let r = self.call(&Request { op: OpCode::Ping, key: Vec::new(), value: Vec::new() })?;
        match r.status {
            Status::Ok => Ok(()),
            s => Err(status_err(s, "ping")),
        }
    }
}

/// How a [`RetryClient`] (re)establishes its underlying session.
#[derive(Debug, Clone)]
pub enum Connector {
    /// Attested, encrypted sessions. Each reconnect derives a fresh
    /// handshake seed from `seed` plus the attempt number.
    Secure {
        /// Server address.
        addr: SocketAddr,
        /// Attestation policy for the handshake.
        verifier: AttestationVerifier,
        /// Base handshake seed.
        seed: u64,
    },
    /// Plain TCP (insecure runs).
    Insecure {
        /// Server address.
        addr: SocketAddr,
    },
}

impl Connector {
    fn connect(&self, attempt: u64) -> Result<KvClient> {
        match self {
            Connector::Secure { addr, verifier, seed } => {
                KvClient::connect_secure(*addr, verifier, seed.wrapping_add(attempt))
            }
            Connector::Insecure { addr } => KvClient::connect_insecure(*addr),
        }
    }
}

/// Retry behavior of a [`RetryClient`]: bounded exponential backoff with
/// deterministic jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries per operation beyond the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the jitter RNG (deterministic across runs).
    pub seed: u64,
    /// Per-session read timeout, so a response frame an attacker (or a
    /// dead network) swallows surfaces as a retryable error instead of
    /// blocking forever. `None` leaves reads unbounded.
    pub read_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            seed: 0,
            read_timeout: None,
        }
    }
}

/// A self-healing client: wraps [`KvClient`], transparently reconnecting
/// a poisoned or dropped session and replaying the request where that is
/// safe.
///
/// Outcome classes drive the policy:
///
/// * `Busy` — the server shed the request *without executing it*; the
///   session stays healthy, so the request is retried in place after
///   backoff.
/// * `Quarantined` — a deliberate fail-closed answer; retrying cannot
///   succeed, so it is surfaced immediately.
/// * transport/security failures — the session is torn down and
///   re-established. Idempotent requests (`get`, `scan`, `stats`,
///   `ping`, `multi_get`) replay freely. `set`/`delete`/`multi_set`
///   replay too: the server logs them as post-image records, so applying
///   the same after-value twice converges to the same state even when
///   the first attempt's fate is unknown (see DESIGN.md). `append` and
///   `increment` are read-modify-write and are **not** replayed after an
///   ambiguous failure.
pub struct RetryClient {
    connector: Connector,
    policy: RetryPolicy,
    rng: Drbg,
    session: Option<KvClient>,
    connects: u64,
    reconnects: u64,
    retries: u64,
    busy_retries: u64,
}

impl std::fmt::Debug for RetryClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryClient")
            .field("connected", &self.session.is_some())
            .field("reconnects", &self.reconnects)
            .field("retries", &self.retries)
            .finish()
    }
}

impl RetryClient {
    /// Creates a client; the first connection is established lazily on
    /// the first operation.
    pub fn new(connector: Connector, policy: RetryPolicy) -> Self {
        let rng = Drbg::from_seed(&policy.seed.to_le_bytes());
        Self {
            connector,
            policy,
            rng,
            session: None,
            connects: 0,
            reconnects: 0,
            retries: 0,
            busy_retries: 0,
        }
    }

    /// Times the underlying session was re-established after the first
    /// connect.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Total operation retries (all causes).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Retries caused by `Busy` shedding specifically.
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Drops the current session; the next operation transparently
    /// reconnects (counted in [`RetryClient::reconnects`]).
    pub fn disconnect(&mut self) {
        self.session = None;
    }

    fn backoff(&mut self, attempt: u32) {
        let exp =
            self.policy.base_backoff.saturating_mul(1u32 << attempt.min(16).saturating_sub(1));
        let capped = exp.min(self.policy.max_backoff);
        // Deterministic jitter in [50%, 100%] of the capped delay keeps
        // synchronized clients from retrying in lockstep.
        let unit = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = capped.mul_f64(0.5 + 0.5 * unit);
        std::thread::sleep(jittered);
    }

    /// Drops a session that can no longer be trusted and connects a
    /// fresh one.
    fn ensure_session(&mut self) -> Result<()> {
        if let Some(c) = &self.session {
            if c.poisoned {
                self.session = None;
            }
        }
        if self.session.is_none() {
            let mut client = self.connector.connect(self.connects)?;
            client.set_read_timeout(self.policy.read_timeout)?;
            self.connects += 1;
            if self.connects > 1 {
                self.reconnects += 1;
            }
            self.session = Some(client);
        }
        Ok(())
    }

    /// Runs `op` under the retry policy. `replayable` marks requests
    /// safe to re-issue after a failure whose outcome is unknown.
    fn run_op<T>(
        &mut self,
        replayable: bool,
        mut op: impl FnMut(&mut KvClient) -> Result<T>,
    ) -> Result<T> {
        let mut attempt = 0u32;
        loop {
            if let Err(e) = self.ensure_session() {
                // Connect failures never executed anything: always
                // retryable, whatever the operation.
                if attempt >= self.policy.max_retries {
                    return Err(e);
                }
                attempt += 1;
                self.retries += 1;
                self.backoff(attempt);
                continue;
            }
            let client = self.session.as_mut().expect("session just ensured");
            match op(client) {
                Ok(v) => return Ok(v),
                // Deliberate fail-closed answer; retrying cannot help.
                Err(NetError::Quarantined) => return Err(NetError::Quarantined),
                // The server answered — the session stays aligned — but
                // the node cannot take this write now (replica) or ever
                // until repaired (poisoned log writer). Tearing down the
                // session or burning backoff retries here would only
                // delay the caller's failover decision, so surface the
                // refusal immediately.
                Err(e @ (NetError::ReadOnly | NetError::StorageFailed)) => return Err(e),
                // Shed before execution; the session stays aligned.
                Err(NetError::Busy) => {
                    if attempt >= self.policy.max_retries {
                        return Err(NetError::Busy);
                    }
                    attempt += 1;
                    self.retries += 1;
                    self.busy_retries += 1;
                    self.backoff(attempt);
                }
                // Transport or security failure: the session is gone and
                // the first attempt's fate is ambiguous.
                Err(e) => {
                    self.session = None;
                    if !replayable || attempt >= self.policy.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    self.retries += 1;
                    self.backoff(attempt);
                }
            }
        }
    }

    /// [`KvClient::get`] with transparent retry and reconnect.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.run_op(true, |c| c.get(key))
    }

    /// [`KvClient::set`] with transparent retry and reconnect (replay is
    /// safe under the server's post-image WAL semantics).
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.run_op(true, |c| c.set(key, value))
    }

    /// [`KvClient::set_ttl`] with transparent retry and reconnect
    /// (post-image replay safety: replaying re-arms the same deadline
    /// relative to the retry, which is the freshest intent).
    pub fn set_ttl(&mut self, key: &[u8], value: &[u8], ttl_ns: u64) -> Result<()> {
        self.run_op(true, |c| c.set_ttl(key, value, ttl_ns))
    }

    /// [`KvClient::delete`] with transparent retry and reconnect. Note a
    /// replayed delete may report `Ok(false)` when the first, unacked
    /// attempt already removed the key.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        self.run_op(true, |c| c.delete(key))
    }

    /// [`KvClient::append`]; **not** replayed after an ambiguous
    /// transport failure (a duplicated append is observable). `Busy`
    /// shedding is still retried — the server did not execute the op.
    pub fn append(&mut self, key: &[u8], suffix: &[u8]) -> Result<()> {
        self.run_op(false, |c| c.append(key, suffix))
    }

    /// [`KvClient::increment`]; **not** replayed after an ambiguous
    /// transport failure (a duplicated increment is observable). `Busy`
    /// shedding is still retried.
    pub fn increment(&mut self, key: &[u8], delta: i64) -> Result<i64> {
        self.run_op(false, |c| c.increment(key, delta))
    }

    /// [`KvClient::multi_get`] with transparent retry and reconnect.
    pub fn multi_get(&mut self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        self.run_op(true, |c| c.multi_get(keys))
    }

    /// [`KvClient::multi_set`] with transparent retry and reconnect
    /// (post-image replay safety, as for `set`).
    pub fn multi_set(&mut self, items: &[(Vec<u8>, Vec<u8>)]) -> Result<()> {
        self.run_op(true, |c| c.multi_set(items))
    }

    /// [`KvClient::scan_prefix`] with transparent retry and reconnect.
    pub fn scan_prefix(&mut self, prefix: &[u8], limit: u32) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.run_op(true, |c| c.scan_prefix(prefix, limit))
    }

    /// [`KvClient::stats`] with transparent retry and reconnect.
    pub fn stats(&mut self) -> Result<shieldstore::StatsSnapshot> {
        self.run_op(true, |c| c.stats())
    }

    /// [`KvClient::flush`] with transparent retry and reconnect (a
    /// durability barrier is idempotent).
    pub fn flush(&mut self) -> Result<Option<(u64, u64)>> {
        self.run_op(true, |c| c.flush())
    }

    /// [`KvClient::ping`] with transparent retry and reconnect.
    pub fn ping(&mut self) -> Result<()> {
        self.run_op(true, |c| c.ping())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CrossingMode, Server, ServerConfig};
    use sgx_sim::enclave::EnclaveBuilder;
    use std::sync::Arc;

    #[test]
    fn pipelined_requests_reply_in_order() {
        let enclave = EnclaveBuilder::new("pipeline-test").epc_bytes(8 << 20).build();
        let store = Arc::new(
            shieldstore::ShieldStore::new(
                Arc::clone(&enclave),
                shieldstore::Config::shield_opt().buckets(128).mac_hashes(32),
            )
            .unwrap(),
        );
        let server = Server::start(
            store,
            Some(Arc::clone(&enclave)),
            ServerConfig {
                event_loops: 2,
                crossing: CrossingMode::HotCalls,
                secure: true,
                ..Default::default()
            },
        )
        .unwrap();
        let verifier = AttestationVerifier::for_enclave(&enclave);
        let mut client = KvClient::connect_secure(server.addr(), &verifier, 21).unwrap();

        let mut requests = Vec::new();
        for i in 0..20u32 {
            requests.push(Request {
                op: crate::protocol::OpCode::Set,
                key: format!("p{i:02}").into_bytes(),
                value: format!("v{i}").into_bytes(),
            });
        }
        for i in 0..20u32 {
            requests.push(Request {
                op: crate::protocol::OpCode::Get,
                key: format!("p{i:02}").into_bytes(),
                value: Vec::new(),
            });
        }
        let responses = client.pipeline(&requests).unwrap();
        assert_eq!(responses.len(), 40);
        for r in &responses[..20] {
            assert_eq!(r.status, crate::protocol::Status::Ok);
        }
        for (i, r) in responses[20..].iter().enumerate() {
            assert_eq!(r.status, crate::protocol::Status::Ok);
            assert_eq!(r.value, format!("v{i}").into_bytes());
        }
        drop(client);
        server.shutdown();
    }
}
