//! The binary wire protocol.
//!
//! Frames are length-prefixed (`u32` LE, body follows). Requests and
//! responses serialize to simple tagged byte layouts:
//!
//! ```text
//! Request:  [ op (1) | key_len (4) | val_len (4) | key | value ]
//! Response: [ status (1) | val_len (4) | value ]
//! ```
//!
//! Batched operations ride inside the ordinary request/response `value`
//! field with count-prefixed framing, so one frame (and one
//! enclave-worker dispatch) carries a whole batch:
//!
//! ```text
//! MultiGet  request value:  [ count (4) ] ( [ klen (4) | key ] )*
//! MultiGet  response value: [ count (4) ] ( [ status (1) | vlen (4) | value ] )*
//! MultiSet  request value:  [ count (4) ] ( [ klen (4) | vlen (4) | key | value ] )*
//! MultiSet  response:       empty Ok, or Error when any item was rejected
//! ```
//!
//! Per-key statuses inside a `MultiGet` response are `Ok`/`NotFound`;
//! a batch-level failure (e.g. an integrity violation) is returned as a
//! frame-level `Error` response instead, failing the batch closed.
//!
//! When the secure channel is active, the *body* of each frame is the
//! sealed form produced by [`crate::session::SessionCrypto`].

use crate::{NetError, Result};
use shieldstore::{Op, OpError, Reply};
use std::io::{Read, Write};

/// Maximum accepted frame body (defensive bound).
pub const MAX_FRAME: usize = 64 << 20;

/// Bounds-checked little-endian reader over one payload. Every read
/// returns `Err` once the bytes run out, so no decoder in this module
/// indexes past its input.
struct Cursor<'a> {
    bytes: &'a [u8],
    /// The payload's name, for error messages.
    what: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Self { bytes, what }
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        if self.bytes.len() < len {
            return Err(NetError::Protocol(format!("truncated {} payload", self.what)));
        }
        let (head, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` length prefix followed by that many bytes.
    fn chunk(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.bytes(len)
    }

    /// Everything not read yet.
    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.bytes)
    }

    /// Reads a batch's `u32` count and sanity-checks it against the
    /// bytes that remain: each entry carries at least `min_entry_bytes`
    /// of header, so a larger count cannot be satisfied and is rejected
    /// before any allocation sized from it.
    fn count(&mut self, min_entry_bytes: usize) -> Result<usize> {
        let count = self.u32()? as usize;
        if count > self.bytes.len() / min_entry_bytes {
            return Err(NetError::Protocol(format!("{} count exceeds payload", self.what)));
        }
        Ok(count)
    }

    fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Fails unless every byte was consumed.
    fn finish(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(NetError::Protocol(format!("trailing bytes after {} payload", self.what)))
        }
    }
}

/// Operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Read a key.
    Get = 1,
    /// Write a key.
    Set = 2,
    /// Delete a key.
    Delete = 3,
    /// Append to a key's value.
    Append = 4,
    /// Add a delta to a decimal value (delta is the request value, LE i64).
    Increment = 5,
    /// Liveness probe.
    Ping = 6,
    /// Ordered prefix scan: `key` is the prefix, `value` is an
    /// [`encode_scan_limit`] payload carrying the explicit result
    /// limit. The response value is a [`encode_scan`] payload.
    ScanPrefix = 7,
    /// Batched read: `key` is empty, `value` is an
    /// [`encode_multi_get`] payload. The response value is an
    /// [`encode_multi_get_response`] payload.
    MultiGet = 8,
    /// Batched write: `key` is empty, `value` is an
    /// [`encode_multi_set`] payload. The response carries no value.
    MultiSet = 9,
    /// Observability snapshot: `key` and `value` are empty. The response
    /// value is an [`encode_stats`] payload.
    Stats = 10,
    /// Durability barrier: `key` and `value` are empty. Commits every
    /// operation buffered in the server's write-ahead log before the Ok
    /// response; a server without a WAL acknowledges immediately.
    Flush = 11,
    /// Write a key with an expiry deadline: `value` is an
    /// [`encode_set_ttl`] payload carrying the relative TTL and the
    /// actual value. Stores without expiry support answer `Error`.
    SetTtl = 12,
    /// Start a replication subscription (secure channel only): `key`
    /// and `value` are empty. The response value is a
    /// [`shieldstore::ReplHello`] payload carrying the log keys — the
    /// reason this opcode is refused outside an attested session.
    ReplSubscribe = 13,
    /// Poll one batch of the sealed replication stream: `value` is an
    /// [`encode_repl_poll`] payload naming the subscriber's position.
    /// The response value is a [`shieldstore::ReplBatch`] payload.
    ReplSegment = 14,
    /// Report a replica's applied watermark: `value` is an
    /// [`encode_repl_ack`] payload. The response carries no value.
    ReplAck = 15,
    /// Promote the serving replica to primary (secure channel only):
    /// `key` and `value` are empty. The response value is the promoted
    /// [`encode_watermark`] position. Non-replica servers answer
    /// `Error`.
    Promote = 16,
}

impl OpCode {
    /// Parses an opcode byte.
    pub fn from_u8(v: u8) -> Result<OpCode> {
        Ok(match v {
            1 => OpCode::Get,
            2 => OpCode::Set,
            3 => OpCode::Delete,
            4 => OpCode::Append,
            5 => OpCode::Increment,
            6 => OpCode::Ping,
            7 => OpCode::ScanPrefix,
            8 => OpCode::MultiGet,
            9 => OpCode::MultiSet,
            10 => OpCode::Stats,
            11 => OpCode::Flush,
            12 => OpCode::SetTtl,
            13 => OpCode::ReplSubscribe,
            14 => OpCode::ReplSegment,
            15 => OpCode::ReplAck,
            16 => OpCode::Promote,
            other => return Err(NetError::Protocol(format!("unknown opcode {other}"))),
        })
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success; value carries the result.
    Ok = 0,
    /// Key not found.
    NotFound = 1,
    /// Server-side failure (capacity, non-numeric increment, ...).
    Error = 2,
    /// The server shed this request under overload (admission control
    /// or a missed per-request deadline). The operation was **not**
    /// executed; retry after backoff.
    Busy = 3,
    /// The key's hash partition is quarantined after an integrity
    /// violation. The server keeps serving other partitions; retrying
    /// is pointless until the operator restores the store.
    Quarantined = 4,
    /// The write would exceed the requesting tenant's quota. The
    /// operation was **not** executed; the tenant must delete data (or
    /// get its quota raised) before retrying.
    QuotaExceeded = 5,
    /// The server is a replica serving reads only; the mutation was
    /// **not** executed. Retry against the primary (or after this
    /// replica is promoted).
    ReadOnly = 6,
    /// Durable storage failed under the server's write-ahead log and
    /// the writer is poisoned: this mutation — and every further one on
    /// this node — fails closed. Reads keep serving. Clients should
    /// fail over to a replica rather than retry here.
    StorageFailed = 7,
}

impl Status {
    /// Parses a status byte.
    pub fn from_u8(v: u8) -> Result<Status> {
        Ok(match v {
            0 => Status::Ok,
            1 => Status::NotFound,
            2 => Status::Error,
            3 => Status::Busy,
            4 => Status::Quarantined,
            5 => Status::QuotaExceeded,
            6 => Status::ReadOnly,
            7 => Status::StorageFailed,
            other => return Err(NetError::Protocol(format!("unknown status {other}"))),
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The operation.
    pub op: OpCode,
    /// The key.
    pub key: Vec<u8>,
    /// The value (empty for `Get`/`Delete`/`Ping`).
    pub value: Vec<u8>,
}

impl Request {
    /// Serializes the request body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + self.key.len() + self.value.len());
        out.push(self.op as u8);
        out.extend_from_slice(&(self.key.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.key);
        out.extend_from_slice(&self.value);
        out
    }

    /// Parses a request body.
    pub fn decode(bytes: &[u8]) -> Result<Request> {
        let mut cur = Cursor::new(bytes, "request");
        let op = OpCode::from_u8(cur.u8()?)?;
        let key_len = cur.u32()? as usize;
        let val_len = cur.u32()? as usize;
        let key = cur.bytes(key_len)?.to_vec();
        let value = cur.bytes(val_len)?.to_vec();
        cur.finish()?;
        Ok(Request { op, key, value })
    }

    /// The data operation this request carries, borrowing its key and
    /// value. Decodes the opcode-specific payloads (TTL, delta, batch,
    /// scan limit); a malformed payload, or a control opcode (`Ping`,
    /// `Stats`, `Flush`, replication, `Promote`), is an `Err`.
    pub fn as_op(&self) -> Result<Op<'_>> {
        let key = &self.key[..];
        let value = &self.value[..];
        Ok(match self.op {
            OpCode::Get => Op::Get { key },
            OpCode::Set => Op::Set { key, value, ttl_ns: 0 },
            OpCode::SetTtl => {
                let (ttl_ns, value) = decode_set_ttl(value)?;
                Op::Set { key, value, ttl_ns }
            }
            OpCode::Delete => Op::Delete { key },
            OpCode::Append => Op::Append { key, suffix: value },
            OpCode::Increment => {
                let mut cur = Cursor::new(value, "increment");
                let delta = i64::from_le_bytes(cur.array()?);
                cur.finish()?;
                Op::Increment { key, delta }
            }
            OpCode::MultiGet => Op::MultiGet { keys: multi_get_keys(value)? },
            OpCode::MultiSet => Op::MultiSet { items: multi_set_items(value)? },
            OpCode::ScanPrefix => {
                Op::ScanPrefix { prefix: key, limit: decode_scan_limit(value)? as usize }
            }
            OpCode::Ping
            | OpCode::Stats
            | OpCode::Flush
            | OpCode::ReplSubscribe
            | OpCode::ReplSegment
            | OpCode::ReplAck
            | OpCode::Promote => {
                return Err(NetError::Protocol(format!("{:?} is not a data operation", self.op)))
            }
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Outcome.
    pub status: Status,
    /// Result payload (value for `Get`, new value for `Increment`, ...).
    pub value: Vec<u8>,
}

impl Response {
    /// Shorthand for an OK response with a payload.
    pub fn ok(value: Vec<u8>) -> Self {
        Self { status: Status::Ok, value }
    }

    /// Shorthand for an empty OK response.
    pub fn ok_empty() -> Self {
        Self { status: Status::Ok, value: Vec::new() }
    }

    /// Shorthand for NotFound.
    pub fn not_found() -> Self {
        Self { status: Status::NotFound, value: Vec::new() }
    }

    /// Shorthand for Error.
    pub fn error() -> Self {
        Self { status: Status::Error, value: Vec::new() }
    }

    /// Shorthand for Busy (request shed, not executed).
    pub fn busy() -> Self {
        Self { status: Status::Busy, value: Vec::new() }
    }

    /// Shorthand for Quarantined.
    pub fn quarantined() -> Self {
        Self { status: Status::Quarantined, value: Vec::new() }
    }

    /// Shorthand for QuotaExceeded.
    pub fn quota_exceeded() -> Self {
        Self { status: Status::QuotaExceeded, value: Vec::new() }
    }

    /// Shorthand for ReadOnly (replica refused a mutation).
    pub fn read_only() -> Self {
        Self { status: Status::ReadOnly, value: Vec::new() }
    }

    /// Shorthand for StorageFailed (poisoned log writer refused a
    /// mutation).
    pub fn storage_failed() -> Self {
        Self { status: Status::StorageFailed, value: Vec::new() }
    }

    /// Serializes the response body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + self.value.len());
        out.push(self.status as u8);
        out.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.value);
        out
    }

    /// Parses a response body.
    pub fn decode(bytes: &[u8]) -> Result<Response> {
        let mut cur = Cursor::new(bytes, "response");
        let status = Status::from_u8(cur.u8()?)?;
        let value = cur.chunk()?.to_vec();
        cur.finish()?;
        Ok(Response { status, value })
    }
}

impl From<Reply> for Response {
    /// The wire answer to an executed data operation.
    fn from(reply: Reply) -> Self {
        match reply {
            Reply::Done => Response::ok_empty(),
            Reply::NotFound => Response::not_found(),
            Reply::Value(v) => Response::ok(v),
            Reply::Counter(n) => Response::ok(n.to_le_bytes().to_vec()),
            Reply::Values(results) => Response::ok(encode_multi_get_response(&results)),
            Reply::Entries(entries) => Response::ok(encode_scan(&entries)),
        }
    }
}

impl From<OpError> for Response {
    /// The wire status of a failed store operation.
    fn from(e: OpError) -> Self {
        match e {
            OpError::Quarantined => Response::quarantined(),
            OpError::QuotaExceeded => Response::quota_exceeded(),
            OpError::ReadOnly => Response::read_only(),
            OpError::StorageFailed => Response::storage_failed(),
            OpError::Failed => Response::error(),
        }
    }
}

/// Encodes scan results: repeated `[klen u32 | vlen u32 | key | value]`.
pub fn encode_scan(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (k, v) in entries {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
        out.extend_from_slice(v);
    }
    out
}

/// Decodes a scan payload produced by [`encode_scan`].
pub fn decode_scan(bytes: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut cur = Cursor::new(bytes, "scan");
    let mut out = Vec::new();
    while !cur.is_empty() {
        let (key, value) = key_value(&mut cur)?;
        out.push((key.to_vec(), value.to_vec()));
    }
    Ok(out)
}

/// Reads one `[klen u32 | vlen u32 | key | value]` entry.
fn key_value<'a>(cur: &mut Cursor<'a>) -> Result<(&'a [u8], &'a [u8])> {
    let klen = cur.u32()? as usize;
    let vlen = cur.u32()? as usize;
    Ok((cur.bytes(klen)?, cur.bytes(vlen)?))
}

/// Version tag of the [`encode_scan_limit`] layout.
pub const SCAN_LIMIT_VERSION: u8 = 1;

/// Encodes a `ScanPrefix` request value: `[version u8 | limit u32 LE]`.
///
/// Earlier protocol revisions smuggled the limit as a bare 4-byte
/// `value`, indistinguishable from an (unsupported) value payload. The
/// explicit version byte makes the field self-describing;
/// [`decode_scan_limit`] rejects the old bare form by length.
pub fn encode_scan_limit(limit: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.push(SCAN_LIMIT_VERSION);
    out.extend_from_slice(&limit.to_le_bytes());
    out
}

/// Decodes a payload produced by [`encode_scan_limit`], rejecting any
/// other length (including the legacy bare 4-byte limit) or version.
pub fn decode_scan_limit(bytes: &[u8]) -> Result<u32> {
    let mut cur = Cursor::new(bytes, "scan limit");
    let version = cur.u8()?;
    let limit = cur.u32()?;
    cur.finish()?;
    if version != SCAN_LIMIT_VERSION {
        return Err(NetError::Protocol(format!("unknown scan limit version {version}")));
    }
    Ok(limit)
}

/// Encodes a `SetTtl` request value: `[ttl_ns u64 LE | value]`. The
/// TTL is relative (nanoseconds from arrival); the server converts it
/// to an absolute deadline. `ttl_ns` must be nonzero — a zero TTL is a
/// plain `Set`.
pub fn encode_set_ttl(ttl_ns: u64, value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + value.len());
    out.extend_from_slice(&ttl_ns.to_le_bytes());
    out.extend_from_slice(value);
    out
}

/// Decodes a payload produced by [`encode_set_ttl`], rejecting short
/// payloads and a zero TTL.
pub fn decode_set_ttl(bytes: &[u8]) -> Result<(u64, &[u8])> {
    let mut cur = Cursor::new(bytes, "set-ttl");
    let ttl = cur.u64()?;
    if ttl == 0 {
        return Err(NetError::Protocol("set-ttl with zero TTL".into()));
    }
    Ok((ttl, cur.rest()))
}

/// Encodes a `(generation, seq)` watermark: `[gen u64 | seq u64]`.
/// Used by the `Flush` response (empty value = the server has no WAL)
/// and the `Promote` response.
pub fn encode_watermark(generation: u64, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out
}

/// Decodes a payload produced by [`encode_watermark`]; rejects any
/// other length.
pub fn decode_watermark(bytes: &[u8]) -> Result<(u64, u64)> {
    let mut cur = Cursor::new(bytes, "watermark");
    let out = (cur.u64()?, cur.u64()?);
    cur.finish()?;
    Ok(out)
}

/// Encodes a `ReplSegment` request value: the subscriber's stream
/// position and byte budget, `[generation u64 | after_seq u64 |
/// max_bytes u32]`.
pub fn encode_repl_poll(generation: u64, after_seq: u64, max_bytes: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(20);
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&after_seq.to_le_bytes());
    out.extend_from_slice(&max_bytes.to_le_bytes());
    out
}

/// Decodes a payload produced by [`encode_repl_poll`].
pub fn decode_repl_poll(bytes: &[u8]) -> Result<(u64, u64, u32)> {
    let mut cur = Cursor::new(bytes, "repl poll");
    let out = (cur.u64()?, cur.u64()?, cur.u32()?);
    cur.finish()?;
    Ok(out)
}

/// Encodes a `ReplAck` request value: `[subscriber u64 | generation
/// u64 | seq u64]`.
pub fn encode_repl_ack(subscriber: u64, generation: u64, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    out.extend_from_slice(&subscriber.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out
}

/// Decodes a payload produced by [`encode_repl_ack`].
pub fn decode_repl_ack(bytes: &[u8]) -> Result<(u64, u64, u64)> {
    let mut cur = Cursor::new(bytes, "repl ack");
    let out = (cur.u64()?, cur.u64()?, cur.u64()?);
    cur.finish()?;
    Ok(out)
}

/// Encodes a `MultiGet` request value: `[count u32] ([klen u32 | key])*`.
pub fn encode_multi_get(keys: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + keys.iter().map(|k| 4 + k.len()).sum::<usize>());
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for k in keys {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
    }
    out
}

/// Decodes a payload produced by [`encode_multi_get`], borrowing the
/// keys from `bytes`.
fn multi_get_keys(bytes: &[u8]) -> Result<Vec<&[u8]>> {
    let mut cur = Cursor::new(bytes, "multi-get");
    let count = cur.count(4)?;
    let keys = (0..count).map(|_| cur.chunk()).collect::<Result<Vec<_>>>()?;
    cur.finish()?;
    Ok(keys)
}

/// Decodes a payload produced by [`encode_multi_get`].
pub fn decode_multi_get(bytes: &[u8]) -> Result<Vec<Vec<u8>>> {
    Ok(multi_get_keys(bytes)?.into_iter().map(<[u8]>::to_vec).collect())
}

/// Encodes a `MultiGet` response value:
/// `[count u32] ([status u8 | vlen u32 | value])*`, one entry per
/// requested key in request order. `None` encodes as `NotFound` with an
/// empty value.
pub fn encode_multi_get_response(results: &[Option<Vec<u8>>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        4 + results.iter().map(|r| 5 + r.as_ref().map_or(0, |v| v.len())).sum::<usize>(),
    );
    out.extend_from_slice(&(results.len() as u32).to_le_bytes());
    for r in results {
        match r {
            Some(v) => {
                out.push(Status::Ok as u8);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
            None => {
                out.push(Status::NotFound as u8);
                out.extend_from_slice(&0u32.to_le_bytes());
            }
        }
    }
    out
}

/// Decodes a payload produced by [`encode_multi_get_response`].
pub fn decode_multi_get_response(bytes: &[u8]) -> Result<Vec<Option<Vec<u8>>>> {
    let mut cur = Cursor::new(bytes, "multi-get response");
    let count = cur.count(5)?;
    let mut results = Vec::with_capacity(count);
    for _ in 0..count {
        let status = Status::from_u8(cur.u8()?)?;
        let value = cur.chunk()?;
        match status {
            Status::Ok => results.push(Some(value.to_vec())),
            Status::NotFound => {
                if !value.is_empty() {
                    return Err(NetError::Protocol("multi-get miss carries a value".into()));
                }
                results.push(None);
            }
            Status::Error
            | Status::Busy
            | Status::Quarantined
            | Status::QuotaExceeded
            | Status::ReadOnly
            | Status::StorageFailed => {
                return Err(NetError::Protocol(format!(
                    "per-key {status:?} status in multi-get response",
                )));
            }
        }
    }
    cur.finish()?;
    Ok(results)
}

/// Encodes a `MultiSet` request value:
/// `[count u32] ([klen u32 | vlen u32 | key | value])*`.
pub fn encode_multi_set(items: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(4 + items.iter().map(|(k, v)| 8 + k.len() + v.len()).sum::<usize>());
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for (k, v) in items {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
        out.extend_from_slice(v);
    }
    out
}

/// Decodes a payload produced by [`encode_multi_set`], borrowing the
/// items from `bytes`.
fn multi_set_items(bytes: &[u8]) -> Result<Vec<(&[u8], &[u8])>> {
    let mut cur = Cursor::new(bytes, "multi-set");
    let count = cur.count(8)?;
    let items = (0..count).map(|_| key_value(&mut cur)).collect::<Result<Vec<_>>>()?;
    cur.finish()?;
    Ok(items)
}

/// Decodes a payload produced by [`encode_multi_set`].
pub fn decode_multi_set(bytes: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let items = multi_set_items(bytes)?;
    Ok(items.into_iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect())
}

/// Version tag of the [`encode_stats`] layout. Bumped whenever the field
/// order or width changes, so a stale client fails closed instead of
/// misreading counters. v6 added the per-tenant block; v7 added the
/// replication gauges; v8 added the scrub and storage-failure gauges.
pub const STATS_WIRE_VERSION: u8 = 8;

/// u64 fields serialized per [`shieldstore::TenantStat`] row.
const TENANT_STAT_FIELDS: usize = 12;

/// The sim-counter serialization order of [`encode_stats`], fixed here so
/// encode and decode cannot drift apart.
const SIM_FIELDS: usize = 9;

fn sim_to_array(s: &sgx_sim::stats::StatsSnapshot) -> [u64; SIM_FIELDS] {
    [
        s.ecalls,
        s.ocalls,
        s.hotcalls,
        s.epc_faults,
        s.epc_evictions,
        s.epc_writebacks,
        s.epc_hits,
        s.untrusted_bytes_allocated,
        s.attack_steps,
    ]
}

fn sim_from_array(a: [u64; SIM_FIELDS]) -> sgx_sim::stats::StatsSnapshot {
    sgx_sim::stats::StatsSnapshot {
        ecalls: a[0],
        ocalls: a[1],
        hotcalls: a[2],
        epc_faults: a[3],
        epc_evictions: a[4],
        epc_writebacks: a[5],
        epc_hits: a[6],
        untrusted_bytes_allocated: a[7],
        attack_steps: a[8],
    }
}

/// Encodes a `Stats` response value:
///
/// ```text
/// [ version u8 ] [ op_field_count u8 ] ( op counter u64 )*
/// 5 x histogram (get, set, delete, batch, wal_group):
///   ( bucket u64 )x64  [ sum u64 ] [ max u64 ]
/// [ entries | shards | heap_live | heap_chunks | cache_used | cache_entries ]
/// [ wal_bytes | wal_records | wal_fsyncs ]
/// [ repl_role | repl_subscribers | repl_segments_shipped | repl_bytes_shipped ]
/// [ repl_acked_generation | repl_acked_seq | repl_lag_records ]
/// [ quarantined_sets | quarantined_shards | shed_requests | refused_connections ]
/// [ cross_loop_handoffs | event_loops | pending_frames ]
/// [ crypto_bytes | crypto_ops | crypto_backend ]
/// [ scrub_passes | scrub_bytes | scrub_corrupt | scrub_repaired | storage_failed ]
/// [ tenant_count u64 ] MAX_TENANT_STATS x tenant row (12 u64 each)
/// [ sim_field_count u8 ] ( sim counter u64 )*
/// ```
///
/// All integers are u64 LE. Counter order is [`OpStats::FIELDS`] order,
/// so a counter added to the macro table is serialized automatically.
pub fn encode_stats(snap: &shieldstore::StatsSnapshot) -> Vec<u8> {
    use shieldstore::hist::NUM_BUCKETS;
    use shieldstore::OpStats;
    let mut out = Vec::with_capacity(
        2 + 8 * OpStats::FIELDS.len()
            + 5 * 8 * (NUM_BUCKETS + 2)
            + (31 + 1 + shieldstore::MAX_TENANT_STATS * TENANT_STAT_FIELDS) * 8
            + 1
            + 8 * SIM_FIELDS,
    );
    out.push(STATS_WIRE_VERSION);
    out.push(OpStats::FIELDS.len() as u8);
    for f in OpStats::FIELDS {
        out.extend_from_slice(&(f.get)(&snap.ops).to_le_bytes());
    }
    for (_, h) in snap.hists.iter() {
        for b in h.buckets() {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out.extend_from_slice(&h.sum_ns().to_le_bytes());
        out.extend_from_slice(&h.max_ns().to_le_bytes());
    }
    for gauge in [
        snap.entries,
        snap.shards,
        snap.heap_live_bytes,
        snap.heap_chunks,
        snap.cache_used_bytes,
        snap.cache_entries,
        snap.wal_bytes,
        snap.wal_records,
        snap.wal_fsyncs,
        snap.repl_role,
        snap.repl_subscribers,
        snap.repl_segments_shipped,
        snap.repl_bytes_shipped,
        snap.repl_acked_generation,
        snap.repl_acked_seq,
        snap.repl_lag_records,
        snap.quarantined_sets,
        snap.quarantined_shards,
        snap.shed_requests,
        snap.refused_connections,
        snap.cross_loop_handoffs,
        snap.event_loops,
        snap.pending_frames,
        snap.crypto_bytes,
        snap.crypto_ops,
        snap.crypto_backend,
        snap.scrub_passes,
        snap.scrub_bytes,
        snap.scrub_corrupt,
        snap.scrub_repaired,
        snap.storage_failed,
    ] {
        out.extend_from_slice(&gauge.to_le_bytes());
    }
    // Per-tenant block: the live row count, then every row slot
    // fixed-width (unused slots are all-zero), so the payload length is
    // constant and decode cannot be steered by a hostile count.
    out.extend_from_slice(&snap.tenant_count.to_le_bytes());
    for row in &snap.tenants {
        for v in [
            row.tenant as u64,
            row.weight as u64,
            row.used_bytes,
            row.used_keys,
            row.gets,
            row.sets,
            row.hits,
            row.misses,
            row.quota_rejections,
            row.expired_lazy,
            row.expired_swept,
            row.shed,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out.push(SIM_FIELDS as u8);
    for v in sim_to_array(&snap.sim) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Reads one histogram of a stats payload: its buckets, sum and max.
fn read_hist(r: &mut Cursor<'_>) -> Result<shieldstore::LatencyHist> {
    let mut buckets = [0u64; shieldstore::hist::NUM_BUCKETS];
    for b in buckets.iter_mut() {
        *b = r.u64()?;
    }
    let sum = r.u64()?;
    let max = r.u64()?;
    shieldstore::LatencyHist::from_raw(buckets, sum, max)
        .ok_or_else(|| NetError::Protocol("inconsistent stats histogram".into()))
}

/// Decodes a payload produced by [`encode_stats`], failing closed on
/// version or field-count mismatch, truncation, trailing bytes, or
/// internally inconsistent histograms.
pub fn decode_stats(bytes: &[u8]) -> Result<shieldstore::StatsSnapshot> {
    use shieldstore::OpStats;
    let mut r = Cursor::new(bytes, "stats");
    let version = r.u8()?;
    if version != STATS_WIRE_VERSION {
        return Err(NetError::Protocol(format!("unknown stats version {version}")));
    }
    let fields = r.u8()?;
    if fields as usize != OpStats::FIELDS.len() {
        return Err(NetError::Protocol(format!(
            "stats field count {fields} does not match this build's {}",
            OpStats::FIELDS.len()
        )));
    }
    let mut snap = shieldstore::StatsSnapshot::default();
    for f in OpStats::FIELDS {
        *(f.get_mut)(&mut snap.ops) = r.u64()?;
    }
    snap.hists.get = read_hist(&mut r)?;
    snap.hists.set = read_hist(&mut r)?;
    snap.hists.delete = read_hist(&mut r)?;
    snap.hists.batch = read_hist(&mut r)?;
    snap.hists.wal_group = read_hist(&mut r)?;
    snap.entries = r.u64()?;
    snap.shards = r.u64()?;
    snap.heap_live_bytes = r.u64()?;
    snap.heap_chunks = r.u64()?;
    snap.cache_used_bytes = r.u64()?;
    snap.cache_entries = r.u64()?;
    snap.wal_bytes = r.u64()?;
    snap.wal_records = r.u64()?;
    snap.wal_fsyncs = r.u64()?;
    snap.repl_role = r.u64()?;
    snap.repl_subscribers = r.u64()?;
    snap.repl_segments_shipped = r.u64()?;
    snap.repl_bytes_shipped = r.u64()?;
    snap.repl_acked_generation = r.u64()?;
    snap.repl_acked_seq = r.u64()?;
    snap.repl_lag_records = r.u64()?;
    snap.quarantined_sets = r.u64()?;
    snap.quarantined_shards = r.u64()?;
    snap.shed_requests = r.u64()?;
    snap.refused_connections = r.u64()?;
    snap.cross_loop_handoffs = r.u64()?;
    snap.event_loops = r.u64()?;
    snap.pending_frames = r.u64()?;
    snap.crypto_bytes = r.u64()?;
    snap.crypto_ops = r.u64()?;
    snap.crypto_backend = r.u64()?;
    snap.scrub_passes = r.u64()?;
    snap.scrub_bytes = r.u64()?;
    snap.scrub_corrupt = r.u64()?;
    snap.scrub_repaired = r.u64()?;
    snap.storage_failed = r.u64()?;
    snap.tenant_count = r.u64()?;
    if snap.tenant_count as usize > shieldstore::MAX_TENANT_STATS {
        return Err(NetError::Protocol("stats tenant count exceeds row slots".into()));
    }
    for row in snap.tenants.iter_mut() {
        let tenant = r.u64()?;
        let weight = r.u64()?;
        if tenant > u32::MAX as u64 || weight > u32::MAX as u64 {
            return Err(NetError::Protocol("stats tenant row field overflow".into()));
        }
        row.tenant = tenant as u32;
        row.weight = weight as u32;
        row.used_bytes = r.u64()?;
        row.used_keys = r.u64()?;
        row.gets = r.u64()?;
        row.sets = r.u64()?;
        row.hits = r.u64()?;
        row.misses = r.u64()?;
        row.quota_rejections = r.u64()?;
        row.expired_lazy = r.u64()?;
        row.expired_swept = r.u64()?;
        row.shed = r.u64()?;
    }
    if r.u8()? as usize != SIM_FIELDS {
        return Err(NetError::Protocol("stats sim field count mismatch".into()));
    }
    let mut sim = [0u64; SIM_FIELDS];
    for v in sim.iter_mut() {
        *v = r.u64()?;
    }
    snap.sim = sim_from_array(sim);
    r.finish()?;
    Ok(snap)
}

/// Writes a length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<()> {
    if body.len() > MAX_FRAME {
        return Err(NetError::Protocol("frame too large".into()));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Reads a length-prefixed frame; `Ok(None)` on clean EOF.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(NetError::Protocol("frame too large".into()));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        for op in [OpCode::Get, OpCode::Set, OpCode::Delete, OpCode::Append, OpCode::Increment] {
            let req = Request { op, key: b"key".to_vec(), value: b"value".to_vec() };
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        let empty = Request { op: OpCode::Ping, key: Vec::new(), value: Vec::new() };
        assert_eq!(Request::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn response_roundtrip() {
        let r = Response::ok(b"payload".to_vec());
        assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        for r in
            [Response::not_found(), Response::error(), Response::busy(), Response::quarantined()]
        {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn scan_limit_roundtrip() {
        for limit in [0u32, 1, 100, u32::MAX] {
            assert_eq!(decode_scan_limit(&encode_scan_limit(limit)).unwrap(), limit);
        }
    }

    #[test]
    fn malformed_scan_limit_rejected() {
        // The legacy bare 4-byte limit is rejected by length.
        assert!(decode_scan_limit(&100u32.to_le_bytes()).is_err());
        assert!(decode_scan_limit(&[]).is_err());
        assert!(decode_scan_limit(&encode_scan_limit(7)[..4]).is_err());
        let mut long = encode_scan_limit(7);
        long.push(0);
        assert!(decode_scan_limit(&long).is_err());
        let mut bad_version = encode_scan_limit(7);
        bad_version[0] = SCAN_LIMIT_VERSION + 1;
        assert!(decode_scan_limit(&bad_version).is_err());
    }

    #[test]
    fn per_key_shed_statuses_rejected_in_multi_get() {
        // Busy/Quarantined are frame-level outcomes; a per-key occurrence
        // is malformed and must fail the whole batch decode.
        for status in [Status::Error, Status::Busy, Status::Quarantined] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.push(status as u8);
            bytes.extend_from_slice(&0u32.to_le_bytes());
            assert!(decode_multi_get_response(&bytes).is_err(), "{status:?}");
        }
    }

    #[test]
    fn malformed_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // Length mismatch.
        let mut bytes = Request { op: OpCode::Get, key: b"k".to_vec(), value: vec![] }.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        assert!(Response::decode(&[0, 5, 0, 0, 0, 1]).is_err());
    }

    #[test]
    fn frame_roundtrip_over_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn multi_get_roundtrip() {
        let keys = vec![b"alpha".to_vec(), Vec::new(), b"gamma".to_vec()];
        assert_eq!(decode_multi_get(&encode_multi_get(&keys)).unwrap(), keys);
        assert_eq!(decode_multi_get(&encode_multi_get(&[])).unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn multi_get_response_roundtrip() {
        let results = vec![Some(b"v1".to_vec()), None, Some(Vec::new())];
        assert_eq!(
            decode_multi_get_response(&encode_multi_get_response(&results)).unwrap(),
            results
        );
    }

    #[test]
    fn multi_set_roundtrip() {
        let items = vec![(b"k1".to_vec(), b"v1".to_vec()), (b"k2".to_vec(), Vec::new())];
        assert_eq!(decode_multi_set(&encode_multi_set(&items)).unwrap(), items);
    }

    #[test]
    fn malformed_batches_rejected() {
        // Count prefix missing or truncated.
        assert!(decode_multi_get(&[1, 0]).is_err());
        // Count claims more entries than the payload can hold.
        assert!(decode_multi_get(&[200, 0, 0, 0]).is_err());
        assert!(decode_multi_set(&[5, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(decode_multi_get_response(&[9, 0, 0, 0, 0]).is_err());
        // Truncated entry body.
        let mut bytes = encode_multi_get(&[b"key".to_vec()]);
        bytes.pop();
        assert!(decode_multi_get(&bytes).is_err());
        // Trailing garbage after the declared batch.
        let mut bytes = encode_multi_set(&[(b"k".to_vec(), b"v".to_vec())]);
        bytes.push(0);
        assert!(decode_multi_set(&bytes).is_err());
        // A miss entry must not carry a value.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(Status::NotFound as u8);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b'x');
        assert!(decode_multi_get_response(&bytes).is_err());
    }

    fn sample_snapshot() -> shieldstore::StatsSnapshot {
        let mut snap = shieldstore::StatsSnapshot::default();
        for (i, f) in shieldstore::OpStats::FIELDS.iter().enumerate() {
            *(f.get_mut)(&mut snap.ops) = (i as u64 + 1) * 17;
        }
        snap.hists.get.record(150);
        snap.hists.get.record(9_000);
        snap.hists.set.record(3);
        snap.hists.batch.record(1 << 40);
        snap.entries = 42;
        snap.shards = 4;
        snap.heap_live_bytes = 1 << 20;
        snap.heap_chunks = 3;
        snap.cache_used_bytes = 512;
        snap.cache_entries = 9;
        snap.hists.wal_group.record(16);
        snap.wal_bytes = 2048;
        snap.wal_records = 1;
        snap.wal_fsyncs = 1;
        snap.repl_role = 1;
        snap.repl_subscribers = 2;
        snap.repl_segments_shipped = 11;
        snap.repl_bytes_shipped = 1 << 16;
        snap.repl_acked_generation = 3;
        snap.repl_acked_seq = 900;
        snap.repl_lag_records = 5;
        snap.quarantined_sets = 2;
        snap.quarantined_shards = 1;
        snap.shed_requests = 13;
        snap.refused_connections = 4;
        snap.cross_loop_handoffs = 321;
        snap.event_loops = 4;
        snap.pending_frames = 7;
        snap.crypto_bytes = 1 << 30;
        snap.crypto_ops = 4242;
        snap.crypto_backend = 1;
        snap.scrub_passes = 6;
        snap.scrub_bytes = 1 << 22;
        snap.scrub_corrupt = 2;
        snap.scrub_repaired = 1;
        snap.storage_failed = 1;
        snap.sim.ecalls = 77;
        snap.sim.epc_faults = 5;
        snap
    }

    #[test]
    fn stats_roundtrip() {
        let snap = sample_snapshot();
        let decoded = decode_stats(&encode_stats(&snap)).unwrap();
        assert_eq!(decoded, snap);
        let empty = shieldstore::StatsSnapshot::default();
        assert_eq!(decode_stats(&encode_stats(&empty)).unwrap(), empty);
    }

    #[test]
    fn malformed_stats_rejected() {
        let good = encode_stats(&sample_snapshot());
        // Empty and short payloads.
        assert!(decode_stats(&[]).is_err());
        assert!(decode_stats(&good[..1]).is_err());
        // Wrong version or field count.
        let mut bad = good.clone();
        bad[0] = STATS_WIRE_VERSION + 1;
        assert!(decode_stats(&bad).is_err());
        let mut bad = good.clone();
        bad[1] += 1;
        assert!(decode_stats(&bad).is_err());
        // Truncation anywhere must fail, never panic.
        for cut in [2, 50, good.len() / 2, good.len() - 1] {
            assert!(decode_stats(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing bytes.
        let mut bad = good.clone();
        bad.push(0);
        assert!(decode_stats(&bad).is_err());
        // A histogram whose max lies outside its top bucket fails closed.
        let mut snap = sample_snapshot();
        snap.hists.get.record(1_000_000);
        let mut bytes = encode_stats(&snap);
        let tail = 8 * (31 + 1 + shieldstore::MAX_TENANT_STATS * TENANT_STAT_FIELDS) + 1 + 8 * 9;
        let max_off = bytes.len() - tail - 8;
        bytes[max_off..max_off + 8].copy_from_slice(&1u64.to_le_bytes());
        assert!(decode_stats(&bytes).is_err());
    }

    #[test]
    fn repl_payloads_roundtrip() {
        assert_eq!(decode_watermark(&encode_watermark(7, 1234)).unwrap(), (7, 1234));
        assert_eq!(decode_repl_poll(&encode_repl_poll(3, 99, 1 << 20)).unwrap(), (3, 99, 1 << 20));
        assert_eq!(decode_repl_ack(&encode_repl_ack(5, 2, 777)).unwrap(), (5, 2, 777));
    }

    #[test]
    fn repl_payloads_reject_bad_lengths() {
        for len in [0usize, 8, 15, 17, 32] {
            assert!(decode_watermark(&vec![0u8; len]).is_err(), "watermark len {len}");
        }
        for len in [0usize, 16, 19, 21, 24] {
            assert!(decode_repl_poll(&vec![0u8; len]).is_err(), "poll len {len}");
        }
        for len in [0usize, 16, 20, 23, 25] {
            assert!(decode_repl_ack(&vec![0u8; len]).is_err(), "ack len {len}");
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}
