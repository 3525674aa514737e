//! The serving interface: one trait over every store a front-end can
//! serve, and one request type every data operation travels as.
//!
//! The paper's server-side-encryption model (§3.2) has a single way in
//! for a client request: it is decrypted, executed in the enclave, and
//! answered. [`KvBackend::execute`] is that way in. A wire request is
//! decoded into a borrowed [`Op`], executed under the connection's
//! tenant, and answered from the [`Reply`] or the [`OpError`].
//!
//! The plain `get`/`set`/`delete`/… methods remain for the figure
//! harness, which drives ShieldStore and the paper's comparison stores
//! (crate `shield-baseline`) through the same closed-loop code. The
//! trait's default [`KvBackend::execute`] serves a flat namespace from
//! them, so a comparison store answers every wire operation without
//! writing one itself.

use crate::{Error, ShieldStore, StatsSnapshot, Watermark};

/// Why a backend operation failed, at the granularity the wire protocol
/// can express. A serving layer uses it to distinguish a quarantined
/// partition (degraded but deliberate, the client should not retry)
/// from any other failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// The key's hash partition is quarantined after an integrity
    /// violation; other partitions keep serving.
    Quarantined,
    /// The write would exceed the requesting tenant's byte or key
    /// quota; the store was left untouched. Distinct from `Failed` so a
    /// serving layer can tell the tenant to shed load (not retry).
    QuotaExceeded,
    /// The store is a replica serving reads only; the mutation was not
    /// executed. The client should retry against the primary (or wait
    /// for this node's promotion).
    ReadOnly,
    /// Durable storage failed under the store's write-ahead log and the
    /// writer is poisoned: this mutation — and every further one on this
    /// node — fails closed, while reads keep serving. Distinct from
    /// `Failed` so a serving layer can tell clients to fail over rather
    /// than retry.
    StorageFailed,
    /// Any other failure (capacity, integrity violation, malformed
    /// value, …).
    Failed,
}

impl From<Error> for OpError {
    /// Maps a ShieldStore error to the wire-expressible failure class.
    fn from(e: Error) -> Self {
        match e {
            Error::Quarantined { .. } => OpError::Quarantined,
            Error::QuotaExceeded { .. } => OpError::QuotaExceeded,
            Error::StorageFailed => OpError::StorageFailed,
            _ => OpError::Failed,
        }
    }
}

/// Result alias for the failure-distinguishing [`KvBackend`] methods.
pub type OpResult<T> = core::result::Result<T, OpError>;

/// One data operation, borrowing its keys and values from the request
/// that carried it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op<'a> {
    /// Read a key.
    Get {
        /// The key.
        key: &'a [u8],
    },
    /// Write a key, expiring `ttl_ns` nanoseconds after it is applied
    /// (`0` = never).
    Set {
        /// The key.
        key: &'a [u8],
        /// The value.
        value: &'a [u8],
        /// Relative time-to-live; `0` means no expiry.
        ttl_ns: u64,
    },
    /// Delete a key.
    Delete {
        /// The key.
        key: &'a [u8],
    },
    /// Append to a key's value (creating it when absent).
    Append {
        /// The key.
        key: &'a [u8],
        /// Bytes appended to the current value.
        suffix: &'a [u8],
    },
    /// Add `delta` to a decimal-integer value (creating it when absent).
    Increment {
        /// The key.
        key: &'a [u8],
        /// Signed amount added.
        delta: i64,
    },
    /// Batched read; the whole batch succeeds or fails as one.
    MultiGet {
        /// Keys, answered in this order.
        keys: Vec<&'a [u8]>,
    },
    /// Batched write of non-expiring items.
    MultiSet {
        /// `(key, value)` pairs; a later duplicate key wins.
        items: Vec<(&'a [u8], &'a [u8])>,
    },
    /// Ordered prefix scan (stores with an ordered index only).
    ScanPrefix {
        /// Every returned key starts with this.
        prefix: &'a [u8],
        /// Most entries returned.
        limit: usize,
    },
}

impl<'a> Op<'a> {
    /// True when the operation can change the store's contents. A
    /// read-only node refuses exactly these.
    pub fn is_write(&self) -> bool {
        match self {
            Op::Get { .. } | Op::MultiGet { .. } | Op::ScanPrefix { .. } => false,
            Op::Set { .. }
            | Op::Delete { .. }
            | Op::Append { .. }
            | Op::Increment { .. }
            | Op::MultiSet { .. } => true,
        }
    }

    /// The one key the operation touches, or `None` for batches and
    /// scans, which span partitions.
    pub fn key(&self) -> Option<&'a [u8]> {
        match *self {
            Op::Get { key }
            | Op::Set { key, .. }
            | Op::Delete { key }
            | Op::Append { key, .. }
            | Op::Increment { key, .. } => Some(key),
            Op::MultiGet { .. } | Op::MultiSet { .. } | Op::ScanPrefix { .. } => None,
        }
    }
}

/// The successful outcome of an [`Op`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A write took effect, or a delete removed a live key.
    Done,
    /// A get or delete found no live entry.
    NotFound,
    /// A get's value.
    Value(Vec<u8>),
    /// An increment's new value.
    Counter(i64),
    /// A batched read's results, one per key in request order (`None`
    /// for a miss).
    Values(Vec<Option<Vec<u8>>>),
    /// A scan's entries in key order.
    Entries(Vec<(Vec<u8>, Vec<u8>)>),
}

/// A uniform interface over every store under evaluation, and the one
/// interface a networked front-end serves.
///
/// Methods take `&self`; implementations synchronize internally. `set`
/// returns `false` when the store cannot accept the item (e.g. Eleos
/// exhausting its memory pool), letting harnesses record capacity limits
/// instead of panicking.
pub trait KvBackend: Send + Sync {
    /// Store name for report rows.
    fn name(&self) -> &str;
    /// Reads a key.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;
    /// Writes a key. Returns `false` on capacity failure.
    fn set(&self, key: &[u8], value: &[u8]) -> bool;
    /// Deletes a key; `true` if it existed.
    fn delete(&self, key: &[u8]) -> bool;
    /// Appends to a key's value (creating it when absent).
    fn append(&self, key: &[u8], suffix: &[u8]) -> bool {
        let mut v = self.get(key).unwrap_or_default();
        v.extend_from_slice(suffix);
        self.set(key, &v)
    }
    /// Adds `delta` to a decimal-integer value (creating it when absent).
    /// Returns the new value, or `None` if the value is not numeric.
    fn increment(&self, key: &[u8], delta: i64) -> Option<i64> {
        let current = match self.get(key) {
            Some(v) => core::str::from_utf8(&v).ok()?.trim().parse::<i64>().ok()?,
            None => 0,
        };
        let next = current.checked_add(delta)?;
        self.set(key, next.to_string().as_bytes()).then_some(next)
    }
    /// Number of live entries.
    fn len(&self) -> usize;
    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Executes one data operation in `tenant`'s namespace — the single
    /// entry point a serving layer uses.
    ///
    /// The default serves a flat namespace from the plain methods above:
    /// the paper's comparison systems know nothing of tenants, so every
    /// tenant shares it. It fails closed where the plain methods cannot
    /// express the request: a nonzero TTL answers `Failed` instead of
    /// storing an immortal value, a scan answers `Failed` (no ordered
    /// index), and no failure is ever reported as a quarantine.
    fn execute(&self, _tenant: u32, op: Op<'_>) -> OpResult<Reply> {
        let done = |ok: bool| if ok { Ok(Reply::Done) } else { Err(OpError::Failed) };
        match op {
            Op::Get { key } => Ok(self.get(key).map_or(Reply::NotFound, Reply::Value)),
            Op::Set { key, value, ttl_ns: 0 } => done(self.set(key, value)),
            Op::Set { .. } | Op::ScanPrefix { .. } => Err(OpError::Failed),
            Op::Delete { key } => Ok(if self.delete(key) { Reply::Done } else { Reply::NotFound }),
            Op::Append { key, suffix } => done(self.append(key, suffix)),
            Op::Increment { key, delta } => {
                self.increment(key, delta).map(Reply::Counter).ok_or(OpError::Failed)
            }
            Op::MultiGet { keys } => Ok(Reply::Values(keys.iter().map(|k| self.get(k)).collect())),
            Op::MultiSet { items } => done(items.iter().all(|(k, v)| self.set(k, v))),
        }
    }

    /// The index of the hash partition serving `key`, where the store
    /// is partitioned. A networked front-end uses this to run each
    /// request on the event loop aligned with the key's partition
    /// (paper §5.3); `None` (the default) means the store has no stable
    /// partitioning and any loop may execute the request.
    fn shard_hint(&self, _key: &[u8]) -> Option<usize> {
        None
    }
    /// Admission weight for `tenant` (default 1: unweighted fair share).
    fn tenant_weight(&self, _tenant: u32) -> u32 {
        1
    }
    /// Resets phase-relative simulator timing (the EPC fault channel).
    /// Harnesses call this when they reset per-thread virtual clocks at
    /// the start of a measured run; stores without a simulated enclave
    /// have nothing to do.
    fn reset_timing(&self) {}
    /// Informs the store of the modeled worker concurrency for the
    /// upcoming run. Used by stores whose contention cannot manifest as
    /// real lock waits under the harness's modeled parallelism —
    /// memcached's maintainer-thread interference (Fig. 13) is charged as
    /// virtual time scaled by this count. Default: ignored.
    fn set_concurrency(&self, _workers: usize) {}
    /// A full observability snapshot (counters, latency histograms,
    /// occupancy, SGX transition counters), where the store keeps one.
    /// `None` means the backend is not instrumented; the wire server maps
    /// that to an error status on the `Stats` opcode.
    fn stats_snapshot(&self) -> Option<StatsSnapshot> {
        None
    }
    /// Durability barrier: commit everything buffered in the store's
    /// write-ahead log. Returns `false` when the commit failed; stores
    /// without a WAL trivially succeed (there is nothing to flush).
    fn flush(&self) -> bool {
        true
    }
    /// [`KvBackend::flush`] returning the durable `(generation, seq)`
    /// watermark where the store keeps a sealed log. `Ok(None)` means the
    /// store has no log (nothing to make durable, trivially succeeded).
    /// Every write at or below the returned watermark survives a crash
    /// and is what a replication subscriber may acknowledge.
    fn flush_durable(&self) -> OpResult<Option<(u64, u64)>> {
        if self.flush() {
            Ok(None)
        } else {
            Err(OpError::Failed)
        }
    }

    // --- replication (primary side) ------------------------------------
    //
    // Only stores with a sealed WAL can serve as replication primaries;
    // the defaults fail closed so a baseline store answers `Error` to
    // replication opcodes instead of pretending to stream a log. The
    // byte payloads are the core codecs' (`ReplHello` / `ReplBatch`)
    // encodings — the serving layer relays them opaquely.

    /// Registers a replication subscriber. Returns the encoded
    /// [`crate::ReplHello`] (log keys + start position) to relay over the
    /// attested channel.
    fn repl_subscribe(&self) -> OpResult<Vec<u8>> {
        Err(OpError::Failed)
    }
    /// Ships the next sealed log batch after `(generation, after_seq)`,
    /// bounded by `max_bytes`. Returns the encoded [`crate::ReplBatch`];
    /// `Err(OpError::Failed)` when the subscriber's position is invalid
    /// or there is nothing to ship yet.
    fn repl_batch(&self, _generation: u64, _after_seq: u64, _max_bytes: u32) -> OpResult<Vec<u8>> {
        Err(OpError::Failed)
    }
    /// Records `subscriber`'s verified-and-applied watermark. Fails
    /// closed when the ack runs ahead of the primary's durable position.
    fn repl_ack(&self, _subscriber: u64, _generation: u64, _seq: u64) -> OpResult<()> {
        Err(OpError::Failed)
    }
    /// Promotes a read-only replica backend to primary, returning the
    /// promoted `(generation, seq)` watermark. Non-replica stores fail
    /// closed.
    fn promote(&self) -> OpResult<(u64, u64)> {
        Err(OpError::Failed)
    }
}

/// Maps a clean miss to [`Reply::NotFound`], leaving every other
/// outcome as it is.
fn found(result: crate::Result<Reply>) -> crate::Result<Reply> {
    match result {
        Err(Error::KeyNotFound) => Ok(Reply::NotFound),
        other => other,
    }
}

impl KvBackend for ShieldStore {
    fn name(&self) -> &str {
        "ShieldStore"
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        match ShieldStore::get(self, key) {
            Ok(v) => Some(v),
            Err(Error::KeyNotFound) => None,
            Err(e) => panic!("integrity failure in benchmark: {e}"),
        }
    }

    fn set(&self, key: &[u8], value: &[u8]) -> bool {
        ShieldStore::set(self, key, value).is_ok()
    }

    fn delete(&self, key: &[u8]) -> bool {
        ShieldStore::delete(self, key).is_ok()
    }

    fn append(&self, key: &[u8], suffix: &[u8]) -> bool {
        ShieldStore::append(self, key, suffix).is_ok()
    }

    fn increment(&self, key: &[u8], delta: i64) -> Option<i64> {
        ShieldStore::increment(self, key, delta).ok()
    }

    fn len(&self) -> usize {
        ShieldStore::len(self)
    }

    fn execute(&self, tenant: u32, op: Op<'_>) -> OpResult<Reply> {
        let result = match op {
            Op::Get { key } => found(self.get_t(tenant, key).map(Reply::Value)),
            Op::Set { key, value, ttl_ns } => {
                let expires_at = if ttl_ns == 0 { 0 } else { crate::ttl::deadline_after(ttl_ns) };
                self.set_with_expiry(tenant, key, value, expires_at).map(|()| Reply::Done)
            }
            Op::Delete { key } => found(self.delete_t(tenant, key).map(|()| Reply::Done)),
            Op::Append { key, suffix } => self.append_t(tenant, key, suffix).map(|_| Reply::Done),
            Op::Increment { key, delta } => {
                self.increment_t(tenant, key, delta).map(Reply::Counter)
            }
            // The whole batch is one call so the store can group it by
            // shard and fail it closed as a unit.
            Op::MultiGet { keys } => self.multi_get_t(tenant, &keys).map(Reply::Values),
            Op::MultiSet { items } => self.multi_set_t(tenant, &items, 0).map(|()| Reply::Done),
            Op::ScanPrefix { prefix, limit } => {
                self.scan_prefix_t(tenant, prefix, limit).map(Reply::Entries)
            }
        };
        result.map_err(OpError::from)
    }

    fn shard_hint(&self, key: &[u8]) -> Option<usize> {
        Some(self.shard_of(key))
    }

    fn tenant_weight(&self, tenant: u32) -> u32 {
        self.tenants().weight(tenant)
    }

    fn reset_timing(&self) {
        self.enclave().reset_timing();
    }

    fn stats_snapshot(&self) -> Option<StatsSnapshot> {
        Some(self.snapshot())
    }

    fn flush(&self) -> bool {
        self.flush_wal().is_ok()
    }

    fn flush_durable(&self) -> OpResult<Option<(u64, u64)>> {
        let watermark = self.flush_wal()?;
        Ok(watermark.map(|wm| (wm.generation, wm.seq)))
    }

    fn repl_subscribe(&self) -> OpResult<Vec<u8>> {
        Ok(ShieldStore::repl_subscribe(self)?.encode())
    }

    fn repl_batch(&self, generation: u64, after_seq: u64, max_bytes: u32) -> OpResult<Vec<u8>> {
        Ok(ShieldStore::repl_batch(self, generation, after_seq, max_bytes as usize)?.encode())
    }

    fn repl_ack(&self, subscriber: u64, generation: u64, seq: u64) -> OpResult<()> {
        Ok(ShieldStore::repl_ack(self, subscriber, Watermark::new(generation, seq))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use sgx_sim::enclave::EnclaveBuilder;

    fn store() -> ShieldStore {
        let enclave = EnclaveBuilder::new("backend-test").epc_bytes(4 << 20).build();
        ShieldStore::new(enclave, Config::shield_opt().buckets(64).mac_hashes(16)).unwrap()
    }

    #[test]
    fn shieldstore_satisfies_backend() {
        let store = store();
        let backend: &dyn KvBackend = &store;
        assert!(backend.set(b"k", b"v"));
        assert_eq!(backend.get(b"k").unwrap(), b"v");
        assert!(backend.append(b"k", b"2"));
        assert_eq!(backend.get(b"k").unwrap(), b"v2");
        assert!(backend.delete(b"k"));
        assert!(!backend.delete(b"k"));
        assert!(backend.is_empty());
        assert_eq!(backend.name(), "ShieldStore");
    }

    #[test]
    fn execute_answers_every_op() {
        let store = store();
        let backend: &dyn KvBackend = &store;
        let run = |op| backend.execute(3, op);
        assert_eq!(run(Op::Get { key: b"k" }), Ok(Reply::NotFound));
        assert_eq!(run(Op::Set { key: b"k", value: b"v", ttl_ns: 0 }), Ok(Reply::Done));
        assert_eq!(run(Op::Append { key: b"k", suffix: b"w" }), Ok(Reply::Done));
        assert_eq!(run(Op::Get { key: b"k" }), Ok(Reply::Value(b"vw".to_vec())));
        assert_eq!(run(Op::Increment { key: b"n", delta: 5 }), Ok(Reply::Counter(5)));
        assert_eq!(run(Op::Increment { key: b"k", delta: 1 }), Err(OpError::Failed));
        assert_eq!(run(Op::MultiSet { items: vec![(b"a", b"1"), (b"b", b"2")] }), Ok(Reply::Done));
        assert_eq!(
            run(Op::MultiGet { keys: vec![b"a", b"x", b"b"] }),
            Ok(Reply::Values(vec![Some(b"1".to_vec()), None, Some(b"2".to_vec())]))
        );
        assert_eq!(run(Op::Delete { key: b"a" }), Ok(Reply::Done));
        assert_eq!(run(Op::Delete { key: b"a" }), Ok(Reply::NotFound));
        // No ordered index on this store: scans fail closed.
        assert_eq!(run(Op::ScanPrefix { prefix: b"", limit: 10 }), Err(OpError::Failed));
        // Everything above ran in tenant 3's namespace.
        assert_eq!(backend.execute(0, Op::Get { key: b"k" }), Ok(Reply::NotFound));
    }

    #[test]
    fn op_classification() {
        let writes = [
            Op::Set { key: b"k", value: b"v", ttl_ns: 1 },
            Op::Delete { key: b"k" },
            Op::Append { key: b"k", suffix: b"s" },
            Op::Increment { key: b"k", delta: 1 },
            Op::MultiSet { items: vec![] },
        ];
        let reads = [
            Op::Get { key: b"k" },
            Op::MultiGet { keys: vec![] },
            Op::ScanPrefix { prefix: b"k", limit: 1 },
        ];
        assert!(writes.iter().all(Op::is_write));
        assert!(!reads.iter().any(Op::is_write));
        assert_eq!(writes[3].key(), Some(&b"k"[..]));
        assert_eq!(reads[1].key(), None);
    }
}
