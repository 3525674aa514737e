//! Attested replicas: sealed-log streaming, read scale-out, and
//! verifiable failover.
//!
//! A replica is a full [`shieldstore::ShieldStore`] (own enclave, own
//! keys for its table) that **subscribes** to a primary's sealed WAL
//! over the attested session layer and replays every record through the
//! same verification path recovery uses: per-record AES-CMAC chained on
//! the previous record's tag, rotation authenticators recomputed from
//! the replica's *own* chain position. A tampered, truncated, reordered,
//! or stale-generation stream fails closed without desyncing the chain
//! (see `DESIGN.md` § "Replication").
//!
//! The pieces here wire that core machinery to the network:
//!
//! * [`ReplicaBackend`] — a [`KvBackend`] that serves reads from the
//!   replica store and answers every mutation [`OpError::ReadOnly`]
//!   until promotion flips it to a primary.
//! * [`ReplicaNode`] — a running replica: a [`Server`] for clients plus
//!   a puller thread driving subscribe → poll → verify+apply → ack.
//! * [`ReplicaHandle`] — test/operator visibility into the replica's
//!   applied watermark and promotion state.
//!
//! Failover: a client sends [`OpCode::Promote`](crate::OpCode::Promote)
//! to the replica server. Promotion verifies the primary's frozen
//! on-disk log, claims the sealed pin under the replica's **own**
//! monotonic counter, and fences the old primary: if the stale primary
//! resurrects, its next commit sees the counter moved and fails closed
//! with a rollback error. Only then do writes open here.

use crate::client::KvClient;
use crate::server::{Server, ServerConfig};
use crate::{NetError, Result};
use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::Enclave;
use shieldstore::{KvBackend, Op, OpError, OpResult, Replica, Reply, ShieldStore, Watermark};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of a [`ReplicaNode`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// How long the puller sleeps when the primary has nothing new (or
    /// is unreachable) before polling again.
    pub poll_interval: Duration,
    /// Byte budget per segment poll (the primary may return more for a
    /// single oversized record).
    pub max_batch_bytes: u32,
    /// The primary's WAL directory. Promotion verifies and copies the
    /// frozen log from here; replica and primary share a failure domain
    /// for storage (shared disk / replicated volume), the classic
    /// log-shipping deployment.
    pub primary_wal_dir: PathBuf,
    /// Where the promoted replica materializes its own WAL.
    pub wal_dir: PathBuf,
    /// When set, the replica journals every verified frame here (a
    /// repair cache, not a durability root) and serves
    /// [`OpCode::ReplSegment`](crate::OpCode::ReplSegment) requests out
    /// of it pre-promotion, so a primary whose scrubber found a rotted
    /// segment can re-fetch the generation's frames from this node.
    /// Must differ from `wal_dir`.
    pub journal_dir: Option<PathBuf>,
    /// Handshake seed for the puller's session to the primary.
    pub session_seed: u64,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(5),
            max_batch_bytes: 1 << 20,
            primary_wal_dir: PathBuf::new(),
            wal_dir: PathBuf::new(),
            journal_dir: None,
            session_seed: 0x5e_b1_1c_a5,
        }
    }
}

/// State shared between the puller thread, the serving backend, and
/// handles.
struct ReplShared {
    /// The streaming replica; `None` once promotion consumed it.
    replica: Mutex<Option<Replica>>,
    /// Set by promotion: writes are open, the puller exits.
    promoted: AtomicBool,
    /// Set by shutdown: the puller exits.
    stop: AtomicBool,
    /// Applied watermark (updated by the puller after each batch).
    acked_generation: AtomicU64,
    acked_seq: AtomicU64,
    /// The primary's durable watermark as of the last applied batch.
    durable_generation: AtomicU64,
    durable_seq: AtomicU64,
}

impl ReplShared {
    fn watermark(&self) -> Watermark {
        Watermark::new(
            self.acked_generation.load(Ordering::Acquire),
            self.acked_seq.load(Ordering::Acquire),
        )
    }

    fn primary_durable(&self) -> Watermark {
        Watermark::new(
            self.durable_generation.load(Ordering::Acquire),
            self.durable_seq.load(Ordering::Acquire),
        )
    }

    fn record(&self, applied: Watermark, durable: Watermark) {
        self.acked_generation.store(applied.generation, Ordering::Release);
        self.acked_seq.store(applied.seq, Ordering::Release);
        self.durable_generation.store(durable.generation, Ordering::Release);
        self.durable_seq.store(durable.seq, Ordering::Release);
    }
}

/// A [`KvBackend`] over a replica store: reads serve locally, mutations
/// answer [`OpError::ReadOnly`] until [`promote`](KvBackend::promote)
/// flips the node to primary.
pub struct ReplicaBackend {
    store: Arc<ShieldStore>,
    shared: Arc<ReplShared>,
    primary_wal_dir: PathBuf,
    wal_dir: PathBuf,
}

impl ReplicaBackend {
    fn writable(&self) -> OpResult<()> {
        if self.shared.promoted.load(Ordering::Acquire) {
            Ok(())
        } else {
            Err(OpError::ReadOnly)
        }
    }
}

impl KvBackend for ReplicaBackend {
    fn name(&self) -> &str {
        "ShieldStore-replica"
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        KvBackend::get(&*self.store, key)
    }

    fn set(&self, key: &[u8], value: &[u8]) -> bool {
        self.writable().is_ok() && KvBackend::set(&*self.store, key, value)
    }

    fn delete(&self, key: &[u8]) -> bool {
        self.writable().is_ok() && KvBackend::delete(&*self.store, key)
    }

    fn len(&self) -> usize {
        KvBackend::len(&*self.store)
    }

    fn shard_hint(&self, key: &[u8]) -> Option<usize> {
        self.store.shard_hint(key)
    }

    fn reset_timing(&self) {
        self.store.reset_timing();
    }

    fn stats_snapshot(&self) -> Option<shieldstore::StatsSnapshot> {
        let mut snap = self.store.stats_snapshot()?;
        if !self.shared.promoted.load(Ordering::Acquire) {
            // Overlay the replica role and stream position: the store's
            // own gauges only know primary-side state.
            snap.repl_role = 2;
            let applied = self.shared.watermark();
            let durable = self.shared.primary_durable();
            snap.repl_acked_generation = applied.generation;
            snap.repl_acked_seq = applied.seq;
            snap.repl_lag_records = if durable.generation == applied.generation {
                durable.seq.saturating_sub(applied.seq)
            } else {
                0
            };
        }
        Some(snap)
    }

    fn flush(&self) -> bool {
        KvBackend::flush(&*self.store)
    }

    fn flush_durable(&self) -> OpResult<Option<(u64, u64)>> {
        self.store.flush_durable()
    }

    // Replication-primary opcodes delegate to the store: before
    // promotion it has no WAL and they fail closed; after promotion the
    // node serves downstream subscribers like any primary.
    fn repl_subscribe(&self) -> OpResult<Vec<u8>> {
        KvBackend::repl_subscribe(&*self.store)
    }

    fn repl_batch(&self, generation: u64, after_seq: u64, max_bytes: u32) -> OpResult<Vec<u8>> {
        if !self.shared.promoted.load(Ordering::Acquire) {
            // Pre-promotion the store has no WAL to ship from, but the
            // verified-frame journal (when enabled) can serve segment
            // repairs back to a primary whose disk rotted — the donor
            // side of scrub-and-repair.
            let guard = self.shared.replica.lock().expect("replica lock");
            return match guard.as_ref() {
                Some(replica) => replica
                    .serve_frames(generation, after_seq, max_bytes as usize)
                    .map(|b| b.encode())
                    .map_err(|_| OpError::Failed),
                None => Err(OpError::Failed),
            };
        }
        KvBackend::repl_batch(&*self.store, generation, after_seq, max_bytes)
    }

    fn repl_ack(&self, subscriber: u64, generation: u64, seq: u64) -> OpResult<()> {
        KvBackend::repl_ack(&*self.store, subscriber, generation, seq)
    }

    fn promote(&self) -> OpResult<(u64, u64)> {
        // Take the streaming state; a second Promote (or one racing the
        // first) finds nothing to promote and fails closed.
        let replica = {
            let mut guard = self.shared.replica.lock().expect("replica lock");
            guard.take().ok_or(OpError::Failed)?
        };
        match replica.promote(&self.primary_wal_dir, &self.wal_dir) {
            Ok(wm) => {
                // Order matters: open writes only after the WAL is
                // adopted and the old primary fenced.
                self.shared.promoted.store(true, Ordering::Release);
                Ok((wm.generation, wm.seq))
            }
            // The replica state is consumed either way: a failed
            // promotion (pin mismatch, counter moved — someone else owns
            // the log) must not resume streaming as if nothing happened.
            Err(_) => Err(OpError::Failed),
        }
    }

    fn execute(&self, tenant: u32, op: Op<'_>) -> OpResult<Reply> {
        // One gate for every mutation, so no write op can slip past it.
        if op.is_write() {
            self.writable()?;
        }
        self.store.execute(tenant, op)
    }

    fn tenant_weight(&self, tenant: u32) -> u32 {
        self.store.tenant_weight(tenant)
    }
}

/// Observer handle onto a running (or promoted) replica.
#[derive(Clone)]
pub struct ReplicaHandle {
    shared: Arc<ReplShared>,
}

impl ReplicaHandle {
    /// The replica's verified-and-applied `(generation, seq)` position.
    pub fn watermark(&self) -> Watermark {
        self.shared.watermark()
    }

    /// The primary's durable watermark as of the last applied batch.
    pub fn primary_durable(&self) -> Watermark {
        self.shared.primary_durable()
    }

    /// True once promotion opened writes on this node.
    pub fn promoted(&self) -> bool {
        self.shared.promoted.load(Ordering::Acquire)
    }

    /// True when the replica has applied everything the primary reported
    /// durable.
    pub fn caught_up(&self) -> bool {
        self.shared.watermark() >= self.shared.primary_durable()
    }
}

/// A running replica node: a read-only server plus the puller thread
/// streaming the primary's sealed log.
pub struct ReplicaNode {
    server: Server,
    shared: Arc<ReplShared>,
    subscriber: u64,
    puller: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ReplicaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaNode")
            .field("addr", &self.server.addr())
            .field("subscriber", &self.subscriber)
            .finish()
    }
}

impl ReplicaNode {
    /// Subscribes to the primary at `primary_addr` (attested via
    /// `verifier`), seeds a fresh replica onto `store`, starts a server
    /// for client reads, and begins streaming.
    ///
    /// `store` must be empty, WAL-less, and built with the **same
    /// durability configuration as the primary** — at promotion it
    /// adopts the primary's log under its own policy. `enclave` is the
    /// replica's serving identity (the enclave `store` runs in).
    pub fn start(
        primary_addr: SocketAddr,
        verifier: &AttestationVerifier,
        store: Arc<ShieldStore>,
        enclave: Arc<Enclave>,
        server_config: ServerConfig,
        config: ReplicaConfig,
    ) -> Result<ReplicaNode> {
        let mut primary = KvClient::connect_secure(primary_addr, verifier, config.session_seed)?;
        let hello = primary.repl_subscribe()?;
        let subscriber = hello.subscriber;
        let replica = match &config.journal_dir {
            Some(dir) => Replica::with_journal(Arc::clone(&store), &hello, dir),
            None => Replica::new(Arc::clone(&store), &hello),
        }
        .map_err(|e| NetError::Protocol(format!("replica bootstrap failed: {e}")))?;
        let start = replica.watermark();
        let shared = Arc::new(ReplShared {
            replica: Mutex::new(Some(replica)),
            promoted: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            acked_generation: AtomicU64::new(start.generation),
            acked_seq: AtomicU64::new(start.seq),
            durable_generation: AtomicU64::new(hello.durable.generation),
            durable_seq: AtomicU64::new(hello.durable.seq),
        });
        let backend = Arc::new(ReplicaBackend {
            store,
            shared: Arc::clone(&shared),
            primary_wal_dir: config.primary_wal_dir.clone(),
            wal_dir: config.wal_dir.clone(),
        });
        let server = Server::start(backend, Some(enclave), server_config)?;
        let puller = {
            let shared = Arc::clone(&shared);
            let verifier = verifier.clone();
            std::thread::Builder::new()
                .name("repl-puller".into())
                .spawn(move || {
                    pull_loop(primary, primary_addr, verifier, shared, subscriber, config)
                })
                .expect("spawn repl puller")
        };
        Ok(ReplicaNode { server, shared, subscriber, puller: Some(puller) })
    }

    /// The replica server's client-facing address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The subscriber id the primary knows this replica by.
    pub fn subscriber(&self) -> u64 {
        self.subscriber
    }

    /// An observer handle (cheap to clone, survives shutdown).
    pub fn handle(&self) -> ReplicaHandle {
        ReplicaHandle { shared: Arc::clone(&self.shared) }
    }

    /// Stops the puller and shuts the server down gracefully.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.puller.take() {
            let _ = h.join();
        }
        // Taking the server out of the struct is impossible in drop;
        // Server's own Drop performs the graceful shutdown.
    }
}

impl Drop for ReplicaNode {
    fn drop(&mut self) {
        if self.puller.is_some() {
            self.stop();
        }
    }
}

/// The puller: poll the primary for the next sealed batch, verify and
/// apply it through the recovery path, ack the new watermark. Exits on
/// shutdown or promotion. Primary unreachability is retried forever —
/// that is precisely the window where an operator promotes.
fn pull_loop(
    mut primary: KvClient,
    primary_addr: SocketAddr,
    verifier: AttestationVerifier,
    shared: Arc<ReplShared>,
    subscriber: u64,
    config: ReplicaConfig,
) {
    let mut reconnect_seed = config.session_seed;
    loop {
        if shared.stop.load(Ordering::SeqCst) || shared.promoted.load(Ordering::Acquire) {
            return;
        }
        let at = shared.watermark();
        let batch = match primary.repl_segment(at.generation, at.seq, config.max_batch_bytes) {
            Ok(b) => b,
            Err(NetError::Io(_)) | Err(NetError::Security(_)) => {
                // Transport gone (primary dead or session poisoned):
                // reconnect and retry until stopped or promoted.
                std::thread::sleep(config.poll_interval);
                reconnect_seed = reconnect_seed.wrapping_add(1);
                if let Ok(c) = KvClient::connect_secure(primary_addr, &verifier, reconnect_seed) {
                    primary = c;
                }
                continue;
            }
            Err(_) => {
                // Caught up (nothing to ship) or shed: idle and re-poll.
                std::thread::sleep(config.poll_interval);
                continue;
            }
        };
        let applied = {
            let mut guard = shared.replica.lock().expect("replica lock");
            let Some(replica) = guard.as_mut() else { return };
            match replica.apply_batch(&batch) {
                Ok(wm) => wm,
                Err(_) => {
                    // A batch that fails verification is dropped whole;
                    // the chain position did not move, so the next poll
                    // re-requests from the same watermark. A byzantine
                    // primary can stall us, never desync us.
                    std::thread::sleep(config.poll_interval);
                    continue;
                }
            }
        };
        shared.record(applied, batch.durable);
        // Ack failures are harmless (the watermark is re-sent on the
        // next round); ack transport failures fall to the reconnect arm
        // of the next poll.
        let _ = primary.repl_ack(subscriber, applied.generation, applied.seq);
    }
}

/// Repairs a rotted WAL generation on `store` from a peer: fetches
/// generation `gen`'s raw frames over `client` (an attested session to
/// a journaling replica — or to another primary holding the segment),
/// batch by batch, then hands the whole set to
/// [`ShieldStore::repair_wal_segment`], which re-verifies the full CMAC
/// chain from the generation's genesis tag to the pinned `(seq, MAC)`
/// before atomically swapping the bytes in. Frames from a lying or
/// stale peer therefore fail closed without touching the damaged file.
/// Returns the number of frames fetched.
pub fn repair_segment_from_peer(
    client: &mut KvClient,
    store: &ShieldStore,
    gen: u64,
    max_batch_bytes: u32,
) -> Result<u64> {
    let mut frames = Vec::new();
    let mut after_seq = 0u64;
    loop {
        let batch = client.repl_segment(gen, after_seq, max_batch_bytes)?;
        if batch.count == 0 {
            break;
        }
        if batch.generation != gen || batch.start_seq != after_seq + 1 {
            return Err(NetError::Protocol("peer served frames out of position".into()));
        }
        frames.extend_from_slice(&batch.frames);
        after_seq += u64::from(batch.count);
    }
    store
        .repair_wal_segment(gen, &frames)
        .map_err(|e| NetError::Protocol(format!("segment repair refused: {e}")))?;
    Ok(after_seq)
}
