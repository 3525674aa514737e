//! Deterministic adversary harness for ShieldStore.
//!
//! Everything here is a pure function of a 64-bit seed: the operation
//! stream, the attack schedule, the snapshot corruptions, and the wire
//! faults. A failing seed therefore reproduces the failure exactly —
//! `cargo run -p adversary -- --seed <s>` — with no flakiness to chase.
//!
//! Three phases run per seed, each differentially checked against the
//! plain-`HashMap` shadow model in [`model`]:
//!
//! * [`engine`] — store-layer attacks on untrusted memory (entry field
//!   flips, chain unlink/splice, MAC side-array corruption, allocator
//!   faults, stale-entry rollback) interleaved with random operations.
//! * [`snapshot`] — persistence-layer attacks on the snapshot file
//!   (truncation, bit flips, zero-length, stale-file replay).
//! * [`wire`] — network-layer attacks via a byte-level fault proxy
//!   ([`proxy`]: garbled, truncated, duplicated, and dropped frames), plus an
//!   overload-and-tamper phase ([`wire::run_overload_phase`], run on its
//!   own seed budget) that saturates a small-capacity server past its
//!   connection cap while one partition is corrupted, checking graceful
//!   degradation: correct, `Busy`, or `Quarantined` — never wrong.
//! * [`walphase`] — write-ahead-log attacks (torn tails, bit flips,
//!   record splices, stale pin+log replays, pre-snapshot logs after
//!   rotation) plus kill-point crash/recover cycles checked against the
//!   shadow model within the policy's loss window.
//! * [`tenantphase`] — cross-tenant attacks (cross-namespace reads with
//!   leaked derived keys, re-MAC forgery, quota exhaustion, TTL
//!   resurrection), proving the multi-tenant isolation boundary.
//! * [`replphase`] — replication attacks (split brain after failover,
//!   stale and foreign-key promotions against a live primary, batch
//!   truncation/corruption in flight), proving fencing and the sealed
//!   stream's fail-closed chain.
//! * [`storagephase`] — storage-fault attacks (commit-path I/O errors
//!   that must poison the writer fail-closed, power cuts that must
//!   preserve exactly the acked prefix, sealed-segment and pin rot that
//!   the scrubber must detect, and forged repair payloads that the
//!   chain check must refuse while genuine ones restore service).
//!
//! The invariant checked after every step is the *trichotomy*: the
//! result matches the model, or the operation failed with an integrity
//! violation (detection, failing closed), and never anything else.

pub mod engine;
pub mod model;
pub mod proxy;
pub mod replphase;
pub mod snapshot;
pub mod storagephase;
pub mod tenantphase;
pub mod walphase;
pub mod wire;

/// Combined accounting for one seed's full run.
#[derive(Debug, Default, Clone)]
pub struct SeedReport {
    pub store: engine::StoreReport,
    pub snapshot: snapshot::SnapshotReport,
    pub wal: walphase::WalReport,
    pub wire: wire::WireReport,
    pub tenant: tenantphase::TenantReport,
    pub repl: replphase::ReplReport,
    pub storage: storagephase::StorageReport,
}

/// Runs every phase for one seed. `store_steps` sizes the chaotic
/// store phase; the other phases have fixed shapes.
pub fn run_seed(seed: u64, store_steps: u64) -> Result<SeedReport, model::Violation> {
    let store = engine::run_store_phase(seed, store_steps)?;
    let snapshot = snapshot::run_snapshot_phase(seed)?;
    let wal = walphase::run_wal_phase(seed)?;
    let wire = wire::run_wire_phase(seed)?;
    let tenant = tenantphase::run_tenant_phase(seed)?;
    let repl = replphase::run_repl_phase(seed)?;
    let storage = storagephase::run_storage_phase(seed)?;
    Ok(SeedReport { store, snapshot, wal, wire, tenant, repl, storage })
}
