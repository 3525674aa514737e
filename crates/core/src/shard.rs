//! A shard: one hash-partitioned slice of the store, owned by one worker.
//!
//! ShieldStore avoids cross-thread synchronization by giving each worker
//! thread an exclusive partition of the hash key space (paper §5.3,
//! Fig. 8). A [`Shard`] is that partition: its own hash table, untrusted
//! heap, MAC chains, and in-enclave MAC hash array. All operations take
//! `&mut self` — exclusive ownership is the concurrency model.
//!
//! During a snapshot the shard's main table is frozen behind an `Arc`
//! (read-only, shared with the snapshot writer thread) and writes are
//! absorbed by a temporary table, reproducing Algorithm 1's fork-based
//! copy-on-write behaviour without `fork()`.
//!
//! ## Tenancy
//!
//! Every operation runs in a tenant namespace ([`crate::tenant`]). The
//! untenanted methods are sugar for tenant 0. Entries carry their owner
//! tenant in the (MAC-covered) header and are sealed under the owner's
//! *derived* keys, so a leaked tenant key opens exactly one namespace and
//! a re-stitched tenant field fails verification. Flat byte-keyed side
//! structures — the plaintext cache, the ordered index, snapshot
//! tombstones — are keyed by [`nskey`] (tenant-prefixed) for *every*
//! tenant including 0, so no namespace can collide into another.

use crate::alloc::{Handle, UntrustedHeap, NULL_HANDLE};
use crate::cache::EnclaveCache;
use crate::config::{AllocMode, Config};
use crate::entry::{self, EntryHeader};
use crate::error::{Error, Result};
use crate::hist::{OpHists, OpTimer};
use crate::integrity::{self, MacStore};
use crate::mac_bucket;
use crate::ordered::OrderedIndex;
use crate::stats::{OpStats, StatsSnapshot};
use crate::table::TableCtx;
use crate::tenant::DEFAULT_TENANT;
use crate::tenant::{
    nskey, split_nskey, TallyCells, TenantId, TenantKeys, TenantRegistry, TenantSlot, TenantTally,
};
use crate::ttl;
use parking_lot::Mutex;
use sgx_sim::enclave::Enclave;
use shield_crypto::cmac::Cmac;
use shield_crypto::siphash::SipHash24;
use shield_crypto::Tag128;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// The store's secret keys. Generated inside the enclave at store creation
/// and never exposed in plaintext outside it (they are sealed into
/// snapshot metadata).
///
/// Entry data keys are *per tenant*, derived on demand from the KDF
/// master (`raw[4]`) and memoized in an in-enclave keyring; each shard
/// copies a tenant's keys into its own [`TenantSlot`] once. The master
/// CMAC key keys the bucket-set hashes only — it is never involved in
/// entry sealing, so no tenant-key compromise can forge set hashes.
pub(crate) struct StoreKeys {
    /// CMAC for bucket-set hashes (master; never derivable by tenants).
    pub mac: Cmac,
    /// Keyed hash for bucket indexing (hides key distribution, §4.2).
    pub index: SipHash24,
    /// Keyed hash for the 1-byte key hint (§5.4).
    pub hint: SipHash24,
    /// Raw key material, kept for sealing. `raw[0]` is the legacy entry
    /// encryption key slot (still sealed for format stability), `raw[4]`
    /// the tenant-KDF master.
    pub raw: [[u8; 16]; 5],
    /// Memoized per-tenant derived keys (enclave-resident).
    tenants: Mutex<HashMap<TenantId, Arc<TenantKeys>>>,
    /// Acquisitions of the keyring lock.
    keyring_locks: AtomicU64,
}

impl StoreKeys {
    /// Generates fresh keys from enclave randomness.
    pub fn generate(enclave: &Enclave) -> Self {
        let mut raw = [[0u8; 16]; 5];
        for key in raw.iter_mut() {
            enclave.read_rand(key);
        }
        Self::from_raw(raw)
    }

    /// Reconstructs keys from raw material (snapshot restore).
    pub fn from_raw(raw: [[u8; 16]; 5]) -> Self {
        Self {
            mac: Cmac::new(&raw[1]),
            index: SipHash24::new(&raw[2]),
            hint: SipHash24::new(&raw[3]),
            raw,
            tenants: Mutex::new(HashMap::new()),
            keyring_locks: AtomicU64::new(0),
        }
    }

    /// The derived data keys for `tenant`, deriving and memoizing on
    /// first use. Derivation is deterministic, so the keyring is a pure
    /// cache — it never needs sealing.
    pub fn tenant_keys(&self, tenant: TenantId) -> Arc<TenantKeys> {
        let mut map = self.tenants.lock();
        self.keyring_locks.fetch_add(1, AtomicOrdering::Relaxed);
        Arc::clone(
            map.entry(tenant).or_insert_with(|| Arc::new(TenantKeys::derive(&self.raw[4], tenant))),
        )
    }

    /// How many times the keyring lock has been taken. Shards take it
    /// only when they first serve a tenant.
    pub fn keyring_lock_acquisitions(&self) -> u64 {
        self.keyring_locks.load(AtomicOrdering::Relaxed)
    }

    /// The 64-bit keyed index hash of `key`.
    #[inline]
    pub fn index_hash(&self, key: &[u8]) -> u64 {
        self.index.hash(key)
    }

    /// The 1-byte key hint of `key`.
    #[inline]
    pub fn hint_byte(&self, key: &[u8]) -> u8 {
        (self.hint.hash(key) & 0xff) as u8
    }
}

/// The per-operation tenant context threaded through the table-level
/// free functions: who is operating, under which derived keys, at what
/// TTL-clock reading, with what deadline for writes, against which
/// tenant slot's quota and tallies (`None` = unmetered, e.g. internal
/// merges).
pub(crate) struct OpCtx<'a> {
    pub tenant: TenantId,
    pub tkeys: &'a TenantKeys,
    pub now: u64,
    pub expires_at: u64,
    pub meter: Option<&'a TenantSlot>,
}

impl<'a> OpCtx<'a> {
    /// A client op on `slot`'s tenant: charged to its quota and tallies.
    fn metered(tenant: TenantId, slot: &'a TenantSlot, expires_at: u64) -> Self {
        Self { tenant, tkeys: &slot.keys, now: ttl::now_ns(), expires_at, meter: Some(slot) }
    }

    /// An internal op under `slot`'s keys that charges nothing.
    fn unmetered(tenant: TenantId, slot: &'a TenantSlot) -> Self {
        Self { tenant, tkeys: &slot.keys, now: ttl::now_ns(), expires_at: 0, meter: None }
    }

    /// Adds `n` to the tally `cell` picks, when metered.
    #[inline]
    fn tally(&self, cell: impl FnOnce(&TallyCells) -> &AtomicU64, n: u64) {
        if let Some(slot) = self.meter {
            TallyCells::add(cell(&slot.tally), n);
        }
    }
}

/// Per-shard configuration derived from [`Config`].
#[derive(Debug, Clone)]
pub(crate) struct ShardConfig {
    pub buckets: usize,
    pub mac_hashes: usize,
    pub key_hint: bool,
    pub two_step: bool,
    pub mac_bucket: bool,
    pub mac_cap: usize,
    pub alloc: AllocMode,
    pub max_item_len: usize,
    pub ordered_index: bool,
    pub quarantine: bool,
}

impl ShardConfig {
    pub fn from_config(cfg: &Config) -> Self {
        Self {
            buckets: cfg.buckets_per_shard(),
            mac_hashes: cfg.mac_hashes_per_shard(),
            key_hint: cfg.key_hint,
            two_step: cfg.two_step_search,
            mac_bucket: cfg.mac_bucket,
            mac_cap: cfg.mac_bucket_capacity,
            alloc: cfg.alloc,
            max_item_len: cfg.max_item_len,
            ordered_index: cfg.ordered_index,
            quarantine: cfg.quarantine,
        }
    }
}

/// Which parts of a shard are quarantined after integrity violations.
///
/// The first violation quarantines the bucket set (§4.3 MAC-hash
/// granule) it was detected in; any further violation — evidence the
/// attack is not confined to one granule — or a violation raised while
/// a snapshot makes bucket attribution ambiguous escalates to the whole
/// shard. Quarantine never clears at runtime: recovery is a restore
/// from sealed snapshot + WAL, which rebuilds and re-verifies the
/// partition from scratch.
#[derive(Debug, Clone, Default)]
pub(crate) struct QuarantineState {
    /// Quarantined bucket-set indices (meaningful while `whole` is off).
    pub sets: std::collections::BTreeSet<usize>,
    /// The entire shard is quarantined.
    pub whole: bool,
    /// Integrity violations observed by this shard.
    pub violations: u64,
}

/// A located entry within a chain.
#[derive(Debug, Clone, Copy)]
struct Found {
    handle: Handle,
    prev: Handle,
    pos: usize,
    header: EntryHeader,
}

/// What a chain search discovered.
#[derive(Debug, Clone, Copy)]
enum SearchOutcome {
    /// The key was located.
    Found(Found),
    /// The full-scan fallback hit an entry whose MAC does not match its
    /// contents: untrusted memory was tampered with.
    Tampered,
}

/// The temporary table absorbing writes during a snapshot. Tombstones
/// are [`nskey`]s — deletes during a snapshot are per-namespace.
struct TempTable {
    ctx: TableCtx,
    tombstones: HashSet<Vec<u8>>,
}

/// Reusable scratch buffers threaded through the table operations so the
/// steady-state seal/unseal path performs no per-op heap allocation: the
/// buffers grow to the working-set item size once and are reused for
/// every subsequent operation. All three stage *plaintext or MAC* bytes
/// and live inside the enclave; nothing here is ever handed to untrusted
/// memory.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Entry staging: fused-open plaintext on reads, encode buffer on
    /// realloc/insert writes.
    entry: Vec<u8>,
    /// Candidate-key decryption during chain searches.
    key: Vec<u8>,
    /// The enclave copy of the last verified bucket set's MACs.
    view: SetView,
}

/// The enclave copy of one bucket set's MACs, taken by [`verify_set`]
/// while it checks them against the stored set hash. Everything that
/// follows within the operation — the side-array liveness and absence
/// checks, the edits a write makes, and the new set hash — reads this
/// copy and never re-reads MACs from untrusted memory. An attacker who
/// rewrites untrusted memory after the verify (say, swapping a stale
/// entry and its old side-array MAC back in) therefore cannot get the
/// change endorsed by the next stored hash.
#[derive(Default)]
pub(crate) struct SetView {
    /// The verified set; `None` until a verification succeeds.
    set: Option<usize>,
    /// The set's first bucket.
    first: usize,
    /// The set's MACs, bucket after bucket, each bucket in chain order.
    macs: Vec<u8>,
    /// MAC index at which each bucket of the set starts, then the total.
    starts: Vec<usize>,
}

impl SetView {
    /// Reads `set`'s MACs from the side arrays (MAC bucketing) or the
    /// entry chains. `false` when the untrusted structure cannot be
    /// walked (unreadable pointer, cycle, inflated or non-canonical
    /// count); the view then holds no set.
    fn load(&mut self, cfg: &ShardConfig, ctx: &TableCtx, set: usize) -> bool {
        self.set = None;
        self.macs.clear();
        self.starts.clear();
        let buckets = ctx.sets.buckets_of(set);
        self.first = buckets.start;
        self.starts.push(0);
        // No honest bucket holds more MACs than the whole table.
        let max_macs = ctx.count.saturating_add(1);
        for bucket in buckets {
            if cfg.mac_bucket {
                let head = ctx.mac_heads[bucket];
                if mac_bucket::try_gather(&ctx.heap, head, &mut self.macs, max_macs, cfg.mac_cap)
                    .is_none()
                {
                    return false;
                }
            } else {
                let mut steps = 0usize;
                let mut h = ctx.heads[bucket];
                while h != NULL_HANDLE {
                    steps += 1;
                    let Some(header) = ctx.try_header(h).filter(|_| steps <= max_macs) else {
                        return false;
                    };
                    self.macs.extend_from_slice(&header.mac);
                    h = header.next;
                }
            }
            self.starts.push(self.macs.len() / 16);
        }
        true
    }

    /// Number of MACs in the view.
    fn len(&self) -> usize {
        self.macs.len() / 16
    }

    /// The set hash of the view: one CMAC over every MAC, keyed by the
    /// master MAC key.
    fn hash(&self, keys: &StoreKeys) -> Tag128 {
        if self.macs.is_empty() {
            return EMPTY_SET_HASH;
        }
        let mut mac_ctx = keys.mac.ctx();
        mac_ctx.update(&self.macs);
        mac_ctx.finalize()
    }

    /// Byte range of `bucket`'s MACs within `macs`; `None` when no set
    /// is verified or `bucket` lies outside it.
    fn range(&self, bucket: usize) -> Option<std::ops::Range<usize>> {
        self.set?;
        let i = bucket.checked_sub(self.first)?;
        Some(self.starts.get(i)? * 16..self.starts.get(i + 1)? * 16)
    }

    /// `bucket`'s verified MACs, in chain order.
    fn bucket(&self, bucket: usize) -> Option<&[u8]> {
        self.range(bucket).map(|r| &self.macs[r])
    }

    /// The MAC at chain position `pos` of `bucket`.
    fn mac_at(&self, bucket: usize, pos: usize) -> Option<&[u8]> {
        self.bucket(bucket)?.get(pos * 16..(pos + 1) * 16)
    }

    // The edits below return the bucket's MAC count before the edit,
    // which sizes its current MAC-bucket nodes (`store_bucket_macs`).

    /// Adds `mac` at the head of `bucket`'s chain.
    fn insert_front(&mut self, bucket: usize, mac: &Tag128) -> Option<usize> {
        let range = self.range(bucket)?;
        self.macs.extend_from_slice(mac);
        self.macs[range.start..].rotate_right(16);
        let i = bucket - self.first;
        self.starts[i + 1..].iter_mut().for_each(|s| *s += 1);
        Some(range.len() / 16)
    }

    /// Overwrites the MAC at chain position `pos` of `bucket`.
    fn replace(&mut self, bucket: usize, pos: usize, mac: &Tag128) -> Option<usize> {
        let range = self.range(bucket)?;
        let at = range.start + pos * 16;
        if at + 16 > range.end {
            return None;
        }
        self.macs[at..at + 16].copy_from_slice(mac);
        Some(range.len() / 16)
    }

    /// Removes the MAC at chain position `pos` of `bucket`.
    fn remove(&mut self, bucket: usize, pos: usize) -> Option<usize> {
        let range = self.range(bucket)?;
        let at = range.start + pos * 16;
        if at + 16 > range.end {
            return None;
        }
        self.macs.drain(at..at + 16);
        let i = bucket - self.first;
        self.starts[i + 1..].iter_mut().for_each(|s| *s -= 1);
        Some(range.len() / 16)
    }
}

/// One hash partition of the store.
pub struct Shard {
    cfg: ShardConfig,
    keys: Arc<StoreKeys>,
    enclave: Arc<Enclave>,
    registry: Arc<TenantRegistry>,
    /// This shard's slot for every tenant it has served.
    tenants: HashMap<TenantId, Arc<TenantSlot>>,
    main: Option<TableCtx>,
    frozen: Option<Arc<TableCtx>>,
    temp: Option<TempTable>,
    cache: Option<EnclaveCache>,
    index: Option<OrderedIndex>,
    quarantine: QuarantineState,
    scratch: Scratch,
    pub(crate) stats: OpStats,
    pub(crate) hists: OpHists,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("buckets", &self.cfg.buckets)
            .field("len", &self.len())
            .field("snapshotting", &self.temp.is_some())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Table-level operations: free functions so main and temp tables share them.
// ---------------------------------------------------------------------------

fn bucket_of(keys: &StoreKeys, ctx: &TableCtx, key: &[u8]) -> usize {
    (keys.index_hash(key) % ctx.buckets() as u64) as usize
}

/// Searches `bucket` for `key` *within `op`'s tenant namespace*, counting
/// decryptions as the paper's Fig. 9 does. First pass honours the key
/// hint and silently steps over foreign tenants' entries; if nothing
/// matched and the two-step fallback is enabled, a full scan follows
/// (§5.4) in which **every** entry — whoever owns it — is verified under
/// its owner's derived MAC key, so content tampering (including a
/// rewritten tenant field) cannot masquerade as a clean miss.
#[allow(clippy::too_many_arguments)]
fn search(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    op: &OpCtx<'_>,
    ctx: &TableCtx,
    stats: &mut OpStats,
    scratch: &mut Scratch,
    bucket: usize,
    hint_byte: u8,
    key: &[u8],
) -> Option<SearchOutcome> {
    // Chains are untrusted: a corrupted `next` pointer can form a cycle
    // or escape the heap. No honest chain is longer than the whole table,
    // so walks past `count` steps (or into unreadable memory) report
    // tampering instead of panicking or spinning.
    let max_steps = ctx.count.saturating_add(1);

    // First step: hint-guided, same-tenant entries only.
    let mut prev = NULL_HANDLE;
    let mut pos = 0usize;
    let mut h = ctx.heads[bucket];
    while h != NULL_HANDLE {
        if pos >= max_steps {
            return Some(SearchOutcome::Tampered);
        }
        let Some(header) = ctx.try_header(h) else {
            return Some(SearchOutcome::Tampered);
        };
        if header.tenant != op.tenant {
            // Foreign namespace: skip without decrypting anything.
        } else if cfg.key_hint && header.hint != hint_byte {
            stats.hint_skips += 1;
        } else if header.key_len as usize == key.len() {
            stats.key_decryptions += 1;
            let Some(ct) = ctx.try_ciphertext(h, &header) else {
                // Corrupted length fields in untrusted memory.
                return Some(SearchOutcome::Tampered);
            };
            if entry::key_matches(&op.tkeys.enc, &header, ct, key, &mut scratch.key) {
                return Some(SearchOutcome::Found(Found { handle: h, prev, pos, header }));
            }
        }
        prev = h;
        pos += 1;
        h = header.next;
    }

    // Second step: full scan, defending against hint (and tenant-field)
    // corruption. Every entry's MAC is verified under its *owner's*
    // derived key: a corrupted ciphertext or a re-stitched tenant id
    // would make a key silently unfindable otherwise.
    if cfg.key_hint && cfg.two_step {
        stats.full_scans += 1;
        let mut prev = NULL_HANDLE;
        let mut pos = 0usize;
        let mut h = ctx.heads[bucket];
        while h != NULL_HANDLE {
            if pos >= max_steps {
                return Some(SearchOutcome::Tampered);
            }
            let Some(header) = ctx.try_header(h) else {
                return Some(SearchOutcome::Tampered);
            };
            let Some(ct) = ctx.try_ciphertext(h, &header) else {
                return Some(SearchOutcome::Tampered);
            };
            let verified = if header.tenant == op.tenant {
                entry::verify_mac(&op.tkeys.mac, &header, ct)
            } else {
                // Foreign entry: its owner's derived key decides. A forged
                // tenant id routes here and fails closed (the stored tag
                // cannot verify under the re-routed key).
                let owner = keys.tenant_keys(header.tenant);
                entry::verify_mac(&owner.mac, &header, ct)
            };
            if !verified {
                return Some(SearchOutcome::Tampered);
            }
            if header.tenant == op.tenant && header.key_len as usize == key.len() {
                stats.key_decryptions += 1;
                if entry::key_matches(&op.tkeys.enc, &header, ct, key, &mut scratch.key) {
                    return Some(SearchOutcome::Found(Found { handle: h, prev, pos, header }));
                }
            }
            prev = h;
            pos += 1;
            h = header.next;
        }
    }
    None
}

/// The stored hash for an empty bucket set.
const EMPTY_SET_HASH: [u8; 16] = [0u8; 16];

/// Verifies the bucket-set MAC hash for `set` against untrusted state,
/// keeping the verified MACs in `view` for the rest of the operation.
///
/// The MACs of every bucket in the set are gathered (via MAC buckets —
/// contiguous reads — or entry-chain pointer chasing) into the enclave
/// copy and hashed with one CMAC keyed by the *master* MAC key — entry
/// MACs are per-tenant, but the set hash binds them all under a key no
/// tenant (or tenant-key thief) holds. An untrusted structure that cannot
/// be walked (unreadable pointer, cycle, inflated count field) is an
/// integrity violation.
fn verify_set(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    ctx: &TableCtx,
    stats: &mut OpStats,
    view: &mut SetView,
    set: usize,
) -> Result<()> {
    stats.integrity_verifications += 1;
    let violation = Error::IntegrityViolation { bucket: ctx.sets.buckets_of(set).start };
    if !view.load(cfg, ctx, set) {
        return Err(violation);
    }
    stats.macs_gathered += view.len() as u64;
    if integrity::verify_set_hash(&ctx.macs.get(set), &view.hash(keys)) {
        view.set = Some(set);
        Ok(())
    } else {
        Err(violation)
    }
}

/// Miss-path consistency check for MAC bucketing. The set hash covers
/// the MAC side arrays, so an attacker who unlinks a *data entry*
/// (leaving the MAC bucket intact) would pass the set-hash check and
/// turn the key into a silent miss. A *found* key proves its own
/// membership (its MAC is verified against content and covered by the
/// set hash), so the chain walk is only paid when a search comes back
/// empty — keeping the very pointer-chasing MAC bucketing exists to
/// avoid off the hit path. The comparison is against the verified view.
fn verify_absence_consistency(
    cfg: &ShardConfig,
    ctx: &TableCtx,
    view: &SetView,
    bucket: usize,
) -> Result<()> {
    if !cfg.mac_bucket {
        return Ok(());
    }
    let Some(side) = view.bucket(bucket) else {
        return Err(Error::IntegrityViolation { bucket });
    };
    let max_macs = ctx.count.saturating_add(1);
    // Element-wise walk: every chained entry's header MAC must sit at its
    // chain position in the side array, and the two must have equal
    // length. This catches unlinking, splicing-in, reordering, and an
    // entry's bytes being overwritten with another (individually valid)
    // entry — all of which would otherwise read as a clean miss here.
    let mut pos = 0usize;
    let mut h = ctx.heads[bucket];
    while h != NULL_HANDLE {
        if pos >= max_macs {
            return Err(Error::IntegrityViolation { bucket });
        }
        let Some(header) = ctx.try_header(h) else {
            return Err(Error::IntegrityViolation { bucket });
        };
        if side.get(pos * 16..(pos + 1) * 16) != Some(header.mac.as_slice()) {
            return Err(Error::IntegrityViolation { bucket });
        }
        pos += 1;
        h = header.next;
    }
    if pos * 16 != side.len() {
        return Err(Error::IntegrityViolation { bucket });
    }
    Ok(())
}

/// Hit-path replay defense for MAC bucketing. With `mac_bucket` on, the
/// set hash covers the *side array*, not the entry bytes — so replaying
/// a stale copy of an in-place-updated entry (old ciphertext + its then-
/// valid MAC, written back over the same allocation) passes both the
/// entry's own MAC check and the set-hash check. The side array only
/// ever holds the MACs of the *current* entry versions: requiring the
/// found entry's header MAC to appear in the verified view pins every
/// hit to a live version. The fast path compares positionally; after a
/// structural attack elsewhere in the chain (an unlink shifting
/// positions) an innocent entry falls back to a membership scan and
/// keeps working — hits prove themselves. Without MAC bucketing the set
/// hash is derived from the entry chain itself, so a replayed MAC
/// already breaks it and no extra check is needed.
fn verify_side_mac_read(
    cfg: &ShardConfig,
    view: &SetView,
    stats: &mut OpStats,
    bucket: usize,
    found: &Found,
) -> Result<()> {
    if !cfg.mac_bucket {
        return Ok(());
    }
    if view.mac_at(bucket, found.pos) == Some(found.header.mac.as_slice()) {
        return Ok(());
    }
    // Positional mismatch: either an attack on this entry (replay) or a
    // structural attack elsewhere in the chain. Membership decides.
    stats.side_mac_fallbacks += 1;
    match view.bucket(bucket) {
        Some(side) if side.chunks_exact(16).any(|m| m == found.header.mac) => Ok(()),
        _ => Err(Error::IntegrityViolation { bucket }),
    }
}

/// Write-path variant of [`verify_side_mac_read`]: strictly positional,
/// with or without MAC bucketing. A write edits the verified view *by
/// chain position*, so a write through a desynchronized position would
/// endorse the wrong slot (and could launder a stale MAC back into the
/// endorsed set). A bucket whose chain and verified MACs have drifted
/// apart refuses all mutations.
fn verify_side_mac_write(view: &SetView, bucket: usize, found: &Found) -> Result<()> {
    if view.mac_at(bucket, found.pos) == Some(found.header.mac.as_slice()) {
        Ok(())
    } else {
        Err(Error::IntegrityViolation { bucket })
    }
}

/// Writes `bucket`'s MACs from the view back to its MAC-bucket nodes
/// after an edit of the view. `edited` is the edit's result: the
/// bucket's verified MAC count before the edit, which sizes the current
/// nodes, or `None` when the edit did not apply. Without MAC bucketing
/// the entry chain is the record and only the edit's result is checked.
fn store_bucket_macs(
    cfg: &ShardConfig,
    ctx: &mut TableCtx,
    view: &SetView,
    bucket: usize,
    edited: Option<usize>,
) -> Result<()> {
    let stored = edited.and_then(|old_count| {
        if !cfg.mac_bucket {
            return Some(());
        }
        let macs = view.bucket(bucket)?;
        mac_bucket::store(&mut ctx.heap, &mut ctx.mac_heads[bucket], old_count, macs, cfg.mac_cap)
    });
    stored.ok_or(Error::IntegrityViolation { bucket })
}

/// Stores the set hash of the view's (edited) set after a mutation. The
/// hash is derived from the enclave copy, never from untrusted memory.
fn update_set_hash(
    keys: &StoreKeys,
    ctx: &mut TableCtx,
    stats: &mut OpStats,
    view: &SetView,
) -> Result<()> {
    #[cfg(any(test, feature = "testing"))]
    crate::testing::fire_before_hash_store(ctx);
    let Some(set) = view.set else {
        return Err(Error::IntegrityViolation { bucket: view.first });
    };
    stats.macs_gathered += view.len() as u64;
    ctx.macs.set(set, &view.hash(keys));
    Ok(())
}

/// Looks `key` up in `ctx` under `op`'s namespace, fully verifying
/// integrity. Returns the plaintext value and its (authenticated)
/// expiry deadline, or `None` for a clean miss — including the lazy-
/// expiry case, where an entry past its deadline is hidden without
/// mutation (safe against frozen snapshot tables; the sweep removes it).
fn get_in(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    op: &OpCtx<'_>,
    ctx: &TableCtx,
    stats: &mut OpStats,
    scratch: &mut Scratch,
    key: &[u8],
) -> Result<Option<(Vec<u8>, u64)>> {
    let bucket = bucket_of(keys, ctx, key);
    let set = ctx.sets.set_of(bucket);
    verify_set(cfg, keys, ctx, stats, &mut scratch.view, set)?;
    get_in_bucket(cfg, keys, op, ctx, stats, scratch, bucket, key)
}

/// Lookup within an already-verified bucket set. The caller must have
/// run [`verify_set`] for `bucket`'s set first — per-op wrappers do it
/// per call, the batched path once per touched set per batch.
#[allow(clippy::too_many_arguments)]
fn get_in_bucket(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    op: &OpCtx<'_>,
    ctx: &TableCtx,
    stats: &mut OpStats,
    scratch: &mut Scratch,
    bucket: usize,
    key: &[u8],
) -> Result<Option<(Vec<u8>, u64)>> {
    let hint = keys.hint_byte(key);
    match search(cfg, keys, op, ctx, stats, scratch, bucket, hint, key) {
        Some(SearchOutcome::Found(found)) => {
            let Some(ct) = ctx.try_ciphertext(found.handle, &found.header) else {
                return Err(Error::IntegrityViolation { bucket });
            };
            // Fused verify+decrypt under the tenant's derived keys: MAC
            // absorption and keystream XOR share one pass over the
            // ciphertext. The plaintext is staged in the enclave-resident
            // scratch buffer and only released after the tag and the
            // side-array liveness check both pass.
            let mut plain = std::mem::take(&mut scratch.entry);
            if !entry::open_entry(&op.tkeys.enc, &op.tkeys.mac, &found.header, ct, &mut plain) {
                scratch.entry = plain;
                return Err(Error::IntegrityViolation { bucket });
            }
            if let Err(e) = verify_side_mac_read(cfg, &scratch.view, stats, bucket, &found) {
                plain.iter_mut().for_each(|b| *b = 0);
                plain.clear();
                scratch.entry = plain;
                return Err(e);
            }
            // Lazy expiry: the fused open just authenticated the header,
            // `expires_at` included, so the deadline can be honoured. The
            // value is wiped and the entry reads as a miss; physical
            // removal is the sweep's job (this path must not mutate —
            // it also serves frozen snapshot tables).
            if found.header.expired_at(op.now) {
                plain.iter_mut().for_each(|b| *b = 0);
                plain.clear();
                scratch.entry = plain;
                stats.expired_lazy += 1;
                op.tally(|t| &t.expired_lazy, 1);
                return Ok(None);
            }
            let value = plain.split_off(found.header.key_len as usize);
            scratch.entry = plain;
            Ok(Some((value, found.header.expires_at)))
        }
        Some(SearchOutcome::Tampered) => Err(Error::IntegrityViolation { bucket }),
        None => {
            verify_absence_consistency(cfg, ctx, &scratch.view, bucket)?;
            Ok(None)
        }
    }
}

/// Inserts or updates `key` in `ctx`. Returns `true` for an insert.
#[allow(clippy::too_many_arguments)]
fn set_in(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    op: &OpCtx<'_>,
    ctx: &mut TableCtx,
    stats: &mut OpStats,
    scratch: &mut Scratch,
    key: &[u8],
    value: &[u8],
) -> Result<bool> {
    let bucket = bucket_of(keys, ctx, key);
    let set = ctx.sets.set_of(bucket);
    verify_set(cfg, keys, ctx, stats, &mut scratch.view, set)?;
    let inserted = set_in_bucket(cfg, keys, op, ctx, stats, scratch, bucket, key, value)?;
    update_set_hash(keys, ctx, stats, &scratch.view)?;
    Ok(inserted)
}

/// Charges a quota rejection to the op's tenant and fails the write.
fn quota_reject(op: &OpCtx<'_>, stats: &mut OpStats) -> Error {
    stats.quota_rejections += 1;
    op.tally(|t| &t.quota_rejections, 1);
    Error::QuotaExceeded { tenant: op.tenant }
}

/// Insert/update within an already-verified bucket set, *without*
/// re-storing the set hash. The caller must have run [`verify_set`]
/// before the first access to this set and must call
/// [`update_set_hash`] after the last write to it — per-op wrappers do
/// both per call, the batched path once per touched set per batch.
///
/// Quota enforcement happens here, after the integrity checks and
/// before any mutation: an insert charges `(entry bytes, 1 key)`, an
/// update charges only byte *growth* (shrink refunds immediately), and
/// a rejection leaves both table and accounting untouched.
#[allow(clippy::too_many_arguments)]
fn set_in_bucket(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    op: &OpCtx<'_>,
    ctx: &mut TableCtx,
    stats: &mut OpStats,
    scratch: &mut Scratch,
    bucket: usize,
    key: &[u8],
    value: &[u8],
) -> Result<bool> {
    let hint = keys.hint_byte(key);
    let new_len = entry::HEADER_LEN + key.len() + value.len();

    let outcome = search(cfg, keys, op, ctx, stats, scratch, bucket, hint, key);
    if matches!(outcome, Some(SearchOutcome::Tampered)) {
        return Err(Error::IntegrityViolation { bucket });
    }
    let inserted = match outcome {
        Some(SearchOutcome::Tampered) => unreachable!("handled above"),
        Some(SearchOutcome::Found(found)) => {
            // A stale replayed entry must not be accepted as the base of
            // an update (its IV+1 would reuse an already-spent counter).
            verify_side_mac_write(&scratch.view, bucket, &found)?;
            let old_len = found.header.entry_len();
            if let Some(st) = op.meter.map(|m| &m.state) {
                if new_len > old_len {
                    if !st.usage.try_charge_bytes(&st.quota, (new_len - old_len) as u64) {
                        return Err(quota_reject(op, stats));
                    }
                } else {
                    st.usage.discharge((old_len - new_len) as u64, 0);
                }
            }
            // Update: bump the combined IV/counter for the re-encryption.
            // The search only matches same-tenant entries, so the bumped
            // counter stays within one derived keystream.
            let mut iv = found.header.iv;
            shield_crypto::ctr::increment_be(&mut iv);

            if UntrustedHeap::fits_in_class(old_len, new_len) {
                let buf = ctx.heap.bytes_mut(found.handle, new_len);
                let mac = entry::encode_into(
                    buf,
                    found.header.next,
                    hint,
                    op.tenant,
                    op.expires_at,
                    &iv,
                    key,
                    value,
                    &op.tkeys.enc,
                    &op.tkeys.mac,
                );
                let edited = scratch.view.replace(bucket, found.pos, &mac);
                store_bucket_macs(cfg, ctx, &scratch.view, bucket, edited)?;
                stats.inplace_updates += 1;
            } else {
                let fresh = ctx.heap.alloc(new_len);
                let buf = &mut scratch.entry;
                buf.clear();
                buf.resize(new_len, 0);
                let mac = entry::encode_into(
                    buf,
                    found.header.next,
                    hint,
                    op.tenant,
                    op.expires_at,
                    &iv,
                    key,
                    value,
                    &op.tkeys.enc,
                    &op.tkeys.mac,
                );
                ctx.heap.bytes_mut(fresh, new_len).copy_from_slice(buf);
                // Relink in place of the old entry.
                if found.prev == NULL_HANDLE {
                    ctx.heads[bucket] = fresh;
                } else {
                    ctx.heap.write_u64_at(found.prev, entry::OFF_NEXT, fresh);
                }
                ctx.heap.free(found.handle, old_len);
                let edited = scratch.view.replace(bucket, found.pos, &mac);
                store_bucket_macs(cfg, ctx, &scratch.view, bucket, edited)?;
                stats.realloc_updates += 1;
            }
            false
        }
        None => {
            verify_absence_consistency(cfg, ctx, &scratch.view, bucket)?;
            if let Some(st) = op.meter.map(|m| &m.state) {
                if !st.usage.try_charge(&st.quota, new_len as u64, 1) {
                    return Err(quota_reject(op, stats));
                }
            }
            // Insert at the chain head with a fresh random IV/counter.
            let iv = ctx.heap.enclave().read_rand_block();
            let fresh = ctx.heap.alloc(new_len);
            let buf = &mut scratch.entry;
            buf.clear();
            buf.resize(new_len, 0);
            let mac = entry::encode_into(
                buf,
                ctx.heads[bucket],
                hint,
                op.tenant,
                op.expires_at,
                &iv,
                key,
                value,
                &op.tkeys.enc,
                &op.tkeys.mac,
            );
            ctx.heap.bytes_mut(fresh, new_len).copy_from_slice(buf);
            ctx.heads[bucket] = fresh;
            let edited = scratch.view.insert_front(bucket, &mac);
            store_bucket_macs(cfg, ctx, &scratch.view, bucket, edited)?;
            ctx.count += 1;
            stats.inserts += 1;
            true
        }
    };

    Ok(inserted)
}

/// Removes `key` from `ctx` within `op`'s namespace. Returns `true` if
/// a physical removal happened.
///
/// With `reap_expired = false` (normal deletes), an entry past its
/// deadline answers "not present" *without* being removed: the caller's
/// delete is not WAL-logged as having removed anything, so physical
/// removal must wait for the sweep (which is logged) — otherwise
/// recovery replay and the live table would diverge. Honouring the
/// deadline requires authenticating it first: the hint-guided search
/// does not verify MACs, and the set hash covers only the stored tag
/// bytes, so a flipped `expires_at` would otherwise let tampering
/// masquerade as a clean miss.
///
/// With `reap_expired = true` (the sweep, snapshot tombstone replay),
/// expired entries are removed like any other.
#[allow(clippy::too_many_arguments)]
fn delete_in(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    op: &OpCtx<'_>,
    ctx: &mut TableCtx,
    stats: &mut OpStats,
    scratch: &mut Scratch,
    key: &[u8],
    reap_expired: bool,
) -> Result<bool> {
    let bucket = bucket_of(keys, ctx, key);
    let set = ctx.sets.set_of(bucket);
    verify_set(cfg, keys, ctx, stats, &mut scratch.view, set)?;
    let hint = keys.hint_byte(key);
    let found = match search(cfg, keys, op, ctx, stats, scratch, bucket, hint, key) {
        Some(SearchOutcome::Found(found)) => found,
        Some(SearchOutcome::Tampered) => {
            return Err(Error::IntegrityViolation { bucket });
        }
        None => {
            verify_absence_consistency(cfg, ctx, &scratch.view, bucket)?;
            return Ok(false);
        }
    };
    verify_side_mac_write(&scratch.view, bucket, &found)?;

    if !reap_expired && found.header.expired_at(op.now) {
        // Fail-closed deadline trust: verify the entry MAC before
        // honouring the plaintext expiry field.
        let Some(ct) = ctx.try_ciphertext(found.handle, &found.header) else {
            return Err(Error::IntegrityViolation { bucket });
        };
        if !entry::verify_mac(&op.tkeys.mac, &found.header, ct) {
            return Err(Error::IntegrityViolation { bucket });
        }
        stats.expired_lazy += 1;
        op.tally(|t| &t.expired_lazy, 1);
        return Ok(false);
    }

    if found.prev == NULL_HANDLE {
        ctx.heads[bucket] = found.header.next;
    } else {
        ctx.heap.write_u64_at(found.prev, entry::OFF_NEXT, found.header.next);
    }
    ctx.heap.free(found.handle, found.header.entry_len());
    let edited = scratch.view.remove(bucket, found.pos);
    store_bucket_macs(cfg, ctx, &scratch.view, bucket, edited)?;
    ctx.count -= 1;
    if let Some(slot) = op.meter {
        slot.state.usage.discharge(found.header.entry_len() as u64, 1);
    }
    update_set_hash(keys, ctx, stats, &scratch.view)?;
    Ok(true)
}

/// Accumulates per-tenant physical usage (`tenant → (bytes, keys)`) from
/// one table. Header fields are read unauthenticated — this feeds
/// resource accounting, where tampering only skews the tamperer's own
/// quota; data-path integrity is enforced at access time.
fn tally_usage(ctx: &TableCtx, out: &mut HashMap<TenantId, (u64, u64)>) {
    let mut handles = Vec::new();
    ctx.for_each_entry(|_, h| handles.push(h));
    for h in handles {
        if let Some(header) = ctx.try_header(h) {
            let slot = out.entry(header.tenant).or_insert((0, 0));
            slot.0 += header.entry_len() as u64;
            slot.1 += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Shard: public operations with snapshot-aware routing.
// ---------------------------------------------------------------------------

impl Shard {
    /// Creates an empty shard.
    pub(crate) fn new(
        enclave: Arc<Enclave>,
        keys: Arc<StoreKeys>,
        registry: Arc<TenantRegistry>,
        cfg: ShardConfig,
    ) -> Result<Self> {
        let heap = UntrustedHeap::new(Arc::clone(&enclave), cfg.alloc);
        let macs = MacStore::in_enclave(Arc::clone(&enclave), cfg.mac_hashes)?;
        let main = TableCtx::new(heap, cfg.buckets, macs);
        let index = cfg.ordered_index.then(OrderedIndex::new);
        Ok(Self {
            cfg,
            keys,
            enclave,
            registry,
            tenants: HashMap::new(),
            main: Some(main),
            frozen: None,
            temp: None,
            cache: None,
            index,
            quarantine: QuarantineState::default(),
            scratch: Scratch::default(),
            stats: OpStats::default(),
            hists: OpHists::default(),
        })
    }

    /// Enables the in-enclave cache with a byte budget.
    pub(crate) fn enable_cache(&mut self, bytes: usize) {
        if bytes > 0 {
            self.cache = Some(EnclaveCache::new(Arc::clone(&self.enclave), bytes));
        }
    }

    /// This shard's slot for `tenant`. It is built on the tenant's first
    /// op here and rebuilt only after [`TenantRegistry::configure`] has
    /// bumped the registry generation, so ops by known tenants take no
    /// store-wide lock and write no store-wide word to find their keys,
    /// quota and tallies.
    fn slot(&mut self, tenant: TenantId) -> Arc<TenantSlot> {
        // Read before the state, so a configure racing with the rebuild
        // leaves the slot stale and the next op refreshes it again.
        let generation = self.registry.generation();
        let current = self.tenants.get(&tenant);
        if let Some(slot) = current.filter(|slot| slot.generation == generation) {
            return Arc::clone(slot);
        }
        let state = self.registry.state(tenant);
        let slot = Arc::new(match current {
            Some(stale) => stale.refreshed(state, generation),
            None => TenantSlot::new((*self.keys.tenant_keys(tenant)).clone(), state, generation),
        });
        self.tenants.insert(tenant, Arc::clone(&slot));
        slot
    }

    /// Adds this shard's per-tenant op tallies into `out`.
    pub(crate) fn add_tenant_tallies(&self, out: &mut HashMap<TenantId, TenantTally>) {
        for (tenant, slot) in &self.tenants {
            out.entry(*tenant).or_default().merge(&slot.tally.get());
        }
    }

    fn check_item(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let max = self.cfg.max_item_len;
        if key.len() > max {
            return Err(Error::OversizeItem { len: key.len(), max });
        }
        if value.len() > max {
            return Err(Error::OversizeItem { len: value.len(), max });
        }
        if key.is_empty() {
            return Err(Error::OversizeItem { len: 0, max });
        }
        Ok(())
    }

    /// Internal verified lookup across temp/frozen/main state, without
    /// touching the per-op counters (callers classify the op).
    fn lookup(&mut self, op: &OpCtx<'_>, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.lookup_traced(op, key)?.map(|(v, _, _)| v))
    }

    /// Like [`Shard::lookup`], also reporting the entry's expiry deadline
    /// and whether the value was served from the in-enclave cache (so
    /// callers neither re-insert cache hits — a redundant metered enclave
    /// write per hit — nor cache TTL'd values, which the cache cannot
    /// expire).
    fn lookup_traced(
        &mut self,
        op: &OpCtx<'_>,
        key: &[u8],
    ) -> Result<Option<(Vec<u8>, u64, bool)>> {
        if let Some(cache) = self.cache.as_mut() {
            if let Some(v) = cache.get(&nskey(op.tenant, key)) {
                self.stats.cache_hits += 1;
                // Only deadline-free entries are ever cached.
                return Ok(Some((v, 0, true)));
            }
            self.stats.cache_misses += 1;
        }
        if let Some(temp) = self.temp.as_ref() {
            if temp.tombstones.contains(&nskey(op.tenant, key)) {
                return Ok(None);
            }
            // Split borrows: temp ctx read + stats/scratch write.
            let (cfg, keys) = (&self.cfg, &self.keys);
            let temp = self.temp.as_ref().expect("checked above");
            if let Some((v, exp)) =
                get_in(cfg, keys, op, &temp.ctx, &mut self.stats, &mut self.scratch, key)?
            {
                return Ok(Some((v, exp, false)));
            }
            let frozen = self.frozen.as_ref().expect("frozen accompanies temp");
            return Ok(get_in(cfg, keys, op, frozen, &mut self.stats, &mut self.scratch, key)?
                .map(|(v, exp)| (v, exp, false)));
        }
        let main = self.main.as_ref().expect("main table present");
        Ok(get_in(&self.cfg, &self.keys, op, main, &mut self.stats, &mut self.scratch, key)?
            .map(|(v, exp)| (v, exp, false)))
    }

    /// Internal verified write across temp/main state.
    fn apply_write(&mut self, op: &OpCtx<'_>, key: &[u8], value: &[u8]) -> Result<()> {
        self.check_item(key, value)?;
        if let Some(temp) = self.temp.as_mut() {
            self.stats.temp_table_ops += 1;
            temp.tombstones.remove(&nskey(op.tenant, key));
            set_in(
                &self.cfg,
                &self.keys,
                op,
                &mut temp.ctx,
                &mut self.stats,
                &mut self.scratch,
                key,
                value,
            )?;
        } else {
            let main = self.main.as_mut().expect("main table present");
            set_in(
                &self.cfg,
                &self.keys,
                op,
                main,
                &mut self.stats,
                &mut self.scratch,
                key,
                value,
            )?;
        }
        if let Some(cache) = self.cache.as_mut() {
            let ns = nskey(op.tenant, key);
            if op.expires_at == 0 {
                cache.put(&ns, value);
            } else {
                // The cache has no deadline awareness: a cached TTL'd value
                // would keep serving after expiry. Never cache them.
                cache.remove(&ns);
            }
        }
        if let Some(index) = self.index.as_mut() {
            index.insert(&nskey(op.tenant, key));
        }
        Ok(())
    }

    /// The bucket `key` maps to in the main-table geometry (stable
    /// across snapshots — the temp table has its own smaller geometry).
    fn bucket_index(&self, key: &[u8]) -> usize {
        (self.keys.index_hash(key) % self.cfg.buckets as u64) as usize
    }

    /// The bucket-set mapping of the main-table geometry, available even
    /// while the main table is frozen out for a snapshot.
    fn sets_map(&self) -> crate::integrity::BucketSets {
        crate::integrity::BucketSets::new(self.cfg.buckets, self.cfg.mac_hashes)
    }

    /// Fails closed with [`Error::Quarantined`] when `key`'s partition
    /// is quarantined. A rejection never touches untrusted memory.
    fn quarantine_guard(&mut self, key: &[u8]) -> Result<()> {
        if !self.cfg.quarantine || (!self.quarantine.whole && self.quarantine.sets.is_empty()) {
            return Ok(());
        }
        let bucket = self.bucket_index(key);
        if self.quarantine.whole || self.quarantine.sets.contains(&self.sets_map().set_of(bucket)) {
            self.stats.quarantine_rejections += 1;
            return Err(Error::Quarantined { bucket });
        }
        Ok(())
    }

    /// Batch form of [`Shard::quarantine_guard`]: any quarantined key
    /// rejects the whole batch before any of it is dispatched.
    fn quarantine_guard_batch<'k>(&mut self, keys: impl Iterator<Item = &'k [u8]>) -> Result<()> {
        for key in keys {
            self.quarantine_guard(key)?;
        }
        Ok(())
    }

    /// Scans have no single key: they are rejected whenever any part of
    /// this shard is quarantined, since the verified read path would
    /// walk arbitrary buckets.
    fn quarantine_guard_scan(&mut self) -> Result<()> {
        if !self.cfg.quarantine || (!self.quarantine.whole && self.quarantine.sets.is_empty()) {
            return Ok(());
        }
        self.stats.quarantine_rejections += 1;
        let bucket = self
            .quarantine
            .sets
            .iter()
            .next()
            .map(|&set| self.sets_map().buckets_of(set).start)
            .unwrap_or(0);
        Err(Error::Quarantined { bucket })
    }

    /// Observes an operation result: an [`Error::IntegrityViolation`]
    /// quarantines the affected bucket set; a repeat violation, or one
    /// raised while a snapshot makes bucket attribution ambiguous,
    /// escalates to the whole shard. No-op unless
    /// [`Config::quarantine`] is enabled.
    fn observe<T>(&mut self, result: Result<T>) -> Result<T> {
        if self.cfg.quarantine {
            if let Err(Error::IntegrityViolation { bucket }) = &result {
                self.quarantine.violations += 1;
                if self.quarantine.violations > 1 || self.temp.is_some() {
                    self.quarantine.whole = true;
                } else {
                    let bucket = (*bucket).min(self.cfg.buckets - 1);
                    self.quarantine.sets.insert(self.sets_map().set_of(bucket));
                }
            }
        }
        result
    }

    /// The bucket set `key` maps to (main-table geometry).
    pub(crate) fn set_of_key(&self, key: &[u8]) -> usize {
        self.sets_map().set_of(self.bucket_index(key))
    }

    /// This shard's quarantine state: (whole-shard flag, quarantined
    /// set indices, violations observed).
    pub(crate) fn quarantine_state(&self) -> (bool, Vec<usize>, u64) {
        (
            self.quarantine.whole,
            self.quarantine.sets.iter().copied().collect(),
            self.quarantine.violations,
        )
    }

    // -- tenant-scoped operations --------------------------------------

    /// Retrieves the value for `key` in the default namespace.
    pub fn get(&mut self, key: &[u8]) -> Result<Vec<u8>> {
        self.get_t(DEFAULT_TENANT, key)
    }

    /// Retrieves the value for `key` in `tenant`'s namespace, counted in
    /// the tenant's tallies.
    pub fn get_t(&mut self, tenant: TenantId, key: &[u8]) -> Result<Vec<u8>> {
        let timer = OpTimer::start();
        let result = match self.quarantine_guard(key) {
            Ok(()) => {
                let slot = self.slot(tenant);
                let r = self.get_untimed(&OpCtx::metered(tenant, &slot, 0), key);
                self.observe(r)
            }
            Err(e) => {
                // A rejected op still counts as a served `get` so the
                // histogram/op-counter identities hold.
                self.stats.gets += 1;
                Err(e)
            }
        };
        self.hists.get.record(timer.elapsed_ns());
        result
    }

    fn get_untimed(&mut self, op: &OpCtx<'_>, key: &[u8]) -> Result<Vec<u8>> {
        self.stats.gets += 1;
        op.tally(|t| &t.gets, 1);
        match self.lookup_traced(op, key)? {
            Some((v, expires_at, from_cache)) => {
                self.stats.hits += 1;
                op.tally(|t| &t.hits, 1);
                // Populate the cache on an untrusted-path hit (a cache hit
                // is already resident) — but never with a TTL'd value.
                if !from_cache && expires_at == 0 {
                    if let Some(cache) = self.cache.as_mut() {
                        cache.put(&nskey(op.tenant, key), &v);
                    }
                }
                Ok(v)
            }
            None => {
                self.stats.misses += 1;
                op.tally(|t| &t.misses, 1);
                Err(Error::KeyNotFound)
            }
        }
    }

    /// Stores `value` under `key` (insert or update) in the default
    /// namespace, with no expiry.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.set_t(DEFAULT_TENANT, key, value, 0)
    }

    /// Stores `value` under `key` in `tenant`'s namespace. `expires_at`
    /// is an absolute [`ttl`] deadline in ns (`0` = no expiry) and
    /// *replaces* any previous deadline. The write is admitted against
    /// the tenant's quota and counted in its tallies.
    pub fn set_t(
        &mut self,
        tenant: TenantId,
        key: &[u8],
        value: &[u8],
        expires_at: u64,
    ) -> Result<()> {
        self.write_t(tenant, key, value, expires_at, true)
    }

    /// Recovery and replica replay of a logged set: applied like
    /// [`Shard::set_t`] but without quota admission or tenant tallies —
    /// the op was admitted when it first ran, and usage is recounted
    /// after replay.
    pub(crate) fn replay_set_t(
        &mut self,
        tenant: TenantId,
        key: &[u8],
        value: &[u8],
        expires_at: u64,
    ) -> Result<()> {
        self.write_t(tenant, key, value, expires_at, false)
    }

    fn write_t(
        &mut self,
        tenant: TenantId,
        key: &[u8],
        value: &[u8],
        expires_at: u64,
        metered: bool,
    ) -> Result<()> {
        let timer = OpTimer::start();
        self.stats.sets += 1;
        let slot = self.slot(tenant);
        let op = if metered {
            OpCtx::metered(tenant, &slot, expires_at)
        } else {
            OpCtx { expires_at, ..OpCtx::unmetered(tenant, &slot) }
        };
        op.tally(|t| &t.sets, 1);
        let result = match self.quarantine_guard(key) {
            Ok(()) => {
                let r = self.apply_write(&op, key, value);
                self.observe(r)
            }
            Err(e) => Err(e),
        };
        self.hists.set.record(timer.elapsed_ns());
        result
    }

    /// Batched lookup in the default namespace.
    pub fn multi_get(&mut self, batch: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>> {
        self.multi_get_t(DEFAULT_TENANT, batch)
    }

    /// Batched lookup in `tenant`'s namespace: re-derives each touched
    /// bucket-set hash once per batch instead of once per key (the
    /// flattened-Merkle check of paper §4.3/§5.2 is the dominant per-op
    /// cost this amortizes).
    ///
    /// Results come back in input order; a clean miss is `None` rather
    /// than an error, so one absent key does not fail the batch. Any
    /// integrity violation aborts the whole batch fail-closed.
    pub fn multi_get_t(
        &mut self,
        tenant: TenantId,
        batch: &[&[u8]],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        let timer = OpTimer::start();
        let result = match self.quarantine_guard_batch(batch.iter().copied()) {
            Ok(()) => {
                let slot = self.slot(tenant);
                let r = self.multi_get_untimed(&OpCtx::metered(tenant, &slot, 0), batch);
                self.observe(r)
            }
            Err(e) => Err(e),
        };
        self.hists.batch.record(timer.elapsed_ns());
        result
    }

    fn multi_get_untimed(
        &mut self,
        op: &OpCtx<'_>,
        batch: &[&[u8]],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        let tenant = op.tenant;
        self.stats.batches += 1;
        self.stats.batch_ops += batch.len() as u64;
        self.stats.gets += batch.len() as u64;
        op.tally(|t| &t.gets, batch.len() as u64);
        let mut results: Vec<Option<Vec<u8>>> = vec![None; batch.len()];

        if self.temp.is_some() {
            // Snapshot in progress: lookups span the temp and frozen
            // tables, whose bucket sets do not line up — per-op path.
            for (i, key) in batch.iter().enumerate() {
                if let Some((v, exp, from_cache)) = self.lookup_traced(op, key)? {
                    if !from_cache && exp == 0 {
                        if let Some(cache) = self.cache.as_mut() {
                            cache.put(&nskey(tenant, key), &v);
                        }
                    }
                    results[i] = Some(v);
                }
            }
            self.tally_batch_hits(op, &results);
            return Ok(results);
        }

        // Cache pass first: resident values need no untrusted access.
        let mut pending = Vec::with_capacity(batch.len());
        for (i, key) in batch.iter().enumerate() {
            if let Some(cache) = self.cache.as_mut() {
                if let Some(v) = cache.get(&nskey(tenant, key)) {
                    self.stats.cache_hits += 1;
                    results[i] = Some(v);
                    continue;
                }
                self.stats.cache_misses += 1;
            }
            pending.push(i);
        }

        let Shard { cfg, keys, main, cache, stats, scratch, .. } = self;
        let main = main.as_ref().expect("main table present");

        // Group by bucket set so each set hash is derived exactly once.
        let mut order: Vec<(usize, usize, usize)> = pending
            .into_iter()
            .map(|i| {
                let bucket = bucket_of(keys, main, batch[i]);
                (main.sets.set_of(bucket), bucket, i)
            })
            .collect();
        order.sort_unstable();

        let mut verified: Option<usize> = None;
        for (set, bucket, i) in order {
            if verified == Some(set) {
                stats.batch_verifications_saved += 1;
            } else {
                verify_set(cfg, keys, main, stats, &mut scratch.view, set)?;
                verified = Some(set);
            }
            if let Some((v, exp)) =
                get_in_bucket(cfg, keys, op, main, stats, scratch, bucket, batch[i])?
            {
                if exp == 0 {
                    if let Some(cache) = cache.as_mut() {
                        cache.put(&nskey(tenant, batch[i]), &v);
                    }
                }
                results[i] = Some(v);
            }
        }
        self.tally_batch_hits(op, &results);
        Ok(results)
    }

    /// Batched write in the default namespace (no expiry).
    pub fn multi_set(&mut self, items: &[(&[u8], &[u8])]) -> Result<()> {
        self.multi_set_t(DEFAULT_TENANT, items, 0)
    }

    /// Batched write in `tenant`'s namespace: verifies each touched
    /// bucket-set hash once before the set's first write and re-stores
    /// it once after the set's last write, instead of doing both per
    /// key. All items share `expires_at` (`0` = no expiry).
    ///
    /// Items are validated up front, so a malformed item rejects the
    /// batch before any mutation. Writes to the same key replay in
    /// submission order (last write wins). An integrity violation
    /// mid-batch aborts fail-closed; a quota rejection aborts with
    /// earlier items of the batch already applied (each was logged).
    pub fn multi_set_t(
        &mut self,
        tenant: TenantId,
        items: &[(&[u8], &[u8])],
        expires_at: u64,
    ) -> Result<()> {
        let timer = OpTimer::start();
        let result = match self.quarantine_guard_batch(items.iter().map(|(k, _)| *k)) {
            Ok(()) => {
                let slot = self.slot(tenant);
                let r = self.multi_set_untimed(&OpCtx::metered(tenant, &slot, expires_at), items);
                self.observe(r)
            }
            Err(e) => Err(e),
        };
        self.hists.batch.record(timer.elapsed_ns());
        result
    }

    fn multi_set_untimed(&mut self, op: &OpCtx<'_>, items: &[(&[u8], &[u8])]) -> Result<()> {
        for (key, value) in items {
            self.check_item(key, value)?;
        }
        let (tenant, expires_at) = (op.tenant, op.expires_at);
        self.stats.batches += 1;
        self.stats.batch_ops += items.len() as u64;
        self.stats.sets += items.len() as u64;
        op.tally(|t| &t.sets, items.len() as u64);

        if self.temp.is_some() {
            // Snapshot in progress: writes land in the small temp table,
            // where batching the set-hash work is not worth the
            // bookkeeping — the temp table is merged away shortly.
            for (key, value) in items {
                self.apply_write(op, key, value)?;
            }
            return Ok(());
        }

        let Shard { cfg, keys, main, cache, index, stats, scratch, .. } = self;
        let main = main.as_mut().expect("main table present");

        // Sort by (set, bucket, input position): grouped per set for the
        // hash amortization, while duplicate keys (same bucket) keep
        // their submission order.
        let mut order: Vec<(usize, usize, usize)> = items
            .iter()
            .enumerate()
            .map(|(i, (key, _))| {
                let bucket = bucket_of(keys, main, key);
                (main.sets.set_of(bucket), bucket, i)
            })
            .collect();
        order.sort_unstable();

        let mut current: Option<usize> = None;
        for (set, bucket, i) in order {
            if current == Some(set) {
                stats.batch_verifications_saved += 1;
                stats.batch_hash_updates_saved += 1;
            } else {
                if current.is_some() {
                    update_set_hash(keys, main, stats, &scratch.view)?;
                }
                verify_set(cfg, keys, main, stats, &mut scratch.view, set)?;
                current = Some(set);
            }
            let (key, value) = items[i];
            set_in_bucket(cfg, keys, op, main, stats, scratch, bucket, key, value).map_err(
                |e| {
                    // The set hash for the current group must be re-stored
                    // even on a quota rejection mid-batch: earlier items in
                    // this set already mutated their buckets.
                    if matches!(e, Error::QuotaExceeded { .. }) {
                        let _ = update_set_hash(keys, main, stats, &scratch.view);
                    }
                    e
                },
            )?;
            if let Some(cache) = cache.as_mut() {
                let ns = nskey(tenant, key);
                if expires_at == 0 {
                    cache.put(&ns, value);
                } else {
                    cache.remove(&ns);
                }
            }
            if let Some(index) = index.as_mut() {
                index.insert(&nskey(tenant, key));
            }
        }
        if current.is_some() {
            update_set_hash(keys, main, stats, &scratch.view)?;
        }
        Ok(())
    }

    /// Classifies batched results into the hit/miss counters.
    fn tally_batch_hits(&mut self, op: &OpCtx<'_>, results: &[Option<Vec<u8>>]) {
        let hits = results.iter().filter(|r| r.is_some()).count() as u64;
        let misses = results.len() as u64 - hits;
        self.stats.hits += hits;
        self.stats.misses += misses;
        op.tally(|t| &t.hits, hits);
        op.tally(|t| &t.misses, misses);
    }

    /// Removes `key` from the default namespace.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.delete_t(DEFAULT_TENANT, key)
    }

    /// Removes `key` from `tenant`'s namespace. Errors with
    /// [`Error::KeyNotFound`] when absent — or already past its
    /// deadline, in which case physical removal is left to the sweep
    /// (which WAL-logs it; an unlogged removal here would diverge from
    /// recovery replay).
    pub fn delete_t(&mut self, tenant: TenantId, key: &[u8]) -> Result<()> {
        let timer = OpTimer::start();
        let result = match self.quarantine_guard(key) {
            Ok(()) => {
                let slot = self.slot(tenant);
                let r = self.delete_untimed(&OpCtx::metered(tenant, &slot, 0), key);
                self.observe(r)
            }
            Err(e) => {
                self.stats.deletes += 1;
                Err(e)
            }
        };
        self.hists.delete.record(timer.elapsed_ns());
        result
    }

    fn delete_untimed(&mut self, op: &OpCtx<'_>, key: &[u8]) -> Result<()> {
        self.stats.deletes += 1;
        let ns = nskey(op.tenant, key);
        if let Some(cache) = self.cache.as_mut() {
            cache.remove(&ns);
        }
        if let Some(temp) = self.temp.as_mut() {
            self.stats.temp_table_ops += 1;
            // Remove any temp-table copy.
            let (cfg, keys) = (&self.cfg, &self.keys);
            let removed_temp = delete_in(
                cfg,
                keys,
                op,
                &mut temp.ctx,
                &mut self.stats,
                &mut self.scratch,
                key,
                false,
            )?;
            // Check the frozen main for presence (verified search).
            let frozen = Arc::clone(self.frozen.as_ref().expect("frozen accompanies temp"));
            let in_frozen = get_in(
                &self.cfg,
                &self.keys,
                op,
                &frozen,
                &mut self.stats,
                &mut self.scratch,
                key,
            )?
            .is_some();
            if !removed_temp && !in_frozen {
                self.stats.misses += 1;
                op.tally(|t| &t.misses, 1);
                return Err(Error::KeyNotFound);
            }
            if in_frozen {
                let temp = self.temp.as_mut().expect("checked above");
                temp.tombstones.insert(ns.clone());
            }
            if let Some(index) = self.index.as_mut() {
                index.remove(&ns);
            }
            self.stats.hits += 1;
            op.tally(|t| &t.hits, 1);
            return Ok(());
        }
        let main = self.main.as_mut().expect("main table present");
        if delete_in(
            &self.cfg,
            &self.keys,
            op,
            main,
            &mut self.stats,
            &mut self.scratch,
            key,
            false,
        )? {
            if let Some(index) = self.index.as_mut() {
                index.remove(&ns);
            }
            self.stats.hits += 1;
            op.tally(|t| &t.hits, 1);
            Ok(())
        } else {
            self.stats.misses += 1;
            op.tally(|t| &t.misses, 1);
            Err(Error::KeyNotFound)
        }
    }

    /// Appends `suffix` to the value of `key` (default namespace),
    /// creating it when absent — one of the server-side operations
    /// motivating server-side encryption (paper §3.2, Fig. 12).
    pub fn append(&mut self, key: &[u8], suffix: &[u8]) -> Result<usize> {
        self.append_value_t(DEFAULT_TENANT, key, suffix).map(|v| v.len())
    }

    /// Tenant-scoped append. Any existing expiry deadline is cleared by
    /// the rewrite (the produced value is WAL-logged as a plain set, so
    /// replay must be deadline-free to stay idempotent).
    pub fn append_value_t(
        &mut self,
        tenant: TenantId,
        key: &[u8],
        suffix: &[u8],
    ) -> Result<Vec<u8>> {
        self.stats.appends += 1;
        self.quarantine_guard(key)?;
        let slot = self.slot(tenant);
        let op = OpCtx::metered(tenant, &slot, 0);
        let result = (|| {
            let mut value = self.lookup(&op, key)?.unwrap_or_default();
            value.extend_from_slice(suffix);
            self.apply_write(&op, key, &value)?;
            Ok(value)
        })();
        self.observe(result)
    }

    /// Adds `delta` to the decimal-integer value of `key` in the default
    /// namespace (creating it as `delta` when absent) and returns the
    /// new value.
    pub fn increment(&mut self, key: &[u8], delta: i64) -> Result<i64> {
        self.increment_t(DEFAULT_TENANT, key, delta)
    }

    /// Tenant-scoped increment; clears any expiry deadline like
    /// [`Shard::append_value_t`].
    pub fn increment_t(&mut self, tenant: TenantId, key: &[u8], delta: i64) -> Result<i64> {
        self.stats.increments += 1;
        self.quarantine_guard(key)?;
        let slot = self.slot(tenant);
        let op = OpCtx::metered(tenant, &slot, 0);
        let result = (|| {
            let current = match self.lookup(&op, key)? {
                Some(v) => {
                    let text = core::str::from_utf8(&v).map_err(|_| Error::ValueNotNumeric)?;
                    text.trim().parse::<i64>().map_err(|_| Error::ValueNotNumeric)?
                }
                None => 0,
            };
            let next = current.checked_add(delta).ok_or(Error::NumericOverflow)?;
            self.apply_write(&op, key, next.to_string().as_bytes())?;
            Ok(next)
        })();
        self.observe(result)
    }

    /// True when `key` exists in the default namespace (verified lookup).
    pub fn exists(&mut self, key: &[u8]) -> Result<bool> {
        self.exists_t(DEFAULT_TENANT, key)
    }

    /// True when `key` exists in `tenant`'s namespace (verified lookup;
    /// an expired entry reads as absent).
    pub fn exists_t(&mut self, tenant: TenantId, key: &[u8]) -> Result<bool> {
        self.quarantine_guard(key)?;
        let slot = self.slot(tenant);
        let op = OpCtx::metered(tenant, &slot, 0);
        let result = self.lookup(&op, key).map(|v| v.is_some());
        self.observe(result)
    }

    /// Recovery replay of a logged delete: removes `key` regardless of
    /// expiry state (the logged delete may itself be a sweep reap), with
    /// no stats or quota accounting — usage is recounted after replay.
    pub(crate) fn purge_t(&mut self, tenant: TenantId, key: &[u8]) -> Result<bool> {
        self.quarantine_guard(key)?;
        let ns = nskey(tenant, key);
        if let Some(cache) = self.cache.as_mut() {
            cache.remove(&ns);
        }
        let slot = self.slot(tenant);
        let op = OpCtx::unmetered(tenant, &slot);
        let main = self.main.as_mut().expect("main table present");
        let removed = delete_in(
            &self.cfg,
            &self.keys,
            &op,
            main,
            &mut self.stats,
            &mut self.scratch,
            key,
            true,
        )?;
        if removed {
            if let Some(index) = self.index.as_mut() {
                index.remove(&ns);
            }
        }
        Ok(removed)
    }

    /// Ordered range scan over `[start, end)` in the default namespace
    /// (requires [`Config::ordered_index`]): returns up to `limit`
    /// key-value pairs in key order, each retrieved through the fully
    /// verified read path.
    pub fn scan_range(
        &mut self,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.scan_range_t(DEFAULT_TENANT, start, end, limit)
    }

    /// Ordered prefix scan in the default namespace (requires
    /// [`Config::ordered_index`]).
    pub fn scan_prefix(&mut self, prefix: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.scan_prefix_t(DEFAULT_TENANT, prefix, limit)
    }

    /// Tenant-scoped ordered range scan. The index stores namespaced
    /// keys, so the scan window is confined to `tenant` by construction
    /// — it cannot leak even the *existence* of another tenant's keys.
    pub fn scan_range_t(
        &mut self,
        tenant: TenantId,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.quarantine_guard_scan()?;
        let nskeys = self.index.as_ref().ok_or(Error::IndexDisabled)?.range(
            &nskey(tenant, start),
            &nskey(tenant, end),
            limit,
        );
        self.collect_keys(tenant, nskeys)
    }

    /// Tenant-scoped ordered prefix scan.
    pub fn scan_prefix_t(
        &mut self,
        tenant: TenantId,
        prefix: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.quarantine_guard_scan()?;
        let nskeys =
            self.index.as_ref().ok_or(Error::IndexDisabled)?.prefix(&nskey(tenant, prefix), limit);
        self.collect_keys(tenant, nskeys)
    }

    fn collect_keys(
        &mut self,
        tenant: TenantId,
        nskeys: Vec<Vec<u8>>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let slot = self.slot(tenant);
        let op = OpCtx::unmetered(tenant, &slot);
        let result = (|| {
            let mut out = Vec::with_capacity(nskeys.len());
            for ns in &nskeys {
                let (_, key) = split_nskey(ns);
                // The index can briefly lead the table during a snapshot
                // merge, and expired entries linger until swept; skip
                // keys that verified-miss rather than failing.
                if let Some((value, _, _)) = self.lookup_traced(&op, key)? {
                    out.push((key.to_vec(), value));
                }
            }
            Ok(out)
        })();
        self.observe(result)
    }

    /// Physically removes entries whose deadline is at or before `now`,
    /// returning the `(tenant, key)` pairs reaped so the store can
    /// WAL-log each removal (recovery must not resurrect them).
    ///
    /// Only entries whose MAC verifies under their owner's keys are
    /// reaped — a tampered `expires_at` cannot be laundered into a
    /// silent delete; it either fails the guarding verification here or
    /// trips [`Error::IntegrityViolation`] on the next read. Skipped
    /// while a snapshot freeze is active (the frozen table is immutable;
    /// lazy expiry keeps hiding dead entries until the next sweep).
    pub fn sweep_expired(&mut self, now: u64) -> Vec<(TenantId, Vec<u8>)> {
        let mut reaped = Vec::new();
        if self.temp.is_some() || self.quarantine.whole {
            return reaped;
        }
        // Pass 1 (read-only): collect authenticated expired candidates.
        let mut candidates: Vec<(TenantId, Vec<u8>)> = Vec::new();
        {
            let main = self.main.as_ref().expect("main table present");
            let mut handles = Vec::new();
            main.for_each_entry(|bucket, handle| handles.push((bucket, handle)));
            for (bucket, handle) in handles {
                // Quarantined sets are out of bounds — membership is
                // checked directly so the sweep does not inflate the
                // `quarantine_rejections` client-op counter.
                if self.quarantine.sets.contains(&main.sets.set_of(bucket)) {
                    continue;
                }
                let Some(header) = main.try_header(handle) else { continue };
                if !header.expired_at(now) {
                    continue;
                }
                let Some(ct) = main.try_ciphertext(handle, &header) else { continue };
                let owner = self.keys.tenant_keys(header.tenant);
                if !entry::verify_mac(&owner.mac, &header, ct) {
                    continue;
                }
                candidates.push((header.tenant, entry::decrypt_key(&owner.enc, &header, ct)));
            }
        }
        // Pass 2: reap through the normal verified delete path, so the
        // set hashes and MAC chains are maintained like any other write.
        for (tenant, key) in candidates {
            let slot = self.slot(tenant);
            let op = OpCtx { now, ..OpCtx::metered(tenant, &slot, 0) };
            let main = self.main.as_mut().expect("main table present");
            let r = delete_in(
                &self.cfg,
                &self.keys,
                &op,
                main,
                &mut self.stats,
                &mut self.scratch,
                &key,
                true,
            );
            let r = self.observe(r);
            if let Ok(true) = r {
                self.stats.expired_swept += 1;
                op.tally(|t| &t.expired_swept, 1);
                let ns = nskey(tenant, &key);
                if let Some(index) = self.index.as_mut() {
                    index.remove(&ns);
                }
                if let Some(cache) = self.cache.as_mut() {
                    cache.remove(&ns);
                }
                reaped.push((tenant, key));
            }
            if self.quarantine.whole {
                break;
            }
        }
        reaped
    }

    /// Tallies live per-tenant occupancy — `(bytes, keys)` per tenant —
    /// straight from the table headers. Used by the store to re-baseline
    /// quota accounting after restore/recovery (expired-but-unswept
    /// entries still count: they still occupy untrusted memory).
    pub(crate) fn usage_by_tenant(&self) -> HashMap<TenantId, (u64, u64)> {
        let mut out = HashMap::new();
        if let Some(main) = self.main.as_ref() {
            tally_usage(main, &mut out);
        } else if let Some(frozen) = self.frozen.as_ref() {
            tally_usage(frozen, &mut out);
        }
        if let Some(temp) = self.temp.as_ref() {
            tally_usage(&temp.ctx, &mut out);
        }
        out
    }

    /// The number of live entries (main + temp tables). Entries past
    /// their deadline but not yet swept still count.
    pub fn len(&self) -> usize {
        let base = self
            .main
            .as_ref()
            .map(|m| m.count)
            .or_else(|| self.frozen.as_ref().map(|f| f.count))
            .unwrap_or(0);
        let temp = self.temp.as_ref().map(|t| t.ctx.count).unwrap_or(0);
        base + temp
    }

    /// True when the shard holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This shard's operation counters.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// This shard's latency histograms.
    pub fn hists(&self) -> &OpHists {
        &self.hists
    }

    /// Resets the operation counters and latency histograms.
    pub fn reset_stats(&mut self) {
        self.stats = OpStats::default();
        self.hists = OpHists::default();
    }

    /// Folds this shard's counters, histograms, and occupancy gauges into
    /// a store-wide snapshot. Called under the shard lock, so the
    /// contribution is internally consistent.
    pub(crate) fn contribute_snapshot(&self, snap: &mut StatsSnapshot) {
        snap.ops.merge(&self.stats);
        snap.hists.merge(&self.hists);
        snap.entries += self.len() as u64;
        let mut add_table = |ctx: &TableCtx| {
            snap.heap_live_bytes += ctx.heap.live_bytes() as u64;
            snap.heap_chunks += ctx.heap.chunk_count() as u64;
        };
        if let Some(main) = self.main.as_ref() {
            add_table(main);
        }
        if let Some(frozen) = self.frozen.as_ref() {
            add_table(frozen);
        }
        if let Some(temp) = self.temp.as_ref() {
            add_table(&temp.ctx);
        }
        if let Some(cache) = self.cache.as_ref() {
            snap.cache_used_bytes += cache.used_bytes() as u64;
            snap.cache_entries += cache.len() as u64;
        }
        if self.quarantine.whole {
            snap.quarantined_shards += 1;
        } else {
            snap.quarantined_sets += self.quarantine.sets.len() as u64;
        }
    }

    /// The shard's configuration.
    pub(crate) fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Read access to the main table (diagnostics / persistence).
    pub(crate) fn main_table(&self) -> Option<&TableCtx> {
        self.main.as_ref()
    }

    /// Mutable access to the main table (persistence restore).
    pub(crate) fn main_table_mut(&mut self) -> Option<&mut TableCtx> {
        self.main.as_mut()
    }

    /// Approximate enclave bytes consumed by the ordered index (0 when
    /// disabled) — check this against the EPC budget before enabling the
    /// index on large key counts.
    pub fn index_bytes(&self) -> usize {
        self.index.as_ref().map(|i| i.approx_bytes()).unwrap_or(0)
    }

    /// Rebuilds the ordered index from the main table (snapshot restore).
    pub(crate) fn rebuild_index(&mut self) -> Result<()> {
        if !self.cfg.ordered_index {
            return Ok(());
        }
        let mut index = OrderedIndex::new();
        let main = self.main.as_ref().expect("main table present");
        let mut bad = false;
        main.for_each_entry(|_, handle| {
            let header = main.header(handle);
            match main.try_ciphertext(handle, &header) {
                Some(ct) => {
                    let tkeys = self.keys.tenant_keys(header.tenant);
                    let key = entry::decrypt_key(&tkeys.enc, &header, ct);
                    index.insert(&nskey(header.tenant, &key));
                }
                None => bad = true,
            }
        });
        if bad {
            return Err(Error::IntegrityViolation { bucket: 0 });
        }
        self.index = Some(index);
        Ok(())
    }

    /// True when a snapshot is in progress (temp table active).
    pub fn is_snapshotting(&self) -> bool {
        self.temp.is_some()
    }

    /// Verifies every bucket set of the main table — used after a
    /// snapshot restore to authenticate the reconstructed table against
    /// the sealed MAC hash array.
    pub fn verify_all_sets(&mut self) -> Result<()> {
        let main = self.main.as_ref().expect("main table present");
        let view = &mut self.scratch.view;
        for set in 0..main.sets.num_sets() {
            verify_set(&self.cfg, &self.keys, main, &mut self.stats, view, set)?;
            // With MAC bucketing, also cross-check every chain against
            // its side array so an unlinked entry in the restored table
            // cannot hide.
            for bucket in main.sets.buckets_of(set) {
                verify_absence_consistency(&self.cfg, main, view, bucket)?;
            }
        }
        Ok(())
    }

    /// Freezes the main table for a snapshot: the returned `Arc` is handed
    /// to the snapshot writer; subsequent writes go to a fresh temporary
    /// table (Algorithm 1).
    pub(crate) fn freeze(&mut self) -> Arc<TableCtx> {
        assert!(self.temp.is_none(), "snapshot already in progress");
        let main = self.main.take().expect("main table present");
        let arc = Arc::new(main);
        self.frozen = Some(Arc::clone(&arc));
        // The temporary table is small: writes during a snapshot window are
        // bounded, and it is merged away afterwards.
        let temp_buckets = (self.cfg.buckets / 16).max(64);
        let heap = UntrustedHeap::new(Arc::clone(&self.enclave), self.cfg.alloc);
        let ctx = TableCtx::new(heap, temp_buckets, MacStore::plain(temp_buckets));
        self.temp = Some(TempTable { ctx, tombstones: HashSet::new() });
        arc
    }

    /// Unfreezes after the snapshot writer has dropped its `Arc`,
    /// merging the temporary table back into the main one. Quota
    /// accounting is re-baselined by the store afterwards (via
    /// [`Shard::usage_by_tenant`]), so the unmetered merge here cannot
    /// leave usage drifted.
    pub(crate) fn unfreeze(&mut self) -> Result<()> {
        let arc = self.frozen.take().expect("freeze() must precede unfreeze()");
        let mut main = Arc::try_unwrap(arc).map_err(|arc| {
            self.frozen = Some(arc);
            Error::Persistence("snapshot writer still holds the frozen table".into())
        })?;
        let temp = self.temp.take().expect("temp accompanies frozen");
        let now = ttl::now_ns();

        // Apply deletions first, then replay temp-table writes.
        for ns in &temp.tombstones {
            let (tenant, key) = split_nskey(ns);
            let tkeys = self.keys.tenant_keys(tenant);
            let op = OpCtx { tenant, tkeys: &tkeys, now, expires_at: 0, meter: None };
            let _ = delete_in(
                &self.cfg,
                &self.keys,
                &op,
                &mut main,
                &mut self.stats,
                &mut self.scratch,
                key,
                true,
            )?;
        }
        let mut handles = Vec::new();
        temp.ctx.for_each_entry(|_, h| handles.push(h));
        let mut plain = Vec::new();
        for h in handles {
            let header = temp.ctx.header(h);
            let ct = temp.ctx.ciphertext(h, &header);
            let tkeys = self.keys.tenant_keys(header.tenant);
            // Fused verify+decrypt of the temp-table entry before it is
            // re-sealed into the merged main table.
            if !entry::open_entry(&tkeys.enc, &tkeys.mac, &header, ct, &mut plain) {
                return Err(Error::IntegrityViolation { bucket: 0 });
            }
            let (key, value) = plain.split_at(header.key_len as usize);
            let op = OpCtx {
                tenant: header.tenant,
                tkeys: &tkeys,
                now,
                expires_at: header.expires_at,
                meter: None,
            };
            set_in(
                &self.cfg,
                &self.keys,
                &op,
                &mut main,
                &mut self.stats,
                &mut self.scratch,
                key,
                value,
            )?;
        }
        self.main = Some(main);
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::enclave::EnclaveBuilder;
    use sgx_sim::vclock;

    fn shard_with(cfg: Config) -> Shard {
        let enclave = EnclaveBuilder::new("shard-test").epc_bytes(4 << 20).build();
        let keys = Arc::new(StoreKeys::generate(&enclave));
        let registry = Arc::new(TenantRegistry::new());
        Shard::new(enclave, keys, registry, ShardConfig::from_config(&cfg)).unwrap()
    }

    fn small_cfg() -> Config {
        Config::shield_opt().buckets(64).mac_hashes(16).with_shards(1)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"alpha", b"one").unwrap();
        s.set(b"beta", b"two").unwrap();
        assert_eq!(s.get(b"alpha").unwrap(), b"one");
        assert_eq!(s.get(b"beta").unwrap(), b"two");
        assert_eq!(s.get(b"gamma"), Err(Error::KeyNotFound));
        assert_eq!(s.len(), 2);
        vclock::reset();
    }

    #[test]
    fn update_overwrites_and_bumps_counter() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"k", b"v1").unwrap();
        s.set(b"k", b"v2-longer-than-before").unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v2-longer-than-before");
        assert_eq!(s.len(), 1);
        assert_eq!(s.stats().inserts, 1);
        assert_eq!(s.stats().inplace_updates + s.stats().realloc_updates, 1);
        vclock::reset();
    }

    #[test]
    fn in_place_vs_realloc_updates() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"k", &[0u8; 10]).unwrap();
        s.set(b"k", &[1u8; 11]).unwrap(); // same size class
        assert_eq!(s.stats().inplace_updates, 1);
        s.set(b"k", &[2u8; 500]).unwrap(); // outgrows class
        assert_eq!(s.stats().realloc_updates, 1);
        assert_eq!(s.get(b"k").unwrap(), vec![2u8; 500]);
        vclock::reset();
    }

    #[test]
    fn shrinking_update_then_delete_frees_every_heap_byte() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"k", &[1u8; 100]).unwrap();
        s.set(b"k", &[2u8; 20]).unwrap(); // a smaller class: reallocated
        assert_eq!(s.get(b"k").unwrap(), vec![2u8; 20]);
        s.set(b"k", &[3u8; 21]).unwrap(); // same class: in place
        assert_eq!(s.stats().inplace_updates, 1);
        s.delete(b"k").unwrap();
        let live = s.main_table().map(|t| t.heap.live_bytes());
        assert_eq!(live, Some(0), "entry and MAC node frees return their whole classes");
        vclock::reset();
    }

    #[test]
    fn delete_removes() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"k", b"v").unwrap();
        s.delete(b"k").unwrap();
        assert_eq!(s.get(b"k"), Err(Error::KeyNotFound));
        assert_eq!(s.delete(b"k"), Err(Error::KeyNotFound));
        assert_eq!(s.len(), 0);
        vclock::reset();
    }

    #[test]
    fn chains_survive_many_colliding_keys() {
        // A single bucket forces every key into one chain.
        let cfg = Config::shield_opt().buckets(1).mac_hashes(1);
        let mut s = shard_with(cfg);
        vclock::reset();
        for i in 0..50u32 {
            s.set(format!("key-{i}").as_bytes(), format!("val-{i}").as_bytes()).unwrap();
        }
        for i in 0..50u32 {
            assert_eq!(
                s.get(format!("key-{i}").as_bytes()).unwrap(),
                format!("val-{i}").as_bytes()
            );
        }
        // Delete odd keys and re-check.
        for i in (1..50u32).step_by(2) {
            s.delete(format!("key-{i}").as_bytes()).unwrap();
        }
        for i in 0..50u32 {
            let r = s.get(format!("key-{i}").as_bytes());
            if i % 2 == 0 {
                assert!(r.is_ok());
            } else {
                assert_eq!(r, Err(Error::KeyNotFound));
            }
        }
        vclock::reset();
    }

    #[test]
    fn append_and_increment() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        assert_eq!(s.append(b"log", b"hello ").unwrap(), 6);
        assert_eq!(s.append(b"log", b"world").unwrap(), 11);
        assert_eq!(s.get(b"log").unwrap(), b"hello world");

        assert_eq!(s.increment(b"ctr", 5).unwrap(), 5);
        assert_eq!(s.increment(b"ctr", -2).unwrap(), 3);
        assert_eq!(s.get(b"ctr").unwrap(), b"3");

        s.set(b"text", b"not a number").unwrap();
        assert_eq!(s.increment(b"text", 1), Err(Error::ValueNotNumeric));
        vclock::reset();
    }

    #[test]
    fn increment_overflow_detected() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"c", i64::MAX.to_string().as_bytes()).unwrap();
        assert_eq!(s.increment(b"c", 1), Err(Error::NumericOverflow));
        vclock::reset();
    }

    #[test]
    fn key_hint_reduces_decryptions() {
        // One bucket, many keys: without hints, every search decrypts the
        // whole chain; with hints it decrypts ~1/256 of it (Fig. 9).
        let n = 64u32;
        let mut with_hint = shard_with(Config::shield_opt().buckets(1).mac_hashes(1));
        let mut without = shard_with(
            Config { key_hint: false, two_step_search: false, ..Config::shield_opt() }
                .buckets(1)
                .mac_hashes(1),
        );
        vclock::reset();
        for s in [&mut with_hint, &mut without] {
            for i in 0..n {
                s.set(format!("key-{i}").as_bytes(), b"v").unwrap();
            }
            s.reset_stats();
            for i in 0..n {
                s.get(format!("key-{i}").as_bytes()).unwrap();
            }
        }
        assert!(
            with_hint.stats().key_decryptions * 4 < without.stats().key_decryptions,
            "hints: {} vs no hints: {}",
            with_hint.stats().key_decryptions,
            without.stats().key_decryptions
        );
        vclock::reset();
    }

    #[test]
    fn integrity_violation_detected_on_value_tamper() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"victim", b"original-value").unwrap();
        // Corrupt the entry ciphertext in untrusted memory.
        let (handle, _) = {
            let main = s.main_table().unwrap();
            let mut found = None;
            main.for_each_entry(|b, h| found = Some((h, b)));
            found.unwrap()
        };
        let main = s.main.as_mut().unwrap();
        main.heap.bytes_at_mut(handle, entry::HEADER_LEN, 1)[0] ^= 0xff;
        assert!(matches!(s.get(b"victim"), Err(Error::IntegrityViolation { .. })));
        vclock::reset();
    }

    #[test]
    fn integrity_violation_detected_on_entry_removal() {
        // Unlinking an entry from the chain (availability attack on the
        // index) must be caught when the victim key is looked up: the
        // miss-path consistency check compares chain length against the
        // MAC chain. Other keys keep working (they prove themselves).
        let cfg = Config::shield_opt().buckets(1).mac_hashes(1);
        let mut s = shard_with(cfg);
        vclock::reset();
        s.set(b"a", b"1").unwrap();
        s.set(b"b", b"2").unwrap(); // chain head: b -> a
                                    // Drop the chain head ("b") behind the store's back.
        let main = s.main.as_mut().unwrap();
        let head = main.heads[0];
        let next = main.heap.read_u64_at(head, entry::OFF_NEXT);
        main.heads[0] = next;
        // The surviving key still reads correctly.
        assert_eq!(s.get(b"a").unwrap(), b"1");
        // The unlinked key surfaces as tampering, not a silent miss.
        assert!(matches!(s.get(b"b"), Err(Error::IntegrityViolation { .. })));
        // Inserting into the corrupted bucket is refused too.
        assert!(matches!(s.set(b"c", b"3"), Err(Error::IntegrityViolation { .. })));
        vclock::reset();
    }

    #[test]
    fn entry_removal_without_mac_bucket_detected_by_set_hash() {
        // Without MAC bucketing the gather walks the chain itself, so an
        // unlink changes the recomputed set hash for ANY access.
        let cfg = Config { mac_bucket: false, ..Config::shield_opt() }.buckets(1).mac_hashes(1);
        let mut s = shard_with(cfg);
        vclock::reset();
        s.set(b"a", b"1").unwrap();
        s.set(b"b", b"2").unwrap();
        let main = s.main.as_mut().unwrap();
        let head = main.heads[0];
        let next = main.heap.read_u64_at(head, entry::OFF_NEXT);
        main.heads[0] = next;
        assert!(matches!(s.get(b"a"), Err(Error::IntegrityViolation { .. })));
        vclock::reset();
    }

    #[test]
    fn hint_corruption_defeated_by_two_step_search() {
        let cfg = Config::shield_opt().buckets(1).mac_hashes(1);
        let mut s = shard_with(cfg);
        vclock::reset();
        s.set(b"target", b"payload").unwrap();
        // Attacker flips the key hint in untrusted memory. The MAC covers
        // the hint, so verification would fail on the *found* entry — but
        // first the search must still find it via the two-step fallback.
        let mut handle = None;
        s.main_table().unwrap().for_each_entry(|_, h| handle = Some(h));
        let main = s.main.as_mut().unwrap();
        main.heap.bytes_at_mut(handle.unwrap(), entry::OFF_HINT, 1)[0] ^= 0xff;
        // The hint is MAC-covered, so the get reports tampering rather
        // than silently missing the key (availability attack detected).
        let r = s.get(b"target");
        assert!(
            matches!(r, Err(Error::IntegrityViolation { .. })),
            "two-step search must find the entry and expose the tamper: {r:?}"
        );
        vclock::reset();
    }

    #[test]
    fn snapshot_freeze_serves_reads_and_absorbs_writes() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"stable", b"before").unwrap();
        s.set(b"mutated", b"before").unwrap();
        let frozen = s.freeze();
        assert!(s.is_snapshotting());

        // Reads hit the frozen table.
        assert_eq!(s.get(b"stable").unwrap(), b"before");
        // Writes land in the temp table and shadow the frozen value.
        s.set(b"mutated", b"after").unwrap();
        s.set(b"fresh", b"new").unwrap();
        assert_eq!(s.get(b"mutated").unwrap(), b"after");
        assert_eq!(s.get(b"fresh").unwrap(), b"new");
        // Deletes are tombstoned.
        s.delete(b"stable").unwrap();
        assert_eq!(s.get(b"stable"), Err(Error::KeyNotFound));

        // The frozen table is unchanged throughout.
        assert_eq!(frozen.count, 2);

        drop(frozen);
        s.unfreeze().unwrap();
        assert!(!s.is_snapshotting());
        assert_eq!(s.get(b"mutated").unwrap(), b"after");
        assert_eq!(s.get(b"fresh").unwrap(), b"new");
        assert_eq!(s.get(b"stable"), Err(Error::KeyNotFound));
        assert_eq!(s.len(), 2);
        vclock::reset();
    }

    #[test]
    fn unfreeze_fails_while_writer_active() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"k", b"v").unwrap();
        let frozen = s.freeze();
        assert!(matches!(s.unfreeze(), Err(Error::Persistence(_))));
        drop(frozen);
        s.unfreeze().unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v");
        vclock::reset();
    }

    #[test]
    fn snapshot_set_then_delete_then_set_roundtrips() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"k", b"v0").unwrap();
        let frozen = s.freeze();
        s.delete(b"k").unwrap();
        s.set(b"k", b"v1").unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v1");
        drop(frozen);
        s.unfreeze().unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v1");
        assert_eq!(s.len(), 1);
        vclock::reset();
    }

    #[test]
    fn cache_serves_hot_reads() {
        let mut s = shard_with(small_cfg().with_cache(1 << 16));
        s.enable_cache(1 << 16);
        vclock::reset();
        s.set(b"hot", b"value").unwrap();
        for _ in 0..10 {
            assert_eq!(s.get(b"hot").unwrap(), b"value");
        }
        assert!(s.stats().cache_hits >= 9, "cache hits: {}", s.stats().cache_hits);
        // Updates keep the cache coherent.
        s.set(b"hot", b"value2").unwrap();
        assert_eq!(s.get(b"hot").unwrap(), b"value2");
        s.delete(b"hot").unwrap();
        assert_eq!(s.get(b"hot"), Err(Error::KeyNotFound));
        vclock::reset();
    }

    #[test]
    fn empty_key_rejected() {
        let mut s = shard_with(small_cfg());
        assert!(matches!(s.set(b"", b"v"), Err(Error::OversizeItem { .. })));
    }

    #[test]
    fn multi_set_multi_get_roundtrip_with_misses() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..20u32)
            .map(|i| (format!("key-{i}").into_bytes(), format!("val-{i}").into_bytes()))
            .collect();
        let refs: Vec<(&[u8], &[u8])> =
            items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
        s.multi_set(&refs).unwrap();

        let mut lookups: Vec<&[u8]> = items.iter().map(|(k, _)| k.as_slice()).collect();
        lookups.push(b"absent-key");
        let got = s.multi_get(&lookups).unwrap();
        assert_eq!(got.len(), 21);
        for (i, (_, v)) in items.iter().enumerate() {
            assert_eq!(got[i].as_deref(), Some(v.as_slice()));
        }
        assert_eq!(got[20], None);
        assert_eq!(s.stats().batches, 2);
        assert_eq!(s.stats().batch_ops, 41);
        vclock::reset();
    }

    #[test]
    fn multi_set_duplicate_keys_last_write_wins() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.multi_set(&[
            (b"dup".as_slice(), b"first".as_slice()),
            (b"other", b"x"),
            (b"dup", b"second"),
            (b"dup", b"third"),
        ])
        .unwrap();
        assert_eq!(s.get(b"dup").unwrap(), b"third");
        assert_eq!(s.len(), 2);
        vclock::reset();
    }

    #[test]
    fn batch_on_one_bucket_set_verifies_once() {
        // One bucket => one bucket set: the whole batch shares a single
        // set hash, so the batched path derives it exactly once.
        let mut s = shard_with(Config::shield_opt().buckets(1).mac_hashes(1));
        vclock::reset();
        let items: Vec<(Vec<u8>, Vec<u8>)> =
            (0..16u32).map(|i| (format!("k{i}").into_bytes(), b"v".to_vec())).collect();
        let refs: Vec<(&[u8], &[u8])> =
            items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();

        s.reset_stats();
        s.multi_set(&refs).unwrap();
        assert_eq!(s.stats().integrity_verifications, 1);
        assert_eq!(s.stats().batch_verifications_saved, 15);
        assert_eq!(s.stats().batch_hash_updates_saved, 15);

        let lookups: Vec<&[u8]> = items.iter().map(|(k, _)| k.as_slice()).collect();
        s.reset_stats();
        let got = s.multi_get(&lookups).unwrap();
        assert!(got.iter().all(|r| r.is_some()));
        assert_eq!(s.stats().integrity_verifications, 1);
        assert_eq!(s.stats().batch_verifications_saved, 15);
        vclock::reset();
    }

    #[test]
    fn batched_and_per_op_paths_agree() {
        let mut batched = shard_with(small_cfg());
        let mut per_op = shard_with(small_cfg());
        vclock::reset();
        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..64u32)
            .map(|i| (format!("key-{i}").into_bytes(), format!("v{}", i * 7).into_bytes()))
            .collect();
        let refs: Vec<(&[u8], &[u8])> =
            items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
        batched.multi_set(&refs).unwrap();
        for (k, v) in &items {
            per_op.set(k, v).unwrap();
        }
        for (k, v) in &items {
            assert_eq!(batched.get(k).unwrap(), *v);
            assert_eq!(per_op.get(k).unwrap(), *v);
        }
        assert_eq!(batched.len(), per_op.len());
        vclock::reset();
    }

    #[test]
    fn multi_get_detects_tampering() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        for i in 0..8u32 {
            s.set(format!("k{i}").as_bytes(), b"value").unwrap();
        }
        use crate::testing::{EntryField, TamperOp};
        assert!(s.tamper(TamperOp::Field(EntryField::Any), 12345));
        let lookups: Vec<Vec<u8>> = (0..8u32).map(|i| format!("k{i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = lookups.iter().map(|k| k.as_slice()).collect();
        assert!(matches!(s.multi_get(&refs), Err(Error::IntegrityViolation { .. })));
        vclock::reset();
    }

    #[test]
    fn batched_ops_during_snapshot_fall_back() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"old", b"frozen-value").unwrap();
        let frozen = s.freeze();
        s.multi_set(&[(b"new".as_slice(), b"temp-value".as_slice())]).unwrap();
        let got = s.multi_get(&[b"old".as_slice(), b"new", b"none"]).unwrap();
        assert_eq!(got[0].as_deref(), Some(b"frozen-value".as_slice()));
        assert_eq!(got[1].as_deref(), Some(b"temp-value".as_slice()));
        assert_eq!(got[2], None);
        drop(frozen);
        s.unfreeze().unwrap();
        assert_eq!(s.get(b"new").unwrap(), b"temp-value");
        vclock::reset();
    }

    #[test]
    fn multi_set_rejects_invalid_item_before_mutating() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        let r = s.multi_set(&[(b"good".as_slice(), b"v".as_slice()), (b"", b"v")]);
        assert!(matches!(r, Err(Error::OversizeItem { .. })));
        // Validation happens before any write: nothing landed.
        assert_eq!(s.len(), 0);
        vclock::reset();
    }

    #[test]
    fn quarantine_isolates_bucket_set_after_violation() {
        let mut s = shard_with(small_cfg().with_ordered_index().with_quarantine());
        vclock::reset();
        for i in 0..32u32 {
            s.set(format!("k{i}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        use crate::testing::{EntryField, TamperOp};
        assert!(s.tamper(TamperOp::Field(EntryField::Any), 7));
        // First sweep: exactly one key (the corrupted entry) surfaces
        // the violation; later keys in its bucket set fail closed as
        // quarantined, every other partition keeps serving.
        let mut victim_set = None;
        for i in 0..32u32 {
            let k = format!("k{i}");
            match s.get(k.as_bytes()) {
                Ok(v) => assert_eq!(v, format!("v{i}").into_bytes()),
                Err(Error::IntegrityViolation { .. }) => {
                    assert!(victim_set.is_none(), "only the tampered entry itself fails open");
                    victim_set = Some(s.set_of_key(k.as_bytes()));
                }
                Err(Error::Quarantined { .. }) => {
                    assert_eq!(Some(s.set_of_key(k.as_bytes())), victim_set);
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        let victim_set = victim_set.expect("the sweep visits the tampered entry");
        let (whole, sets, violations) = s.quarantine_state();
        assert!(!whole);
        assert_eq!(sets, vec![victim_set]);
        assert_eq!(violations, 1);
        // Second sweep: Quarantined on the poisoned partition only, and
        // never a wrong value anywhere.
        for i in 0..32u32 {
            let k = format!("k{i}");
            let in_set = s.set_of_key(k.as_bytes()) == victim_set;
            match s.get(k.as_bytes()) {
                Ok(v) => {
                    assert!(!in_set);
                    assert_eq!(v, format!("v{i}").into_bytes());
                }
                Err(Error::Quarantined { .. }) => assert!(in_set),
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        // Every op class fails closed on the quarantined partition.
        let qk = (0..32u32)
            .map(|i| format!("k{i}"))
            .find(|k| s.set_of_key(k.as_bytes()) == victim_set)
            .unwrap();
        assert!(matches!(s.set(qk.as_bytes(), b"x"), Err(Error::Quarantined { .. })));
        assert!(matches!(s.delete(qk.as_bytes()), Err(Error::Quarantined { .. })));
        assert!(matches!(s.append(qk.as_bytes(), b"x"), Err(Error::Quarantined { .. })));
        assert!(matches!(s.increment(qk.as_bytes(), 1), Err(Error::Quarantined { .. })));
        assert!(matches!(s.exists(qk.as_bytes()), Err(Error::Quarantined { .. })));
        assert!(matches!(s.multi_get(&[qk.as_bytes()]), Err(Error::Quarantined { .. })));
        assert!(matches!(
            s.multi_set(&[(qk.as_bytes(), b"x".as_slice())]),
            Err(Error::Quarantined { .. })
        ));
        // Scans span partitions, so any quarantined set fails them.
        assert!(matches!(s.scan_prefix(b"k", 100), Err(Error::Quarantined { .. })));
        assert!(s.stats().quarantine_rejections > 0);
        vclock::reset();
    }

    #[test]
    fn quarantine_escalates_to_whole_shard_on_repeat_violation() {
        let mut s = shard_with(small_cfg().with_quarantine());
        vclock::reset();
        let keys: Vec<String> = (0..32).map(|i| format!("k{i}")).collect();
        for k in &keys {
            s.set(k.as_bytes(), b"value").unwrap();
        }
        use crate::testing::{EntryField, TamperOp};
        // First violation: one bucket set quarantined.
        assert!(s.tamper(TamperOp::Field(EntryField::Any), 1));
        for k in &keys {
            let _ = s.get(k.as_bytes());
        }
        let (whole, sets, violations) = s.quarantine_state();
        assert!(!whole);
        assert_eq!((sets.len(), violations), (1, 1));
        // Keep corrupting entries until one lands outside the
        // quarantined partition; that second observed violation must
        // escalate the quarantine to the whole shard.
        for seed in 2..200u64 {
            assert!(s.tamper(TamperOp::Field(EntryField::Any), seed));
            for k in &keys {
                let _ = s.get(k.as_bytes());
            }
            if s.quarantine_state().0 {
                break;
            }
        }
        let (whole, _, violations) = s.quarantine_state();
        assert!(whole, "a violation outside the first set must escalate to the shard");
        assert_eq!(violations, 2);
        // Now every key fails closed, whatever its partition.
        for k in &keys {
            assert!(matches!(s.get(k.as_bytes()), Err(Error::Quarantined { .. })));
        }
        vclock::reset();
    }

    #[test]
    fn quarantine_escalates_during_snapshot_freeze() {
        let mut s = shard_with(small_cfg().with_quarantine());
        vclock::reset();
        for i in 0..8u32 {
            s.set(format!("k{i}").as_bytes(), b"value").unwrap();
        }
        use crate::testing::{EntryField, TamperOp};
        assert!(s.tamper(TamperOp::Field(EntryField::Any), 99));
        // With a snapshot overlay live, writes span the temp table, so
        // per-set isolation cannot be trusted: the first violation
        // quarantines the whole shard.
        let frozen = s.freeze();
        for i in 0..8u32 {
            let _ = s.get(format!("k{i}").as_bytes());
        }
        assert!(s.quarantine_state().0, "freeze-time violation must quarantine the shard");
        drop(frozen);
        vclock::reset();
    }

    #[test]
    fn quarantine_requires_opt_in() {
        // Without Config::quarantine the shard keeps reporting the raw
        // verification outcome on every access (differential harnesses
        // depend on that), and records no quarantine state.
        let mut s = shard_with(small_cfg());
        vclock::reset();
        for i in 0..8u32 {
            s.set(format!("k{i}").as_bytes(), b"value").unwrap();
        }
        use crate::testing::{EntryField, TamperOp};
        assert!(s.tamper(TamperOp::Field(EntryField::Any), 3));
        let mut violations = 0;
        for _ in 0..2 {
            for i in 0..8u32 {
                match s.get(format!("k{i}").as_bytes()) {
                    Ok(_) => {}
                    Err(Error::IntegrityViolation { .. }) => violations += 1,
                    other => panic!("unexpected outcome: {other:?}"),
                }
            }
        }
        assert_eq!(violations, 2, "same violation reported on every access");
        assert_eq!(s.quarantine_state(), (false, Vec::new(), 0));
        assert_eq!(s.stats().quarantine_rejections, 0);
        vclock::reset();
    }

    #[test]
    fn mac_bucket_and_chain_gathers_agree() {
        // The same workload with and without MAC bucketing must behave
        // identically (the MAC bucket is an optimization, not semantics).
        let mut with = shard_with(small_cfg());
        let mut without = shard_with(Config { mac_bucket: false, ..small_cfg() });
        vclock::reset();
        for i in 0..100u32 {
            let k = format!("k{i}");
            with.set(k.as_bytes(), k.as_bytes()).unwrap();
            without.set(k.as_bytes(), k.as_bytes()).unwrap();
        }
        for i in (0..100u32).step_by(3) {
            let k = format!("k{i}");
            with.delete(k.as_bytes()).unwrap();
            without.delete(k.as_bytes()).unwrap();
        }
        for i in 0..100u32 {
            let k = format!("k{i}");
            assert_eq!(with.get(k.as_bytes()).is_ok(), without.get(k.as_bytes()).is_ok());
        }
        vclock::reset();
    }

    // -- tenancy, TTL, quota ------------------------------------------

    use crate::tenant::TenantQuota;

    #[test]
    fn tenants_are_isolated_namespaces() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set_t(1, b"k", b"one", 0).unwrap();
        s.set_t(2, b"k", b"two", 0).unwrap();
        s.set(b"k", b"zero").unwrap(); // tenant 0 sugar
        assert_eq!(s.get_t(1, b"k").unwrap(), b"one");
        assert_eq!(s.get_t(2, b"k").unwrap(), b"two");
        assert_eq!(s.get(b"k").unwrap(), b"zero");
        assert_eq!(s.len(), 3, "same key in three namespaces = three entries");
        assert_eq!(s.get_t(3, b"k"), Err(Error::KeyNotFound));
        s.delete_t(1, b"k").unwrap();
        assert_eq!(s.get_t(1, b"k"), Err(Error::KeyNotFound));
        assert_eq!(s.get_t(2, b"k").unwrap(), b"two", "delete stays in its namespace");
        vclock::reset();
    }

    #[test]
    fn cache_respects_tenant_namespaces() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.enable_cache(64 << 10);
        s.set_t(1, b"k", b"secret", 0).unwrap();
        assert_eq!(s.get_t(1, b"k").unwrap(), b"secret");
        assert_eq!(s.get_t(1, b"k").unwrap(), b"secret"); // cache hit
        assert!(s.stats().cache_hits >= 1);
        // Tenant 2's view of the same byte key must not touch tenant 1's
        // cached plaintext.
        assert_eq!(s.get_t(2, b"k"), Err(Error::KeyNotFound));
        vclock::reset();
    }

    #[test]
    fn ttl_lazy_expiry_and_sweep() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        let live = ttl::now_ns() + 3_600_000_000_000; // +1h
        s.set_t(0, b"eternal", b"e", 0).unwrap();
        s.set_t(0, b"live", b"l", live).unwrap();
        s.set_t(0, b"dead", b"d", 1).unwrap(); // long expired
        assert_eq!(s.len(), 3);

        // Lazy expiry: reads hide the dead entry without mutating.
        assert_eq!(s.get(b"dead"), Err(Error::KeyNotFound));
        assert_eq!(s.stats().expired_lazy, 1);
        assert_eq!(s.len(), 3, "lazy expiry does not remove");
        assert!(!s.exists(b"dead").unwrap());

        // Delete of an expired entry is KeyNotFound *without* removal:
        // physical reap is the sweep's job (it gets WAL-logged there).
        assert_eq!(s.delete(b"dead"), Err(Error::KeyNotFound));
        assert_eq!(s.len(), 3);

        let reaped = s.sweep_expired(ttl::now_ns());
        assert_eq!(reaped, vec![(0, b"dead".to_vec())]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.stats().expired_swept, 1);
        assert_eq!(s.get(b"eternal").unwrap(), b"e");
        assert_eq!(s.get(b"live").unwrap(), b"l");
        vclock::reset();
    }

    #[test]
    fn ttl_reset_on_set_and_cleared_by_merge_ops() {
        let mut s = shard_with(small_cfg());
        vclock::reset();

        // SET replaces the deadline wholesale (Redis semantics).
        s.set_t(0, b"k", b"v1", 1).unwrap();
        assert_eq!(s.get(b"k"), Err(Error::KeyNotFound));
        s.set(b"k", b"v2").unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v2", "overwrite revives: deadline replaced");

        // Append/increment clear any deadline: their WAL form is a plain
        // set of the produced value, which must replay deadline-free.
        let horizon = ttl::now_ns() + 3_600_000_000_000;
        s.set_t(0, b"n", b"5", horizon).unwrap();
        assert_eq!(s.increment(b"n", 2).unwrap(), 7);
        let far = ttl::now_ns() + 7_200_000_000_000; // past the old deadline
        assert!(s.sweep_expired(far).is_empty(), "increment cleared the deadline");
        assert_eq!(s.get(b"n").unwrap(), b"7");
        vclock::reset();
    }

    #[test]
    fn quota_rejects_inserts_but_allows_updates() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        let entry_cost = (entry::HEADER_LEN + 1 + 3) as u64; // 1-byte key, 3-byte value
        let quota = TenantQuota { max_bytes: 2 * entry_cost + 8, max_keys: 2, weight: 1 };
        s.registry.configure(7, quota);

        s.set_t(7, b"a", b"aaa", 0).unwrap();
        s.set_t(7, b"b", b"bbb", 0).unwrap();
        assert_eq!(
            s.set_t(7, b"c", b"ccc", 0),
            Err(Error::QuotaExceeded { tenant: 7 }),
            "third insert exceeds max_keys"
        );
        assert_eq!(s.stats().quota_rejections, 1);
        assert_eq!(s.len(), 2, "rejected insert left no residue");

        // Same-size update is free; growth must fit the byte budget.
        s.set_t(7, b"a", b"AAA", 0).unwrap();
        assert_eq!(
            s.set_t(7, b"a", vec![0u8; 64].as_slice(), 0),
            Err(Error::QuotaExceeded { tenant: 7 })
        );
        assert_eq!(s.get_t(7, b"a").unwrap(), b"AAA", "failed grow left old value");

        // Deleting frees budget for a new insert.
        s.delete_t(7, b"b").unwrap();
        s.set_t(7, b"c", b"ccc", 0).unwrap();
        let usage = &s.registry.state(7).usage;
        assert_eq!(usage.used_keys.load(AtomicOrdering::SeqCst), 2);
        assert_eq!(usage.used_bytes.load(AtomicOrdering::SeqCst), 2 * entry_cost);
        let tally = s.tenants[&7].tally.get();
        // One get and one delete hit; two of the six sets were rejected.
        assert_eq!((tally.sets, tally.quota_rejections, tally.gets, tally.hits), (6, 2, 1, 2));
        vclock::reset();
    }

    #[test]
    fn tenant_field_rewrite_fails_closed() {
        // An attacker re-stitching an entry into another namespace by
        // editing the plaintext tenant field must trip verification under
        // *both* the claimed and the true owner's keys.
        let mut cfg = small_cfg();
        cfg = cfg.buckets(1);
        let mut s = shard_with(cfg);
        vclock::reset();
        s.set_t(1, b"k", b"owned", 0).unwrap();

        let main = s.main.as_mut().unwrap();
        let mut handle = None;
        main.for_each_entry(|_, h| handle = Some(h));
        main.heap.bytes_at_mut(handle.unwrap(), entry::OFF_TENANT, 4)[0] ^= 0x03;

        assert!(matches!(s.get_t(2, b"k"), Err(Error::IntegrityViolation { .. })));
        assert!(matches!(s.get_t(1, b"k"), Err(Error::IntegrityViolation { .. })));
        vclock::reset();
    }
}
