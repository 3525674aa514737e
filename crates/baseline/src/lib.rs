//! Baseline key-value stores for the ShieldStore reproduction.
//!
//! The paper compares ShieldStore against four systems; all are
//! implemented here on top of the same [`sgx_sim`] substrate:
//!
//! * [`naive::NaiveEnclaveStore`] — the paper's **Baseline**: a chained
//!   hash table placed entirely in enclave memory, so every access beyond
//!   the EPC budget demand-pages (§3.1, Figs. 3, 10-13).
//! * [`naive::NaiveEnclaveStore::insecure`] — the same store without SGX
//!   (the paper's **NoSGX** / *Insecure Baseline*).
//! * [`memcached::MemcachedLike`] — a memcached-flavoured store (slab
//!   classes, striped locks, a maintainer thread that holds locks) run
//!   under a Graphene-style libOS inside the enclave (Table 1, Fig. 13).
//! * [`eleos::EleosStore`] — Eleos-style **user-space paging**: an
//!   in-enclave secure page cache backed by page-granularity encrypted
//!   untrusted memory, with a memsys5-like 2 GB pool limit (Figs. 16-17).
//!
//! The [`KvBackend`] trait (defined in `shieldstore`, re-exported here)
//! gives the benchmark harness one interface over every store, including
//! ShieldStore itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eleos;
pub mod memcached;
pub mod naive;

pub use eleos::EleosStore;
pub use memcached::MemcachedLike;
pub use naive::NaiveEnclaveStore;

// The serving trait lives in core, next to the store it was written
// for; it is re-exported here because every comparison store implements
// it and the figure harness names it through this crate.
pub use shieldstore::{KvBackend, OpError, OpResult};
