//! Process-wide crypto throughput counters.
//!
//! Every bulk primitive (CTR keystream application, CMAC finalization,
//! fused open) notes the bytes it processed here, and the store surfaces
//! the totals through `StatsSnapshot` so deployments can see both the
//! active backend and how much data the crypto layer is moving.
//!
//! The counters are kept per thread: each thread owns one cache-aligned
//! cell that only it writes, with a plain load and store (no
//! read-modify-write, no line shared with another core). A registry of
//! the live cells is summed when the totals are read, and a thread's
//! cell is folded into a retired total when the thread exits, so the
//! totals stay exact and the registry holds one cell per live thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One thread's counters, alone on its cache line.
#[derive(Default)]
#[repr(align(64))]
struct Cell {
    bytes: AtomicU64,
    ops: AtomicU64,
}

impl Cell {
    /// Adds to the counters. Only the owning thread writes a cell, so a
    /// load and a store are exact; readers see each counter monotone.
    #[inline]
    fn add(&self, bytes: u64, ops: u64) {
        self.bytes.store(self.bytes.load(Ordering::Relaxed) + bytes, Ordering::Relaxed);
        self.ops.store(self.ops.load(Ordering::Relaxed) + ops, Ordering::Relaxed);
    }
}

/// The live cells plus the totals of threads that have exited.
#[derive(Default)]
struct Registry {
    live: Vec<Arc<Cell>>,
    retired_bytes: u64,
    retired_ops: u64,
}

static REGISTRY: Mutex<Registry> =
    Mutex::new(Registry { live: Vec::new(), retired_bytes: 0, retired_ops: 0 });

/// Locks the registry. The guarded data is a list of cells and two
/// sums that every critical section leaves consistent, so a panic
/// elsewhere while it was held cannot have corrupted it.
fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The calling thread's registered cell; its drop retires the cell.
struct Local(Arc<Cell>);

impl Local {
    fn register() -> Self {
        let cell = Arc::new(Cell::default());
        registry().live.push(Arc::clone(&cell));
        Self(cell)
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        let mut reg = registry();
        reg.retired_bytes += self.0.bytes.load(Ordering::Relaxed);
        reg.retired_ops += self.0.ops.load(Ordering::Relaxed);
        reg.live.retain(|cell| !Arc::ptr_eq(cell, &self.0));
    }
}

thread_local! {
    static LOCAL: Local = Local::register();
}

/// Records one bulk crypto operation over `bytes` bytes.
#[inline]
pub(crate) fn note(bytes: usize) {
    if LOCAL.try_with(|local| local.0.add(bytes as u64, 1)).is_err() {
        // The thread's cell is already retired (crypto run by another
        // thread-local's destructor): count straight into the total.
        let mut reg = registry();
        reg.retired_bytes += bytes as u64;
        reg.retired_ops += 1;
    }
}

/// Total bytes processed by bulk crypto primitives since process start.
pub fn crypto_bytes() -> u64 {
    let reg = registry();
    reg.retired_bytes + reg.live.iter().map(|c| c.bytes.load(Ordering::Relaxed)).sum::<u64>()
}

/// Total bulk crypto operations (keystream applications, MAC
/// computations, fused opens) since process start.
pub fn crypto_ops() -> u64 {
    let reg = registry();
    reg.retired_ops + reg.live.iter().map(|c| c.ops.load(Ordering::Relaxed)).sum::<u64>()
}

/// Threads currently holding a counter cell: those that have run a
/// bulk primitive and not yet exited.
pub fn live_cells() -> usize {
    registry().live.len()
}

/// Name of the process-wide selected backend (`soft` / `aesni`).
pub fn backend_name() -> &'static str {
    crate::backend::selected_kind().name()
}

/// Numeric code of the process-wide selected backend (0 soft, 1 aesni).
pub fn backend_code() -> u64 {
    crate::backend::selected_kind().code()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The calling thread's own `(bytes, ops)`: exact even while other
    /// tests run crypto on their threads.
    fn local() -> (u64, u64) {
        LOCAL.with(|l| (l.0.bytes.load(Ordering::Relaxed), l.0.ops.load(Ordering::Relaxed)))
    }

    #[test]
    fn counters_advance_with_work() {
        let ctr = crate::ctr::AesCtr::new(&[1u8; 16]);
        let mac = crate::cmac::Cmac::new(&[2u8; 16]);
        let (b0, o0) = local();
        let g0 = (crypto_bytes(), crypto_ops());
        let mut data = [0u8; 100];
        ctr.apply_keystream(&[0u8; 16], &mut data);
        assert_eq!(local(), (b0 + 100, o0 + 1));
        mac.compute(&data[..40]);
        assert_eq!(local(), (b0 + 140, o0 + 2));
        // Other tests may add to the process totals concurrently.
        assert!(crypto_bytes() >= g0.0 + 140);
        assert!(crypto_ops() >= g0.1 + 2);
    }

    #[test]
    fn backend_name_matches_code() {
        match backend_code() {
            0 => assert_eq!(backend_name(), "soft"),
            1 => assert_eq!(backend_name(), "aesni"),
            other => panic!("unexpected backend code {other}"),
        }
    }
}
