//! Simulation counters.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Shared event counters for one simulated enclave.
///
/// All counters use relaxed atomics: they are statistics, not
/// synchronization. Events counted on every metered access (EPC hits)
/// use a [`ThreadCounter`], so concurrent workers never write a shared
/// cache line to count them.
#[derive(Debug, Default)]
pub struct SimStats {
    /// EPC demand-paging faults (page not resident).
    pub epc_faults: AtomicU64,
    /// Pages evicted from the EPC resident set.
    pub epc_evictions: AtomicU64,
    /// Evictions whose victim was dirty (required EWB writeback).
    pub epc_writebacks: AtomicU64,
    /// Resident EPC accesses (hits).
    pub epc_hits: ThreadCounter,
    /// ECALLs (untrusted -> enclave crossings).
    pub ecalls: AtomicU64,
    /// OCALLs (enclave -> untrusted crossings).
    pub ocalls: AtomicU64,
    /// HotCalls-style shared-memory calls (no crossing).
    pub hotcalls: AtomicU64,
    /// Bytes of untrusted memory obtained through chunk OCALLs.
    pub untrusted_bytes_allocated: AtomicU64,
    /// Simulated attacker mutations of untrusted state (fault-injection
    /// harnesses record each attack step they apply here).
    pub attack_steps: AtomicU64,
}

impl SimStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.epc_faults.store(0, Ordering::Relaxed);
        self.epc_evictions.store(0, Ordering::Relaxed);
        self.epc_writebacks.store(0, Ordering::Relaxed);
        self.epc_hits.reset();
        self.ecalls.store(0, Ordering::Relaxed);
        self.ocalls.store(0, Ordering::Relaxed);
        self.hotcalls.store(0, Ordering::Relaxed);
        self.untrusted_bytes_allocated.store(0, Ordering::Relaxed);
        self.attack_steps.store(0, Ordering::Relaxed);
    }

    /// Returns a plain-value snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            epc_faults: self.epc_faults.load(Ordering::Relaxed),
            epc_evictions: self.epc_evictions.load(Ordering::Relaxed),
            epc_writebacks: self.epc_writebacks.load(Ordering::Relaxed),
            epc_hits: self.epc_hits.get(),
            ecalls: self.ecalls.load(Ordering::Relaxed),
            ocalls: self.ocalls.load(Ordering::Relaxed),
            hotcalls: self.hotcalls.load(Ordering::Relaxed),
            untrusted_bytes_allocated: self.untrusted_bytes_allocated.load(Ordering::Relaxed),
            attack_steps: self.attack_steps.load(Ordering::Relaxed),
        }
    }

    /// Records one simulated attacker mutation of untrusted state.
    /// Called by fault-injection tooling, never by the store itself.
    #[inline]
    pub fn record_attack_step(&self) {
        Self::bump(&self.attack_steps);
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One thread's cell of a [`ThreadCounter`], alone on its cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Cell(AtomicU64);

/// The cells of one [`ThreadCounter`]: the live threads' cells plus the
/// total of threads that have exited.
#[derive(Debug, Default)]
struct Cells {
    live: Vec<Arc<Cell>>,
    retired: u64,
}

/// A counter kept in per-thread cells and summed when read.
///
/// Each thread that adds to the counter gets its own cache-aligned cell,
/// which only that thread writes (a plain load and store, no
/// read-modify-write), so counting from many cores writes no shared
/// line. Reading sums the live cells and the retired total; a thread's
/// cell is folded into the retired total when the thread exits, so the
/// count stays exact and the cell list holds one cell per live thread.
#[derive(Debug, Default)]
pub struct ThreadCounter {
    cells: Arc<Mutex<Cells>>,
    /// The sum at the last [`ThreadCounter::reset`].
    base: AtomicU64,
}

/// The calling thread's cells, one per counter it has added to. Dropped
/// at thread exit, which retires every cell whose counter still exists.
#[derive(Default)]
struct ThreadCells(Vec<(Weak<Mutex<Cells>>, Arc<Cell>)>);

impl Drop for ThreadCells {
    fn drop(&mut self) {
        for (owner, cell) in self.0.drain(..) {
            if let Some(owner) = owner.upgrade() {
                let mut cells = owner.lock();
                cells.retired += cell.0.load(Ordering::Relaxed);
                cells.live.retain(|c| !Arc::ptr_eq(c, &cell));
            }
        }
    }
}

thread_local! {
    static THREAD_CELLS: RefCell<ThreadCells> = RefCell::default();
}

impl ThreadCounter {
    /// Adds `n` to the calling thread's cell.
    #[inline]
    pub fn add(&self, n: u64) {
        let counted = THREAD_CELLS.try_with(|tc| {
            let mut tc = tc.borrow_mut();
            let owner = Arc::as_ptr(&self.cells);
            match tc.0.iter().find(|(o, _)| o.as_ptr() == owner) {
                Some((_, cell)) => {
                    cell.0.store(cell.0.load(Ordering::Relaxed) + n, Ordering::Relaxed)
                }
                None => {
                    // First add from this thread: drop the cells of
                    // counters that no longer exist, then register.
                    tc.0.retain(|(o, _)| o.strong_count() > 0);
                    let cell = Arc::new(Cell(AtomicU64::new(n)));
                    self.cells.lock().live.push(Arc::clone(&cell));
                    tc.0.push((Arc::downgrade(&self.cells), cell));
                }
            }
        });
        if counted.is_err() {
            // This thread's cells are already retired (its thread-locals
            // are being destroyed): count straight into the total.
            self.cells.lock().retired += n;
        }
    }

    /// The count since creation or the last [`ThreadCounter::reset`].
    pub fn get(&self) -> u64 {
        self.sum().wrapping_sub(self.base.load(Ordering::Relaxed))
    }

    /// Restarts the count from zero. Concurrent adds are never lost:
    /// the reset records the current sum as the new base.
    pub fn reset(&self) {
        self.base.store(self.sum(), Ordering::Relaxed);
    }

    /// Threads holding a live cell of this counter.
    pub fn live_cells(&self) -> usize {
        self.cells.lock().live.len()
    }

    fn sum(&self) -> u64 {
        let cells = self.cells.lock();
        cells.retired + cells.live.iter().map(|c| c.0.load(Ordering::Relaxed)).sum::<u64>()
    }
}

/// A point-in-time copy of [`SimStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// EPC demand-paging faults.
    pub epc_faults: u64,
    /// Pages evicted from the resident set.
    pub epc_evictions: u64,
    /// Dirty-victim writebacks.
    pub epc_writebacks: u64,
    /// Resident EPC accesses.
    pub epc_hits: u64,
    /// ECALL crossings.
    pub ecalls: u64,
    /// OCALL crossings.
    pub ocalls: u64,
    /// HotCalls.
    pub hotcalls: u64,
    /// Untrusted bytes allocated via chunk OCALLs.
    pub untrusted_bytes_allocated: u64,
    /// Simulated attacker mutations recorded via
    /// [`SimStats::record_attack_step`].
    pub attack_steps: u64,
}

impl StatsSnapshot {
    /// Fault rate as a fraction of all metered EPC accesses.
    pub fn fault_rate(&self) -> f64 {
        let total = self.epc_faults + self.epc_hits;
        if total == 0 {
            0.0
        } else {
            self.epc_faults as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = SimStats::new();
        SimStats::bump(&s.epc_faults);
        SimStats::bump(&s.epc_faults);
        s.epc_hits.add(1);
        let snap = s.snapshot();
        assert_eq!(snap.epc_faults, 2);
        assert_eq!(snap.epc_hits, 1);
        assert!((snap.fault_rate() - 2.0 / 3.0).abs() < 1e-12);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn thread_counter_is_exact_across_threads_and_resets() {
        let c = Arc::new(ThreadCounter::default());
        c.add(5);
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add(t + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 5 + 1000 * (1 + 2 + 3 + 4));
        // The exited threads' cells were folded away; only ours is live.
        assert_eq!(c.live_cells(), 1);
        c.reset();
        assert_eq!(c.get(), 0);
        c.add(2);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn fault_rate_zero_when_untouched() {
        assert_eq!(StatsSnapshot::default().fault_rate(), 0.0);
    }
}
