//! The Enclave Page Cache model.
//!
//! Real SGX backs enclave pages with a reserved, encrypted region of
//! physical memory (128 MB on the paper's hardware, ~90 MB effective after
//! integrity metadata). When an enclave touches a page that is not resident,
//! the kernel driver evicts a victim (EWB: encrypt + writeback), loads and
//! decrypts the target (ELDU), and re-enters the enclave — a demand-paging
//! fault costing tens of microseconds. Crucially, fault handling is
//! serialized in the driver, which is why the paper's baseline stops scaling
//! past two threads (Fig. 13).
//!
//! This model keeps a bounded resident set of page numbers with CLOCK
//! (second-chance) eviction. A miss charges the fault penalty to the calling
//! thread's [`crate::vclock`] and occupies a global *fault channel* so that
//! concurrent faults queue behind each other in virtual time.

use crate::cost::CostModel;
use crate::stats::SimStats;
use crate::vclock;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// One resident-set slot. The page and its CLOCK bits are atomics so a
/// hit can be served without the state lock; only faults (under the
/// lock) change which page a slot holds.
#[derive(Debug)]
struct Slot {
    page: AtomicU64,
    referenced: AtomicBool,
    dirty: AtomicBool,
}

impl Slot {
    /// Marks the slot's page accessed. Each bit is stored only when it is
    /// clear, so repeated hits on a hot page write nothing.
    #[inline]
    fn mark(&self, write: bool) {
        if !self.referenced.load(Ordering::Relaxed) {
            self.referenced.store(true, Ordering::Relaxed);
        }
        if write && !self.dirty.load(Ordering::Relaxed) {
            self.dirty.store(true, Ordering::Relaxed);
        }
    }
}

#[derive(Debug)]
struct EpcState {
    /// Slots holding a page. Slots fill in index order and, once all are
    /// used, stay full: a fault then replaces a victim in place.
    used: usize,
    clock_hand: usize,
    /// Virtual-time end of the last fault service; faults queue behind it.
    fault_channel_busy_until: u64,
}

/// The EPC resident-set model shared by all threads of one enclave.
///
/// Hits are resolved without a lock, as SGX hardware resolves them: a
/// page → slot table is probed with atomic loads and the slot's page is
/// checked. Faults and evictions take the state lock and run the CLOCK
/// sweep exactly as a serial model would, so for any single-threaded
/// touch sequence the fault, eviction and writeback sequence does not
/// depend on the lock-free path. A concurrent probe can miss a page that
/// a fault is moving within the table; it then falls back to the lock
/// and finds it there, so every touch counts once, as a hit or a fault.
#[derive(Debug)]
pub struct Epc {
    budget_pages: usize,
    cost: CostModel,
    slots: Box<[Slot]>,
    /// Open-addressed page → slot table with linear probing: `0` is an
    /// empty entry, otherwise the entry is slot index + 1. Written only
    /// under `state`, read without it. At least twice the budget in
    /// size, so a probe always ends at an empty entry.
    table: Box<[AtomicU32]>,
    state: Mutex<EpcState>,
    /// Acquisitions of `state`: faults, and the diagnostic accessors.
    lock_acquisitions: AtomicU64,
    stats: Arc<SimStats>,
}

/// Page number of an empty slot (no real page number reaches it).
const NO_PAGE: u64 = u64::MAX;

impl Epc {
    /// Creates an EPC with room for `budget_pages` resident pages.
    ///
    /// A budget of zero disables paging entirely (every access is treated
    /// as a hit), which models the `NoSGX` configuration. The resident
    /// set's bookkeeping is allocated up front: 24 to 32 bytes per page
    /// of budget.
    pub fn new(budget_pages: usize, cost: CostModel, stats: Arc<SimStats>) -> Self {
        assert!(budget_pages < u32::MAX as usize / 2, "EPC budget exceeds the slot table");
        let slots = (0..budget_pages)
            .map(|_| Slot {
                page: AtomicU64::new(NO_PAGE),
                referenced: AtomicBool::new(false),
                dirty: AtomicBool::new(false),
            })
            .collect();
        let table_len = if budget_pages == 0 { 0 } else { (2 * budget_pages).next_power_of_two() };
        Self {
            budget_pages,
            cost,
            slots,
            table: (0..table_len).map(|_| AtomicU32::new(0)).collect(),
            state: Mutex::new(EpcState { used: 0, clock_hand: 0, fault_channel_busy_until: 0 }),
            lock_acquisitions: AtomicU64::new(0),
            stats,
        }
    }

    /// Returns the resident-set budget in pages.
    pub fn budget_pages(&self) -> usize {
        self.budget_pages
    }

    /// How many times the resident-set state lock has been taken. A
    /// touch takes it only to service a fault, so a workload whose pages
    /// are all resident leaves this unchanged.
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, EpcState> {
        let st = self.state.lock();
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        st
    }

    /// Home position of `page` in the table (Fibonacci hashing).
    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (self.table.len() - 1)
    }

    /// Finds the slot holding `page`, or `None`. Exact under the lock;
    /// without it, a page being moved by a concurrent fault may be
    /// missed (never misreported: the slot's own page is checked).
    #[inline]
    fn find(&self, page: u64) -> Option<usize> {
        let mask = self.table.len() - 1;
        let mut i = self.home(page);
        for _ in 0..self.table.len() {
            let entry = self.table[i].load(Ordering::Acquire);
            if entry == 0 {
                return None;
            }
            let slot = entry as usize - 1;
            if self.slots[slot].page.load(Ordering::Acquire) == page {
                return Some(slot);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Enters `page → slot` in the table. Caller holds the lock and
    /// `page` is not in the table.
    fn index(&self, page: u64, slot: usize) {
        let mask = self.table.len() - 1;
        let mut i = self.home(page);
        while self.table[i].load(Ordering::Relaxed) != 0 {
            i = (i + 1) & mask;
        }
        self.table[i].store(slot as u32 + 1, Ordering::Release);
    }

    /// Removes `page`'s entry with backward-shift deletion (no
    /// tombstones). Caller holds the lock and `page` is in the table.
    fn unindex(&self, page: u64) {
        let mask = self.table.len() - 1;
        let mut hole = self.home(page);
        while self.slot_page(hole) != Some(page) {
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let entry = self.table[j].load(Ordering::Relaxed);
            let Some(moved) = self.slot_page(j) else { break };
            // The entry at `j` may fill the hole unless its home lies
            // cyclically in `(hole, j]`.
            let home = self.home(moved);
            if (j.wrapping_sub(home) & mask) < (j.wrapping_sub(hole) & mask) {
                continue;
            }
            self.table[hole].store(entry, Ordering::Release);
            hole = j;
        }
        self.table[hole].store(0, Ordering::Release);
    }

    /// The page held by the slot that table entry `i` names.
    fn slot_page(&self, i: usize) -> Option<u64> {
        match self.table[i].load(Ordering::Relaxed) {
            0 => None,
            entry => Some(self.slots[entry as usize - 1].page.load(Ordering::Relaxed)),
        }
    }

    /// Touches `page` (a virtual page number), faulting it in if needed.
    ///
    /// `write` marks the page dirty, making its later eviction charge the
    /// EWB writeback surcharge.
    #[inline]
    pub fn touch(&self, page: u64, write: bool) {
        if self.budget_pages == 0 {
            return;
        }
        if let Some(slot) = self.find(page) {
            self.slots[slot].mark(write);
            self.stats.epc_hits.add(1);
            return;
        }
        self.touch_locked(page, write);
    }

    /// The fault path: re-checks residency under the lock, then faults.
    fn touch_locked(&self, page: u64, write: bool) {
        let mut st = self.lock();
        if let Some(slot) = self.find(page) {
            self.slots[slot].mark(write);
            self.stats.epc_hits.add(1);
            return;
        }

        // Fault path: queue on the serialized fault channel in virtual time.
        SimStats::bump(&self.stats.epc_faults);
        let mut service_ns = self.cost.fault_ns();

        // Evict a victim with CLOCK if the resident set is full.
        let slot = if st.used >= self.budget_pages {
            // Lock-free hits may set reference bits behind the hand; after
            // two full sweeps the hand takes its slot regardless, so the
            // sweep ends. A serial sweep always ends within one.
            let mut steps = 0;
            loop {
                let hand = st.clock_hand;
                st.clock_hand = (hand + 1) % st.used;
                let victim = &self.slots[hand];
                if victim.referenced.load(Ordering::Relaxed) && steps < 2 * st.used {
                    victim.referenced.store(false, Ordering::Relaxed);
                    steps += 1;
                    continue;
                }
                self.unindex(victim.page.load(Ordering::Relaxed));
                SimStats::bump(&self.stats.epc_evictions);
                if victim.dirty.load(Ordering::Relaxed) {
                    SimStats::bump(&self.stats.epc_writebacks);
                    service_ns += self.cost.writeback_ns();
                }
                break hand;
            }
        } else {
            st.used += 1;
            st.used - 1
        };
        let fresh = &self.slots[slot];
        fresh.referenced.store(true, Ordering::Relaxed);
        fresh.dirty.store(write, Ordering::Relaxed);
        fresh.page.store(page, Ordering::Release);
        self.index(page, slot);

        let now = vclock::now();
        let start = now.max(st.fault_channel_busy_until);
        let end = start + service_ns;
        st.fault_channel_busy_until = end;
        drop(st);
        vclock::advance_to(end);
    }

    /// Touches every page overlapping `[addr, addr + len)`.
    pub fn touch_range(&self, addr: u64, len: usize, write: bool) {
        if self.budget_pages == 0 || len == 0 {
            return;
        }
        let first = addr >> 12;
        let last = (addr + len as u64 - 1) >> 12;
        for page in first..=last {
            self.touch(page, write);
        }
    }

    /// Charges the MEE per-cacheline overhead for an access of `len` bytes
    /// starting at `addr`.
    #[inline]
    pub fn charge_mee(&self, addr: u64, len: usize) {
        if self.cost.mee_cacheline_ns == 0 || len == 0 {
            return;
        }
        let first = addr / crate::CACHELINE as u64;
        let last = (addr + len as u64 - 1) / crate::CACHELINE as u64;
        let lines = last - first + 1;
        vclock::charge(lines * self.cost.mee_cacheline_ns);
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.lock().used
    }

    /// Returns true if `page` is resident (test/diagnostic helper).
    pub fn is_resident(&self, page: u64) -> bool {
        let _st = self.lock();
        self.budget_pages > 0 && self.find(page).is_some()
    }

    /// Resets the fault-serialization channel's virtual timestamp.
    ///
    /// Per-thread virtual clocks restart from zero at each measurement
    /// phase (see [`crate::vclock::reset`]); the channel's `busy_until`
    /// must restart with them or the first fault of a new phase would
    /// queue behind the *previous* phase's entire backlog. Harnesses call
    /// this at the start of every measured run. The resident set is
    /// deliberately left warm.
    pub fn reset_fault_channel(&self) {
        self.lock().fault_channel_busy_until = 0;
    }

    /// Drops every resident page (e.g. simulated enclave teardown).
    pub fn flush(&self) {
        let mut st = self.lock();
        for entry in self.table.iter() {
            entry.store(0, Ordering::Release);
        }
        for slot in &self.slots[..st.used] {
            slot.page.store(NO_PAGE, Ordering::Release);
            slot.referenced.store(false, Ordering::Relaxed);
            slot.dirty.store(false, Ordering::Relaxed);
        }
        st.used = 0;
        st.clock_hand = 0;
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epc(pages: usize) -> Epc {
        Epc::new(pages, CostModel::I7_7700, Arc::new(SimStats::new()))
    }

    #[test]
    fn hit_after_fault() {
        let e = epc(4);
        vclock::reset();
        e.touch(7, false);
        assert_eq!(e.stats.snapshot().epc_faults, 1);
        e.touch(7, false);
        let snap = e.stats.snapshot();
        assert_eq!(snap.epc_faults, 1);
        assert_eq!(snap.epc_hits, 1);
        assert!(e.is_resident(7));
        vclock::reset();
    }

    #[test]
    fn eviction_when_full() {
        let e = epc(2);
        vclock::reset();
        e.touch(1, false);
        e.touch(2, false);
        e.touch(3, false); // must evict
        let snap = e.stats.snapshot();
        assert_eq!(snap.epc_faults, 3);
        assert_eq!(snap.epc_evictions, 1);
        assert_eq!(e.resident_pages(), 2);
        vclock::reset();
    }

    #[test]
    fn dirty_eviction_charges_writeback() {
        let e = epc(1);
        vclock::reset();
        e.touch(1, true); // dirty
        let after_first = vclock::now();
        e.touch(2, false); // evicts dirty page 1
        let snap = e.stats.snapshot();
        assert_eq!(snap.epc_writebacks, 1);
        let delta = vclock::now() - after_first;
        assert_eq!(delta, e.cost.fault_ns() + e.cost.writeback_ns());
        vclock::reset();
    }

    #[test]
    fn clock_gives_second_chance() {
        let e = epc(3);
        vclock::reset();
        e.touch(1, false);
        e.touch(2, false);
        e.touch(3, false);
        // First fault sweeps all reference bits clear and evicts page 1.
        e.touch(4, false);
        assert!(!e.is_resident(1));
        // Re-reference page 2: the next fault must skip it and evict the
        // unreferenced page 3 instead.
        e.touch(2, false);
        e.touch(5, false);
        assert!(e.is_resident(2), "recently referenced page should survive");
        assert!(!e.is_resident(3));
        assert!(e.is_resident(4) && e.is_resident(5));
        vclock::reset();
    }

    #[test]
    fn zero_budget_disables_model() {
        let e = epc(0);
        vclock::reset();
        e.touch(1, true);
        e.touch_range(0, 1 << 20, true);
        assert_eq!(e.stats.snapshot().epc_faults, 0);
        assert_eq!(vclock::now(), 0);
    }

    #[test]
    fn touch_range_spans_pages() {
        let e = epc(16);
        vclock::reset();
        // 3 pages: [4096, 4096*4).
        e.touch_range(4096, 3 * 4096, false);
        assert_eq!(e.stats.snapshot().epc_faults, 3);
        // One byte crossing a boundary touches both pages.
        e.touch_range(4 * 4096 - 1, 2, false);
        assert_eq!(e.stats.snapshot().epc_faults, 4); // pages 3 and 4; 3 was resident
        vclock::reset();
    }

    #[test]
    fn faults_serialize_in_virtual_time() {
        let e = Arc::new(epc(1));
        vclock::reset();
        // Two threads each fault once starting from virtual time zero; the
        // channel must make their end times cumulative, so the later one
        // exceeds a single service time.
        let fault_ns = e.cost.fault_ns();
        let mut ends = Vec::new();
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                vclock::reset();
                e.touch(100 + t, false);
                vclock::now()
            }));
        }
        for h in handles {
            ends.push(h.join().unwrap());
        }
        ends.sort_unstable();
        assert!(ends[0] >= fault_ns);
        assert!(ends[1] >= 2 * fault_ns, "second fault must queue behind the first: {ends:?}");
        vclock::reset();
    }

    #[test]
    fn mee_charge_per_cacheline() {
        let e = epc(4);
        vclock::reset();
        e.charge_mee(0, 64);
        assert_eq!(vclock::now(), e.cost.mee_cacheline_ns);
        // Bytes [63, 128) span cachelines 0 and 1.
        vclock::reset();
        e.charge_mee(63, 65);
        assert_eq!(vclock::now(), 2 * e.cost.mee_cacheline_ns);
        // Bytes [63, 129) span cachelines 0, 1 and 2.
        vclock::reset();
        e.charge_mee(63, 66);
        assert_eq!(vclock::now(), 3 * e.cost.mee_cacheline_ns);
        vclock::reset();
    }
}
