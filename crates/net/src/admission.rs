//! Weighted fair admission control across tenants.
//!
//! PR 5's admission control was a single global in-flight cap: past
//! `max_in_flight` decoded-but-unanswered requests, everything sheds
//! `Busy`. That bounds total queueing but lets one flooding tenant own
//! every slot — a victim tenant behind the same server sees all its
//! requests shed while the aggressor's are served.
//!
//! [`FairAdmission`] keeps the global cap but divides it into weighted
//! per-tenant shares, computed over the tenants *currently holding
//! slots* (plus the requester):
//!
//! ```text
//! share(T) = max(1, cap * weight(T) / sum of active tenants' weights)
//! ```
//!
//! A tenant alone on the server gets the whole cap (the active set is
//! just itself — admission is work-conserving). When an aggressor and a
//! victim contend, each is clamped to its weighted share, so the victim
//! always finds slots no matter how hard the aggressor floods. Weights
//! come from the store's per-tenant quota configuration
//! ([`shieldstore::KvBackend::tenant_weight`]).
//!
//! "Active" means *holding slots or recently at the gate*: a tenant
//! that was just shed (demonstrated unmet demand) or just released a
//! slot (closed-loop client about to re-issue) stays in the share
//! computation for a short window ([`WAITING_WINDOW`]) even while it
//! holds nothing. Without the shed half, a flooding aggressor re-grabs
//! every freed slot before the victim's share ever shrinks; without
//! the release half, a victim's share collapses in the instant between
//! finishing one request and issuing the next, and its latency
//! oscillates. The window decays, so a tenant that departs stops
//! deflating everyone else's share and admission returns to
//! work-conserving.
//!
//! Sheds are recorded per tenant; the server overlays them onto the
//! `Stats` response's tenant rows.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How long a shed or a release keeps a slotless tenant in the active
/// set. Long enough to cover a retry or re-issue round-trip; short
/// enough that a departed tenant stops taxing the others almost
/// immediately.
pub const WAITING_WINDOW: Duration = Duration::from_millis(100);

/// Per-tenant slot accounting.
#[derive(Debug, Default)]
struct TenantSlot {
    inflight: usize,
    weight: u32,
    shed: u64,
    /// Refreshed on shed and on release: the tenant counts as active
    /// (it has demand) until this instant even while holding no slots.
    active_until: Option<Instant>,
}

impl TenantSlot {
    fn is_active(&self, now: Instant) -> bool {
        self.inflight > 0 || self.active_until.is_some_and(|t| t > now)
    }
}

#[derive(Debug, Default)]
struct Inner {
    total: usize,
    tenants: HashMap<u32, TenantSlot>,
}

/// Weighted fair in-flight admission. See the module docs.
#[derive(Debug)]
pub struct FairAdmission {
    cap: usize,
    inner: Mutex<Inner>,
}

impl FairAdmission {
    /// An admission gate over `cap` total in-flight slots.
    pub fn new(cap: usize) -> Self {
        Self { cap, inner: Mutex::new(Inner::default()) }
    }

    /// Tries to admit one request for `tenant` (whose configured weight
    /// is `weight`). `true` reserves a slot the caller must eventually
    /// return via [`FairAdmission::release`]; `false` means the request
    /// must be shed (the shed is already recorded against the tenant).
    pub fn try_admit(&self, tenant: u32, weight: u32) -> bool {
        self.try_admit_at(tenant, weight, Instant::now())
    }

    /// Deterministic-clock variant of [`FairAdmission::try_admit`]: the
    /// caller supplies `now`, so simulations and regression tests can
    /// drive the gate on a virtual timeline with no wall-clock
    /// flakiness. `now` must be monotone across calls.
    pub fn try_admit_at(&self, tenant: u32, weight: u32, now: Instant) -> bool {
        let weight = weight.max(1);
        let mut inner = self.inner.lock();
        // Everyone active *except the requester*, whose recorded weight
        // may be stale (quota reconfigured) — the requester is added
        // back at its current weight below, which also makes its share
        // well-defined on its very first request.
        let others: usize = inner
            .tenants
            .iter()
            .filter(|(id, s)| **id != tenant && s.is_active(now))
            .map(|(_, s)| s.weight.max(1) as usize)
            .sum();
        let active_weight = others + weight as usize;
        let share = (self.cap * weight as usize / active_weight.max(1)).max(1);
        let total = inner.total;
        let entry = inner.tenants.entry(tenant).or_default();
        entry.weight = weight;
        if total >= self.cap || entry.inflight >= share {
            entry.shed += 1;
            entry.active_until = Some(now + WAITING_WINDOW);
            return false;
        }
        entry.inflight += 1;
        inner.total += 1;
        true
    }

    /// Returns a slot previously granted to `tenant`.
    pub fn release(&self, tenant: u32) {
        self.release_at(tenant, Instant::now())
    }

    /// Deterministic-clock variant of [`FairAdmission::release`].
    pub fn release_at(&self, tenant: u32, now: Instant) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        if let Some(slot) = inner.tenants.get_mut(&tenant) {
            if slot.inflight > 0 {
                slot.inflight -= 1;
                // A closed-loop client re-issues right after completion;
                // keep the tenant's demand visible across that gap.
                slot.active_until = Some(now + WAITING_WINDOW);
                inner.total -= 1;
            }
        }
    }

    /// Total in-flight slots held right now (gauge).
    pub fn in_flight(&self) -> usize {
        self.inner.lock().total
    }

    /// Requests shed for `tenant` so far.
    pub fn shed_for(&self, tenant: u32) -> u64 {
        self.inner.lock().tenants.get(&tenant).map_or(0, |s| s.shed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_tenant_gets_the_whole_cap() {
        let a = FairAdmission::new(8);
        for _ in 0..8 {
            assert!(a.try_admit(1, 1));
        }
        assert!(!a.try_admit(1, 1), "cap still binds");
        assert_eq!(a.shed_for(1), 1);
        a.release(1);
        assert!(a.try_admit(1, 1), "released slot is reusable");
    }

    #[test]
    fn equal_weights_split_the_cap() {
        let a = FairAdmission::new(8);
        // Tenant 1 floods; once tenant 2 holds a slot, 1's share halves.
        for _ in 0..8 {
            a.try_admit(1, 1);
        }
        assert_eq!(a.in_flight(), 8);
        // Tenant 2 cannot enter a full house...
        assert!(!a.try_admit(2, 1));
        // ...but as soon as one slot frees, the victim's share (4) has
        // room while the aggressor (holding 7 >= 4) is clamped.
        a.release(1);
        assert!(!a.try_admit(1, 1), "aggressor is over its half share");
        assert!(a.try_admit(2, 1), "victim always finds a slot");
    }

    #[test]
    fn weights_skew_the_shares() {
        let a = FairAdmission::new(8);
        // Both active: weight 3 vs 1 gives shares 6 and 2.
        assert!(a.try_admit(1, 3));
        assert!(a.try_admit(2, 1));
        for _ in 0..5 {
            assert!(a.try_admit(1, 3));
        }
        assert!(!a.try_admit(1, 3), "weight-3 tenant capped at 6 of 8");
        assert!(a.try_admit(2, 1));
        assert!(!a.try_admit(2, 1), "weight-1 tenant capped at 2 of 8");
    }

    #[test]
    fn share_recovers_when_contender_leaves() {
        let a = FairAdmission::new(4);
        let t0 = Instant::now();
        assert!(a.try_admit_at(1, 1, t0));
        assert!(a.try_admit_at(2, 1, t0));
        assert!(a.try_admit_at(1, 1, t0));
        assert!(!a.try_admit_at(1, 1, t0), "half share while 2 is active");
        a.release_at(2, t0);
        // Tenant 2's demand lingers for the waiting window (it may be
        // about to re-issue), so tenant 1 stays clamped...
        assert!(!a.try_admit_at(1, 1, t0), "released demand still counts");
        // ...until the window decays; then the share is the whole cap.
        let later = t0 + WAITING_WINDOW + Duration::from_millis(1);
        assert!(a.try_admit_at(1, 1, later));
        assert!(a.try_admit_at(1, 1, later));
        assert_eq!(a.in_flight(), 4);
        assert!(!a.try_admit_at(1, 1, later), "cap still binds");
    }
}
