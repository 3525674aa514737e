//! MAC buckets (paper §5.2).
//!
//! Verifying a bucket-set hash needs the MACs of *every* entry in the
//! bucket, even when the requested key is found early in the chain. Without
//! help, gathering them pointer-chases the whole entry chain. A *MAC
//! bucket* is a side array in untrusted memory holding only the MAC fields,
//! in chain order, so the gather is a couple of contiguous reads. Each node
//! holds up to `capacity` MACs (30 in the paper) and chains to another node
//! when a bucket outgrows it.
//!
//! ## Layout and node sizing
//!
//! A bucket with `n` MACs has `ceil(n / capacity)` nodes. Every node but
//! the last is full at `capacity`; the last holds the remainder `r` in
//! [`node_slots`]`(r)` = `min(capacity, r.next_power_of_two())` slots.
//! A typical bucket of one or two MACs therefore takes a 32 or 48 B
//! allocation instead of a full 492 B node. The slot count — and so the
//! allocation length — is a function of the MAC count alone, and the
//! store only ever acts on a count it has just verified against the
//! bucket-set hash (the enclave copy of the set's MACs). No capacity is
//! kept in untrusted memory, and every `free` passes the allocation's
//! true length. [`try_gather`] rejects any node chain that is not in this
//! canonical layout, so a verified count pins the layout exactly.
//!
//! Writes go through one routine, [`store`]: the caller edits its
//! verified copy of the bucket's MACs and hands back the whole list;
//! `store` reuses, resizes, allocates or frees nodes to fit it. Inserts
//! grow the tail node and removes shrink it exactly at slot-count
//! boundaries.

use crate::alloc::{Handle, UntrustedHeap, NULL_HANDLE};

const OFF_NEXT: usize = 0;
const OFF_COUNT: usize = 8;
const OFF_MACS: usize = 12;
const MAC_LEN: usize = 16;

/// Size in bytes of a MAC-bucket node with the given slot count.
pub fn node_len(slots: usize) -> usize {
    OFF_MACS + slots * MAC_LEN
}

/// MAC slots of the node holding `count` MACs: the next power of two,
/// capped at `capacity` (the size of every non-tail node).
pub fn node_slots(count: usize, capacity: usize) -> usize {
    count.checked_next_power_of_two().unwrap_or(usize::MAX).min(capacity)
}

/// MACs held by node `index` of a bucket holding `total` MACs.
fn node_count(total: usize, index: usize, capacity: usize) -> usize {
    total.saturating_sub(index.saturating_mul(capacity)).min(capacity)
}

/// Appends every MAC in the chain starting at `head` to `out`, in order.
///
/// The node chain lives in untrusted memory, so its `next` pointers and
/// `count` fields are attacker-writable. Returns `None` — which callers
/// surface as an integrity violation — when a node pointer does not
/// address readable memory, a count field points past its chunk, the
/// chain is not in the canonical layout (every node but the last full at
/// `capacity`, the last non-empty), or the walk exceeds `max_macs` MACs
/// (cycle / inflated counts), instead of panicking or looping forever.
/// Otherwise returns the number of MACs gathered.
pub fn try_gather(
    heap: &UntrustedHeap,
    head: Handle,
    out: &mut Vec<u8>,
    max_macs: usize,
    capacity: usize,
) -> Option<usize> {
    let mut node = head;
    let mut total = 0usize;
    while node != NULL_HANDLE {
        let count = heap.try_read_u32_at(node, OFF_COUNT)? as usize;
        let next = heap.try_read_u64_at(node, OFF_NEXT)?;
        let full = count == capacity;
        if count == 0 || count > capacity || (next != NULL_HANDLE && !full) {
            return None;
        }
        total = total.checked_add(count).filter(|&t| t <= max_macs)?;
        out.extend_from_slice(heap.try_bytes_at(node, OFF_MACS, count * MAC_LEN)?);
        node = next;
    }
    Some(total)
}

/// Rewrites the node chain at `head` to hold exactly `macs` (16-byte MACs
/// in chain order). `old_count` is the verified MAC count of the current
/// chain; node lengths are derived from it. Nodes whose slot count does
/// not change are rewritten in place; the others are freed and
/// reallocated at their new size, surplus nodes are freed, and `head` is
/// updated (null when `macs` is empty).
///
/// Returns `None` — an integrity violation — when the current chain does
/// not have the nodes `old_count` implies (a `next` pointer or node was
/// overwritten); nothing it cannot address is freed.
pub fn store(
    heap: &mut UntrustedHeap,
    head: &mut Handle,
    old_count: usize,
    macs: &[u8],
    capacity: usize,
) -> Option<()> {
    let capacity = capacity.max(1);
    // Check the whole current chain before changing anything, so a
    // broken chain fails without a partial rewrite.
    let mut node = *head;
    for index in 0..old_count.div_ceil(capacity) {
        let slots = node_slots(node_count(old_count, index, capacity), capacity);
        heap.try_bytes_at(node, 0, node_len(slots))?;
        node = heap.try_read_u64_at(node, OFF_NEXT)?;
    }
    let new_count = macs.len() / MAC_LEN;
    let nodes = old_count.div_ceil(capacity).max(new_count.div_ceil(capacity));
    let mut old = *head;
    let mut prev = NULL_HANDLE;
    *head = NULL_HANDLE;
    for index in 0..nodes {
        let old_n = node_count(old_count, index, capacity);
        let old_slots = if old_n == 0 { 0 } else { node_slots(old_n, capacity) };
        let next_old = if old_n == 0 { NULL_HANDLE } else { heap.try_read_u64_at(old, OFF_NEXT)? };
        let n = node_count(new_count, index, capacity);
        let slots = if n == 0 { 0 } else { node_slots(n, capacity) };
        let node = if slots == old_slots {
            old
        } else {
            if old_slots > 0 {
                heap.free(old, node_len(old_slots));
            }
            if slots > 0 {
                heap.alloc(node_len(slots))
            } else {
                NULL_HANDLE
            }
        };
        if n > 0 {
            let body = heap.try_bytes_at_mut(node, 0, node_len(n))?;
            let (header, slab) = body.split_at_mut(OFF_MACS);
            header[OFF_NEXT..OFF_COUNT].copy_from_slice(&NULL_HANDLE.to_le_bytes());
            header[OFF_COUNT..].copy_from_slice(&(n as u32).to_le_bytes());
            let first = index * capacity * MAC_LEN;
            slab.copy_from_slice(macs.get(first..first + n * MAC_LEN)?);
            if prev == NULL_HANDLE {
                *head = node;
            } else {
                heap.try_bytes_at_mut(prev, OFF_NEXT, 8)?.copy_from_slice(&node.to_le_bytes());
            }
            prev = node;
        }
        old = next_old;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocMode;
    use sgx_sim::enclave::EnclaveBuilder;
    use shield_crypto::Tag128;

    fn heap() -> UntrustedHeap {
        UntrustedHeap::new(
            EnclaveBuilder::new("macbucket-test").build(),
            AllocMode::Pooled { granularity: 1 << 20 },
        )
    }

    fn mac(i: u8) -> Tag128 {
        [i; 16]
    }

    /// One bucket's node chain plus the caller-side (verified) MAC list
    /// that every edit goes through, as the store does it.
    struct Bucket {
        head: Handle,
        macs: Vec<Tag128>,
        capacity: usize,
    }

    impl Bucket {
        fn new(capacity: usize) -> Self {
            Self { head: NULL_HANDLE, macs: Vec::new(), capacity }
        }

        fn edit(&mut self, h: &mut UntrustedHeap, f: impl FnOnce(&mut Vec<Tag128>)) {
            let old = self.macs.len();
            f(&mut self.macs);
            store(h, &mut self.head, old, &self.macs.concat(), self.capacity).unwrap();
        }

        fn insert_front(&mut self, h: &mut UntrustedHeap, m: Tag128) {
            self.edit(h, |v| v.insert(0, m));
        }

        fn insert_back(&mut self, h: &mut UntrustedHeap, m: Tag128) {
            self.edit(h, |v| v.push(m));
        }

        fn set_at(&mut self, h: &mut UntrustedHeap, idx: usize, m: Tag128) {
            self.edit(h, |v| v[idx] = m);
        }

        fn remove_at(&mut self, h: &mut UntrustedHeap, idx: usize) {
            self.edit(h, |v| {
                v.remove(idx);
            });
        }
    }

    fn gather_all(heap: &UntrustedHeap, head: Handle, capacity: usize) -> Vec<Tag128> {
        let mut out = Vec::new();
        try_gather(heap, head, &mut out, usize::MAX, capacity).unwrap();
        out.chunks(16).map(|c| c.try_into().unwrap()).collect()
    }

    fn collect(heap: &UntrustedHeap, b: &Bucket) -> Vec<u8> {
        gather_all(heap, b.head, b.capacity).iter().map(|m| m[0]).collect()
    }

    fn head_count(heap: &UntrustedHeap, head: Handle) -> usize {
        heap.try_read_u32_at(head, OFF_COUNT).unwrap() as usize
    }

    #[test]
    fn insert_front_orders_like_a_stack() {
        let mut h = heap();
        let mut b = Bucket::new(30);
        for i in 1..=5 {
            b.insert_front(&mut h, mac(i));
        }
        assert_eq!(collect(&h, &b), vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn overflow_cascades_to_chained_nodes() {
        let mut h = heap();
        let mut b = Bucket::new(3);
        // Capacity 3: inserting 8 MACs spans 3 nodes.
        for i in 1..=8 {
            b.insert_front(&mut h, mac(i));
        }
        assert_eq!(collect(&h, &b), vec![8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(head_count(&h, b.head), 3);
    }

    #[test]
    fn set_and_get_by_logical_index() {
        let mut h = heap();
        let mut b = Bucket::new(3);
        for i in 1..=7 {
            b.insert_front(&mut h, mac(i));
        }
        // Order is 7..1; position 4 holds mac(3).
        assert_eq!(gather_all(&h, b.head, 3)[4], mac(3));
        let live = h.live_bytes();
        b.set_at(&mut h, 4, mac(0xaa));
        assert_eq!(collect(&h, &b), vec![7, 6, 5, 4, 0xaa, 2, 1]);
        assert_eq!(h.live_bytes(), live, "an overwrite resizes nothing");
    }

    #[test]
    fn remove_middle_keeps_nodes_full() {
        let mut h = heap();
        let mut b = Bucket::new(3);
        for i in 1..=7 {
            b.insert_front(&mut h, mac(i));
        }
        // [7,6,5 | 4,3,2 | 1]; remove index 1 (mac 6).
        b.remove_at(&mut h, 1);
        assert_eq!(collect(&h, &b), vec![7, 5, 4, 3, 2, 1]);
        // First node must have been refilled to capacity 3.
        assert_eq!(head_count(&h, b.head), 3);
    }

    #[test]
    fn remove_frees_emptied_tail() {
        let mut h = heap();
        let mut b = Bucket::new(3);
        for i in 1..=4 {
            b.insert_front(&mut h, mac(i));
        }
        // [4,3,2 | 1]; removing any element should leave one node of 3.
        b.remove_at(&mut h, 3);
        assert_eq!(collect(&h, &b), vec![4, 3, 2]);
        let live_before = h.live_bytes();
        // Removing down to empty frees the head node too.
        b.remove_at(&mut h, 0);
        b.remove_at(&mut h, 0);
        b.remove_at(&mut h, 0);
        assert_eq!(b.head, NULL_HANDLE);
        assert!(h.live_bytes() < live_before);
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn remove_only_element() {
        let mut h = heap();
        let mut b = Bucket::new(30);
        b.insert_front(&mut h, mac(9));
        b.remove_at(&mut h, 0);
        assert_eq!(b.head, NULL_HANDLE);
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn insert_back_appends_in_order() {
        let mut h = heap();
        let mut b = Bucket::new(3);
        for i in 1..=8 {
            b.insert_back(&mut h, mac(i));
        }
        assert_eq!(collect(&h, &b), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn insert_back_equals_reversed_insert_front() {
        let mut back = heap();
        let mut front = heap();
        let mut b = Bucket::new(4);
        let mut f = Bucket::new(4);
        for i in 1..=10 {
            b.insert_back(&mut back, mac(i));
            f.insert_front(&mut front, mac(11 - i));
        }
        assert_eq!(collect(&back, &b), collect(&front, &f));
        assert_eq!(back.live_bytes(), front.live_bytes());
    }

    #[test]
    fn node_sizes_follow_the_count() {
        let mut h = heap();
        let mut b = Bucket::new(30);
        // Tail node slots 1, 2, 4, 4, 8 x4, 16 x8, 30 x14, then a
        // second node; live bytes are the class of each node's length.
        let class = |slots: usize| UntrustedHeap::class_len(node_len(slots));
        for n in 1..=31usize {
            b.insert_front(&mut h, mac(n as u8));
            let tail = if n <= 30 { node_slots(n, 30) } else { node_slots(n - 30, 30) };
            let full = if n > 30 { class(30) } else { 0 };
            assert_eq!(h.live_bytes(), full + class(tail), "{n} MACs");
        }
        assert_eq!(node_slots(3, 30), 4);
        assert_eq!(node_slots(17, 30), 30);
        assert_eq!(class(1), 32);
        assert_eq!(class(2), 48);
        for _ in 0..31 {
            b.remove_at(&mut h, 0);
        }
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn non_canonical_layout_rejected() {
        let mut h = heap();
        let mut b = Bucket::new(3);
        for i in 1..=4 {
            b.insert_front(&mut h, mac(i));
        }
        // Shrink the (full, non-tail) head node's count: the MAC sequence
        // could still be made to match, but the layout is not canonical.
        h.try_bytes_at_mut(b.head, OFF_COUNT, 4).unwrap().copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(try_gather(&h, b.head, &mut Vec::new(), 100, 3), None);
        // An empty node is never part of a bucket either.
        h.try_bytes_at_mut(b.head, OFF_COUNT, 4).unwrap().copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(try_gather(&h, b.head, &mut Vec::new(), 100, 3), None);
    }

    #[test]
    fn store_rejects_a_broken_chain_without_freeing() {
        let mut h = heap();
        let mut b = Bucket::new(3);
        for i in 1..=4 {
            b.insert_front(&mut h, mac(i));
        }
        let live = h.live_bytes();
        // Point the head node at unreadable memory.
        h.write_u64_at(b.head, OFF_NEXT, 0xdead_0000_0000);
        let mut head = b.head;
        assert_eq!(store(&mut h, &mut head, 4, &[0u8; 16], 3), None);
        assert_eq!(head, b.head);
        assert_eq!(h.live_bytes(), live);
    }

    #[test]
    fn mirror_of_reference_vector_under_random_ops() {
        let mut h = heap();
        let mut b = Bucket::new(4);
        let mut reference: Vec<Tag128> = Vec::new();
        let mut seed = 12345u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for step in 0u8..200 {
            let op = rng() % 3;
            if op == 0 || reference.is_empty() {
                let m = mac(step);
                b.insert_front(&mut h, m);
                reference.insert(0, m);
            } else if op == 1 {
                let idx = rng() % reference.len();
                let m = mac(step ^ 0x80);
                b.set_at(&mut h, idx, m);
                reference[idx] = m;
            } else {
                let idx = rng() % reference.len();
                b.remove_at(&mut h, idx);
                reference.remove(idx);
            }
            assert_eq!(gather_all(&h, b.head, 4), reference, "divergence at step {step}");
        }
    }
}
