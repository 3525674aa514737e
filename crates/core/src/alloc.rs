//! The custom untrusted-memory heap allocator (paper §5.1).
//!
//! ShieldStore's data entries live in *untrusted* memory, but the code that
//! allocates them runs *inside* the enclave. The stock SGX SDK offers two
//! heaps: the trusted one (allocates enclave memory — useless here) and the
//! conventional untrusted one (every call OCALLs out of the enclave —
//! ~8,000 cycles each). The paper adds a third: an allocator that runs in
//! the enclave, carves allocations from a pool of untrusted chunks, and
//! OCALLs (`sbrk`/`mmap`) only when the pool runs dry. Fig. 6 sweeps the
//! chunk granularity from 1 to 32 MiB and settles on 16 MiB.
//!
//! [`UntrustedHeap`] implements both modes behind [`AllocMode`]. Handles
//! are opaque non-zero `u64`s packing `(chunk index + 1, byte offset)`, so
//! `0` serves as the null chain terminator. Each shard owns its heap
//! exclusively (`&mut self` for writes), matching the paper's
//! synchronization-free partitioning.
//!
//! ## Size classes
//!
//! Allocations are rounded up to one fixed table of classes:
//!
//! | lengths | classes |
//! |---|---|
//! | 1–128 B | 16 B steps: 16, 32, …, 128 |
//! | above 128 B | 8 per power of two: 144, 160, …, 256, 288, 320, …, 512, 576, … |
//! | ≥ chunk granularity | a dedicated (jumbo) chunk of the class size |
//!
//! Above 128 B a class exceeds its length by at most 12.5%, so a 333 B
//! entry takes 352 B rather than the 512 B of a power-of-two class, while
//! a value that grows by a few bytes still usually updates in place.
//! Jumbo chunks go back to the host when freed; their chunk slot is then
//! empty (a stale handle fails every checked access) until a later jumbo
//! allocation reuses it.

use crate::config::AllocMode;
use sgx_sim::enclave::Enclave;
use std::sync::Arc;

/// An opaque handle to an untrusted-memory allocation. `NULL_HANDLE` (0)
/// never denotes a live allocation.
pub type Handle = u64;

/// The null handle: terminates entry chains.
pub const NULL_HANDLE: Handle = 0;

/// Lengths up to this are rounded to [`SMALL_STEP`] multiples.
const SMALL_LIMIT: usize = 128;
/// Class step below [`SMALL_LIMIT`] (and the minimum class).
const SMALL_STEP: usize = 16;
/// Number of classes at or below [`SMALL_LIMIT`].
const SMALL_CLASSES: usize = SMALL_LIMIT / SMALL_STEP;
/// Classes per power of two above [`SMALL_LIMIT`].
const CLASSES_PER_OCTAVE: usize = 8;
/// `log2(SMALL_LIMIT)`: the first octave split into sub-octave classes.
const FIRST_OCTAVE: usize = SMALL_LIMIT.trailing_zeros() as usize;

/// Index of the smallest class holding `len` bytes. Monotone in `len`.
#[inline]
fn class_index(len: usize) -> usize {
    if len <= SMALL_LIMIT {
        return len.saturating_sub(1) / SMALL_STEP;
    }
    // 2^octave < len <= 2^(octave + 1), octave >= FIRST_OCTAVE.
    let octave = (len - 1).ilog2() as usize;
    let step = 1usize << (octave - CLASSES_PER_OCTAVE.trailing_zeros() as usize);
    let sub = (len - 1 - (1usize << octave)) / step;
    SMALL_CLASSES + (octave - FIRST_OCTAVE) * CLASSES_PER_OCTAVE + sub
}

/// Byte size of class `index` (inverse of [`class_index`]).
#[inline]
fn class_size(index: usize) -> usize {
    if index < SMALL_CLASSES {
        return (index + 1) * SMALL_STEP;
    }
    let octave = FIRST_OCTAVE + (index - SMALL_CLASSES) / CLASSES_PER_OCTAVE;
    let sub = (index - SMALL_CLASSES) % CLASSES_PER_OCTAVE + 1;
    let step = 1usize << (octave - CLASSES_PER_OCTAVE.trailing_zeros() as usize);
    (1usize << octave).saturating_add(sub * step)
}

#[inline]
fn pack(chunk: usize, offset: usize) -> Handle {
    (((chunk + 1) as u64) << 32) | offset as u64
}

/// Splits a handle into `(chunk index, offset)`. The null handle (and any
/// corrupt handle with a zero chunk field) maps to chunk `usize::MAX`,
/// which no chunk table reaches: checked accessors return `None` for it
/// and the unchecked ones fail their bounds check.
#[inline]
fn unpack(h: Handle) -> (usize, usize) {
    (((h >> 32) as usize).wrapping_sub(1), (h & 0xffff_ffff) as usize)
}

/// An in-enclave allocator for untrusted memory.
pub struct UntrustedHeap {
    enclave: Arc<Enclave>,
    mode: AllocMode,
    /// Backing chunks; a released jumbo chunk leaves an empty slot.
    chunks: Vec<Box<[u8]>>,
    /// Empty chunk slots left by freed jumbo allocations.
    released: Vec<usize>,
    /// Free lists indexed by [`class_index`].
    free_lists: Vec<Vec<Handle>>,
    bump_chunk: Option<usize>,
    bump_offset: usize,
    live_bytes: usize,
}

impl std::fmt::Debug for UntrustedHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UntrustedHeap")
            .field("mode", &self.mode)
            .field("chunks", &self.chunk_count())
            .field("live_bytes", &self.live_bytes)
            .finish()
    }
}

impl UntrustedHeap {
    /// Creates a heap that obtains untrusted chunks from `enclave`.
    pub fn new(enclave: Arc<Enclave>, mode: AllocMode) -> Self {
        Self {
            enclave,
            mode,
            chunks: Vec::new(),
            released: Vec::new(),
            free_lists: Vec::new(),
            bump_chunk: None,
            bump_offset: 0,
            live_bytes: 0,
        }
    }

    fn granularity(&self) -> usize {
        match self.mode {
            AllocMode::Pooled { granularity } => granularity,
            AllocMode::OcallPerAlloc => 16 << 20,
        }
    }

    /// Obtains a zeroed chunk of `len` bytes from the host.
    fn fresh_chunk(&self, len: usize) -> Box<[u8]> {
        if matches!(self.mode, AllocMode::Pooled { .. }) {
            self.enclave.ocall_alloc_untrusted_chunk(len).into_boxed_slice()
        } else {
            vec![0u8; len].into_boxed_slice()
        }
    }

    /// Stores `chunk` in a free slot (or a new one); returns its index.
    fn place_chunk(&mut self, chunk: Box<[u8]>) -> usize {
        match self.released.pop() {
            Some(idx) if idx < self.chunks.len() => {
                self.chunks[idx] = chunk;
                idx
            }
            _ => {
                self.chunks.push(chunk);
                self.chunks.len() - 1
            }
        }
    }

    /// Allocates `len` bytes of untrusted memory, zero-initialized.
    pub fn alloc(&mut self, len: usize) -> Handle {
        let index = class_index(len);
        let class = class_size(index);
        self.live_bytes += class;

        if matches!(self.mode, AllocMode::OcallPerAlloc) {
            // The conventional untrusted allocator: one OCALL per call.
            // Memory is still pooled internally (the host heap), but the
            // crossing cost and count are charged faithfully.
            self.enclave.ocall();
        }

        let granularity = self.granularity();
        if class >= granularity {
            // Jumbo allocation: a dedicated chunk straight from an OCALL.
            let chunk = self.fresh_chunk(class);
            return pack(self.place_chunk(chunk), 0);
        }

        if self.free_lists.len() <= index {
            self.free_lists.resize_with(index + 1, Vec::new);
        }
        if let Some(h) = self.free_lists[index].pop() {
            // Zero recycled memory: entries assume fresh buffers.
            let (chunk, offset) = unpack(h);
            if let Some(bytes) =
                self.chunks.get_mut(chunk).and_then(|c| c.get_mut(offset..offset + class))
            {
                bytes.fill(0);
                return h;
            }
        }

        let chunk = match self.bump_chunk {
            Some(c) if self.chunks.get(c).is_some_and(|b| self.bump_offset + class <= b.len()) => c,
            _ => {
                let fresh = self.fresh_chunk(granularity);
                let c = self.place_chunk(fresh);
                self.bump_chunk = Some(c);
                self.bump_offset = 0;
                c
            }
        };
        let offset = self.bump_offset;
        self.bump_offset += class;
        pack(chunk, offset)
    }

    /// Frees an allocation of `len` bytes (the length passed to `alloc`).
    /// A jumbo allocation's chunk goes back to the host at once.
    pub fn free(&mut self, handle: Handle, len: usize) {
        let index = class_index(len);
        let class = class_size(index);
        self.live_bytes = self.live_bytes.saturating_sub(class);
        if matches!(self.mode, AllocMode::OcallPerAlloc) {
            self.enclave.ocall();
        }
        if class >= self.granularity() {
            let (chunk, _) = unpack(handle);
            if let Some(slot) = self.chunks.get_mut(chunk).filter(|c| !c.is_empty()) {
                if matches!(self.mode, AllocMode::Pooled { .. }) {
                    // Unmapping the chunk is an OCALL like mapping it.
                    self.enclave.ocall();
                }
                *slot = Box::default();
                self.released.push(chunk);
            }
            return;
        }
        if self.free_lists.len() <= index {
            self.free_lists.resize_with(index + 1, Vec::new);
        }
        self.free_lists[index].push(handle);
    }

    /// Returns the bytes of an allocation.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is null or the range exceeds its chunk — which
    /// would be a store bug, not an input error.
    #[inline]
    pub fn bytes(&self, handle: Handle, len: usize) -> &[u8] {
        self.bytes_at(handle, 0, len)
    }

    /// Returns the bytes of an allocation at `offset_in_alloc`.
    ///
    /// # Panics
    ///
    /// As [`UntrustedHeap::bytes`].
    #[inline]
    pub fn bytes_at(&self, handle: Handle, offset_in_alloc: usize, len: usize) -> &[u8] {
        let (chunk, offset) = unpack(handle);
        &self.chunks[chunk][offset + offset_in_alloc..offset + offset_in_alloc + len]
    }

    /// Checked variant of [`UntrustedHeap::bytes_at`]: `None` when the
    /// range leaves the backing chunk. Untrusted memory holds
    /// attacker-controlled length fields; store code validating a parsed
    /// length against memory must use this rather than panicking.
    #[inline]
    pub fn try_bytes_at(
        &self,
        handle: Handle,
        offset_in_alloc: usize,
        len: usize,
    ) -> Option<&[u8]> {
        let (chunk, offset) = unpack(handle);
        let data = self.chunks.get(chunk)?;
        let start = offset.checked_add(offset_in_alloc)?;
        let end = start.checked_add(len)?;
        data.get(start..end)
    }

    /// Checked variant of [`UntrustedHeap::bytes_at_mut`].
    #[inline]
    pub fn try_bytes_at_mut(
        &mut self,
        handle: Handle,
        offset_in_alloc: usize,
        len: usize,
    ) -> Option<&mut [u8]> {
        let (chunk, offset) = unpack(handle);
        let data = self.chunks.get_mut(chunk)?;
        let start = offset.checked_add(offset_in_alloc)?;
        let end = start.checked_add(len)?;
        data.get_mut(start..end)
    }

    /// Mutable access to an allocation's bytes.
    ///
    /// # Panics
    ///
    /// As [`UntrustedHeap::bytes`].
    #[inline]
    pub fn bytes_mut(&mut self, handle: Handle, len: usize) -> &mut [u8] {
        self.bytes_at_mut(handle, 0, len)
    }

    /// Mutable access at an offset within an allocation.
    ///
    /// # Panics
    ///
    /// As [`UntrustedHeap::bytes`].
    #[inline]
    pub fn bytes_at_mut(
        &mut self,
        handle: Handle,
        offset_in_alloc: usize,
        len: usize,
    ) -> &mut [u8] {
        let (chunk, offset) = unpack(handle);
        &mut self.chunks[chunk][offset + offset_in_alloc..offset + offset_in_alloc + len]
    }

    /// Reads a little-endian u64 at an offset within an allocation.
    ///
    /// # Panics
    ///
    /// As [`UntrustedHeap::bytes`].
    #[inline]
    pub fn read_u64_at(&self, handle: Handle, offset: usize) -> u64 {
        let mut word = [0u8; 8];
        word.copy_from_slice(self.bytes_at(handle, offset, 8));
        u64::from_le_bytes(word)
    }

    /// Writes a little-endian u64 at an offset within an allocation.
    #[inline]
    pub fn write_u64_at(&mut self, handle: Handle, offset: usize, value: u64) {
        self.bytes_at_mut(handle, offset, 8).copy_from_slice(&value.to_le_bytes());
    }

    /// Bytes handed out and not yet freed (rounded to size classes).
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// The size-class length an allocation of `len` bytes occupies.
    pub fn class_len(len: usize) -> usize {
        class_size(class_index(len))
    }

    /// Whether an allocation made for `old_len` bytes can be reused in
    /// place for `len` bytes: both lengths must share one size class, so
    /// that a later `free` with either length returns the whole class.
    /// (A shrink into a smaller class reallocates; freeing it in place
    /// with the new length would leak the difference.)
    pub fn fits_in_class(old_len: usize, len: usize) -> bool {
        class_index(len) == class_index(old_len)
    }

    /// Checked variant of [`UntrustedHeap::read_u64_at`]: `None` when the
    /// handle is corrupt or the read leaves the backing chunk.
    #[inline]
    pub fn try_read_u64_at(&self, handle: Handle, offset: usize) -> Option<u64> {
        let word = self.try_bytes_at(handle, offset, 8)?.first_chunk::<8>()?;
        Some(u64::from_le_bytes(*word))
    }

    /// Checked little-endian u32 read, like [`UntrustedHeap::try_read_u64_at`].
    #[inline]
    pub fn try_read_u32_at(&self, handle: Handle, offset: usize) -> Option<u32> {
        let word = self.try_bytes_at(handle, offset, 4)?.first_chunk::<4>()?;
        Some(u32::from_le_bytes(*word))
    }

    /// The enclave this heap OCALLs through.
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// Number of backing chunks currently held.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len() - self.released.len()
    }

    /// Length in bytes of chunk `index` (testing only; 0 for a slot
    /// whose jumbo chunk was released).
    #[cfg(any(test, feature = "testing"))]
    pub fn chunk_len(&self, index: usize) -> usize {
        self.chunks.get(index).map_or(0, |c| c.len())
    }

    /// Number of chunk slots, held or released (testing only).
    #[cfg(any(test, feature = "testing"))]
    pub fn chunk_slots(&self) -> usize {
        self.chunks.len()
    }

    /// XORs `mask` into one byte of raw chunk memory, simulating an
    /// attacker with write access to the untrusted address space
    /// (testing only). Returns `false` when the location is out of range.
    #[cfg(any(test, feature = "testing"))]
    pub fn corrupt_raw(&mut self, chunk: usize, offset: usize, mask: u8) -> bool {
        match self.chunks.get_mut(chunk).and_then(|c| c.get_mut(offset)) {
            Some(byte) => {
                *byte ^= mask;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::enclave::EnclaveBuilder;
    use sgx_sim::vclock;

    fn heap(mode: AllocMode) -> UntrustedHeap {
        UntrustedHeap::new(EnclaveBuilder::new("alloc-test").build(), mode)
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let mut h = heap(AllocMode::Pooled { granularity: 1 << 20 });
        vclock::reset();
        let a = h.alloc(100);
        h.bytes_mut(a, 100).copy_from_slice(&[7u8; 100]);
        assert_eq!(h.bytes(a, 100), &[7u8; 100]);
        vclock::reset();
    }

    #[test]
    fn handles_are_nonzero_and_distinct() {
        let mut h = heap(AllocMode::pooled_default());
        vclock::reset();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let a = h.alloc(64);
            assert_ne!(a, NULL_HANDLE);
            assert!(seen.insert(a), "handle reused while live");
        }
        vclock::reset();
    }

    #[test]
    fn free_recycles_and_zeroes() {
        let mut h = heap(AllocMode::Pooled { granularity: 1 << 20 });
        vclock::reset();
        let a = h.alloc(64);
        h.bytes_mut(a, 64).fill(0xff);
        h.free(a, 64);
        let b = h.alloc(64);
        assert_eq!(a, b);
        assert_eq!(h.bytes(b, 64), &[0u8; 64], "recycled memory must be zeroed");
        vclock::reset();
    }

    #[test]
    fn pooled_mode_ocalls_once_per_chunk() {
        let enclave = EnclaveBuilder::new("pool").build();
        let mut h =
            UntrustedHeap::new(Arc::clone(&enclave), AllocMode::Pooled { granularity: 4096 });
        vclock::reset();
        // 8 allocations of 1 KiB: 2 KiB used per... 1024-byte class, 4 per
        // 4 KiB chunk -> 2 chunk OCALLs.
        for _ in 0..8 {
            h.alloc(1000);
        }
        assert_eq!(enclave.stats().snapshot().ocalls, 2);
        vclock::reset();
    }

    #[test]
    fn ocall_per_alloc_mode_charges_every_call() {
        let enclave = EnclaveBuilder::new("naive").build();
        let mut h = UntrustedHeap::new(Arc::clone(&enclave), AllocMode::OcallPerAlloc);
        vclock::reset();
        let a = h.alloc(64);
        let b = h.alloc(64);
        h.free(a, 64);
        h.free(b, 64);
        assert_eq!(enclave.stats().snapshot().ocalls, 4);
        vclock::reset();
    }

    #[test]
    fn jumbo_allocation() {
        let mut h = heap(AllocMode::Pooled { granularity: 1 << 16 });
        vclock::reset();
        let a = h.alloc(1 << 20);
        h.bytes_mut(a, 1 << 20)[1 << 19] = 42;
        assert_eq!(h.bytes(a, 1 << 20)[1 << 19], 42);
        vclock::reset();
    }

    #[test]
    fn live_bytes_accounting() {
        let mut h = heap(AllocMode::pooled_default());
        vclock::reset();
        assert_eq!(h.live_bytes(), 0);
        let a = h.alloc(100); // class 112
        assert_eq!(h.live_bytes(), 112);
        let b = h.alloc(333); // class 352: a 16 B key + 256 B value entry
        assert_eq!(h.live_bytes(), 112 + 352);
        let c = h.alloc(28); // class 32: a one-slot MAC node
        assert_eq!(h.live_bytes(), 112 + 352 + 32);
        h.free(b, 333);
        assert_eq!(h.live_bytes(), 112 + 32);
        h.free(a, 100);
        h.free(c, 28);
        assert_eq!(h.live_bytes(), 0);
        vclock::reset();
    }

    #[test]
    fn fits_in_class_logic() {
        // The start of the exact class table.
        let table: Vec<usize> = (0..24).map(class_size).collect();
        assert_eq!(
            table,
            [
                16, 32, 48, 64, 80, 96, 112, 128, // 16 B steps
                144, 160, 176, 192, 208, 224, 240, 256, // 8 per octave
                288, 320, 352, 384, 416, 448, 480, 512,
            ]
        );
        assert_eq!(class_size(class_index(1 << 20)), 1 << 20);
        assert_eq!(class_size(class_index((1 << 20) + 1)), (1 << 20) + (1 << 17));
        assert!(UntrustedHeap::fits_in_class(100, 112)); // both class 112
        assert!(UntrustedHeap::fits_in_class(100, 97));
        assert!(!UntrustedHeap::fits_in_class(100, 96)); // 112 -> 96: shrinks the class
        assert!(!UntrustedHeap::fits_in_class(100, 20));
        assert!(!UntrustedHeap::fits_in_class(100, 113)); // 112 -> 128
        assert!(UntrustedHeap::fits_in_class(333, 352)); // both class 352
        assert!(!UntrustedHeap::fits_in_class(333, 353)); // 352 -> 384
        assert_eq!(UntrustedHeap::class_len(0), 16);
    }

    #[test]
    fn class_table_properties_up_to_one_mib() {
        let mut prev_index = class_index(0);
        for len in 1..=(1usize << 20) {
            let index = class_index(len);
            let class = class_size(index);
            assert!(class >= len, "class {class} below length {len}");
            assert!(index >= prev_index, "class index not monotone at {len}");
            assert_eq!(class_index(class), index, "class {class} of {len} is not its own class");
            if index > 0 {
                assert!(class_size(index - 1) < len, "{len} skips the smaller class");
            }
            if len > 128 {
                assert!(class * 8 <= len * 9, "slack above 12.5% at {len}: class {class}");
            } else {
                assert!(class - len < 16, "slack of 16 B or more at {len}");
            }
            prev_index = index;
        }
    }

    #[test]
    fn jumbo_chunks_are_released_and_reused() {
        let enclave = EnclaveBuilder::new("jumbo").build();
        let mut h =
            UntrustedHeap::new(Arc::clone(&enclave), AllocMode::Pooled { granularity: 4096 });
        vclock::reset();
        let mut last = NULL_HANDLE;
        for _ in 0..10 {
            let a = h.alloc(8192);
            h.bytes_mut(a, 8192).fill(0xab);
            h.free(a, 8192);
            assert_eq!(h.live_bytes(), 0);
            assert_eq!(h.chunk_count(), 0, "a freed jumbo chunk is not held");
            // The stale handle fails closed rather than reading old bytes.
            assert_eq!(h.try_bytes_at(a, 0, 1), None);
            assert_eq!(h.try_read_u64_at(a, 0), None);
            last = a;
        }
        assert_eq!(h.chunk_slots(), 1, "the chunk slot is reused");
        let b = h.alloc(8192);
        assert_eq!(b, last);
        assert!(h.bytes(b, 8192).iter().all(|&x| x == 0), "a reused jumbo chunk is zeroed");
        assert_eq!(h.chunk_count(), 1);
        // One OCALL maps and one unmaps each jumbo chunk.
        assert_eq!(enclave.stats().snapshot().ocalls, 21);
        vclock::reset();
    }

    #[test]
    fn u64_helpers() {
        let mut h = heap(AllocMode::pooled_default());
        vclock::reset();
        let a = h.alloc(32);
        h.write_u64_at(a, 8, 0xfeed_f00d);
        assert_eq!(h.read_u64_at(a, 8), 0xfeed_f00d);
        assert_eq!(h.read_u64_at(a, 0), 0);
        vclock::reset();
    }
}
