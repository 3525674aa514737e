//! The correctness oracle: a shadow of the last acknowledged value of
//! every key.
//!
//! Values are never stored: key `id` at version `v` always holds
//! `make_value(id, v, len)`, so the shadow keeps one `u32` version per
//! key (version 0 is the preloaded value). Each key belongs to exactly
//! one connection or worker, and replies arrive in request order, so
//! when a get's reply is checked every earlier write to its key has
//! already been acknowledged or refused.

use shield_workload::make_value;

pub struct Shadow {
    versions: Vec<u32>,
    val_len: usize,
}

impl Shadow {
    pub fn new(keys: usize, val_len: usize) -> Shadow {
        Shadow { versions: vec![0; keys], val_len }
    }

    pub fn value(id: u64, version: u32, val_len: usize) -> Vec<u8> {
        make_value(id, u64::from(version), val_len)
    }

    /// Whether `got` is the last acknowledged value of key `id`
    /// (`slot` indexes the shadow; it equals `id` unless the owner
    /// numbers its keys locally).
    pub fn matches(&self, slot: usize, id: u64, got: &[u8]) -> bool {
        got == Self::value(id, self.versions[slot], self.val_len).as_slice()
    }

    pub fn acked(&mut self, slot: usize, version: u32) {
        self.versions[slot] = version;
    }

    /// Every slot written since the preload, with its acknowledged version.
    pub fn written(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.versions.iter().enumerate().filter(|(_, &v)| v != 0).map(|(i, &v)| (i, v))
    }
}
