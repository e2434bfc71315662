//! Small utilities: epoch-stamped vertex marks for the search hot loops, and
//! a fast, non-cryptographic hasher for vertex keys with the hash-set alias
//! built on it.
//!
//! A search tests path membership once or twice per visited edge, so every
//! in-place search (the split skeleton, Johnson, Read-Tarjan and the temporal
//! DFS) keeps its path and blocked sets as `VertexMarks`: one array read per
//! test, and clearing costs one epoch bump. The hash set remains where a key
//! is not a plain vertex or the search is a baseline: the `(vertex,
//! arrival)` probe set of fine temporal Read-Tarjan, Tiernan's and the
//! bundled search's path sets, and cycle validation. It uses the
//! FxHash mixing function (the one rustc uses) re-implemented here in a few
//! lines rather than adding an external dependency, because the default
//! SipHash hasher of the standard library would dominate the profile.

use pce_graph::VertexId;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// A set of vertex ids that clears in O(1): a member's slot holds the
/// current epoch, and [`clear`](Self::clear) starts a new epoch. Slots are
/// indexed by vertex id, so the marks grow with the vertex set
/// ([`ensure_vertices`](Self::ensure_vertices)), like the cycle-union
/// workspace's stamps.
#[derive(Debug, Clone)]
pub(crate) struct VertexMarks {
    stamps: Vec<u32>,
    /// Never 0: a slot that was never marked, or was removed, holds 0.
    epoch: u32,
}

impl Default for VertexMarks {
    fn default() -> Self {
        Self {
            stamps: Vec::new(),
            epoch: 1,
        }
    }
}

impl VertexMarks {
    /// Grows the marks to cover vertex ids below `n`; new slots are empty.
    pub(crate) fn ensure_vertices(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
    }

    /// Empties the set.
    #[inline]
    pub(crate) fn clear(&mut self) {
        if self.epoch == u32::MAX {
            // Once every 4G clears: stale stamps would match the restarted
            // epochs.
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, v: VertexId) {
        self.stamps[v as usize] = self.epoch;
    }

    #[inline]
    pub(crate) fn remove(&mut self, v: VertexId) {
        self.stamps[v as usize] = 0;
    }

    #[inline]
    pub(crate) fn contains(&self, v: VertexId) -> bool {
        self.stamps[v as usize] == self.epoch
    }

    /// Moves the epoch to two clears before it wraps, so that a test can
    /// run a search across the wrap-around, and leaves every slot stamped
    /// with the small epoch `stale`, as if an early search had marked every
    /// vertex: unless the wrap clears stale stamps, the set holds every
    /// vertex once the restarted epochs reach `stale`.
    #[cfg(test)]
    pub(crate) fn skip_to_epoch_wrap(&mut self, stale: u32) {
        self.stamps.fill(stale);
        self.epoch = u32::MAX - 1;
    }

    #[cfg(test)]
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }
}

/// The FxHash mixing constant (64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A minimal FxHash-style hasher: word-at-a-time multiply-rotate mixing.
/// Not HashDoS-resistant; the keys here are internal dense vertex ids.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Creates an empty [`FxHashSet`].
pub fn fx_set<T>() -> FxHashSet<T> {
    FxHashSet::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_marks_clear_by_epoch_and_survive_the_wrap() {
        let mut marks = VertexMarks::default();
        marks.ensure_vertices(4);
        marks.insert(1);
        marks.insert(3);
        marks.remove(3);
        assert!(marks.contains(1) && !marks.contains(3) && !marks.contains(0));
        marks.clear();
        assert!(!marks.contains(1));
        // Stale stamps of epoch 1 must not come back after the wrap.
        marks.skip_to_epoch_wrap(1);
        for _ in 0..3 {
            marks.clear();
            assert!(
                (0..4).all(|v| !marks.contains(v)),
                "epoch {}",
                marks.epoch()
            );
            marks.insert(2);
            assert!(marks.contains(2));
        }
        assert!(marks.epoch() < 4, "the marks wrapped");
    }

    #[test]
    fn set_behaves_like_std() {
        let mut set = fx_set();
        for i in 0..1000u32 {
            assert!(set.insert(i));
        }
        for i in 0..1000u32 {
            assert!(set.contains(&i));
            assert!(!set.insert(i));
        }
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn hasher_distributes_small_keys() {
        // Sanity check: sequential u32 keys should not all collide in the low
        // bits (which HashMap uses for bucketing).
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..64u32 {
            let mut h = build.build_hasher();
            h.write_u32(i);
            low_bits.insert(h.finish() & 0x3f);
        }
        assert!(
            low_bits.len() > 16,
            "too many collisions: {}",
            low_bits.len()
        );
    }

    #[test]
    fn hasher_handles_arbitrary_bytes() {
        let mut h = FxHasher::default();
        h.write(b"hello world, this is more than eight bytes");
        let a = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(b"hello world, this is more than eight bytez");
        assert_ne!(a, h2.finish());
    }
}
