//! A tiny deterministic hasher for the simulator's hash maps.
//!
//! `std`'s default `SipHash` is keyed per-process for HashDoS
//! resistance, which the simulator does not need: every map in the hot
//! loop is keyed by trusted integers (page numbers, aligned words,
//! cycle numbers, sequence numbers), and the executor's and result
//! store's maps are keyed by run-spec content keys the plan built
//! itself (the executor's dedup set, `RunSet`, the store's index). This
//! is the classic multiply-rotate "Fx" hash — a fixed function of the
//! key bytes, so it is deterministic across processes and hosts, an
//! order of magnitude cheaper than SipHash for 8-byte keys, and a
//! multiply per 8 bytes of a string key.
//!
//! Determinism note: swapping the hasher changes *iteration order* of a
//! map, which is why pfm-lint bans iterating hash maps in simulation
//! crates in the first place. Users of these aliases do point lookups
//! (the store's key listing sorts first), so the change is invisible to
//! simulated statistics and to every listing.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Fixed odd multiplier (the golden-ratio constant used by rustc's
/// FxHash); quality only needs to be "good enough" for integer keys.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher over little-endian key words.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
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
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            // pfm-lint: allow(hygiene): chunks_exact guarantees len 8
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
        // Pinned value: the hash function is part of no contract, but a
        // silent change would at least show up here.
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn maps_do_point_lookups() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 4096, i);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 4096)), Some(&i));
        }
    }

    #[test]
    fn byte_stream_matches_word_stream_padding() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0, 0]);
        // Different lengths pad differently only in the remainder word;
        // 3 bytes and 5 bytes both zero-pad to the same final word here.
        assert_eq!(a.finish(), b.finish());
    }
}
