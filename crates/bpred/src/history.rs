//! Global branch history with incrementally-folded views.
//!
//! TAGE's geometric history lengths reach hundreds of bits; computing
//! table indices by re-hashing the raw history every prediction would
//! dominate simulation time. Instead, each (history length, output
//! width) pair keeps a folded register updated in O(1) per branch —
//! the same structure used in the reference TAGE implementations.
//!
//! Checkpoint/restore is O(number of folds): the fetch unit snapshots
//! before each in-flight branch and restores on mispredict recovery,
//! exactly like the paper's branch queue that "checkpoints/restores
//! global branch history".

/// Capacity of the circular global history buffer, in bits. Must
/// exceed the longest history length plus the maximum number of
/// speculative (in-flight) pushes.
pub const GHR_BITS: usize = 1024;
const WORDS: usize = GHR_BITS / 64;

/// Circular global branch-history register.
#[derive(Clone, Debug)]
pub struct GlobalHistory {
    bits: [u64; WORDS],
    /// Total number of pushes so far.
    pos: u64,
}

impl Default for GlobalHistory {
    fn default() -> GlobalHistory {
        GlobalHistory::new()
    }
}

impl GlobalHistory {
    /// Creates an all-zero history.
    pub fn new() -> GlobalHistory {
        GlobalHistory {
            bits: [0; WORDS],
            pos: 0,
        }
    }

    /// Pushes an outcome (true = taken).
    #[inline]
    pub fn push(&mut self, taken: bool) {
        self.pos += 1;
        let idx = (self.pos as usize) % GHR_BITS;
        let w = idx / 64;
        let b = idx % 64;
        if taken {
            self.bits[w] |= 1 << b;
        } else {
            self.bits[w] &= !(1 << b);
        }
    }

    /// The bit pushed `age` pushes ago (`age = 0` is the most recent).
    #[inline]
    pub fn bit(&self, age: u64) -> u64 {
        let idx = (self.pos.wrapping_sub(age) as usize) % GHR_BITS;
        (self.bits[idx / 64] >> (idx % 64)) & 1
    }

    /// Number of pushes so far.
    pub fn len(&self) -> u64 {
        self.pos
    }

    /// Whether no outcome has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.pos == 0
    }

    /// Restores the push position (bits newer than `pos` become
    /// irrelevant; they are rewritten before ever being read as long as
    /// speculation depth stays below [`GHR_BITS`]).
    pub fn rewind(&mut self, pos: u64) {
        debug_assert!(pos <= self.pos);
        self.pos = pos;
    }
}

/// An incrementally-maintained fold of the most recent `orig_len`
/// history bits down to `comp_len` bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Folded {
    comp: u32,
    orig_len: u32,
    comp_len: u32,
    /// `orig_len % comp_len`, precomputed: `update` runs once per fold
    /// per branch (24 times per prediction in TAGE).
    out_shift: u32,
    /// `(1 << comp_len) - 1`, precomputed likewise.
    mask: u32,
}

impl Folded {
    /// Creates a fold of window `orig_len` producing `comp_len` bits.
    ///
    /// # Panics
    /// Panics if `comp_len` is zero or greater than 31.
    pub fn new(orig_len: u32, comp_len: u32) -> Folded {
        assert!(comp_len > 0 && comp_len < 32, "fold width out of range");
        Folded {
            comp: 0,
            orig_len,
            comp_len,
            out_shift: orig_len % comp_len,
            mask: (1 << comp_len) - 1,
        }
    }

    /// Current folded value.
    #[inline]
    pub fn value(&self) -> u32 {
        self.comp
    }

    /// Updates the fold after `hist.push`: the newest bit enters, the
    /// bit now `orig_len` old leaves.
    #[inline]
    pub fn update(&mut self, hist: &GlobalHistory) {
        let incoming = hist.bit(0) as u32;
        let outgoing = hist.bit(self.orig_len as u64) as u32;
        self.comp = (self.comp << 1) | incoming;
        self.comp ^= outgoing << self.out_shift;
        self.comp ^= self.comp >> self.comp_len;
        self.comp &= self.mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference fold computed from scratch over the raw history.
    fn fold_reference(outcomes: &[bool], orig_len: u32, comp_len: u32) -> u32 {
        // Reconstruct by replaying the incremental update on a fresh
        // pair — the incremental form *is* the definition; this test
        // instead checks window semantics via distinguishability below.
        let mut h = GlobalHistory::new();
        let mut f = Folded::new(orig_len, comp_len);
        for &b in outcomes {
            h.push(b);
            f.update(&h);
        }
        f.value()
    }

    #[test]
    fn ghr_push_and_read_back() {
        let mut h = GlobalHistory::new();
        h.push(true);
        h.push(false);
        h.push(true);
        assert_eq!(h.bit(0), 1);
        assert_eq!(h.bit(1), 0);
        assert_eq!(h.bit(2), 1);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn ghr_rewind_then_replay() {
        let mut h = GlobalHistory::new();
        h.push(true);
        let cp = h.len();
        h.push(false);
        h.push(false);
        h.rewind(cp);
        h.push(true);
        assert_eq!(h.bit(0), 1);
        assert_eq!(h.bit(1), 1);
    }

    #[test]
    fn fold_depends_only_on_window() {
        // Two histories identical in the last `L` bits fold to the same
        // value once the differing bits age out.
        let l = 8u32;
        let mut a = vec![true, false, true, true, false, false, true, false];
        let mut b = vec![false, true, false, false, true, true, false, true];
        let tail: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        a.extend(&tail);
        b.extend(&tail);
        assert_eq!(fold_reference(&a, l, 7), fold_reference(&b, l, 7));
    }

    #[test]
    fn fold_distinguishes_recent_bits() {
        let base: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        let mut flipped = base.clone();
        let n = flipped.len();
        flipped[n - 1] = !flipped[n - 1];
        assert_ne!(
            fold_reference(&base, 16, 11),
            fold_reference(&flipped, 16, 11)
        );
    }

    #[test]
    fn checkpoint_restore_reproduces_fold() {
        let mut h = GlobalHistory::new();
        let mut f = Folded::new(20, 9);
        for i in 0..100 {
            h.push(i % 5 != 0);
            f.update(&h);
        }
        let cp_pos = h.len();
        let cp_fold = f;
        // Speculate down a wrong path.
        for _ in 0..50 {
            h.push(true);
            f.update(&h);
        }
        // Recover.
        h.rewind(cp_pos);
        f = cp_fold;
        // Continue down the right path; compare against an oracle that
        // never went down the wrong path.
        let mut h2 = GlobalHistory::new();
        let mut f2 = Folded::new(20, 9);
        for i in 0..100 {
            h2.push(i % 5 != 0);
            f2.update(&h2);
        }
        for i in 0..30 {
            h.push(i % 3 == 0);
            f.update(&h);
            h2.push(i % 3 == 0);
            f2.update(&h2);
        }
        assert_eq!(f.value(), f2.value());
    }
}
