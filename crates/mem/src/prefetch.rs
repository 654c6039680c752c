//! Hardware prefetchers: the baseline core's next-N-line L1D prefetcher
//! and a simplified VLDP (Variable Length Delta Prefetcher, Shevgoor et
//! al., MICRO 2015) for L2/L3, per Table 1 of the paper.

use crate::cache::{line_of, LINE_BYTES};

/// A prefetcher observes demand accesses and proposes line addresses to
/// fetch.
pub trait Prefetcher {
    /// Observes a demand access (`addr` is the byte address; `miss`
    /// indicates whether it missed at the level the prefetcher guards)
    /// and appends the line-aligned addresses to prefetch onto `out`.
    /// Taking an out-buffer keeps the per-miss hot path allocation-free
    /// — the hierarchy reuses one target buffer across all misses.
    fn observe_into(&mut self, addr: u64, miss: bool, out: &mut Vec<u64>);
    /// Human-readable name for stats output.
    fn name(&self) -> &'static str;
}

/// Next-N-line prefetcher: on a demand miss to line L, prefetch lines
/// L+1 .. L+N.
#[derive(Clone, Debug)]
pub struct NextNLine {
    n: u64,
    last_line: u64,
}

impl NextNLine {
    /// Creates a next-`n`-line prefetcher (the paper's L1D prefetcher
    /// uses `n = 2`).
    pub fn new(n: u64) -> NextNLine {
        NextNLine {
            n,
            last_line: u64::MAX,
        }
    }
}

impl Prefetcher for NextNLine {
    fn observe_into(&mut self, addr: u64, miss: bool, out: &mut Vec<u64>) {
        let line = line_of(addr);
        if !miss || line == self.last_line {
            return;
        }
        self.last_line = line;
        out.extend((1..=self.n).map(|i| line.wrapping_add(i * LINE_BYTES)));
    }

    fn name(&self) -> &'static str {
        "next-n-line"
    }
}

const VLDP_PAGE_SHIFT: u64 = 12;
const VLDP_DHB_ENTRIES: usize = 16;
const VLDP_DPT_ENTRIES: usize = 64;
const VLDP_HISTORY: usize = 3;

#[derive(Clone, Copy, Debug, Default)]
struct DhbEntry {
    page: u64,
    valid: bool,
    last_block: i64,
    deltas: [i64; VLDP_HISTORY],
    num_deltas: usize,
    lru: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct DptEntry {
    key: u64,
    valid: bool,
    delta: i64,
    /// 2-bit accuracy counter; predictions are used when >= 1.
    conf: u8,
}

/// Simplified VLDP: per-page delta histories feed three delta
/// prediction tables keyed by the last 1, 2, or 3 deltas; the longest
/// matching history wins. Captures VLDP's headline ability to follow
/// complex multi-delta patterns, at the ~5.5 Kb budget the paper cites.
#[derive(Clone, Debug)]
pub struct Vldp {
    dhb: [DhbEntry; VLDP_DHB_ENTRIES],
    dpt: [[DptEntry; VLDP_DPT_ENTRIES]; VLDP_HISTORY],
    stamp: u64,
    degree: usize,
}

impl Default for Vldp {
    fn default() -> Vldp {
        Vldp::new(2)
    }
}

impl Vldp {
    /// Creates a VLDP issuing up to `degree` prefetches per trigger.
    pub fn new(degree: usize) -> Vldp {
        Vldp {
            dhb: [DhbEntry::default(); VLDP_DHB_ENTRIES],
            dpt: [[DptEntry::default(); VLDP_DPT_ENTRIES]; VLDP_HISTORY],
            stamp: 0,
            degree,
        }
    }

    fn key_for(deltas: &[i64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &d in deltas {
            h ^= d as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    fn dpt_update(&mut self, hist_len: usize, deltas: &[i64], actual: i64) {
        let key = Self::key_for(deltas);
        let idx = (key % VLDP_DPT_ENTRIES as u64) as usize;
        let e = &mut self.dpt[hist_len - 1][idx];
        if e.valid && e.key == key {
            if e.delta == actual {
                e.conf = (e.conf + 1).min(3);
            } else if e.conf > 0 {
                e.conf -= 1;
            } else {
                e.delta = actual;
                e.conf = 1;
            }
        } else {
            *e = DptEntry {
                key,
                valid: true,
                delta: actual,
                conf: 1,
            };
        }
    }

    fn dpt_predict(&self, deltas: &[i64]) -> Option<i64> {
        // Longest history first.
        for len in (1..=deltas.len().min(VLDP_HISTORY)).rev() {
            let hist = &deltas[deltas.len() - len..];
            let key = Self::key_for(hist);
            let idx = (key % VLDP_DPT_ENTRIES as u64) as usize;
            let e = &self.dpt[len - 1][idx];
            if e.valid && e.key == key && e.conf >= 1 {
                return Some(e.delta);
            }
        }
        None
    }
}

impl Prefetcher for Vldp {
    fn observe_into(&mut self, addr: u64, miss: bool, out: &mut Vec<u64>) {
        if !miss {
            return;
        }
        self.stamp += 1;
        let page = addr >> VLDP_PAGE_SHIFT;
        let block = (line_of(addr) >> crate::cache::LINE_SHIFT) as i64;

        // Find or allocate the page's DHB entry.
        let mut slot = None;
        for (i, e) in self.dhb.iter().enumerate() {
            if e.valid && e.page == page {
                slot = Some(i);
                break;
            }
        }
        let slot = match slot {
            Some(i) => i,
            None => {
                let mut victim = 0;
                for (i, e) in self.dhb.iter().enumerate() {
                    if !e.valid {
                        victim = i;
                        break;
                    }
                    if e.lru < self.dhb[victim].lru {
                        victim = i;
                    }
                }
                self.dhb[victim] = DhbEntry {
                    page,
                    valid: true,
                    last_block: block,
                    deltas: [0; VLDP_HISTORY],
                    num_deltas: 0,
                    lru: self.stamp,
                };
                // First touch of a page: nothing to predict from yet.
                return;
            }
        };

        let entry = self.dhb[slot];
        let delta = block - entry.last_block;
        if delta == 0 {
            self.dhb[slot].lru = self.stamp;
            return;
        }

        // Train: each history length that was available should have
        // predicted `delta`. (`entry` is a copy, so slicing its history
        // borrows nothing from `self`.)
        for len in 1..=entry.num_deltas.min(VLDP_HISTORY) {
            let hist = &entry.deltas[..entry.num_deltas][entry.num_deltas - len..];
            self.dpt_update(len, hist, delta);
        }

        // Shift the new delta into the history.
        let e = &mut self.dhb[slot];
        if e.num_deltas < VLDP_HISTORY {
            e.deltas[e.num_deltas] = delta;
            e.num_deltas += 1;
        } else {
            e.deltas.rotate_left(1);
            e.deltas[VLDP_HISTORY - 1] = delta;
        }
        e.last_block = block;
        e.lru = self.stamp;

        // Predict a chain of up to `degree` future blocks. The rolling
        // history lives in a fixed array — no per-miss allocation.
        let mut hist = self.dhb[slot].deltas;
        let mut hist_len = self.dhb[slot].num_deltas;
        let mut cur = block;
        for _ in 0..self.degree {
            let Some(d) = self.dpt_predict(&hist[..hist_len]) else {
                break;
            };
            cur += d;
            if cur < 0 {
                break;
            }
            out.push((cur as u64) << crate::cache::LINE_SHIFT);
            if hist_len == VLDP_HISTORY {
                hist.rotate_left(1);
                hist[VLDP_HISTORY - 1] = d;
            } else {
                hist[hist_len] = d;
                hist_len += 1;
            }
        }
    }

    fn name(&self) -> &'static str {
        "vldp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects one observation's proposals into a fresh Vec.
    fn observe(p: &mut impl Prefetcher, addr: u64, miss: bool) -> Vec<u64> {
        let mut out = Vec::new();
        p.observe_into(addr, miss, &mut out);
        out
    }

    #[test]
    fn next_n_line_prefetches_sequential_lines() {
        let mut p = NextNLine::new(2);
        let out = observe(&mut p, 0x1010, true);
        assert_eq!(out, vec![0x1040, 0x1080]);
    }

    #[test]
    fn next_n_line_ignores_hits_and_repeats() {
        let mut p = NextNLine::new(2);
        assert!(observe(&mut p, 0x1000, false).is_empty());
        assert_eq!(observe(&mut p, 0x1000, true).len(), 2);
        assert!(observe(&mut p, 0x1004, true).is_empty()); // same line again
    }

    #[test]
    fn observe_into_appends_without_clearing() {
        let mut p = NextNLine::new(1);
        let mut out = vec![0xdead];
        p.observe_into(0x1000, true, &mut out);
        assert_eq!(out, vec![0xdead, 0x1040]);
    }

    #[test]
    fn vldp_learns_constant_stride() {
        let mut p = Vldp::new(1);
        let stride = 2 * LINE_BYTES;
        let mut predicted = Vec::new();
        for i in 0..16u64 {
            predicted = observe(&mut p, 0x10_0000 + i * stride, true);
        }
        // After warmup it should predict the next strided line.
        assert_eq!(predicted, vec![line_of(0x10_0000 + 16 * stride)]);
    }

    #[test]
    fn vldp_learns_alternating_deltas() {
        // Pattern +1, +3, +1, +3 (in lines): VLDP's multi-delta history
        // disambiguates where a single-delta stride prefetcher cannot.
        let mut p = Vldp::new(1);
        let mut block = 0u64;
        let mut last_pred = Vec::new();
        for i in 0..40 {
            let delta = if i % 2 == 0 { 1 } else { 3 };
            block += delta;
            last_pred = observe(&mut p, block * LINE_BYTES, true);
        }
        // Last observed delta was +3 (i=39 odd), so next should be +1.
        assert_eq!(last_pred, vec![(block + 1) * LINE_BYTES]);
    }

    #[test]
    fn vldp_first_touch_is_silent() {
        let mut p = Vldp::new(2);
        assert!(observe(&mut p, 0x20_0000, true).is_empty());
    }

    #[test]
    fn vldp_ignores_hits() {
        let mut p = Vldp::new(2);
        observe(&mut p, 0x30_0000, true);
        assert!(observe(&mut p, 0x30_0040, false).is_empty());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(NextNLine::new(1).name(), "next-n-line");
        assert_eq!(Vldp::new(1).name(), "vldp");
    }
}
