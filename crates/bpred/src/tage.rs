//! TAGE: TAgged GEometric-history-length predictor (Seznec), the core
//! of the paper's 64 KB TAGE-SC-L baseline.

use crate::history::{Fold, GlobalHistory};

/// Number of tagged tables.
pub const NUM_TABLES: usize = 8;

/// Geometric history lengths of the tagged tables.
pub const HIST_LENGTHS: [u32; NUM_TABLES] = [4, 9, 18, 36, 72, 144, 288, 576];

/// Tag widths of the tagged tables.
pub const TAG_BITS: [u32; NUM_TABLES] = [8, 8, 9, 10, 11, 12, 12, 13];

const LOG_TAGGED: u32 = 11; // 2^11 entries per tagged table
const LOG_BIMODAL: u32 = 14; // 2^14-entry bimodal base

/// Per-table PC shift used in index hashing, `LOG_TAGGED - (t % 4)`.
/// Precomputed: `table_index` runs eight times per prediction.
const IDX_SHIFT: [u64; NUM_TABLES] = {
    let mut s = [0u64; NUM_TABLES];
    let mut t = 0;
    while t < NUM_TABLES {
        s[t] = LOG_TAGGED as u64 - (t as u64 % 4);
        t += 1;
    }
    s
};

/// Per-table tag mask, `(1 << TAG_BITS[t]) - 1`, precomputed for the
/// same reason.
const TAG_MASK: [u32; NUM_TABLES] = {
    let mut m = [0u32; NUM_TABLES];
    let mut t = 0;
    while t < NUM_TABLES {
        m[t] = (1 << TAG_BITS[t]) - 1;
        t += 1;
    }
    m
};

/// Fold geometry over `HIST_LENGTHS`, `widths[t] - less` bits wide.
const fn table_folds(widths: [u32; NUM_TABLES], less: u32) -> [Fold; NUM_TABLES] {
    let mut f = [Fold::new(1, 1); NUM_TABLES];
    let mut t = 0;
    while t < NUM_TABLES {
        f[t] = Fold::new(HIST_LENGTHS[t], widths[t] - less);
        t += 1;
    }
    f
}

/// Per-table index fold: the table's history folded to its index
/// width.
pub const INDEX_FOLDS: [Fold; NUM_TABLES] = table_folds([LOG_TAGGED; NUM_TABLES], 0);
/// Per-table first tag fold: the history folded to the tag width.
pub const TAG_FOLDS_A: [Fold; NUM_TABLES] = table_folds(TAG_BITS, 0);
/// Per-table second tag fold, one bit narrower.
pub const TAG_FOLDS_B: [Fold; NUM_TABLES] = table_folds(TAG_BITS, 1);

const CTR_MAX: i8 = 3;
const CTR_MIN: i8 = -4;
const U_MAX: u8 = 3;
const U_RESET_PERIOD: u64 = 1 << 18;

#[derive(Clone, Copy, Debug, Default)]
struct TageEntry {
    ctr: i8,
    tag: u16,
    u: u8,
}

/// Per-prediction bookkeeping returned by [`Tage::predict`] and
/// consumed by [`Tage::train`]. Real hardware carries the same
/// information in the branch queue so retirement-time training uses
/// fetch-time indices.
#[derive(Clone, Copy, Debug)]
pub struct TageMeta {
    indices: [u16; NUM_TABLES],
    tags: [u16; NUM_TABLES],
    provider: Option<u8>,
    alt: Option<u8>,
    provider_pred: bool,
    alt_pred: bool,
    bimodal_idx: u16,
    /// Provider entry was weak (newly allocated / low confidence).
    weak_provider: bool,
    /// The final TAGE prediction (after use-alt-on-new-alloc).
    pub taken: bool,
    /// Provider counter value, for the statistical corrector's
    /// confidence input.
    pub provider_ctr: i8,
}

/// TAGE's folded histories, one value per [`Fold`] of
/// [`INDEX_FOLDS`], [`TAG_FOLDS_A`] and [`TAG_FOLDS_B`].
#[derive(Clone, Copy, Debug, Default)]
struct Folds {
    idx: [u16; NUM_TABLES],
    tag_a: [u16; NUM_TABLES],
    tag_b: [u16; NUM_TABLES],
}

/// Checkpoint of TAGE's speculative history state: the push position
/// and the folded values.
#[derive(Clone, Debug)]
pub struct TageCheckpoint {
    pos: u64,
    folds: Folds,
}

/// The TAGE predictor.
#[derive(Clone, Debug)]
pub struct Tage {
    bimodal: Vec<i8>, // 2-bit: -2..=1
    tables: Vec<Vec<TageEntry>>,
    hist: GlobalHistory,
    folds: Folds,
    use_alt_on_na: i8, // -8..=7
    lfsr: u32,
    updates: u64,
}

impl Default for Tage {
    fn default() -> Tage {
        Tage::new()
    }
}

impl Tage {
    /// Creates an untrained predictor.
    pub fn new() -> Tage {
        Tage {
            bimodal: vec![0; 1 << LOG_BIMODAL],
            tables: vec![vec![TageEntry::default(); 1 << LOG_TAGGED]; NUM_TABLES],
            hist: GlobalHistory::new(),
            folds: Folds::default(),
            use_alt_on_na: 0,
            lfsr: 0xACE1_u32,
            updates: 0,
        }
    }

    fn rand_bit(&mut self) -> bool {
        // 16-bit Fibonacci LFSR: deterministic pseudo-randomness for
        // entry allocation, as in reference TAGE code.
        let bit = (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
        self.lfsr = (self.lfsr >> 1) | (bit << 15);
        bit != 0
    }

    #[inline]
    fn bimodal_index(pc: u64) -> u16 {
        ((pc >> 2) & ((1 << LOG_BIMODAL) - 1)) as u16
    }

    #[inline]
    fn table_index(&self, pc: u64, t: usize) -> u16 {
        let pc = pc >> 2;
        let h = u64::from(self.folds.idx[t]);
        ((pc ^ (pc >> IDX_SHIFT[t]) ^ h) & ((1 << LOG_TAGGED) - 1)) as u16
    }

    #[inline]
    fn table_tag(&self, pc: u64, t: usize) -> u16 {
        let pc = pc >> 2;
        let tag =
            pc as u32 ^ u32::from(self.folds.tag_a[t]) ^ (u32::from(self.folds.tag_b[t]) << 1);
        (tag & TAG_MASK[t]) as u16
    }

    /// Snapshots speculative history state (cheap; 56 bytes).
    pub fn checkpoint(&self) -> TageCheckpoint {
        TageCheckpoint {
            pos: self.hist.len(),
            folds: self.folds,
        }
    }

    /// Restores a checkpoint without pushing any outcome (used when a
    /// squash boundary is not a branch).
    pub fn restore(&mut self, cp: &TageCheckpoint) {
        self.hist.rewind(cp.pos, HIST_LENGTHS[NUM_TABLES - 1]);
        self.folds = cp.folds;
    }

    /// Restores a checkpoint taken before a mispredicted branch, then
    /// pushes the branch's actual outcome.
    pub fn recover(&mut self, cp: &TageCheckpoint, actual: bool) {
        self.restore(cp);
        self.push_history(actual);
    }

    /// Pushes an outcome: the three folds of a table share its window,
    /// so each table reads one outgoing bit.
    fn push_history(&mut self, taken: bool) {
        self.hist.push(taken);
        let incoming = u16::from(taken);
        let f = &mut self.folds;
        for t in 0..NUM_TABLES {
            let outgoing = self.hist.bit(u64::from(HIST_LENGTHS[t])) as u16;
            f.idx[t] = INDEX_FOLDS[t].step(f.idx[t], incoming, outgoing);
            f.tag_a[t] = TAG_FOLDS_A[t].step(f.tag_a[t], incoming, outgoing);
            f.tag_b[t] = TAG_FOLDS_B[t].step(f.tag_b[t], incoming, outgoing);
        }
    }

    /// Predicts the branch at `pc` and speculatively pushes the
    /// predicted outcome into the global history.
    pub fn predict(&mut self, pc: u64) -> TageMeta {
        let mut indices = [0u16; NUM_TABLES];
        let mut tags = [0u16; NUM_TABLES];
        for t in 0..NUM_TABLES {
            indices[t] = self.table_index(pc, t);
            tags[t] = self.table_tag(pc, t);
        }
        let bimodal_idx = Self::bimodal_index(pc);
        let base_pred = self.bimodal[bimodal_idx as usize] >= 0;

        let mut provider = None;
        let mut alt = None;
        for t in (0..NUM_TABLES).rev() {
            let e = &self.tables[t][indices[t] as usize];
            if e.tag == tags[t] {
                if provider.is_none() {
                    provider = Some(t as u8);
                } else {
                    alt = Some(t as u8);
                    break;
                }
            }
        }

        let alt_pred = match alt.map(usize::from) {
            Some(t) => self.tables[t][indices[t] as usize].ctr >= 0,
            None => base_pred,
        };
        let (provider_pred, weak_provider, provider_ctr) = match provider.map(usize::from) {
            Some(t) => {
                let e = &self.tables[t][indices[t] as usize];
                (e.ctr >= 0, e.ctr == 0 || e.ctr == -1, e.ctr)
            }
            None => (base_pred, false, 0),
        };

        let taken = if provider.is_some() && weak_provider && self.use_alt_on_na >= 0 {
            alt_pred
        } else {
            provider_pred
        };

        let meta = TageMeta {
            indices,
            tags,
            provider,
            alt,
            provider_pred,
            alt_pred,
            bimodal_idx,
            weak_provider,
            taken,
            provider_ctr,
        };
        self.push_history(taken);
        meta
    }

    /// Trains the predictor at retirement with the branch's actual
    /// outcome. `meta` must be the value returned by the matching
    /// `predict` call.
    pub fn train(&mut self, _pc: u64, taken: bool, meta: &TageMeta) {
        self.updates += 1;
        if self.updates.is_multiple_of(U_RESET_PERIOD) {
            // Gracefully age usefulness counters.
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.u >>= 1;
                }
            }
        }

        let final_pred = meta.taken;

        // use_alt_on_na bookkeeping.
        if meta.provider.is_some() && meta.weak_provider && meta.provider_pred != meta.alt_pred {
            if meta.alt_pred == taken {
                self.use_alt_on_na = (self.use_alt_on_na + 1).min(7);
            } else {
                self.use_alt_on_na = (self.use_alt_on_na - 1).max(-8);
            }
        }

        match meta.provider.map(usize::from) {
            Some(t) => {
                let e = &mut self.tables[t][meta.indices[t] as usize];
                e.ctr = bump(e.ctr, taken, CTR_MIN, CTR_MAX);
                if meta.provider_pred != meta.alt_pred {
                    if meta.provider_pred == taken {
                        e.u = (e.u + 1).min(U_MAX);
                    } else {
                        e.u = e.u.saturating_sub(1);
                    }
                }
                // If the alternate would also have been correct and the
                // provider entry is useless, let the bimodal keep
                // learning.
                if meta.alt.is_none() {
                    let b = &mut self.bimodal[meta.bimodal_idx as usize];
                    if e.u == 0 {
                        *b = bump(*b, taken, -2, 1);
                    }
                }
            }
            None => {
                let b = &mut self.bimodal[meta.bimodal_idx as usize];
                *b = bump(*b, taken, -2, 1);
            }
        }

        // Allocate a new entry on a final misprediction (unless the
        // provider is already the longest table).
        if final_pred != taken {
            let start = meta.provider.map_or(0, |p| usize::from(p) + 1);
            if start < NUM_TABLES {
                // Skip one table pseudo-randomly to decorrelate
                // allocation, as in reference TAGE.
                let skip = if self.rand_bit() && start + 1 < NUM_TABLES {
                    1
                } else {
                    0
                };
                let mut allocated = false;
                for t in (start + skip)..NUM_TABLES {
                    let e = &mut self.tables[t][meta.indices[t] as usize];
                    if e.u == 0 {
                        *e = TageEntry {
                            ctr: if taken { 0 } else { -1 },
                            tag: meta.tags[t],
                            u: 0,
                        };
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    for t in start..NUM_TABLES {
                        self.tables[t][meta.indices[t] as usize].u =
                            self.tables[t][meta.indices[t] as usize].u.saturating_sub(1);
                    }
                }
            }
        }
    }

    /// Total predictor storage in bits (for the 64 KB budget check).
    pub fn storage_bits(&self) -> u64 {
        let bimodal = (1u64 << LOG_BIMODAL) * 2;
        let tagged: u64 = (0..NUM_TABLES)
            .map(|t| (1u64 << LOG_TAGGED) * (3 + 2 + TAG_BITS[t] as u64))
            .sum();
        bimodal + tagged
    }
}

#[inline]
fn bump(ctr: i8, up: bool, min: i8, max: i8) -> i8 {
    if up {
        (ctr + 1).min(max)
    } else {
        (ctr - 1).max(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a single-branch trace with the core's checkpoint/recover
    /// protocol (history is repaired after each misprediction).
    fn run_pattern(tage: &mut Tage, pc: u64, outcomes: &[bool]) -> (u64, u64) {
        let mut correct = 0;
        let mut total = 0;
        for &o in outcomes {
            let cp = tage.checkpoint();
            let meta = tage.predict(pc);
            if meta.taken == o {
                correct += 1;
            } else {
                tage.recover(&cp, o);
            }
            total += 1;
            tage.train(pc, o, &meta);
        }
        (correct, total)
    }

    #[test]
    fn learns_always_taken() {
        let mut t = Tage::new();
        let outcomes = vec![true; 200];
        let (correct, total) = run_pattern(&mut t, 0x1000, &outcomes);
        assert!(correct as f64 / total as f64 > 0.9, "{correct}/{total}");
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut t = Tage::new();
        let outcomes: Vec<bool> = (0..2000).map(|i| i % 2 == 0).collect();
        let (correct, _) = run_pattern(&mut t, 0x2000, &outcomes);
        // Bimodal alone would get ~50%; history tables should nail it.
        assert!(correct > 1800, "correct = {correct}");
    }

    #[test]
    fn learns_short_loop_trip_count() {
        // taken x7 then not-taken, repeated: classic loop branch.
        let mut t = Tage::new();
        let outcomes: Vec<bool> = (0..4000).map(|i| i % 8 != 7).collect();
        let (correct, total) = run_pattern(&mut t, 0x3000, &outcomes);
        assert!(correct as f64 / total as f64 > 0.95, "{correct}/{total}");
    }

    #[test]
    fn random_data_dependent_branch_stays_hard() {
        // Deterministic pseudo-random outcomes (LCG): TAGE should do no
        // better than ~60% — this is the astar/bfs bottleneck the paper
        // exploits.
        let mut t = Tage::new();
        let mut x = 12345u64;
        let outcomes: Vec<bool> = (0..4000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 62) & 1 == 1
            })
            .collect();
        let (correct, total) = run_pattern(&mut t, 0x4000, &outcomes);
        let acc = correct as f64 / total as f64;
        assert!(acc < 0.65, "random branch should stay hard, got {acc}");
    }

    #[test]
    fn checkpoint_recover_keeps_predictor_consistent() {
        let mut t = Tage::new();
        // Train a pattern.
        for i in 0..500 {
            let meta = t.predict(0x5000);
            t.train(0x5000, i % 3 != 0, &meta);
        }
        // Speculate three predictions, then recover the first.
        let cp = t.checkpoint();
        let m1 = t.predict(0x5000);
        let _m2 = t.predict(0x5008);
        let _m3 = t.predict(0x5010);
        t.recover(&cp, !m1.taken);
        // The history length is checkpoint + 1 actual outcome.
        assert_eq!(t.hist.len(), cp.pos + 1);
    }

    #[test]
    fn storage_is_about_64kb() {
        let t = Tage::new();
        let kb = t.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(kb > 30.0 && kb < 72.0, "TAGE storage = {kb} KB");
    }

    #[test]
    fn distinct_pcs_do_not_destructively_interfere() {
        let mut t = Tage::new();
        let o1: Vec<bool> = (0..1000).map(|i| i % 2 == 0).collect();
        let o2: Vec<bool> = (0..1000).map(|i| i % 2 != 0).collect();
        // Interleave training of two opposite-phase branches.
        let mut c1 = 0;
        let mut c2 = 0;
        for i in 0..1000 {
            let cp = t.checkpoint();
            let m1 = t.predict(0x8000);
            if m1.taken == o1[i] {
                c1 += 1;
            } else {
                t.recover(&cp, o1[i]);
            }
            t.train(0x8000, o1[i], &m1);
            let cp = t.checkpoint();
            let m2 = t.predict(0x9100);
            if m2.taken == o2[i] {
                c2 += 1;
            } else {
                t.recover(&cp, o2[i]);
            }
            t.train(0x9100, o2[i], &m2);
        }
        assert!(c1 > 700, "c1 = {c1}");
        assert!(c2 > 700, "c2 = {c2}");
    }
}
