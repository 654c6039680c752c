//! The combined 64 KB TAGE-SC-L predictor of Table 1: TAGE provides the
//! base prediction, the loop predictor overrides for stable-trip loops,
//! and the statistical corrector has the final say.

use crate::loop_pred::{LoopMeta, LoopPredictor};
use crate::sc::{ScCheckpoint, ScMeta, StatisticalCorrector};
use crate::tage::{Tage, TageCheckpoint, TageMeta};

/// Per-prediction metadata for the combined predictor.
#[derive(Clone, Copy, Debug)]
pub struct TageSclMeta {
    /// TAGE component metadata.
    pub tage: TageMeta,
    /// Corrector metadata.
    pub sc: ScMeta,
    /// Loop predictor metadata.
    pub lp: LoopMeta,
    /// Final prediction.
    pub taken: bool,
}

/// Combined speculative-history checkpoint.
#[derive(Clone, Debug)]
pub struct TageSclCheckpoint {
    tage: TageCheckpoint,
    sc: ScCheckpoint,
}

/// 64 KB TAGE-SC-L.
#[derive(Clone, Debug, Default)]
pub struct TageScl {
    tage: Tage,
    sc: StatisticalCorrector,
    lp: LoopPredictor,
}

impl TageScl {
    /// Creates an untrained predictor.
    pub fn new() -> TageScl {
        TageScl::default()
    }

    /// Predicts the conditional branch at `pc`, speculatively updating
    /// history.
    pub fn predict(&mut self, pc: u64) -> TageSclMeta {
        let tage = self.tage.predict(pc);
        let lp = self.lp.predict(pc);
        let after_loop = if lp.hit { lp.taken } else { tage.taken };
        let sc = self.sc.predict(pc, after_loop, tage.provider_ctr);
        let taken = sc.taken;
        TageSclMeta {
            tage,
            sc,
            lp,
            taken,
        }
    }

    /// Snapshots speculative history state (for the branch queue).
    pub fn checkpoint(&self) -> TageSclCheckpoint {
        TageSclCheckpoint {
            tage: self.tage.checkpoint(),
            sc: self.sc.checkpoint(),
        }
    }

    /// Restores to a checkpoint without pushing any outcome.
    pub fn restore(&mut self, cp: &TageSclCheckpoint) {
        self.tage.restore(&cp.tage);
        self.sc.restore(&cp.sc);
    }

    /// Restores to a checkpoint taken before a mispredicted branch and
    /// pushes its actual outcome.
    pub fn recover(&mut self, cp: &TageSclCheckpoint, actual: bool) {
        self.tage.recover(&cp.tage, actual);
        self.sc.recover(&cp.sc, actual);
    }

    /// Trains all components at retirement.
    pub fn train(&mut self, pc: u64, taken: bool, meta: &TageSclMeta) {
        self.tage.train(pc, taken, &meta.tage);
        self.sc.train(taken, &meta.sc);
        self.lp.train(pc, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicts_biased_branches_well() {
        let mut p = TageScl::new();
        let mut correct = 0;
        for i in 0..2000 {
            let truth = i % 10 != 9;
            let m = p.predict(0x1000);
            if m.taken == truth {
                correct += 1;
            }
            p.train(0x1000, truth, &m);
        }
        assert!(correct > 1800, "correct = {correct}");
    }

    #[test]
    fn mispredict_recovery_path_runs() {
        let mut p = TageScl::new();
        for i in 0..100 {
            let cp = p.checkpoint();
            let m = p.predict(0x2000);
            let truth = i % 4 == 0;
            if m.taken != truth {
                p.recover(&cp, truth);
            }
            p.train(0x2000, truth, &m);
        }
    }

    #[test]
    fn loop_component_captures_fixed_trips() {
        let mut p = TageScl::new();
        // Nested irregular outer behaviour + fixed 12-trip inner loop.
        let mut mispredicts = 0;
        let mut total = 0;
        for _ in 0..300 {
            for i in 0..12 {
                let truth = i + 1 < 12;
                let m = p.predict(0x3000);
                total += 1;
                if m.taken != truth {
                    mispredicts += 1;
                }
                p.train(0x3000, truth, &m);
            }
        }
        let mpki_like = mispredicts as f64 / total as f64;
        assert!(
            mpki_like < 0.05,
            "loop branch misprediction rate {mpki_like}"
        );
    }
}
