//! A unified front over the conditional predictors so the core can be
//! configured with either of them (the TAGE-SC-L baseline, or an
//! oracle for perfect-BP experiments).

use crate::tagescl::{TageScl, TageSclCheckpoint, TageSclMeta};

/// Which conditional predictor to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictorKind {
    /// 64 KB TAGE-SC-L (the paper's baseline).
    TageScl,
    /// Oracle: always correct (perfect branch prediction). The core
    /// substitutes the actual outcome.
    Perfect,
}

impl PredictorKind {
    /// Canonical label (used in run keys and experiment labels).
    pub fn label(&self) -> &'static str {
        match self {
            PredictorKind::TageScl => "tagescl",
            PredictorKind::Perfect => "perfectBP",
        }
    }
}

/// Per-prediction metadata (paired with the later `train` call).
#[derive(Clone, Debug)]
pub enum Prediction {
    /// TAGE-SC-L metadata.
    TageScl(TageSclMeta),
    /// Oracle (no metadata).
    Perfect {
        /// The (always correct) prediction.
        taken: bool,
    },
}

impl Prediction {
    /// The predicted direction.
    pub fn taken(&self) -> bool {
        match self {
            Prediction::TageScl(m) => m.taken,
            Prediction::Perfect { taken } => *taken,
        }
    }
}

/// Speculative-history checkpoint for the unified predictor.
// Checkpoints are taken on every predicted branch in the timing hot
// path: the TAGE-SC-L state is two push positions and 28 folded
// values, kept inline to avoid a per-branch heap allocation.
#[derive(Clone, Debug)]
pub enum Checkpoint {
    /// TAGE-SC-L checkpoint.
    TageScl(TageSclCheckpoint),
    /// No speculative state.
    None,
}

/// The unified conditional branch predictor.
#[derive(Clone, Debug)]
pub enum Predictor {
    /// 64 KB TAGE-SC-L.
    TageScl(Box<TageScl>),
    /// Oracle.
    Perfect,
}

impl Predictor {
    /// Instantiates the requested predictor.
    pub fn new(kind: PredictorKind) -> Predictor {
        match kind {
            PredictorKind::TageScl => Predictor::TageScl(Box::new(TageScl::new())),
            PredictorKind::Perfect => Predictor::Perfect,
        }
    }

    /// Predicts the conditional branch at `pc`. For the oracle, the
    /// caller passes the actual outcome in `oracle_outcome`.
    #[inline]
    pub fn predict(&mut self, pc: u64, oracle_outcome: bool) -> Prediction {
        match self {
            Predictor::TageScl(p) => Prediction::TageScl(p.predict(pc)),
            Predictor::Perfect => Prediction::Perfect {
                taken: oracle_outcome,
            },
        }
    }

    /// Snapshots speculative history before a branch.
    #[inline]
    pub fn checkpoint(&self) -> Checkpoint {
        match self {
            Predictor::TageScl(p) => Checkpoint::TageScl(p.checkpoint()),
            Predictor::Perfect => Checkpoint::None,
        }
    }

    /// Restores speculative history to `cp` without pushing an outcome
    /// (squash at a non-branch boundary).
    #[inline]
    pub fn restore(&mut self, cp: &Checkpoint) {
        if let (Predictor::TageScl(p), Checkpoint::TageScl(c)) = (self, cp) {
            p.restore(c);
        }
    }

    /// Recovers from a misprediction: restores `cp` and pushes the
    /// actual outcome.
    #[inline]
    pub fn recover(&mut self, cp: &Checkpoint, actual: bool) {
        if let (Predictor::TageScl(p), Checkpoint::TageScl(c)) = (self, cp) {
            p.recover(c, actual);
        }
    }

    /// Trains at retirement with the actual outcome.
    #[inline]
    pub fn train(&mut self, pc: u64, taken: bool, pred: &Prediction) {
        if let (Predictor::TageScl(p), Prediction::TageScl(m)) = (self, pred) {
            p.train(pc, taken, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_construct_and_predict() {
        for kind in [PredictorKind::TageScl, PredictorKind::Perfect] {
            let mut p = Predictor::new(kind);
            let cp = p.checkpoint();
            let pred = p.predict(0x1000, true);
            p.train(0x1000, true, &pred);
            p.recover(&cp, true);
        }
    }

    #[test]
    fn branch_queue_records_stay_small() {
        // The core copies one of each per conditional branch.
        assert!(std::mem::size_of::<Checkpoint>() <= 96);
        assert!(std::mem::size_of::<Prediction>() <= 64);
    }

    #[test]
    fn perfect_is_always_right() {
        let mut p = Predictor::new(PredictorKind::Perfect);
        for i in 0..100 {
            let truth = (i * 7) % 3 == 0;
            assert_eq!(p.predict(0x2000, truth).taken(), truth);
        }
    }
}
