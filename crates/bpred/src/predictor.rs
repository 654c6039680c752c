//! A unified front over the conditional predictors so the core can be
//! configured with either of them (the TAGE-SC-L baseline, or an
//! oracle for perfect-BP experiments).

use crate::tagescl::{TageScl, TageSclCheckpoint, TageSclMeta};
use pfm_isa::snap::{Dec, Enc, SnapError};

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

    /// Serializes the prediction metadata (variant tag + payload).
    pub fn snapshot_encode(&self, e: &mut Enc) {
        match self {
            Prediction::TageScl(m) => {
                e.u8(0);
                m.snapshot_encode(e);
            }
            Prediction::Perfect { taken } => {
                e.u8(3);
                e.bool(*taken);
            }
        }
    }

    /// Decodes a prediction serialized by
    /// [`Prediction::snapshot_encode`].
    pub fn snapshot_decode(d: &mut Dec<'_>) -> Result<Prediction, SnapError> {
        Ok(match d.u8()? {
            0 => Prediction::TageScl(TageSclMeta::snapshot_decode(d)?),
            3 => Prediction::Perfect { taken: d.bool()? },
            _ => return Err(SnapError::Corrupt("prediction variant tag")),
        })
    }
}

/// Speculative-history checkpoint for the unified predictor.
// Checkpoints are taken on every predicted branch in the timing hot
// path; keeping the TAGE-SC-L state inline avoids a per-branch heap
// allocation at the cost of a wide enum.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Checkpoint {
    /// TAGE-SC-L checkpoint.
    TageScl(TageSclCheckpoint),
    /// No speculative state.
    None,
}

impl Checkpoint {
    /// Serializes the checkpoint (variant tag + payload).
    pub fn snapshot_encode(&self, e: &mut Enc) {
        match self {
            Checkpoint::TageScl(c) => {
                e.u8(0);
                c.snapshot_encode(e);
            }
            Checkpoint::None => e.u8(2),
        }
    }

    /// Decodes a checkpoint serialized by
    /// [`Checkpoint::snapshot_encode`].
    pub fn snapshot_decode(d: &mut Dec<'_>) -> Result<Checkpoint, SnapError> {
        Ok(match d.u8()? {
            0 => Checkpoint::TageScl(TageSclCheckpoint::snapshot_decode(d)?),
            2 => Checkpoint::None,
            _ => return Err(SnapError::Corrupt("checkpoint variant tag")),
        })
    }
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
    pub fn predict(&mut self, pc: u64, oracle_outcome: bool) -> Prediction {
        match self {
            Predictor::TageScl(p) => Prediction::TageScl(p.predict(pc)),
            Predictor::Perfect => Prediction::Perfect {
                taken: oracle_outcome,
            },
        }
    }

    /// Snapshots speculative history before a branch.
    pub fn checkpoint(&self) -> Checkpoint {
        match self {
            Predictor::TageScl(p) => Checkpoint::TageScl(p.checkpoint()),
            Predictor::Perfect => Checkpoint::None,
        }
    }

    /// Restores speculative history to `cp` without pushing an outcome
    /// (squash at a non-branch boundary).
    pub fn restore(&mut self, cp: &Checkpoint) {
        if let (Predictor::TageScl(p), Checkpoint::TageScl(c)) = (self, cp) {
            p.restore(c);
        }
    }

    /// Recovers from a misprediction: restores `cp` and pushes the
    /// actual outcome.
    pub fn recover(&mut self, cp: &Checkpoint, actual: bool) {
        if let (Predictor::TageScl(p), Checkpoint::TageScl(c)) = (self, cp) {
            p.recover(c, actual);
        }
    }

    /// Serializes the full predictor state (variant tag + tables,
    /// histories and folds).
    pub fn snapshot_encode(&self, e: &mut Enc) {
        // The variant tags here, in `Prediction` and in `Checkpoint`
        // are part of the snapshot format and stay fixed.
        match self {
            Predictor::TageScl(p) => {
                e.u8(0);
                p.snapshot_encode(e);
            }
            Predictor::Perfect => e.u8(3),
        }
    }

    /// Decodes a predictor serialized by
    /// [`Predictor::snapshot_encode`].
    pub fn snapshot_decode(d: &mut Dec<'_>) -> Result<Predictor, SnapError> {
        Ok(match d.u8()? {
            0 => Predictor::TageScl(Box::new(TageScl::snapshot_decode(d)?)),
            3 => Predictor::Perfect,
            _ => return Err(SnapError::Corrupt("predictor variant tag")),
        })
    }

    /// Trains at retirement with the actual outcome.
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
    fn perfect_is_always_right() {
        let mut p = Predictor::new(PredictorKind::Perfect);
        for i in 0..100 {
            let truth = (i * 7) % 3 == 0;
            assert_eq!(p.predict(0x2000, truth).taken(), truth);
        }
    }

    /// Drives `p` through a deterministic branch trace with the full
    /// checkpoint/recover/train protocol, returning the prediction
    /// directions observed.
    fn drive(p: &mut Predictor, len: u64, seed: u64) -> Vec<bool> {
        let mut out = Vec::new();
        for i in 0..len {
            let pc = 0x1000 + (i % 7) * 8;
            let truth = (i * seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 0;
            let cp = p.checkpoint();
            let pred = p.predict(pc, truth);
            out.push(pred.taken());
            if pred.taken() != truth {
                p.recover(&cp, truth);
            }
            p.train(pc, truth, &pred);
        }
        out
    }

    #[test]
    fn snapshot_roundtrip_preserves_behavior() {
        use pfm_isa::snap::{Dec, Enc};
        for kind in [PredictorKind::TageScl, PredictorKind::Perfect] {
            let mut original = Predictor::new(kind);
            drive(&mut original, 500, 3);

            let mut e = Enc::new();
            original.snapshot_encode(&mut e);
            let bytes = e.finish();
            let mut d = Dec::new(&bytes);
            let mut restored = Predictor::snapshot_decode(&mut d).expect("decode");
            d.finish().expect("no trailing bytes");

            // Re-encoding must be byte-identical (canonical encoding).
            let mut e2 = Enc::new();
            restored.snapshot_encode(&mut e2);
            assert_eq!(bytes, e2.finish(), "{kind:?} re-encode differs");

            // Both copies must predict identically from here on.
            let a = drive(&mut original, 500, 11);
            let b = drive(&mut restored, 500, 11);
            assert_eq!(a, b, "{kind:?} diverged after restore");
        }
    }

    #[test]
    fn prediction_and_checkpoint_roundtrip() {
        use pfm_isa::snap::{Dec, Enc};
        for kind in [PredictorKind::TageScl, PredictorKind::Perfect] {
            let mut p = Predictor::new(kind);
            drive(&mut p, 100, 5);
            let cp = p.checkpoint();
            let pred = p.predict(0x2000, true);

            let mut e = Enc::new();
            pred.snapshot_encode(&mut e);
            cp.snapshot_encode(&mut e);
            let bytes = e.finish();
            let mut d = Dec::new(&bytes);
            let pred2 = Prediction::snapshot_decode(&mut d).expect("pred decode");
            let cp2 = Checkpoint::snapshot_decode(&mut d).expect("cp decode");
            d.finish().expect("no trailing bytes");

            assert_eq!(pred.taken(), pred2.taken());
            let mut e2 = Enc::new();
            pred2.snapshot_encode(&mut e2);
            cp2.snapshot_encode(&mut e2);
            assert_eq!(bytes, e2.finish(), "{kind:?} meta re-encode differs");
        }
    }

    #[test]
    fn btb_and_ras_snapshot_roundtrip() {
        use crate::btb::{BranchKind, Btb, Ras};
        use pfm_isa::snap::{Dec, Enc};
        let mut btb = Btb::new(6);
        btb.update(0x1000, 0x2000, BranchKind::Call);
        btb.update(0x1040, 0x3000, BranchKind::Return);
        btb.lookup(0x1000);
        btb.lookup(0x9999);
        let mut ras = Ras::new(8);
        ras.push(0x100);
        ras.push(0x200);

        let mut e = Enc::new();
        btb.snapshot_encode(&mut e);
        ras.snapshot_encode(&mut e);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        let mut btb2 = Btb::snapshot_decode(&mut d).expect("btb decode");
        let mut ras2 = Ras::snapshot_decode(&mut d).expect("ras decode");
        d.finish().expect("no trailing bytes");

        assert_eq!(btb2.lookup(0x1000), Some((0x2000, BranchKind::Call)));
        assert_eq!(btb2.hits, btb.hits + 1);
        assert_eq!(ras2.pop(), Some(0x200));
        assert_eq!(ras2.pop(), Some(0x100));
        assert_eq!(ras2.pop(), None);
    }
}
