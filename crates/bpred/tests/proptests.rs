//! Property-based tests for the branch-prediction substrate: folded
//! history correctness, checkpoint/recovery equivalence, and
//! predictor robustness on arbitrary traces.

use pfm_bpred::history::{Folded, GlobalHistory};
use pfm_bpred::{Predictor, PredictorKind};
use proptest::prelude::*;

/// Ground-truth fold: XOR-fold of exactly the last `orig` outcomes
/// into `width` bits, rotating each bit into position the same way the
/// incremental fold does.
fn fold_from_scratch(outcomes: &[bool], orig: u32, width: u32) -> u32 {
    // Replay the incremental update over only the window, preceded by
    // enough zero-padding that older bits have fully cancelled.
    let mut h = GlobalHistory::new();
    let mut f = Folded::new(orig, width);
    let start = outcomes.len().saturating_sub(orig as usize);
    for _ in 0..orig {
        h.push(false);
        f.update(&h);
    }
    for &b in &outcomes[start..] {
        h.push(b);
        f.update(&h);
    }
    f.value()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental fold over a long, arbitrary stream equals the
    /// fold computed from scratch over just the window: bits older
    /// than the window cancel exactly.
    #[test]
    fn folded_history_window_exactness(
        outcomes in prop::collection::vec(any::<bool>(), 50..400),
        orig in 2u32..48,
        width in 5u32..14,
    ) {
        let mut h = GlobalHistory::new();
        let mut f = Folded::new(orig, width);
        for &b in &outcomes {
            h.push(b);
            f.update(&h);
        }
        prop_assert_eq!(f.value(), fold_from_scratch(&outcomes, orig, width));
    }

    /// Checkpoint/restore across arbitrary wrong-path speculation
    /// reproduces the exact same future prediction stream as an oracle
    /// that never speculated.
    #[test]
    fn checkpoint_recovery_equivalence(
        warmup in prop::collection::vec(any::<bool>(), 10..120),
        wrong_path in 1usize..40,
        tail in prop::collection::vec(any::<bool>(), 1..40),
    ) {
        let mut spec = Predictor::new(PredictorKind::TageScl);
        let mut oracle = Predictor::new(PredictorKind::TageScl);
        // Identical warmup with recovery-on-mispredict on both.
        for (i, &truth) in warmup.iter().enumerate() {
            let pc = 0x1000 + (i as u64 % 16) * 4;
            for p in [&mut spec, &mut oracle] {
                let cp = p.checkpoint();
                let pred = p.predict(pc, truth);
                if pred.taken() != truth {
                    p.recover(&cp, truth);
                }
                p.train(pc, truth, &pred);
            }
        }
        // `spec` goes down a wrong path (no training) and then restores.
        let cp = spec.checkpoint();
        for i in 0..wrong_path {
            let _ = spec.predict(0x9000 + (i as u64) * 4, false);
        }
        spec.restore(&cp);
        // Both must now predict identically on the tail.
        for (i, &truth) in tail.iter().enumerate() {
            let pc = 0x1000 + (i as u64 % 16) * 4;
            let a = spec.predict(pc, truth);
            let b = oracle.predict(pc, truth);
            prop_assert_eq!(a.taken(), b.taken(), "divergence at tail step {}", i);
            spec.train(pc, truth, &a);
            oracle.train(pc, truth, &b);
        }
    }

    /// All predictors survive arbitrary interleavings of predict,
    /// recover and train without panicking, and the perfect oracle is
    /// always right.
    #[test]
    fn predictors_are_total(
        trace in prop::collection::vec((0u64..64, any::<bool>()), 1..200),
    ) {
        for kind in [PredictorKind::TageScl, PredictorKind::Perfect] {
            let mut p = Predictor::new(kind);
            for &(pc_idx, truth) in &trace {
                let pc = 0x2000 + pc_idx * 4;
                let cp = p.checkpoint();
                let pred = p.predict(pc, truth);
                if kind == PredictorKind::Perfect {
                    prop_assert_eq!(pred.taken(), truth);
                }
                if pred.taken() != truth {
                    p.recover(&cp, truth);
                }
                p.train(pc, truth, &pred);
            }
        }
    }

    /// TAGE-SC-L eventually learns any short periodic pattern to >90%
    /// accuracy (measured over the second half of the trace).
    #[test]
    fn tage_learns_periodic_patterns(period in 2usize..12, phase in 0usize..12) {
        let mut p = Predictor::new(PredictorKind::TageScl);
        let n = 4000;
        let mut correct_late = 0;
        let mut total_late = 0;
        for i in 0..n {
            let truth = (i + phase) % period == 0;
            let cp = p.checkpoint();
            let pred = p.predict(0x3000, truth);
            if pred.taken() != truth {
                p.recover(&cp, truth);
            }
            p.train(0x3000, truth, &pred);
            if i >= n / 2 {
                total_late += 1;
                if pred.taken() == truth {
                    correct_late += 1;
                }
            }
        }
        let acc = correct_late as f64 / total_late as f64;
        prop_assert!(acc > 0.9, "period {} phase {}: accuracy {}", period, phase, acc);
    }
}
