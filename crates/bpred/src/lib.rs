//! # pfm-bpred — branch prediction substrate
//!
//! The paper's baseline conditional branch predictor, 64 KB
//! **TAGE-SC-L** (Seznec, CBP-5 2016), built from scratch: TAGE with
//! eight geometric tagged tables over incrementally-folded global
//! history, a GEHL-style statistical corrector, and a loop predictor.
//! Also provides an oracle (perfect-BP) mode, a BTB, and a return
//! address stack.
//!
//! The speculative-history checkpoint/recover protocol mirrors the
//! paper's fetch unit, which keeps a branch queue of in-flight branches
//! to train tables at retirement and checkpoint/restore global history.
//!
//! ## Example
//!
//! ```
//! use pfm_bpred::{Predictor, PredictorKind};
//!
//! let mut p = Predictor::new(PredictorKind::TageScl);
//! let mut correct = 0;
//! for i in 0..1000u32 {
//!     let truth = i % 2 == 0;
//!     let pred = p.predict(0x1000, truth);
//!     if pred.taken() == truth { correct += 1; }
//!     p.train(0x1000, truth, &pred);
//! }
//! assert!(correct > 900); // alternation is easy with history
//! ```

#![warn(missing_docs)]

pub mod btb;
pub mod history;
pub mod loop_pred;
pub mod predictor;
pub mod sc;
pub mod tage;
pub mod tagescl;

pub use btb::{BranchKind, Btb, Ras};
pub use predictor::{Checkpoint, Prediction, Predictor, PredictorKind};
pub use tagescl::TageScl;
