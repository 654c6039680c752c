//! # pfm-components — the paper's custom microarchitectural components
//!
//! Application-specific components synthesized into the reconfigurable
//! fabric, as evaluated in §4/§5 of the paper:
//!
//! * [`template::TemplateComponent`] — the three-engine run-ahead
//!   predictor of Figure 7 as a declarative template (the §7
//!   future-work direction): astar's `makebound2` wave expansion runs
//!   it, with the index1_CAM store inference as its entered set, from
//!   the same spec static analysis derives
//!   ([`template::spec_from_profile`]). Clearing the inference and the
//!   maparp predictions reproduces the slipstream 2.0 limitation
//!   discussed in §1.1 (see [`slipstream`]).
//! * [`bfs::BfsComponent`] — the four-engine bfs component (Figure 11)
//!   combining high-MLP load running-ahead with trip-count and
//!   visited-branch predictions.
//! * [`prefetch::CustomPrefetcher`] — Prefetch Generation Engines with
//!   the epoch-based adaptive-distance feedback (Figure 16), composing
//!   into the libquantum/bwaves/lbm/milc/leslie use-cases.
//! * [`astar_alt::AstarAltPredictor`] — the EXACT-inspired
//!   table-mimicking variant of §5 (Table 4's `astar-alt` row).

#![warn(missing_docs)]

pub mod astar_alt;
pub mod bfs;
pub mod prefetch;
pub mod slipstream;
pub mod template;

pub use astar_alt::{AstarAltConfig, AstarAltPredictor};
pub use bfs::{BfsComponent, BfsConfig};
pub use prefetch::{AdaptiveDistance, CustomPrefetcher, EngineConfig};
pub use template::{LaneSpec, Predicate, TemplateComponent, TemplateSpec};
