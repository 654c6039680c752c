//! # pfm-components — the paper's custom microarchitectural components
//!
//! Application-specific components synthesized into the reconfigurable
//! fabric, as evaluated in §4/§5 of the paper:
//!
//! * [`template::TemplateComponent`] — the run-ahead predictors of
//!   Figure 7 (astar) and Figure 11 (bfs) as one declarative template
//!   (the §7 future-work direction): a chain of load stages with
//!   branch predictions and an entered set for store inference.
//!   astar's `makebound2` wave expansion runs it from the same spec
//!   static analysis derives ([`template::spec_from_profile`]); bfs
//!   runs it with a range stage whose trip count comes from two loads.
//!   Clearing the inference and the non-leading predictions reproduces
//!   the slipstream 2.0 limitation discussed in §1.1 (see
//!   [`slipstream`]).
//! * [`prefetch::CustomPrefetcher`] — Prefetch Generation Engines with
//!   the epoch-based adaptive-distance feedback (Figure 16), composing
//!   into the libquantum/bwaves/lbm/milc/leslie use-cases.
//! * [`astar_alt::AstarAltPredictor`] — the EXACT-inspired
//!   table-mimicking variant of §5 (Table 4's `astar-alt` row).

#![warn(missing_docs)]

pub mod astar_alt;
pub mod prefetch;
pub mod slipstream;
pub mod template;

pub use astar_alt::{AstarAltConfig, AstarAltPredictor};
pub use prefetch::{AdaptiveDistance, CustomPrefetcher, EngineConfig};
pub use template::{
    BranchSpec, Infer, LaneSpec, Predicate, Source, StageSpec, TemplateComponent, TemplateSpec,
};
