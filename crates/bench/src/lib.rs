//! # pfm-bench — the experiment front ends
//!
//! * the `repro` binary regenerates every table and figure of the
//!   paper's evaluation (`repro --all`, or `repro fig8 table2 ...`);
//! * the `pfm-analyze` binary runs the static analyses and interface
//!   inference over every registered use case.
//!
//! The simulator's own speed is measured by `pfm-benchmark`
//! (`benchmark/`), end to end and, with `--trace 1`, per layer.

pub use pfm_sim::experiments;
