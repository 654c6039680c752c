//! # pfm-sim — full-system integration and experiment driver
//!
//! Wires the functional machine, the cycle-level core, the memory
//! hierarchy, and the PFM fabric together ([`runner`]), instantiates
//! the paper's workloads at experiment scale ([`usecases`]), and
//! regenerates every table and figure of the evaluation as
//! plan → execute → assemble: [`experiments`] builds declarative
//! [`plan::ExperimentPlan`]s, and [`exec`] deduplicates and runs them
//! across worker threads.
//!
//! ## Example
//!
//! ```no_run
//! use pfm_sim::{run_baseline, run_pfm, RunConfig};
//! use pfm_fabric::FabricParams;
//!
//! let uc = pfm_sim::usecases::astar_custom();
//! let rc = RunConfig::paper_scale();
//! let base = run_baseline(&uc, &rc).unwrap();
//! let pfm = run_pfm(&uc, FabricParams::paper_default(), &rc).unwrap();
//! println!("astar PFM speedup: +{:.0}%", pfm.speedup_over(&base));
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod exec;
pub mod experiments;
pub mod plan;
pub mod runner;
pub mod sampled;
pub mod schedule;
pub mod store;
pub mod usecases;

pub use exec::{run_plans, ExecOptions, ExecReport, FailureReport};
pub use experiments::{Experiment, Row};
pub use plan::{ExperimentPlan, PlanError, RunOutcome, RunSet, RunSpec};
pub use runner::{
    run_baseline, run_chaos, run_context_switch, run_functional, run_pfm, CtxMode, CtxStats,
    RunConfig, RunError, RunResult, DEFAULT_COMMIT_WATCHDOG,
};
pub use sampled::{run_sampled, IntervalRow, SampledConfig, SampledError, SampledReport};
pub use schedule::{ScheduledFabric, Tenant};
pub use store::{CodeFingerprint, ResultStore, STATS_SCHEMA_VERSION};
