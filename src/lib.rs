//! # pfm — Post-Fabrication Microarchitecture (MICRO 2021), reproduced in Rust
//!
//! A full reproduction of *"Post-Fabrication Microarchitecture"*
//! (Kumar, Seshadri, Chaudhary, Bhawalkar, Singh, Rotenberg — MICRO-54,
//! 2021): a cycle-level out-of-order superscalar simulator with a
//! reconfigurable-fabric (RF) attachment whose Fetch, Retire and Load
//! Agents let application-specific microarchitectural components
//! observe retired instructions and intervene with custom branch
//! predictions and prefetches — without ever touching architectural
//! state.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`pfm_isa`] — RISC-V-flavored ISA, assembler, functional machine.
//! * [`pfm_mem`] — caches, MSHRs, DRAM, next-N-line + VLDP prefetchers.
//! * [`pfm_bpred`] — 64 KB TAGE-SC-L, perfect-BP oracle, BTB, RAS.
//! * [`pfm_core`] — the Table 1 out-of-order core with PFM hook points.
//! * [`pfm_fabric`] — the RF clock domain and the three Agents.
//! * [`pfm_components`] — astar/bfs custom predictors, prefetch engines,
//!   astar-alt, the slipstream comparison model.
//! * [`pfm_workloads`] — the paper's workloads rebuilt for the simulator.
//! * [`pfm_fpga`] — FPGA resource/power and core-energy models.
//! * [`pfm_sim`] (as [`sim`]) — integration, runners and every
//!   table/figure of the evaluation.
//!
//! ## Quickstart
//!
//! ```no_run
//! use pfm::sim::{run_baseline, run_pfm, RunConfig};
//! use pfm_fabric::FabricParams;
//!
//! let usecase = pfm::sim::usecases::astar_custom();
//! let rc = RunConfig::paper_scale();
//! let base = run_baseline(&usecase, &rc).unwrap();
//! let pfm = run_pfm(&usecase, FabricParams::paper_default(), &rc).unwrap();
//! println!("+{:.0}% IPC", pfm.speedup_over(&base));
//! ```

#![warn(missing_docs)]

pub use pfm_bpred;
pub use pfm_components;
pub use pfm_core;
pub use pfm_fabric;
pub use pfm_fpga;
pub use pfm_isa;
pub use pfm_mem;
pub use pfm_sim;
pub use pfm_sim as sim;
pub use pfm_workloads;
