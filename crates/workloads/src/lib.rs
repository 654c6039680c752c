//! # pfm-workloads — the paper's workloads, rebuilt for the simulator
//!
//! Hand-assembled kernels that faithfully reproduce the regions of
//! interest the paper targets (§3, §4): astar's `makebound2` wavefront
//! expansion (Figure 6), GAP top-down BFS over road-network-like and
//! power-law graphs, and the five SPEC-2006-style delinquent-load
//! kernels (libquantum's toffoli walk of Figure 15, bwaves, lbm, milc,
//! leslie). Each builder returns a [`UseCase`]: program + initial
//! memory + the "configuration bitstream" (FST/RST snoop tables and a
//! custom-component factory) shipped with the executable.

#![warn(missing_docs)]

pub mod astar;
pub mod bfs;
pub mod dispatch;
pub mod graphs;
pub mod spec;
pub mod usecase;

/// Finishes a static kernel, panicking with the kernel name when
/// assembly fails: workload kernels are fixed programs, so an unbound
/// label there is a builder bug, not a runtime condition.
pub(crate) fn assembled(
    kernel: &str,
    r: Result<pfm_isa::Program, pfm_isa::asm::AsmError>,
) -> pfm_isa::Program {
    match r {
        Ok(p) => p,
        Err(e) => panic!("{kernel}: kernel failed to assemble: {e}"),
    }
}

pub use astar::{astar, astar_reference, AstarParams, AstarVariant};
pub use bfs::{bfs, bfs_variant, BfsParams, BfsVariant};
pub use graphs::{powerlaw_graph, road_graph, Csr};
pub use spec::{bwaves, lbm, leslie, libquantum, milc};
pub use usecase::{UseCase, UseCaseFactory};
