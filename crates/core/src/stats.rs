//! Simulation statistics.

pfm_isa::counters! {
    /// Counters collected during a simulation run.
    ///
    /// `Eq` is part of the simulator's public determinism contract: two
    /// runs of the same `RunSpec` must produce identical counters (see the
    /// determinism regression tests in `pfm-sim`).
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct SimStats {
        /// Elapsed core cycles.
        pub cycles: u64,
        /// Retired instructions.
        pub retired: u64,
        /// Retired conditional branches.
        pub cond_branches: u64,
        /// Mispredicted conditional branches (resolved at execute).
        pub mispredicts: u64,
        /// Mispredicted return/indirect targets.
        pub target_mispredicts: u64,
        /// Pipeline squashes due to branch mispredictions.
        pub squash_mispredict: u64,
        /// Pipeline squashes due to memory-disambiguation violations.
        pub squash_disambiguation: u64,
        /// Pipeline squashes requested by the Retire Agent (ROI begin).
        pub squash_roi: u64,
        /// Cycles fetch stalled waiting for the I-cache.
        pub fetch_icache_stall_cycles: u64,
        /// Cycles fetch stalled waiting for a custom prediction (IntQ-F
        /// empty on an FST hit).
        pub fetch_fabric_stall_cycles: u64,
        /// Cycles fetch was idle waiting for a mispredict redirect.
        pub fetch_redirect_stall_cycles: u64,
        /// Cycles retire was stalled by the Retire Agent squash protocol.
        pub retire_agent_stall_cycles: u64,
        /// Conditional-branch predictions supplied by the Fetch Agent.
        pub fabric_predictions_used: u64,
        /// Fabric-supplied predictions that were wrong.
        pub fabric_mispredicts: u64,
        /// Loads injected by the Load Agent that were executed.
        pub fabric_loads: u64,
        /// Prefetches injected by the Load Agent.
        pub fabric_prefetches: u64,
        /// Retired loads.
        pub loads: u64,
        /// Retired stores.
        pub stores: u64,
    }
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch mispredictions per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.mispredicts as f64 * 1000.0 / self.retired as f64
        }
    }

    /// Percentage IPC improvement of `self` over `base` (the paper's
    /// headline metric; 0% = no change).
    pub fn ipc_improvement_over(&self, base: &SimStats) -> f64 {
        if base.ipc() == 0.0 {
            0.0
        } else {
            (self.ipc() / base.ipc() - 1.0) * 100.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_mpki() {
        let s = SimStats {
            cycles: 1000,
            retired: 2500,
            mispredicts: 25,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.mpki() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mpki(), 0.0);
        assert_eq!(s.ipc_improvement_over(&s), 0.0);
    }

    #[test]
    fn improvement_percentage() {
        let base = SimStats {
            cycles: 1000,
            retired: 1000,
            ..Default::default()
        };
        let fast = SimStats {
            cycles: 500,
            retired: 1000,
            ..Default::default()
        };
        assert!((fast.ipc_improvement_over(&base) - 100.0).abs() < 1e-9);
    }
}
