//! The core-side interface to the PFM Agents.
//!
//! The paper's Fetch, Retire and Load Agents are "designed as integral
//! parts of the superscalar core" (§2); this trait exposes exactly the
//! pipeline touch-points they need. `pfm-fabric` implements it with the
//! full RF clock-domain machinery; [`NoPfm`] is the baseline core.

use pfm_isa::inst::Inst;

/// Decision returned by the Fetch Agent for a fetched instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchOverride {
    /// Not snooped: use the core's own predictor.
    Pass,
    /// FST hit: use this custom conditional-branch prediction.
    Use(bool),
    /// FST hit but IntQ-F is empty (component running late): stall the
    /// fetch unit this cycle and retry.
    Stall,
}

/// Why the pipeline squashed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SquashKind {
    /// Conditional-branch (or jump target) misprediction.
    Mispredict,
    /// Speculative memory-disambiguation violation.
    Disambiguation,
    /// Retire-Agent-requested squash at the beginning of a ROI.
    RoiBegin,
}

/// What the Retire Agent asks the core to do after observing a retired
/// instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetireDirective {
    /// Continue normally.
    Continue,
    /// Squash everything younger than this instruction (beginning of
    /// ROI: aligns the core and the custom component).
    SquashYounger,
}

/// Information about one retired instruction, offered to the Retire
/// Agent.
#[derive(Clone, Copy, Debug)]
pub struct RetireInfo<'a> {
    /// Program-order sequence number.
    pub seq: u64,
    /// Instruction address.
    pub pc: u64,
    /// The instruction.
    pub inst: &'a Inst,
    /// For control instructions: actual direction.
    pub taken: bool,
    /// Destination value (requires a PRF read port to observe).
    pub dest_value: Option<u64>,
    /// Store `(addr, size, value)` (observable from the SQ head).
    pub store: Option<(u64, u64, u64)>,
    /// Whether each execution lane's register-read port was busy last
    /// cycle (for Retire-Agent PRF port contention, parameter P).
    pub lane_busy: [bool; crate::config::NUM_LANES],
}

/// A load or prefetch injected by the Load Agent into a load/store
/// lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FabricLoad {
    /// Component-assigned unique identifier (returned with the value).
    pub id: u64,
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes (1, 2, 4, or 8).
    pub size: u64,
    /// Prefetch (no value returned) vs. load (value returned).
    pub is_prefetch: bool,
}

/// Result of a fabric load's data-cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricLoadResult {
    /// L1 hit: the value (read from committed architectural memory — a
    /// fabric load never searches the store queue).
    Hit {
        /// Loaded value.
        value: u64,
    },
    /// Missed in L1: the Load Agent should buffer it in the missed
    /// load buffer and replay. The load comes back with the miss, so
    /// the agent keeps no record of what it has in flight.
    Miss {
        /// The load that missed.
        load: FabricLoad,
    },
}

/// Core-side PFM hook points. All methods have no-op defaults so the
/// baseline core simply uses [`NoPfm`].
pub trait PfmHooks {
    /// Called at the top of every core cycle. `lane_busy` reports which
    /// execution lanes' register-read ports were occupied last cycle
    /// (the Retire Agent's PRF port-contention input).
    fn begin_cycle(&mut self, _cycle: u64, _lane_busy: [bool; crate::config::NUM_LANES]) {}

    /// Called at the end of every core cycle.
    fn end_cycle(&mut self, _cycle: u64) {}

    /// Fetch Agent: called for every instruction entering the fetch
    /// bundle (identified by its program-order `seq`). Only conditional
    /// branches may be overridden; the agent uses the full stream to
    /// account FST snoop rates and to key its squash-replay protocol.
    fn fetch_inst(&mut self, _seq: u64, _pc: u64, _is_cond_branch: bool) -> FetchOverride {
        FetchOverride::Pass
    }

    /// Retire Agent: called for every retired instruction.
    fn on_retire(&mut self, _info: &RetireInfo<'_>) -> RetireDirective {
        RetireDirective::Continue
    }

    /// Retire Agent: whether the retire stage must stall (squash
    /// protocol in flight).
    fn retire_stalled(&mut self) -> bool {
        false
    }

    /// Notification that the pipeline squashed this cycle: every
    /// in-flight instruction with `seq >= boundary` was rolled back to
    /// fetch.
    fn on_squash(&mut self, _kind: SquashKind, _boundary: u64, _cycle: u64) {}

    /// Load Agent: offered a free load/store issue slot; may inject a
    /// load/prefetch from IntQ-IS.
    fn pop_load(&mut self) -> Option<FabricLoad> {
        None
    }

    /// Load Agent: outcome of a previously injected (non-prefetch)
    /// load. `Hit` arrives when the data does; `Miss` arrives at
    /// access time so the MLB can buffer and replay.
    fn load_result(&mut self, _id: u64, _result: FabricLoadResult, _cycle: u64) {}

    /// Fault-injection seam for the non-interference cross-check.
    ///
    /// The hook API deliberately gives Agents no access to the
    /// [`pfm_isa::Machine`], so a well-typed hook *cannot* change
    /// architectural state. The cross-check in `Core` still checksums
    /// architectural state around every hook invocation in debug builds
    /// (guarding against interior-mutability leaks and future API
    /// widening), and this method is how its own alarm is tested: the
    /// core calls it, inside the checksummed bracket, in debug builds
    /// only. Production hooks keep the no-op default; a deliberately
    /// misbehaving test hook overrides it to mutate state and must trip
    /// the `debug_assert`.
    #[doc(hidden)]
    fn debug_inject_arch_fault(&mut self, _machine: &mut pfm_isa::Machine) {}

    /// Whether skipping a cycle in which the core itself is idle is
    /// equivalent to calling the hooks of that cycle: `begin_cycle` and
    /// `end_cycle` keep no state, `retire_stalled` is always `false`
    /// and `pop_load` always `None`. When true,
    /// [`crate::Core::run_watched_until`] jumps over such cycles. This
    /// is a property of the hooks type, not a setting: the default is
    /// `false`, and only [`NoPfm`] says `true`.
    fn quiescent(&self) -> bool {
        false
    }
}

/// Baseline: no reconfigurable fabric attached.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoPfm;

impl PfmHooks for NoPfm {
    fn quiescent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_pfm_defaults_are_inert() {
        let mut h = NoPfm;
        h.begin_cycle(0, [false; 8]);
        h.end_cycle(0);
        assert_eq!(h.fetch_inst(1, 0x1000, true), FetchOverride::Pass);
        assert!(!h.retire_stalled());
        assert_eq!(h.pop_load(), None);
        h.on_squash(SquashKind::Mispredict, 7, 3);
        let load = FabricLoad {
            id: 1,
            addr: 0x40,
            size: 8,
            is_prefetch: false,
        };
        h.load_result(1, FabricLoadResult::Miss { load }, 4);
        assert!(h.quiescent());
    }
}
