//! Multi-tenant runtime scheduling of the reconfigurable fabric.
//!
//! The paper configures the fabric once, before the workload starts.
//! This module models the post-fabrication consequence of that design:
//! a fabric is a *slot*, and when several workloads time-share one core
//! the slot must be re-targeted at run time. [`ScheduledFabric`] wraps
//! one [`Fabric`] shared by every tenant and drives the swap protocol
//! ([`Fabric::begin_swap`]) from a phase detector:
//!
//! * **Phase signature.** A sliding window of the last
//!   [`PHASE_WINDOW`] retired PCs is scored against each tenant's watch
//!   set (its FST ∪ RST addresses) every [`DECIDE_EVERY`] retires. The
//!   tenant whose configuration would have snooped the most of the
//!   recent stream is the phase's owner.
//! * **Hysteresis.** A challenger must win [`HYSTERESIS`] consecutive
//!   decisions before a swap is requested, so prediction noise (or a
//!   corrupted signature) cannot thrash the slot: every swap costs a
//!   drain window plus a partial-reconfiguration load
//!   (`pfm_fpga::reconfig_cycles`).
//! * **ROI context.** A swap evicts the armed ROI context together
//!   with the outgoing bitstream: the incoming tenant's Agents stay
//!   inert until its next `begin_roi` retires, which realigns core and
//!   component through the normal SquashYounger protocol. (Workloads
//!   mark their natural phase boundaries — astar's fill starts, bfs's
//!   level tops — as re-arm points, so a swapped-in tenant recovers
//!   within one phase rather than one whole run.)
//!
//! Scheduling decisions and mid-swap faults change *when* the Agents
//! intervene, never what the core commits: the committed-stream
//! checksum of every tenant is bit-identical across scheduling modes
//! (the context-switch experiment's graceful-degradation gate).

use pfm_core::{
    FabricLoad, FabricLoadResult, FetchOverride, PfmHooks, RetireDirective, RetireInfo, SquashKind,
};
use pfm_fabric::{
    CustomComponent, Fabric, FabricIo, FabricParams, FabricStats, FaultPlan, FaultRng,
    FaultScenario, Residency,
};
use pfm_fpga::{designs, reconfig_cycles};
use pfm_workloads::UseCase;
use std::collections::{BTreeSet, VecDeque};

/// Retired-PC sliding window the phase signature is computed over.
pub const PHASE_WINDOW: usize = 64;

/// Retires between scheduling decisions.
pub const DECIDE_EVERY: u64 = 256;

/// Consecutive decisions a challenger tenant must win before the
/// scheduler swaps the slot to it.
pub const HYSTERESIS: u32 = 3;

/// Placeholder occupying the slot while no tenant is resident.
struct IdleComponent;

impl CustomComponent for IdleComponent {
    fn tick(&mut self, _io: &mut FabricIo<'_>) {}
    fn name(&self) -> &'static str {
        "idle"
    }
}

/// Partial-reconfiguration load latency (core cycles) for a tenant,
/// derived from the FPGA resource model: a tenant with a modeled
/// design ([`designs::for_usecase`]) uses its resource estimate,
/// anything else pays the astar (4wide) cost (the largest Table 4
/// design — a conservative default).
pub fn load_cycles_for(name: &str) -> u64 {
    let design = designs::for_usecase(name).unwrap_or_else(designs::astar_4wide);
    reconfig_cycles(&design.resources())
}

/// One workload competing for the fabric slot: its configuration
/// bitstream (snoop tables + component factory, carried by the
/// [`UseCase`]) plus the modeled cost of loading it.
pub struct Tenant {
    uc: UseCase,
    /// FST ∪ RST addresses — the PCs this tenant's configuration would
    /// snoop, and therefore the alphabet of its phase signature.
    watch: BTreeSet<u64>,
    /// Partial-reconfiguration load window in core cycles.
    load_cycles: u64,
}

impl Tenant {
    /// Wraps a use-case as a schedulable tenant with an explicit load
    /// cost (use [`load_cycles_for`] for the resource-derived value, or
    /// `1` for the zero-cost oracle arm).
    pub fn new(uc: UseCase, load_cycles: u64) -> Tenant {
        let mut watch: BTreeSet<u64> = uc.fst.iter().copied().collect();
        watch.extend(uc.rst.keys().copied());
        Tenant {
            uc,
            watch,
            load_cycles: load_cycles.max(1),
        }
    }

    /// Tenant display name (the use-case's).
    pub fn name(&self) -> &str {
        &self.uc.name
    }
}

/// A [`PfmHooks`] adapter sharing one fabric slot between tenants.
///
/// The wrapped cores each count cycles from zero, so the adapter keeps
/// a single monotonic global cycle (advanced once per `begin_cycle`)
/// and forwards *that* to the fabric — the fabric's delay pipes and RF
/// clock phase never see time run backwards at a slice switch. All
/// in-flight fabric transients are flushed at slice boundaries
/// ([`Fabric::flush_transients`]), exactly as the swap protocol's drain
/// does.
pub struct ScheduledFabric {
    fabric: Fabric,
    tenants: Vec<Tenant>,
    /// Tenant whose configuration occupies the slot (valid whenever
    /// `slot_filled`).
    resident: usize,
    slot_filled: bool,
    /// Tenant whose program is currently running on the core.
    active: usize,
    /// Pinned slots never re-decide (the dead-wrong-component arm).
    pinned: bool,
    /// Zero-cost oracle swaps: skip the drain window, load in 1 cycle.
    zero_cost: bool,
    window: VecDeque<u64>,
    since_decision: u64,
    /// Challenger streak: (tenant index, consecutive decisions won).
    streak: (usize, u32),
    global_cycle: u64,
    decisions: u64,
    corrupted_decisions: u64,
    /// `corrupt-signature` fault state (scheduler-level; the fabric
    /// handles the other mid-swap scenarios).
    corrupt: Option<(FaultPlan, FaultRng)>,
}

impl ScheduledFabric {
    /// A scheduled slot over `tenants`, initially empty: the first
    /// phase decision loads the first winner (an `Empty → Loading`
    /// transition, no drain).
    pub fn new(tenants: Vec<Tenant>, params: FabricParams, zero_cost: bool) -> ScheduledFabric {
        assert!(!tenants.is_empty(), "a scheduled fabric needs tenants");
        let mut fabric = Fabric::new(
            params,
            BTreeSet::new(),
            std::collections::BTreeMap::new(),
            Box::new(IdleComponent),
        );
        fabric.unload();
        ScheduledFabric {
            fabric,
            tenants,
            resident: 0,
            slot_filled: false,
            active: 0,
            pinned: false,
            zero_cost,
            window: VecDeque::with_capacity(PHASE_WINDOW),
            since_decision: 0,
            streak: (0, 0),
            global_cycle: 0,
            decisions: 0,
            corrupted_decisions: 0,
            corrupt: None,
        }
    }

    /// A pinned slot: `decoy`'s configuration is made resident up
    /// front and the scheduler never re-decides — the
    /// dead-wrong-component arm of the context-switch experiment.
    pub fn pinned(tenants: Vec<Tenant>, decoy: &UseCase, params: FabricParams) -> ScheduledFabric {
        let mut sf = ScheduledFabric::new(tenants, params, false);
        sf.fabric = Fabric::new(
            sf.fabric.params().clone(),
            decoy.fst.clone(),
            decoy.rst.clone(),
            decoy.component(),
        );
        sf.pinned = true;
        sf.slot_filled = true;
        sf
    }

    /// Arms a mid-swap fault scenario. `corrupt-signature` perturbs
    /// the scheduler's own decisions; the fabric-level scenarios
    /// (abort, load spike, stale drain) are forwarded to
    /// [`Fabric::set_swap_faults`].
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        if plan.scenario == FaultScenario::CorruptSignature {
            let rng = FaultRng::new(plan.seed);
            self.corrupt = Some((plan, rng));
        } else {
            self.fabric.set_swap_faults(plan);
        }
    }

    /// Declares a context switch: tenant `t`'s program runs on the
    /// core from now on. Flushes in-flight fabric transients (the
    /// packets reference the outgoing program's speculation) and resets
    /// the phase window — the new phase argues for itself.
    pub fn switch_to(&mut self, t: usize) {
        self.active = t;
        self.fabric.flush_transients();
        self.window.clear();
        self.since_decision = 0;
        self.streak = (self.resident, 0);
    }

    /// The shared fabric's statistics (swaps, reconfiguration cycles,
    /// snoop counters).
    pub fn stats(&self) -> &FabricStats {
        self.fabric.stats()
    }

    /// Scheduling decisions taken.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Decisions whose signature was corrupted by an armed
    /// `corrupt-signature` fault.
    pub fn corrupted_decisions(&self) -> u64 {
        self.corrupted_decisions
    }

    /// Current residency of the underlying fabric.
    pub fn residency(&self) -> Residency {
        self.fabric.residency()
    }

    /// Scores the window against every tenant's watch set and swaps if
    /// a challenger has deserved the slot for [`HYSTERESIS`] straight
    /// decisions.
    fn decide(&mut self) {
        self.decisions += 1;
        let mut best = 0usize;
        let mut best_score = 0u32;
        for (i, t) in self.tenants.iter().enumerate() {
            let score = self.window.iter().filter(|pc| t.watch.contains(pc)).count() as u32;
            if score > best_score {
                best = i;
                best_score = score;
            }
        }
        let mut winner = if best_score == 0 {
            // Nothing snooped recently: the incumbent keeps the slot.
            if self.slot_filled {
                self.resident
            } else {
                best
            }
        } else {
            best
        };
        if let Some((plan, rng)) = self.corrupt.as_mut() {
            if rng.chance(plan.rate) {
                winner = (winner + 1) % self.tenants.len();
                self.corrupted_decisions += 1;
            }
        }
        if self.slot_filled && winner == self.resident {
            self.streak = (winner, 0);
            return;
        }
        if self.streak.0 == winner {
            self.streak.1 = self.streak.1.saturating_add(1);
        } else {
            self.streak = (winner, 1);
        }
        if self.streak.1 >= HYSTERESIS && self.request_swap(winner) {
            self.resident = winner;
            self.slot_filled = true;
            self.streak = (winner, 0);
        }
    }

    fn request_swap(&mut self, t: usize) -> bool {
        let tenant = &self.tenants[t];
        let load = if self.zero_cost {
            1
        } else {
            tenant.load_cycles
        };
        if self.zero_cost {
            // Oracle arm: drop whatever is mid-flight and reload
            // instantly, so swaps are effectively free.
            self.fabric.unload();
        }
        self.fabric.begin_swap(
            tenant.uc.fst.clone(),
            tenant.uc.rst.clone(),
            tenant.uc.component(),
            load,
        )
    }
}

impl PfmHooks for ScheduledFabric {
    fn begin_cycle(&mut self, _cycle: u64, lane_busy: [bool; pfm_core::NUM_LANES]) {
        self.global_cycle += 1;
        self.fabric.begin_cycle(self.global_cycle, lane_busy);
    }

    fn end_cycle(&mut self, _cycle: u64) {
        self.fabric.end_cycle(self.global_cycle);
    }

    fn fetch_inst(&mut self, seq: u64, pc: u64, is_cond_branch: bool) -> FetchOverride {
        self.fabric.fetch_inst(seq, pc, is_cond_branch)
    }

    fn on_retire(&mut self, info: &RetireInfo<'_>) -> RetireDirective {
        if self.window.len() == PHASE_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(info.pc);
        if !self.pinned {
            self.since_decision += 1;
            if self.since_decision >= DECIDE_EVERY {
                self.since_decision = 0;
                self.decide();
            }
        }
        self.fabric.on_retire(info)
    }

    fn retire_stalled(&mut self) -> bool {
        self.fabric.retire_stalled()
    }

    fn on_squash(&mut self, kind: SquashKind, boundary: u64, _cycle: u64) {
        self.fabric.on_squash(kind, boundary, self.global_cycle);
    }

    fn pop_load(&mut self) -> Option<FabricLoad> {
        self.fabric.pop_load()
    }

    fn load_result(&mut self, id: u64, result: FabricLoadResult, _cycle: u64) {
        self.fabric.load_result(id, result, self.global_cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usecases;

    fn tenants() -> Vec<Tenant> {
        vec![
            Tenant::new(usecases::astar_custom(), 100),
            Tenant::new(usecases::bfs_roads(), 100),
        ]
    }

    #[test]
    fn load_cycles_map_to_design_sizes() {
        let astar = load_cycles_for("astar");
        let bfs = load_cycles_for("bfs-roads");
        let libq = load_cycles_for("libquantum");
        assert!(astar > bfs, "astar (4wide) outweighs the bfs design");
        assert!(bfs > libq, "bfs outweighs the tiny libq prefetcher");
        assert!(libq > 2_048, "every load pays the setup cost");
        let pinned = [astar, load_cycles_for("astar-alt"), bfs, libq];
        assert_eq!(pinned, [6016, 3264, 2624, 2176]);
        // Each prefetcher pays its own design's window, not astar's.
        for (name, design) in [
            ("lbm", designs::lbm()),
            ("bwaves", designs::bwaves()),
            ("milc", designs::milc()),
        ] {
            let own = reconfig_cycles(&design.resources());
            assert_eq!(load_cycles_for(name), own, "{name}");
            assert!(own < astar, "{name}");
        }
        // Only a use case with no modeled design falls back to astar's.
        assert_eq!(load_cycles_for("leslie"), astar);
    }

    #[test]
    fn scheduler_starts_empty_and_pinned_starts_resident() {
        let sf = ScheduledFabric::new(tenants(), FabricParams::paper_default(), false);
        assert_eq!(sf.residency(), Residency::Empty);
        let decoy = usecases::libquantum_scale();
        let pinned = ScheduledFabric::pinned(tenants(), &decoy, FabricParams::paper_default());
        assert_eq!(pinned.residency(), Residency::Resident);
        assert!(pinned.pinned);
    }

    #[test]
    fn hysteresis_requires_consecutive_winning_decisions() {
        let mut sf = ScheduledFabric::new(tenants(), FabricParams::paper_default(), true);
        // Fill the window with tenant 0's watched PCs.
        let pc = *sf.tenants[0].watch.iter().next().expect("astar watch set");
        for _ in 0..PHASE_WINDOW {
            sf.window.push_back(pc);
        }
        sf.decide();
        sf.decide();
        assert_eq!(sf.stats().swaps, 0, "two wins are below hysteresis");
        sf.decide();
        assert_eq!(sf.stats().swaps, 1, "third consecutive win swaps");
        assert!(sf.slot_filled);
        assert_eq!(sf.resident, 0);
        // Once resident, further wins by the incumbent change nothing.
        sf.decide();
        assert_eq!(sf.stats().swaps, 1);
        assert_eq!(sf.decisions(), 4);
    }

    #[test]
    fn corrupt_signature_perturbs_decisions_deterministically() {
        let run = || {
            let mut sf = ScheduledFabric::new(tenants(), FabricParams::paper_default(), true);
            sf.arm_faults(
                FaultPlan::new(FaultScenario::CorruptSignature, 0xC4A0_5EED).with_rate(1000),
            );
            let pc = *sf.tenants[0].watch.iter().next().unwrap();
            for _ in 0..PHASE_WINDOW {
                sf.window.push_back(pc);
            }
            for _ in 0..6 {
                sf.decide();
            }
            (sf.corrupted_decisions(), sf.resident, sf.stats().swaps)
        };
        let (corrupted, resident, swaps) = run();
        assert!(corrupted > 0, "rate-1000 corruption must fire");
        assert_eq!(
            resident, 1,
            "corrupted signature steers the slot to the wrong tenant"
        );
        assert!(swaps >= 1);
        assert_eq!(
            run(),
            (corrupted, resident, swaps),
            "seed-keyed determinism"
        );
    }
}
