//! The reconfigurable-fabric model: RF clock domain, the three Agents
//! (Fetch, Retire, Load), the communication queues, and the squash
//! protocol. Implements [`PfmHooks`] so it plugs directly into the
//! core's pipeline touch-points.

use crate::component::{CustomComponent, FabricIo};
use crate::faults::{FaultPlan, FaultRng, FaultScenario};
use crate::packets::{
    FabricLoad, LoadResponse, ObsPacket, ObserveKind, PredPacket, RstEntry, SnoopTable,
};
use crate::params::{FabricParams, StallPolicy};
use pfm_core::hooks::{
    FabricLoadResult, FetchOverride, PfmHooks, RetireDirective, RetireInfo, SquashKind,
};
use pfm_core::NUM_LANES;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How deep the Fetch Agent scans IntQ-F for a PC-matching prediction
/// before concluding the stream is misaligned.
const MATCH_SCAN_DEPTH: usize = 8;

/// Runtime-reconfiguration state of the fabric's single component
/// slot.
///
/// The swap protocol is `Resident → Draining → Loading → Resident`:
/// [`Fabric::begin_swap`] installs the incoming configuration and
/// starts the drain window (stale in-flight packets from the outgoing
/// component sit in the queues until the window closes, then are
/// dropped deterministically); the partial-reconfiguration load window
/// follows; only then do the Agents resume intervening. While not
/// `Resident` every Agent answers "no intervention", so residency can
/// change IPC but never the committed architectural stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Residency {
    /// No component is configured; the fabric is permanently inert
    /// until [`Fabric::begin_swap`] loads one.
    Empty,
    /// A partial-reconfiguration bitstream is streaming in.
    Loading {
        /// Core cycles until the load completes.
        remaining: u64,
    },
    /// The component is loaded and the Agents may intervene.
    Resident,
    /// The outgoing component's in-flight packets are quiescing; when
    /// the window closes they are flushed and the load begins.
    Draining {
        /// Core cycles until the drain window closes.
        remaining: u64,
        /// Load window (core cycles) to start once drained.
        load_cycles: u64,
    },
}

pfm_isa::counters! {
    /// Agent-side statistics (Table 2/3 snoop percentages and protocol
    /// health).
    ///
    /// `Eq` is part of the simulator's determinism contract (identical
    /// runs must produce identical counters).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct FabricStats {
        /// Instructions fetched while the ROI was active.
        pub fetched_in_roi: u64,
        /// Fetched instructions that hit in the FST (supplied custom
        /// predictions).
        pub fst_hits: u64,
        /// Instructions retired while the ROI was active.
        pub retired_in_roi: u64,
        /// Retired instructions that hit in the RST (observed).
        pub rst_hits: u64,
        /// Observation packets sent to the component.
        pub obs_packets: u64,
        /// Custom predictions delivered to the fetch unit.
        pub preds_delivered: u64,
        /// Stale predictions dropped by the PC-matching realignment scan.
        pub preds_dropped: u64,
        /// FST hits served by the core predictor because no matching
        /// prediction was found (stream under-supply).
        pub pred_mismatch_passes: u64,
        /// Loads injected into the load/store lanes.
        pub loads_injected: u64,
        /// Prefetches injected.
        pub prefetches_injected: u64,
        /// Missed-load-buffer replays issued.
        pub mlb_replays: u64,
        /// Loads dropped because the MLB was full.
        pub mlb_full_drops: u64,
        /// Squash packets sent to the component.
        pub squash_packets: u64,
        /// Observation packets delayed waiting for a PRF port.
        pub port_conflict_delays: u64,
        /// The watchdog disabled the component.
        pub watchdog_fired: bool,
        /// Runtime component swaps started ([`Fabric::begin_swap`]).
        pub swaps: u64,
        /// Partial-reconfiguration loads restarted by the `swap-abort`
        /// fault scenario.
        pub swap_abort_restarts: u64,
        /// Extra load cycles injected by the `swap-load-spike` fault
        /// scenario.
        pub swap_spike_cycles: u64,
        /// Stale predictions consumed during Draining under the
        /// `stale-drain` fault scenario.
        pub stale_drain_leaks: u64,
        /// Core cycles spent not Resident mid-swap (Draining + Loading).
        pub reconfig_cycles: u64,
    }
}

impl FabricStats {
    /// Percentage of fetched in-ROI instructions that hit in the FST
    /// (Table 2/3, row 2).
    pub fn fst_hit_pct(&self) -> f64 {
        if self.fetched_in_roi == 0 {
            0.0
        } else {
            self.fst_hits as f64 * 100.0 / self.fetched_in_roi as f64
        }
    }

    /// Percentage of retired in-ROI instructions that hit in the RST
    /// (Table 2/3, row 1).
    pub fn rst_hit_pct(&self) -> f64 {
        if self.retired_in_roi == 0 {
            0.0
        } else {
            self.rst_hits as f64 * 100.0 / self.retired_in_roi as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct PendingObs {
    packet: ObsPacket,
    needs_port: bool,
}

/// The fabric: an RF-synthesized custom component plus the Fetch,
/// Retire and Load Agents.
pub struct Fabric {
    params: FabricParams,
    snoop: SnoopTable,
    component: Box<dyn CustomComponent>,

    enabled: bool,
    cycle: u64,
    rf_cycle: u64,

    // Retire Agent.
    obs_q: VecDeque<ObsPacket>,
    pending_obs: VecDeque<PendingObs>,
    lane_busy_latest: [bool; NUM_LANES],
    ports_used: usize,

    // Fetch Agent.
    intq_f: VecDeque<PredPacket>,
    pred_delay: VecDeque<(u64, PredPacket)>,
    delivered: VecDeque<(u64, PredPacket)>,
    drop_late: u64,
    stall_streak: u64,

    // Load Agent.
    intq_is: VecDeque<FabricLoad>,
    load_delay: VecDeque<(u64, FabricLoad)>,
    obs_ex: VecDeque<LoadResponse>,
    /// Missed loads with their earliest-replay cycle.
    mlb: VecDeque<(FabricLoad, u64)>,
    /// Reused component-tick outputs (empty between RF ticks), so an RF
    /// tick allocates nothing.
    pred_scratch: Vec<PredPacket>,
    load_scratch: Vec<FabricLoad>,

    // Squash protocol.
    squash_pending: bool,
    squash_done_at: Option<u64>,

    // Runtime reconfiguration.
    residency: Residency,
    /// `Loading { remaining }` value at which the load aborts and
    /// restarts (set only under the `swap-abort` fault scenario).
    swap_abort_at: Option<u64>,
    /// Full load window of the in-progress swap, for abort restarts.
    swap_restart_cycles: u64,
    swap_faults: Option<(FaultPlan, FaultRng)>,

    stats: FabricStats,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("component", &self.component.name())
            .field("enabled", &self.enabled)
            .field("params", &self.params.label())
            .finish()
    }
}

impl Fabric {
    /// Creates a fabric with the given parameters, snoop-table
    /// configuration (the "configuration bitstream shipped with the
    /// executable"), and custom component.
    pub fn new(
        params: FabricParams,
        fst: BTreeSet<u64>,
        rst: BTreeMap<u64, RstEntry>,
        component: Box<dyn CustomComponent>,
    ) -> Fabric {
        Fabric {
            params,
            snoop: SnoopTable::new(&fst, &rst),
            component,
            enabled: false,
            cycle: 0,
            rf_cycle: 0,
            obs_q: VecDeque::new(),
            pending_obs: VecDeque::new(),
            lane_busy_latest: [false; NUM_LANES],
            ports_used: 0,
            intq_f: VecDeque::new(),
            pred_delay: VecDeque::new(),
            delivered: VecDeque::new(),
            drop_late: 0,
            stall_streak: 0,
            intq_is: VecDeque::new(),
            load_delay: VecDeque::new(),
            obs_ex: VecDeque::new(),
            mlb: VecDeque::new(),
            pred_scratch: Vec::new(),
            load_scratch: Vec::new(),
            squash_pending: false,
            squash_done_at: None,
            residency: Residency::Resident,
            swap_abort_at: None,
            swap_restart_cycles: 0,
            swap_faults: None,
            stats: FabricStats::default(),
        }
    }

    /// Agent statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// The fabric parameters.
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// Whether the ROI is currently active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Access to the component (for component-specific statistics).
    pub fn component(&self) -> &dyn CustomComponent {
        self.component.as_ref()
    }

    /// Current runtime-reconfiguration state of the component slot.
    /// A freshly constructed fabric is `Resident` (the configuration
    /// shipped with the executable, as in the single-tenant paper
    /// model).
    pub fn residency(&self) -> Residency {
        self.residency
    }

    fn resident(&self) -> bool {
        matches!(self.residency, Residency::Resident)
    }

    /// Arms seed-keyed mid-swap fault injection. Only the
    /// [`FaultScenario::MID_SWAP`] scenarios have any effect here
    /// (`corrupt-signature` perturbs the scheduling layer, not the
    /// fabric); the single-component scenarios are injected by
    /// [`crate::faults::FaultyComponent`] instead.
    pub fn set_swap_faults(&mut self, plan: FaultPlan) {
        let rng = FaultRng::new(plan.seed);
        self.swap_faults = Some((plan, rng));
    }

    /// Core cycles the drain window lasts: long enough for anything in
    /// the outgoing component's D-stage pipe to surface in the queues,
    /// so the flush at window close is a complete quiesce.
    fn drain_window(&self) -> u64 {
        (self.params.delay + 1) * self.params.clk_ratio.max(1)
    }

    /// Begins a runtime component swap: the outgoing component is
    /// drained (its in-flight ObsQ/IntQ packets are dropped when the
    /// drain window closes), then the incoming configuration —
    /// FST/RST snoop tables plus the component — loads for
    /// `load_cycles` core cycles (use `pfm_fpga::reconfig_cycles` for
    /// a resource-derived estimate), after which the Agents resume.
    ///
    /// Returns `false` (and changes nothing) if a swap is already in
    /// progress; callers re-request once the fabric is `Resident` or
    /// `Empty` again.
    pub fn begin_swap(
        &mut self,
        fst: BTreeSet<u64>,
        rst: BTreeMap<u64, RstEntry>,
        component: Box<dyn CustomComponent>,
        load_cycles: u64,
    ) -> bool {
        let from_resident = match self.residency {
            Residency::Resident => true,
            Residency::Empty => false,
            Residency::Draining { .. } | Residency::Loading { .. } => return false,
        };
        if from_resident {
            self.component.on_drain();
        }
        self.component = component;
        self.snoop = SnoopTable::new(&fst, &rst);
        // The armed ROI context is evicted with the outgoing bitstream:
        // the incoming tenant re-arms at its next `begin_roi` retire,
        // which realigns core and component through the normal
        // SquashYounger protocol. Enabling a freshly loaded component
        // mid-region would hand the Fetch Agent an empty IntQ-F and
        // stall fetch until the chicken switch fires.
        self.enabled = false;
        self.stats.swaps += 1;
        self.swap_restart_cycles = load_cycles.max(1);
        if from_resident {
            self.residency = Residency::Draining {
                remaining: self.drain_window(),
                load_cycles: self.swap_restart_cycles,
            };
        } else {
            self.start_loading();
        }
        true
    }

    /// Evicts the resident component: immediate drain-and-flush, then
    /// `Empty`. The fabric stays inert until the next
    /// [`Fabric::begin_swap`].
    pub fn unload(&mut self) {
        if self.resident() {
            self.component.on_drain();
        }
        self.flush_transients();
        self.enabled = false;
        self.residency = Residency::Empty;
    }

    /// Starts the partial-reconfiguration load window, applying any
    /// armed mid-swap faults (latency spike, scheduled abort point).
    fn start_loading(&mut self) {
        let mut remaining = self.swap_restart_cycles;
        self.swap_abort_at = None;
        if let Some((plan, rng)) = self.swap_faults.as_mut() {
            match plan.scenario {
                FaultScenario::SwapLoadSpike if rng.chance(plan.rate) => {
                    let extra = (remaining / 2).max(1) * rng.jitter();
                    remaining += extra;
                    self.stats.swap_spike_cycles += extra;
                }
                FaultScenario::SwapAbort if rng.chance(plan.rate) => {
                    // Abort somewhere strictly inside the load window.
                    self.swap_abort_at = Some(1 + remaining * rng.jitter() / 9);
                }
                _ => {}
            }
        }
        self.residency = Residency::Loading { remaining };
    }

    /// Advances the residency machine by one core cycle.
    fn tick_residency(&mut self) {
        match self.residency {
            Residency::Resident | Residency::Empty => {}
            Residency::Draining {
                remaining,
                load_cycles,
            } => {
                self.stats.reconfig_cycles += 1;
                if remaining <= 1 {
                    self.flush_transients();
                    self.swap_restart_cycles = load_cycles;
                    self.start_loading();
                } else {
                    self.residency = Residency::Draining {
                        remaining: remaining - 1,
                        load_cycles,
                    };
                }
            }
            Residency::Loading { remaining } => {
                self.stats.reconfig_cycles += 1;
                if self.swap_abort_at == Some(remaining) {
                    // Fault: the load aborts and restarts from scratch
                    // (once per swap, so forward progress holds).
                    self.swap_abort_at = None;
                    self.stats.swap_abort_restarts += 1;
                    self.component.on_swap_abort();
                    self.residency = Residency::Loading {
                        remaining: self.swap_restart_cycles,
                    };
                } else if remaining <= 1 {
                    self.residency = Residency::Resident;
                } else {
                    self.residency = Residency::Loading {
                        remaining: remaining - 1,
                    };
                }
            }
        }
    }

    /// Deterministically drops every in-flight microarchitectural
    /// packet: all Agent queues, delay pipes, the MLB and the squash
    /// protocol. Used when a drain window closes, on
    /// [`Fabric::unload`], and by the scheduling layer at
    /// context-switch boundaries. Architectural state is untouched by
    /// construction — nothing here ever reaches the commit stream.
    pub fn flush_transients(&mut self) {
        self.obs_q.clear();
        self.pending_obs.clear();
        self.intq_f.clear();
        self.pred_delay.clear();
        self.delivered.clear();
        self.drop_late = 0;
        self.stall_streak = 0;
        self.intq_is.clear();
        self.load_delay.clear();
        self.obs_ex.clear();
        self.mlb.clear();
        self.squash_pending = false;
        self.squash_done_at = None;
    }

    fn stale_drain_leaking(&self) -> bool {
        matches!(self.residency, Residency::Draining { .. })
            && self
                .swap_faults
                .as_ref()
                .is_some_and(|(p, _)| p.scenario == FaultScenario::StaleDrain)
    }

    /// One-line dump of agent/queue state, for debugging stalls.
    #[doc(hidden)]
    pub fn debug_state(&self) -> String {
        format!(
            "enabled={} intq_f={} pred_delay={} obs_q={} pending_obs={} intq_is={} load_delay={} obs_ex={} mlb={} squash_pending={} delivered={} rf={} residency={:?}",
            self.enabled,
            self.intq_f.len(),
            self.pred_delay.len(),
            self.obs_q.len(),
            self.pending_obs.len(),
            self.intq_is.len(),
            self.load_delay.len(),
            self.obs_ex.len(),
            self.mlb.len(),
            self.squash_pending,
            self.delivered.len(),
            self.rf_cycle,
            self.residency,
        )
    }

    fn free_port(&mut self) -> bool {
        let allowed = self.params.port_policy.lanes();
        let free = allowed
            .iter()
            .filter(|&&l| !self.lane_busy_latest[l])
            .count();
        if self.ports_used < free {
            self.ports_used += 1;
            true
        } else {
            false
        }
    }

    fn enqueue_obs(&mut self, packet: ObsPacket, needs_port: bool) {
        self.stats.obs_packets += 1;
        let port_ok = !needs_port || self.free_port();
        if !port_ok {
            self.stats.port_conflict_delays += 1;
        }
        if port_ok && self.pending_obs.is_empty() && self.obs_q.len() < self.params.queue_size {
            self.obs_q.push_back(packet);
        } else {
            self.pending_obs.push_back(PendingObs {
                packet,
                needs_port: !port_ok,
            });
        }
    }

    fn drain_pending_obs(&mut self) {
        while let Some(head) = self.pending_obs.front().copied() {
            if self.obs_q.len() >= self.params.queue_size {
                break;
            }
            if head.needs_port && !self.free_port() {
                break;
            }
            self.pending_obs.pop_front();
            self.obs_q.push_back(head.packet);
        }
    }

    fn rf_tick(&mut self) {
        self.rf_cycle += 1;
        let q = self.params.queue_size;

        // Clock-domain crossing: deliver due component outputs.
        while let Some(&(due, p)) = self.pred_delay.front() {
            if due > self.rf_cycle || self.intq_f.len() >= q {
                break;
            }
            self.pred_delay.pop_front();
            if self.drop_late > 0 {
                self.drop_late -= 1;
                continue; // late packet dropped (ProceedAndDrop policy)
            }
            self.intq_f.push_back(p);
        }
        while let Some(&(due, l)) = self.load_delay.front() {
            if due > self.rf_cycle || self.intq_is.len() >= q {
                break;
            }
            self.load_delay.pop_front();
            self.intq_is.push_back(l);
        }

        // Squash protocol completion (squash-done packet arrives at the
        // Fetch Agent after the component's pipeline delay).
        if let Some(done) = self.squash_done_at {
            if self.rf_cycle >= done {
                self.squash_done_at = None;
                self.squash_pending = false;
            }
        }

        // Mid-swap the component slot is inert: stale packets age in
        // the queues (they are only popped by the Fetch Agent under
        // the stale-drain fault) until the drain-window flush.
        if !self.resident() {
            return;
        }

        // Squash packet at the head of ObsQ-R: roll the component back.
        if self.squash_done_at.is_none() && matches!(self.obs_q.front(), Some(ObsPacket::Squash)) {
            self.obs_q.pop_front();
            self.component.on_squash();
            self.squash_done_at = Some(self.rf_cycle + self.params.delay.max(1));
        }

        if !self.enabled {
            return;
        }

        // Component cycle. The D-stage delay pipe is the component's
        // own pipeline, not queue storage: only a full pipe (bounded by
        // the queue it drains into) back-pressures the component.
        let pred_space = q.saturating_sub(self.intq_f.len().max(self.pred_delay.len()));
        let load_space = q.saturating_sub(self.intq_is.len().max(self.load_delay.len()));
        {
            let mut io = FabricIo::new(
                self.params.width,
                self.rf_cycle,
                &mut self.obs_q,
                &mut self.obs_ex,
                &mut self.pred_scratch,
                &mut self.load_scratch,
                pred_space,
                load_space,
            );
            self.component.tick(&mut io);
        }
        let due = self.rf_cycle + self.params.delay;
        for p in self.pred_scratch.drain(..) {
            self.pred_delay.push_back((due, p));
        }
        for l in self.load_scratch.drain(..) {
            self.load_delay.push_back((due, l));
        }
    }
}

impl PfmHooks for Fabric {
    fn begin_cycle(&mut self, cycle: u64, lane_busy: [bool; NUM_LANES]) {
        self.cycle = cycle;
        self.lane_busy_latest = lane_busy;
        self.ports_used = 0;
        self.tick_residency();
        self.drain_pending_obs();
        if cycle.is_multiple_of(self.params.clk_ratio) {
            self.rf_tick();
        }
    }

    fn fetch_inst(&mut self, seq: u64, pc: u64, is_cond_branch: bool) -> FetchOverride {
        let stale_leak = self.stale_drain_leaking();
        if !self.resident() && !stale_leak {
            return FetchOverride::Pass;
        }
        // The leak bypasses the ROI gate: the *outgoing* component was
        // armed when the drain began, and it is its un-quiesced queue
        // that keeps answering.
        if !self.enabled && !stale_leak {
            return FetchOverride::Pass;
        }
        if !(is_cond_branch && self.snoop.fst(pc)) {
            if self.resident() {
                self.stats.fetched_in_roi += 1;
            }
            return FetchOverride::Pass;
        }

        // Scan the first few IntQ-F entries for a PC match; drop stale
        // entries for branches the core skipped over.
        let scan = self.intq_f.len().min(MATCH_SCAN_DEPTH);
        let found = (0..scan).find(|&i| self.intq_f[i].pc == pc);
        if stale_leak {
            // Fault: predictions the outgoing component left in IntQ-F
            // keep answering during the drain window instead of being
            // quiesced. Prediction direction is microarchitectural, so
            // the leak costs (or luckily saves) cycles only.
            return match found {
                Some(d) => {
                    for _ in 0..d {
                        self.intq_f.pop_front();
                    }
                    // pfm-lint: allow(hygiene): `found` indexes into intq_f
                    let p = self.intq_f.pop_front().expect("match exists");
                    self.stats.stale_drain_leaks += 1;
                    FetchOverride::Use(p.taken)
                }
                None => {
                    // No queued entry matches: the un-quiesced
                    // component fabricates a late answer with
                    // plan-rate probability — stale garbage for a
                    // branch it was never asked about. Direction is
                    // microarchitectural, so a wrong guess costs a
                    // misprediction squash, nothing architectural.
                    if let Some((plan, rng)) = self.swap_faults.as_mut() {
                        if rng.chance(plan.rate) {
                            self.stats.stale_drain_leaks += 1;
                            return FetchOverride::Use(rng.chance(500));
                        }
                    }
                    FetchOverride::Pass
                }
            };
        }
        match found {
            Some(d) => {
                for _ in 0..d {
                    self.intq_f.pop_front();
                    self.stats.preds_dropped += 1;
                }
                // pfm-lint: allow(hygiene): `found` indexes into intq_f
                let p = self.intq_f.pop_front().expect("match exists");
                self.delivered.push_back((seq, p));
                self.stall_streak = 0;
                self.stats.fetched_in_roi += 1;
                self.stats.fst_hits += 1;
                self.stats.preds_delivered += 1;
                FetchOverride::Use(p.taken)
            }
            None if !self.intq_f.is_empty() => {
                // Predictions are queued but none is for this branch.
                // Components emit in program order, so the prediction
                // for this branch will never arrive behind the queued
                // ones — it was never generated (e.g., the component
                // predicted down the other path). Fall back to the
                // core predictor; queued entries stay for the branches
                // they belong to.
                self.stall_streak = 0;
                self.stats.fetched_in_roi += 1;
                self.stats.fst_hits += 1;
                self.stats.pred_mismatch_passes += 1;
                FetchOverride::Pass
            }
            None => match self.params.stall_policy {
                StallPolicy::Stall => {
                    self.stall_streak += 1;
                    if let Some(limit) = self.params.watchdog {
                        if self.stall_streak > limit {
                            // Chicken switch (§2.4): disable the buggy
                            // component and let the core run free.
                            self.enabled = false;
                            self.stats.watchdog_fired = true;
                            return FetchOverride::Pass;
                        }
                    }
                    FetchOverride::Stall
                }
                StallPolicy::ProceedAndDrop => {
                    self.drop_late += 1;
                    self.stats.fetched_in_roi += 1;
                    self.stats.fst_hits += 1;
                    self.stats.pred_mismatch_passes += 1;
                    FetchOverride::Pass
                }
            },
        }
    }

    fn on_retire(&mut self, info: &RetireInfo<'_>) -> RetireDirective {
        self.lane_busy_latest = info.lane_busy;
        if !self.resident() {
            // Mid-swap the Retire Agent answers "no intervention": ROI
            // markers retire unobserved (the snoop tables are part of
            // the bitstream still loading). The incoming tenant arms at
            // its next `begin_roi` retire once Resident.
            return RetireDirective::Continue;
        }
        if self.enabled {
            self.stats.retired_in_roi += 1;
            // Retire delivered-prediction bookkeeping (branch queue
            // drains in program order).
            while self.delivered.front().is_some_and(|&(s, _)| s <= info.seq) {
                self.delivered.pop_front();
            }
        }

        let Some(entry) = self.snoop.rst(info.pc) else {
            return RetireDirective::Continue;
        };

        let mut directive = RetireDirective::Continue;
        if entry.begin_roi && !self.enabled {
            self.enabled = true;
            self.enqueue_obs(ObsPacket::BeginRoi, false);
            directive = RetireDirective::SquashYounger;
        } else if entry.end_roi && self.enabled {
            self.enabled = false;
            self.intq_f.clear();
            self.pred_delay.clear();
            self.intq_is.clear();
            self.load_delay.clear();
            self.obs_ex.clear();
            self.mlb.clear();
            self.delivered.clear();
            return RetireDirective::Continue;
        }

        if self.enabled {
            if let Some(kind) = entry.observe {
                let packet = match kind {
                    ObserveKind::DestValue => info
                        .dest_value
                        .map(|value| (ObsPacket::DestValue { pc: info.pc, value }, true)),
                    ObserveKind::StoreValue => info.store.map(|(addr, _, value)| {
                        (
                            ObsPacket::StoreValue {
                                pc: info.pc,
                                addr,
                                value,
                            },
                            false,
                        )
                    }),
                    ObserveKind::BranchOutcome => Some((
                        ObsPacket::BranchOutcome {
                            pc: info.pc,
                            taken: info.taken,
                        },
                        false,
                    )),
                };
                if let Some((packet, needs_port)) = packet {
                    self.stats.rst_hits += 1;
                    self.enqueue_obs(packet, needs_port);
                }
            }
        }
        directive
    }

    fn retire_stalled(&mut self) -> bool {
        if !self.resident() {
            return false;
        }
        self.squash_pending || self.pending_obs.len() >= self.params.queue_size
    }

    fn on_squash(&mut self, _kind: SquashKind, boundary: u64, _cycle: u64) {
        if !self.enabled || !self.resident() {
            return;
        }
        // Squash packet to the component (bypasses queue capacity: the
        // squash wire is dedicated).
        self.obs_q.push_back(ObsPacket::Squash);
        self.squash_pending = true;
        self.stats.squash_packets += 1;

        // Fetch Agent replay: predictions already delivered to squashed
        // branches must be re-delivered, in order, ahead of anything
        // queued (the paper's astar design records final predictions in
        // an extra queue for exactly this replay).
        let cut = self.delivered.partition_point(|&(s, _)| s < boundary);
        for (_, p) in self.delivered.drain(cut..).rev() {
            self.intq_f.push_front(p);
        }
    }

    fn pop_load(&mut self) -> Option<FabricLoad> {
        if !self.enabled || !self.resident() {
            return None;
        }
        // MLB replay gets priority: the head entry replays once its
        // per-entry back-off interval has elapsed (each replay occupies
        // one free load/store issue slot, so the whole buffer drains at
        // port rate rather than one load per interval).
        if let Some(&(load, ready)) = self.mlb.front() {
            if self.cycle >= ready {
                self.mlb.pop_front();
                self.stats.mlb_replays += 1;
                return Some(load);
            }
        }
        let head = *self.intq_is.front()?;
        if !head.is_prefetch {
            // Back-pressure: stop admitting new loads while the
            // component is behind on consuming returned values. (Values
            // that arrive while ObsQ-EX is momentarily full are still
            // accepted — data cannot be dropped — so this is a soft
            // cap.)
            if self.obs_ex.len() >= self.params.queue_size {
                return None;
            }
            self.stats.loads_injected += 1;
        } else {
            self.stats.prefetches_injected += 1;
        }
        self.intq_is.pop_front()
    }

    fn load_result(&mut self, id: u64, result: FabricLoadResult, _cycle: u64) {
        if !self.resident() {
            // A response for a load the outgoing component issued
            // before the swap: dropped deterministically (the incoming
            // component never saw the request).
            return;
        }
        match result {
            FabricLoadResult::Hit { value } => {
                self.obs_ex.push_back(LoadResponse { id, value });
            }
            FabricLoadResult::Miss { load } => {
                if self.mlb.len() < self.params.mlb_size {
                    self.mlb
                        .push_back((load, self.cycle + self.params.mlb_replay_interval));
                } else {
                    self.stats.mlb_full_drops += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted component for driving the agent machinery.
    struct Scripted {
        preds: Vec<PredPacket>,
        loads: Vec<FabricLoad>,
        squashes: u64,
        seen_obs: Vec<ObsPacket>,
        seen_resps: Vec<LoadResponse>,
    }

    impl Scripted {
        fn new() -> Scripted {
            Scripted {
                preds: Vec::new(),
                loads: Vec::new(),
                squashes: 0,
                seen_obs: Vec::new(),
                seen_resps: Vec::new(),
            }
        }
    }

    impl CustomComponent for Scripted {
        fn tick(&mut self, io: &mut FabricIo<'_>) {
            while let Some(o) = io.pop_obs() {
                self.seen_obs.push(o);
            }
            while let Some(r) = io.pop_load_resp() {
                self.seen_resps.push(r);
            }
            while !self.preds.is_empty() && io.can_push_pred() {
                let p = self.preds.remove(0);
                io.push_pred(p);
            }
            while !self.loads.is_empty() && io.can_push_load() {
                let l = self.loads.remove(0);
                io.push_load(l);
            }
        }
        fn on_squash(&mut self) {
            self.squashes += 1;
        }
        fn name(&self) -> &'static str {
            "scripted"
        }
    }

    fn fabric_with(component: Scripted, params: FabricParams) -> Fabric {
        let mut rst = BTreeMap::new();
        rst.insert(0x1000, RstEntry::dest().begin());
        let mut fst = BTreeSet::new();
        fst.insert(0x2000);
        Fabric::new(params, fst, rst, Box::new(component))
    }

    fn retire_info(pc: u64, seq: u64) -> RetireInfo<'static> {
        static NOP: pfm_isa::Inst = pfm_isa::Inst::Nop;
        RetireInfo {
            seq,
            pc,
            inst: &NOP,
            taken: false,
            dest_value: Some(42),
            store: None,
            lane_busy: [false; NUM_LANES],
        }
    }

    #[test]
    fn roi_begin_enables_and_squashes() {
        let mut f = fabric_with(Scripted::new(), FabricParams::paper_default());
        assert!(!f.enabled());
        let d = f.on_retire(&retire_info(0x1000, 10));
        assert_eq!(d, RetireDirective::SquashYounger);
        assert!(f.enabled());
        // Core then reports the squash.
        f.on_squash(SquashKind::RoiBegin, 11, 1);
        assert!(f.retire_stalled());
    }

    #[test]
    fn squash_protocol_completes_after_delay() {
        let mut f = fabric_with(Scripted::new(), FabricParams::paper_default().delay(2));
        f.on_retire(&retire_info(0x1000, 10));
        f.on_squash(SquashKind::RoiBegin, 11, 1);
        assert!(f.retire_stalled());
        let mut cycles = 0;
        for c in 2..200 {
            f.begin_cycle(c, [false; NUM_LANES]);
            if !f.retire_stalled() {
                cycles = c;
                break;
            }
        }
        assert!(cycles > 0, "squash protocol never completed");
        // clk4 + squash handled at one RF tick + done 2 RF ticks later.
        assert!(cycles >= 8, "done too early at {cycles}");
    }

    #[test]
    fn predictions_flow_through_delay_to_fetch() {
        let mut comp = Scripted::new();
        comp.preds.push(PredPacket {
            pc: 0x2000,
            taken: true,
        });
        let mut f = fabric_with(comp, FabricParams::paper_default().clk_w(4, 4).delay(1));
        f.on_retire(&retire_info(0x1000, 1));
        // Absorb the ROI squash protocol.
        f.on_squash(SquashKind::RoiBegin, 2, 1);
        for c in 2..60 {
            f.begin_cycle(c, [false; NUM_LANES]);
        }
        // Prediction should now be waiting.
        let over = f.fetch_inst(100, 0x2000, true);
        assert_eq!(over, FetchOverride::Use(true));
        assert_eq!(f.stats().preds_delivered, 1);
    }

    #[test]
    fn fst_hit_with_empty_queue_stalls() {
        let mut f = fabric_with(Scripted::new(), FabricParams::paper_default());
        f.on_retire(&retire_info(0x1000, 1));
        f.on_squash(SquashKind::RoiBegin, 2, 1);
        for c in 2..40 {
            f.begin_cycle(c, [false; NUM_LANES]);
        }
        assert_eq!(f.fetch_inst(50, 0x2000, true), FetchOverride::Stall);
    }

    #[test]
    fn watchdog_disables_buggy_component() {
        let mut params = FabricParams::paper_default();
        params.watchdog = Some(10);
        let mut f = fabric_with(Scripted::new(), params);
        f.on_retire(&retire_info(0x1000, 1));
        f.on_squash(SquashKind::RoiBegin, 2, 1);
        let mut fired = false;
        for i in 0..50 {
            if f.fetch_inst(50 + i, 0x2000, true) == FetchOverride::Pass {
                fired = true;
                break;
            }
        }
        assert!(fired);
        assert!(f.stats().watchdog_fired);
        assert!(!f.enabled());
    }

    #[test]
    fn squash_replays_delivered_predictions() {
        let mut comp = Scripted::new();
        comp.preds.push(PredPacket {
            pc: 0x2000,
            taken: true,
        });
        comp.preds.push(PredPacket {
            pc: 0x2000,
            taken: false,
        });
        let mut f = fabric_with(comp, FabricParams::paper_default().delay(0));
        f.on_retire(&retire_info(0x1000, 1));
        f.on_squash(SquashKind::RoiBegin, 2, 1);
        for c in 2..80 {
            f.begin_cycle(c, [false; NUM_LANES]);
        }
        assert_eq!(f.fetch_inst(100, 0x2000, true), FetchOverride::Use(true));
        assert_eq!(f.fetch_inst(101, 0x2000, true), FetchOverride::Use(false));
        // Both branches squash before retiring: replay both, in order.
        f.on_squash(SquashKind::Disambiguation, 100, 50);
        for c in 81..120 {
            f.begin_cycle(c, [false; NUM_LANES]);
        }
        assert_eq!(f.fetch_inst(100, 0x2000, true), FetchOverride::Use(true));
        assert_eq!(f.fetch_inst(101, 0x2000, true), FetchOverride::Use(false));
    }

    #[test]
    fn pc_mismatch_drops_stale_predictions() {
        let mut comp = Scripted::new();
        comp.preds.push(PredPacket {
            pc: 0x9999,
            taken: false,
        }); // stale
        comp.preds.push(PredPacket {
            pc: 0x2000,
            taken: true,
        });
        let mut f = fabric_with(comp, FabricParams::paper_default().delay(0));
        f.on_retire(&retire_info(0x1000, 1));
        f.on_squash(SquashKind::RoiBegin, 2, 1);
        for c in 2..80 {
            f.begin_cycle(c, [false; NUM_LANES]);
        }
        assert_eq!(f.fetch_inst(100, 0x2000, true), FetchOverride::Use(true));
        assert_eq!(f.stats().preds_dropped, 1);
    }

    #[test]
    fn loads_and_mlb_replay() {
        let mut comp = Scripted::new();
        comp.loads.push(FabricLoad {
            id: 7,
            addr: 0x100,
            size: 8,
            is_prefetch: false,
        });
        let mut f = fabric_with(comp, FabricParams::paper_default().delay(0));
        f.on_retire(&retire_info(0x1000, 1));
        f.on_squash(SquashKind::RoiBegin, 2, 1);
        for c in 2..80 {
            f.begin_cycle(c, [false; NUM_LANES]);
        }
        let load = f.pop_load().expect("load available");
        assert_eq!(load.id, 7);
        // It misses: goes to the MLB and replays after the interval.
        f.load_result(7, FabricLoadResult::Miss { load }, 80);
        let mut replayed = None;
        for c in 81..200 {
            f.begin_cycle(c, [false; NUM_LANES]);
            if let Some(l) = f.pop_load() {
                replayed = Some((c, l));
                break;
            }
        }
        let (_, l) = replayed.expect("MLB replay");
        assert_eq!(l.id, 7);
        assert_eq!(f.stats().mlb_replays, 1);
        // This time it hits: value lands in ObsQ-EX for the component.
        f.load_result(7, FabricLoadResult::Hit { value: 55 }, 130);
        assert_eq!(f.obs_ex.front(), Some(&LoadResponse { id: 7, value: 55 }));
    }

    #[test]
    fn miss_while_not_resident_is_dropped() {
        let mut comp = Scripted::new();
        comp.loads.push(FabricLoad {
            id: 7,
            addr: 0x100,
            size: 8,
            is_prefetch: false,
        });
        let mut f = fabric_with(comp, FabricParams::paper_default().delay(0));
        warm_roi(&mut f);
        let load = f.pop_load().expect("load available");
        // The slot starts draining before the miss comes back: the
        // outgoing component's load never reaches the MLB.
        let (fst, rst) = swap_tables();
        assert!(f.begin_swap(fst, rst, Box::new(Scripted::new()), 4));
        f.load_result(load.id, FabricLoadResult::Miss { load }, 60);
        assert!(f.mlb.is_empty());
        assert_eq!(f.stats().mlb_full_drops, 0);
    }

    #[test]
    fn observation_packets_respect_prf_ports() {
        let mut params = FabricParams::paper_default();
        params.port_policy = crate::params::PortPolicy::Ls1;
        let mut rst = BTreeMap::new();
        rst.insert(0x1000, RstEntry::dest().begin());
        rst.insert(0x3000, RstEntry::dest());
        let mut f = Fabric::new(params, BTreeSet::new(), rst, Box::new(Scripted::new()));
        f.on_retire(&retire_info(0x1000, 1));
        f.on_squash(SquashKind::RoiBegin, 2, 1);
        for c in 2..40 {
            f.begin_cycle(c, [false; NUM_LANES]);
        }
        // Lane 5 busy: the dest-value observation must wait.
        let mut info = retire_info(0x3000, 50);
        info.lane_busy = [true; NUM_LANES];
        f.on_retire(&info);
        assert!(f.stats().port_conflict_delays > 0);
        assert_eq!(f.pending_obs.len(), 1);
        // Next cycle the lane frees (our stub reports free), so it drains.
        f.on_retire(&retire_info(0x3004, 51)); // refresh lane_busy = all free
        f.begin_cycle(41, [false; NUM_LANES]);
        assert!(f.pending_obs.is_empty());
    }

    fn swap_tables() -> (BTreeSet<u64>, BTreeMap<u64, RstEntry>) {
        let mut rst = BTreeMap::new();
        rst.insert(0x1000, RstEntry::dest().begin());
        let mut fst = BTreeSet::new();
        fst.insert(0x2000);
        (fst, rst)
    }

    /// Enters the ROI and lets the component's queued predictions
    /// reach IntQ-F.
    fn warm_roi(f: &mut Fabric) {
        f.on_retire(&retire_info(0x1000, 1));
        f.on_squash(SquashKind::RoiBegin, 2, 1);
        for c in 2..60 {
            f.begin_cycle(c, [false; NUM_LANES]);
        }
    }

    #[test]
    fn swap_protocol_drains_flushes_and_loads() {
        let mut comp = Scripted::new();
        comp.preds.push(PredPacket {
            pc: 0x2000,
            taken: true,
        });
        let mut f = fabric_with(comp, FabricParams::paper_default().delay(1));
        warm_roi(&mut f);
        assert!(f.intq_f.len() + f.pred_delay.len() > 0, "stale pred queued");

        let (fst, rst) = swap_tables();
        assert!(f.begin_swap(fst, rst, Box::new(Scripted::new()), 24));
        assert!(matches!(f.residency(), Residency::Draining { .. }));
        assert_eq!(f.stats().swaps, 1);

        // Agents answer "no intervention" mid-swap: the queued stale
        // prediction must not be served, loads must not inject, and
        // retirement must not stall.
        assert_eq!(f.fetch_inst(100, 0x2000, true), FetchOverride::Pass);
        assert!(f.pop_load().is_none());
        assert!(!f.retire_stalled());

        let mut cycles_to_resident = 0;
        for c in 60..400 {
            f.begin_cycle(c, [false; NUM_LANES]);
            if f.residency() == Residency::Resident {
                cycles_to_resident = c;
                break;
            }
        }
        assert!(cycles_to_resident > 0, "swap never completed");
        // Drain window (delay+1)*clk = 8, then 24 load cycles.
        assert_eq!(f.stats().reconfig_cycles, 8 + 24);
        // The stale packets were flushed, not delivered to the new
        // component's queues.
        assert!(f.intq_f.is_empty() && f.pred_delay.is_empty());
        // The swap evicted the armed ROI context: until the incoming
        // tenant's `begin_roi` retires, the Agents stay inert even
        // though the slot is Resident again.
        assert!(!f.enabled());
        assert_eq!(f.fetch_inst(200, 0x2000, true), FetchOverride::Pass);
        // Re-arming at the next `begin_roi` realigns via the squash
        // protocol, after which the fresh component answers again
        // (empty queue + Stall policy = Stall, proving the gate
        // lifted).
        assert_eq!(
            f.on_retire(&retire_info(0x1000, 10)),
            RetireDirective::SquashYounger
        );
        assert_eq!(f.fetch_inst(200, 0x2000, true), FetchOverride::Stall);
    }

    #[test]
    fn swap_rejected_while_one_is_in_progress() {
        let mut f = fabric_with(Scripted::new(), FabricParams::paper_default());
        let (fst, rst) = swap_tables();
        assert!(f.begin_swap(fst, rst, Box::new(Scripted::new()), 10));
        let (fst, rst) = swap_tables();
        assert!(
            !f.begin_swap(fst, rst, Box::new(Scripted::new()), 10),
            "second swap must be rejected mid-swap"
        );
        assert_eq!(f.stats().swaps, 1);
    }

    #[test]
    fn unload_empties_and_swap_from_empty_skips_drain() {
        let mut f = fabric_with(Scripted::new(), FabricParams::paper_default());
        warm_roi(&mut f);
        f.unload();
        assert_eq!(f.residency(), Residency::Empty);
        assert_eq!(f.fetch_inst(100, 0x2000, true), FetchOverride::Pass);
        let (fst, rst) = swap_tables();
        assert!(f.begin_swap(fst, rst, Box::new(Scripted::new()), 5));
        assert!(matches!(f.residency(), Residency::Loading { .. }));
        for c in 100..140 {
            f.begin_cycle(c, [false; NUM_LANES]);
        }
        assert_eq!(f.residency(), Residency::Resident);
    }

    #[test]
    fn swap_abort_restarts_the_load_once() {
        let mut clean = fabric_with(Scripted::new(), FabricParams::paper_default());
        let mut faulty = fabric_with(Scripted::new(), FabricParams::paper_default());
        faulty
            .set_swap_faults(FaultPlan::new(FaultScenario::SwapAbort, 0xC4A0_5EED).with_rate(1000));
        for f in [&mut clean, &mut faulty] {
            let (fst, rst) = swap_tables();
            assert!(f.begin_swap(fst, rst, Box::new(Scripted::new()), 40));
            for c in 1..1000 {
                f.begin_cycle(c, [false; NUM_LANES]);
                if f.residency() == Residency::Resident {
                    break;
                }
            }
            assert_eq!(f.residency(), Residency::Resident, "swap must complete");
        }
        assert_eq!(faulty.stats().swap_abort_restarts, 1);
        assert_eq!(clean.stats().swap_abort_restarts, 0);
        assert!(faulty.stats().reconfig_cycles > clean.stats().reconfig_cycles);
    }

    #[test]
    fn swap_load_spike_inflates_the_window() {
        let mut f = fabric_with(Scripted::new(), FabricParams::paper_default());
        f.set_swap_faults(
            FaultPlan::new(FaultScenario::SwapLoadSpike, 0xC4A0_5EED).with_rate(1000),
        );
        let (fst, rst) = swap_tables();
        assert!(f.begin_swap(fst, rst, Box::new(Scripted::new()), 40));
        for c in 1..2000 {
            f.begin_cycle(c, [false; NUM_LANES]);
            if f.residency() == Residency::Resident {
                break;
            }
        }
        assert_eq!(f.residency(), Residency::Resident);
        assert!(f.stats().swap_spike_cycles > 0);
        assert_eq!(
            f.stats().reconfig_cycles,
            f.drain_window() + 40 + f.stats().swap_spike_cycles
        );
    }

    #[test]
    fn stale_drain_leaks_predictions_under_fault() {
        let mut comp = Scripted::new();
        comp.preds.push(PredPacket {
            pc: 0x2000,
            taken: true,
        });
        let mut f = fabric_with(comp, FabricParams::paper_default().delay(1));
        f.set_swap_faults(FaultPlan::new(FaultScenario::StaleDrain, 7).with_rate(1000));
        warm_roi(&mut f);
        let (fst, rst) = swap_tables();
        assert!(f.begin_swap(fst, rst, Box::new(Scripted::new()), 24));
        assert!(matches!(f.residency(), Residency::Draining { .. }));
        // The stale prediction answers during Draining instead of
        // being quiesced.
        assert_eq!(f.fetch_inst(100, 0x2000, true), FetchOverride::Use(true));
        assert_eq!(f.stats().stale_drain_leaks, 1);
        // Queue now empty: at rate 1000 the un-quiesced component
        // fabricates a late answer for a branch it was never asked
        // about — still never a Stall mid-swap.
        assert!(matches!(
            f.fetch_inst(101, 0x2000, true),
            FetchOverride::Use(_)
        ));
        assert_eq!(f.stats().stale_drain_leaks, 2);
    }

    #[test]
    fn swap_fault_trace_is_deterministic() {
        let run = || {
            let mut f = fabric_with(Scripted::new(), FabricParams::paper_default());
            f.set_swap_faults(FaultPlan::new(FaultScenario::SwapAbort, 99).with_rate(700));
            for round in 0..4u64 {
                let (fst, rst) = swap_tables();
                f.begin_swap(fst, rst, Box::new(Scripted::new()), 32);
                let base = 1 + round * 1000;
                for c in base..base + 999 {
                    f.begin_cycle(c, [false; NUM_LANES]);
                    if f.residency() == Residency::Resident {
                        break;
                    }
                }
            }
            *f.stats()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.swaps, 4);
    }

    #[test]
    fn table_stats_percentages() {
        let mut f = fabric_with(Scripted::new(), FabricParams::paper_default());
        f.on_retire(&retire_info(0x1000, 1));
        f.on_squash(SquashKind::RoiBegin, 2, 1);
        for c in 2..40 {
            f.begin_cycle(c, [false; NUM_LANES]);
        }
        for i in 0..10 {
            f.fetch_inst(100 + i, 0x4000, false);
        }
        // A later retire of the snooped PC while the ROI is active.
        f.on_retire(&retire_info(0x1000, 120));
        assert_eq!(f.stats().fetched_in_roi, 10);
        assert_eq!(f.stats().fst_hit_pct(), 0.0);
        assert!(f.stats().rst_hit_pct() > 0.0);
    }
}
