//! The cycle-level out-of-order superscalar core.
//!
//! Functional-first discipline: the architectural [`Machine`] executes
//! correct-path instructions at fetch, producing exact values; this
//! module layers the timing model — fetch bundles and I-cache, a
//! front-end pipe, rename with PRF free-list accounting, an issue
//! queue with wakeup/select over 8 lanes, a load/store queue with
//! store-to-load forwarding and speculative memory disambiguation, and
//! 4-wide in-order retirement — on top of those records. Wrong-path
//! execution is modeled as fetch bubbles (the standard
//! trace-replay simplification), applied identically to baseline and
//! PFM runs.
//!
//! Squashes (mispredicts, disambiguation violations, Retire-Agent ROI
//! squashes) rewind *timing* state only: squashed records park in a
//! replay queue and re-enter fetch, while architectural state — which
//! only ever executed the correct path — is untouched.

use crate::config::{CoreConfig, LaneClass, NUM_LANES};
use crate::hooks::{
    FabricLoadResult, FetchOverride, PfmHooks, RetireDirective, RetireInfo, SquashKind,
};
use crate::stats::SimStats;
use pfm_bpred::{BranchKind, Btb, Checkpoint, Prediction, Predictor, Ras};
use pfm_isa::fxhash::FxHashMap;
use pfm_isa::inst::{ExecClass, Inst};
use pfm_isa::machine::{ExecError, Machine, StepOut};
use pfm_isa::snap::FNV_OFFSET;
use pfm_isa::InstInfo;
use pfm_mem::cache::line_of;
use pfm_mem::{AccessKind, Hierarchy, HitLevel};
use std::collections::VecDeque;

/// Number of slots in the unified architectural register space
/// ([`pfm_isa::RegRef::index`]: 32 integer + 32 FP).
const NUM_ARCH_REGS: usize = 64;

/// Brackets an Agent hook invocation with the debug-build
/// non-interference cross-check (PAPER.md §3: Agents observe the
/// retired stream and intervene microarchitecturally, but never change
/// architectural state). Architectural state — integer/FP registers,
/// the PC, and the committed-memory write generation — is checksummed
/// before and after the hook; any drift aborts the run. The
/// fault-injection seam runs inside the bracket so the check's own
/// alarm is testable (see `PfmHooks::debug_inject_arch_fault`).
/// Compiles to the bare hook call in release builds.
macro_rules! checked_hook {
    ($core:expr, $hooks:expr, $name:literal, $call:expr) => {{
        #[cfg(debug_assertions)]
        let before = $core.machine.arch_checksum();
        #[cfg(debug_assertions)]
        $hooks.debug_inject_arch_fault(&mut $core.machine);
        let out = $call;
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            before,
            $core.machine.arch_checksum(),
            concat!("agent hook `", $name, "` mutated architectural state")
        );
        out
    }};
}

/// Instruction timing state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InstState {
    /// In the front-end pipe (fetched, not yet in the window).
    InFront,
    /// In the issue queue waiting for operands/lane.
    Waiting,
    /// Executing.
    Issued,
    /// Done executing; waiting to retire.
    Completed,
}

/// One in-flight dynamic instruction. A conditional branch's predictor
/// state lives in the core's branch queue ([`BranchEntry`]), not here,
/// which keeps the entries the window moves around small.
#[derive(Clone, Debug)]
struct DynInst {
    step: StepOut,
    info: InstInfo,
    state: InstState,
    /// Cycle at which it may leave the front-end into the window.
    dispatch_ready: u64,
    /// Producer sequence numbers for each source operand.
    srcs: [Option<u64>; 2],
    has_dst: bool,
    issue_cycle: u64,
    complete_cycle: u64,
    /// Direction used by fetch (prediction or fabric override).
    pred_taken: bool,
    /// Direction misprediction (resolved at execute).
    mispredicted: bool,
    /// Return/indirect target misprediction.
    target_mispredicted: bool,
    /// Prediction was supplied by the Fetch Agent.
    from_fabric: bool,
    ras_snap: Option<(usize, usize)>,
}

/// Predictor state of one unretired conditional branch. The core keeps
/// these in program order from fetch to retire: retire pops the head to
/// train, mispredict recovery takes the checkpoint by seq, and a squash
/// truncates the queue.
#[derive(Clone, Debug)]
struct BranchEntry {
    seq: u64,
    prediction: Prediction,
    /// Speculative-history checkpoint from before the prediction;
    /// `None` once mispredict recovery has consumed it.
    checkpoint: Option<Checkpoint>,
}

/// Scheduler state of one window slot, in a ring indexed by
/// `seq & slot_mask`. The ROB never holds more than `rob_size`
/// consecutive seqs, so no two in-window instructions share a slot.
#[derive(Clone, Debug, Default)]
struct Slot {
    /// Source producers still `Waiting` or `Issued` (a `Waiting`
    /// instruction is ready when this reaches zero).
    pending: u8,
    /// Younger `Waiting` instructions to wake when this one completes,
    /// in dispatch (seq) order; one entry per source operand.
    dependents: Vec<u64>,
}

impl DynInst {
    fn is_load(&self) -> bool {
        self.info.class == ExecClass::Load
    }
    fn is_store(&self) -> bool {
        self.info.class == ExecClass::Store
    }
    fn is_incomplete(&self) -> bool {
        matches!(self.state, InstState::Waiting | InstState::Issued)
    }
    fn mem_range(&self) -> Option<(u64, u64)> {
        self.step.mem.map(|m| (m.addr, m.addr + m.size))
    }
}

fn overlaps(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// Errors from a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// The functional machine faulted (bad PC, etc.).
    Exec(ExecError),
    /// The run exceeded the cycle limit without retiring `Halt` or the
    /// requested instruction count (deadlock guard).
    CycleLimit(u64),
    /// The forward-progress watchdog fired: no instruction committed
    /// for the configured number of cycles (see [`Core::run_watched`]).
    /// Distinguishes "the pipeline is wedged" from the blunt
    /// [`SimError::CycleLimit`] cap long before the cap is reached.
    Watchdog {
        /// Cycle at which the last instruction committed (0 if none
        /// ever did).
        last_commit_cycle: u64,
        /// Commit-free cycles elapsed when the watchdog fired.
        stalled_cycles: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "functional execution failed: {e}"),
            SimError::CycleLimit(c) => write!(f, "cycle limit {c} reached (possible deadlock)"),
            SimError::Watchdog {
                last_commit_cycle,
                stalled_cycles,
            } => write!(
                f,
                "forward-progress watchdog: no commit for {stalled_cycles} cycles \
                 (last commit at cycle {last_commit_cycle})"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> SimError {
        SimError::Exec(e)
    }
}

/// The superscalar core plus its memory hierarchy and predictor.
pub struct Core {
    config: CoreConfig,
    machine: Machine,
    hierarchy: Hierarchy,
    bp: Predictor,
    btb: Btb,
    ras: Ras,

    cycle: u64,
    front: VecDeque<DynInst>,
    rob: VecDeque<DynInst>,
    replay: VecDeque<StepOut>,
    peeked: Option<StepOut>,
    // The event maps are keyed by absolute cycle and only ever point-
    // looked-up (insert at schedule, remove at that cycle) — never
    // iterated, so the hash function cannot influence simulated order.
    // Drained buckets park in a pool for reuse; a cycle's bucket keeps
    // push order, which is what makes completion order deterministic.
    events: FxHashMap<u64, Vec<u64>>,
    event_pool: Vec<Vec<u64>>,
    fabric_load_events: FxHashMap<u64, Vec<(u64, u64, u64)>>, // cycle -> (id, addr, size)
    fabric_load_pool: Vec<Vec<(u64, u64, u64)>>,
    last_writer: [Option<u64>; NUM_ARCH_REGS],
    /// Reused squash scratch: avoids a fresh allocation per squash.
    squash_scratch: Vec<StepOut>,

    /// Unretired conditional branches (front end and ROB), in program
    /// order.
    branches: VecDeque<BranchEntry>,
    /// Scheduler ring, `rob_size.next_power_of_two()` slots.
    slots: Vec<Slot>,
    slot_mask: u64,
    /// Seqs of the `Waiting` instructions whose producers have all
    /// completed (or left the window), ascending: issue walks only
    /// these, oldest first.
    ready: Vec<u64>,
    /// Seqs of the in-window loads and stores, ascending (the load and
    /// store queues).
    loads: VecDeque<u64>,
    stores: VecDeque<u64>,

    /// Issue-queue occupancy as of the last dispatch (deliberately
    /// *stale* during a cycle: issue() frees IQ entries mid-cycle, but
    /// dispatch sees them freed only next cycle, modeling a one-cycle
    /// IQ-deallocate delay).
    iq_count: usize,
    /// True number of `Waiting` instructions, maintained incrementally
    /// (dispatch +1, issue -1, squash recount). `iq_count` is refreshed
    /// from this at the end of every dispatch, replacing what used to
    /// be an O(ROB) recount per cycle.
    waiting_count: usize,
    dest_count: usize,

    fetch_stall_until: u64,
    fetch_blocked_on: Option<u64>,
    halt_fetched: bool,
    finished: bool,
    last_fetch_line: u64,

    lane_busy: [bool; NUM_LANES],
    lane_busy_prev: [bool; NUM_LANES],

    /// Running [`StepOut::fold_commit`] over the committed instruction
    /// stream (PC, branch outcome, destination write, store), capped at
    /// `checksum_cap` retired instructions. Unlike the live
    /// [`Machine::arch_checksum`] — which includes speculated-ahead
    /// state — this fingerprints exactly what retired, so two runs of
    /// the same workload are comparable even when wide retire
    /// overshoots an instruction budget by different amounts.
    commit_checksum: u64,
    /// Retired instructions folded into `commit_checksum` (set to the
    /// run's instruction budget by [`Core::run_watched`]).
    checksum_cap: u64,

    stats: SimStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cycle", &self.cycle)
            .field("retired", &self.stats.retired)
            .field("rob", &self.rob.len())
            .finish()
    }
}

impl Core {
    /// Creates a core around a functional machine and memory hierarchy.
    pub fn new(config: CoreConfig, machine: Machine, hierarchy: Hierarchy) -> Core {
        let bp = Predictor::new(config.predictor);
        let ras_depth = config.ras_depth;
        let ring = config.rob_size.next_power_of_two();
        Core {
            config,
            machine,
            hierarchy,
            bp,
            btb: Btb::default(),
            ras: Ras::new(ras_depth),
            cycle: 0,
            front: VecDeque::new(),
            rob: VecDeque::new(),
            replay: VecDeque::new(),
            peeked: None,
            events: FxHashMap::default(),
            event_pool: Vec::new(),
            fabric_load_events: FxHashMap::default(),
            fabric_load_pool: Vec::new(),
            last_writer: [None; NUM_ARCH_REGS],
            squash_scratch: Vec::new(),
            branches: VecDeque::new(),
            slots: vec![Slot::default(); ring],
            slot_mask: ring as u64 - 1,
            ready: Vec::new(),
            loads: VecDeque::new(),
            stores: VecDeque::new(),
            iq_count: 0,
            waiting_count: 0,
            dest_count: 0,
            fetch_stall_until: 0,
            fetch_blocked_on: None,
            halt_fetched: false,
            finished: false,
            last_fetch_line: u64::MAX,
            lane_busy: [false; NUM_LANES],
            lane_busy_prev: [false; NUM_LANES],
            commit_checksum: FNV_OFFSET,
            checksum_cap: u64::MAX,
            stats: SimStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The memory hierarchy (for cache statistics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The architectural machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Whether `Halt` has retired.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Checksum of the committed instruction stream (the first
    /// `checksum_cap` retired instructions — see the field docs). The
    /// chaos harness compares this between fault-free and
    /// fault-injected runs: equal checksums certify the faults never
    /// reached architectural state.
    pub fn commit_checksum(&self) -> u64 {
        self.commit_checksum
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Runs until `Halt` retires, `max_instrs` instructions retire, or
    /// `max_cycles` elapses.
    ///
    /// # Errors
    /// Returns [`SimError::Exec`] on functional faults and
    /// [`SimError::CycleLimit`] if `max_cycles` elapses first (which
    /// usually indicates a deadlocked custom component).
    pub fn run(
        &mut self,
        hooks: &mut dyn PfmHooks,
        max_instrs: u64,
        max_cycles: u64,
    ) -> Result<(), SimError> {
        self.run_watched(hooks, max_instrs, max_cycles, None)
    }

    /// Like [`Core::run`], with a forward-progress watchdog: if no
    /// instruction commits for `commit_watchdog` consecutive cycles the
    /// run is aborted. A hung pipeline (e.g. a custom component that
    /// stalls fetch forever with its chicken switch disabled) is
    /// detected within the watchdog budget instead of burning the full
    /// `max_cycles` cap.
    ///
    /// # Errors
    /// Returns [`SimError::Exec`] on functional faults,
    /// [`SimError::CycleLimit`] if `max_cycles` elapses, and
    /// [`SimError::Watchdog`] if the commit watchdog fires first.
    pub fn run_watched(
        &mut self,
        hooks: &mut dyn PfmHooks,
        max_instrs: u64,
        max_cycles: u64,
        commit_watchdog: Option<u64>,
    ) -> Result<(), SimError> {
        // Cap the commit checksum at the instruction budget so two
        // runs of the same workload fold the same prefix of the
        // retired stream even if their final (wide) retire groups
        // overshoot the budget by different amounts.
        self.checksum_cap = self.checksum_cap.min(max_instrs);
        self.run_watched_until(hooks, max_instrs, max_cycles, commit_watchdog)
    }

    /// Sets the retired-instruction cap of the commit-stream checksum
    /// explicitly. Time-sliced runs (the context-switch scheduler)
    /// call this once with the workload's full budget, then advance in
    /// slices via [`Core::run_watched_until`] — whose intermediate
    /// targets must not shrink the cap the way
    /// [`Core::run_watched`]'s budget does, or the checksum would stop
    /// folding at the first slice boundary.
    pub fn set_checksum_cap(&mut self, cap: u64) {
        self.checksum_cap = cap;
    }

    /// Like [`Core::run_watched`], but `max_instrs` is treated as an
    /// intermediate absolute target that leaves the checksum cap
    /// untouched (see [`Core::set_checksum_cap`]). `max_cycles` stays
    /// an absolute cycle cap.
    ///
    /// # Errors
    /// Same contract as [`Core::run_watched`].
    pub fn run_watched_until(
        &mut self,
        hooks: &mut dyn PfmHooks,
        max_instrs: u64,
        max_cycles: u64,
        commit_watchdog: Option<u64>,
    ) -> Result<(), SimError> {
        let mut last_retired = self.stats.retired;
        let mut last_commit_cycle = self.cycle;
        while !self.finished && self.stats.retired < max_instrs {
            if self.cycle >= max_cycles {
                return Err(SimError::CycleLimit(max_cycles));
            }
            if let Some(wd) = commit_watchdog {
                let stalled_cycles = self.cycle - last_commit_cycle;
                if stalled_cycles >= wd {
                    return Err(SimError::Watchdog {
                        last_commit_cycle,
                        stalled_cycles,
                    });
                }
            }
            self.tick(hooks)?;
            if self.stats.retired != last_retired {
                last_retired = self.stats.retired;
                last_commit_cycle = self.cycle;
            }
        }
        Ok(())
    }

    /// Advances the core by one cycle.
    ///
    /// # Errors
    /// Returns [`SimError::Exec`] if the functional machine faults.
    pub fn tick(&mut self, hooks: &mut dyn PfmHooks) -> Result<(), SimError> {
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        self.lane_busy_prev = self.lane_busy;
        self.lane_busy = [false; NUM_LANES];

        checked_hook!(
            self,
            hooks,
            "begin_cycle",
            hooks.begin_cycle(self.cycle, self.lane_busy_prev)
        );
        self.retire(hooks);
        self.complete(hooks);
        self.issue(hooks);
        self.dispatch();
        self.fetch(hooks)?;
        checked_hook!(self, hooks, "end_cycle", hooks.end_cycle(self.cycle));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Retire
    // ------------------------------------------------------------------

    fn retire(&mut self, hooks: &mut dyn PfmHooks) {
        if checked_hook!(self, hooks, "retire_stalled", hooks.retire_stalled()) {
            self.stats.retire_agent_stall_cycles += 1;
            return;
        }
        for _ in 0..self.config.retire_width {
            let Some(head) = self.rob.front() else { break };
            if head.state != InstState::Completed || head.complete_cycle >= self.cycle {
                break;
            }
            // pfm-lint: allow(hygiene): front() just returned Some
            let inst = self.rob.pop_front().expect("head exists");
            let seq = inst.step.seq;

            // Commit stores: architectural memory + write-buffer D$
            // access (does not stall retire).
            if inst.is_store() {
                self.machine.mem_mut().commit_store(seq);
                // pfm-lint: allow(hygiene): is_store() implies a memory access
                let m = inst.step.mem.expect("store has a memory access");
                self.hierarchy.access(m.addr, AccessKind::Store, self.cycle);
                self.stats.stores += 1;
                debug_assert_eq!(self.stores.front(), Some(&seq));
                self.stores.pop_front();
            }
            if inst.is_load() {
                self.stats.loads += 1;
                debug_assert_eq!(self.loads.front(), Some(&seq));
                self.loads.pop_front();
            }
            if inst.has_dst {
                self.dest_count -= 1;
            }

            // Branch bookkeeping and predictor training.
            if inst.info.is_cond_branch {
                self.stats.cond_branches += 1;
                if inst.mispredicted {
                    self.stats.mispredicts += 1;
                    if inst.from_fabric {
                        self.stats.fabric_mispredicts += 1;
                    }
                }
                if inst.from_fabric {
                    self.stats.fabric_predictions_used += 1;
                }
                if let Some(b) = self.branches.pop_front_if(|b| b.seq == seq) {
                    self.bp.train(inst.step.pc, inst.step.taken, &b.prediction);
                }
            }
            if inst.target_mispredicted {
                self.stats.target_mispredicts += 1;
            }
            if inst.info.is_control {
                let kind = match inst.step.inst {
                    Inst::Branch { .. } => BranchKind::Conditional,
                    Inst::Jal { rd, .. } if rd == pfm_isa::Reg::RA => BranchKind::Call,
                    Inst::Jal { .. } => BranchKind::DirectJump,
                    Inst::Jalr { rd, base, .. }
                        if rd == pfm_isa::Reg::X0 && base == pfm_isa::Reg::RA =>
                    {
                        BranchKind::Return
                    }
                    _ => BranchKind::IndirectJump,
                };
                if inst.step.taken {
                    self.btb.update(inst.step.pc, inst.step.next_pc, kind);
                }
            }

            // Rename-table cleanup.
            if let Some((reg, _)) = inst.step.wrote {
                if self.last_writer[reg.index()] == Some(seq) {
                    self.last_writer[reg.index()] = None;
                }
            }

            self.stats.retired += 1;
            if self.stats.retired <= self.checksum_cap {
                self.commit_checksum = inst.step.fold_commit(self.commit_checksum);
            }

            // Retire Agent observation.
            let info = RetireInfo {
                seq,
                pc: inst.step.pc,
                inst: &inst.step.inst,
                taken: inst.step.taken,
                dest_value: inst.step.wrote.map(|(_, v)| v),
                store: inst.step.mem.and_then(|m| {
                    if m.is_store {
                        Some((m.addr, m.size, m.value))
                    } else {
                        None
                    }
                }),
                lane_busy: self.lane_busy_prev,
            };
            let directive = checked_hook!(self, hooks, "on_retire", hooks.on_retire(&info));

            if inst.step.halted {
                self.finished = true;
                return;
            }
            if directive == RetireDirective::SquashYounger {
                self.stats.squash_roi += 1;
                self.squash_from(seq + 1, SquashKind::RoiBegin, hooks);
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Complete / writeback
    // ------------------------------------------------------------------

    /// ROB position of `seq`: its offset from the head, since the ROB
    /// holds consecutive seqs.
    fn rob_pos(&self, seq: u64) -> Option<usize> {
        let pos = seq.checked_sub(self.rob.front()?.step.seq)?;
        usize::try_from(pos).ok().filter(|&p| p < self.rob.len())
    }

    /// The in-window instruction `seq` (which must be in the ROB).
    fn inst(&self, seq: u64) -> &DynInst {
        let pos = seq - self.rob[0].step.seq;
        &self.rob[pos as usize]
    }

    /// Whether `seq` is in the window and has not completed.
    fn executing(&self, seq: u64) -> bool {
        self.rob_pos(seq)
            .is_some_and(|pos| self.rob[pos].is_incomplete())
    }

    fn slot(&mut self, seq: u64) -> &mut Slot {
        &mut self.slots[(seq & self.slot_mask) as usize]
    }

    /// Branch-queue index of conditional branch `seq`.
    fn branch_pos(&self, seq: u64) -> Option<usize> {
        self.branches.binary_search_by_key(&seq, |b| b.seq).ok()
    }

    /// Enters `Waiting` instruction `seq` (the youngest in the window)
    /// into the scheduler: registered on each source producer that is
    /// still `Waiting` or `Issued`, or straight onto the ready list.
    fn register_waiting(&mut self, seq: u64, srcs: [Option<u64>; 2]) {
        self.slot(seq).dependents.clear();
        let mut pending = 0;
        for p in srcs.into_iter().flatten() {
            if self.executing(p) {
                pending += 1;
                self.slot(p).dependents.push(seq);
            }
        }
        self.slot(seq).pending = pending;
        if pending == 0 {
            debug_assert!(self.ready.last().is_none_or(|&r| r < seq));
            self.ready.push(seq);
        }
    }

    /// Wakes the dependents of `seq`, which just completed: each whose
    /// last pending producer this was joins the ready list in seq order.
    fn wake_dependents(&mut self, seq: u64) {
        let mut deps = std::mem::take(&mut self.slot(seq).dependents);
        for &c in &deps {
            let slot = self.slot(c);
            debug_assert!(slot.pending > 0, "dependent {c} woken twice");
            slot.pending -= 1;
            if slot.pending == 0 {
                let at = self.ready.partition_point(|&r| r < c);
                self.ready.insert(at, c);
            }
        }
        deps.clear();
        self.slot(seq).dependents = deps;
    }

    /// Debug oracle for the scheduler: the ready list must be exactly
    /// what a full-window scan finds — every `Waiting` instruction
    /// whose producers are all `Completed` or out of the window, in
    /// ROB order.
    #[cfg(debug_assertions)]
    fn debug_check_ready(&self) {
        let scan = self
            .rob
            .iter()
            .filter(|d| d.state == InstState::Waiting)
            .filter(|d| !d.srcs.iter().flatten().any(|&p| self.executing(p)))
            .map(|d| d.step.seq);
        debug_assert!(
            scan.eq(self.ready.iter().copied()),
            "ready list {:?} diverged from the window scan at cycle {}",
            self.ready,
            self.cycle
        );
    }

    fn complete(&mut self, hooks: &mut dyn PfmHooks) {
        // Fabric load data returns.
        if let Some(mut loads) = self.fabric_load_events.remove(&self.cycle) {
            for (id, addr, size) in loads.drain(..) {
                let value = self.machine.mem().read_committed(addr, size);
                checked_hook!(
                    self,
                    hooks,
                    "load_result",
                    hooks.load_result(id, FabricLoadResult::Hit { value }, self.cycle)
                );
            }
            self.fabric_load_pool.push(loads);
        }

        let Some(mut seqs) = self.events.remove(&self.cycle) else {
            return;
        };
        for seq in seqs.drain(..) {
            let Some(pos) = self.rob_pos(seq) else {
                continue;
            };
            if self.rob[pos].state != InstState::Issued
                || self.rob[pos].complete_cycle != self.cycle
            {
                continue; // stale event from a squashed incarnation
            }
            self.rob[pos].state = InstState::Completed;
            self.wake_dependents(seq);

            let is_store = self.rob[pos].is_store();
            let mispredicted = self.rob[pos].mispredicted || self.rob[pos].target_mispredicted;

            if is_store {
                // Memory-disambiguation check: the oldest younger load
                // that already executed and overlaps this store's bytes
                // violated the dependence.
                // pfm-lint: allow(hygiene): stores always carry a memory range
                let range = self.rob[pos].mem_range().expect("store range");
                let younger = self.loads.partition_point(|&l| l < seq);
                let violator = self.loads.range(younger..).copied().find(|&l| {
                    let d = self.inst(l);
                    matches!(d.state, InstState::Issued | InstState::Completed)
                        && d.issue_cycle < self.cycle
                        && d.mem_range().is_some_and(|lr| overlaps(range, lr))
                });
                if let Some(v) = violator {
                    self.stats.squash_disambiguation += 1;
                    self.squash_from(v, SquashKind::Disambiguation, hooks);
                    continue;
                }
            }

            if mispredicted {
                // Resolve: repair predictor history, notify the fabric,
                // redirect fetch.
                // pfm-lint: allow(hygiene): seq was found in the ROB this cycle
                let pos = self.rob_pos(seq).expect("still present");
                let actual = self.rob[pos].step.taken;
                let checkpoint = self
                    .branch_pos(seq)
                    .and_then(|i| self.branches[i].checkpoint.take());
                if let Some(cp) = checkpoint {
                    self.bp.recover(&cp, actual);
                }
                if let Some(snap) = self.rob[pos].ras_snap.take() {
                    self.ras.restore(snap);
                }
                self.stats.squash_mispredict += 1;
                checked_hook!(
                    self,
                    hooks,
                    "on_squash",
                    hooks.on_squash(SquashKind::Mispredict, seq + 1, self.cycle)
                );
                if self.fetch_blocked_on == Some(seq) {
                    self.fetch_blocked_on = None;
                    self.fetch_stall_until = self.fetch_stall_until.max(self.cycle + 1);
                }
            }
        }
        self.event_pool.push(seqs);
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    fn lane_for(class: ExecClass) -> LaneClass {
        match class {
            ExecClass::Load | ExecClass::Store => LaneClass::LoadStore,
            ExecClass::Complex => LaneClass::Complex,
            _ => LaneClass::SimpleAlu,
        }
    }

    fn issue(&mut self, hooks: &mut dyn PfmHooks) {
        #[cfg(debug_assertions)]
        self.debug_check_ready();
        let mut lane_free: [usize; 3] = [4, 2, 2]; // SimpleAlu, LoadStore, Complex
        let mut issued = 0usize;
        let cycle = self.cycle;

        // Select: the ready list, oldest first. Issued entries leave it;
        // the rest stay for a later cycle.
        let head = self.rob.front().map_or(0, |d| d.step.seq);
        let mut i = 0;
        while i < self.ready.len() && issued < self.config.issue_width {
            let seq = self.ready[i];
            let pos = (seq - head) as usize;
            let d = &self.rob[pos];
            let lane = Self::lane_for(d.info.class);
            let lane_idx = match lane {
                LaneClass::SimpleAlu => 0,
                LaneClass::LoadStore => 1,
                LaneClass::Complex => 2,
            };
            if d.dispatch_ready > cycle || lane_free[lane_idx] == 0 {
                i += 1;
                continue;
            }

            // Compute completion time.
            let complete_at = match d.info.class {
                ExecClass::Load => {
                    // pfm-lint: allow(hygiene): loads always carry a memory access
                    let m = d.step.mem.expect("load has an access");
                    // Store-to-load forwarding: an older in-flight store
                    // with a known (executed) address that overlaps.
                    let lr = (m.addr, m.addr + m.size);
                    let forwarded = self
                        .stores
                        .iter()
                        .take_while(|&&s| s < seq)
                        .map(|&s| self.inst(s))
                        .any(|s| {
                            matches!(s.state, InstState::Issued | InstState::Completed)
                                && s.mem_range().is_some_and(|sr| overlaps(sr, lr))
                        });
                    if forwarded {
                        cycle + self.hierarchy.config().l1d.latency
                    } else {
                        let outcome = self.hierarchy.access(m.addr, AccessKind::Load, cycle + 1);
                        cycle + outcome.latency
                    }
                }
                ExecClass::Store => cycle + 1, // address generation
                _ => cycle + d.info.latency as u64,
            };

            lane_free[lane_idx] -= 1;
            issued += 1;
            // Mark a concrete lane busy for PRF-port contention modeling.
            let base = match lane {
                LaneClass::SimpleAlu => 0,
                LaneClass::LoadStore => 4,
                LaneClass::Complex => 6,
            };
            let width = match lane {
                LaneClass::SimpleAlu => 4,
                _ => 2,
            };
            for l in base..base + width {
                if !self.lane_busy[l] {
                    self.lane_busy[l] = true;
                    break;
                }
            }

            let d = &mut self.rob[pos];
            d.state = InstState::Issued;
            d.issue_cycle = cycle;
            d.complete_cycle = complete_at;
            self.ready.remove(i);
            self.waiting_count -= 1;
            let pool = &mut self.event_pool;
            self.events
                .entry(complete_at)
                .or_insert_with(|| pool.pop().unwrap_or_default())
                .push(seq);
        }

        // Load Agent: offer leftover load/store issue slots to the
        // fabric ("when the corresponding issue port is not busy").
        let mut free_ls = lane_free[1];
        while free_ls > 0 {
            let Some(req) = checked_hook!(self, hooks, "pop_load", hooks.pop_load()) else {
                break;
            };
            free_ls -= 1;
            if req.is_prefetch {
                self.stats.fabric_prefetches += 1;
                self.hierarchy.external_prefetch(req.addr, cycle);
                continue;
            }
            self.stats.fabric_loads += 1;
            let outcome = self.hierarchy.access(req.addr, AccessKind::Load, cycle);
            if outcome.level == HitLevel::L1 {
                let at = cycle + outcome.latency;
                let pool = &mut self.fabric_load_pool;
                self.fabric_load_events
                    .entry(at)
                    .or_insert_with(|| pool.pop().unwrap_or_default())
                    .push((req.id, req.addr, req.size));
            } else {
                checked_hook!(
                    self,
                    hooks,
                    "load_result",
                    hooks.load_result(req.id, FabricLoadResult::Miss, cycle)
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Dispatch / rename
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        for _ in 0..self.config.dispatch_width {
            let Some(head) = self.front.front() else {
                break;
            };
            if head.dispatch_ready > self.cycle + 1 {
                // Still flowing through the front-end pipe. (It may
                // enter the window the cycle it becomes ready.)
                break;
            }
            // Structural resources.
            if self.rob.len() >= self.config.rob_size
                || self.iq_count >= self.config.iq_size
                || (head.is_load() && self.loads.len() >= self.config.ldq_size)
                || (head.is_store() && self.stores.len() >= self.config.stq_size)
                || (head.has_dst && self.dest_count >= self.config.rename_regs())
            {
                break;
            }
            // pfm-lint: allow(hygiene): the loop guard checked front() is Some
            let mut d = self.front.pop_front().expect("head exists");
            let seq = d.step.seq;
            debug_assert!(
                self.rob.back().is_none_or(|b| b.step.seq + 1 == seq),
                "ROB seqs must be consecutive"
            );
            // Rename: source producers from the last-writer map.
            for (i, src) in d.info.srcs.iter().enumerate() {
                d.srcs[i] = src
                    .filter(|r| !r.is_zero())
                    .and_then(|r| self.last_writer[r.index()]);
            }
            if let Some((reg, _)) = d.step.wrote {
                self.last_writer[reg.index()] = Some(seq);
                self.dest_count += 1;
                d.has_dst = true;
            }
            if d.is_load() {
                self.loads.push_back(seq);
            }
            if d.is_store() {
                self.stores.push_back(seq);
            }
            self.iq_count += 1;
            self.waiting_count += 1;
            d.state = InstState::Waiting;
            let srcs = d.srcs;
            self.rob.push_back(d);
            self.register_waiting(seq, srcs);
        }
        // IQ entries free at issue; approximate by counting Waiting.
        // `waiting_count` tracks that exactly, so the refresh is O(1).
        debug_assert_eq!(
            self.waiting_count,
            self.rob
                .iter()
                .filter(|d| d.state == InstState::Waiting)
                .count()
        );
        self.iq_count = self.waiting_count;
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn next_record(&mut self) -> Result<Option<StepOut>, ExecError> {
        if let Some(r) = self.peeked.take() {
            return Ok(Some(r));
        }
        if let Some(r) = self.replay.pop_front() {
            return Ok(Some(r));
        }
        if self.machine.halted() {
            return Ok(None);
        }
        self.machine.step().map(Some)
    }

    fn fetch(&mut self, hooks: &mut dyn PfmHooks) -> Result<(), SimError> {
        if self.halt_fetched || self.finished {
            return Ok(());
        }
        if self.fetch_blocked_on.is_some() {
            self.stats.fetch_redirect_stall_cycles += 1;
            return Ok(());
        }
        if self.cycle < self.fetch_stall_until {
            self.stats.fetch_icache_stall_cycles += 1;
            return Ok(());
        }
        let front_cap = self.config.fetch_width * (self.config.front_depth as usize + 1);

        for _ in 0..self.config.fetch_width {
            if self.front.len() >= front_cap {
                break;
            }
            let Some(rec) = self.next_record()? else {
                break;
            };

            // I-cache: charge a stall when crossing into a missing line.
            let pc_line = line_of(rec.pc);
            if pc_line != self.last_fetch_line {
                let outcome = self
                    .hierarchy
                    .access(rec.pc, AccessKind::Ifetch, self.cycle);
                self.last_fetch_line = pc_line;
                if outcome.level != HitLevel::L1 {
                    self.fetch_stall_until = self.cycle + outcome.latency;
                    self.peeked = Some(rec);
                    break;
                }
            }

            let info = rec.inst.info();

            // Fetch Agent.
            let over = checked_hook!(
                self,
                hooks,
                "fetch_inst",
                hooks.fetch_inst(rec.seq, rec.pc, info.is_cond_branch)
            );
            if over == FetchOverride::Stall {
                self.stats.fetch_fabric_stall_cycles += 1;
                self.peeked = Some(rec);
                break;
            }

            let mut d = DynInst {
                step: rec,
                info,
                state: InstState::InFront,
                dispatch_ready: self.cycle + self.config.front_depth,
                srcs: [None, None],
                has_dst: false,
                issue_cycle: 0,
                complete_cycle: 0,
                pred_taken: false,
                mispredicted: false,
                target_mispredicted: false,
                from_fabric: false,
                ras_snap: None,
            };

            if info.is_cond_branch {
                let cp = self.bp.checkpoint();
                let pred = self.bp.predict(rec.pc, rec.taken);
                let mut used = pred.taken();
                match over {
                    FetchOverride::Use(dir) => {
                        d.from_fabric = true;
                        if dir != used {
                            // Keep the core predictor's speculative
                            // history aligned with the fetch direction.
                            self.bp.recover(&cp, dir);
                        }
                        used = dir;
                    }
                    FetchOverride::Pass => {}
                    FetchOverride::Stall => unreachable!(),
                }
                d.pred_taken = used;
                d.mispredicted = used != rec.taken;
                debug_assert!(self.branches.back().is_none_or(|b| b.seq < rec.seq));
                self.branches.push_back(BranchEntry {
                    seq: rec.seq,
                    prediction: pred,
                    checkpoint: Some(cp),
                });
            } else if info.is_control {
                // jal/jalr: direction always taken; model RAS for
                // returns and BTB for other indirect targets.
                d.pred_taken = true;
                match rec.inst {
                    Inst::Jal { rd, .. } if rd == pfm_isa::Reg::RA => {
                        d.ras_snap = Some(self.ras.snapshot());
                        self.ras.push(rec.pc + 4);
                    }
                    Inst::Jalr { rd, base, .. } => {
                        d.ras_snap = Some(self.ras.snapshot());
                        if rd == pfm_isa::Reg::X0 && base == pfm_isa::Reg::RA {
                            let predicted = self.ras.pop();
                            d.target_mispredicted = predicted != Some(rec.next_pc);
                        } else {
                            let predicted = self.btb.lookup(rec.pc).map(|(t, _)| t);
                            d.target_mispredicted = predicted != Some(rec.next_pc);
                            if rd == pfm_isa::Reg::RA {
                                self.ras.push(rec.pc + 4);
                            }
                        }
                    }
                    _ => {}
                }
            }

            let ends_bundle = (d.info.is_control && (d.pred_taken || d.step.taken))
                || d.step.halted
                || d.mispredicted
                || d.target_mispredicted;
            let seq = d.step.seq;
            let halted = d.step.halted;
            let blocked = d.mispredicted || d.target_mispredicted;
            self.front.push_back(d);

            if halted {
                self.halt_fetched = true;
                break;
            }
            if blocked {
                self.fetch_blocked_on = Some(seq);
                break;
            }
            if ends_bundle {
                break;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Rolls all timing state for instructions with `seq >= boundary`
    /// back to fetch (their records re-enter via the replay queue).
    fn squash_from(&mut self, boundary: u64, kind: SquashKind, hooks: &mut dyn PfmHooks) {
        // Split the ROB. Everything at `cut` and beyond is squashed,
        // but the tail is walked in place and truncated rather than
        // moved out, so a squash allocates nothing.
        let head = self.rob.front().map_or(boundary, |d| d.step.seq);
        let cut = boundary.saturating_sub(head).min(self.rob.len() as u64) as usize;
        let first_branch = self.branches.partition_point(|b| b.seq < boundary);

        // Repair predictor/RAS speculative state from the oldest
        // squashed control instruction: a conditional branch's
        // checkpoint or a jump's RAS snapshot, whichever is older.
        let cp = (self.branches.range(first_branch..))
            .find_map(|b| b.checkpoint.as_ref().map(|cp| (b.seq, cp)));
        let ras = (self.rob.range(cut..).chain(&self.front))
            .find_map(|d| d.ras_snap.map(|snap| (d.step.seq, snap)));
        match (cp, ras) {
            (Some((seq, cp)), ras) if ras.is_none_or(|(r, _)| seq < r) => self.bp.restore(cp),
            (_, Some((_, snap))) => self.ras.restore(snap),
            _ => {}
        }
        self.branches.truncate(first_branch);

        // Records back to replay, in order, via the reusable scratch
        // buffer. Squashed bookkeeping rides along in the same pass.
        let mut scratch = std::mem::take(&mut self.squash_scratch);
        scratch.clear();
        for d in self.rob.iter().skip(cut).chain(self.front.iter()) {
            scratch.push(d.step);
            if d.step.halted {
                self.halt_fetched = false;
            }
        }
        scratch.extend(self.peeked.take());
        self.rob.truncate(cut);
        self.front.clear();
        // The squashed records are in program order and all older than
        // anything still in the replay queue (replay drains oldest-
        // first before the machine produces fresh records), so they
        // prepend without a sort or merge.
        debug_assert!(scratch.windows(2).all(|w| w[0].seq < w[1].seq));
        debug_assert!(
            match (scratch.last(), self.replay.front()) {
                (Some(s), Some(r)) => s.seq < r.seq,
                _ => true,
            },
            "squashed records must be older than queued replays"
        );
        for r in scratch.drain(..).rev() {
            self.replay.push_front(r);
        }
        self.squash_scratch = scratch;

        // The seq-ordered lists drop their squashed tails.
        let older = |s: &u64| *s < boundary;
        self.loads.truncate(self.loads.partition_point(older));
        self.stores.truncate(self.stores.partition_point(older));
        self.ready.truncate(self.ready.partition_point(older));

        // Bookkeeping rebuilds over the surviving window (single pass),
        // including pruning squashed consumers from the wakeup lists of
        // producers that are still executing.
        self.last_writer = [None; NUM_ARCH_REGS];
        self.dest_count = 0;
        self.waiting_count = 0;
        for d in &self.rob {
            if let Some((reg, _)) = d.step.wrote {
                self.last_writer[reg.index()] = Some(d.step.seq);
            }
            self.dest_count += usize::from(d.has_dst);
            self.waiting_count += usize::from(d.state == InstState::Waiting);
            if d.is_incomplete() {
                let deps = &mut self.slots[(d.step.seq & self.slot_mask) as usize].dependents;
                deps.truncate(deps.partition_point(|&c| c < boundary));
            }
        }
        self.iq_count = self.waiting_count;

        self.fetch_blocked_on = None;
        self.fetch_stall_until = self.cycle + 1;
        self.last_fetch_line = u64::MAX;

        checked_hook!(
            self,
            hooks,
            "on_squash",
            hooks.on_squash(kind, boundary, self.cycle)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoPfm;
    use pfm_bpred::PredictorKind;
    use pfm_isa::asm::Asm;
    use pfm_isa::mem::SpecMemory;
    use pfm_isa::reg::names::*;
    use pfm_mem::HierarchyConfig;

    fn run_asm(f: impl FnOnce(&mut Asm), cfg: CoreConfig) -> Core {
        run_asm_mem(f, cfg, SpecMemory::new())
    }

    fn run_asm_mem(f: impl FnOnce(&mut Asm), cfg: CoreConfig, mem: SpecMemory) -> Core {
        let mut a = Asm::new(0x1000);
        f(&mut a);
        let machine = Machine::new(a.finish().unwrap(), mem);
        let mut core = Core::new(cfg, machine, Hierarchy::new(HierarchyConfig::micro21()));
        core.run(&mut NoPfm, u64::MAX, 20_000_000).unwrap();
        core
    }

    #[test]
    fn straightline_code_retires_and_matches_functional_result() {
        let core = run_asm(
            |a| {
                a.li(A0, 5);
                a.li(A1, 7);
                a.add(A2, A0, A1);
                a.mul(A3, A2, A2);
                a.halt();
            },
            CoreConfig::micro21(),
        );
        assert!(core.finished());
        assert_eq!(core.machine().reg(A2), 12);
        assert_eq!(core.machine().reg(A3), 144);
        assert_eq!(core.stats().retired, 5);
    }

    #[test]
    fn independent_instructions_achieve_ilp() {
        // 4 independent ALU chains: should sustain IPC well above 1.
        let core = run_asm(
            |a| {
                let top = a.label();
                a.li(S0, 0);
                a.li(S1, 0);
                a.li(S2, 0);
                a.li(S3, 0);
                a.li(T0, 20_000);
                a.bind(top).unwrap();
                a.addi(S0, S0, 1);
                a.addi(S1, S1, 1);
                a.addi(S2, S2, 1);
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            CoreConfig::micro21(),
        );
        let ipc = core.stats().ipc();
        assert!(ipc > 2.0, "expected ILP, got IPC {ipc}");
        assert_eq!(core.machine().reg(S0), 20_000);
    }

    #[test]
    fn dependent_chain_is_serialized() {
        // One long dependence chain: IPC must be ~1 or below.
        let core = run_asm(
            |a| {
                let top = a.label();
                a.li(S0, 0);
                a.li(T0, 20_000);
                a.bind(top).unwrap();
                a.addi(S0, S0, 1);
                a.addi(S0, S0, 1);
                a.addi(S0, S0, 1);
                a.addi(S0, S0, 1);
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            CoreConfig::micro21(),
        );
        let ipc = core.stats().ipc();
        assert!(
            ipc < 1.7,
            "dependence chain should serialize, got IPC {ipc}"
        );
        assert_eq!(core.machine().reg(S0), 80_000);
    }

    #[test]
    fn random_branches_cause_mispredicts_and_pipeline_cost() {
        // Data-dependent branch on an LCG: high MPKI, low IPC.
        let core = run_asm(
            |a| {
                let top = a.label();
                let skip = a.label();
                a.li(S0, 12345);
                a.li(S1, 6364136223846793005);
                a.li(S2, 1442695040888963407);
                a.li(T0, 20_000);
                a.li(S4, 0);
                a.bind(top).unwrap();
                a.mul(S0, S0, S1);
                a.add(S0, S0, S2);
                a.srli(T1, S0, 62);
                a.andi(T1, T1, 1);
                a.beq(T1, X0, skip);
                a.addi(S4, S4, 1);
                a.bind(skip).unwrap();
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            CoreConfig::micro21(),
        );
        let mpki = core.stats().mpki();
        assert!(
            mpki > 30.0,
            "random branch should mispredict often, MPKI {mpki}"
        );
        assert!(core.stats().squash_mispredict > 5_000);
    }

    #[test]
    fn perfect_bp_removes_mispredicts() {
        let mut cfg = CoreConfig::micro21();
        cfg.predictor = PredictorKind::Perfect;
        let core = run_asm(
            |a| {
                let top = a.label();
                let skip = a.label();
                a.li(S0, 12345);
                a.li(S1, 6364136223846793005);
                a.li(S2, 1442695040888963407);
                a.li(T0, 5_000);
                a.bind(top).unwrap();
                a.mul(S0, S0, S1);
                a.add(S0, S0, S2);
                a.srli(T1, S0, 62);
                a.andi(T1, T1, 1);
                a.beq(T1, X0, skip);
                a.addi(S4, S4, 1);
                a.bind(skip).unwrap();
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            cfg,
        );
        assert_eq!(core.stats().mispredicts, 0);
        assert_eq!(core.stats().squash_mispredict, 0);
    }

    #[test]
    fn store_load_forwarding_keeps_values_correct() {
        let core = run_asm(
            |a| {
                let top = a.label();
                a.li(A0, 0x10_0000);
                a.li(T0, 1000);
                a.li(S0, 0);
                a.bind(top).unwrap();
                a.sd(T0, A0, 0);
                a.ld(T1, A0, 0); // forwarded from the store
                a.add(S0, S0, T1);
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            CoreConfig::micro21(),
        );
        assert_eq!(core.machine().reg(S0), (1..=1000u64).sum::<u64>());
    }

    #[test]
    fn pointer_chase_is_memory_latency_bound() {
        // Build a linked list spanning far more than L1/L2, then chase it.
        let mut mem = SpecMemory::new();
        let n = 40_000u64;
        let base = 0x100_0000u64;
        // Pseudo-random permutation chain with large strides.
        let mut perm: Vec<u64> = (0..n).collect();
        let mut x = 99u64;
        for i in (1..n as usize).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (x >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        for i in 0..n as usize {
            let next = perm[(i + 1) % n as usize];
            m_write(&mut mem, base + perm[i] * 64, base + next * 64);
        }
        fn m_write(mem: &mut SpecMemory, addr: u64, v: u64) {
            mem.committed_mut().write(addr, 8, v);
        }
        let core = run_asm_mem(
            |a| {
                let top = a.label();
                a.li(A0, 0x100_0000);
                a.li(T0, 20_000);
                a.bind(top).unwrap();
                a.ld(A0, A0, 0);
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            CoreConfig::micro21(),
            mem,
        );
        let ipc = core.stats().ipc();
        assert!(
            ipc < 0.25,
            "pointer chase should be latency bound, IPC {ipc}"
        );
        assert!(core.hierarchy().stats().dram_accesses > 1_000);
    }

    #[test]
    fn disambiguation_violation_squashes_but_stays_correct() {
        // A store whose address depends on a long-latency load, followed
        // immediately by a load to the same address: the load issues
        // first (store address unknown) -> violation -> replay.
        let mut mem = SpecMemory::new();
        mem.committed_mut().write(0x20_0000, 8, 0x30_0000); // pointer
        let core = run_asm_mem(
            |a| {
                let top = a.label();
                a.li(A0, 0x20_0000);
                a.li(T0, 200);
                a.li(S0, 0);
                a.bind(top).unwrap();
                a.ld(A1, A0, 0); // long-latency pointer load (cold)
                a.sd(T0, A1, 0); // store through pointer
                a.li(A2, 0x30_0000);
                a.ld(T1, A2, 0); // same address; issues before store agen
                a.add(S0, S0, T1);
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            CoreConfig::micro21(),
            mem,
        );
        assert!(
            core.stats().squash_disambiguation > 0,
            "expected violations"
        );
        // Values must still be exact: sum of 200..=1.
        assert_eq!(core.machine().reg(S0), (1..=200u64).sum::<u64>());
    }

    #[test]
    fn rob_size_bounds_memory_level_parallelism() {
        // Independent streaming loads that all miss: a big window
        // overlaps many misses (MLP); a tiny window serializes them.
        fn kernel(a: &mut Asm) {
            let top = a.label();
            a.li(A0, 0x200_0000);
            a.li(T0, 3_000);
            a.bind(top).unwrap();
            a.ld(T1, A0, 0);
            a.ld(T2, A0, 4096);
            a.ld(T3, A0, 8192);
            a.addi(A0, A0, 12288);
            a.addi(T0, T0, -1);
            a.bne(T0, X0, top);
            a.halt();
        }
        let mut small_cfg = CoreConfig::micro21();
        small_cfg.rob_size = 8;
        let small = run_asm(kernel, small_cfg);
        let big = run_asm(kernel, CoreConfig::micro21());
        assert!(
            big.stats().ipc() > small.stats().ipc() * 1.5,
            "big window IPC {} vs small {}",
            big.stats().ipc(),
            small.stats().ipc()
        );
    }

    #[test]
    fn calls_and_returns_predicted_by_ras() {
        let core = run_asm(
            |a| {
                let func = a.label();
                let top = a.label();
                a.li(T0, 2000);
                a.li(S0, 0);
                a.bind(top).unwrap();
                a.call(func);
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
                a.bind(func).unwrap();
                a.addi(S0, S0, 1);
                a.ret();
            },
            CoreConfig::micro21(),
        );
        assert_eq!(core.machine().reg(S0), 2000);
        assert!(
            core.stats().target_mispredicts < 10,
            "RAS should predict returns, got {}",
            core.stats().target_mispredicts
        );
    }

    #[test]
    fn window_entries_stay_small() {
        // Predictor state lives in the branch queue, not in every
        // window entry.
        assert!(std::mem::size_of::<DynInst>() <= 256);
    }

    #[test]
    fn cycle_limit_guard_fires() {
        let mut a = Asm::new(0x1000);
        let top = a.label();
        a.bind(top).unwrap();
        a.j(top); // infinite loop, no halt
        let machine = Machine::new(a.finish().unwrap(), SpecMemory::new());
        let mut core = Core::new(
            CoreConfig::micro21(),
            machine,
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        let err = core.run(&mut NoPfm, u64::MAX, 10_000).unwrap_err();
        assert!(matches!(err, SimError::CycleLimit(_)));
    }

    #[test]
    fn commit_watchdog_detects_a_wedged_fetch_long_before_the_cycle_cap() {
        // A hook that stalls fetch forever (a component that never
        // supplies its promised prediction, chicken switch off).
        struct StallForever;
        impl PfmHooks for StallForever {
            fn fetch_inst(&mut self, _: u64, _: u64, _: bool) -> FetchOverride {
                FetchOverride::Stall
            }
        }
        let mut a = Asm::new(0x1000);
        let top = a.label();
        a.bind(top).unwrap();
        a.j(top);
        let machine = Machine::new(a.finish().unwrap(), SpecMemory::new());
        let mut core = Core::new(
            CoreConfig::micro21(),
            machine,
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        let err = core
            .run_watched(&mut StallForever, u64::MAX, u64::MAX, Some(500))
            .unwrap_err();
        match err {
            SimError::Watchdog {
                last_commit_cycle,
                stalled_cycles,
            } => {
                assert_eq!(last_commit_cycle, 0, "nothing ever committed");
                assert!(stalled_cycles >= 500);
                assert!(core.cycle() < 2_000, "fired promptly, not at the cap");
            }
            other => panic!("expected Watchdog, got {other:?}"),
        }
    }

    #[test]
    fn arch_checksum_tracks_registers_pc_and_committed_memory() {
        let mut a = Asm::new(0x1000);
        a.halt();
        let mut m = Machine::new(a.finish().unwrap(), SpecMemory::new());
        let base = m.arch_checksum();

        let saved = m.reg(T6);
        m.set_reg(T6, saved.wrapping_add(0xdead));
        assert_ne!(m.arch_checksum(), base, "register writes must show");
        m.set_reg(T6, saved);
        assert_eq!(
            m.arch_checksum(),
            base,
            "restoring the register restores the checksum"
        );

        let pc = m.pc();
        m.set_pc(pc.wrapping_add(4));
        assert_ne!(m.arch_checksum(), base, "pc changes must show");
        m.set_pc(pc);
        assert_eq!(m.arch_checksum(), base);

        // Committed-memory writes bump the generation counter, so even
        // a write of the value already present changes the checksum.
        m.mem_mut().committed_mut().write_u8(0x5000, 0);
        assert_ne!(m.arch_checksum(), base, "committed writes must show");
    }

    /// The misbehaving component for the non-interference cross-check:
    /// it abuses the debug fault-injection seam to corrupt a register
    /// from inside a hook bracket, which must trip the `debug_assert`.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "mutated architectural state")]
    fn rogue_hook_trips_noninterference_check() {
        struct Rogue;
        impl PfmHooks for Rogue {
            fn debug_inject_arch_fault(&mut self, machine: &mut Machine) {
                let v = machine.reg(T6);
                machine.set_reg(T6, v.wrapping_add(1));
            }
        }
        let mut a = Asm::new(0x1000);
        a.li(A0, 1);
        a.halt();
        let machine = Machine::new(a.finish().unwrap(), SpecMemory::new());
        let mut core = Core::new(
            CoreConfig::micro21(),
            machine,
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        let _ = core.run(&mut Rogue, u64::MAX, 10_000);
    }

    /// Same seam, but the "fault" leaves architectural state untouched:
    /// the bracket must stay silent and the run must complete normally.
    #[cfg(debug_assertions)]
    #[test]
    fn benign_seam_override_passes_noninterference_check() {
        struct Benign {
            probes: u64,
        }
        impl PfmHooks for Benign {
            fn debug_inject_arch_fault(&mut self, machine: &mut Machine) {
                // Reads are observation, not interference.
                let _ = machine.reg(T6);
                self.probes += 1;
            }
        }
        let mut a = Asm::new(0x1000);
        a.li(A0, 5);
        a.addi(A0, A0, 2);
        a.halt();
        let machine = Machine::new(a.finish().unwrap(), SpecMemory::new());
        let mut core = Core::new(
            CoreConfig::micro21(),
            machine,
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        let mut hooks = Benign { probes: 0 };
        core.run(&mut hooks, u64::MAX, 10_000).unwrap();
        assert!(core.finished());
        assert_eq!(core.machine().reg(A0), 7);
        assert!(hooks.probes > 0, "seam must have been exercised");
    }
}
