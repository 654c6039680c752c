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
//! squashes) rewind *timing* state only: squashed records stay in their
//! ring slots and are fetched again in place, while architectural state
//! — which only ever executed the correct path — is untouched.

use crate::config::{CoreConfig, LaneClass, NUM_LANES};
use crate::hooks::{
    FabricLoadResult, FetchOverride, PfmHooks, RetireDirective, RetireInfo, SquashKind,
};
use crate::stats::SimStats;
use pfm_bpred::{BranchKind, Btb, Checkpoint, Prediction, Predictor, Ras};
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

/// One in-flight dynamic instruction: its executed record and decode,
/// then timing fields that each fetch resets. A conditional branch's
/// predictor state lives in the core's branch queue ([`BranchEntry`]),
/// not here, which keeps the ring's entries small.
#[derive(Clone, Debug)]
struct DynInst {
    step: StepOut,
    info: InstInfo,
    state: InstState,
    /// Cycle at which it may leave the front-end into the window.
    dispatch_ready: u64,
    /// Producer sequence numbers for each source operand.
    srcs: [Option<u64>; 2],
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

/// Scheduler state of one ROB entry, in a ring indexed like the
/// record ring, by `seq & mask`.
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
    /// Starts a fetch of this record: every timing field is reset, so
    /// nothing of a squashed incarnation carries over.
    fn refetch(&mut self, dispatch_ready: u64) {
        self.state = InstState::InFront;
        self.dispatch_ready = dispatch_ready;
        self.srcs = [None, None];
        self.issue_cycle = 0;
        self.complete_cycle = 0;
        self.pred_taken = false;
        self.mispredicted = false;
        self.target_mispredicted = false;
        self.from_fabric = false;
        self.ras_snap = None;
    }
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

/// Initial ring size of a [`Wheel`]: past the DRAM latency (292) plus
/// a TLB walk (30). MSHR waits can exceed it, and growth covers them.
const WHEEL_BUCKETS: usize = 512;

/// A timing wheel: events keyed by the cycle they fall due, in a ring
/// of buckets indexed by `cycle & mask`.
///
/// Every pending event lies in `(now, now + buckets.len())`, where
/// `now` is the last cycle the owner drained (the owner drains every
/// cycle it does not prove empty with [`Wheel::next_after`]), so each
/// bucket holds the events of exactly one cycle, in push order:
/// completion order is push order, and golden stats depend on it. An
/// event past that horizon grows the ring to the next power of two
/// that holds it. Drained buckets swap with a spare `Vec`, so buckets
/// keep their capacity and a steady-state cycle allocates nothing.
struct Wheel<T> {
    buckets: Vec<Vec<T>>,
    /// Bit `i % 64` of word `i / 64` is set iff bucket `i` is non-empty.
    occupied: Vec<u64>,
    mask: u64,
    len: usize,
    spare: Vec<T>,
}

impl<T> Wheel<T> {
    fn new() -> Wheel<T> {
        Wheel {
            buckets: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: vec![0; WHEEL_BUCKETS / 64],
            mask: WHEEL_BUCKETS as u64 - 1,
            len: 0,
            spare: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mark(&mut self, i: usize) {
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    /// Schedules `item` at cycle `at`, after every item already due
    /// then. `now` is the current cycle, whose bucket is drained.
    fn push(&mut self, now: u64, at: u64, item: T) {
        debug_assert!(at > now, "event due at {at} scheduled at cycle {now}");
        if at - now > self.mask {
            self.grow(now, at - now);
        }
        let i = (at & self.mask) as usize;
        self.buckets[i].push(item);
        self.mark(i);
        self.len += 1;
    }

    /// Re-buckets every pending event into a ring that reaches `span`
    /// cycles past `now`.
    fn grow(&mut self, now: u64, span: u64) {
        let size = (span + 1).next_power_of_two();
        let old_mask = std::mem::replace(&mut self.mask, size - 1);
        let old = std::mem::replace(&mut self.buckets, (0..size).map(|_| Vec::new()).collect());
        self.occupied = vec![0; size as usize / 64];
        for (i, bucket) in old.into_iter().enumerate() {
            if !bucket.is_empty() {
                let at = now + 1 + ((i as u64).wrapping_sub(now + 1) & old_mask);
                let j = (at & self.mask) as usize;
                self.buckets[j] = bucket;
                self.mark(j);
            }
        }
    }

    /// Removes the events due at `cycle`, in push order; hand the
    /// drained `Vec` back through [`Wheel::recycle`].
    fn take(&mut self, cycle: u64) -> Option<Vec<T>> {
        let i = (cycle & self.mask) as usize;
        let bit = 1 << (i % 64);
        if self.occupied[i / 64] & bit == 0 {
            return None;
        }
        self.occupied[i / 64] &= !bit;
        let items = std::mem::replace(&mut self.buckets[i], std::mem::take(&mut self.spare));
        self.len -= items.len();
        Some(items)
    }

    fn recycle(&mut self, mut items: Vec<T>) {
        items.clear();
        self.spare = items;
    }

    /// The earliest cycle after `now` with an event due: the first
    /// occupied bucket from `now + 1` round the ring.
    fn next_after(&self, now: u64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let start = (now + 1) & self.mask;
        let (w, b) = (start as usize / 64, start % 64);
        let words = self.occupied.len();
        // The start word from bit `b`, the other words in ring order,
        // then the start word's bits below `b`.
        for k in 0..=words {
            let mut bits = self.occupied[(w + k) % words];
            if k == 0 {
                bits &= u64::MAX << b;
            } else if k == words {
                bits &= !(u64::MAX << b);
            }
            if bits != 0 {
                let i = ((w + k) % words * 64) as u64 + u64::from(bits.trailing_zeros());
                return Some(now + 1 + (i.wrapping_sub(start) & self.mask));
            }
        }
        None
    }
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
    /// Every executed, unretired record, indexed by `seq & mask`: the
    /// ROB is `head..head + rob_len`, the front-end pipe runs on to
    /// `head + win_len`, and the rest, up to the machine's next seq,
    /// are squashed records and the one a stall held back, all waiting
    /// to be fetched again in place. The machine steps only when fetch
    /// has caught up and the pipe has room, so at most
    /// `rob_size + front_cap` records, each in its own slot (both
    /// debug-asserted). The first fetch allocates the ring and the first
    /// lap fills each slot it reaches, so a core that never runs
    /// allocates none of it.
    ring: Vec<DynInst>,
    mask: u64,
    /// Seq of the ROB head.
    head: u64,
    rob_len: usize,
    win_len: usize,
    /// Completions: the seq of each issued instruction, at its
    /// `complete_cycle`.
    events: Wheel<u64>,
    /// Fabric-load data returns: `(id, addr, size)`.
    fabric_loads: Wheel<(u64, u64, u64)>,
    last_writer: [Option<u64>; NUM_ARCH_REGS],

    /// Unretired conditional branches (front end and ROB), in program
    /// order.
    branches: VecDeque<BranchEntry>,
    /// Scheduler ring, the record ring's size.
    slots: Vec<Slot>,
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
            .field("rob", &self.rob_len)
            .finish()
    }
}

impl Core {
    /// Creates a core around a functional machine and memory hierarchy.
    pub fn new(config: CoreConfig, machine: Machine, hierarchy: Hierarchy) -> Core {
        let bp = Predictor::new(config.predictor);
        let ras_depth = config.ras_depth;
        let size = (config.rob_size + front_cap(&config)).next_power_of_two();
        let head = machine.next_seq();
        Core {
            config,
            machine,
            hierarchy,
            bp,
            btb: Btb::default(),
            ras: Ras::new(ras_depth),
            cycle: 0,
            ring: Vec::new(),
            mask: size as u64 - 1,
            head,
            rob_len: 0,
            win_len: 0,
            events: Wheel::new(),
            fabric_loads: Wheel::new(),
            last_writer: [None; NUM_ARCH_REGS],
            branches: VecDeque::new(),
            slots: vec![Slot::default(); size],
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
    /// Every run goes through here. When `hooks` are
    /// [quiescent](PfmHooks::quiescent), cycles in which nothing can
    /// retire, complete, issue, dispatch or fetch are jumped over
    /// rather than ticked, with the same statistics, the same cycle at
    /// every return and the same cycle-limit and watchdog errors.
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
        let quiescent = hooks.quiescent();
        let mut last_retired = self.stats.retired;
        let mut last_commit_cycle = self.cycle;
        while !self.finished && self.stats.retired < max_instrs {
            // Only here, once the loop has decided to tick again: a
            // skip after the tick that reached the budget would charge
            // cycles no ticked leg spends.
            if quiescent {
                let watchdog_at =
                    commit_watchdog.map_or(u64::MAX, |wd| last_commit_cycle.saturating_add(wd));
                self.skip_idle(max_cycles.min(watchdog_at));
            }
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

    /// The first cycle after the current one in which a tick can do
    /// more than count stalls, assuming hooks that do nothing (see
    /// [`PfmHooks::quiescent`]); `u64::MAX` if none ever can.
    fn next_active_cycle(&self) -> u64 {
        let soon = self.cycle + 1;
        // Retire, a fabric load returns, or issue: lanes are free at
        // the top of every cycle, and a ready instruction is past its
        // `dispatch_ready` (see `issue`).
        if self
            .rob_head()
            .is_some_and(|d| d.state == InstState::Completed)
            || !self.fabric_loads.is_empty()
            || !self.ready.is_empty()
        {
            return soon;
        }
        let mut next = u64::MAX;
        // Dispatch, a cycle before the head is ready (see `dispatch`).
        if let Some(head) = self.front_head().filter(|h| self.can_dispatch(h)) {
            next = next.min(head.dispatch_ready.saturating_sub(1));
        }
        // Fetch.
        let record_waiting = self.fetch_seq() < self.machine.next_seq() || !self.machine.halted();
        if !(self.halt_fetched || self.finished)
            && self.fetch_blocked_on.is_none()
            && self.front_len() < front_cap(&self.config)
            && record_waiting
        {
            next = next.min(self.fetch_stall_until);
        }
        if next <= soon {
            return soon;
        }
        // Complete.
        let due = self.events.next_after(self.cycle).unwrap_or(u64::MAX);
        next.min(due).max(soon)
    }

    /// Jumps over the cycles before the next active one, up to cycle
    /// `limit`, charging exactly what ticking them would have: the
    /// cycles, fetch's redirect or I-cache stall, and idle lanes.
    /// Hooks that may skip cannot stall retire or fetch, so the other
    /// stall counters cannot grow.
    fn skip_idle(&mut self, limit: u64) {
        let to = (self.next_active_cycle() - 1).min(limit);
        if to <= self.cycle {
            return;
        }
        if !(self.halt_fetched || self.finished) {
            if self.fetch_blocked_on.is_some() {
                self.stats.fetch_redirect_stall_cycles += to - self.cycle;
            } else {
                self.stats.fetch_icache_stall_cycles += self
                    .fetch_stall_until
                    .min(to + 1)
                    .saturating_sub(self.cycle + 1);
            }
        }
        self.cycle = to;
        self.stats.cycles = to;
        self.lane_busy = [false; NUM_LANES];
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
            // The head is read in place and leaves the ROB after the
            // Retire Agent has seen it.
            if self.rob_len == 0 {
                break;
            }
            let seq = self.head;
            let inst = &self.ring[(seq & self.mask) as usize];
            if inst.state != InstState::Completed || inst.complete_cycle >= self.cycle {
                break;
            }

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
            if inst.step.wrote.is_some() {
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
                if self.branches.front().is_some_and(|b| b.seq == seq) {
                    self.bp
                        .train(inst.step.pc, inst.step.taken, &self.branches[0].prediction);
                    self.branches.pop_front();
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
            let halted = inst.step.halted;
            let directive = checked_hook!(self, hooks, "on_retire", hooks.on_retire(&info));
            self.head += 1;
            self.rob_len -= 1;
            self.win_len -= 1;

            if halted {
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

    /// The oldest instruction in the ROB.
    fn rob_head(&self) -> Option<&DynInst> {
        (self.rob_len > 0).then(|| self.inst(self.head))
    }

    /// The oldest instruction in the front-end pipe.
    fn front_head(&self) -> Option<&DynInst> {
        (self.win_len > self.rob_len).then(|| self.inst(self.head + self.rob_len as u64))
    }

    /// Instructions in the front-end pipe.
    fn front_len(&self) -> usize {
        self.win_len - self.rob_len
    }

    /// The seq fetch takes next.
    fn fetch_seq(&self) -> u64 {
        self.head + self.win_len as u64
    }

    /// Whether `seq` is in the ROB.
    fn in_rob(&self, seq: u64) -> bool {
        seq.wrapping_sub(self.head) < self.rob_len as u64
    }

    /// The record of `seq`, which must be executed and unretired.
    fn inst(&self, seq: u64) -> &DynInst {
        &self.ring[(seq & self.mask) as usize]
    }

    /// The ROB's records, oldest first.
    fn rob(&self) -> impl Iterator<Item = &DynInst> {
        (self.head..self.head + self.rob_len as u64).map(|seq| self.inst(seq))
    }

    /// Whether `seq` is in the ROB and has not completed.
    fn executing(&self, seq: u64) -> bool {
        self.in_rob(seq) && self.inst(seq).is_incomplete()
    }

    fn slot(&mut self, seq: u64) -> &mut Slot {
        &mut self.slots[(seq & self.mask) as usize]
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
    /// ROB order. Also checks the ring's invariants: it holds at most
    /// `rob_size + front_cap` records, each in its own slot.
    #[cfg(debug_assertions)]
    fn debug_check_ready(&self) {
        let next = self.machine.next_seq();
        let cap = self.config.rob_size + front_cap(&self.config);
        debug_assert!(next - self.head <= cap as u64, "ring over {cap} records");
        debug_assert!(
            (self.head..next).all(|seq| self.inst(seq).step.seq == seq),
            "a ring slot lost its record at cycle {}",
            self.cycle
        );
        let scan = self
            .rob()
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
        if let Some(loads) = self.fabric_loads.take(self.cycle) {
            for &(id, addr, size) in &loads {
                let value = self.machine.mem().read_committed(addr, size);
                checked_hook!(
                    self,
                    hooks,
                    "load_result",
                    hooks.load_result(id, FabricLoadResult::Hit { value }, self.cycle)
                );
            }
            self.fabric_loads.recycle(loads);
        }

        let Some(seqs) = self.events.take(self.cycle) else {
            return;
        };
        for &seq in &seqs {
            let i = (seq & self.mask) as usize;
            if !self.in_rob(seq)
                || self.ring[i].state != InstState::Issued
                || self.ring[i].complete_cycle != self.cycle
            {
                continue; // stale event from a squashed incarnation
            }
            self.ring[i].state = InstState::Completed;
            self.wake_dependents(seq);

            let is_store = self.ring[i].is_store();
            let mispredicted = self.ring[i].mispredicted || self.ring[i].target_mispredicted;

            if is_store {
                // Memory-disambiguation check: the oldest younger load
                // that already executed and overlaps this store's bytes
                // violated the dependence.
                // pfm-lint: allow(hygiene): stores always carry a memory range
                let range = self.ring[i].mem_range().expect("store range");
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
                // redirect fetch. The RAS needs no repair: fetch stopped
                // right after this instruction, so the RAS already holds
                // the correct path's state (a jump keeps its `ras_snap`
                // for a squash from an older instruction).
                let actual = self.ring[i].step.taken;
                let checkpoint = self
                    .branch_pos(seq)
                    .and_then(|i| self.branches[i].checkpoint.take());
                if let Some(cp) = checkpoint {
                    self.bp.recover(&cp, actual);
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
        self.events.recycle(seqs);
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
        let mut i = 0;
        while i < self.ready.len() && issued < self.config.issue_width {
            let seq = self.ready[i];
            let pos = (seq & self.mask) as usize;
            let d = &self.ring[pos];
            // Dispatch admits an instruction at most a cycle before its
            // `dispatch_ready`, and issue runs a cycle after dispatch.
            debug_assert!(d.dispatch_ready <= cycle, "{seq} issued early");
            let lane = Self::lane_for(d.info.class);
            let lane_idx = match lane {
                LaneClass::SimpleAlu => 0,
                LaneClass::LoadStore => 1,
                LaneClass::Complex => 2,
            };
            if lane_free[lane_idx] == 0 {
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

            let d = &mut self.ring[pos];
            d.state = InstState::Issued;
            d.issue_cycle = cycle;
            d.complete_cycle = complete_at;
            self.ready.remove(i);
            self.waiting_count -= 1;
            self.events.push(cycle, complete_at, seq);
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
                self.fabric_loads
                    .push(cycle, at, (req.id, req.addr, req.size));
            } else {
                checked_hook!(
                    self,
                    hooks,
                    "load_result",
                    hooks.load_result(req.id, FabricLoadResult::Miss { load: req }, cycle)
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Dispatch / rename
    // ------------------------------------------------------------------

    /// Whether the window has room for front-end instruction `head`:
    /// ROB, issue-queue, load/store-queue and physical-register limits.
    fn can_dispatch(&self, head: &DynInst) -> bool {
        self.rob_len < self.config.rob_size
            && self.iq_count < self.config.iq_size
            && !(head.is_load() && self.loads.len() >= self.config.ldq_size)
            && !(head.is_store() && self.stores.len() >= self.config.stq_size)
            && !(head.step.wrote.is_some() && self.dest_count >= self.config.rename_regs())
    }

    fn dispatch(&mut self) {
        for _ in 0..self.config.dispatch_width {
            let Some(head) = self.front_head() else {
                break;
            };
            // Still flowing through the front-end pipe (it may enter
            // the window the cycle before it becomes ready), or no room.
            if head.dispatch_ready > self.cycle + 1 || !self.can_dispatch(head) {
                break;
            }
            // Entering the ROB is moving the boundary past it.
            let seq = self.head + self.rob_len as u64;
            let d = &mut self.ring[(seq & self.mask) as usize];
            // Rename: source producers from the last-writer map.
            for (i, src) in d.info.srcs.iter().enumerate() {
                d.srcs[i] = src
                    .filter(|r| !r.is_zero())
                    .and_then(|r| self.last_writer[r.index()]);
            }
            if let Some((reg, _)) = d.step.wrote {
                self.last_writer[reg.index()] = Some(seq);
                self.dest_count += 1;
            }
            if d.is_load() {
                self.loads.push_back(seq);
            }
            if d.is_store() {
                self.stores.push_back(seq);
            }
            d.state = InstState::Waiting;
            let srcs = d.srcs;
            self.rob_len += 1;
            self.iq_count += 1;
            self.waiting_count += 1;
            self.register_waiting(seq, srcs);
        }
        // IQ entries free at issue; approximate by counting Waiting.
        // `waiting_count` tracks that exactly, so the refresh is O(1).
        debug_assert_eq!(
            self.waiting_count,
            self.rob().filter(|d| d.state == InstState::Waiting).count()
        );
        self.iq_count = self.waiting_count;
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

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
        let front_cap = front_cap(&self.config);
        for _ in 0..self.config.fetch_width {
            if self.front_len() >= front_cap {
                break;
            }
            // The next record is already in its slot, or the machine
            // executes it there now.
            let seq = self.fetch_seq();
            if seq == self.machine.next_seq() {
                if self.machine.halted() {
                    break;
                }
                self.execute_into_ring()?;
            }
            let i = (seq & self.mask) as usize;
            let (pc, is_cond_branch) = (self.ring[i].step.pc, self.ring[i].info.is_cond_branch);

            // I-cache: charge a stall when crossing into a missing line.
            let pc_line = line_of(pc);
            if pc_line != self.last_fetch_line {
                let outcome = self.hierarchy.access(pc, AccessKind::Ifetch, self.cycle);
                self.last_fetch_line = pc_line;
                if outcome.level != HitLevel::L1 {
                    self.fetch_stall_until = self.cycle + outcome.latency;
                    break;
                }
            }

            // Fetch Agent.
            let over = checked_hook!(
                self,
                hooks,
                "fetch_inst",
                hooks.fetch_inst(seq, pc, is_cond_branch)
            );
            if over == FetchOverride::Stall {
                self.stats.fetch_fabric_stall_cycles += 1;
                break;
            }

            let d = &mut self.ring[i];
            d.refetch(self.cycle + self.config.front_depth);
            let (taken, next_pc, halted) = (d.step.taken, d.step.next_pc, d.step.halted);
            if is_cond_branch {
                let cp = self.bp.checkpoint();
                let pred = self.bp.predict(pc, taken);
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
                d.mispredicted = used != taken;
                debug_assert!(self.branches.back().is_none_or(|b| b.seq < seq));
                self.branches.push_back(BranchEntry {
                    seq,
                    prediction: pred,
                    checkpoint: Some(cp),
                });
            } else if d.info.is_control {
                // jal/jalr: direction always taken; model RAS for
                // returns and BTB for other indirect targets.
                d.pred_taken = true;
                match d.step.inst {
                    Inst::Jal { rd, .. } if rd == pfm_isa::Reg::RA => {
                        d.ras_snap = Some(self.ras.snapshot());
                        self.ras.push(pc + 4);
                    }
                    Inst::Jalr { rd, base, .. } => {
                        d.ras_snap = Some(self.ras.snapshot());
                        if rd == pfm_isa::Reg::X0 && base == pfm_isa::Reg::RA {
                            let predicted = self.ras.pop();
                            d.target_mispredicted = predicted != Some(next_pc);
                        } else {
                            let predicted = self.btb.lookup(pc).map(|(t, _)| t);
                            d.target_mispredicted = predicted != Some(next_pc);
                            if rd == pfm_isa::Reg::RA {
                                self.ras.push(pc + 4);
                            }
                        }
                    }
                    _ => {}
                }
            }

            let blocked = d.mispredicted || d.target_mispredicted;
            let ends_bundle = (d.info.is_control && (d.pred_taken || taken)) || halted || blocked;
            self.win_len += 1;
            self.halt_fetched = halted;
            self.fetch_blocked_on = blocked.then_some(seq);
            if ends_bundle {
                break;
            }
        }
        Ok(())
    }

    /// Executes the machine's next instruction into its ring slot.
    fn execute_into_ring(&mut self) -> Result<(), ExecError> {
        let step = self.machine.step()?;
        let info = step.inst.info();
        let i = (step.seq & self.mask) as usize;
        if let Some(d) = self.ring.get_mut(i) {
            d.step = step;
            d.info = info;
        } else {
            // The first lap (and, for a machine that starts mid-ring,
            // the slots below its first seq, which hold no record).
            let d = DynInst {
                step,
                info,
                state: InstState::InFront,
                dispatch_ready: 0,
                srcs: [None, None],
                issue_cycle: 0,
                complete_cycle: 0,
                pred_taken: false,
                mispredicted: false,
                target_mispredicted: false,
                from_fabric: false,
                ras_snap: None,
            };
            self.ring
                .reserve_exact(self.mask as usize + 1 - self.ring.len());
            self.ring.resize(i + 1, d);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Rolls all timing state for instructions with `seq >= boundary`
    /// back to fetch, which takes their records again from their slots.
    fn squash_from(&mut self, boundary: u64, kind: SquashKind, hooks: &mut dyn PfmHooks) {
        // Everything from `cut` on (the ROB's squashed tail and the
        // whole front-end pipe) is squashed; no record moves.
        let cut = boundary.saturating_sub(self.head).min(self.rob_len as u64) as usize;
        let first_branch = self.branches.partition_point(|b| b.seq < boundary);

        // Repair predictor/RAS speculative state from the oldest
        // squashed control instruction: a conditional branch's
        // checkpoint or a jump's RAS snapshot, whichever is older.
        let cp = (self.branches.range(first_branch..))
            .find_map(|b| b.checkpoint.as_ref().map(|cp| (b.seq, cp)));
        let ras = (self.head + cut as u64..self.fetch_seq())
            .find_map(|seq| self.inst(seq).ras_snap.map(|snap| (seq, snap)));
        match (cp, ras) {
            (Some((seq, cp)), ras) if ras.is_none_or(|(r, _)| seq < r) => self.bp.restore(cp),
            (_, Some((_, snap))) => self.ras.restore(snap),
            _ => {}
        }
        self.branches.truncate(first_branch);

        // A fetched halt is the youngest record fetched, so any squash
        // that cuts the window squashes it.
        if cut < self.win_len {
            self.halt_fetched = false;
        }
        self.rob_len = cut;
        self.win_len = cut;

        // The seq-ordered lists drop their squashed tails.
        let older = |s: &u64| *s < boundary;
        self.loads.truncate(self.loads.partition_point(older));
        self.stores.truncate(self.stores.partition_point(older));
        self.ready.truncate(self.ready.partition_point(older));

        // Bookkeeping rebuilds over the surviving ROB (single pass),
        // including pruning squashed consumers from the wakeup lists of
        // producers that are still executing.
        self.last_writer = [None; NUM_ARCH_REGS];
        self.dest_count = 0;
        self.waiting_count = 0;
        for seq in self.head..self.head + cut as u64 {
            let d = &self.ring[(seq & self.mask) as usize];
            if let Some((reg, _)) = d.step.wrote {
                self.last_writer[reg.index()] = Some(seq);
            }
            self.dest_count += usize::from(d.step.wrote.is_some());
            self.waiting_count += usize::from(d.state == InstState::Waiting);
            if d.is_incomplete() {
                let deps = &mut self.slots[(seq & self.mask) as usize].dependents;
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

/// Instructions the front-end pipe holds.
fn front_cap(config: &CoreConfig) -> usize {
    config.fetch_width * (config.front_depth as usize + 1)
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
    fn indirect_calls_keep_their_return_address_when_the_target_mispredicts() {
        // 2,000 `jalr ra, a1` calls alternating between two leaf
        // functions: the BTB holds the other leaf every time, so every
        // call mispredicts its target. Resolving that mispredict must
        // not undo the call's RAS push, or each return mispredicts too.
        let core = run_asm(
            |a| {
                let (main, top) = (a.label(), a.label());
                a.j(main);
                let leaf0 = a.here();
                a.addi(S0, S0, 1);
                a.ret();
                let leaf1 = a.here();
                a.addi(S1, S1, 1);
                a.ret();
                a.bind(main).unwrap();
                a.li(A1, leaf0 as i64);
                a.li(A2, (leaf0 ^ leaf1) as i64);
                a.li(T0, 2000);
                a.bind(top).unwrap();
                a.jalr(RA, A1, 0);
                a.xor(A1, A1, A2);
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            CoreConfig::micro21(),
        );
        assert_eq!(
            (core.machine().reg(S0), core.machine().reg(S1)),
            (1000, 1000)
        );
        assert_eq!(core.stats().target_mispredicts, 2000);
    }

    /// No-op hooks that keep the default `quiescent() == false`, so the
    /// core ticks every cycle: the reference for idle skipping.
    struct Ticking;
    impl PfmHooks for Ticking {}

    /// A serialized pointer chase over a shuffled ring of 4,096 nodes,
    /// one page plus one line apart (about 17 MB, past the 8 MB L3),
    /// branching on bit 6 of each loaded pointer: fetch spends most
    /// cycles blocked on a mispredict behind a DRAM load.
    fn dram_chase() -> (pfm_isa::Program, SpecMemory) {
        const NODES: usize = 4096;
        const STRIDE: u64 = 4096 + 64;
        const BASE: u64 = 0x100_0000;
        let mut order: Vec<u64> = (0..NODES as u64).collect();
        let mut x = 7u64;
        for i in (1..NODES).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (x >> 33) as usize % (i + 1));
        }
        let mut mem = SpecMemory::new();
        for (i, &node) in order.iter().enumerate() {
            let next = order[(i + 1) % NODES];
            mem.committed_mut()
                .write(BASE + node * STRIDE, 8, BASE + next * STRIDE);
        }
        let mut a = Asm::new(0x1000);
        let (top, skip) = (a.label(), a.label());
        a.li(A0, (BASE + order[0] * STRIDE) as i64);
        a.li(T0, 1_000_000);
        a.bind(top).unwrap();
        a.ld(A0, A0, 0);
        a.andi(T1, A0, 64);
        a.beq(T1, X0, skip);
        a.addi(S0, S0, 1);
        a.bind(skip).unwrap();
        a.addi(T0, T0, -1);
        a.bne(T0, X0, top);
        a.halt();
        (a.finish().unwrap(), mem)
    }

    /// Idle skipping charges exactly what ticking would, and never runs
    /// past a budget: at every budget, and at every cycle cap, a
    /// quiescent run ends at the same cycle, with the same outcome and
    /// statistics, as one that ticks every cycle.
    #[test]
    fn idle_skip_matches_ticking_at_every_budget() {
        let (program, mem) = dram_chase();
        let run = |hooks: &mut dyn PfmHooks, budget: u64, max_cycles: u64| {
            let machine = Machine::new(program.clone(), mem.clone());
            let hier = Hierarchy::new(HierarchyConfig::micro21());
            let mut core = Core::new(CoreConfig::micro21(), machine, hier);
            let outcome = core
                .run(hooks, budget, max_cycles)
                .map_err(|e| e.to_string());
            (outcome, core.cycle(), core.stats().clone())
        };
        for budget in 1..=150 {
            let skipped = run(&mut NoPfm, budget, 10_000_000);
            assert_eq!(
                skipped,
                run(&mut Ticking, budget, 10_000_000),
                "budget {budget}"
            );
            assert!(skipped.0.is_ok(), "budget {budget}: {:?}", skipped.0);
        }
        let (_, _, stats) = run(&mut NoPfm, 150, 10_000_000);
        assert!(
            stats.fetch_redirect_stall_cycles * 10 > stats.cycles * 9,
            "the kernel should idle behind mispredicts: {stats:?}"
        );
        for max_cycles in (0..4_000).step_by(131) {
            let skipped = run(&mut NoPfm, u64::MAX, max_cycles);
            assert_eq!(
                skipped,
                run(&mut Ticking, u64::MAX, max_cycles),
                "cap {max_cycles}"
            );
        }
    }

    #[test]
    fn wheel_keeps_push_order_within_a_cycle() {
        let mut w = Wheel::new();
        for (at, item) in [(5, 'a'), (3, 'x'), (5, 'b'), (5, 'c')] {
            w.push(0, at, item);
        }
        assert_eq!(w.next_after(0), Some(3));
        assert_eq!(w.take(3), Some(vec!['x']));
        assert_eq!(w.take(4), None);
        assert_eq!(w.next_after(4), Some(5));
        assert_eq!(w.take(5), Some(vec!['a', 'b', 'c']));
        assert!(w.is_empty());
        assert_eq!(w.next_after(5), None);
    }

    #[test]
    fn wheel_growth_keeps_each_events_cycle_and_order() {
        let mut w = Wheel::new();
        let now = 700;
        let pushes = [
            (100, 'a'),
            (1_000, 'b'),
            (100, 'c'),
            (5_000, 'd'),
            (1_000, 'e'),
        ];
        for (dt, item) in pushes {
            w.push(now, now + dt, item);
        }
        assert_eq!(
            w.buckets.len(),
            8192,
            "grew to the next power of two past 5,000"
        );
        let mut drained = Vec::new();
        let mut t = now;
        while let Some(at) = w.next_after(t) {
            drained.push((at - now, w.take(at).unwrap()));
            t = at;
        }
        assert_eq!(
            drained,
            [
                (100, vec!['a', 'c']),
                (1_000, vec!['b', 'e']),
                (5_000, vec!['d'])
            ]
        );
    }

    #[test]
    fn wheel_next_after_wraps_around_the_ring() {
        let mut w = Wheel::new();
        // Past the last bucket into the first word.
        w.push(500, 520, 1);
        assert_eq!(w.next_after(500), Some(520));
        assert_eq!(w.take(520), Some(vec![1]));
        // All the way round to the start word's bits below the start.
        w.push(69, 577, 2);
        assert_eq!(w.next_after(69), Some(577));
    }

    /// Rename stalls once the physical registers beyond the
    /// architectural state are all allocated.
    #[test]
    fn rename_stalls_when_physical_registers_run_out() {
        let regs = [T0, T1, T2, T3, T4, T5, T6, S1];
        let mut a = Asm::new(0x1000);
        for i in 0..64 {
            a.li(regs[i % regs.len()], i as i64);
        }
        a.halt();
        let mut cfg = CoreConfig::micro21();
        cfg.prf_size = 64 + 4;
        let machine = Machine::new(a.finish().unwrap(), SpecMemory::new());
        let hier = Hierarchy::new(HierarchyConfig::micro21());
        let mut core = Core::new(cfg, machine, hier);
        let mut peak = 0;
        while !core.finished() {
            core.tick(&mut NoPfm).unwrap();
            peak = peak.max(core.dest_count);
            assert!(core.cycle() < 100_000, "deadlocked");
        }
        assert_eq!(core.stats().retired, 65);
        assert_eq!(peak, 4, "at most 4 renamed destinations in flight");
    }

    #[test]
    fn window_entries_stay_small() {
        // Predictor state lives in the branch queue, not in every
        // ring entry.
        assert!(std::mem::size_of::<DynInst>() <= 256);
    }

    #[test]
    fn branch_entries_stay_small() {
        // Fetch writes one per conditional branch: a 64-byte
        // prediction and an 80-byte checkpoint.
        assert!(std::mem::size_of::<BranchEntry>() <= 168);
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
