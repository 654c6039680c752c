//! Per-layer timing for the traced run, taken from outside each layer
//! at a public boundary: timers around the fabric's hooks and the
//! custom component's tick, and standalone replays of a workload's
//! committed stream through the ISA, the memory hierarchy and the
//! branch predictor.

use crate::host_clock;
use pfm_bpred::{Predictor, PredictorKind};
use pfm_core::{
    FabricLoad, FabricLoadResult, FetchOverride, PfmHooks, RetireDirective, RetireInfo, SquashKind,
    NUM_LANES,
};
use pfm_fabric::{CustomComponent, FabricIo, FaultStats, WatchKind};
use pfm_isa::Machine;
use pfm_mem::cache::line_of;
use pfm_mem::{AccessKind, Hierarchy, HierarchyConfig};
use pfm_workloads::UseCase;
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// A hook whose per-call cost is reported on its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hook {
    /// `PfmHooks::begin_cycle` (every core cycle; runs the RF tick).
    BeginCycle,
    /// `PfmHooks::fetch_inst` (every fetched instruction).
    FetchInst,
    /// `PfmHooks::on_retire` (every retired instruction).
    OnRetire,
    /// `PfmHooks::pop_load` (every free load/store issue slot).
    PopLoad,
    /// Every other hook.
    Other,
}

const HOOKS: usize = 5;

/// Calls and nanoseconds per [`Hook`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HookTimes {
    /// Calls, indexed by `Hook as usize`.
    pub calls: [u64; HOOKS],
    /// Nanoseconds inside the hook, indexed by `Hook as usize`.
    pub nanos: [u64; HOOKS],
}

impl HookTimes {
    /// Nanoseconds inside all hooks.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Adds `other`'s counts into `self`.
    pub fn add(&mut self, other: &HookTimes) {
        for i in 0..HOOKS {
            self.calls[i] += other.calls[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    /// Mean nanoseconds per call of `hook` (0 when never called).
    pub fn mean_ns(&self, hook: Hook) -> f64 {
        crate::ratio(
            self.nanos[hook as usize] as f64,
            self.calls[hook as usize] as f64,
        )
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Forwards every [`PfmHooks`] method to `inner`, timing each call.
#[derive(Debug)]
pub struct TimedHooks<H> {
    inner: H,
    times: HookTimes,
}

impl<H: PfmHooks> TimedHooks<H> {
    /// Wraps `inner`.
    pub fn new(inner: H) -> TimedHooks<H> {
        TimedHooks {
            inner,
            times: HookTimes::default(),
        }
    }

    /// The wrapped hooks and the timings collected.
    pub fn into_parts(self) -> (H, HookTimes) {
        (self.inner, self.times)
    }

    fn timed<R>(&mut self, hook: Hook, f: impl FnOnce(&mut H) -> R) -> R {
        let t = host_clock();
        let r = f(&mut self.inner);
        self.times.calls[hook as usize] += 1;
        self.times.nanos[hook as usize] += elapsed_ns(t);
        r
    }
}

impl<H: PfmHooks> PfmHooks for TimedHooks<H> {
    fn begin_cycle(&mut self, cycle: u64, lane_busy: [bool; NUM_LANES]) {
        self.timed(Hook::BeginCycle, |h| h.begin_cycle(cycle, lane_busy));
    }

    fn end_cycle(&mut self, cycle: u64) {
        self.timed(Hook::Other, |h| h.end_cycle(cycle));
    }

    fn fetch_inst(&mut self, seq: u64, pc: u64, is_cond_branch: bool) -> FetchOverride {
        self.timed(Hook::FetchInst, |h| h.fetch_inst(seq, pc, is_cond_branch))
    }

    fn on_retire(&mut self, info: &RetireInfo<'_>) -> RetireDirective {
        self.timed(Hook::OnRetire, |h| h.on_retire(info))
    }

    fn retire_stalled(&mut self) -> bool {
        self.timed(Hook::Other, |h| h.retire_stalled())
    }

    fn on_squash(&mut self, kind: SquashKind, boundary: u64, cycle: u64) {
        self.timed(Hook::Other, |h| h.on_squash(kind, boundary, cycle));
    }

    fn pop_load(&mut self) -> Option<FabricLoad> {
        self.timed(Hook::PopLoad, |h| h.pop_load())
    }

    fn load_result(&mut self, id: u64, result: FabricLoadResult, cycle: u64) {
        self.timed(Hook::Other, |h| h.load_result(id, result, cycle));
    }

    fn debug_inject_arch_fault(&mut self, machine: &mut Machine) {
        self.inner.debug_inject_arch_fault(machine);
    }
}

/// Component ticks and nanoseconds, shared between a
/// [`TimedComponent`] (owned by the fabric) and the caller.
#[derive(Clone, Debug, Default)]
pub struct TickTimes(Rc<Cell<(u64, u64)>>);

impl TickTimes {
    /// `(ticks, nanoseconds)` so far.
    pub fn get(&self) -> (u64, u64) {
        self.0.get()
    }
}

/// Forwards every [`CustomComponent`] method to `inner`, timing
/// `tick`.
pub struct TimedComponent {
    inner: Box<dyn CustomComponent>,
    times: TickTimes,
}

impl TimedComponent {
    /// Wraps `inner`, accumulating into `times`.
    pub fn new(inner: Box<dyn CustomComponent>, times: TickTimes) -> TimedComponent {
        TimedComponent { inner, times }
    }
}

impl CustomComponent for TimedComponent {
    fn tick(&mut self, io: &mut FabricIo<'_>) {
        // Called through the trait's function item rather than
        // `.tick(..)`: pfm-lint links calls by name, and from a file
        // outside `crates/` a method call here would alias `Core::tick`
        // and report a false arch-mutation path from every component
        // that wraps another.
        let tick = <dyn CustomComponent>::tick;
        let t = host_clock();
        tick(self.inner.as_mut(), io);
        let (n, ns) = self.times.0.get();
        self.times.0.set((n + 1, ns + elapsed_ns(t)));
    }

    fn on_squash(&mut self) {
        self.inner.on_squash();
    }

    fn on_drain(&mut self) {
        self.inner.on_drain();
    }

    fn on_swap_abort(&mut self) {
        self.inner.on_swap_abort();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn debug_state(&self) -> String {
        self.inner.debug_state()
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        self.inner.fault_stats()
    }

    fn watchlist(&self) -> Vec<(u64, WatchKind)> {
        self.inner.watchlist()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.restore_state(bytes)
    }
}

/// Host cost of one input's committed stream replayed through the
/// ISA, the memory hierarchy and the branch predictor in isolation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    /// Instructions stepped.
    pub steps: u64,
    /// Nanoseconds in `Machine::step` (plus store commits).
    pub step_ns: u64,
    /// Hierarchy accesses replayed (loads, stores, new ifetch lines).
    pub accesses: u64,
    /// Nanoseconds in `Hierarchy::access`.
    pub access_ns: u64,
    /// Conditional branches replayed.
    pub branches: u64,
    /// Nanoseconds in TAGE-SC-L predict + train.
    pub branch_ns: u64,
    /// Branches TAGE-SC-L predicted correctly.
    pub correct: u64,
}

impl Replay {
    /// Adds `other`'s counts into `self`.
    pub fn add(&mut self, other: &Replay) {
        self.steps += other.steps;
        self.step_ns += other.step_ns;
        self.accesses += other.accesses;
        self.access_ns += other.access_ns;
        self.branches += other.branches;
        self.branch_ns += other.branch_ns;
        self.correct += other.correct;
    }
}

/// Steps `uc` for `budget` instructions on a fresh [`Machine`],
/// committing each store at once as the core does at retirement, then
/// replays the recorded accesses into a fresh hierarchy (cycle =
/// instruction index) and the conditional branches into a fresh
/// TAGE-SC-L. Returns the timings and the machine's final
/// architectural checksum, which must equal `FastExec`'s at the same
/// budget.
///
/// # Errors
/// The machine's error, as text.
pub fn replay(uc: &UseCase, budget: u64, hier: &HierarchyConfig) -> Result<(Replay, u64), String> {
    let mut r = Replay::default();

    // Timed pass: stepping and committing only.
    let mut m = uc.machine();
    let t = host_clock();
    while r.steps < budget && !m.halted() {
        let out = m.step().map_err(|e| e.to_string())?;
        if out.mem.is_some_and(|a| a.is_store) {
            m.mem_mut().commit_store(out.seq);
        }
        black_box(&out);
        r.steps += 1;
    }
    r.step_ns = elapsed_ns(t);
    let arch = m.arch_checksum();

    // Untimed pass: record what the other layers replay.
    let mut m = uc.machine();
    let mut accesses = Vec::new();
    let mut branches = Vec::new();
    let mut last_line = u64::MAX;
    for i in 0..r.steps {
        let out = m.step().map_err(|e| e.to_string())?;
        if line_of(out.pc) != last_line {
            last_line = line_of(out.pc);
            accesses.push((out.pc, AccessKind::Ifetch, i));
        }
        if let Some(a) = out.mem {
            if a.is_store {
                m.mem_mut().commit_store(out.seq);
                accesses.push((a.addr, AccessKind::Store, i));
            } else {
                accesses.push((a.addr, AccessKind::Load, i));
            }
        }
        if out.inst.info().is_cond_branch {
            branches.push((out.pc, out.taken));
        }
    }

    let mut h = Hierarchy::new(hier.clone());
    let t = host_clock();
    for &(addr, kind, cycle) in &accesses {
        black_box(h.access(addr, kind, cycle));
    }
    r.access_ns = elapsed_ns(t);
    r.accesses = accesses.len() as u64;

    let mut bp = Predictor::new(PredictorKind::TageScl);
    let t = host_clock();
    for &(pc, taken) in &branches {
        let cp = bp.checkpoint();
        let pred = bp.predict(pc, taken);
        if pred.taken() == taken {
            r.correct += 1;
        } else {
            bp.recover(&cp, taken);
        }
        bp.train(pc, taken, &pred);
    }
    r.branch_ns = elapsed_ns(t);
    r.branches = branches.len() as u64;
    Ok((r, arch))
}
