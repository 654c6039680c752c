//! The custom-component interface: what an RF-synthesized
//! microarchitectural component sees each RF cycle.

use crate::faults::FaultStats;
use crate::packets::{FabricLoad, LoadResponse, ObsPacket, PredPacket};
use std::collections::VecDeque;

/// Per-RF-cycle I/O window offered to a [`CustomComponent`].
///
/// Enforces the paper's width parameter W: at most W pops from each
/// observation queue and at most W pushes into each intervention queue
/// per RF cycle, and respects the intervention queues' remaining
/// capacity (back-pressure).
pub struct FabricIo<'a> {
    width: usize,
    rf_cycle: u64,
    obs_q: &'a mut VecDeque<ObsPacket>,
    obs_ex: &'a mut VecDeque<LoadResponse>,
    pred_out: &'a mut Vec<PredPacket>,
    load_out: &'a mut Vec<FabricLoad>,
    pred_space: usize,
    load_space: usize,
    obs_popped: usize,
    resp_popped: usize,
    preds_pushed: usize,
    loads_pushed: usize,
}

impl<'a> FabricIo<'a> {
    /// Builds an I/O window over raw queues. The fabric constructs one
    /// per RF tick; it is public so components can be unit-tested and
    /// driven by standalone harnesses.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        width: usize,
        rf_cycle: u64,
        obs_q: &'a mut VecDeque<ObsPacket>,
        obs_ex: &'a mut VecDeque<LoadResponse>,
        pred_out: &'a mut Vec<PredPacket>,
        load_out: &'a mut Vec<FabricLoad>,
        pred_space: usize,
        load_space: usize,
    ) -> FabricIo<'a> {
        FabricIo {
            width,
            rf_cycle,
            obs_q,
            obs_ex,
            pred_out,
            load_out,
            pred_space,
            load_space,
            obs_popped: 0,
            resp_popped: 0,
            preds_pushed: 0,
            loads_pushed: 0,
        }
    }

    /// Current RF-domain cycle number.
    pub fn rf_cycle(&self) -> u64 {
        self.rf_cycle
    }

    /// The component's width W.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Pops the next observation packet (ObsQ-R), if within this
    /// cycle's budget. Squash packets are intercepted by the fabric and
    /// never appear here.
    pub fn pop_obs(&mut self) -> Option<ObsPacket> {
        if self.obs_popped >= self.width {
            return None;
        }
        if matches!(self.obs_q.front(), Some(ObsPacket::Squash)) {
            return None; // handled by the fabric's squash protocol
        }
        let p = self.obs_q.pop_front()?;
        self.obs_popped += 1;
        Some(p)
    }

    /// Peeks the next observation packet without consuming budget.
    pub fn peek_obs(&self) -> Option<&ObsPacket> {
        match self.obs_q.front() {
            Some(ObsPacket::Squash) => None,
            other => other,
        }
    }

    /// Pops the next returned load value (ObsQ-EX), if within budget.
    pub fn pop_load_resp(&mut self) -> Option<LoadResponse> {
        if self.resp_popped >= self.width {
            return None;
        }
        let p = self.obs_ex.pop_front()?;
        self.resp_popped += 1;
        Some(p)
    }

    /// Whether a prediction can be pushed this cycle (budget and
    /// IntQ-F space).
    pub fn can_push_pred(&self) -> bool {
        self.preds_pushed < self.width && self.preds_pushed < self.pred_space
    }

    /// Pushes a custom branch prediction toward IntQ-F (it arrives
    /// after the component's pipeline delay D). Returns `false` if the
    /// budget or queue space is exhausted.
    pub fn push_pred(&mut self, pred: PredPacket) -> bool {
        if !self.can_push_pred() {
            return false;
        }
        self.pred_out.push(pred);
        self.preds_pushed += 1;
        true
    }

    /// Whether a load/prefetch can be pushed this cycle (budget and
    /// IntQ-IS space).
    pub fn can_push_load(&self) -> bool {
        self.loads_pushed < self.width && self.loads_pushed < self.load_space
    }

    /// How many more loads/prefetches can be pushed this cycle (the
    /// lbm-style MLP-aware prefetcher pushes delinquent-load clusters
    /// only as complete sets).
    pub fn load_budget(&self) -> usize {
        self.width
            .min(self.load_space)
            .saturating_sub(self.loads_pushed)
    }

    /// Remaining IntQ-IS space irrespective of this cycle's width
    /// budget (a multi-cycle cluster push checks space once, up
    /// front).
    pub fn load_queue_space(&self) -> usize {
        self.load_space.saturating_sub(self.loads_pushed)
    }

    /// Pushes a load or prefetch toward IntQ-IS (arrives after delay
    /// D). Returns `false` if the budget or queue space is exhausted.
    pub fn push_load(&mut self, load: FabricLoad) -> bool {
        if !self.can_push_load() {
            return false;
        }
        self.load_out.push(load);
        self.loads_pushed += 1;
        true
    }
}

/// What kind of instruction a component expects at a PC it watches.
///
/// A component's configuration names specific PCs in the retired
/// stream (branch PCs a predictor covers, the load a prefetcher
/// shadows, values an agent snoops). Each such PC carries an implicit
/// contract with the assembled kernel — `pfm-analyze` checks the
/// contract statically via [`CustomComponent::watchlist`]:
///
/// * [`WatchKind::CondBranch`] — must decode to a conditional branch.
/// * [`WatchKind::LoopBranch`] — a conditional branch that controls a
///   natural loop (it is the back-edge, or it exits the loop body).
/// * [`WatchKind::Load`] — must decode to a load (integer or FP).
/// * [`WatchKind::Store`] — must decode to a store (integer or FP).
/// * [`WatchKind::DestValue`] — must decode to an instruction with a
///   destination register (there is a value to snoop at retire).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WatchKind {
    /// A conditional branch the component predicts or observes.
    CondBranch,
    /// A conditional branch controlling a natural loop.
    LoopBranch,
    /// A load instruction (prefetch target).
    Load,
    /// A store instruction whose value is observed.
    Store,
    /// Any instruction with a destination register whose value is
    /// observed at retire.
    DestValue,
}

impl core::fmt::Display for WatchKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            WatchKind::CondBranch => "cond-branch",
            WatchKind::LoopBranch => "loop-branch",
            WatchKind::Load => "load",
            WatchKind::Store => "store",
            WatchKind::DestValue => "dest-value",
        };
        f.write_str(s)
    }
}

/// An application-specific microarchitectural component synthesized to
/// the reconfigurable fabric.
///
/// The fabric calls [`CustomComponent::tick`] once per RF cycle
/// (every C core cycles) with a width-W I/O window, and
/// [`CustomComponent::on_squash`] when a squash packet reaches the
/// component (the Fetch Agent replays already-delivered predictions
/// itself, so most components only need to reset transient state here).
pub trait CustomComponent {
    /// One RF clock cycle.
    fn tick(&mut self, io: &mut FabricIo<'_>);

    /// A pipeline squash packet arrived: realign internal speculative
    /// state with the core.
    fn on_squash(&mut self) {}

    /// The fabric is about to evict this component (runtime swap or
    /// unload): its remaining in-flight packets will be dropped
    /// deterministically, so discard any transient state that assumed
    /// they would be delivered. Called exactly once, before the
    /// replacement component is installed.
    fn on_drain(&mut self) {}

    /// The partial-reconfiguration load bringing this component in was
    /// aborted and is restarting from scratch: reset any state
    /// initialized so far. Only reachable under the `swap-abort` fault
    /// scenario.
    fn on_swap_abort(&mut self) {}

    /// Short name for statistics output.
    fn name(&self) -> &'static str;

    /// One-line internal-state dump for stall debugging.
    fn debug_state(&self) -> String {
        String::new()
    }

    /// Injected-fault counters, if this component is a chaos-harness
    /// wrapper (see [`crate::faults::FaultyComponent`]). Real
    /// components inject no faults and report `None`.
    fn fault_stats(&self) -> Option<FaultStats> {
        None
    }

    /// Every PC this component's configuration watches, with the
    /// instruction kind the PC is assumed to name. `pfm-analyze`
    /// cross-checks each entry against the assembled kernel; a config
    /// edit or kernel edit that breaks the assumption becomes a finding
    /// instead of a silently dead use case. Components with no PC
    /// assumptions (or none worth checking) return an empty list.
    fn watchlist(&self) -> Vec<(u64, WatchKind)> {
        Vec::new()
    }

    /// Serialized dynamic state of the component; `None` by default.
    /// Nothing in `crates/` calls it: a run restores only the
    /// architectural `Machine` snapshot and starts its fabric cold. It
    /// stays a default method because the benchmark's tracing wrapper
    /// (`benchmark/src/trace.rs`) forwards it.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Counterpart of [`CustomComponent::snapshot_state`]; refuses any
    /// bytes (`false`) by default. Nothing in `crates/` calls it either.
    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let _ = bytes;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_enforces_width_budget() {
        let mut obs: VecDeque<ObsPacket> = (0..10)
            .map(|i| ObsPacket::DestValue { pc: i, value: i })
            .collect();
        let mut resp: VecDeque<LoadResponse> = VecDeque::new();
        let mut preds = Vec::new();
        let mut loads = Vec::new();
        let mut io = FabricIo::new(2, 0, &mut obs, &mut resp, &mut preds, &mut loads, 100, 100);
        assert!(io.pop_obs().is_some());
        assert!(io.pop_obs().is_some());
        assert!(io.pop_obs().is_none(), "width budget exhausted");
        assert!(io.push_pred(PredPacket { pc: 1, taken: true }));
        assert!(io.push_pred(PredPacket {
            pc: 2,
            taken: false
        }));
        assert!(!io.push_pred(PredPacket { pc: 3, taken: true }));
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn io_respects_queue_space() {
        let mut obs = VecDeque::new();
        let mut resp = VecDeque::new();
        let mut preds = Vec::new();
        let mut loads = Vec::new();
        let mut io = FabricIo::new(4, 0, &mut obs, &mut resp, &mut preds, &mut loads, 1, 0);
        assert!(io.push_pred(PredPacket { pc: 1, taken: true }));
        assert!(!io.can_push_pred(), "IntQ-F space exhausted");
        assert!(!io.can_push_load(), "IntQ-IS full from the start");
        assert!(!io.push_load(FabricLoad {
            id: 0,
            addr: 0,
            size: 8,
            is_prefetch: false
        }));
    }

    #[test]
    fn squash_packet_is_invisible_to_component() {
        let mut obs: VecDeque<ObsPacket> = VecDeque::from([ObsPacket::Squash, ObsPacket::BeginRoi]);
        let mut resp = VecDeque::new();
        let mut preds = Vec::new();
        let mut loads = Vec::new();
        let mut io = FabricIo::new(4, 0, &mut obs, &mut resp, &mut preds, &mut loads, 4, 4);
        assert!(io.peek_obs().is_none());
        assert!(io.pop_obs().is_none());
        assert_eq!(obs.len(), 2, "squash stays for the fabric to handle");
    }
}
