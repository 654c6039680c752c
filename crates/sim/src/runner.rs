//! Single-run driver: wires a [`UseCase`] into the core, optionally
//! attaches the PFM fabric (or its chaos-harness fault injector), runs
//! under a forward-progress watchdog, and collects every statistic the
//! experiments need — including the committed architectural checksum
//! the chaos family compares against fault-free runs.

use crate::schedule::{load_cycles_for, ScheduledFabric, Tenant};
use pfm_bpred::PredictorKind;
use pfm_core::{Core, CoreConfig, NoPfm, SimError, SimStats};
use pfm_fabric::{Fabric, FabricParams, FabricStats, FaultPlan, FaultStats};
use pfm_isa::snap::{Dec, Enc, SnapError, FNV_OFFSET, FNV_PRIME};
use pfm_isa::{FastExec, Machine};
use pfm_mem::{Hierarchy, HierarchyConfig, HierarchyStats};
use pfm_workloads::{UseCase, UseCaseFactory};

/// Default forward-progress watchdog: abort a run if no instruction
/// commits for this many cycles. Far above any legitimate stall (the
/// fabric's own fetch-stall chicken switch trips at 100 k cycles, DRAM
/// round trips are hundreds), far below the hard cycle cap — so hangs
/// surface in seconds, not after the full 200 M-cycle budget.
pub const DEFAULT_COMMIT_WATCHDOG: u64 = 1_000_000;

/// Run-level configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Stop after this many retired instructions.
    pub max_instrs: u64,
    /// Hard cycle cap (deadlock guard of last resort).
    pub max_cycles: u64,
    /// Forward-progress watchdog: abort with [`RunError::Watchdog`] if
    /// no instruction commits for this many consecutive cycles.
    /// `None` disables it (the hard cap still applies).
    pub commit_watchdog: Option<u64>,
    /// Core configuration.
    pub core: CoreConfig,
    /// Memory hierarchy configuration.
    pub hier: HierarchyConfig,
}

impl RunConfig {
    /// The default experiment budget: 1.5 M retired instructions on the
    /// Table 1 machine (a scaled-down stand-in for the paper's 100 M
    /// SimPoints; every configuration of an experiment shares it, so
    /// relative speedups are comparable).
    pub fn paper_scale() -> RunConfig {
        RunConfig {
            max_instrs: 1_500_000,
            max_cycles: 200_000_000,
            commit_watchdog: Some(DEFAULT_COMMIT_WATCHDOG),
            core: CoreConfig::micro21(),
            hier: HierarchyConfig::micro21(),
        }
    }

    /// A small budget for tests.
    pub fn test_scale() -> RunConfig {
        RunConfig {
            max_instrs: 150_000,
            ..RunConfig::paper_scale()
        }
    }

    /// Enables perfect branch prediction.
    pub fn perfect_bp(mut self) -> RunConfig {
        self.core.predictor = PredictorKind::Perfect;
        self
    }

    /// Enables a perfect data cache.
    pub fn perfect_dcache(mut self) -> RunConfig {
        self.hier.perfect_data = true;
        self
    }

    /// Canonical content key covering the budget, the watchdog, the
    /// core and the hierarchy. Two configs with equal keys time
    /// identically; the experiment planner's run deduplication relies
    /// on this.
    pub fn key(&self) -> String {
        let wd = match self.commit_watchdog {
            Some(n) => format!("wd{n}"),
            None => "wdoff".to_string(),
        };
        format!(
            "n{}_c{}_{}_{}_{}",
            self.max_instrs,
            self.max_cycles,
            wd,
            self.core.key(),
            self.hier.key()
        )
    }
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig::paper_scale()
    }
}

/// A failed simulation run, with enough structure for callers to
/// distinguish "the workload faulted", "the deadlock guard of last
/// resort tripped", and "the forward-progress watchdog caught a hang".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The functional machine faulted (bad PC, etc.).
    Exec(String),
    /// The hard cycle cap elapsed before the workload finished.
    CycleLimit {
        /// The cap that was reached.
        max_cycles: u64,
        /// Instructions retired when it tripped.
        retired: u64,
    },
    /// The forward-progress watchdog fired: no instruction committed
    /// for `stalled_cycles` consecutive cycles.
    Watchdog {
        /// Cycle of the last commit (0 if nothing ever committed).
        last_commit_cycle: u64,
        /// Commit-free cycles elapsed when the watchdog fired.
        stalled_cycles: u64,
        /// Instructions retired when it fired.
        retired: u64,
    },
}

impl RunError {
    /// Whether this failure is a hang (watchdog or cycle cap) rather
    /// than a functional fault. Hangs are what the executor retries at
    /// a raised watchdog cap.
    pub fn is_hang(&self) -> bool {
        matches!(
            self,
            RunError::CycleLimit { .. } | RunError::Watchdog { .. }
        )
    }

    /// Whether this failure is specifically the forward-progress
    /// watchdog (eligible for one retry at a raised cap: a legitimate
    /// but extreme stall looks identical to a hang until given more
    /// rope).
    pub fn is_watchdog(&self) -> bool {
        matches!(self, RunError::Watchdog { .. })
    }

    fn from_sim(e: SimError, retired: u64) -> RunError {
        match e {
            SimError::Exec(e) => RunError::Exec(e.to_string()),
            SimError::CycleLimit(max_cycles) => RunError::CycleLimit {
                max_cycles,
                retired,
            },
            SimError::Watchdog {
                last_commit_cycle,
                stalled_cycles,
            } => RunError::Watchdog {
                last_commit_cycle,
                stalled_cycles,
                retired,
            },
        }
    }
}

impl RunError {
    /// Serializes the error (tag byte + fields) for the result store.
    pub fn snapshot_encode(&self, e: &mut Enc) {
        match self {
            RunError::Exec(msg) => {
                e.u8(0);
                e.str(msg);
            }
            RunError::CycleLimit {
                max_cycles,
                retired,
            } => {
                e.u8(1);
                e.u64(*max_cycles);
                e.u64(*retired);
            }
            RunError::Watchdog {
                last_commit_cycle,
                stalled_cycles,
                retired,
            } => {
                e.u8(2);
                e.u64(*last_commit_cycle);
                e.u64(*stalled_cycles);
                e.u64(*retired);
            }
        }
    }

    /// Decodes an error serialized by [`RunError::snapshot_encode`].
    ///
    /// # Errors
    /// [`SnapError`] on a truncated or corrupt stream.
    pub fn snapshot_decode(d: &mut Dec<'_>) -> Result<RunError, SnapError> {
        match d.u8()? {
            0 => Ok(RunError::Exec(d.str()?.to_string())),
            1 => Ok(RunError::CycleLimit {
                max_cycles: d.u64()?,
                retired: d.u64()?,
            }),
            2 => Ok(RunError::Watchdog {
                last_commit_cycle: d.u64()?,
                stalled_cycles: d.u64()?,
                retired: d.u64()?,
            }),
            _ => Err(SnapError::Corrupt("RunError tag")),
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Exec(e) => write!(f, "functional execution failed: {e}"),
            RunError::CycleLimit {
                max_cycles,
                retired,
            } => write!(
                f,
                "cycle cap {max_cycles} reached after {retired} retired instructions \
                 (possible deadlock)"
            ),
            RunError::Watchdog {
                last_commit_cycle,
                stalled_cycles,
                retired,
            } => write!(
                f,
                "watchdog: no commit for {stalled_cycles} cycles (last commit at cycle \
                 {last_commit_cycle}, {retired} retired)"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// How the fabric slot is managed in a context-switch run.
#[derive(Clone, Debug)]
pub enum CtxMode {
    /// No fabric at all: the pure-core lower bound.
    NoFabric,
    /// Phase-detection scheduler drives the swap protocol.
    Sched {
        /// Oracle arm: swaps skip the drain window and load in one
        /// cycle, isolating the *scheduling-quality* ceiling from the
        /// reconfiguration cost.
        zero_cost: bool,
    },
    /// The slot is pinned to `decoy`'s configuration for the whole run
    /// — the dead-wrong-component arm (no swaps ever happen).
    Pinned {
        /// The pinned (wrong) configuration.
        decoy: UseCaseFactory,
    },
}

impl CtxMode {
    /// Canonical key fragment (spec dedup; `params` is the fabric
    /// configuration, absent for [`CtxMode::NoFabric`]).
    pub(crate) fn key(&self, params: Option<&FabricParams>) -> String {
        let p = params.map(|p| p.key()).unwrap_or_default();
        match self {
            CtxMode::NoFabric => "nofabric".to_string(),
            CtxMode::Sched { zero_cost: true } => format!("sched0|{p}"),
            CtxMode::Sched { zero_cost: false } => format!("sched|{p}"),
            CtxMode::Pinned { decoy } => format!("pin({})|{p}", decoy.key()),
        }
    }
}

/// One tenant's share of a context-switch run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant (use-case) name.
    pub name: String,
    /// Instructions the tenant retired across all its slices.
    pub retired: u64,
    /// Core cycles the tenant consumed across all its slices.
    pub cycles: u64,
    /// Committed-stream checksum over the tenant's instruction budget.
    /// The graceful-degradation invariant: bit-identical across every
    /// scheduling mode and mid-swap fault of the same workload pair.
    pub checksum: u64,
    /// Whether the tenant's program ran to completion.
    pub completed: bool,
}

/// One scheduling slice (phase) of a context-switch run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStats {
    /// Tenant that ran the slice.
    pub tenant: String,
    /// Instructions retired in the slice.
    pub retired: u64,
    /// Cycles the slice took.
    pub cycles: u64,
}

/// Everything a context-switch run measures beyond the aggregate
/// [`SimStats`]: per-tenant and per-phase breakdowns plus the
/// scheduler's swap accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CtxStats {
    /// Per-tenant totals, in tenant order.
    pub tenants: Vec<TenantStats>,
    /// Per-slice breakdown, in execution order.
    pub phases: Vec<PhaseStats>,
    /// Component swaps the scheduler performed.
    pub swaps: u64,
    /// Core cycles the fabric spent mid-swap (draining + loading).
    pub reconfig_cycles: u64,
    /// Scheduling decisions taken.
    pub decisions: u64,
    /// Decisions perturbed by an armed `corrupt-signature` fault.
    pub corrupted_decisions: u64,
}

impl CtxStats {
    /// Serializes the stats (covered by
    /// [`crate::store::STATS_SCHEMA_VERSION`]).
    pub fn snapshot_encode(&self, e: &mut Enc) {
        e.usize(self.tenants.len());
        for t in &self.tenants {
            e.str(&t.name);
            e.u64(t.retired);
            e.u64(t.cycles);
            e.u64(t.checksum);
            e.bool(t.completed);
        }
        e.usize(self.phases.len());
        for p in &self.phases {
            e.str(&p.tenant);
            e.u64(p.retired);
            e.u64(p.cycles);
        }
        e.u64(self.swaps);
        e.u64(self.reconfig_cycles);
        e.u64(self.decisions);
        e.u64(self.corrupted_decisions);
    }

    /// Decodes stats serialized by [`CtxStats::snapshot_encode`].
    ///
    /// # Errors
    /// [`SnapError`] on a truncated or corrupt stream.
    pub fn snapshot_decode(d: &mut Dec<'_>) -> Result<CtxStats, SnapError> {
        let mut tenants = Vec::new();
        for _ in 0..d.seq_len()? {
            tenants.push(TenantStats {
                name: d.str()?.to_string(),
                retired: d.u64()?,
                cycles: d.u64()?,
                checksum: d.u64()?,
                completed: d.bool()?,
            });
        }
        let mut phases = Vec::new();
        for _ in 0..d.seq_len()? {
            phases.push(PhaseStats {
                tenant: d.str()?.to_string(),
                retired: d.u64()?,
                cycles: d.u64()?,
            });
        }
        Ok(CtxStats {
            tenants,
            phases,
            swaps: d.u64()?,
            reconfig_cycles: d.u64()?,
            decisions: d.u64()?,
            corrupted_decisions: d.u64()?,
        })
    }

    /// IPC of one tenant (0.0 if it never ran).
    pub fn tenant_ipc(&self, i: usize) -> f64 {
        match self.tenants.get(i) {
            Some(t) if t.cycles > 0 => t.retired as f64 / t.cycles as f64,
            _ => 0.0,
        }
    }
}

/// Everything measured by one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Use-case name.
    pub name: String,
    /// Core statistics.
    pub stats: SimStats,
    /// Memory hierarchy statistics.
    pub hier: HierarchyStats,
    /// Agent statistics (PFM runs only).
    pub fabric: Option<FabricStats>,
    /// Injected-fault counters (chaos runs only).
    pub faults: Option<FaultStats>,
    /// Checksum of the committed instruction stream (PCs, branch
    /// outcomes, register writes, stores), folded over the first
    /// `max_instrs` retired instructions. The graceful-degradation
    /// invariant: bit-identical across fault-free and faulty runs of
    /// the same workload and instruction budget, because fabric
    /// interventions are microarchitectural only.
    pub arch_checksum: u64,
    /// Whether the workload ran to completion (halted) rather than
    /// being cut off by the instruction budget. The bench report
    /// surfaces this so an early-exiting run is never mistaken for a
    /// budget-limited one.
    pub completed: bool,
    /// Context-switch breakdown (multi-tenant runs only): per-tenant
    /// and per-phase statistics plus the scheduler's swap accounting.
    pub ctx: Option<CtxStats>,
}

impl RunResult {
    /// Serializes the full result (all statistics layers) for the
    /// result store. The layout is covered by
    /// [`crate::store::STATS_SCHEMA_VERSION`]: bump that constant
    /// whenever this encoding (or any nested stats codec) changes
    /// shape or meaning.
    pub fn snapshot_encode(&self, e: &mut Enc) {
        e.str(&self.name);
        self.stats.snapshot_encode(e);
        self.hier.snapshot_encode(e);
        match &self.fabric {
            Some(f) => {
                e.u8(1);
                f.snapshot_encode(e);
            }
            None => e.u8(0),
        }
        match &self.faults {
            Some(f) => {
                e.u8(1);
                f.snapshot_encode(e);
            }
            None => e.u8(0),
        }
        e.u64(self.arch_checksum);
        e.bool(self.completed);
        match &self.ctx {
            Some(c) => {
                e.u8(1);
                c.snapshot_encode(e);
            }
            None => e.u8(0),
        }
    }

    /// Decodes a result serialized by [`RunResult::snapshot_encode`].
    ///
    /// # Errors
    /// [`SnapError`] on a truncated or corrupt stream.
    pub fn snapshot_decode(d: &mut Dec<'_>) -> Result<RunResult, SnapError> {
        let name = d.str()?.to_string();
        let stats = SimStats::snapshot_decode(d)?;
        let hier = HierarchyStats::snapshot_decode(d)?;
        let fabric = match d.u8()? {
            0 => None,
            1 => Some(FabricStats::snapshot_decode(d)?),
            _ => return Err(SnapError::Corrupt("fabric stats tag")),
        };
        let faults = match d.u8()? {
            0 => None,
            1 => Some(FaultStats::snapshot_decode(d)?),
            _ => return Err(SnapError::Corrupt("fault stats tag")),
        };
        let arch_checksum = d.u64()?;
        let completed = d.bool()?;
        let ctx = match d.u8()? {
            0 => None,
            1 => Some(CtxStats::snapshot_decode(d)?),
            _ => return Err(SnapError::Corrupt("ctx stats tag")),
        };
        Ok(RunResult {
            name,
            stats,
            hier,
            fabric,
            faults,
            arch_checksum,
            completed,
            ctx,
        })
    }

    /// IPC of this run.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Percentage IPC improvement over `base` (the paper's metric;
    /// baseline sits at 0%).
    pub fn speedup_over(&self, base: &RunResult) -> f64 {
        self.stats.ipc_improvement_over(&base.stats)
    }
}

/// Drives `core` under `rc`'s budgets and watchdog, then packages the
/// result (shared by the baseline, PFM and chaos entry points).
fn drive(uc: &UseCase, mut fabric: Option<Fabric>, rc: &RunConfig) -> Result<RunResult, RunError> {
    let mut core = Core::new(
        rc.core.clone(),
        uc.machine(),
        Hierarchy::new(rc.hier.clone()),
    );
    let outcome = match fabric.as_mut() {
        Some(f) => core.run_watched(f, rc.max_instrs, rc.max_cycles, rc.commit_watchdog),
        None => core.run_watched(&mut NoPfm, rc.max_instrs, rc.max_cycles, rc.commit_watchdog),
    };
    outcome.map_err(|e| RunError::from_sim(e, core.stats().retired))?;
    Ok(RunResult {
        name: uc.name.clone(),
        stats: core.stats().clone(),
        hier: *core.hierarchy().stats(),
        faults: fabric.as_ref().and_then(|f| f.component().fault_stats()),
        fabric: fabric.map(|f| *f.stats()),
        arch_checksum: core.commit_checksum(),
        completed: core.finished(),
        ctx: None,
    })
}

/// Runs the use-case on the baseline core (no fabric attached).
///
/// # Errors
/// Returns a structured [`RunError`]: functional fault, cycle cap, or
/// forward-progress watchdog.
pub fn run_baseline(uc: &UseCase, rc: &RunConfig) -> Result<RunResult, RunError> {
    drive(uc, None, rc)
}

/// Runs the use-case with the PFM fabric attached.
///
/// # Errors
/// Returns a structured [`RunError`]: functional fault, cycle cap, or
/// forward-progress watchdog.
pub fn run_pfm(uc: &UseCase, params: FabricParams, rc: &RunConfig) -> Result<RunResult, RunError> {
    drive(uc, Some(uc.fabric(params)), rc)
}

/// Runs the use-case functionally only, on the functional executor:
/// no timing, no speculation, no memory hierarchy — just the
/// committed architectural stream, at interpreter speed.
///
/// The result's `arch_checksum` is the same commit-stream fold the
/// detailed core computes at retirement over the same `max_instrs`
/// budget, so a functional run validates (and is validated by) its
/// detailed counterparts. Timing statistics are zero by construction;
/// only `retired`, `loads` and `stores` are populated.
///
/// # Errors
/// [`RunError::Exec`] if the program leaves its address space.
pub fn run_functional(uc: &UseCase, rc: &RunConfig) -> Result<RunResult, RunError> {
    let mut fx = FastExec::new(uc.program.clone(), uc.memory.clone());
    fx.run(rc.max_instrs)
        .map_err(|e| RunError::Exec(e.to_string()))?;
    let stats = SimStats {
        retired: fx.retired(),
        loads: fx.loads(),
        stores: fx.stores(),
        ..SimStats::default()
    };
    Ok(RunResult {
        name: uc.name.clone(),
        stats,
        hier: HierarchyStats::default(),
        fabric: None,
        faults: None,
        arch_checksum: fx.commit_checksum(),
        completed: fx.halted(),
        ctx: None,
    })
}

/// Runs one detailed sampling interval: restores the architectural
/// snapshot (captured by the functional fast-forward) into a fresh
/// cold-structure core, retires `warmup` instructions to warm caches,
/// TLB and branch history (their statistics are diffed out), then
/// measures `rc.max_instrs` further retired instructions.
///
/// The returned `stats` cover only the measured window. `hier` covers
/// warm-up plus measurement (cache counters are reported for
/// diagnosis, not assembled into IPC). `arch_checksum` is not
/// comparable across positions and is reported as the core's fold from
/// the restore point.
///
/// # Errors
/// [`RunError::Exec`] if the snapshot fails to decode or the machine
/// faults; watchdog/cycle-cap errors as in the other entry points.
pub fn run_interval(
    uc: &UseCase,
    snapshot: &[u8],
    warmup: u64,
    rc: &RunConfig,
) -> Result<RunResult, RunError> {
    let machine = Machine::restore(uc.program.clone(), snapshot)
        .map_err(|e| RunError::Exec(format!("snapshot restore: {e}")))?;
    let mut core = Core::new(rc.core.clone(), machine, Hierarchy::new(rc.hier.clone()));
    core.run_watched(&mut NoPfm, warmup, rc.max_cycles, rc.commit_watchdog)
        .map_err(|e| RunError::from_sim(e, core.stats().retired))?;
    let warm = core.stats().clone();
    core.run_watched(
        &mut NoPfm,
        warmup.saturating_add(rc.max_instrs),
        rc.max_cycles,
        rc.commit_watchdog,
    )
    .map_err(|e| RunError::from_sim(e, core.stats().retired))?;
    Ok(RunResult {
        name: uc.name.clone(),
        stats: core.stats().delta_since(&warm),
        hier: *core.hierarchy().stats(),
        fabric: None,
        faults: None,
        arch_checksum: core.commit_checksum(),
        completed: core.finished(),
        ctx: None,
    })
}

/// Runs the use-case with the PFM fabric attached and its component
/// wrapped in the deterministic fault injector (the chaos harness).
///
/// # Errors
/// Returns a structured [`RunError`]: functional fault, cycle cap, or
/// forward-progress watchdog.
pub fn run_chaos(
    uc: &UseCase,
    params: FabricParams,
    plan: FaultPlan,
    rc: &RunConfig,
) -> Result<RunResult, RunError> {
    drive(uc, Some(uc.fabric_faulty(params, plan)), rc)
}

/// Slices each tenant's instruction budget into this many alternating
/// scheduling quanta (a A/B/A/B/… round-robin of 2×`CTX_SLICES`
/// slices).
pub const CTX_SLICES: u64 = 4;

/// Runs two tenants time-sharing one fabric slot: `a` and `b` each get
/// half of `rc.max_instrs`, consumed in [`CTX_SLICES`] alternating
/// slices per tenant. The fabric (absent, scheduled, or pinned — see
/// [`CtxMode`]) is shared across the switches; each tenant's program
/// runs on its own core/hierarchy pair, so the *only* coupling between
/// them is the fabric slot — exactly the resource under study.
///
/// `fault` arms a [`FaultScenario::MID_SWAP`](pfm_fabric::FaultScenario)
/// scenario (meaningful for [`CtxMode::Sched`]); whatever it does to
/// the swap timeline, every tenant's committed-stream checksum must be
/// bit-identical to the [`CtxMode::NoFabric`] run of the same pair.
///
/// # Errors
/// Returns a structured [`RunError`]: functional fault, cycle cap, or
/// forward-progress watchdog from either tenant's core.
pub fn run_context_switch(
    a: &UseCase,
    b: &UseCase,
    mode: &CtxMode,
    params: Option<FabricParams>,
    fault: Option<FaultPlan>,
    rc: &RunConfig,
) -> Result<RunResult, RunError> {
    let budget = (rc.max_instrs / 2).max(1);
    let slice = (budget / CTX_SLICES).max(1);

    let mut core_a = Core::new(
        rc.core.clone(),
        a.machine(),
        Hierarchy::new(rc.hier.clone()),
    );
    let mut core_b = Core::new(
        rc.core.clone(),
        b.machine(),
        Hierarchy::new(rc.hier.clone()),
    );
    // Sliced runs advance the budget in steps; the checksum must cover
    // the full per-tenant budget regardless of slicing, so every mode
    // folds the exact same committed window.
    core_a.set_checksum_cap(budget);
    core_b.set_checksum_cap(budget);

    let mut sched = match mode {
        CtxMode::NoFabric => None,
        CtxMode::Sched { zero_cost } => {
            let fabric_params = params.unwrap_or_else(FabricParams::paper_default);
            let tenants = vec![
                Tenant::new(a.clone(), load_cycles_for(&a.name)),
                Tenant::new(b.clone(), load_cycles_for(&b.name)),
            ];
            let mut sf = ScheduledFabric::new(tenants, fabric_params, *zero_cost);
            if let Some(plan) = fault {
                sf.arm_faults(plan);
            }
            Some(sf)
        }
        CtxMode::Pinned { decoy } => {
            let fabric_params = params.unwrap_or_else(FabricParams::paper_default);
            let tenants = vec![
                Tenant::new(a.clone(), load_cycles_for(&a.name)),
                Tenant::new(b.clone(), load_cycles_for(&b.name)),
            ];
            let decoy_uc = decoy.build();
            Some(ScheduledFabric::pinned(tenants, &decoy_uc, fabric_params))
        }
    };

    let mut phases = Vec::with_capacity(2 * CTX_SLICES as usize);
    for s in 0..CTX_SLICES {
        let target = if s == CTX_SLICES - 1 {
            budget
        } else {
            slice * (s + 1)
        };
        for t in 0..2usize {
            let (core, uc) = if t == 0 {
                (&mut core_a, a)
            } else {
                (&mut core_b, b)
            };
            let before = core.stats().clone();
            let outcome = match sched.as_mut() {
                Some(sf) => {
                    sf.switch_to(t);
                    core.run_watched_until(sf, target, rc.max_cycles, rc.commit_watchdog)
                }
                None => {
                    core.run_watched_until(&mut NoPfm, target, rc.max_cycles, rc.commit_watchdog)
                }
            };
            outcome.map_err(|e| RunError::from_sim(e, core.stats().retired))?;
            let d = core.stats().delta_since(&before);
            phases.push(PhaseStats {
                tenant: uc.name.clone(),
                retired: d.retired,
                cycles: d.cycles,
            });
        }
    }

    let tenant_stats = |core: &Core, uc: &UseCase| TenantStats {
        name: uc.name.clone(),
        retired: core.stats().retired,
        cycles: core.stats().cycles,
        checksum: core.commit_checksum(),
        completed: core.finished(),
    };
    let tenants = vec![tenant_stats(&core_a, a), tenant_stats(&core_b, b)];
    // The run-level checksum is an order-sensitive fold of the
    // per-tenant commit-stream checksums, so a single u64 still gates
    // the whole pair.
    let mut checksum = FNV_OFFSET;
    for t in &tenants {
        checksum = (checksum ^ t.checksum).wrapping_mul(FNV_PRIME);
    }
    let completed = tenants.iter().all(|t| t.completed);
    let stats = SimStats {
        retired: tenants.iter().map(|t| t.retired).sum(),
        cycles: tenants.iter().map(|t| t.cycles).sum(),
        ..SimStats::default()
    };
    let fabric_stats = sched.as_ref().map(|sf| *sf.stats());
    let ctx = CtxStats {
        tenants,
        phases,
        swaps: fabric_stats.map_or(0, |f| f.swaps),
        reconfig_cycles: fabric_stats.map_or(0, |f| f.reconfig_cycles),
        decisions: sched.as_ref().map_or(0, ScheduledFabric::decisions),
        corrupted_decisions: sched
            .as_ref()
            .map_or(0, ScheduledFabric::corrupted_decisions),
    };
    Ok(RunResult {
        name: format!("ctx({}+{})", a.name, b.name),
        stats,
        // Each tenant runs on its own hierarchy; there is no meaningful
        // single-hierarchy aggregate, so this layer stays zero.
        hier: HierarchyStats::default(),
        fabric: fabric_stats,
        faults: None,
        arch_checksum: checksum,
        completed,
        ctx: Some(ctx),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RunSpec;
    use crate::usecases;
    use pfm_fabric::FaultScenario;
    use pfm_workloads::{astar, AstarParams};

    #[test]
    fn baseline_and_pfm_agree_architecturally() {
        let p = AstarParams {
            grid_w: 32,
            grid_h: 32,
            fills: 1,
            ..AstarParams::default()
        };
        let uc = astar(&p);
        let rc = RunConfig::test_scale();
        let base = run_baseline(&uc, &rc).unwrap();
        let pfm = run_pfm(&uc, FabricParams::paper_default(), &rc).unwrap();
        // Same instruction budget; the PFM run must not break anything.
        assert!(base.stats.retired > 0);
        assert!(pfm.stats.retired > 0);
        assert!(pfm.fabric.is_some());
        assert_eq!(
            base.arch_checksum, pfm.arch_checksum,
            "PFM interventions are microarchitectural only"
        );
    }

    #[test]
    fn chaos_run_reports_fault_stats() {
        let p = AstarParams {
            grid_w: 32,
            grid_h: 32,
            fills: 1,
            ..AstarParams::default()
        };
        let uc = astar(&p);
        let rc = RunConfig::test_scale();
        let plan = FaultPlan::new(FaultScenario::InvertPred, 1).with_rate(1000);
        let r = run_chaos(&uc, FabricParams::paper_default(), plan, &rc).unwrap();
        let f = r.faults.expect("chaos run must report fault stats");
        assert!(f.inverted > 0, "rate-1000 inversion must fire");
    }

    #[test]
    fn run_config_key_covers_the_watchdog() {
        let rc = RunConfig::test_scale();
        let mut off = RunConfig::test_scale();
        off.commit_watchdog = None;
        assert_ne!(rc.key(), off.key());
        assert!(rc.key().contains("wd1000000"));
    }

    #[test]
    fn completed_flag_tracks_kernel_halt_not_budget() {
        // leslie halts at ~1.22M retired instructions — the only suite
        // kernel that finishes under the paper budget. Its run must
        // report completed at a budget above the halt point and
        // not-completed below it (regression: a committed throughput
        // record once showed every run as not-completed because it
        // was generated at quick scale).
        let uc = usecases::leslie_factory();
        let over = RunSpec::functional(
            uc.clone(),
            &RunConfig {
                max_instrs: 1_500_000,
                ..RunConfig::test_scale()
            },
        )
        .execute()
        .unwrap();
        assert!(over.completed, "leslie halts under a 1.5M budget");
        assert!(over.stats.retired < 1_500_000);

        let under = RunSpec::functional(
            uc,
            &RunConfig {
                max_instrs: 300_000,
                ..RunConfig::test_scale()
            },
        )
        .execute()
        .unwrap();
        assert!(!under.completed, "300k instrs cannot finish leslie");
        assert!(under.stats.retired >= 300_000);
    }
}
