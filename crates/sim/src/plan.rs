//! Declarative run plans: experiments *describe* the simulation runs
//! they need and the rows they read from them; the executor
//! ([`crate::exec`]) decides what actually gets simulated, once, and
//! on how many threads.
//!
//! The architecture is plan → execute → assemble:
//!
//! 1. **Plan.** Each experiment builds an [`ExperimentPlan`]: a list
//!    of keyed [`RunSpec`]s plus its declared rows, each a label and a
//!    [`Measure`] that names the runs it reads by [`RunHandle`]. A
//!    spec is a use-case factory, a run configuration and one engine: the
//!    functional executor; the detailed core with an attachment
//!    (baseline, PFM or chaos) starting from reset or, for a sampling
//!    interval, from a machine snapshot; or a two-tenant context
//!    switch.
//! 2. **Execute.** The executor collects the specs of every requested
//!    experiment, deduplicates them by [`RunSpec::key`] (the shared
//!    astar baseline is requested by six experiments but simulated
//!    once), and runs the unique set across worker threads, isolating
//!    each run behind `catch_unwind` and recording a typed
//!    [`RunOutcome`].
//! 3. **Assemble.** One assembler turns each declared row's
//!    [`RunResult`]s into a printable row — no simulation happens
//!    here, so assembly is cheap, deterministic, and
//!    order-independent. Lookup failures are typed [`PlanError`]s, not
//!    panics, so one failed run fails its experiments, never the whole
//!    suite.
//!
//! Dedup correctness rests on the canonical content keys introduced
//! across the stack: `UseCaseFactory::key` (pfm-workloads),
//! `CoreConfig::key` (pfm-core), `HierarchyConfig::key` (pfm-mem),
//! `FabricParams::key` (pfm-fabric) and `FaultPlan::key` (chaos runs)
//! each cover *every* field of their layer, so equal keys imply
//! behaviourally identical runs.

use crate::experiments::{Entry, Experiment, Measure};
use crate::runner::{
    drive, run_context_switch, run_functional, CtxMode, RunConfig, RunError, RunResult,
};
use pfm_fabric::{FabricParams, FaultPlan};
use pfm_isa::fxhash::FxHashMap;
use pfm_isa::snap::{content_key, Dec, Enc};
use pfm_workloads::UseCaseFactory;
use std::sync::Arc;

/// A typed planning/assembly failure. Everything the old panicking
/// paths could hit is representable here, so `repro` can report and
/// exit non-zero instead of aborting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// No experiment with this id exists.
    UnknownExperiment {
        /// The requested id.
        id: String,
    },
    /// A row read a run that was never executed (not planned, or
    /// abandoned after an earlier failure without `--keep-going`).
    MissingRun {
        /// The requested run key.
        key: String,
    },
    /// A row read a run that was executed but did not produce a
    /// result, or whose result lacks the counters the row reads.
    RunFailed {
        /// The requested run key.
        key: String,
        /// Human-readable outcome (failure, panic, timeout).
        outcome: String,
    },
    /// A chaos run's committed architectural checksum differed from
    /// its fault-free counterpart — the graceful-degradation invariant
    /// is broken.
    ArchMismatch {
        /// Use-case name.
        name: String,
        /// Fault scenario injected.
        scenario: &'static str,
        /// Checksum of the fault-free run.
        expected: u64,
        /// Checksum of the faulty run.
        actual: u64,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownExperiment { id } => write!(f, "unknown experiment id `{id}`"),
            PlanError::MissingRun { key } => {
                write!(f, "run `{key}` was not part of the executed plan")
            }
            PlanError::RunFailed { key, outcome } => {
                write!(f, "run `{key}` did not complete: {outcome}")
            }
            PlanError::ArchMismatch {
                name,
                scenario,
                expected,
                actual,
            } => write!(
                f,
                "ARCHITECTURAL STATE CORRUPTED: {name} under {scenario} committed checksum \
                 {actual:#018x}, fault-free run committed {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// What a detailed run attaches to the core: nothing (the baseline
/// machine), the PFM fabric, or the fabric with its component wrapped
/// in the deterministic fault injector (the chaos harness).
#[derive(Clone, Debug)]
enum Attachment {
    /// The baseline core, no fabric.
    Baseline,
    /// The PFM fabric with these parameters.
    Pfm(FabricParams),
    /// The PFM fabric under an injected fault plan.
    Chaos(FabricParams, FaultPlan),
}

/// Where a detailed run starts.
#[derive(Clone, Debug)]
enum Start {
    /// The use-case's initial machine state.
    Reset,
    /// A sampling interval: the machine `snapshot` the functional
    /// fast-forward took at retired-instruction `position` (shared, so
    /// cloning specs across executor threads does not copy megabytes
    /// of pages); `warmup` instructions warm the caches, TLB, branch
    /// history and fabric before `rc.max_instrs` are measured.
    Snapshot {
        snapshot: Arc<Vec<u8>>,
        position: u64,
        warmup: u64,
    },
}

/// The engine a [`RunSpec`] runs on.
#[derive(Clone, Debug)]
enum Engine {
    /// The functional executor ([`pfm_isa::FastExec`]): the committed
    /// stream at interpreter speed, no timing.
    Functional,
    /// The out-of-order core, single tenant, with `attach` and from
    /// `start`.
    Detailed { attach: Attachment, start: Start },
    /// Two tenants time-sharing one fabric slot: the spec's use-case
    /// and `second` alternate on the core while the slot (configured
    /// by `params`, optionally under a mid-swap `fault`) is managed
    /// per `mode`.
    ContextSwitch {
        second: UseCaseFactory,
        mode: CtxMode,
        params: Option<FabricParams>,
        fault: Option<FaultPlan>,
    },
}

/// The canonical content key of a run: every input of the use-case,
/// the run configuration and the engine. Intervals extend the key of
/// the spec they sample with their position, warm-up and snapshot
/// hash, so intervals of different machines or machine states never
/// dedup.
fn spec_key(usecase: &UseCaseFactory, rc: &RunConfig, engine: &Engine) -> String {
    let (uc, rc) = (usecase.key(), rc.key());
    match engine {
        Engine::Functional => format!("{uc}|functional|{rc}"),
        Engine::Detailed { attach, start } => {
            let mut key = match attach {
                Attachment::Baseline => format!("{uc}|baseline|{rc}"),
                Attachment::Pfm(params) => format!("{uc}|{}|{rc}", params.key()),
                Attachment::Chaos(params, plan) => {
                    format!("{uc}|{}|{rc}|{}", params.key(), plan.key())
                }
            };
            if let Start::Snapshot {
                snapshot,
                position,
                warmup,
            } = start
            {
                key.push_str(&format!(
                    "|interval@{position}+w{warmup}|snap{:016x}",
                    content_key(snapshot)
                ));
            }
            key
        }
        Engine::ContextSwitch {
            second,
            mode,
            params,
            fault,
        } => {
            let mut key = format!(
                "ctx({uc}+{})|{}|{rc}",
                second.key(),
                mode.key(params.as_ref())
            );
            if let Some(plan) = fault {
                key.push_str(&format!("|{}", plan.key()));
            }
            key
        }
    }
}

/// One fully-specified, deduplicatable simulation run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    usecase: UseCaseFactory,
    rc: RunConfig,
    engine: Engine,
    key: String,
}

impl RunSpec {
    fn new(usecase: UseCaseFactory, rc: &RunConfig, engine: Engine) -> RunSpec {
        let key = spec_key(&usecase, rc, &engine);
        RunSpec {
            usecase,
            rc: rc.clone(),
            engine,
            key,
        }
    }

    /// A detailed run from reset with the given attachment.
    fn detailed(usecase: UseCaseFactory, attach: Attachment, rc: &RunConfig) -> RunSpec {
        let engine = Engine::Detailed {
            attach,
            start: Start::Reset,
        };
        RunSpec::new(usecase, rc, engine)
    }

    /// A baseline run (no fabric attached).
    pub fn baseline(usecase: UseCaseFactory, rc: &RunConfig) -> RunSpec {
        RunSpec::detailed(usecase, Attachment::Baseline, rc)
    }

    /// A PFM run with the given fabric parameters.
    pub fn pfm(usecase: UseCaseFactory, params: FabricParams, rc: &RunConfig) -> RunSpec {
        RunSpec::detailed(usecase, Attachment::Pfm(params), rc)
    }

    /// A chaos run: PFM with the component wrapped in the deterministic
    /// fault injector. The fault plan is part of the key, so chaos runs
    /// never dedup against fault-free runs (and distinct scenarios,
    /// seeds and rates never dedup against each other).
    pub fn chaos(
        usecase: UseCaseFactory,
        params: FabricParams,
        plan: FaultPlan,
        rc: &RunConfig,
    ) -> RunSpec {
        RunSpec::detailed(usecase, Attachment::Chaos(params, plan), rc)
    }

    /// A functional-only run: the same use-case and instruction budget,
    /// retired on the functional executor instead of the detailed
    /// core. Produces the same committed-stream checksum as its
    /// detailed counterparts, at interpreter speed.
    pub fn functional(usecase: UseCaseFactory, rc: &RunConfig) -> RunSpec {
        RunSpec::new(usecase, rc, Engine::Functional)
    }

    /// A context-switch run: this use-case and `second` alternate on
    /// one core, sharing a single fabric slot managed per `mode`.
    /// `params` configures the shared slot (`None` only for
    /// [`CtxMode::NoFabric`]); `fault` arms a seed-keyed mid-swap
    /// scenario. Mode, params and fault plan are all part of the key,
    /// so arms of the experiment never dedup against each other.
    pub fn context_switch(
        usecase: UseCaseFactory,
        second: UseCaseFactory,
        mode: CtxMode,
        params: Option<FabricParams>,
        fault: Option<FaultPlan>,
        rc: &RunConfig,
    ) -> RunSpec {
        let engine = Engine::ContextSwitch {
            second,
            mode,
            params,
            fault,
        };
        RunSpec::new(usecase, rc, engine)
    }

    /// A sampling interval of this detailed run: the same use-case,
    /// machine and attachment, started from `snapshot` (captured at
    /// retired-instruction `position` by the functional fast-forward),
    /// warmed for `warmup` instructions, then measured for `instrs`.
    /// Its key extends this spec's key (at the `instrs` budget) with
    /// the position, warm-up and snapshot hash.
    ///
    /// `None` unless this spec is a detailed run from reset: a
    /// functional or context-switch run has no interval, and an
    /// interval has no interval of its own.
    pub fn interval(
        &self,
        snapshot: Arc<Vec<u8>>,
        position: u64,
        warmup: u64,
        instrs: u64,
    ) -> Option<RunSpec> {
        let Engine::Detailed {
            attach,
            start: Start::Reset,
        } = &self.engine
        else {
            return None;
        };
        let start = Start::Snapshot {
            snapshot,
            position,
            warmup,
        };
        let rc = RunConfig {
            max_instrs: instrs,
            ..self.rc.clone()
        };
        let attach = attach.clone();
        Some(RunSpec::new(
            self.usecase.clone(),
            &rc,
            Engine::Detailed { attach, start },
        ))
    }

    /// Stable content key: two specs with equal keys simulate the
    /// exact same thing (and are executed once).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Display name of the underlying use-case.
    pub fn name(&self) -> &str {
        self.usecase.name()
    }

    /// The use-case this spec runs.
    pub(crate) fn usecase(&self) -> &UseCaseFactory {
        &self.usecase
    }

    /// The configured forward-progress watchdog, scaled by
    /// [`crate::exec::RETRY_WATCHDOG_FACTOR`] (the executor's raised
    /// retry cap).
    pub(crate) fn raised_watchdog(&self) -> Option<u64> {
        self.rc
            .commit_watchdog
            .map(|w| w.saturating_mul(crate::exec::RETRY_WATCHDOG_FACTOR))
    }

    /// Builds the use-case and performs the run. Deterministic:
    /// calling this any number of times, on any thread, yields
    /// identical statistics.
    ///
    /// # Errors
    /// Returns the structured [`RunError`] (functional fault, snapshot
    /// restore failure, cycle cap, or forward-progress watchdog).
    pub fn execute(&self) -> Result<RunResult, RunError> {
        self.execute_with_watchdog(self.rc.commit_watchdog)
    }

    /// [`RunSpec::execute`] with the forward-progress watchdog
    /// overridden (the executor's bounded-retry seam).
    pub(crate) fn execute_with_watchdog(
        &self,
        commit_watchdog: Option<u64>,
    ) -> Result<RunResult, RunError> {
        let uc = self.usecase.build();
        let rc = RunConfig {
            commit_watchdog,
            ..self.rc.clone()
        };
        match &self.engine {
            Engine::Functional => run_functional(&uc, &rc),
            Engine::Detailed { attach, start } => {
                let fabric = match attach {
                    Attachment::Baseline => None,
                    Attachment::Pfm(params) => Some(uc.fabric(params.clone())),
                    Attachment::Chaos(params, plan) => {
                        Some(uc.fabric_faulty(params.clone(), *plan))
                    }
                };
                let restore = match start {
                    Start::Reset => None,
                    Start::Snapshot {
                        snapshot, warmup, ..
                    } => Some((snapshot.as_slice(), *warmup)),
                };
                drive(&uc, fabric, restore, &rc)
            }
            Engine::ContextSwitch {
                second,
                mode,
                params,
                fault,
            } => run_context_switch(&uc, &second.build(), mode, params.clone(), *fault, &rc),
        }
    }
}

/// How one executed run ended. The executor's outcome lattice:
/// `Ok` ⊐ `Failed` (structured simulator error) ⊐ `TimedOut` (hang
/// caught by watchdog/cap, after bounded retry) ⊐ `Panicked` (caught
/// unwind — the run died, the suite did not).
// Ok(RunResult) dwarfs the error variants, but it is also the
// overwhelmingly common case — boxing every successful result to
// shrink the rare failures would be a pessimization.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The run completed and produced statistics.
    Ok(RunResult),
    /// The run failed with a structured, non-hang simulator error.
    Failed(RunError),
    /// The run panicked; the payload message was captured.
    Panicked(String),
    /// The run hung (forward-progress watchdog or cycle cap), possibly
    /// after a retry at a raised watchdog cap.
    TimedOut {
        /// The final hang error.
        error: RunError,
        /// Retries performed before giving up.
        retries: u32,
    },
}

impl RunOutcome {
    /// Whether the outcome reflects the *environment* rather than the
    /// spec: a hang verdict depends on the watchdog budget and retry
    /// factor in effect (a slower machine or tighter cap trips where
    /// another would finish), and a panic payload can describe a local
    /// condition of the host process. Environmental outcomes must
    /// never be persisted to the result store — a warm re-run has to
    /// re-simulate and reach its own verdict. `Ok` and structured
    /// `Failed` are deterministic facts about the spec and cache fine.
    pub fn is_environmental(&self) -> bool {
        matches!(self, RunOutcome::Panicked(_) | RunOutcome::TimedOut { .. })
    }

    /// Serializes the outcome (tag byte + payload) for the result
    /// store. Deterministic failures serialize too: a structured
    /// simulator error replays identically and is as cacheable as a
    /// success.
    pub fn snapshot_encode(&self, e: &mut Enc) {
        match self {
            RunOutcome::Ok(r) => {
                e.u8(0);
                r.snapshot_encode(e);
            }
            RunOutcome::Failed(err) => {
                e.u8(1);
                err.snapshot_encode(e);
            }
            RunOutcome::Panicked(msg) => {
                e.u8(2);
                e.str(msg);
            }
            RunOutcome::TimedOut { error, retries } => {
                e.u8(3);
                error.snapshot_encode(e);
                e.u32(*retries);
            }
        }
    }

    /// Decodes an outcome serialized by [`RunOutcome::snapshot_encode`].
    ///
    /// # Errors
    /// [`pfm_isa::snap::SnapError`] on a truncated or corrupt stream.
    pub fn snapshot_decode(d: &mut Dec<'_>) -> Result<RunOutcome, pfm_isa::snap::SnapError> {
        match d.u8()? {
            0 => Ok(RunOutcome::Ok(RunResult::snapshot_decode(d)?)),
            1 => Ok(RunOutcome::Failed(RunError::snapshot_decode(d)?)),
            2 => Ok(RunOutcome::Panicked(d.str()?.to_string())),
            3 => Ok(RunOutcome::TimedOut {
                error: RunError::snapshot_decode(d)?,
                retries: d.u32()?,
            }),
            _ => Err(pfm_isa::snap::SnapError::Corrupt("RunOutcome tag")),
        }
    }

    /// The completed result, if the run succeeded.
    pub fn as_ok(&self) -> Option<&RunResult> {
        match self {
            RunOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the run completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, RunOutcome::Ok(_))
    }

    /// One-line human-readable description (failure tables, errors).
    pub fn describe(&self) -> String {
        match self {
            RunOutcome::Ok(_) => "ok".to_string(),
            RunOutcome::Failed(e) => format!("failed: {e}"),
            RunOutcome::Panicked(msg) => format!("panicked: {msg}"),
            RunOutcome::TimedOut { error, retries } => {
                format!("timed out ({retries} retry(ies)): {error}")
            }
        }
    }
}

/// Executed runs, indexed by [`RunSpec::key`]. Holds the full
/// [`RunOutcome`] of every run the executor touched, successful or
/// not.
#[derive(Debug, Default)]
pub struct RunSet {
    runs: FxHashMap<String, RunOutcome>,
}

impl RunSet {
    /// An empty set with room for `n` runs.
    pub(crate) fn with_capacity(n: usize) -> RunSet {
        RunSet {
            runs: FxHashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    pub(crate) fn insert(&mut self, key: String, outcome: RunOutcome) {
        self.runs.insert(key, outcome);
    }

    /// The completed run for `key`.
    ///
    /// # Errors
    /// [`PlanError::MissingRun`] if the run was never executed,
    /// [`PlanError::RunFailed`] if it was executed but did not produce
    /// a result.
    pub fn get(&self, key: &str) -> Result<&RunResult, PlanError> {
        match self.runs.get(key) {
            Some(RunOutcome::Ok(r)) => Ok(r),
            Some(outcome) => Err(PlanError::RunFailed {
                key: key.to_string(),
                outcome: outcome.describe(),
            }),
            None => Err(PlanError::MissingRun {
                key: key.to_string(),
            }),
        }
    }

    /// The raw outcome for `key`, if the executor touched it.
    pub fn outcome(&self, key: &str) -> Option<&RunOutcome> {
        self.runs.get(key)
    }

    /// Number of executed runs (any outcome).
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether no runs executed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

/// Handle to one requested run, returned while building a plan and
/// named by the rows that read it.
#[derive(Clone, Debug)]
pub struct RunHandle(String);

impl RunHandle {
    /// The completed run this handle refers to.
    ///
    /// # Errors
    /// See [`RunSet::get`].
    pub fn of<'a>(&self, runs: &'a RunSet) -> Result<&'a RunResult, PlanError> {
        runs.get(&self.0)
    }

    /// The underlying spec key.
    pub fn key(&self) -> &str {
        &self.0
    }
}

/// A planned (not yet executed) experiment: the runs it requests, in
/// request order, and the rows it declares over them.
#[derive(Debug)]
pub struct ExperimentPlan {
    /// The registry entry planned (id, title, paper claim).
    pub entry: &'static Entry,
    specs: Vec<RunSpec>,
    rows: Vec<(String, Measure)>,
}

impl ExperimentPlan {
    /// `entry`'s experiment with no runs or rows yet.
    pub(crate) fn new(entry: &'static Entry) -> ExperimentPlan {
        ExperimentPlan {
            entry,
            specs: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Requests a run, handing back the handle its rows read it by.
    pub fn request(&mut self, spec: RunSpec) -> RunHandle {
        let handle = RunHandle(spec.key().to_string());
        self.specs.push(spec);
        handle
    }

    /// Declares the next row: `label`, valued by `measure`.
    pub fn row(&mut self, label: impl Into<String>, measure: Measure) {
        self.rows.push((label.into(), measure));
    }

    /// The runs this experiment needs (possibly overlapping other
    /// plans' — the executor deduplicates).
    pub fn specs(&self) -> &[RunSpec] {
        &self.specs
    }

    /// The rows this experiment declares, label and measure, in output
    /// order.
    pub fn rows(&self) -> &[(String, Measure)] {
        &self.rows
    }

    /// Maps completed runs to the final experiment, row by row in
    /// declaration order. Pure: no simulation happens here.
    ///
    /// # Errors
    /// The first row's [`PlanError`] if a run it reads is missing,
    /// failed, or violated a checksum invariant.
    pub fn assemble(self, runs: &RunSet) -> Result<Experiment, PlanError> {
        let mut rows = Vec::with_capacity(self.rows.len());
        for (label, measure) in &self.rows {
            measure.assemble(label, runs, &mut rows)?;
        }
        Ok(Experiment {
            id: self.entry.id,
            title: self.entry.title,
            paper: self.entry.paper,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usecases;
    use pfm_fabric::FaultScenario;

    #[test]
    fn identical_specs_share_keys_and_distinct_specs_do_not() {
        let rc = RunConfig::test_scale();
        let uc = usecases::astar_custom_factory();
        let a = RunSpec::baseline(uc.clone(), &rc);
        let b = RunSpec::baseline(usecases::astar_custom_factory(), &rc);
        assert_eq!(a.key(), b.key());

        let pfm = RunSpec::pfm(uc.clone(), FabricParams::paper_default(), &rc);
        assert_ne!(a.key(), pfm.key());

        // Non-label fabric fields must be visible in the key.
        let mut tiny_mlb = FabricParams::paper_default();
        tiny_mlb.mlb_size = 2;
        let tiny = RunSpec::pfm(uc.clone(), tiny_mlb, &rc);
        assert_ne!(pfm.key(), tiny.key());

        // Run-config deltas must be visible in the key.
        let perf = RunSpec::baseline(uc, &rc.clone().perfect_bp());
        assert_ne!(a.key(), perf.key());
    }

    #[test]
    fn fault_plans_are_visible_in_spec_keys() {
        let rc = RunConfig::test_scale();
        let uc = usecases::astar_custom_factory();
        let params = FabricParams::paper_default();
        let pfm = RunSpec::pfm(uc.clone(), params.clone(), &rc);
        let mut keys = vec![pfm.key().to_string()];
        for sc in FaultScenario::ALL {
            let plan = FaultPlan::new(sc, 7);
            keys.push(
                RunSpec::chaos(uc.clone(), params.clone(), plan, &rc)
                    .key()
                    .to_string(),
            );
            let reseeded = FaultPlan::new(sc, 8);
            keys.push(
                RunSpec::chaos(uc.clone(), params.clone(), reseeded, &rc)
                    .key()
                    .to_string(),
            );
        }
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "chaos specs must never dedup");
    }

    #[test]
    fn runset_reports_missing_and_failed_runs_as_typed_errors() {
        let mut runs = RunSet::default();
        match runs.get("nope") {
            Err(PlanError::MissingRun { key }) => assert_eq!(key, "nope"),
            other => panic!("expected MissingRun, got {other:?}"),
        }
        runs.insert(
            "hung".to_string(),
            RunOutcome::TimedOut {
                error: crate::runner::RunError::Watchdog {
                    last_commit_cycle: 10,
                    stalled_cycles: 500,
                    retired: 3,
                },
                retries: 1,
            },
        );
        match runs.get("hung") {
            Err(PlanError::RunFailed { key, outcome }) => {
                assert_eq!(key, "hung");
                assert!(outcome.contains("watchdog"), "outcome: {outcome}");
            }
            other => panic!("expected RunFailed, got {other:?}"),
        }
    }
}
