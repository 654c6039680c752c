//! Integration tests for the chaos fault-injection harness: fault
//! traces are deterministic, no fault scenario can corrupt committed
//! architectural state, a wedged run terminates via the
//! forward-progress watchdog as a structured error (not a hang, not a
//! panic), and the executor isolates panicking runs instead of dying
//! with them.

use pfm_fabric::{
    CustomComponent, FabricIo, FabricParams, FaultPlan, FaultScenario, RstEntry, StallPolicy,
};
use pfm_isa::reg::names::*;
use pfm_isa::{Asm, SpecMemory};
use pfm_sim::exec::{execute, run_plans, ExecOptions, RETRY_WATCHDOG_FACTOR};
use pfm_sim::experiments::plan_for;
use pfm_sim::plan::{RunOutcome, RunSpec};
use pfm_sim::{run_chaos, run_pfm, RunConfig, RunError};
use pfm_workloads::{UseCase, UseCaseFactory};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn tiny_rc() -> RunConfig {
    RunConfig {
        max_instrs: 20_000,
        ..RunConfig::test_scale()
    }
}

#[test]
fn fault_traces_are_deterministic_across_identical_runs() {
    let uc = pfm_sim::usecases::libquantum_scale();
    let rc = tiny_rc();
    for sc in FaultScenario::ALL {
        let plan = FaultPlan::new(sc, 0xFEED);
        let a = run_chaos(&uc, FabricParams::paper_default(), plan, &rc).unwrap();
        let b = run_chaos(&uc, FabricParams::paper_default(), plan, &rc).unwrap();
        let (fa, fb) = (a.faults.unwrap(), b.faults.unwrap());
        assert_eq!(
            fa,
            fb,
            "fault trace must replay bit-identically ({})",
            sc.name()
        );
        assert_eq!(
            a.arch_checksum,
            b.arch_checksum,
            "checksum drift ({})",
            sc.name()
        );
        assert_eq!(a.stats, b.stats, "timing drift ({})", sc.name());
    }
}

#[test]
fn no_fault_scenario_corrupts_committed_state() {
    // The §3 graceful-degradation guarantee, end to end: a component
    // producing inverted predictions, wild prefetches, dropped or
    // duplicated packets, stuck-busy episodes, etc. may change timing
    // but never the committed architectural state.
    let uc = pfm_sim::usecases::astar_custom();
    let rc = tiny_rc();
    let clean = run_pfm(&uc, FabricParams::paper_default(), &rc).unwrap();
    for sc in FaultScenario::ALL {
        let plan = FaultPlan::new(sc, 0xFEED);
        let faulty = run_chaos(&uc, FabricParams::paper_default(), plan, &rc).unwrap();
        assert_eq!(
            faulty.arch_checksum,
            clean.arch_checksum,
            "scenario {} corrupted architectural state",
            sc.name()
        );
        // Wide retire can overshoot the instruction budget by a
        // timing-dependent sliver; the checksum above already pins the
        // first `max_instrs` committed instructions bit-for-bit.
        assert!(faulty.stats.retired >= clean.stats.retired.min(rc.max_instrs));
    }
}

/// A component that drains its observations but never predicts: with
/// the fabric's own chicken switch disabled and `StallPolicy::Stall`,
/// an FST-hit branch stalls fetch forever — the canonical should-hang
/// fixture. (It must drain ObsQ-R: a deaf component would instead
/// wedge the squash handshake and stall retire at the ROI boundary.)
struct Mute;
impl CustomComponent for Mute {
    fn tick(&mut self, io: &mut FabricIo<'_>) {
        while io.pop_obs().is_some() {}
    }
    fn name(&self) -> &'static str {
        "mute"
    }
}

/// A workload that opens the ROI, spins a while (so a few thousand
/// instructions commit), then fetches an FST-resident conditional
/// branch whose prediction never arrives.
fn wedged_usecase() -> UseCase {
    let mut a = Asm::new(0x1000);
    let halt = a.label();
    let roi_pc = a.here();
    a.li(T0, 200); // RST begin-ROI entry; retiring this enables the fabric
    let spin = a.label();
    a.place(spin);
    a.addi(T0, T0, -1);
    a.bne(T0, X0, spin);
    let branch_pc = a.here();
    a.beq(X0, X0, halt); // FST hit; the mute component never predicts it
    a.bind(halt).unwrap();
    a.halt();
    let mut fst = BTreeSet::new();
    fst.insert(branch_pc);
    let mut rst = BTreeMap::new();
    rst.insert(roi_pc, RstEntry::dest().begin());
    UseCase::new(
        "wedge",
        a.finish().unwrap(),
        SpecMemory::new(),
        fst,
        rst,
        Arc::new(|| Box::new(Mute)),
    )
}

/// Fabric parameters that let the wedge actually wedge: the paper's
/// §2.4 chicken switch is off, so only the runner's commit watchdog
/// stands between the stall and a 200 M-cycle spin.
fn wedge_params() -> FabricParams {
    let mut p = FabricParams::paper_default();
    p.stall_policy = StallPolicy::Stall;
    p.watchdog = None;
    p
}

#[test]
fn watchdog_turns_a_wedged_run_into_a_structured_error() {
    let rc = RunConfig {
        commit_watchdog: Some(5_000),
        ..tiny_rc()
    };
    match run_pfm(&wedged_usecase(), wedge_params(), &rc) {
        Err(RunError::Watchdog {
            last_commit_cycle,
            stalled_cycles,
            retired,
        }) => {
            assert!(
                retired >= 2,
                "the pre-branch instructions commit: {retired}"
            );
            assert!(last_commit_cycle > 0);
            assert!(stalled_cycles >= 5_000);
        }
        other => panic!("expected RunError::Watchdog, got {other:?}"),
    }
}

#[test]
fn executor_reports_a_hung_run_after_one_raised_retry() {
    let rc = RunConfig {
        commit_watchdog: Some(2_000),
        ..tiny_rc()
    };
    let factory = UseCaseFactory::new("wedge", "wedge-hang-fixture", wedged_usecase);
    let spec = RunSpec::pfm(factory, wedge_params(), &rc);
    let key = spec.key().to_string();
    let (runs, report) = execute(&[spec], &ExecOptions::serial());
    match runs.outcome(&key) {
        Some(RunOutcome::TimedOut { error, retries }) => {
            assert_eq!(*retries, 1, "one bounded retry at the raised cap");
            assert!(error.is_watchdog(), "final error: {error}");
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.retried, 1);
    let table = report.failure_table();
    assert!(table.contains("watchdog"), "table: {table}");
    assert!(
        report.summary().contains("1 FAILED"),
        "{}",
        report.summary()
    );
}

#[test]
fn executor_isolates_a_panicking_run_and_keeps_going() {
    let rc = tiny_rc();
    let boom = RunSpec::baseline(
        UseCaseFactory::new("boom", "boom-fixture", || {
            panic!("component exploded in build()")
        }),
        &rc,
    );
    let good = RunSpec::baseline(pfm_sim::usecases::libquantum_factory(), &rc);
    let (boom_key, good_key) = (boom.key().to_string(), good.key().to_string());

    // keep_going: the suite completes and the good run still succeeds.
    let opts = ExecOptions {
        jobs: 1,
        progress: false,
        keep_going: true,
        store: None,
    };
    let (runs, report) = execute(&[boom.clone(), good.clone()], &opts);
    match runs.outcome(&boom_key) {
        Some(RunOutcome::Panicked(msg)) => {
            assert!(msg.contains("component exploded"), "payload: {msg}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert!(runs.get(&good_key).is_ok(), "good run must still complete");
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.skipped, 0);

    // Without keep_going (serial): the failure aborts the claim loop
    // and the good run surfaces as skipped, not silently absent.
    let (runs, report) = execute(&[boom, good], &ExecOptions::serial());
    assert!(runs.outcome(&good_key).is_none());
    assert_eq!(report.skipped, 1);
    assert!(
        report.summary().contains("1 skipped"),
        "{}",
        report.summary()
    );
}

#[test]
fn environmental_outcomes_are_never_persisted_to_the_store() {
    use pfm_sim::store::{CodeFingerprint, ResultStore};

    let rc = RunConfig {
        commit_watchdog: Some(2_000),
        ..tiny_rc()
    };
    let hang = RunSpec::pfm(
        UseCaseFactory::new("wedge", "wedge-hang-fixture", wedged_usecase),
        wedge_params(),
        &rc,
    );
    let boom = RunSpec::baseline(
        UseCaseFactory::new("boom", "boom-fixture", || {
            panic!("component exploded in build()")
        }),
        &rc,
    );
    let dir = std::env::temp_dir().join(format!("pfm-chaos-env-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ResultStore::open(&dir, CodeFingerprint::fixed(3)).unwrap());
    let opts = ExecOptions {
        keep_going: true,
        ..ExecOptions::serial()
    }
    .with_store(Arc::clone(&store));

    let (runs, report) = execute(&[hang.clone(), boom.clone()], &opts);
    assert!(matches!(
        runs.outcome(hang.key()),
        Some(RunOutcome::TimedOut { .. })
    ));
    assert!(matches!(
        runs.outcome(boom.key()),
        Some(RunOutcome::Panicked(_))
    ));
    assert_eq!(report.store_misses, 2);
    assert_eq!(
        store.len(),
        0,
        "TimedOut/Panicked are environmental verdicts and must not be cached"
    );

    // A warm re-run through a fresh handle re-simulates instead of
    // replaying a stale environmental verdict.
    let store2 = Arc::new(ResultStore::open(&dir, CodeFingerprint::fixed(3)).unwrap());
    let opts2 = ExecOptions {
        keep_going: true,
        ..ExecOptions::serial()
    }
    .with_store(store2);
    let (_, warm) = execute(&[hang, boom], &opts2);
    assert_eq!(warm.store_hits, 0, "nothing to hit: nothing was stored");
    assert_eq!(warm.store_misses, 2, "the warm run simulates again");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retry_runs_at_the_raised_cap_and_is_surfaced() {
    let rc = RunConfig {
        commit_watchdog: Some(2_000),
        ..tiny_rc()
    };
    let spec = RunSpec::pfm(
        UseCaseFactory::new("wedge", "wedge-hang-fixture", wedged_usecase),
        wedge_params(),
        &rc,
    );
    // The single bounded retry runs at a cap raised 32x, to 64 000
    // cycles. The final hang verdict carries the stall length, which
    // pins the cap actually used.
    let cap = 2_000 * RETRY_WATCHDOG_FACTOR;
    let opts = ExecOptions {
        keep_going: true,
        ..ExecOptions::serial()
    };
    let (runs, report) = execute(std::slice::from_ref(&spec), &opts);
    match runs.outcome(spec.key()) {
        Some(RunOutcome::TimedOut { error, retries }) => {
            assert_eq!(*retries, 1);
            match error {
                RunError::Watchdog { stalled_cycles, .. } => {
                    assert!(
                        (cap..2 * cap).contains(stalled_cycles),
                        "retry must use the raised {cap}-cycle cap, stalled {stalled_cycles}"
                    );
                }
                other => panic!("expected Watchdog, got {other:?}"),
            }
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    let summary = report.summary();
    assert!(
        summary.contains("1 watchdog retry across 1 run(s)"),
        "retries must be surfaced in the summary: {summary}"
    );
}

#[test]
fn chaos_smoke_plan_assembles_with_every_checksum_intact() {
    let rc = tiny_rc();
    let plan = plan_for("chaos-smoke", &rc).expect("chaos-smoke is registered");
    let (experiments, report) = run_plans(vec![plan], &ExecOptions::serial());
    assert!(report.failures.is_empty(), "{}", report.failure_table());
    let exp = experiments
        .into_iter()
        .next()
        .unwrap()
        .expect("chaos smoke must assemble");
    assert_eq!(exp.rows.len(), FaultScenario::ALL.len());
    for row in &exp.rows {
        assert!(
            row.extra.contains("checksum OK"),
            "{}: {}",
            row.label,
            row.extra
        );
    }
}
