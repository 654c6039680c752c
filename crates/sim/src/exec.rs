//! Deduplicating, panic-isolating parallel executor for [`RunSpec`]s.
//!
//! The executor is the "execute" stage of plan → execute → assemble:
//! it collapses the requested specs to the unique set by content key
//! (first-seen order), then drains that set across scoped worker
//! threads. Every run is independent and internally deterministic, so
//! results are identical for any `--jobs` value — the worker count
//! only changes wall-clock time.
//!
//! Hardening (the chaos harness depends on all three):
//! * every run executes behind `catch_unwind`, so a panicking
//!   component or workload factory produces a [`RunOutcome::Panicked`]
//!   entry instead of killing the suite;
//! * a run that trips the forward-progress watchdog is retried once at
//!   a raised cap (an extreme-but-legitimate stall looks identical to
//!   a hang until given more rope), then recorded as
//!   [`RunOutcome::TimedOut`];
//! * after the first failure, workers stop claiming new runs unless
//!   [`ExecOptions::keep_going`] is set; abandoned runs surface as
//!   [`crate::plan::PlanError::MissingRun`] at assembly time, and the
//!   [`ExecReport`] carries a failure table either way.

use crate::experiments::Experiment;
use crate::plan::{ExperimentPlan, PlanError, RunOutcome, RunSet, RunSpec};
use crate::store::ResultStore;
use pfm_isa::fxhash::FxHashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Watchdog multiplier for the executor's single bounded retry of a
/// watchdog-failed run: an extreme-but-legitimate stall looks like a
/// hang until it is given more rope.
pub const RETRY_WATCHDOG_FACTOR: u64 = 32;

/// Executor knobs.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Worker threads. Values are clamped to at least 1.
    pub jobs: usize,
    /// Emit per-run progress lines on stderr.
    pub progress: bool,
    /// Keep claiming new runs after a failure (the `--keep-going`
    /// behavior). When false, in-flight runs finish but no new runs
    /// start once any run fails.
    pub keep_going: bool,
    /// Content-addressed result store. When set, every unique spec is
    /// probed before simulation — hits are served from the store at
    /// memory speed, misses simulate and are appended for next time.
    /// Caching is invisible to results: a hit carries the exact
    /// outcome the simulation produced when it was recorded, and runs
    /// are deterministic, so warm and cold runs assemble bit-identical
    /// statistics.
    pub store: Option<Arc<ResultStore>>,
}

impl ExecOptions {
    /// Serial, quiet execution (tests and single small plans).
    pub fn serial() -> ExecOptions {
        ExecOptions {
            jobs: 1,
            progress: false,
            keep_going: false,
            store: None,
        }
    }

    /// This options set with the given store attached.
    pub fn with_store(mut self, store: Arc<ResultStore>) -> ExecOptions {
        self.store = Some(store);
        self
    }
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        ExecOptions {
            jobs,
            progress: false,
            keep_going: false,
            store: None,
        }
    }
}

/// Timing of one executed (unique) run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Content key of the run.
    pub key: String,
    /// Use-case name.
    pub name: String,
    /// Simulation time in seconds (including any retry).
    pub seconds: f64,
}

/// One failed run, for the report table.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// Content key of the run.
    pub key: String,
    /// Use-case name.
    pub name: String,
    /// Human-readable outcome ([`RunOutcome::describe`]).
    pub outcome: String,
    /// Watchdog retries performed.
    pub retries: u32,
}

/// What the executor did: dedup factor, per-run timings, failures.
#[derive(Clone, Debug, Default)]
pub struct ExecReport {
    /// Runs requested across all plans (before dedup).
    pub requested: usize,
    /// Unique runs actually simulated.
    pub unique: usize,
    /// Worker threads used (none when the store served every run).
    pub jobs: usize,
    /// End-to-end wall-clock seconds.
    pub wall_seconds: f64,
    /// Per-run timings for executed runs, in plan (first-seen) order.
    pub runs: Vec<RunReport>,
    /// Runs that did not complete, in plan order.
    pub failures: Vec<FailureReport>,
    /// Unique runs never started (abandoned after a failure without
    /// `keep_going`).
    pub skipped: usize,
    /// Watchdog retries performed across all runs.
    pub retried: usize,
    /// A result store was attached for this execution.
    pub store_enabled: bool,
    /// Unique runs served from the result store without simulating.
    pub store_hits: usize,
    /// Unique runs that missed the store and had to simulate.
    pub store_misses: usize,
    /// Store appends that failed (results were still computed and
    /// used; only the cache write was lost).
    pub store_errors: usize,
}

impl ExecReport {
    /// Runs skipped because an identical run was already planned.
    pub fn deduped(&self) -> usize {
        self.requested - self.unique
    }

    /// Total simulation seconds across all runs (≥ wall-clock when
    /// workers overlap).
    pub fn sim_seconds(&self) -> f64 {
        // fold, not sum(): an empty sum() is -0.0, which renders as
        // "-0.0s" for run-less plans like table4.
        self.runs
            .iter()
            .map(|r| r.seconds)
            .fold(0.0, |acc, s| acc + s)
    }

    /// One-line summary, e.g. for `repro`.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} runs requested, {} unique ({} deduped), {} job(s), {:.1}s wall ({:.1}s simulated)",
            self.requested,
            self.unique,
            self.deduped(),
            self.jobs,
            self.wall_seconds,
            self.sim_seconds()
        );
        if self.store_enabled {
            s.push_str(&format!(
                "; store: {} hit(s), {} miss(es)",
                self.store_hits, self.store_misses
            ));
            if self.store_errors > 0 {
                s.push_str(&format!(", {} append error(s)", self.store_errors));
            }
        }
        if self.retried > 0 {
            s.push_str(&format!(
                "; {} watchdog retr{} across {} run(s)",
                self.retried,
                if self.retried == 1 { "y" } else { "ies" },
                self.unique
            ));
        }
        if !self.failures.is_empty() || self.skipped > 0 {
            s.push_str(&format!(
                "; {} FAILED, {} skipped",
                self.failures.len(),
                self.skipped,
            ));
        }
        s
    }

    /// Multi-line failure table (empty string when everything passed).
    pub fn failure_table(&self) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let mut out = String::from("failed runs:\n");
        for f in &self.failures {
            let retry = if f.retries > 0 {
                format!(" [retried {}x]", f.retries)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:<22} {}{}\n      key: {}\n",
                f.name, f.outcome, retry, f.key
            ));
        }
        out.push_str(&format!(
            "  {} failed / {} executed / {} skipped",
            self.failures.len(),
            self.runs.len(),
            self.skipped
        ));
        out
    }
}

/// Collapses `specs` to the unique set by content key, preserving
/// first-seen order.
pub fn dedup_specs(specs: &[RunSpec]) -> Vec<RunSpec> {
    unique_specs(specs).into_iter().cloned().collect()
}

/// The first spec of each content key, in first-seen order, borrowed:
/// dedup hashes each key once and clones nothing.
fn unique_specs(specs: &[RunSpec]) -> Vec<&RunSpec> {
    let mut seen = FxHashSet::with_capacity_and_hasher(specs.len(), Default::default());
    specs.iter().filter(|s| seen.insert(s.key())).collect()
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes one spec in isolation: panics are caught, and a
/// watchdog-tripped run gets one retry at a cap raised by
/// [`RETRY_WATCHDOG_FACTOR`]. Returns the outcome and the number of
/// retries performed.
fn run_isolated(spec: &RunSpec) -> (RunOutcome, u32) {
    match catch_unwind(AssertUnwindSafe(|| spec.execute())) {
        Err(payload) => (RunOutcome::Panicked(panic_message(payload)), 0),
        Ok(Ok(r)) => (RunOutcome::Ok(r), 0),
        Ok(Err(e)) if e.is_watchdog() => {
            let raised = spec.raised_watchdog();
            match catch_unwind(AssertUnwindSafe(|| spec.execute_with_watchdog(raised))) {
                Err(payload) => (RunOutcome::Panicked(panic_message(payload)), 1),
                Ok(Ok(r)) => (RunOutcome::Ok(r), 1),
                Ok(Err(e2)) if e2.is_hang() => (
                    RunOutcome::TimedOut {
                        error: e2,
                        retries: 1,
                    },
                    1,
                ),
                Ok(Err(e2)) => (RunOutcome::Failed(e2), 1),
            }
        }
        Ok(Err(e)) if e.is_hang() => (
            RunOutcome::TimedOut {
                error: e,
                retries: 0,
            },
            0,
        ),
        Ok(Err(e)) => (RunOutcome::Failed(e), 0),
    }
}

/// Executes the unique subset of `specs` and returns the outcomes
/// plus a report.
///
/// Work is distributed over `opts.jobs` scoped threads by an atomic
/// work index (no thread starts when the store serves every spec);
/// each unique spec is executed exactly once. Determinism is per-run,
/// so the schedule cannot affect any statistic. A failing
/// run never takes the process down: it is recorded as its
/// [`RunOutcome`] and (without [`ExecOptions::keep_going`]) stops
/// workers from claiming further runs.
pub fn execute(specs: &[RunSpec], opts: &ExecOptions) -> (RunSet, ExecReport) {
    let unique = unique_specs(specs);
    let total = unique.len();
    // pfm-lint: allow(determinism): feeds the wall-clock report only, never results
    let started = Instant::now();

    // Probe the result store first: hits resolve at memory speed and
    // never occupy a worker; only the missing indices are scheduled.
    // A hit carries the exact outcome recorded when the run was first
    // simulated, so warm and cold executions are bit-identical.
    type Slot = OnceLock<(RunOutcome, u32, f64)>;
    let slots: Vec<Slot> = (0..total).map(|_| OnceLock::new()).collect();
    let mut pending: Vec<usize> = Vec::with_capacity(total);
    let mut store_hits = 0;
    for (idx, spec) in unique.iter().enumerate() {
        let cached = opts.store.as_deref().and_then(|s| s.get(spec.key()));
        match cached {
            Some(outcome) => {
                store_hits += 1;
                if opts.progress {
                    eprintln!("  [cache] {} (hit)  {}", spec.name(), spec.key());
                }
                slots[idx]
                    .set((outcome, 0, 0.0))
                    // pfm-lint: allow(hygiene): idx is visited exactly once here
                    .expect("run slot written twice");
            }
            None => pending.push(idx),
        }
    }
    let store_misses = pending.len();
    // An execution the store serves wholly starts no worker: starting
    // and joining one costs more than serving the hits.
    let jobs = opts.jobs.max(1).min(pending.len());

    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let store_errors = AtomicUsize::new(0);
    // A cached failure fails the execution exactly like a fresh one:
    // without keep_going, no new simulations start.
    let cached_failure = slots
        .iter()
        .filter_map(|s| s.get())
        .any(|(outcome, _, _)| !outcome.is_ok());
    let abort = AtomicBool::new(cached_failure);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                if !opts.keep_going && abort.load(Ordering::Relaxed) {
                    break;
                }
                let at = next.fetch_add(1, Ordering::Relaxed);
                let Some(&idx) = pending.get(at) else {
                    break;
                };
                let spec = unique[idx];
                // pfm-lint: allow(determinism): feeds the wall-clock report only, never results
                let t0 = Instant::now();
                let (outcome, retries) = run_isolated(spec);
                let secs = t0.elapsed().as_secs_f64();
                if !outcome.is_ok() {
                    abort.store(true, Ordering::Relaxed);
                }
                if let Some(store) = opts.store.as_deref() {
                    // Deterministic outcomes (success or structured
                    // failure) are cacheable; a lost append only costs
                    // a future re-simulation. Environmental outcomes
                    // (TimedOut, a local panic) are NOT persisted:
                    // caching a watchdog verdict would make one slow
                    // machine's budget permanent for every warm run
                    // after it.
                    if !outcome.is_environmental() && store.put(spec.key(), &outcome).is_err() {
                        store_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if opts.progress {
                    let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                    let status = if outcome.is_ok() { "" } else { "FAIL " };
                    eprintln!(
                        "  [{n}/{}] {status}{} ({:.1}s)  {}",
                        pending.len(),
                        spec.name(),
                        secs,
                        spec.key()
                    );
                }
                slots[idx]
                    .set((outcome, retries, secs))
                    // pfm-lint: allow(hygiene): each idx is claimed by exactly one worker
                    .expect("run slot written twice");
            });
        }
    });

    let mut runs = RunSet::with_capacity(total);
    let mut reports = Vec::with_capacity(pending.len());
    let mut failures = Vec::new();
    let mut skipped = 0;
    let mut retried = 0;
    let mut simulated = vec![false; total];
    for &idx in &pending {
        simulated[idx] = true;
    }
    for ((spec, slot), simulated) in unique.into_iter().zip(slots).zip(simulated) {
        let Some((outcome, retries, seconds)) = slot.into_inner() else {
            skipped += 1; // abandoned after an earlier failure
            continue;
        };
        retried += retries as usize;
        // Only simulated runs carry a timing row; hits are free.
        if simulated {
            reports.push(RunReport {
                key: spec.key().to_string(),
                name: spec.name().to_string(),
                seconds,
            });
        }
        if !outcome.is_ok() {
            failures.push(FailureReport {
                key: spec.key().to_string(),
                name: spec.name().to_string(),
                outcome: outcome.describe(),
                retries,
            });
        }
        runs.insert(spec.key().to_string(), outcome);
    }

    let report = ExecReport {
        requested: specs.len(),
        unique: total,
        jobs,
        wall_seconds: started.elapsed().as_secs_f64(),
        runs: reports,
        failures,
        skipped,
        retried,
        store_enabled: opts.store.is_some(),
        store_hits,
        store_misses,
        store_errors: store_errors.into_inner(),
    };
    (runs, report)
}

/// Plans → assembled experiments: gathers every plan's specs, executes
/// the deduplicated union, and assembles each experiment from the
/// shared [`RunSet`]. An experiment whose runs failed (or were
/// abandoned) assembles to its [`PlanError`]; the others still
/// assemble — partial results survive individual failures.
pub fn run_plans(
    plans: Vec<ExperimentPlan>,
    opts: &ExecOptions,
) -> (Vec<Result<Experiment, PlanError>>, ExecReport) {
    let specs: Vec<RunSpec> = plans
        .iter()
        .flat_map(|p| p.specs().iter().cloned())
        .collect();
    let (runs, report) = execute(&specs, opts);
    let experiments = plans.into_iter().map(|p| p.assemble(&runs)).collect();
    (experiments, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;
    use crate::store::CodeFingerprint;
    use crate::usecases;
    use std::sync::atomic::AtomicU64;

    fn tiny_rc() -> RunConfig {
        RunConfig {
            max_instrs: 20_000,
            ..RunConfig::test_scale()
        }
    }

    #[test]
    fn executor_dedups_identical_specs() {
        let rc = tiny_rc();
        let uc = usecases::libquantum_factory();
        let spec = RunSpec::baseline(uc, &rc);
        let specs = vec![spec.clone(), spec.clone(), spec];
        let (runs, report) = execute(&specs, &ExecOptions::serial());
        assert_eq!(report.requested, 3);
        assert_eq!(report.unique, 1);
        assert_eq!(report.deduped(), 2);
        assert_eq!(runs.len(), 1);
        assert!(report.failures.is_empty());
        assert!(report.failure_table().is_empty());
    }

    #[test]
    fn repeated_execution_is_deterministic() {
        let rc = tiny_rc();
        let spec = RunSpec::pfm(
            usecases::libquantum_factory(),
            pfm_fabric::FabricParams::paper_default(),
            &rc,
        );
        let a = spec.execute().unwrap();
        let b = spec.execute().unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.hier, b.hier);
        assert_eq!(a.fabric, b.fabric);
        assert_eq!(a.arch_checksum, b.arch_checksum);
    }

    #[test]
    fn parallel_and_serial_execution_agree() {
        let rc = tiny_rc();
        let specs = vec![
            RunSpec::baseline(usecases::libquantum_factory(), &rc),
            RunSpec::pfm(
                usecases::libquantum_factory(),
                pfm_fabric::FabricParams::paper_default(),
                &rc,
            ),
            RunSpec::baseline(usecases::lbm_factory(), &rc),
        ];
        let (serial, _) = execute(&specs, &ExecOptions::serial());
        let (parallel, report) = execute(
            &specs,
            &ExecOptions {
                jobs: 3,
                ..ExecOptions::serial()
            },
        );
        assert_eq!(report.unique, 3);
        for spec in &specs {
            let a = serial.get(spec.key()).unwrap();
            let b = parallel.get(spec.key()).unwrap();
            assert_eq!(a.stats, b.stats, "core stats diverged for {}", spec.key());
            assert_eq!(
                a.hier,
                b.hier,
                "hierarchy stats diverged for {}",
                spec.key()
            );
            assert_eq!(
                a.fabric,
                b.fabric,
                "fabric stats diverged for {}",
                spec.key()
            );
        }
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pfm-exec-test-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_store_serves_identical_results_without_simulating() {
        let rc = tiny_rc();
        let specs = vec![
            RunSpec::baseline(usecases::libquantum_factory(), &rc),
            RunSpec::pfm(
                usecases::libquantum_factory(),
                pfm_fabric::FabricParams::paper_default(),
                &rc,
            ),
        ];
        let dir = temp_store_dir("warm");
        let store = Arc::new(ResultStore::open(&dir, CodeFingerprint::fixed(7)).unwrap());
        let opts = ExecOptions::serial().with_store(Arc::clone(&store));

        // Cold: everything misses, simulates, and is appended.
        let (cold, cold_report) = execute(&specs, &opts);
        assert_eq!(cold_report.store_hits, 0);
        assert_eq!(cold_report.store_misses, 2);
        assert_eq!(cold_report.store_errors, 0);
        assert_eq!(cold_report.runs.len(), 2);
        assert_eq!(store.len(), 2);

        // Warm, through a fresh handle (forces the on-disk path):
        // everything hits, nothing simulates, stats are bit-identical.
        let store2 = Arc::new(ResultStore::open(&dir, CodeFingerprint::fixed(7)).unwrap());
        let opts2 = ExecOptions::serial().with_store(store2);
        let (warm, warm_report) = execute(&specs, &opts2);
        assert_eq!(warm_report.store_hits, 2);
        assert_eq!(warm_report.store_misses, 0);
        assert!(
            warm_report.runs.is_empty(),
            "hits must not produce timing rows"
        );
        assert_eq!(cold_report.jobs, 1);
        assert_eq!(warm_report.jobs, 0, "no worker starts when nothing misses");
        for spec in &specs {
            let a = cold.get(spec.key()).unwrap();
            let b = warm.get(spec.key()).unwrap();
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.hier, b.hier);
            assert_eq!(a.fabric, b.fabric);
            assert_eq!(a.arch_checksum, b.arch_checksum);
            assert_eq!(a.completed, b.completed);
        }
        let summary = warm_report.summary();
        assert!(
            summary.contains("store: 2 hit(s), 0 miss(es)"),
            "summary must carry hit/miss accounting: {summary}"
        );
    }

    #[test]
    fn stale_fingerprint_forces_resimulation() {
        let rc = tiny_rc();
        let specs = vec![RunSpec::baseline(usecases::libquantum_factory(), &rc)];
        let dir = temp_store_dir("stale");
        let store = Arc::new(ResultStore::open(&dir, CodeFingerprint::fixed(1)).unwrap());
        let (_, r1) = execute(&specs, &ExecOptions::serial().with_store(store));
        assert_eq!(r1.store_misses, 1);

        // Same store dir, different code fingerprint: the old record
        // must not be served.
        let store = Arc::new(ResultStore::open(&dir, CodeFingerprint::fixed(2)).unwrap());
        let (_, r2) = execute(&specs, &ExecOptions::serial().with_store(store));
        assert_eq!(r2.store_hits, 0);
        assert_eq!(r2.store_misses, 1);
    }

    #[test]
    fn concurrent_executors_share_one_store_without_losing_records() {
        // Two executors, each with its own handle on the same store
        // directory, run overlapping spec sets in parallel. Every
        // record must survive append interleaving: a fresh handle
        // afterwards sees all keys with intact payloads.
        let rc = tiny_rc();
        let dir = temp_store_dir("concurrent");
        let specs_a = vec![
            RunSpec::baseline(usecases::libquantum_factory(), &rc),
            RunSpec::baseline(usecases::lbm_factory(), &rc),
        ];
        let specs_b = vec![
            RunSpec::baseline(usecases::libquantum_factory(), &rc),
            RunSpec::pfm(
                usecases::lbm_factory(),
                pfm_fabric::FabricParams::paper_default(),
                &rc,
            ),
        ];
        let fp = CodeFingerprint::fixed(9);
        std::thread::scope(|scope| {
            for specs in [&specs_a, &specs_b] {
                let dir = &dir;
                scope.spawn(move || {
                    let store = Arc::new(ResultStore::open(dir, fp).unwrap());
                    let opts = ExecOptions {
                        jobs: 2,
                        ..ExecOptions::serial()
                    }
                    .with_store(store);
                    execute(specs, &opts);
                });
            }
        });

        let store = ResultStore::open(&dir, fp).unwrap();
        let report = store.open_report();
        assert_eq!(report.skipped, 0, "no interleaved/damaged records");
        // 3 unique keys across both executors; the shared key may have
        // been written by both (duplicate appends are fine — identical
        // payloads, last write wins).
        assert_eq!(store.len(), 3);
        for spec in specs_a.iter().chain(&specs_b) {
            assert!(
                store.get(spec.key()).is_some(),
                "lost record for {}",
                spec.key()
            );
        }
    }
}
