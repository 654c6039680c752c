//! The executor/result-store pass: a workload's run specs executed
//! cold into a fresh store, then warm against the reopened store.

use crate::host_clock;
use crate::sim::stats_digest;
use pfm_sim::exec::{dedup_specs, execute};
use pfm_sim::{CodeFingerprint, ExecOptions, ResultStore, RunSet, RunSpec};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// What one cold + warm pass measured.
#[derive(Clone, Debug, Default)]
pub struct ExecPass {
    /// Seconds to open a fresh store and execute every spec into it.
    pub cold_s: f64,
    /// Seconds of each warm pass (reopen the store, execute from it).
    pub warm_s: Vec<f64>,
    /// Seconds of each warm pass's `ResultStore::open`.
    pub open_s: Vec<f64>,
    /// Runs requested (before dedup).
    pub requested: usize,
    /// Unique runs.
    pub unique: usize,
    /// Sum of per-run simulation seconds in the cold pass.
    pub sim_s: f64,
    /// Cold-pass wall seconds as the executor measured them.
    pub wall_s: f64,
    /// Worker threads the cold pass used.
    pub jobs: usize,
    /// Watchdog retries in the cold pass.
    pub retries: usize,
    /// Store hits over all warm passes.
    pub hits: usize,
    /// Nanoseconds per `ResultStore::get` of a stored key.
    pub get_ns: f64,
    /// Nanoseconds per `ResultStore::put` into a fresh store.
    pub put_ns: f64,
}

fn exec_options(jobs: usize, store: Arc<ResultStore>) -> ExecOptions {
    ExecOptions {
        jobs,
        keep_going: true,
        ..ExecOptions::serial()
    }
    .with_store(store)
}

fn open_store(dir: &Path) -> Result<ResultStore, String> {
    ResultStore::open(dir, CodeFingerprint::of_build())
        .map_err(|e| format!("{}: cannot open store: {e}", dir.display()))
}

/// Digest of every unique run's result, in key order; an error names
/// the first run that did not complete.
fn digests(keys: &[String], runs: &RunSet) -> Result<Vec<u64>, String> {
    keys.iter()
        .map(|k| {
            let r = runs.get(k).map_err(|e| e.to_string())?;
            Ok(stats_digest(
                &r.stats,
                &r.hier,
                r.fabric.as_ref(),
                r.arch_checksum,
            ))
        })
        .collect()
}

/// Executes `specs` cold into a fresh store under `dir`, then
/// `warm_passes` times from the reopened store, checking that every
/// warm pass is served entirely from the store and assembles results
/// bit-identical to the cold ones. `dir` is removed afterwards.
///
/// # Errors
/// A failed run, a store error, or a warm/cold mismatch, as text.
pub fn exec_pass(
    specs: &[RunSpec],
    dir: &Path,
    jobs: usize,
    warm_passes: usize,
) -> Result<ExecPass, String> {
    let result = measure(specs, dir, jobs, warm_passes);
    // A leftover store only costs disk space; the measurement stands.
    let _ = std::fs::remove_dir_all(dir);
    result
}

fn measure(
    specs: &[RunSpec],
    dir: &Path,
    jobs: usize,
    warm_passes: usize,
) -> Result<ExecPass, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cold_dir = dir.join("cold");
    let keys: Vec<String> = dedup_specs(specs)
        .iter()
        .map(|s| s.key().to_string())
        .collect();

    let t = host_clock();
    let store = Arc::new(open_store(&cold_dir)?);
    let (runs, report) = execute(specs, &exec_options(jobs, Arc::clone(&store)));
    let cold_s = t.elapsed().as_secs_f64();
    if let Some(f) = report.failures.first() {
        return Err(format!("{}: {}", f.name, f.outcome));
    }
    if report.store_errors > 0 {
        return Err(format!("{} store append error(s)", report.store_errors));
    }
    let cold = digests(&keys, &runs)?;
    drop(store);

    let mut pass = ExecPass {
        cold_s,
        requested: report.requested,
        unique: report.unique,
        sim_s: report.sim_seconds(),
        wall_s: report.wall_seconds,
        jobs: report.jobs,
        retries: report.retried,
        ..ExecPass::default()
    };
    for _ in 0..warm_passes {
        let t = host_clock();
        let store = open_store(&cold_dir)?;
        pass.open_s.push(t.elapsed().as_secs_f64());
        let (runs, report) = execute(specs, &exec_options(jobs, Arc::new(store)));
        pass.warm_s.push(t.elapsed().as_secs_f64());
        pass.hits += report.store_hits;
        if digests(&keys, &runs)? != cold {
            return Err("warm results differ from cold results".into());
        }
    }

    let store = open_store(&cold_dir)?;
    let t = host_clock();
    let outcomes: Vec<_> = keys.iter().filter_map(|k| store.get(k)).collect();
    pass.get_ns = crate::ratio(t.elapsed().as_nanos() as f64, keys.len() as f64);
    black_box(&outcomes);
    if outcomes.len() != keys.len() {
        return Err("stored results are missing keys".into());
    }

    let fresh = open_store(&dir.join("put"))?;
    let t = host_clock();
    for (k, o) in keys.iter().zip(&outcomes) {
        fresh
            .put(k, o)
            .map_err(|e| format!("store put failed: {e}"))?;
    }
    pass.put_ns = crate::ratio(t.elapsed().as_nanos() as f64, keys.len() as f64);
    Ok(pass)
}
