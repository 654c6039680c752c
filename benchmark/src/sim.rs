//! Timed simulator runs driven through public entry points only: the
//! detailed core advanced in fixed instruction chunks, and the
//! functional executor.

use crate::host_clock;
use crate::trace::{HookTimes, TickTimes, TimedComponent, TimedHooks};
use pfm_core::{Core, NoPfm, PfmHooks, SimStats};
use pfm_fabric::{Fabric, FabricParams, FabricStats};
use pfm_isa::snap::{content_key, Enc};
use pfm_isa::FastExec;
use pfm_mem::{Hierarchy, HierarchyStats};
use pfm_sim::RunConfig;
use pfm_workloads::UseCase;

/// One chunk of a detailed run.
#[derive(Clone, Copy, Debug)]
pub struct Chunk {
    /// Instructions retired in the chunk.
    pub retired: u64,
    /// Host seconds the chunk took.
    pub seconds: f64,
}

/// Everything one detailed run produced.
#[derive(Clone, Debug)]
pub struct Detailed {
    /// Core statistics.
    pub stats: SimStats,
    /// Memory-hierarchy statistics.
    pub hier: HierarchyStats,
    /// Fabric statistics (PFM runs only).
    pub fabric: Option<FabricStats>,
    /// Commit-stream checksum over the budget.
    pub checksum: u64,
    /// Per-chunk host timings.
    pub chunks: Vec<Chunk>,
    /// Hook timings (traced PFM runs only).
    pub hooks: Option<HookTimes>,
    /// Component tick timings (traced PFM runs only).
    pub ticks: Option<TickTimes>,
}

impl Detailed {
    /// Host seconds spent advancing the core.
    pub fn seconds(&self) -> f64 {
        self.chunks.iter().map(|c| c.seconds).sum()
    }

    /// FNV digest of every statistic and the checksum: equal digests
    /// mean bit-identical simulated results.
    pub fn digest(&self) -> u64 {
        stats_digest(&self.stats, &self.hier, self.fabric.as_ref(), self.checksum)
    }
}

/// Content key (FNV-1a) of the encoded core, hierarchy and fabric
/// statistics plus the commit checksum.
pub fn stats_digest(
    stats: &SimStats,
    hier: &HierarchyStats,
    fabric: Option<&FabricStats>,
    checksum: u64,
) -> u64 {
    let mut e = Enc::new();
    stats.snapshot_encode(&mut e);
    hier.snapshot_encode(&mut e);
    if let Some(f) = fabric {
        f.snapshot_encode(&mut e);
    }
    e.u64(checksum);
    content_key(&e.finish())
}

/// A fresh core over `uc` with the run configuration's core and
/// hierarchy, and its fabric when `pfm` is set.
pub fn construct(uc: &UseCase, pfm: bool, rc: &RunConfig) -> (Core, Option<Fabric>) {
    let core = Core::new(
        rc.core.clone(),
        uc.machine(),
        Hierarchy::new(rc.hier.clone()),
    );
    let fabric = pfm.then(|| uc.fabric(FabricParams::paper_default()));
    (core, fabric)
}

/// Runs `uc` on the detailed core for `budget` retired instructions,
/// in chunks of `chunk`, with the same caps and watchdog as
/// `run_baseline`/`run_pfm`, so the results are bit-identical to
/// theirs. `traced` wraps the fabric's hooks and component in timers.
///
/// # Errors
/// The simulator's error, as text.
pub fn run_detailed(
    uc: &UseCase,
    pfm: bool,
    budget: u64,
    chunk: u64,
    traced: bool,
    rc: &RunConfig,
) -> Result<Detailed, String> {
    let (mut core, _) = construct(uc, false, rc);
    core.set_checksum_cap(budget);
    let (chunks, fabric, hooks, ticks) = if !pfm {
        (
            drive(&mut core, &mut NoPfm, budget, chunk, rc)?,
            None,
            None,
            None,
        )
    } else if traced {
        let ticks = TickTimes::default();
        let component = TimedComponent::new(uc.component(), ticks.clone());
        let fabric = Fabric::new(
            FabricParams::paper_default(),
            uc.fst.clone(),
            uc.rst.clone(),
            Box::new(component),
        );
        let mut hooks = TimedHooks::new(fabric);
        let chunks = drive(&mut core, &mut hooks, budget, chunk, rc)?;
        let (fabric, times) = hooks.into_parts();
        (chunks, Some(*fabric.stats()), Some(times), Some(ticks))
    } else {
        let mut fabric = uc.fabric(FabricParams::paper_default());
        let chunks = drive(&mut core, &mut fabric, budget, chunk, rc)?;
        (chunks, Some(*fabric.stats()), None, None)
    };
    Ok(Detailed {
        stats: core.stats().clone(),
        hier: *core.hierarchy().stats(),
        fabric,
        checksum: core.commit_checksum(),
        chunks,
        hooks,
        ticks,
    })
}

fn drive(
    core: &mut Core,
    hooks: &mut dyn PfmHooks,
    budget: u64,
    chunk: u64,
    rc: &RunConfig,
) -> Result<Vec<Chunk>, String> {
    let mut chunks = Vec::new();
    while !core.finished() && core.stats().retired < budget {
        let before = core.stats().retired;
        let target = ((before / chunk + 1) * chunk).min(budget);
        let t = host_clock();
        core.run_watched_until(hooks, target, rc.max_cycles, rc.commit_watchdog)
            .map_err(|e| e.to_string())?;
        chunks.push(Chunk {
            retired: core.stats().retired - before,
            seconds: t.elapsed().as_secs_f64(),
        });
    }
    Ok(chunks)
}

/// One functional run: the checksums at the detailed budget, then the
/// run continued to the functional budget (or halt).
#[derive(Clone, Copy, Debug)]
pub struct Functional {
    /// Commit-stream checksum after `budget` instructions (the
    /// reference every detailed run of the input must match).
    pub checksum: u64,
    /// Architectural-state checksum after `budget` instructions (the
    /// reference the `Machine::step` replay must match).
    pub arch: u64,
    /// Instructions retired in total.
    pub retired: u64,
    /// Host seconds spent executing.
    pub seconds: f64,
}

/// Runs `uc` on `FastExec` to `budget`, records the checksums, then
/// continues to `total` instructions or halt.
///
/// # Errors
/// The executor's error, as text.
pub fn run_functional(uc: &UseCase, budget: u64, total: u64) -> Result<Functional, String> {
    let mut fx = FastExec::new(uc.program.clone(), uc.memory.clone());
    let t = host_clock();
    fx.run(budget).map_err(|e| e.to_string())?;
    let mut seconds = t.elapsed().as_secs_f64();
    let (checksum, arch) = (fx.commit_checksum(), fx.arch_checksum());
    let t = host_clock();
    fx.run(total.saturating_sub(budget))
        .map_err(|e| e.to_string())?;
    seconds += t.elapsed().as_secs_f64();
    Ok(Functional {
        checksum,
        arch,
        retired: fx.retired(),
        seconds,
    })
}
