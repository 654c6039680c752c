//! Sampled detailed simulation: functional fast-forward to evenly
//! spaced checkpoint positions, cycle-simulate a bounded detailed
//! interval at each (in parallel, through the deduplicating executor),
//! and assemble a whole-program IPC estimate with per-interval
//! variance and a confidence interval.
//!
//! This is the two-speed payoff: a 20 M-instruction workload that
//! would take minutes of detailed simulation is characterized in
//! seconds — one functional pass at interpreter speed plus
//! `N` short detailed windows that together cover a few percent of the
//! instruction stream. The methodology is deliberately SimPoint-shaped
//! (the paper evaluates on 100 M-instruction SimPoints): systematic
//! sampling with detailed warm-up, rather than phase classification.
//!
//! A sampled run samples one detailed [`RunSpec`] — baseline, PFM or
//! chaos — and each interval is that spec started from a snapshot
//! ([`RunSpec::interval`]): the same machine and attachment, run by
//! the same driver, under a key that extends the spec's. Each interval
//! restores the *architectural* snapshot captured by the fast-forward
//! and starts with cold caches, TLB, branch history and fabric; the
//! first `warmup_instrs` retired instructions warm those structures.
//! Every counter set of an interval (`stats`, `hier`, `fabric`,
//! `faults`) covers the measured window only: each is diffed against
//! its value at the end of warm-up
//! ([`pfm_core::SimStats::delta_since`] and its siblings).

use crate::exec::{execute, ExecOptions};
use crate::plan::{PlanError, RunSpec};
use crate::runner::RunError;
use pfm_isa::FastExec;
use std::sync::Arc;
use std::time::Instant;

/// Sampling-run shape: how far to fast-forward, how many detailed
/// intervals to scatter over that stream, and how large each is.
#[derive(Clone, Debug)]
pub struct SampledConfig {
    /// Functional instruction horizon: checkpoints are spread evenly
    /// over the first `total_instrs` retired instructions (or the
    /// whole program, if it halts earlier).
    pub total_instrs: u64,
    /// Number of detailed intervals (checkpoint positions).
    pub intervals: u32,
    /// Measured retired instructions per detailed interval.
    pub interval_instrs: u64,
    /// Detailed warm-up instructions retired (and diffed out) before
    /// each interval's measurement starts.
    pub warmup_instrs: u64,
}

impl SampledConfig {
    /// The acceptance-scale configuration: a 20 M-instruction stream
    /// sampled by 8 detailed intervals of 500 k instructions, each
    /// after a 100 k-instruction warm-up (so detailed simulation
    /// covers 24 % of the stream and the remaining 76 % runs at
    /// functional speed).
    pub fn paper_scale() -> SampledConfig {
        SampledConfig {
            total_instrs: 20_000_000,
            intervals: 8,
            interval_instrs: 500_000,
            warmup_instrs: 100_000,
        }
    }

    /// A small shape for tests.
    pub fn test_scale() -> SampledConfig {
        SampledConfig {
            total_instrs: 400_000,
            intervals: 4,
            interval_instrs: 20_000,
            warmup_instrs: 5_000,
        }
    }
}

impl Default for SampledConfig {
    fn default() -> SampledConfig {
        SampledConfig::paper_scale()
    }
}

/// A failed sampled run.
#[derive(Clone, Debug)]
pub enum SampledError {
    /// The functional fast-forward faulted.
    Exec(RunError),
    /// A detailed interval failed (hang, fault, panic).
    Interval(PlanError),
    /// The configuration is degenerate (zero intervals or zero-length
    /// windows).
    Config(&'static str),
}

impl std::fmt::Display for SampledError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampledError::Exec(e) => write!(f, "functional fast-forward failed: {e}"),
            SampledError::Interval(e) => write!(f, "detailed interval failed: {e}"),
            SampledError::Config(msg) => write!(f, "bad sampled configuration: {msg}"),
        }
    }
}

impl std::error::Error for SampledError {}

/// One measured detailed interval.
#[derive(Clone, Debug)]
pub struct IntervalRow {
    /// Retired-instruction position of the snapshot this interval
    /// started from.
    pub position: u64,
    /// Instructions retired in the measured window (after warm-up).
    pub retired: u64,
    /// Cycles elapsed in the measured window.
    pub cycles: u64,
    /// Whether the workload halted inside this interval.
    pub completed: bool,
}

impl IntervalRow {
    /// IPC of the measured window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

/// The assembled result of a sampled run.
#[derive(Clone, Debug)]
pub struct SampledReport {
    /// Use-case name.
    pub name: String,
    /// Instructions retired by the functional fast-forward (the
    /// sampled stream's length; less than the configured horizon if
    /// the workload halted early).
    pub functional_instrs: u64,
    /// Whether the workload ran to completion during the fast-forward.
    pub functional_completed: bool,
    /// Per-interval measurements, in stream order.
    pub rows: Vec<IntervalRow>,
    /// Wall-clock seconds for the whole sampled run (fast-forward +
    /// parallel detailed intervals).
    pub wall_seconds: f64,
}

impl SampledReport {
    /// Mean of the per-interval IPCs (the sampled whole-program IPC
    /// estimate).
    pub fn mean_ipc(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(IntervalRow::ipc).sum::<f64>() / self.rows.len() as f64
    }

    /// Unbiased sample variance of the per-interval IPCs.
    pub fn ipc_variance(&self) -> f64 {
        let n = self.rows.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean_ipc();
        self.rows
            .iter()
            .map(|r| {
                let d = r.ipc() - mean;
                d * d
            })
            .sum::<f64>()
            / (n - 1) as f64
    }

    /// Half-width of the normal-approximation 95 % confidence interval
    /// on the mean IPC: `1.96 * sqrt(s^2 / n)`.
    pub fn ci95_half_width(&self) -> f64 {
        let n = self.rows.len();
        if n < 2 {
            return 0.0;
        }
        1.96 * (self.ipc_variance() / n as f64).sqrt()
    }

    /// Total detailed instructions measured across intervals.
    pub fn detailed_instrs(&self) -> u64 {
        self.rows.iter().map(|r| r.retired).sum()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut s = format!(
            "sampled run: {} — {} functional instrs{}, {} detailed interval(s)\n",
            self.name,
            self.functional_instrs,
            if self.functional_completed {
                " (ran to completion)"
            } else {
                ""
            },
            self.rows.len()
        );
        s.push_str(&format!(
            "{:>12}  {:>10}  {:>10}  {:>6}  {:>9}\n",
            "position", "retired", "cycles", "ipc", "completed"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:>12}  {:>10}  {:>10}  {:>6.3}  {:>9}\n",
                r.position,
                r.retired,
                r.cycles,
                r.ipc(),
                if r.completed { "yes" } else { "no" }
            ));
        }
        s.push_str(&format!(
            "mean IPC {:.4} ± {:.4} (95% CI over {} intervals), {:.1}s wall\n",
            self.mean_ipc(),
            self.ci95_half_width(),
            self.rows.len(),
            self.wall_seconds
        ));
        s
    }
}

/// Runs `base` in sampled mode: one functional fast-forward of its
/// use-case capturing a machine snapshot at each of `cfg.intervals`
/// evenly spaced positions, then one [`RunSpec::interval`] of `base`
/// per snapshot (its machine, attachment and hang guards, measuring
/// `cfg.interval_instrs`), executed in parallel through the
/// deduplicating executor and assembled into a mean IPC with a 95 %
/// confidence interval.
///
/// # Errors
/// [`SampledError::Config`] for degenerate shapes or a `base` that is
/// not a detailed run from reset, [`SampledError::Exec`] if the
/// functional pass faults, and [`SampledError::Interval`] if any
/// detailed interval fails.
pub fn run_sampled(
    base: &RunSpec,
    cfg: &SampledConfig,
    opts: &ExecOptions,
) -> Result<SampledReport, SampledError> {
    if cfg.intervals == 0 {
        return Err(SampledError::Config("intervals must be at least 1"));
    }
    if cfg.interval_instrs == 0 || cfg.total_instrs == 0 {
        return Err(SampledError::Config("instruction budgets must be non-zero"));
    }
    // pfm-lint: allow(determinism): feeds the wall-clock report only, never results
    let started = Instant::now();

    // Functional fast-forward, snapshotting at each checkpoint
    // position: k * (total / N) for k in 0..N. Position 0 samples the
    // program's cold start; the stride places the last checkpoint one
    // stride before the horizon so its interval has stream to measure.
    let uc = base.usecase().build();
    let stride = (cfg.total_instrs / u64::from(cfg.intervals)).max(1);
    let mut fx = FastExec::new(uc.program.clone(), uc.memory.clone());
    let mut checkpoints: Vec<(u64, Arc<Vec<u8>>)> = Vec::new();
    for k in 0..u64::from(cfg.intervals) {
        let target = k * stride;
        if target > fx.retired() {
            fx.run(target - fx.retired())
                .map_err(|e| SampledError::Exec(RunError::Exec(e.to_string())))?;
        }
        if fx.retired() < target && fx.halted() {
            break; // program ended before this checkpoint
        }
        checkpoints.push((fx.retired(), Arc::new(fx.snapshot())));
    }
    // Finish the functional pass to the horizon so the report states
    // how much stream the sample represents.
    if fx.retired() < cfg.total_instrs {
        fx.run(cfg.total_instrs - fx.retired())
            .map_err(|e| SampledError::Exec(RunError::Exec(e.to_string())))?;
    }

    // Detailed intervals, in parallel through the executor. Each spec
    // carries its snapshot by Arc; the content hash in the key keeps
    // distinct machine states from ever deduplicating.
    let specs = checkpoints
        .iter()
        .map(|(pos, snap)| {
            base.interval(
                Arc::clone(snap),
                *pos,
                cfg.warmup_instrs,
                cfg.interval_instrs,
            )
        })
        .collect::<Option<Vec<RunSpec>>>()
        .ok_or(SampledError::Config(
            "only a detailed run from reset can be sampled",
        ))?;
    let (runs, _report) = execute(&specs, opts);

    let mut rows = Vec::with_capacity(specs.len());
    for ((pos, _), spec) in checkpoints.iter().zip(&specs) {
        let r = runs.get(spec.key()).map_err(SampledError::Interval)?;
        rows.push(IntervalRow {
            position: *pos,
            retired: r.stats.retired,
            cycles: r.stats.cycles,
            completed: r.completed,
        });
    }

    Ok(SampledReport {
        name: uc.name.clone(),
        functional_instrs: fx.retired(),
        functional_completed: fx.halted(),
        rows,
        wall_seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;
    use crate::usecases;
    use pfm_fabric::{FabricParams, FaultPlan, FaultScenario};
    use pfm_workloads::graphs::{road_graph, shuffle_labels_fraction};
    use pfm_workloads::{bfs, BfsParams, UseCaseFactory};

    #[test]
    fn sampled_astar_assembles_intervals_with_ci() {
        let cfg = SampledConfig::test_scale();
        let rc = RunConfig::test_scale();
        let base = RunSpec::baseline(usecases::astar_custom_factory(), &rc);
        let rep = run_sampled(&base, &cfg, &ExecOptions::serial()).expect("sampled run");
        assert_eq!(rep.rows.len(), cfg.intervals as usize);
        // (position, retired, cycles) per interval, pinned bit for bit.
        let pinned: Vec<_> = rep
            .rows
            .iter()
            .map(|r| (r.position, r.retired, r.cycles))
            .collect();
        assert_eq!(
            pinned,
            [
                (0, 19999, 35021),
                (100000, 19999, 57121),
                (200000, 20000, 56400),
                (300000, 20000, 67094)
            ]
        );
        assert!(rep.mean_ipc() > 0.0);
        assert!(rep.ci95_half_width() >= 0.0);
        assert!(rep.functional_instrs >= cfg.total_instrs.min(rep.functional_instrs));
        let rendered = rep.render();
        assert!(rendered.contains("mean IPC"), "render: {rendered}");
    }

    #[test]
    fn intervals_run_and_name_their_base_specs_machine() {
        // A small Roads-like graph whose search is mid-ROI at the
        // snapshot, so a PFM interval arms within its warm-up.
        let graph = shuffle_labels_fraction(&road_graph(200, 200, 100, 7), 11, 0.05);
        let params = BfsParams {
            source: 5,
            start_level: 60,
            ..BfsParams::default()
        };
        let key = params.key("roads(200x200+100,seed7,shuf11@0.05)");
        let uc = UseCaseFactory::new("bfs-small", key, move || bfs(&graph, "roads", &params));
        let built = uc.build();
        let mut fx = FastExec::new(built.program.clone(), built.memory.clone());
        fx.run(50_000).unwrap();
        let snap = Arc::new(fx.snapshot());

        let rc = RunConfig::test_scale();
        let fabric = FabricParams::paper_default();
        let base = RunSpec::baseline(uc.clone(), &rc);
        let pfm = RunSpec::pfm(uc.clone(), fabric.clone(), &rc);
        let interval = |spec: &RunSpec| spec.interval(Arc::clone(&snap), 50_000, 5_000, 20_000);
        let (bi, pi) = (interval(&base).unwrap(), interval(&pfm).unwrap());
        assert_ne!(bi.key(), pi.key());
        assert!(bi.key().contains("|baseline|"), "{}", bi.key());
        assert!(pi.key().contains(&fabric.key()), "{}", pi.key());
        let measured = RunConfig {
            max_instrs: 20_000,
            ..rc.clone()
        };
        let base_key = RunSpec::baseline(uc.clone(), &measured).key().to_string();
        assert!(bi
            .key()
            .starts_with(&format!("{base_key}|interval@50000+w5000|snap")));

        let b = bi.execute().unwrap();
        let p = pi.execute().unwrap();
        assert!(b.fabric.is_none());
        let f = p.fabric.expect("a PFM interval attaches the fabric");
        assert!(f.retired_in_roi > 0, "the PFM interval arms");
        assert!(p.ipc() > b.ipc(), "PFM {} vs baseline {}", p.ipc(), b.ipc());
        // Both restore the same architectural snapshot and the fabric
        // never changes architectural state, so the two warm-up legs
        // commit the same stream.
        assert_eq!(b.arch_checksum, p.arch_checksum);

        // Every counter set covers the measured window only: it is the
        // difference of two unwarmed runs from the same snapshot that
        // stop where the warm-up and the window stop.
        let run = |spec: &RunSpec, warmup, instrs| {
            let spec = spec.interval(Arc::clone(&snap), 50_000, warmup, instrs);
            spec.unwrap().execute().unwrap()
        };
        let (short, long) = (run(&pfm, 0, 5_000), run(&pfm, 0, 25_000));
        assert_eq!(p.stats, long.stats.delta_since(&short.stats));
        assert_eq!(p.hier, long.hier.delta_since(&short.hier));
        assert_eq!(f, long.fabric.unwrap().delta_since(&short.fabric.unwrap()));
        let plan = FaultPlan::new(FaultScenario::DelayPackets, 3);
        let chaos = RunSpec::chaos(uc.clone(), fabric.clone(), plan, &rc);
        let (short, long) = (run(&chaos, 0, 5_000), run(&chaos, 0, 25_000));
        let (sq, lq) = (short.faults.unwrap(), long.faults.unwrap());
        assert!(sq.delayed > 0, "faults fire during the warm-up");
        assert_eq!(run(&chaos, 5_000, 20_000).faults, Some(lq.delta_since(&sq)));

        // No spec describes a run the driver cannot perform.
        assert!(interval(&bi).is_none(), "no interval of an interval");
        assert!(interval(&RunSpec::functional(uc, &rc)).is_none());
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let cfg = SampledConfig {
            total_instrs: 100_000,
            intervals: 2,
            interval_instrs: 10_000,
            warmup_instrs: 2_000,
        };
        let base = RunSpec::baseline(usecases::libquantum_factory(), &RunConfig::test_scale());
        let a = run_sampled(&base, &cfg, &ExecOptions::serial()).unwrap();
        let b = run_sampled(&base, &cfg, &ExecOptions::serial()).unwrap();
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.position, y.position);
            assert_eq!(x.retired, y.retired);
            assert_eq!(x.cycles, y.cycles, "interval timing must be reproducible");
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let f = RunSpec::baseline(usecases::astar_custom_factory(), &RunConfig::test_scale());
        let zero_n = SampledConfig {
            intervals: 0,
            ..SampledConfig::test_scale()
        };
        assert!(matches!(
            run_sampled(&f, &zero_n, &ExecOptions::serial()),
            Err(SampledError::Config(_))
        ));
        let zero_i = SampledConfig {
            interval_instrs: 0,
            ..SampledConfig::test_scale()
        };
        assert!(matches!(
            run_sampled(&f, &zero_i, &ExecOptions::serial()),
            Err(SampledError::Config(_))
        ));
    }
}
