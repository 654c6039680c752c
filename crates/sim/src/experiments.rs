//! The paper's evaluation as a table: one [`EXPERIMENTS`] entry per
//! table and figure (then the ablations and the experiments run only
//! when named) holds its id, title, paper claim, group and plan
//! function. A plan function *describes* its experiment: the keyed
//! [`RunSpec`]s it needs and its rows, each a
//! label plus a [`Measure`] that names the runs the row reads.
//! One assembler turns a measure's completed runs into a printable
//! [`Row`]. The executor ([`crate::exec`]) deduplicates runs shared
//! between experiments — the astar baseline, requested by
//! fig2/fig8/fig9/fig10/fig18 and the ablations, is simulated once —
//! and [`crate::exec::run_plans`] is the one way to execute them.
//!
//! Speedups follow the paper's convention: percentage IPC improvement
//! over the baseline core, which sits at 0%.

use crate::plan::{ExperimentPlan, PlanError, RunHandle, RunSet, RunSpec};
use crate::runner::{CtxMode, CtxStats, RunConfig, RunResult};
use crate::usecases;
use pfm_fabric::{FabricParams, FabricStats, FaultPlan, FaultScenario, PortPolicy, StallPolicy};
use pfm_fpga::{designs, power, table4_designs, Design, EnergyModel};
use pfm_workloads::{AstarParams, AstarVariant, UseCaseFactory};

/// One labeled data point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Bar/row label (paper notation, e.g. `clk4_w4`).
    pub label: String,
    /// Primary value (usually % IPC improvement).
    pub value: f64,
    /// Free-form extra columns.
    pub extra: String,
}

/// A regenerated table or figure.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Paper identifier (e.g. `fig8`, `table2`).
    pub id: &'static str,
    /// Title as in the paper.
    pub title: &'static str,
    /// The paper's reported numbers, for side-by-side comparison.
    pub paper: &'static str,
    /// Regenerated rows.
    pub rows: Vec<Row>,
}

impl Experiment {
    /// Renders the experiment as aligned text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} — {} ==\n   (paper: {})\n",
            self.id, self.title, self.paper
        );
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<22} {:>8.1}  {}\n",
                r.label, r.value, r.extra
            ));
        }
        out
    }
}

/// Which invocations run an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// A table or figure of the paper: [`plans_all`] and `repro --all`
    /// run it.
    Paper,
    /// Design-choice ablations: `repro --all` runs them, [`plans_all`]
    /// does not.
    Ablations,
    /// Run only when named, so `repro --all` keeps its paper scale: the
    /// chaos and context-switch experiments.
    OnRequest,
}

/// One experiment of [`EXPERIMENTS`].
#[derive(Debug)]
pub struct Entry {
    /// Paper identifier and `repro` argument (e.g. `fig8`, `table2`).
    pub id: &'static str,
    /// Title as in the paper.
    pub title: &'static str,
    /// The paper's reported numbers, for side-by-side comparison.
    pub paper: &'static str,
    /// Which invocations run it.
    pub group: Group,
    /// Requests its runs and declares its rows.
    declare: fn(&mut ExperimentPlan, &RunConfig),
}

impl Entry {
    /// This experiment's plan at run configuration `rc`.
    pub fn plan(&'static self, rc: &RunConfig) -> ExperimentPlan {
        let mut plan = ExperimentPlan::new(self);
        (self.declare)(&mut plan, rc);
        plan
    }
}

/// Every experiment, in `repro` order: the paper's tables and figures
/// in paper order, then the ablations, then the experiments run only
/// when named.
pub static EXPERIMENTS: [Entry; 16] = [
    Entry {
        id: "fig2",
        title: "Speedups of PFM and Slipstream 2.0",
        paper: "astar: PFM 154%, slipstream 18%; bfs: PFM up to 125%, slipstream smaller",
        group: Group::Paper,
        declare: plan_fig2,
    },
    Entry {
        id: "fig8",
        title: "astar speedup vs. custom-predictor C and W",
        paper: "clk4_w1/clk8_w1 slowdowns; clk4_w2 99%, clk4_w3 155%, clk4_w4 163%; perfBP 162%",
        group: Group::Paper,
        declare: plan_fig8,
    },
    Entry {
        id: "table2",
        title: "astar: FST and RST snoop percentages",
        paper: "RST 20.3% of retired in ROI; FST 15.5% of fetched in ROI",
        group: Group::Paper,
        declare: plan_table2,
    },
    Entry {
        id: "fig9",
        title: "astar speedup vs. D, Q and P",
        paper: "delay8 still 138%; resistant to queue size; ports not an issue (portLS1 154%)",
        group: Group::Paper,
        declare: plan_fig9,
    },
    Entry {
        id: "fig10",
        title: "astar speedup vs. index_queue entries",
        paper: "8 entries adequate for most of the speedup potential",
        group: Group::Paper,
        declare: plan_fig10,
    },
    Entry {
        id: "fig12",
        title: "bfs speedup: oracles and custom component C/W",
        paper: "Roads: perfBP 11%, perfD$ 152%, both 426%, custom up to 125%; clk4_w2 close to clk4_w4",
        group: Group::Paper,
        declare: plan_fig12,
    },
    Entry {
        id: "table3",
        title: "bfs: FST and RST snoop percentages",
        paper: "RST 31% of retired in ROI; FST 13% of fetched in ROI",
        group: Group::Paper,
        declare: plan_table3,
    },
    Entry {
        id: "fig13",
        title: "bfs speedup vs. D, Q and P",
        paper: "low sensitivity to all three",
        group: Group::Paper,
        declare: plan_fig13,
    },
    Entry {
        id: "fig14",
        title: "bfs speedup vs. frontier/neighbor queue entries",
        paper: "performance scales with the queue sizes",
        group: Group::Paper,
        declare: plan_fig14,
    },
    Entry {
        id: "fig17",
        title: "custom prefetcher speedups vs. C and W",
        paper: "positive speedups, very resistant to C and W",
        group: Group::Paper,
        declare: plan_fig17,
    },
    Entry {
        id: "table4",
        title: "Hardware overhead using FPGA for RF (value = freq MHz)",
        paper: "astar(4wide) 6249 LUT/3523 FF/500 MHz/251 mW; astar-alt 1064/700/17.5 BRAM/498; prefetchers 150-300 LUT, 628-731 MHz",
        group: Group::Paper,
        declare: plan_table4,
    },
    Entry {
        id: "fig18",
        title: "core+RF energy normalized to baseline core (value = ratio)",
        paper: "all designs below 1.0: less misspeculation + shorter runtime",
        group: Group::Paper,
        declare: plan_fig18,
    },
    Entry {
        id: "ablations",
        title: "design-choice ablations (speedup vs. each row's baseline)",
        paper: "(not in the paper: DESIGN.md ablation list)",
        group: Group::Ablations,
        declare: plan_ablations,
    },
    Entry {
        id: "chaos",
        title: "graceful degradation under injected fabric faults (value = % IPC change)",
        paper: CHAOS_PAPER,
        group: Group::OnRequest,
        declare: plan_chaos,
    },
    Entry {
        id: "chaos-smoke",
        title: "chaos smoke: libquantum × every fault scenario (value = % IPC change)",
        paper: CHAOS_PAPER,
        group: Group::OnRequest,
        declare: plan_chaos_smoke,
    },
    Entry {
        id: "context-switch",
        title: "astar+bfs time-sharing the fabric slot (value = % IPC vs no-fabric)",
        paper: "(not in the paper: runtime reconfiguration under a phase-detection scheduler)",
        group: Group::OnRequest,
        declare: plan_context_switch,
    },
];

/// The plan for one experiment id.
///
/// # Errors
/// [`PlanError::UnknownExperiment`] for an id outside [`EXPERIMENTS`].
pub fn plan_for(id: &str, rc: &RunConfig) -> Result<ExperimentPlan, PlanError> {
    match EXPERIMENTS.iter().find(|e| e.id == id) {
        Some(e) => Ok(e.plan(rc)),
        None => Err(PlanError::UnknownExperiment { id: id.to_string() }),
    }
}

/// Plans for every paper experiment ([`Group::Paper`]), in paper order.
pub fn plans_all(rc: &RunConfig) -> Vec<ExperimentPlan> {
    EXPERIMENTS
        .iter()
        .filter(|e| e.group == Group::Paper)
        .map(|e| e.plan(rc))
        .collect()
}

/// What a declared row reads, by [`RunHandle`], and how it becomes the
/// row's value and extra columns. A measure reads its run before its
/// base.
#[derive(Clone, Debug)]
pub enum Measure {
    /// % IPC improvement of `run` over `base`, with `run`'s IPC and
    /// MPKI.
    Speedup {
        /// The measured run.
        run: RunHandle,
        /// The baseline it is compared against.
        base: RunHandle,
    },
    /// % of ROI retires the RST snooped in a PFM run.
    RstShare(RunHandle),
    /// % of ROI fetches the FST snooped in a PFM run.
    FstShare(RunHandle),
    /// A design's estimated frequency (MHz), resources and power.
    Fpga(Design),
    /// Core + RF energy of the PFM `run` normalized to `base`, with the
    /// speedup.
    Energy {
        /// The PFM run.
        run: RunHandle,
        /// Its baseline run.
        base: RunHandle,
        /// The component's FPGA design.
        design: Design,
        /// Core cycles per RF cycle.
        clk_ratio: u64,
    },
    /// % IPC change of a fault-injected `run` over its fault-free
    /// `clean` run, whose committed checksums must be equal
    /// ([`PlanError::ArchMismatch`] otherwise).
    Chaos {
        /// The fault-injected run.
        run: RunHandle,
        /// The same use case without faults.
        clean: RunHandle,
        /// The injected fault scenario.
        scenario: &'static str,
    },
    /// A context-switch arm's % IPC over the no-fabric `base`. Every
    /// tenant's committed checksum must equal its no-fabric one
    /// ([`PlanError::ArchMismatch`] otherwise).
    ContextSwitch {
        /// The arm's run.
        run: RunHandle,
        /// The no-fabric run.
        base: RunHandle,
        /// The arm's tag in a mismatch report.
        arm: &'static str,
        /// Whether one row per scheduling phase follows the arm's row.
        phases: bool,
    },
}

impl Measure {
    /// [`Measure::Speedup`] of `run` over `base`.
    pub fn speedup(run: RunHandle, base: &RunHandle) -> Measure {
        Measure::Speedup {
            run,
            base: base.clone(),
        }
    }

    /// The runs this measure reads, in the order it reads them.
    pub fn runs(&self) -> Vec<&RunHandle> {
        match self {
            Measure::Speedup { run, base }
            | Measure::Energy { run, base, .. }
            | Measure::ContextSwitch { run, base, .. } => vec![run, base],
            Measure::Chaos { run, clean, .. } => vec![run, clean],
            Measure::RstShare(run) | Measure::FstShare(run) => vec![run],
            Measure::Fpga(_) => Vec::new(),
        }
    }
}

/// The typed failure of a run whose result lacks the `what` counters a
/// row reads.
fn lacks(run: &RunHandle, what: &str) -> PlanError {
    PlanError::RunFailed {
        key: run.key().to_string(),
        outcome: format!("run carries no {what} statistics"),
    }
}

fn fabric_of(run: &RunHandle, runs: &RunSet) -> Result<FabricStats, PlanError> {
    run.of(runs)?.fabric.ok_or_else(|| lacks(run, "fabric"))
}

fn ctx_of<'a>(run: &RunHandle, r: &'a RunResult) -> Result<&'a CtxStats, PlanError> {
    r.ctx.as_ref().ok_or_else(|| lacks(run, "context-switch"))
}

impl Measure {
    /// The assembler: appends the row `label`, valued from completed
    /// runs, to `out` (and, for a context-switch arm with `phases`, one
    /// row per phase after it).
    pub(crate) fn assemble(
        &self,
        label: &str,
        runs: &RunSet,
        out: &mut Vec<Row>,
    ) -> Result<(), PlanError> {
        let mut phase_rows = Vec::new();
        let (value, extra) = match self {
            Measure::Speedup { run, base } => {
                let (r, base) = (run.of(runs)?, base.of(runs)?);
                let extra = format!("IPC {:.3}  MPKI {:.2}", r.ipc(), r.stats.mpki());
                (r.speedup_over(base), extra)
            }
            Measure::RstShare(run) => (fabric_of(run, runs)?.rst_hit_pct(), String::new()),
            Measure::FstShare(run) => (fabric_of(run, runs)?.fst_hit_pct(), String::new()),
            Measure::Fpga(d) => {
                let r = d.resources();
                let p = power(d);
                let extra = format!(
                    "LUT {:>5}  FF {:>5}  BRAM {:>5.1}  DSP {}  dyn(logic) {:>5.0} mW  dyn(I/O) {:>4.0} mW  static {:>4.0} mW",
                    r.lut, r.ff, r.bram, r.dsp, p.dynamic_logic_mw, p.dynamic_io_mw, p.static_mw
                );
                (d.frequency_mhz(), extra)
            }
            Measure::Energy {
                run,
                base,
                design,
                clk_ratio,
            } => {
                let (pfm, base) = (run.of(runs)?, base.of(runs)?);
                let energy = EnergyModel::default().normalized_pfm_energy(
                    (&base.stats, &base.hier),
                    (&pfm.stats, &pfm.hier),
                    design,
                    *clk_ratio,
                );
                (energy, format!("speedup +{:.0}%", pfm.speedup_over(base)))
            }
            Measure::Chaos {
                run,
                clean,
                scenario,
            } => {
                let (faulty, clean) = (run.of(runs)?, clean.of(runs)?);
                if faulty.arch_checksum != clean.arch_checksum {
                    return Err(PlanError::ArchMismatch {
                        name: label.to_string(),
                        scenario,
                        expected: clean.arch_checksum,
                        actual: faulty.arch_checksum,
                    });
                }
                let f = faulty.faults.unwrap_or_default();
                let extra = format!(
                    "checksum OK  injected {:>5}  (inv {} garb {} wild {} drop {} delay {} dup {} stuck {} spike {})",
                    f.injected(),
                    f.inverted,
                    f.garbled,
                    f.wild,
                    f.dropped,
                    f.delayed,
                    f.duplicated,
                    f.stuck_ticks,
                    f.spike_ticks,
                );
                (faulty.speedup_over(clean), extra)
            }
            Measure::ContextSwitch {
                run,
                base,
                arm,
                phases,
            } => {
                let (r, b) = (run.of(runs)?, base.of(runs)?);
                let (ctx, bctx) = (ctx_of(run, r)?, ctx_of(base, b)?);
                for (t, bt) in ctx.tenants.iter().zip(&bctx.tenants) {
                    if t.checksum != bt.checksum {
                        return Err(PlanError::ArchMismatch {
                            name: format!("{} under {label}", t.name),
                            scenario: arm,
                            expected: bt.checksum,
                            actual: t.checksum,
                        });
                    }
                }
                if *phases {
                    for (i, p) in ctx.phases.iter().enumerate() {
                        let ipc = if p.cycles > 0 {
                            p.retired as f64 / p.cycles as f64
                        } else {
                            0.0
                        };
                        phase_rows.push(Row {
                            label: format!("  p{i} {}", p.tenant),
                            value: ipc,
                            extra: format!("phase IPC  retired {}  cycles {}", p.retired, p.cycles),
                        });
                    }
                }
                let f = r.fabric.unwrap_or_default();
                let per_tenant = ctx
                    .tenants
                    .iter()
                    .enumerate()
                    .map(|(i, t)| format!("{} {:.3}", t.name, ctx.tenant_ipc(i)))
                    .collect::<Vec<_>>()
                    .join("  ");
                let extra = format!(
                    "checksum OK  IPC {:.3}  {per_tenant}  swaps {}  reconfig {} cycles  decisions {} \
                     (aborts {} spike {} stale-leaks {} corrupted {})",
                    r.ipc(),
                    f.swaps,
                    f.reconfig_cycles,
                    ctx.decisions,
                    f.swap_abort_restarts,
                    f.swap_spike_cycles,
                    f.stale_drain_leaks,
                    ctx.corrupted_decisions,
                );
                (r.speedup_over(b), extra)
            }
        };
        out.push(Row {
            label: label.to_string(),
            value,
            extra,
        });
        out.append(&mut phase_rows);
        Ok(())
    }
}

fn pfm_cfg(c: u64, w: usize) -> FabricParams {
    FabricParams::paper_default()
        .clk_w(c, w)
        .delay(0)
        .queue(32)
        .port(PortPolicy::All)
}

/// Figure 2 plan: speedups of PFM and Slipstream 2.0 on astar and bfs.
fn plan_fig2(p: &mut ExperimentPlan, rc: &RunConfig) {
    let paper_cfg = FabricParams::paper_default(); // clk4_w4 delay4 queue32 portLS1
    let astar_slipstream = usecases::astar_factory(AstarParams {
        variant: AstarVariant::Slipstream,
        ..AstarParams::default()
    });
    for (tag, uc, slipstream) in [
        ("astar", usecases::astar_custom_factory(), astar_slipstream),
        (
            "bfs",
            usecases::bfs_roads_factory(),
            usecases::bfs_roads_slipstream_factory(),
        ),
    ] {
        let base = p.request(RunSpec::baseline(uc.clone(), rc));
        let pfm = p.request(RunSpec::pfm(uc, paper_cfg.clone(), rc));
        let ss = p.request(RunSpec::pfm(slipstream, paper_cfg.clone(), rc));
        p.row(format!("{tag} PFM"), Measure::speedup(pfm, &base));
        p.row(format!("{tag} Slipstream2.0"), Measure::speedup(ss, &base));
    }
}

/// Figure 8 plan: astar speedup for different C and W parameters.
fn plan_fig8(p: &mut ExperimentPlan, rc: &RunConfig) {
    let uc = usecases::astar_custom_factory();
    let base = p.request(RunSpec::baseline(uc.clone(), rc));
    for (c, w) in [(4, 1), (8, 1), (4, 2), (4, 3), (4, 4), (2, 4), (1, 4)] {
        let run = p.request(RunSpec::pfm(uc.clone(), pfm_cfg(c, w), rc));
        p.row(format!("clk{c}_w{w}"), Measure::speedup(run, &base));
    }
    let perf_bp = p.request(RunSpec::baseline(uc, &rc.clone().perfect_bp()));
    p.row("perfBP", Measure::speedup(perf_bp, &base));
}

/// Shared snoop-share plan (Tables 2 and 3 differ only in the use case
/// under test).
fn plan_snoop(p: &mut ExperimentPlan, uc: UseCaseFactory, rc: &RunConfig) {
    let run = p.request(RunSpec::pfm(uc, pfm_cfg(4, 4), rc));
    p.row("% retired in RST", Measure::RstShare(run.clone()));
    p.row("% fetched in FST", Measure::FstShare(run));
}

/// Table 2 plan: astar FST and RST snoop percentages.
fn plan_table2(p: &mut ExperimentPlan, rc: &RunConfig) {
    plan_snoop(p, usecases::astar_custom_factory(), rc)
}

/// Shared D/Q/P sensitivity plan (Figures 9 and 13 differ only in the
/// use case under test).
fn plan_dqp(p: &mut ExperimentPlan, uc: UseCaseFactory, rc: &RunConfig) {
    let base = p.request(RunSpec::baseline(uc.clone(), rc));
    for d in [0u64, 2, 4, 8] {
        let run = p.request(RunSpec::pfm(uc.clone(), pfm_cfg(4, 4).delay(d), rc));
        p.row(format!("(a) delay{d}"), Measure::speedup(run, &base));
    }
    for q in [8usize, 16, 32, 64] {
        let params = pfm_cfg(4, 4).delay(4).queue(q);
        let run = p.request(RunSpec::pfm(uc.clone(), params, rc));
        p.row(format!("(b) queue{q}"), Measure::speedup(run, &base));
    }
    for port in [PortPolicy::All, PortPolicy::Ls, PortPolicy::Ls1] {
        let params = pfm_cfg(4, 4).delay(4).port(port);
        let run = p.request(RunSpec::pfm(uc.clone(), params, rc));
        p.row(
            format!("(c) {}", port.label()),
            Measure::speedup(run, &base),
        );
    }
}

/// Figure 9 plan: astar sensitivity to D (delay), Q (queues) and P
/// (ports).
fn plan_fig9(p: &mut ExperimentPlan, rc: &RunConfig) {
    plan_dqp(p, usecases::astar_custom_factory(), rc)
}

/// Figure 10 plan: astar speedup vs. index_queue entries (speculative
/// scope).
fn plan_fig10(p: &mut ExperimentPlan, rc: &RunConfig) {
    let base = p.request(RunSpec::baseline(usecases::astar_custom_factory(), rc));
    for scope in [2usize, 4, 8, 16] {
        let uc = usecases::astar_factory(AstarParams {
            scope,
            ..AstarParams::default()
        });
        let run = p.request(RunSpec::pfm(uc.clone(), FabricParams::paper_default(), rc));
        p.row(format!("index_queue {scope}"), Measure::speedup(run, &base));
    }
}

/// Figure 12 plan: bfs oracles and C/W sweep (Roads and Youtube
/// inputs).
fn plan_fig12(p: &mut ExperimentPlan, rc: &RunConfig) {
    for (uc, tag) in [
        (usecases::bfs_roads_factory(), "roads"),
        (usecases::bfs_youtube_factory(), "youtube"),
    ] {
        let base = p.request(RunSpec::baseline(uc.clone(), rc));
        for (oracle, orc) in [
            ("perfBP", rc.clone().perfect_bp()),
            ("perfD$", rc.clone().perfect_dcache()),
            ("perfBP+D$", rc.clone().perfect_bp().perfect_dcache()),
        ] {
            let run = p.request(RunSpec::baseline(uc.clone(), &orc));
            p.row(format!("{tag} {oracle}"), Measure::speedup(run, &base));
        }
        for (c, w) in [(4, 1), (4, 2), (4, 4)] {
            let run = p.request(RunSpec::pfm(uc.clone(), pfm_cfg(c, w), rc));
            p.row(format!("{tag} clk{c}_w{w}"), Measure::speedup(run, &base));
        }
    }
}

/// Table 3 plan: bfs FST and RST snoop percentages.
fn plan_table3(p: &mut ExperimentPlan, rc: &RunConfig) {
    plan_snoop(p, usecases::bfs_roads_factory(), rc)
}

/// Figure 13 plan: bfs sensitivity to D, Q and P.
fn plan_fig13(p: &mut ExperimentPlan, rc: &RunConfig) {
    plan_dqp(p, usecases::bfs_roads_factory(), rc)
}

/// Figure 14 plan: bfs speedup vs. the component's queue entries.
fn plan_fig14(p: &mut ExperimentPlan, rc: &RunConfig) {
    let base = p.request(RunSpec::baseline(usecases::bfs_roads_factory(), rc));
    for window in [16usize, 32, 64, 128] {
        let uc = usecases::bfs_roads_window_factory(window);
        let run = p.request(RunSpec::pfm(uc.clone(), FabricParams::paper_default(), rc));
        p.row(
            format!("{window}-entry queues"),
            Measure::speedup(run, &base),
        );
    }
}

/// Figure 17 plan: custom prefetcher speedups for different C and W.
fn plan_fig17(p: &mut ExperimentPlan, rc: &RunConfig) {
    for uc in usecases::prefetch_suite_factories() {
        let base = p.request(RunSpec::baseline(uc.clone(), rc));
        for (c, w) in [(1, 1), (4, 1), (4, 4), (8, 4)] {
            let run = p.request(RunSpec::pfm(uc.clone(), pfm_cfg(c, w), rc));
            p.row(
                format!("{} clk{c}_w{w}", uc.name()),
                Measure::speedup(run, &base),
            );
        }
    }
}

/// Table 4 plan: FPGA resource, frequency and power estimates per
/// design (no simulation runs — the rows come from the FPGA model).
fn plan_table4(p: &mut ExperimentPlan, _rc: &RunConfig) {
    for design in table4_designs() {
        p.row(design.name, Measure::Fpga(design));
    }
}

/// Figure 18 plan: PFM (core + RF) energy normalized to the baseline
/// core.
fn plan_fig18(p: &mut ExperimentPlan, rc: &RunConfig) {
    let astar_alt = usecases::astar_factory(AstarParams {
        variant: AstarVariant::Alt,
        ..AstarParams::default()
    });
    let cases = [
        (
            usecases::astar_custom_factory(),
            FabricParams::paper_default(),
        ),
        (astar_alt, FabricParams::paper_default()),
        (usecases::libquantum_factory(), pfm_cfg(4, 1)),
        (usecases::lbm_factory(), pfm_cfg(4, 1)),
        (usecases::bwaves_factory(), pfm_cfg(4, 1)),
        (usecases::milc_factory(), pfm_cfg(4, 1)),
    ];
    for (uc, params) in cases {
        let clk_ratio = params.clk_ratio;
        let base = p.request(RunSpec::baseline(uc.clone(), rc));
        let run = p.request(RunSpec::pfm(uc.clone(), params, rc));
        // Every case has a design (`fig18_rows_reach_every_table4_design`).
        if let Some(design) = designs::for_usecase(uc.name()) {
            let measure = Measure::Energy {
                run,
                base,
                design,
                clk_ratio,
            };
            p.row(uc.name(), measure);
        }
    }
}

/// Ablations plan: the design choices DESIGN.md calls out — store
/// inference, the missed-load buffer, the fetch stall policy, and the
/// baseline VLDP prefetcher.
fn plan_ablations(p: &mut ExperimentPlan, rc: &RunConfig) {
    // (1) astar index1_CAM store inference on/off.
    let uc = usecases::astar_custom_factory();
    let base = p.request(RunSpec::baseline(uc.clone(), rc));
    let on = p.request(RunSpec::pfm(uc.clone(), FabricParams::paper_default(), rc));
    p.row("astar + inference", Measure::speedup(on, &base));
    let no_inf = usecases::astar_factory(AstarParams {
        store_inference: false,
        ..AstarParams::default()
    });
    let off = p.request(RunSpec::pfm(no_inf, FabricParams::paper_default(), rc));
    p.row("astar - inference", Measure::speedup(off, &base));

    // (2) Load Agent missed-load buffer: shrink it to 2 entries.
    let mut tiny_mlb = FabricParams::paper_default();
    tiny_mlb.mlb_size = 2;
    let tiny = p.request(RunSpec::pfm(uc.clone(), tiny_mlb, rc));
    p.row("astar mlb=2", Measure::speedup(tiny, &base));

    // (3) Fetch Agent stall vs proceed-and-drop (§2.4 alternative).
    let mut pd_params = FabricParams::paper_default();
    pd_params.stall_policy = StallPolicy::ProceedAndDrop;
    let pd = p.request(RunSpec::pfm(uc.clone(), pd_params, rc));
    p.row("astar proceed+drop", Measure::speedup(pd, &base));

    // (4) VLDP's contribution to the libquantum baseline (the custom
    // prefetcher's win shrinks/grows with the baseline prefetchers).
    let libq = usecases::libquantum_factory();
    let libq_base = p.request(RunSpec::baseline(libq.clone(), rc));
    let mut no_vldp = rc.clone();
    no_vldp.hier.vldp = false;
    let novldp = p.request(RunSpec::baseline(libq.clone(), &no_vldp));
    p.row("libq baseline -VLDP", Measure::speedup(novldp, &libq_base));
    let custom_cfg = FabricParams::paper_default()
        .clk_w(4, 1)
        .delay(0)
        .port(PortPolicy::All);
    let custom = p.request(RunSpec::pfm(libq, custom_cfg, rc));
    p.row("libq custom pf", Measure::speedup(custom, &libq_base));
}

/// Seed shared by every chaos-family fault plan. Fixed (not
/// wall-clock, not per-invocation) so chaos runs are reproducible
/// bit-for-bit and the executor can dedup the overlap between `chaos`
/// and `chaos-smoke`.
const CHAOS_SEED: u64 = 0xC4A0_5EED;

/// The paper column of both chaos experiments.
const CHAOS_PAPER: &str =
    "(not in the paper: graceful-degradation proof — faults may cost performance, never correctness)";

/// Shared chaos-family planner: for each use-case, one fault-free PFM
/// run plus one fault-injected run per [`FaultScenario`]. Each row
/// enforces the paper's §3 graceful-degradation guarantee — a
/// misbehaving reconfigurable component may cost performance but can
/// never corrupt architectural state — by requiring the faulty run's
/// committed checksum to be bit-identical to its fault-free
/// counterpart ([`Measure::Chaos`]).
fn plan_chaos_over(p: &mut ExperimentPlan, suite: Vec<UseCaseFactory>, rc: &RunConfig) {
    for uc in suite {
        let params = FabricParams::paper_default();
        let clean = p.request(RunSpec::pfm(uc.clone(), params.clone(), rc));
        for sc in FaultScenario::ALL {
            let run = p.request(RunSpec::chaos(
                uc.clone(),
                params.clone(),
                FaultPlan::new(sc, CHAOS_SEED),
                rc,
            ));
            let measure = Measure::Chaos {
                run,
                clean: clean.clone(),
                scenario: sc.name(),
            };
            p.row(format!("{} {}", uc.name(), sc.name()), measure);
        }
    }
}

/// Chaos plan: every use-case × every fault scenario, asserting
/// committed architectural state stays bit-identical to the fault-free
/// run (value = % IPC change under faults). The use cases are every
/// workload family in the paper (astar, bfs, and the custom-prefetcher
/// suite).
fn plan_chaos(p: &mut ExperimentPlan, rc: &RunConfig) {
    let mut suite = vec![
        usecases::astar_custom_factory(),
        usecases::bfs_roads_factory(),
    ];
    suite.extend(usecases::prefetch_suite_factories());
    plan_chaos_over(p, suite, rc)
}

/// CI-sized chaos smoke: one use-case (libquantum) × every fault
/// scenario.
fn plan_chaos_smoke(p: &mut ExperimentPlan, rc: &RunConfig) {
    plan_chaos_over(p, vec![usecases::libquantum_factory()], rc)
}

/// Context-switch plan: astar and bfs alternate on one core, sharing a
/// single fabric slot. Four arms bracket the cost of runtime
/// reconfiguration — no fabric at all, scheduled swaps at zero cost
/// (oracle), scheduled swaps at the modeled partial-reconfiguration
/// cost, and a slot pinned to a dead-wrong component — plus one
/// mid-swap chaos arm per [`FaultScenario::MID_SWAP`] scenario at the
/// modeled cost. Every arm's row enforces per-tenant committed-checksum
/// bit-identity against the no-fabric arm ([`Measure::ContextSwitch`]):
/// scheduling and mid-swap faults may cost IPC, never correctness.
fn plan_context_switch(p: &mut ExperimentPlan, rc: &RunConfig) {
    let a = usecases::astar_custom_factory();
    let b = usecases::bfs_roads_factory();
    let base = p.request(RunSpec::context_switch(
        a.clone(),
        b.clone(),
        CtxMode::NoFabric,
        None,
        None,
        rc,
    ));
    let measure = Measure::ContextSwitch {
        run: base.clone(),
        base: base.clone(),
        arm: "nofabric",
        phases: true,
    };
    p.row("no-fabric", measure);

    let sched = CtxMode::Sched { zero_cost: false };
    let decoy = usecases::libquantum_factory();
    // (row label, arm tag, mode, mid-swap fault): the fault-free arms,
    // then one chaos arm per mid-swap scenario.
    let mut arms = vec![
        (
            "sched zero-cost".to_string(),
            "sched0",
            CtxMode::Sched { zero_cost: true },
            None,
        ),
        ("sched modeled".to_string(), "sched", sched.clone(), None),
        (
            "pinned libquantum".to_string(),
            "pinned",
            CtxMode::Pinned { decoy },
            None,
        ),
    ];
    for sc in FaultScenario::MID_SWAP {
        // Only ~8 swaps happen per run, so the default rate would often
        // draw zero injections; 600‰ makes every mid-swap scenario
        // actually fire while staying seed-deterministic.
        let fault = FaultPlan::new(sc, CHAOS_SEED).with_rate(600);
        arms.push((
            format!("chaos {}", sc.name()),
            sc.name(),
            sched.clone(),
            Some(fault),
        ));
    }
    for (label, arm, mode, fault) in arms {
        let params = Some(FabricParams::paper_default());
        let run = p.request(RunSpec::context_switch(
            a.clone(),
            b.clone(),
            mode,
            params,
            fault,
            rc,
        ));
        let measure = Measure::ContextSwitch {
            run,
            base: base.clone(),
            arm,
            // Chaos arms report no per-phase rows.
            phases: fault.is_none(),
        };
        p.row(label, measure);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_plans, ExecOptions};

    /// The registered plan for `id`.
    fn plan(id: &str, rc: &RunConfig) -> ExperimentPlan {
        plan_for(id, rc).unwrap()
    }

    /// Executes one plan serially and assembles it.
    fn run(plan: ExperimentPlan) -> Experiment {
        let (mut done, _) = run_plans(vec![plan], &ExecOptions::serial());
        done.remove(0).unwrap()
    }

    #[test]
    fn table4_renders_all_rows() {
        let t = run(plan("table4", &RunConfig::test_scale()));
        assert_eq!(t.rows.len(), 6);
        let s = t.render();
        assert!(s.contains("astar-alt"));
        assert!(s.contains("BRAM"));
    }

    #[test]
    fn table2_snoop_rates_in_paper_ballpark() {
        let rc = RunConfig::test_scale();
        let t = run(plan("table2", &rc));
        let rst = t.rows[0].value;
        let fst = t.rows[1].value;
        assert!(rst > 5.0 && rst < 45.0, "RST {rst}%");
        assert!(fst > 5.0 && fst < 30.0, "FST {fst}%");
    }

    #[test]
    fn shared_astar_baseline_planned_once_across_experiments() {
        // fig2, fig8, fig9 and fig10 all request the astar baseline;
        // the executor must simulate it exactly once. Pure planning
        // assertion — nothing is simulated here.
        let rc = RunConfig::test_scale();
        let plans = [
            plan("fig2", &rc),
            plan("fig8", &rc),
            plan("fig9", &rc),
            plan("fig10", &rc),
            plan("table2", &rc),
        ];
        let specs: Vec<_> = plans
            .iter()
            .flat_map(|p| p.specs().iter().cloned())
            .collect();
        let astar_base_key = RunSpec::baseline(usecases::astar_custom_factory(), &rc)
            .key()
            .to_string();
        let requested = specs
            .iter()
            .filter(|spec| spec.key() == astar_base_key)
            .count();
        assert!(
            requested >= 4,
            "astar baseline should be requested by ≥4 plans, got {requested}"
        );
        let unique = crate::exec::dedup_specs(&specs);
        let executed = unique
            .iter()
            .filter(|spec| spec.key() == astar_base_key)
            .count();
        assert_eq!(executed, 1, "astar baseline must be simulated exactly once");
        assert!(
            unique.len() < specs.len(),
            "dedup should collapse shared runs"
        );
    }

    #[test]
    fn all_ids_resolve_to_plans() {
        let rc = RunConfig::test_scale();
        let mut ids: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "experiment ids are unique");
        for e in &EXPERIMENTS {
            let plan = plan_for(e.id, &rc).unwrap();
            assert_eq!(plan.entry.id, e.id);
        }
        let paper: Vec<_> = EXPERIMENTS
            .iter()
            .filter(|e| e.group == Group::Paper)
            .map(|e| e.id)
            .collect();
        let all: Vec<_> = plans_all(&rc).iter().map(|p| p.entry.id).collect();
        assert_eq!(all, paper, "plans_all is the paper group in registry order");
        match plan_for("fig99", &rc) {
            Err(PlanError::UnknownExperiment { id }) => assert_eq!(id, "fig99"),
            other => panic!("expected UnknownExperiment, got {other:?}"),
        }
    }

    #[test]
    fn rows_name_only_their_own_plans_runs() {
        // Pure planning assertion — nothing is simulated here. A handle
        // outside its plan's specs would only surface at assembly, as
        // `MissingRun`.
        let rc = RunConfig::test_scale();
        for e in &EXPERIMENTS {
            let plan = e.plan(&rc);
            assert!(!plan.rows().is_empty(), "{} declares rows", e.id);
            for (label, measure) in plan.rows() {
                for run in measure.runs() {
                    assert!(
                        plan.specs().iter().any(|s| s.key() == run.key()),
                        "{} row `{label}` reads {}, which its plan does not request",
                        e.id,
                        run.key()
                    );
                }
            }
        }
    }

    #[test]
    fn fig18_rows_reach_every_table4_design() {
        let plan = plan("fig18", &RunConfig::test_scale());
        let reached: Vec<_> = plan
            .rows()
            .iter()
            .map(|(label, measure)| match measure {
                Measure::Energy { design, .. } => design.name,
                other => panic!("fig18 row `{label}` is {other:?}"),
            })
            .collect();
        let table4: Vec<_> = table4_designs().iter().map(|d| d.name).collect();
        assert_eq!(reached, table4);
    }

    #[test]
    fn context_switch_plan_has_four_arms_plus_midswap_chaos() {
        // Pure planning assertion — nothing is simulated here.
        let rc = RunConfig::test_scale();
        let plan = plan("context-switch", &rc);
        assert_eq!(plan.entry.id, "context-switch");
        assert_eq!(
            plan.specs().len(),
            4 + pfm_fabric::FaultScenario::MID_SWAP.len(),
            "no-fabric, sched0, sched, pinned, plus one chaos arm per mid-swap scenario"
        );
        let mut keys: Vec<_> = plan.specs().iter().map(|s| s.key().to_string()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), plan.specs().len(), "ctx arms must never dedup");
        assert!(keys.iter().any(|k| k.contains("|nofabric|")));
        assert!(keys.iter().any(|k| k.contains("|sched0|")));
        assert!(keys.iter().any(|k| k.contains("|pin(")));
        assert!(
            keys.iter()
                .filter(|k| k.contains("chaos("))
                .all(|k| k.contains("|sched|")),
            "chaos arms run at the modeled swap cost"
        );
    }

    #[test]
    fn chaos_plans_pair_every_scenario_with_a_shared_clean_run() {
        // Pure planning assertion — nothing is simulated here. The
        // smoke plan covers one use-case: 1 fault-free PFM run plus one
        // chaos run per scenario, all under distinct keys.
        let rc = RunConfig::test_scale();
        let smoke = plan("chaos-smoke", &rc);
        assert_eq!(
            smoke.specs().len(),
            1 + pfm_fabric::FaultScenario::ALL.len()
        );
        let mut keys: Vec<_> = smoke.specs().iter().map(|s| s.key().to_string()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), smoke.specs().len(), "chaos specs never dedup");

        // The full chaos plan shares its fault-free runs (and therefore
        // dedups against a plain PFM run of the same use-case).
        let full = plan("chaos", &rc);
        assert!(full.specs().len() > smoke.specs().len());
        let smoke_clean = smoke
            .specs()
            .iter()
            .find(|s| !s.key().contains("chaos("))
            .map(|s| s.key().to_string())
            .unwrap();
        assert!(
            full.specs().iter().any(|s| s.key() == smoke_clean),
            "smoke's clean run must dedup into the full chaos plan"
        );
    }
}
