//! One plan per table and figure of the paper's evaluation: each
//! `plan_*` function *describes* the runs the experiment needs (keyed
//! [`RunSpec`](crate::plan::RunSpec)s) plus a pure assembly closure
//! mapping completed runs to printable rows. The executor
//! ([`crate::exec`]) deduplicates runs shared between experiments —
//! the astar baseline, requested by fig2/fig8/fig9/fig10/fig18 and the
//! ablations, is simulated once.
//!
//! The eager `fig*`/`table*` functions are thin wrappers that plan and
//! execute a single experiment serially; `all` executes every plan
//! through the deduplicating executor. Both paths produce identical
//! rows (runs are deterministic, assembly is pure).
//!
//! Speedups follow the paper's convention: percentage IPC improvement
//! over the baseline core, which sits at 0%.

use crate::exec::{self, ExecOptions};
use crate::plan::{ExperimentPlan, PlanError, RunHandle, SpecSet};
use crate::runner::{RunConfig, RunResult};
use crate::usecases;
use pfm_fabric::{FabricParams, FaultPlan, FaultScenario, PortPolicy, StallPolicy};
use pfm_fpga::{power, table4_designs, EnergyModel};
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

fn pfm_cfg(c: u64, w: usize) -> FabricParams {
    FabricParams::paper_default()
        .clk_w(c, w)
        .delay(0)
        .queue(32)
        .port(PortPolicy::All)
}

fn speedup_row(label: impl Into<String>, r: &RunResult, base: &RunResult) -> Row {
    Row {
        label: label.into(),
        value: r.speedup_over(base),
        extra: format!("IPC {:.3}  MPKI {:.2}", r.ipc(), r.stats.mpki()),
    }
}

/// Plans and executes a single experiment serially (the eager
/// back-compat path).
///
/// # Errors
/// Returns the [`PlanError`] of a failed run or assembly.
fn run_one(plan: ExperimentPlan) -> Result<Experiment, PlanError> {
    let (runs, _) = exec::execute(plan.specs(), &ExecOptions::serial());
    plan.assemble(&runs)
}

/// Figure 2 plan: speedups of PFM and Slipstream 2.0 on astar and bfs.
pub fn plan_fig2(rc: &RunConfig) -> ExperimentPlan {
    let paper_cfg = FabricParams::paper_default(); // clk4_w4 delay4 queue32 portLS1
    let mut s = SpecSet::default();

    let astar = usecases::astar_custom_factory();
    let base = s.baseline(&astar, rc);
    let pfm = s.pfm(&astar, paper_cfg.clone(), rc);
    let slipstream = usecases::astar_factory(AstarParams {
        variant: AstarVariant::Slipstream,
        ..AstarParams::default()
    });
    let ss = s.pfm(&slipstream, paper_cfg.clone(), rc);

    let bfs = usecases::bfs_roads_factory();
    let bbase = s.baseline(&bfs, rc);
    let bpfm = s.pfm(&bfs, paper_cfg.clone(), rc);
    let bss = s.pfm(&usecases::bfs_roads_slipstream_factory(), paper_cfg, rc);

    ExperimentPlan::new(
        "fig2",
        "Speedups of PFM and Slipstream 2.0",
        "astar: PFM 154%, slipstream 18%; bfs: PFM up to 125%, slipstream smaller",
        s,
        move |runs| {
            Ok(vec![
                speedup_row("astar PFM", pfm.of(runs)?, base.of(runs)?),
                speedup_row("astar Slipstream2.0", ss.of(runs)?, base.of(runs)?),
                speedup_row("bfs PFM", bpfm.of(runs)?, bbase.of(runs)?),
                speedup_row("bfs Slipstream2.0", bss.of(runs)?, bbase.of(runs)?),
            ])
        },
    )
}

/// Figure 8 plan: astar speedup for different C and W parameters.
pub fn plan_fig8(rc: &RunConfig) -> ExperimentPlan {
    let uc = usecases::astar_custom_factory();
    let mut s = SpecSet::default();
    let base = s.baseline(&uc, rc);
    let mut sweep: Vec<(String, RunHandle)> = Vec::new();
    for (c, w) in [(4, 1), (8, 1), (4, 2), (4, 3), (4, 4), (2, 4), (1, 4)] {
        sweep.push((format!("clk{c}_w{w}"), s.pfm(&uc, pfm_cfg(c, w), rc)));
    }
    sweep.push((
        "perfBP".to_string(),
        s.baseline(&uc, &rc.clone().perfect_bp()),
    ));
    ExperimentPlan::new(
        "fig8",
        "astar speedup vs. custom-predictor C and W",
        "clk4_w1/clk8_w1 slowdowns; clk4_w2 99%, clk4_w3 155%, clk4_w4 163%; perfBP 162%",
        s,
        move |runs| {
            let base = base.of(runs)?;
            sweep
                .iter()
                .map(|(label, h)| Ok(speedup_row(label.clone(), h.of(runs)?, base)))
                .collect()
        },
    )
}

fn snoop_rows(r: &RunResult) -> Vec<Row> {
    // pfm-lint: allow(hygiene): snoop rows are only assembled from PFM runs
    let f = r.fabric.expect("pfm run");
    vec![
        Row {
            label: "% retired in RST".into(),
            value: f.rst_hit_pct(),
            extra: String::new(),
        },
        Row {
            label: "% fetched in FST".into(),
            value: f.fst_hit_pct(),
            extra: String::new(),
        },
    ]
}

/// Table 2 plan: astar FST and RST snoop percentages.
pub fn plan_table2(rc: &RunConfig) -> ExperimentPlan {
    let mut s = SpecSet::default();
    let r = s.pfm(&usecases::astar_custom_factory(), pfm_cfg(4, 4), rc);
    ExperimentPlan::new(
        "table2",
        "astar: FST and RST snoop percentages",
        "RST 20.3% of retired in ROI; FST 15.5% of fetched in ROI",
        s,
        move |runs| Ok(snoop_rows(r.of(runs)?)),
    )
}

/// Shared D/Q/P sensitivity plan (Figures 9 and 13 differ only in the
/// use-case under test — this helper replaces their former copy-pasted
/// sweep loops).
fn plan_dqp(
    id: &'static str,
    title: &'static str,
    paper: &'static str,
    uc: UseCaseFactory,
    rc: &RunConfig,
) -> ExperimentPlan {
    let mut s = SpecSet::default();
    let base = s.baseline(&uc, rc);
    let mut sweep: Vec<(String, RunHandle)> = Vec::new();
    for d in [0u64, 2, 4, 8] {
        let p = FabricParams::paper_default()
            .clk_w(4, 4)
            .delay(d)
            .queue(32)
            .port(PortPolicy::All);
        sweep.push((format!("(a) delay{d}"), s.pfm(&uc, p, rc)));
    }
    for q in [8usize, 16, 32, 64] {
        let p = FabricParams::paper_default()
            .clk_w(4, 4)
            .delay(4)
            .queue(q)
            .port(PortPolicy::All);
        sweep.push((format!("(b) queue{q}"), s.pfm(&uc, p, rc)));
    }
    for pp in [PortPolicy::All, PortPolicy::Ls, PortPolicy::Ls1] {
        let p = FabricParams::paper_default()
            .clk_w(4, 4)
            .delay(4)
            .queue(32)
            .port(pp);
        sweep.push((format!("(c) {}", pp.label()), s.pfm(&uc, p, rc)));
    }
    ExperimentPlan::new(id, title, paper, s, move |runs| {
        let base = base.of(runs)?;
        sweep
            .iter()
            .map(|(label, h)| Ok(speedup_row(label.clone(), h.of(runs)?, base)))
            .collect()
    })
}

/// Figure 9 plan: astar sensitivity to D (delay), Q (queues) and P
/// (ports).
pub fn plan_fig9(rc: &RunConfig) -> ExperimentPlan {
    plan_dqp(
        "fig9",
        "astar speedup vs. D, Q and P",
        "delay8 still 138%; resistant to queue size; ports not an issue (portLS1 154%)",
        usecases::astar_custom_factory(),
        rc,
    )
}

/// Figure 10 plan: astar speedup vs. index_queue entries (speculative
/// scope).
pub fn plan_fig10(rc: &RunConfig) -> ExperimentPlan {
    let mut s = SpecSet::default();
    let base = s.baseline(&usecases::astar_custom_factory(), rc);
    let mut sweep: Vec<(String, RunHandle)> = Vec::new();
    for scope in [2usize, 4, 8, 16] {
        let uc = usecases::astar_factory(AstarParams {
            scope,
            ..AstarParams::default()
        });
        sweep.push((
            format!("index_queue {scope}"),
            s.pfm(&uc, FabricParams::paper_default(), rc),
        ));
    }
    ExperimentPlan::new(
        "fig10",
        "astar speedup vs. index_queue entries",
        "8 entries adequate for most of the speedup potential",
        s,
        move |runs| {
            let base = base.of(runs)?;
            sweep
                .iter()
                .map(|(label, h)| Ok(speedup_row(label.clone(), h.of(runs)?, base)))
                .collect()
        },
    )
}

/// Figure 12 plan: bfs oracles and C/W sweep (Roads and Youtube
/// inputs).
pub fn plan_fig12(rc: &RunConfig) -> ExperimentPlan {
    let mut s = SpecSet::default();
    // (label, run, that run's baseline)
    let mut sweep: Vec<(String, RunHandle, RunHandle)> = Vec::new();
    for (uc, tag) in [
        (usecases::bfs_roads_factory(), "roads"),
        (usecases::bfs_youtube_factory(), "youtube"),
    ] {
        let base = s.baseline(&uc, rc);
        let pbp = s.baseline(&uc, &rc.clone().perfect_bp());
        sweep.push((format!("{tag} perfBP"), pbp, base.clone()));
        let pd = s.baseline(&uc, &rc.clone().perfect_dcache());
        sweep.push((format!("{tag} perfD$"), pd, base.clone()));
        let both = s.baseline(&uc, &rc.clone().perfect_bp().perfect_dcache());
        sweep.push((format!("{tag} perfBP+D$"), both, base.clone()));
        for (c, w) in [(4, 1), (4, 2), (4, 4)] {
            let r = s.pfm(&uc, pfm_cfg(c, w), rc);
            sweep.push((format!("{tag} clk{c}_w{w}"), r, base.clone()));
        }
    }
    ExperimentPlan::new(
        "fig12",
        "bfs speedup: oracles and custom component C/W",
        "Roads: perfBP 11%, perfD$ 152%, both 426%, custom up to 125%; clk4_w2 close to clk4_w4",
        s,
        move |runs| {
            sweep
                .iter()
                .map(|(label, h, base)| Ok(speedup_row(label.clone(), h.of(runs)?, base.of(runs)?)))
                .collect()
        },
    )
}

/// Table 3 plan: bfs FST and RST snoop percentages.
pub fn plan_table3(rc: &RunConfig) -> ExperimentPlan {
    let mut s = SpecSet::default();
    let r = s.pfm(&usecases::bfs_roads_factory(), pfm_cfg(4, 4), rc);
    ExperimentPlan::new(
        "table3",
        "bfs: FST and RST snoop percentages",
        "RST 31% of retired in ROI; FST 13% of fetched in ROI",
        s,
        move |runs| Ok(snoop_rows(r.of(runs)?)),
    )
}

/// Figure 13 plan: bfs sensitivity to D, Q and P.
pub fn plan_fig13(rc: &RunConfig) -> ExperimentPlan {
    plan_dqp(
        "fig13",
        "bfs speedup vs. D, Q and P",
        "low sensitivity to all three",
        usecases::bfs_roads_factory(),
        rc,
    )
}

/// Figure 14 plan: bfs speedup vs. the component's queue entries.
pub fn plan_fig14(rc: &RunConfig) -> ExperimentPlan {
    let mut s = SpecSet::default();
    let base = s.baseline(&usecases::bfs_roads_factory(), rc);
    let mut sweep: Vec<(String, RunHandle)> = Vec::new();
    for window in [16usize, 32, 64, 128] {
        let uc = usecases::bfs_roads_window_factory(window);
        sweep.push((
            format!("{window}-entry queues"),
            s.pfm(&uc, FabricParams::paper_default(), rc),
        ));
    }
    ExperimentPlan::new(
        "fig14",
        "bfs speedup vs. frontier/neighbor queue entries",
        "performance scales with the queue sizes",
        s,
        move |runs| {
            let base = base.of(runs)?;
            sweep
                .iter()
                .map(|(label, h)| Ok(speedup_row(label.clone(), h.of(runs)?, base)))
                .collect()
        },
    )
}

/// Figure 17 plan: custom prefetcher speedups for different C and W.
pub fn plan_fig17(rc: &RunConfig) -> ExperimentPlan {
    let mut s = SpecSet::default();
    let mut sweep: Vec<(String, RunHandle, RunHandle)> = Vec::new();
    for uc in usecases::prefetch_suite_factories() {
        let base = s.baseline(&uc, rc);
        for (c, w) in [(1, 1), (4, 1), (4, 4), (8, 4)] {
            let r = s.pfm(&uc, pfm_cfg(c, w), rc);
            sweep.push((format!("{} clk{c}_w{w}", uc.name()), r, base.clone()));
        }
    }
    ExperimentPlan::new(
        "fig17",
        "custom prefetcher speedups vs. C and W",
        "positive speedups, very resistant to C and W",
        s,
        move |runs| {
            sweep
                .iter()
                .map(|(label, h, base)| Ok(speedup_row(label.clone(), h.of(runs)?, base.of(runs)?)))
                .collect()
        },
    )
}

/// Table 4 plan: FPGA resource, frequency and power estimates per
/// design (no simulation runs — the rows come from the FPGA model).
pub fn plan_table4() -> ExperimentPlan {
    ExperimentPlan::new(
        "table4",
        "Hardware overhead using FPGA for RF (value = freq MHz)",
        "astar(4wide) 6249 LUT/3523 FF/500 MHz/251 mW; astar-alt 1064/700/17.5 BRAM/498; prefetchers 150-300 LUT, 628-731 MHz",
        SpecSet::default(),
        |_| {
            Ok(table4_designs()
                .iter()
                .map(|d| {
                    let r = d.resources();
                    let p = power(d);
                    Row {
                        label: d.name.to_string(),
                        value: d.frequency_mhz(),
                        extra: format!(
                            "LUT {:>5}  FF {:>5}  BRAM {:>5.1}  DSP {}  dyn(logic) {:>5.0} mW  dyn(I/O) {:>4.0} mW  static {:>4.0} mW",
                            r.lut, r.ff, r.bram, r.dsp, p.dynamic_logic_mw, p.dynamic_io_mw, p.static_mw
                        ),
                    }
                })
                .collect())
        },
    )
}

/// Figure 18 plan: PFM (core + RF) energy normalized to the baseline
/// core.
pub fn plan_fig18(rc: &RunConfig) -> ExperimentPlan {
    let mut cases: Vec<(UseCaseFactory, FabricParams)> = vec![
        (
            usecases::astar_custom_factory(),
            FabricParams::paper_default(),
        ),
        (
            usecases::astar_factory(AstarParams {
                variant: AstarVariant::Alt,
                ..AstarParams::default()
            }),
            FabricParams::paper_default(),
        ),
    ];
    for uc in [
        usecases::libquantum_factory(),
        usecases::lbm_factory(),
        usecases::bwaves_factory(),
        usecases::milc_factory(),
    ] {
        cases.push((uc, pfm_cfg(4, 1)));
    }

    let mut s = SpecSet::default();
    // (use-case name, fabric clock ratio, baseline run, pfm run)
    let mut sweep: Vec<(String, u64, RunHandle, RunHandle)> = Vec::new();
    for (uc, params) in cases {
        let clk_ratio = params.clk_ratio;
        let base = s.baseline(&uc, rc);
        let pfm = s.pfm(&uc, params, rc);
        sweep.push((uc.name().to_string(), clk_ratio, base, pfm));
    }
    ExperimentPlan::new(
        "fig18",
        "core+RF energy normalized to baseline core (value = ratio)",
        "all designs below 1.0: less misspeculation + shorter runtime",
        s,
        move |runs| {
            let model = EnergyModel::default();
            let designs = table4_designs();
            let design_for = |name: &str| {
                designs
                    .iter()
                    .find(|d| match name {
                        "astar" => d.name == "astar (4wide)",
                        "astar-alt" => d.name == "astar-alt",
                        "libquantum" => d.name == "libq",
                        other => d.name == other,
                    })
                    // pfm-lint: allow(hygiene): sweep names match the design table
                    .expect("design exists")
            };
            sweep
                .iter()
                .map(|(name, clk_ratio, bh, ph)| {
                    let base = bh.of(runs)?;
                    let pfm = ph.of(runs)?;
                    let n = model.normalized_pfm_energy(
                        (&base.stats, &base.hier),
                        (&pfm.stats, &pfm.hier),
                        design_for(name),
                        *clk_ratio,
                    );
                    Ok(Row {
                        label: name.clone(),
                        value: n,
                        extra: format!("speedup +{:.0}%", pfm.speedup_over(base)),
                    })
                })
                .collect()
        },
    )
}

/// Ablations plan: the design choices DESIGN.md calls out — store
/// inference, the missed-load buffer, the fetch stall policy, and the
/// baseline VLDP prefetcher.
pub fn plan_ablations(rc: &RunConfig) -> ExperimentPlan {
    let mut s = SpecSet::default();

    // (1) astar index1_CAM store inference on/off.
    let uc = usecases::astar_custom_factory();
    let base = s.baseline(&uc, rc);
    let on = s.pfm(&uc, FabricParams::paper_default(), rc);
    let no_inf = usecases::astar_factory(AstarParams {
        store_inference: false,
        ..AstarParams::default()
    });
    let off = s.pfm(&no_inf, FabricParams::paper_default(), rc);

    // (2) Load Agent missed-load buffer: shrink it to 2 entries.
    let mut tiny_mlb = FabricParams::paper_default();
    tiny_mlb.mlb_size = 2;
    let tiny = s.pfm(&uc, tiny_mlb, rc);

    // (3) Fetch Agent stall vs proceed-and-drop (§2.4 alternative).
    let mut pd_params = FabricParams::paper_default();
    pd_params.stall_policy = StallPolicy::ProceedAndDrop;
    let pd = s.pfm(&uc, pd_params, rc);

    // (4) VLDP's contribution to the libquantum baseline (the custom
    // prefetcher's win shrinks/grows with the baseline prefetchers).
    let libq = usecases::libquantum_factory();
    let libq_base = s.baseline(&libq, rc);
    let mut no_vldp = rc.clone();
    no_vldp.hier.vldp = false;
    let libq_novldp = s.baseline(&libq, &no_vldp);
    let libq_custom = s.pfm(
        &libq,
        FabricParams::paper_default()
            .clk_w(4, 1)
            .delay(0)
            .port(PortPolicy::All),
        rc,
    );

    ExperimentPlan::new(
        "ablations",
        "design-choice ablations (speedup vs. each row's baseline)",
        "(not in the paper: DESIGN.md ablation list)",
        s,
        move |runs| {
            Ok(vec![
                speedup_row("astar + inference", on.of(runs)?, base.of(runs)?),
                speedup_row("astar - inference", off.of(runs)?, base.of(runs)?),
                speedup_row("astar mlb=2", tiny.of(runs)?, base.of(runs)?),
                speedup_row("astar proceed+drop", pd.of(runs)?, base.of(runs)?),
                speedup_row(
                    "libq baseline -VLDP",
                    libq_novldp.of(runs)?,
                    libq_base.of(runs)?,
                ),
                speedup_row("libq custom pf", libq_custom.of(runs)?, libq_base.of(runs)?),
            ])
        },
    )
}

/// Seed shared by every chaos-family fault plan. Fixed (not
/// wall-clock, not per-invocation) so chaos runs are reproducible
/// bit-for-bit and the executor can dedup the overlap between `chaos`
/// and `chaos-smoke`.
const CHAOS_SEED: u64 = 0xC4A0_5EED;

/// The use-cases the full `chaos` experiment exercises: every workload
/// family in the paper (astar, bfs, and the custom-prefetcher suite).
fn chaos_suite() -> Vec<UseCaseFactory> {
    let mut suite = vec![
        usecases::astar_custom_factory(),
        usecases::bfs_roads_factory(),
    ];
    suite.extend(usecases::prefetch_suite_factories());
    suite
}

/// Shared chaos-family planner: for each use-case, one fault-free PFM
/// run plus one fault-injected run per [`FaultScenario`]. Assembly
/// enforces the paper's §3 graceful-degradation guarantee — a
/// misbehaving reconfigurable component may cost performance but can
/// never corrupt architectural state — by requiring every faulty run's
/// committed checksum to be bit-identical to its fault-free
/// counterpart ([`PlanError::ArchMismatch`] otherwise).
fn plan_chaos_over(
    id: &'static str,
    title: &'static str,
    suite: Vec<UseCaseFactory>,
    rc: &RunConfig,
) -> ExperimentPlan {
    let mut s = SpecSet::default();
    // (row label, scenario name, faulty run, that use-case's fault-free run)
    let mut sweep: Vec<(String, &'static str, RunHandle, RunHandle)> = Vec::new();
    for uc in suite {
        let params = FabricParams::paper_default();
        let clean = s.pfm(&uc, params.clone(), rc);
        for sc in FaultScenario::ALL {
            let h = s.chaos(&uc, params.clone(), FaultPlan::new(sc, CHAOS_SEED), rc);
            sweep.push((
                format!("{} {}", uc.name(), sc.name()),
                sc.name(),
                h,
                clean.clone(),
            ));
        }
    }
    ExperimentPlan::new(
        id,
        title,
        "(not in the paper: graceful-degradation proof — faults may cost performance, never correctness)",
        s,
        move |runs| {
            sweep
                .iter()
                .map(|(label, scenario, fh, ch)| {
                    let faulty = fh.of(runs)?;
                    let clean = ch.of(runs)?;
                    if faulty.arch_checksum != clean.arch_checksum {
                        return Err(PlanError::ArchMismatch {
                            name: label.clone(),
                            scenario,
                            expected: clean.arch_checksum,
                            actual: faulty.arch_checksum,
                        });
                    }
                    let f = faulty.faults.unwrap_or_default();
                    Ok(Row {
                        label: label.clone(),
                        value: faulty.speedup_over(clean),
                        extra: format!(
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
                        ),
                    })
                })
                .collect()
        },
    )
}

/// Chaos plan: every use-case × every fault scenario, asserting
/// committed architectural state stays bit-identical to the fault-free
/// run (value = % IPC change under faults).
pub fn plan_chaos(rc: &RunConfig) -> ExperimentPlan {
    plan_chaos_over(
        "chaos",
        "graceful degradation under injected fabric faults (value = % IPC change)",
        chaos_suite(),
        rc,
    )
}

/// CI-sized chaos smoke: one use-case (libquantum) × every fault
/// scenario.
pub fn plan_chaos_smoke(rc: &RunConfig) -> ExperimentPlan {
    plan_chaos_over(
        "chaos-smoke",
        "chaos smoke: libquantum × every fault scenario (value = % IPC change)",
        vec![usecases::libquantum_factory()],
        rc,
    )
}

/// Verifies the context-switch graceful-degradation invariant for one
/// arm — every tenant's committed-stream checksum bit-identical to the
/// no-fabric run's — then renders its aggregate row (plus per-phase
/// rows when `phases` is set).
fn ctx_rows(
    label: &str,
    scenario: &'static str,
    r: &RunResult,
    base: &RunResult,
    phases: bool,
) -> Result<Vec<Row>, PlanError> {
    let missing = |key: &str| PlanError::RunFailed {
        key: key.to_string(),
        outcome: "run carries no context-switch statistics".to_string(),
    };
    let ctx = r.ctx.as_ref().ok_or_else(|| missing(&r.name))?;
    let bctx = base.ctx.as_ref().ok_or_else(|| missing(&base.name))?;
    for (t, bt) in ctx.tenants.iter().zip(&bctx.tenants) {
        if t.checksum != bt.checksum {
            return Err(PlanError::ArchMismatch {
                name: format!("{} under {label}", t.name),
                scenario,
                expected: bt.checksum,
                actual: t.checksum,
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
    let mut rows = vec![Row {
        label: label.to_string(),
        value: r.speedup_over(base),
        extra: format!(
            "checksum OK  IPC {:.3}  {per_tenant}  swaps {}  reconfig {} cycles  decisions {} \
             (aborts {} spike {} stale-leaks {} corrupted {})",
            r.ipc(),
            ctx.swaps,
            ctx.reconfig_cycles,
            ctx.decisions,
            f.swap_abort_restarts,
            f.swap_spike_cycles,
            f.stale_drain_leaks,
            ctx.corrupted_decisions,
        ),
    }];
    if phases {
        for (i, p) in ctx.phases.iter().enumerate() {
            let ipc = if p.cycles > 0 {
                p.retired as f64 / p.cycles as f64
            } else {
                0.0
            };
            rows.push(Row {
                label: format!("  p{i} {}", p.tenant),
                value: ipc,
                extra: format!("phase IPC  retired {}  cycles {}", p.retired, p.cycles),
            });
        }
    }
    Ok(rows)
}

/// Context-switch plan: astar and bfs alternate on one core, sharing a
/// single fabric slot. Four arms bracket the cost of runtime
/// reconfiguration — no fabric at all, scheduled swaps at zero cost
/// (oracle), scheduled swaps at the modeled partial-reconfiguration
/// cost, and a slot pinned to a dead-wrong component — plus one
/// mid-swap chaos arm per [`FaultScenario::MID_SWAP`] scenario at the
/// modeled cost. Assembly enforces per-tenant committed-checksum
/// bit-identity against the no-fabric arm for every other arm
/// ([`PlanError::ArchMismatch`] otherwise): scheduling and mid-swap
/// faults may cost IPC, never correctness.
pub fn plan_context_switch(rc: &RunConfig) -> ExperimentPlan {
    let a = usecases::astar_custom_factory();
    let b = usecases::bfs_roads_factory();
    let decoy = usecases::libquantum_factory();
    let params = FabricParams::paper_default();
    let mut s = SpecSet::default();

    let base = s.context_switch(&a, &b, crate::runner::CtxMode::NoFabric, None, None, rc);
    // (row label, static arm tag, run handle, render per-phase rows)
    let mut arms: Vec<(String, &'static str, RunHandle, bool)> = vec![
        (
            "sched zero-cost".to_string(),
            "sched0",
            s.context_switch(
                &a,
                &b,
                crate::runner::CtxMode::Sched { zero_cost: true },
                Some(params.clone()),
                None,
                rc,
            ),
            true,
        ),
        (
            "sched modeled".to_string(),
            "sched",
            s.context_switch(
                &a,
                &b,
                crate::runner::CtxMode::Sched { zero_cost: false },
                Some(params.clone()),
                None,
                rc,
            ),
            true,
        ),
        (
            "pinned libquantum".to_string(),
            "pinned",
            s.context_switch(
                &a,
                &b,
                crate::runner::CtxMode::Pinned {
                    decoy: decoy.clone(),
                },
                Some(params.clone()),
                None,
                rc,
            ),
            true,
        ),
    ];
    for sc in FaultScenario::MID_SWAP {
        arms.push((
            format!("chaos {}", sc.name()),
            sc.name(),
            s.context_switch(
                &a,
                &b,
                crate::runner::CtxMode::Sched { zero_cost: false },
                Some(params.clone()),
                // Only ~8 swaps happen per run, so the default rate
                // would often draw zero injections; 600‰ makes every
                // mid-swap scenario actually fire while staying
                // seed-deterministic.
                Some(FaultPlan::new(sc, CHAOS_SEED).with_rate(600)),
                rc,
            ),
            false,
        ));
    }

    ExperimentPlan::new(
        "context-switch",
        "astar+bfs time-sharing the fabric slot (value = % IPC vs no-fabric)",
        "(not in the paper: runtime reconfiguration under a phase-detection scheduler)",
        s,
        move |runs| {
            let base_run = base.of(runs)?;
            let mut rows = ctx_rows("no-fabric", "nofabric", base_run, base_run, true)?;
            for (label, tag, h, phases) in &arms {
                rows.extend(ctx_rows(label, tag, h.of(runs)?, base_run, *phases)?);
            }
            Ok(rows)
        },
    )
}

/// Every experiment id `plan_for` knows, in paper order (`ablations`
/// last; it is extra material, not part of [`plans_all`]).
pub const ALL_IDS: [&str; 13] = [
    "fig2",
    "fig8",
    "table2",
    "fig9",
    "fig10",
    "fig12",
    "table3",
    "fig13",
    "fig14",
    "fig17",
    "table4",
    "fig18",
    "ablations",
];

/// Extra (non-paper) experiment ids `plan_for` also knows: the chaos
/// fault-injection family and the multi-tenant context-switch family.
/// Not part of [`ALL_IDS`] so `repro --all` keeps its paper scale;
/// requested explicitly by id: `repro chaos`, `repro chaos-smoke`,
/// `repro context-switch`.
pub const EXTRA_IDS: [&str; 3] = ["chaos", "chaos-smoke", "context-switch"];

/// The plan for one experiment id.
///
/// # Errors
/// [`PlanError::UnknownExperiment`] for an id outside [`ALL_IDS`] and
/// [`EXTRA_IDS`].
pub fn plan_for(id: &str, rc: &RunConfig) -> Result<ExperimentPlan, PlanError> {
    match id {
        "fig2" => Ok(plan_fig2(rc)),
        "fig8" => Ok(plan_fig8(rc)),
        "table2" => Ok(plan_table2(rc)),
        "fig9" => Ok(plan_fig9(rc)),
        "fig10" => Ok(plan_fig10(rc)),
        "fig12" => Ok(plan_fig12(rc)),
        "table3" => Ok(plan_table3(rc)),
        "fig13" => Ok(plan_fig13(rc)),
        "fig14" => Ok(plan_fig14(rc)),
        "fig17" => Ok(plan_fig17(rc)),
        "table4" => Ok(plan_table4()),
        "fig18" => Ok(plan_fig18(rc)),
        "ablations" => Ok(plan_ablations(rc)),
        "chaos" => Ok(plan_chaos(rc)),
        "chaos-smoke" => Ok(plan_chaos_smoke(rc)),
        "context-switch" => Ok(plan_context_switch(rc)),
        _ => Err(PlanError::UnknownExperiment { id: id.to_string() }),
    }
}

/// Plans for every paper experiment, in paper order.
pub fn plans_all(rc: &RunConfig) -> Vec<ExperimentPlan> {
    vec![
        plan_fig2(rc),
        plan_fig8(rc),
        plan_table2(rc),
        plan_fig9(rc),
        plan_fig10(rc),
        plan_fig12(rc),
        plan_table3(rc),
        plan_fig13(rc),
        plan_fig14(rc),
        plan_fig17(rc),
        plan_table4(),
        plan_fig18(rc),
    ]
}

/// Figure 2: speedups of PFM and Slipstream 2.0 on astar and bfs.
///
/// # Errors
/// The [`PlanError`] of a failed run or assembly (likewise for every
/// eager wrapper below).
pub fn fig2(rc: &RunConfig) -> Result<Experiment, PlanError> {
    run_one(plan_fig2(rc))
}

/// Figure 8: astar speedup for different C and W parameters.
///
/// # Errors
/// See [`fig2`].
pub fn fig8(rc: &RunConfig) -> Result<Experiment, PlanError> {
    run_one(plan_fig8(rc))
}

/// Table 2: astar FST and RST snoop percentages.
///
/// # Errors
/// See [`fig2`].
pub fn table2(rc: &RunConfig) -> Result<Experiment, PlanError> {
    run_one(plan_table2(rc))
}

/// Figure 9: astar sensitivity to D (delay), Q (queues) and P (ports).
///
/// # Errors
/// See [`fig2`].
pub fn fig9(rc: &RunConfig) -> Result<Experiment, PlanError> {
    run_one(plan_fig9(rc))
}

/// Figure 10: astar speedup vs. index_queue entries (speculative scope).
///
/// # Errors
/// See [`fig2`].
pub fn fig10(rc: &RunConfig) -> Result<Experiment, PlanError> {
    run_one(plan_fig10(rc))
}

/// Figure 12: bfs oracles and C/W sweep (Roads and Youtube inputs).
///
/// # Errors
/// See [`fig2`].
pub fn fig12(rc: &RunConfig) -> Result<Experiment, PlanError> {
    run_one(plan_fig12(rc))
}

/// Table 3: bfs FST and RST snoop percentages.
///
/// # Errors
/// See [`fig2`].
pub fn table3(rc: &RunConfig) -> Result<Experiment, PlanError> {
    run_one(plan_table3(rc))
}

/// Figure 13: bfs sensitivity to D, Q and P.
///
/// # Errors
/// See [`fig2`].
pub fn fig13(rc: &RunConfig) -> Result<Experiment, PlanError> {
    run_one(plan_fig13(rc))
}

/// Figure 14: bfs speedup vs. the component's queue entries.
///
/// # Errors
/// See [`fig2`].
pub fn fig14(rc: &RunConfig) -> Result<Experiment, PlanError> {
    run_one(plan_fig14(rc))
}

/// Figure 17: custom prefetcher speedups for different C and W.
///
/// # Errors
/// See [`fig2`].
pub fn fig17(rc: &RunConfig) -> Result<Experiment, PlanError> {
    run_one(plan_fig17(rc))
}

/// Table 4: FPGA resource, frequency and power estimates per design.
///
/// # Errors
/// See [`fig2`] (table 4 performs no runs, so only assembly can fail).
pub fn table4() -> Result<Experiment, PlanError> {
    run_one(plan_table4())
}

/// Figure 18: PFM (core + RF) energy normalized to the baseline core.
///
/// # Errors
/// See [`fig2`].
pub fn fig18(rc: &RunConfig) -> Result<Experiment, PlanError> {
    run_one(plan_fig18(rc))
}

/// Ablations of the design choices DESIGN.md calls out: store
/// inference, the missed-load buffer, the fetch stall policy, and the
/// baseline VLDP prefetcher.
///
/// # Errors
/// See [`fig2`].
pub fn ablations(rc: &RunConfig) -> Result<Experiment, PlanError> {
    run_one(plan_ablations(rc))
}

/// Every regenerable experiment, in paper order, executed through the
/// deduplicating executor (shared baselines run once). Each experiment
/// assembles independently: one failed run yields `Err` for the
/// experiments that needed it, not a panic for the suite.
pub fn all(rc: &RunConfig) -> Vec<Result<Experiment, PlanError>> {
    let (experiments, _) = exec::run_plans(plans_all(rc), &ExecOptions::default());
    experiments
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_renders_all_rows() {
        let t = table4().unwrap();
        assert_eq!(t.rows.len(), 6);
        let s = t.render();
        assert!(s.contains("astar-alt"));
        assert!(s.contains("BRAM"));
    }

    #[test]
    fn table2_snoop_rates_in_paper_ballpark() {
        let rc = RunConfig::test_scale();
        let t = table2(&rc).unwrap();
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
            plan_fig2(&rc),
            plan_fig8(&rc),
            plan_fig9(&rc),
            plan_fig10(&rc),
            plan_table2(&rc),
        ];
        let specs: Vec<_> = plans
            .iter()
            .flat_map(|p| p.specs().iter().cloned())
            .collect();
        let astar_base_key = {
            let mut probe = crate::plan::SpecSet::default();
            probe
                .baseline(&usecases::astar_custom_factory(), &rc)
                .key()
                .to_string()
        };
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
        for id in ALL_IDS.into_iter().chain(EXTRA_IDS) {
            let plan = plan_for(id, &rc).unwrap();
            assert_eq!(plan.id, id);
        }
        match plan_for("fig99", &rc) {
            Err(PlanError::UnknownExperiment { id }) => assert_eq!(id, "fig99"),
            other => panic!("expected UnknownExperiment, got {other:?}"),
        }
    }

    #[test]
    fn context_switch_plan_has_four_arms_plus_midswap_chaos() {
        // Pure planning assertion — nothing is simulated here.
        let rc = RunConfig::test_scale();
        let plan = plan_context_switch(&rc);
        assert_eq!(plan.id, "context-switch");
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
        let smoke = plan_chaos_smoke(&rc);
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
        let full = plan_chaos(&rc);
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
