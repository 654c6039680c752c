//! The four workloads: which use cases each builds, from which seeds,
//! which (use case, mode) pairs it simulates in detail, and which run
//! specs it sends through the executor and result store.

use pfm_fabric::FabricParams;
use pfm_sim::experiments::plans_all;
use pfm_sim::{RunConfig, RunSpec};
use pfm_workloads::graphs::{powerlaw_graph, road_graph, shuffle_labels_fraction};
use pfm_workloads::{
    astar, bfs, bwaves, lbm, leslie, libquantum, milc, AstarParams, AstarVariant, BfsParams,
    BfsVariant, Csr, UseCase, UseCaseFactory,
};
use std::sync::Arc;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// astar baseline plus PFM with the astar, astar-slipstream and
    /// astar-alt components: branch-bound and L1-resident, so TAGE-SC-L,
    /// squash/replay and the Fetch Agent do the work.
    Astar,
    /// bfs-roads baseline and PFM plus bfs-youtube PFM: irregular and
    /// DRAM-bound, so the hierarchy, MSHRs and the Load Agent's MLB do
    /// the work; it also has the largest set-up (graph generation).
    Bfs,
    /// libquantum, lbm, milc and bwaves, baseline and PFM: strided
    /// streams where prefetchers and fabric prefetch injection do the
    /// work and the branch predictor is nearly idle.
    Stream,
    /// Every use case at a short budget, plus every paper experiment
    /// (`plans_all`) through the executor and result store: executor
    /// dedup and parallelism, store write path against read path.
    Suite,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Astar,
        Workload::Bfs,
        Workload::Stream,
        Workload::Suite,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Astar => "astar",
            Workload::Bfs => "bfs",
            Workload::Stream => "stream",
            Workload::Suite => "suite",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cycles in a run at [`Scale::BENCH`](crate::Scale::BENCH): about
    /// [`RUN_SECONDS`](crate::RUN_SECONDS) of cycles on the measuring
    /// host (see the README). A fixed count, so that every build times
    /// the same work the same number of times, however fast it or the
    /// host is.
    pub fn cycles(self) -> usize {
        match self {
            Workload::Astar => 17,
            Workload::Bfs => 14,
            Workload::Stream => 7,
            Workload::Suite => 6,
        }
    }

    /// Set-up repetitions at [`Scale::BENCH`](crate::Scale::BENCH): at
    /// least five, and enough for about a second of set-up on the
    /// measuring host when one takes only milliseconds.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Astar => 300,
            Workload::Bfs | Workload::Suite => 5,
            Workload::Stream => 20,
        }
    }

    fn kernels(self) -> &'static [Kernel] {
        use Kernel::*;
        match self {
            Workload::Astar => &[
                Astar(AstarVariant::Custom),
                Astar(AstarVariant::Slipstream),
                Astar(AstarVariant::Alt),
            ],
            Workload::Bfs => &[Roads(BfsVariant::Custom), Youtube],
            Workload::Stream => &[Libquantum, Lbm, Milc, Bwaves],
            Workload::Suite => &[
                Astar(AstarVariant::Custom),
                Astar(AstarVariant::Slipstream),
                Astar(AstarVariant::Alt),
                Roads(BfsVariant::Custom),
                Roads(BfsVariant::Slipstream),
                Youtube,
                Libquantum,
                Bwaves,
                Lbm,
                Milc,
                Leslie,
            ],
        }
    }

    /// The (input index, mode) pairs simulated in detail, in run order.
    pub fn units(self) -> Vec<Unit> {
        let unit = |input, pfm| Unit { input, pfm };
        match self {
            // The astar variants share one program and memory image, so
            // one baseline covers all three.
            Workload::Astar => vec![unit(0, false), unit(0, true), unit(1, true), unit(2, true)],
            Workload::Bfs => vec![unit(0, false), unit(0, true), unit(1, true)],
            Workload::Stream | Workload::Suite => (0..self.kernels().len())
                .flat_map(|i| [unit(i, false), unit(i, true)])
                .collect(),
        }
    }
}

/// One detailed run of a workload: an input, with or without the
/// fabric attached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unit {
    /// Index into the workload's inputs.
    pub input: usize,
    /// Whether the PFM fabric is attached.
    pub pfm: bool,
}

/// The input seeds. Seed 0 gives the repository's own inputs; any
/// other seed is XORed into each of them. The stream kernels take no
/// seed, so on `stream` the seed changes nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// `AstarParams::seed` (obstacles and wavefront seed cells).
    pub astar: u64,
    /// Road-network generator seed.
    pub roads: u64,
    /// Road-network label-shuffle seed.
    pub shuffle: u64,
    /// Power-law ("youtube") generator seed.
    pub youtube: u64,
}

impl Seeds {
    /// The seeds for benchmark seed `seed`.
    pub fn new(seed: u64) -> Seeds {
        Seeds {
            astar: 0xA57A ^ seed,
            roads: 7 ^ seed,
            shuffle: 11 ^ seed,
            youtube: 13 ^ seed,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Kernel {
    Astar(AstarVariant),
    Roads(BfsVariant),
    Youtube,
    Libquantum,
    Bwaves,
    Lbm,
    Milc,
    Leslie,
}

/// A built use case and the content key its run specs carry.
#[derive(Clone, Debug)]
pub struct Input {
    /// The use case.
    pub uc: Arc<UseCase>,
    /// Canonical content key (includes every seed that shaped it).
    pub key: String,
}

impl Input {
    /// A factory handing the executor clones of this use case.
    pub fn factory(&self) -> UseCaseFactory {
        let uc = Arc::clone(&self.uc);
        UseCaseFactory::new(self.uc.name.clone(), self.key.clone(), move || {
            UseCase::clone(&uc)
        })
    }
}

/// Depth at which the repository's bfs-roads search starts measuring.
const ROADS_START_LEVEL: usize = 400;

/// The first node from 5 up whose search reaches the start level. A
/// generated road network can strand node 5 in a small component,
/// whose search would halt within a few instructions; seed 0 keeps the
/// repository's source, node 5.
fn roads_source(g: &Csr) -> u32 {
    (5..g.num_nodes())
        .find(|&s| g.bfs_levels(s).len() > ROADS_START_LEVEL)
        .map_or(5, |s| s as u32)
}

/// Builds every input of `w` from `seeds`, at the repository's
/// experiment scale (the parameters of `pfm_sim::usecases`).
pub fn build_inputs(w: Workload, seeds: &Seeds) -> Vec<Input> {
    let mut roads: Option<(Csr, u32)> = None;
    let roads_tag = format!(
        "roads(1000x1000+2000,seed{},shuf{}@0.05)",
        seeds.roads, seeds.shuffle
    );
    w.kernels()
        .iter()
        .map(|k| {
            let (uc, key) = match *k {
                Kernel::Astar(variant) => {
                    let p = AstarParams {
                        seed: seeds.astar,
                        variant,
                        ..AstarParams::default()
                    };
                    (astar(&p), p.key())
                }
                Kernel::Roads(variant) => {
                    let (g, source) = roads.get_or_insert_with(|| {
                        let g = shuffle_labels_fraction(
                            &road_graph(1000, 1000, 2000, seeds.roads),
                            seeds.shuffle,
                            0.05,
                        );
                        let source = roads_source(&g);
                        (g, source)
                    });
                    let p = BfsParams {
                        source: *source,
                        start_level: ROADS_START_LEVEL,
                        variant,
                        ..BfsParams::default()
                    };
                    (bfs(g, "roads", &p), p.key(&roads_tag))
                }
                Kernel::Youtube => {
                    let g = powerlaw_graph(300_000, 3, seeds.youtube);
                    let p = BfsParams {
                        source: 0,
                        start_level: 2,
                        ..BfsParams::default()
                    };
                    let tag = format!("youtube(pl300000m3,seed{})", seeds.youtube);
                    (bfs(&g, "youtube", &p), p.key(&tag))
                }
                Kernel::Libquantum => (libquantum(1_500_000, 4), "libquantum[n1500000_c4]".into()),
                Kernel::Bwaves => (bwaves(96, 96, 256), "bwaves[96x96x256]".into()),
                Kernel::Lbm => (lbm(262_144, 9), "lbm[n262144_p9]".into()),
                Kernel::Milc => (milc(524_288, 4), "milc[n524288_s4]".into()),
                Kernel::Leslie => (leslie(192, 192), "leslie[192x192]".into()),
            };
            Input {
                uc: Arc::new(uc),
                key,
            }
        })
        .collect()
}

/// The run specs `w` sends through the executor at budget `rc`: every
/// paper experiment for `suite`, otherwise the workload's own units
/// plus one functional run per input.
pub fn exec_specs(w: Workload, inputs: &[Input], rc: &RunConfig) -> Vec<RunSpec> {
    if w == Workload::Suite {
        return plans_all(rc)
            .iter()
            .flat_map(|p| p.specs().to_vec())
            .collect();
    }
    let detailed = w.units().into_iter().map(|u| {
        let f = inputs[u.input].factory();
        if u.pfm {
            RunSpec::pfm(f, FabricParams::paper_default(), rc)
        } else {
            RunSpec::baseline(f, rc)
        }
    });
    let functional = inputs.iter().map(|i| RunSpec::functional(i.factory(), rc));
    detailed.chain(functional).collect()
}
