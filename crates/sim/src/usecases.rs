//! Standard experiment-scale use-case instances (the equivalents of
//! the paper's §3 benchmark selections), plus keyed [`UseCaseFactory`]
//! constructors for the experiment planner (use-cases are built lazily
//! inside the executor's worker threads; the `OnceLock` caches below
//! make every rebuild after the first cheap, from any thread).

use pfm_workloads::graphs::{powerlaw_graph, road_graph, shuffle_labels_fraction};
use pfm_workloads::{
    astar, bfs, bfs_variant, bwaves, lbm, leslie, libquantum, milc, AstarParams, AstarVariant,
    BfsParams, BfsVariant, UseCase, UseCaseFactory,
};
use std::sync::OnceLock;

/// astar with the default experiment-scale grid and the load-based
/// custom predictor.
pub fn astar_custom() -> UseCase {
    astar(&AstarParams::default())
}

/// astar with a specific index_queue scope (Figure 10).
pub fn astar_with_scope(scope: usize) -> UseCase {
    astar(&AstarParams {
        scope,
        ..AstarParams::default()
    })
}

/// astar with the slipstream-style restricted pre-execution (§1.1).
pub fn astar_slipstream() -> UseCase {
    astar(&AstarParams {
        variant: AstarVariant::Slipstream,
        ..AstarParams::default()
    })
}

/// astar with the table-mimicking astar-alt design (§5).
pub fn astar_alt() -> UseCase {
    astar(&AstarParams {
        variant: AstarVariant::Alt,
        ..AstarParams::default()
    })
}

fn roads_graph() -> &'static pfm_workloads::Csr {
    static G: OnceLock<pfm_workloads::Csr> = OnceLock::new();
    G.get_or_init(|| shuffle_labels_fraction(&road_graph(1000, 1000, 2000, 7), 11, 0.05))
}

fn roads_params() -> BfsParams {
    BfsParams {
        source: 5,
        start_level: 400,
        ..BfsParams::default()
    }
}

/// The cached Roads use case. Its variants differ only in snoop tables,
/// template spec and name, so they are derived from it and share its
/// image's pages.
fn roads_base() -> &'static UseCase {
    static UC: OnceLock<UseCase> = OnceLock::new();
    UC.get_or_init(|| bfs(roads_graph(), "roads", &roads_params()))
}

/// bfs on the road-network-like input ("Roads" in §4.2), measured in
/// steady state past the setup phase.
pub fn bfs_roads() -> UseCase {
    roads_base().clone()
}

/// bfs on Roads with a specific component window size (Figure 14).
pub fn bfs_roads_with_window(window: usize) -> UseCase {
    bfs_variant(
        roads_base(),
        "roads",
        &BfsParams {
            window,
            ..roads_params()
        },
    )
}

/// bfs on Roads with slipstream-style pre-execution (Figure 2).
pub fn bfs_roads_slipstream() -> UseCase {
    bfs_variant(
        roads_base(),
        "roads",
        &BfsParams {
            variant: BfsVariant::Slipstream,
            ..roads_params()
        },
    )
}

/// bfs on the power-law input ("Youtube" in §4.2).
pub fn bfs_youtube() -> UseCase {
    static UC: OnceLock<UseCase> = OnceLock::new();
    UC.get_or_init(|| {
        let g = powerlaw_graph(300_000, 3, 13);
        bfs(
            &g,
            "youtube",
            &BfsParams {
                source: 0,
                start_level: 2,
                ..BfsParams::default()
            },
        )
    })
    .clone()
}

/// libquantum at experiment scale (24 MB node array).
pub fn libquantum_scale() -> UseCase {
    libquantum(1_500_000, 4)
}

/// bwaves at experiment scale (the scattered stream spans ~7 MB and
/// crosses a page nearly every iteration).
pub fn bwaves_scale() -> UseCase {
    bwaves(96, 96, 256)
}

/// lbm at experiment scale (9 planes of 2 MB).
pub fn lbm_scale() -> UseCase {
    lbm(262_144, 9)
}

/// milc at experiment scale (4 streams of 8 MB).
pub fn milc_scale() -> UseCase {
    milc(524_288, 4)
}

/// leslie at experiment scale (3 ROIs over padded 2-D arrays).
pub fn leslie_scale() -> UseCase {
    leslie(192, 192)
}

/// All five custom-prefetcher use-cases, in Figure 17 order.
pub fn prefetch_suite() -> Vec<UseCase> {
    vec![
        libquantum_scale(),
        bwaves_scale(),
        lbm_scale(),
        milc_scale(),
        leslie_scale(),
    ]
}

// ---------------------------------------------------------------------------
// Keyed factories (the planner's currency). Each factory's key is the
// canonical content key of the parameters it bakes in, so the executor
// can deduplicate identical runs requested by different experiments.
// ---------------------------------------------------------------------------

/// Identity tag of the cached "Roads" input graph (construction
/// parameters pinned in [`bfs_roads`]).
const ROADS_TAG: &str = "roads(1000x1000+2000,seed7,shuf11@0.05)";

/// Identity tag of the cached "Youtube" input graph.
const YOUTUBE_TAG: &str = "youtube(pl300000m3,seed13)";

/// Factory for an astar use-case with explicit parameters.
pub fn astar_factory(params: AstarParams) -> UseCaseFactory {
    let name = match params.variant {
        AstarVariant::Custom => "astar",
        AstarVariant::Slipstream => "astar-slipstream",
        AstarVariant::Alt => "astar-alt",
    };
    UseCaseFactory::new(name, params.key(), move || astar(&params))
}

/// Factory for [`astar_custom`].
pub fn astar_custom_factory() -> UseCaseFactory {
    UseCaseFactory::new("astar", AstarParams::default().key(), || {
        static UC: OnceLock<UseCase> = OnceLock::new();
        UC.get_or_init(astar_custom).clone()
    })
}

/// Factory for [`bfs_roads`].
pub fn bfs_roads_factory() -> UseCaseFactory {
    UseCaseFactory::new("bfs-roads", roads_params().key(ROADS_TAG), bfs_roads)
}

/// Factory for bfs on Roads with a specific component window
/// (Figure 14).
pub fn bfs_roads_window_factory(window: usize) -> UseCaseFactory {
    let params = BfsParams {
        window,
        ..roads_params()
    };
    UseCaseFactory::new("bfs-roads", params.key(ROADS_TAG), move || {
        bfs_roads_with_window(window)
    })
}

/// Factory for [`bfs_roads_slipstream`].
pub fn bfs_roads_slipstream_factory() -> UseCaseFactory {
    let params = BfsParams {
        variant: BfsVariant::Slipstream,
        ..roads_params()
    };
    UseCaseFactory::new(
        "bfs-roads-slipstream",
        params.key(ROADS_TAG),
        bfs_roads_slipstream,
    )
}

/// Factory for [`bfs_youtube`].
pub fn bfs_youtube_factory() -> UseCaseFactory {
    let params = BfsParams {
        source: 0,
        start_level: 2,
        ..BfsParams::default()
    };
    UseCaseFactory::new("bfs-youtube", params.key(YOUTUBE_TAG), bfs_youtube)
}

/// Factory for [`libquantum_scale`].
pub fn libquantum_factory() -> UseCaseFactory {
    UseCaseFactory::new("libquantum", "libquantum[n1500000_c4]", libquantum_scale)
}

/// Factory for [`bwaves_scale`].
pub fn bwaves_factory() -> UseCaseFactory {
    UseCaseFactory::new("bwaves", "bwaves[96x96x256]", bwaves_scale)
}

/// Factory for [`lbm_scale`].
pub fn lbm_factory() -> UseCaseFactory {
    UseCaseFactory::new("lbm", "lbm[n262144_p9]", lbm_scale)
}

/// Factory for [`milc_scale`].
pub fn milc_factory() -> UseCaseFactory {
    UseCaseFactory::new("milc", "milc[n524288_s4]", milc_scale)
}

/// Factory for [`leslie_scale`].
pub fn leslie_factory() -> UseCaseFactory {
    UseCaseFactory::new("leslie", "leslie[192x192]", leslie_scale)
}

/// Factories for the five custom-prefetcher use-cases, in Figure 17
/// order.
pub fn prefetch_suite_factories() -> Vec<UseCaseFactory> {
    vec![
        libquantum_factory(),
        bwaves_factory(),
        lbm_factory(),
        milc_factory(),
        leslie_factory(),
    ]
}

/// Every distinct use-case the experiment suite simulates, one factory
/// each. This is the workload mix behind the golden-stats regression
/// test, the functional-equivalence gate and the static-analysis
/// gates, so all of them cover exactly the code paths the experiments
/// exercise.
pub fn throughput_suite_factories() -> Vec<UseCaseFactory> {
    vec![
        astar_custom_factory(),
        astar_factory(AstarParams {
            variant: AstarVariant::Slipstream,
            ..AstarParams::default()
        }),
        astar_factory(AstarParams {
            variant: AstarVariant::Alt,
            ..AstarParams::default()
        }),
        bfs_roads_factory(),
        bfs_roads_slipstream_factory(),
        bfs_youtube_factory(),
        libquantum_factory(),
        bwaves_factory(),
        lbm_factory(),
        milc_factory(),
        leslie_factory(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_named_usecases() {
        assert_eq!(astar_custom().name, "astar");
        assert_eq!(astar_slipstream().name, "astar-slipstream");
        assert_eq!(astar_alt().name, "astar-alt");
        assert_eq!(libquantum_scale().name, "libquantum");
        let suite = prefetch_suite();
        assert_eq!(suite.len(), 5);
        assert_eq!(suite[4].name, "leslie");
    }
}
