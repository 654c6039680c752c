//! The template fixtures shared by the component integration tests:
//! astar on a 16-wide grid (eight neighbor groups, each a `waymap`
//! visited test followed by a `maparp` obstacle test) and bfs over a
//! CSR graph (the offsets pair, the neighbor range and the property
//! stage).

// Each test crate that includes this module uses a subset of it.
#![allow(dead_code)]

use pfm_components::{BranchSpec, Infer, LaneSpec, Predicate, Source, StageSpec, TemplateSpec};

/// Snooped PC whose value is the sticky tag (astar's `fillnum`).
pub const TAG_PC: u64 = 0x100;
/// Snooped PC whose value is the worklist base.
pub const WL_BASE_PC: u64 = 0x104;
/// Snooped PC whose value is the worklist length.
pub const WL_LEN_PC: u64 = 0x108;
/// Snooped PC of the loop-induction increment.
pub const INDUCTION_PC: u64 = 0x10c;
/// `waymap` base (8 bytes per cell, the tag in the low 4).
pub const WAYMAP_BASE: u64 = 0x10_0000;
/// `maparp` base (1 byte per cell).
pub const MAPARP_BASE: u64 = 0x20_0000;
/// The eight neighbor offsets of a 16-wide grid.
pub const OFFSETS: [i64; 8] = [-17, -16, -15, -1, 1, 15, 16, 17];

/// PC of neighbor `k`'s `waymap` branch, its group's leader.
pub fn waymap_pc(k: usize) -> u64 {
    0x200 + 0x10 * k as u64
}

/// PC of neighbor `k`'s `maparp` branch.
pub fn maparp_pc(k: usize) -> u64 {
    waymap_pc(k) + 4
}

/// The astar spec: per neighbor, the `waymap` lane (taken = visited)
/// then the `maparp` lane (taken = blocked), whose all-not-taken
/// outcome infers the visited-mark store when `store_inference` is on.
pub fn astar_spec(scope: usize, store_inference: bool) -> TemplateSpec {
    let mut lanes = Vec::new();
    for (k, &offset) in OFFSETS.iter().enumerate() {
        let lane = |table_base, elem_scale, size, pc, predicate| LaneSpec {
            offset,
            table_base,
            elem_scale,
            size,
            branch: Some(BranchSpec {
                pc,
                predicate,
                predict: true,
            }),
            group: k as u32,
        };
        lanes.push(lane(WAYMAP_BASE, 8, 4, waymap_pc(k), Predicate::EqualsTag));
        lanes.push(lane(MAPARP_BASE, 1, 1, maparp_pc(k), Predicate::NonZero));
    }
    TemplateSpec {
        tag_pc: Some(TAG_PC),
        wl_base_pc: WL_BASE_PC,
        wl_len_pc: WL_LEN_PC,
        induction_pc: INDUCTION_PC,
        wl_elem_size: 4,
        wl_loads_per_cycle: 1,
        stages: vec![StageSpec {
            source: Source::Each,
            lanes,
            groups_per_cycle: 2,
        }],
        scope,
        infer: store_inference.then_some(Infer::AllNotTaken),
        emit_after_issue: true,
    }
}

/// Snooped PC whose value is the bfs frontier base (one per level).
pub const BFS_FRONTIER_BASE_PC: u64 = 0x100;
/// Snooped PC whose value is the frontier length.
pub const BFS_FRONTIER_LEN_PC: u64 = 0x104;
/// Snooped PC of the frontier-loop induction increment.
pub const BFS_INDUCTION_PC: u64 = 0x108;
/// PC of the neighbor-loop branch (taken = exit the loop).
pub const BFS_LOOP_PC: u64 = 0x400;
/// PC of the visited branch (taken = already visited).
pub const BFS_VISITED_PC: u64 = 0x410;
/// CSR offsets base (8 bytes per node, `n + 1` entries).
pub const OFFSETS_BASE: u64 = 0x100_0000;
/// CSR neighbors base (4 bytes per edge).
pub const NEIGHBORS_BASE: u64 = 0x200_0000;
/// Property array base (8 bytes per node; negative = unvisited).
pub const PROPS_BASE: u64 = 0x300_0000;

/// The bfs spec: per frontier node `u`, load `offsets[u]` and
/// `offsets[u + 1]`, then each neighbor in that range, then its
/// property, predicting the loop branch from the trip count and the
/// visited branch from the property. `window` frontier nodes run ahead,
/// and with `dup_inference` every visited outcome enters its neighbor.
pub fn bfs_spec(window: usize, dup_inference: bool) -> TemplateSpec {
    let lane = |offset, table_base, elem_scale, size, branch| LaneSpec {
        offset,
        table_base,
        elem_scale,
        size,
        branch,
        group: 0,
    };
    let stage = |source, lanes| StageSpec {
        source,
        lanes,
        groups_per_cycle: usize::MAX,
    };
    let visited = BranchSpec {
        pc: BFS_VISITED_PC,
        predicate: Predicate::NonNegative,
        predict: true,
    };
    TemplateSpec {
        tag_pc: None,
        wl_base_pc: BFS_FRONTIER_BASE_PC,
        wl_len_pc: BFS_FRONTIER_LEN_PC,
        induction_pc: BFS_INDUCTION_PC,
        wl_elem_size: 4,
        wl_loads_per_cycle: usize::MAX,
        stages: vec![
            stage(
                Source::Each,
                vec![
                    lane(0, OFFSETS_BASE, 8, 8, None),
                    lane(1, OFFSETS_BASE, 8, 8, None),
                ],
            ),
            stage(
                Source::Range {
                    loop_pc: BFS_LOOP_PC,
                    predict: true,
                },
                vec![lane(0, NEIGHBORS_BASE, 4, 4, None)],
            ),
            stage(Source::Each, vec![lane(0, PROPS_BASE, 8, 8, Some(visited))]),
        ],
        scope: window,
        infer: dup_inference.then_some(Infer::EveryOutcome),
        emit_after_issue: false,
    }
}
