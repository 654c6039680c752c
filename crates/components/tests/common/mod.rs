//! The astar-shaped template fixture shared by the component
//! integration tests: a 16-wide grid's eight neighbor groups, each a
//! `waymap` visited test followed by a `maparp` obstacle test.

// Each test crate that includes this module uses a subset of it.
#![allow(dead_code)]

use pfm_components::{LaneSpec, Predicate, TemplateSpec};

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
        let lane = |table_base, elem_scale, size, branch_pc, predicate, infer| LaneSpec {
            offset,
            table_base,
            elem_scale,
            elem_offset: 0,
            size,
            branch_pc,
            predicate,
            taken_skips_group: true,
            group: k as u32,
            infer_store_on_all_not_taken: infer,
            predict: true,
        };
        lanes.push(lane(
            WAYMAP_BASE,
            8,
            4,
            waymap_pc(k),
            Predicate::EqualsTag,
            false,
        ));
        lanes.push(lane(
            MAPARP_BASE,
            1,
            1,
            maparp_pc(k),
            Predicate::NonZero,
            store_inference,
        ));
    }
    TemplateSpec {
        tag_pc: TAG_PC,
        wl_base_pc: WL_BASE_PC,
        wl_len_pc: WL_LEN_PC,
        induction_pc: INDUCTION_PC,
        wl_elem_size: 4,
        lanes,
        scope,
    }
}
