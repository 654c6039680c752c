//! The *astar* workload: a faithful reconstruction of the paper's
//! region of interest (Figure 6) — `wayobj::fill()` repeatedly calling
//! `wayobj::makebound2()` to expand a wavefront over a 2D grid, with
//! the 16 data-dependent `waymap`/`maparp` branches and the
//! loop-carried `waymap[index1].fillnum = fillnum` store.
//!
//! The grid has a blocked border (so neighbor indices never leave the
//! arrays) and random interior obstacles; the input worklist is fully
//! dynamic — the output of each `makebound2` call — which is what
//! defeats the baseline TAGE-SC-L predictor.

use crate::usecase::UseCase;
use pfm_components::astar_alt::{AstarAltConfig, AstarAltPredictor, NEIGHBORS};
use pfm_components::slipstream::slipstream_template;
use pfm_components::{
    BranchSpec, Infer, LaneSpec, Predicate, Source, StageSpec, TemplateComponent, TemplateSpec,
};
use pfm_fabric::RstEntry;
use pfm_isa::{Asm, Program, SpecMemory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Base address of the `waymap` array (8 bytes per cell).
pub const WAYMAP_BASE: u64 = 0x1000_0000;
/// Base address of the `maparp` array (1 byte per cell).
pub const MAPARP_BASE: u64 = 0x2000_0000;
/// Base address of worklist 0.
pub const WL0_BASE: u64 = 0x3000_0000;
/// Base address of worklist 1.
pub const WL1_BASE: u64 = 0x3400_0000;
/// Base address of the seed-cell list.
pub const SEEDS_BASE: u64 = 0x3800_0000;

/// Which astar machinery to ship with the executable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AstarVariant {
    /// The paper's load-based three-engine custom predictor (§4.1),
    /// run by the template engine.
    Custom,
    /// Slipstream-2.0-style pre-execution: branch 1 only, no store
    /// inference (§1.1's comparison).
    Slipstream,
    /// The EXACT-inspired table-mimicking design (§5's astar-alt).
    Alt,
}

impl AstarVariant {
    /// Canonical label (used in use-case content keys).
    pub fn label(&self) -> &'static str {
        match self {
            AstarVariant::Custom => "custom",
            AstarVariant::Slipstream => "slipstream",
            AstarVariant::Alt => "alt",
        }
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct AstarParams {
    /// Grid width (including the blocked 1-cell border).
    pub grid_w: usize,
    /// Grid height (including the border).
    pub grid_h: usize,
    /// Percentage of interior cells that are obstacles.
    pub block_pct: u32,
    /// Number of `fill()` invocations.
    pub fills: u64,
    /// Wavefront seed cells per fill.
    pub num_seeds: usize,
    /// RNG seed for obstacles/seeds.
    pub seed: u64,
    /// index_queue entries (the component's speculative scope).
    pub scope: usize,
    /// Component variant.
    pub variant: AstarVariant,
    /// Ablation: disable the index1_CAM store inference while keeping
    /// everything else (the Custom variant only).
    pub store_inference: bool,
}

impl Default for AstarParams {
    fn default() -> AstarParams {
        AstarParams {
            grid_w: 256,
            grid_h: 256,
            block_pct: 30,
            fills: 4,
            num_seeds: 4,
            seed: 0xA57A,
            scope: 8,
            variant: AstarVariant::Custom,
            store_inference: true,
        }
    }
}

impl AstarParams {
    /// Canonical content key covering every field: parameter sets with
    /// equal keys build identical use-cases (the experiment planner's
    /// run deduplication relies on this).
    pub fn key(&self) -> String {
        format!(
            "astar[{}x{}_b{}_f{}_s{}_seed{:x}_scope{}_{}{}]",
            self.grid_w,
            self.grid_h,
            self.block_pct,
            self.fills,
            self.num_seeds,
            self.seed,
            self.scope,
            self.variant.label(),
            if self.store_inference { "" } else { "_noinf" }
        )
    }
}

/// Exported symbol names for the astar kernel's snoop points.
mod sym {
    pub const FILLNUM: &str = "fillnum_pc";
    pub const SEED_STORE: &str = "seed_store_pc";
    pub const WL_BASE: &str = "wl_base_pc";
    pub const WL_LEN: &str = "wl_len_pc";
    pub const YOFFSET: &str = "yoffset_pc";
    pub const INDUCTION: &str = "induction_pc";

    /// Per-neighbor snoop points (`k` is the neighbor index).
    pub fn waymap_branch(k: usize) -> String {
        format!("waymap_branch_pc_{k}")
    }
    /// Per-neighbor `maparp` branch.
    pub fn maparp_branch(k: usize) -> String {
        format!("maparp_branch_pc_{k}")
    }
    /// Per-neighbor output-worklist store.
    pub fn out_store(k: usize) -> String {
        format!("out_store_pc_{k}")
    }
}

/// Builds the astar use-case.
pub fn astar(params: &AstarParams) -> UseCase {
    let (w, h) = (params.grid_w, params.grid_h);
    assert!(w >= 8 && h >= 8, "grid too small");
    let _ncells = w * h;
    let mut rng = StdRng::seed_from_u64(params.seed);

    // ---- data memory ----
    let mut mem = SpecMemory::new();
    {
        let m = mem.committed_mut();
        // maparp: border blocked, interior random obstacles.
        for y in 0..h {
            for x in 0..w {
                let idx = (y * w + x) as u64;
                let border = x == 0 || y == 0 || x == w - 1 || y == h - 1;
                let blocked = border || rng.gen_range(0u32..100) < params.block_pct;
                if blocked {
                    m.write(MAPARP_BASE + idx, 1, 1);
                }
            }
        }
        // waymap starts zeroed (fillnum 0 != any current fillnum >= 1).
        // Seeds: random passable interior cells.
        let mut seeds = Vec::new();
        while seeds.len() < params.num_seeds {
            let x = rng.gen_range(1..w - 1);
            let y = rng.gen_range(1..h - 1);
            let idx = (y * w + x) as u64;
            if m.read(MAPARP_BASE + idx, 1) == 0 && !seeds.contains(&idx) {
                seeds.push(idx);
            }
        }
        for (i, s) in seeds.iter().enumerate() {
            m.write(SEEDS_BASE + 4 * i as u64, 4, *s);
        }
    }

    // ---- kernel ----
    let offsets = neighbor_offsets(w);

    use pfm_isa::reg::names::*;
    let mut a = Asm::new(0x1000);
    let outer = a.label();
    let seed_loop = a.label();
    let fill_loop = a.label();
    let fill_done = a.label();
    let makebound2 = a.label();
    let end = a.label();

    a.li(S1, WAYMAP_BASE as i64);
    a.li(S2, MAPARP_BASE as i64);
    a.li(A6, WL0_BASE as i64);
    a.li(A7, WL1_BASE as i64);
    a.li(S0, 0); // fillnum
    a.li(S8, 0); // step
    a.li(S9, params.fills as i64);

    a.place(outer);
    // ---- fill() prologue: fillnum++, seed the input worklist ----
    a.export(sym::FILLNUM);
    a.addi(S0, S0, 1);
    a.li(T0, 0);
    a.li(T1, params.num_seeds as i64);
    a.li(T2, SEEDS_BASE as i64);
    a.place(seed_loop);
    a.slli(T3, T0, 2);
    a.add(T4, T2, T3);
    a.lwu(T5, T4, 0); // seed index
    a.add(T4, A6, T3);
    a.export(sym::SEED_STORE);
    a.sw(T5, T4, 0); // WL0[i] = seed
    a.slli(T3, T5, 3);
    a.add(T3, S1, T3);
    a.sw(S0, T3, 0); // waymap[seed].fillnum = fillnum
    a.addi(T0, T0, 1);
    a.blt(T0, T1, seed_loop);
    a.mv(S3, A6); // input = WL0
    a.mv(S4, A7); // output = WL1
    a.mv(S5, T1); // bound1l = num_seeds

    a.place(fill_loop);
    a.beq(S5, X0, fill_done);
    a.call(makebound2);
    // Swap worklists; the output length becomes the input length.
    a.mv(T3, S3);
    a.mv(S3, S4);
    a.mv(S4, T3);
    a.mv(S5, S6);
    a.addi(S8, S8, 1);
    a.j(fill_loop);

    a.place(fill_done);
    a.addi(S9, S9, -1);
    a.bne(S9, X0, outer);
    a.j(end);

    // ---- makebound2() ----
    a.place(makebound2);
    a.export(sym::WL_BASE);
    a.mv(A0, S3); // snooped: input worklist base
    a.export(sym::WL_LEN);
    a.mv(A1, S5); // snooped: input worklist length
    a.export(sym::YOFFSET);
    a.li(S7, w as i64); // snooped: yoffset
    a.li(S6, 0); // bound2l = 0
    a.li(T0, 0); // i = 0
    let loop_top = a.label();
    let loop_done = a.label();
    a.place(loop_top);
    a.bge(T0, A1, loop_done);
    a.slli(T3, T0, 2);
    a.add(T3, A0, T3);
    a.lwu(T1, T3, 0); // index = bound1p[i]

    for (k, &off) in offsets.iter().enumerate() {
        let skip = a.label();
        a.addi(T2, T1, off); // index1 = index + offset_k
        a.slli(T3, T2, 3);
        a.add(T3, S1, T3);
        a.lwu(T4, T3, 0); // waymap[index1].fillnum
        a.export(&sym::waymap_branch(k));
        a.beq(T4, S0, skip); // taken => already visited
        a.add(T5, S2, T2);
        a.lbu(T5, T5, 0); // maparp[index1]
        a.export(&sym::maparp_branch(k));
        a.bne(T5, X0, skip); // taken => blocked
        a.slli(T3, S6, 2);
        a.add(T3, S4, T3);
        a.export(&sym::out_store(k));
        a.sw(T2, T3, 0); // bound2p[bound2l] = index1
        a.addi(S6, S6, 1);
        a.slli(T3, T2, 3);
        a.add(T3, S1, T3);
        a.sw(S0, T3, 0); // waymap[index1].fillnum = fillnum
        a.sw(S8, T3, 4); // waymap[index1].num = step
        a.place(skip);
    }

    a.export(sym::INDUCTION);
    a.addi(T0, T0, 1); // i++ (snooped: commit-head advance)
    a.j(loop_top);
    a.place(loop_done);
    a.ret();

    a.place(end);
    a.halt();

    let program = crate::assembled("astar", a.finish());

    // ---- snoop tables + component ----
    let fillnum_pc = program.require_symbol(sym::FILLNUM);
    let wl_base_pc = program.require_symbol(sym::WL_BASE);
    let wl_len_pc = program.require_symbol(sym::WL_LEN);
    let yoffset_pc = program.require_symbol(sym::YOFFSET);
    let induction_pc = program.require_symbol(sym::INDUCTION);
    let seed_store_pc = program.require_symbol(sym::SEED_STORE);
    // Per-neighbor snoop PCs come back out of the assembled program's
    // symbol table, not positional bookkeeping during assembly: a
    // kernel edit that moves a branch moves its symbol with it.
    let mut waymap_branch_pcs = [0u64; NEIGHBORS];
    let mut maparp_branch_pcs = [0u64; NEIGHBORS];
    let mut out_store_pcs = Vec::with_capacity(NEIGHBORS);
    for k in 0..NEIGHBORS {
        waymap_branch_pcs[k] = program.require_symbol(&sym::waymap_branch(k));
        maparp_branch_pcs[k] = program.require_symbol(&sym::maparp_branch(k));
        out_store_pcs.push(program.require_symbol(&sym::out_store(k)));
    }

    let mut fst = BTreeSet::new();
    for &pc in &waymap_branch_pcs {
        fst.insert(pc);
    }
    if params.variant != AstarVariant::Slipstream {
        for &pc in &maparp_branch_pcs {
            fst.insert(pc);
        }
    }

    let mut rst = BTreeMap::new();
    rst.insert(fillnum_pc, RstEntry::dest().begin());
    rst.insert(wl_base_pc, RstEntry::dest());
    rst.insert(wl_len_pc, RstEntry::dest());
    rst.insert(yoffset_pc, RstEntry::dest());
    rst.insert(induction_pc, RstEntry::dest());
    // Branch outcomes of the waymap branches: observed to advance
    // fine-grained commit state (and dominating the RST snoop rate, as
    // in the paper's Table 2).
    for &pc in &waymap_branch_pcs {
        rst.insert(pc, RstEntry::branch());
    }
    match params.variant {
        AstarVariant::Alt => {
            // astar-alt mimics the worklists and maparp from the retire
            // stream.
            rst.insert(seed_store_pc, RstEntry::store());
            for &pc in &out_store_pcs {
                rst.insert(pc, RstEntry::store());
            }
            for &pc in &maparp_branch_pcs {
                rst.insert(pc, RstEntry::branch());
            }
        }
        AstarVariant::Custom | AstarVariant::Slipstream => {}
    }

    let name = match params.variant {
        AstarVariant::Custom => "astar",
        AstarVariant::Slipstream => "astar-slipstream",
        AstarVariant::Alt => "astar-alt",
    };

    let factory: crate::usecase::ComponentFactory = match params.variant {
        AstarVariant::Custom | AstarVariant::Slipstream => {
            let spec = template_spec(&program, params);
            Arc::new(move || Box::new(TemplateComponent::new(spec.clone())))
        }
        AstarVariant::Alt => {
            let mut worklist_store_pcs = out_store_pcs.clone();
            worklist_store_pcs.push(seed_store_pc);
            let alt = AstarAltConfig {
                fillnum_pc,
                call_marker_pc: wl_base_pc,
                worklist_store_pcs,
                offsets,
                waymap_branch_pcs,
                maparp_branch_pcs,
                runahead_iters: params.scope as u64,
                induction_pc,
            };
            Arc::new(move || Box::new(AstarAltPredictor::new(alt.clone())))
        }
    };

    UseCase::new(name, program, mem, fst, rst, factory)
}

/// `index1 = index + offset` for the eight neighbors of a `w`-wide grid.
fn neighbor_offsets(w: usize) -> [i64; NEIGHBORS] {
    let w = w as i64;
    [-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1]
}

/// The template spec the astar use case runs (Figure 7): one stage
/// that, per neighbor, loads the `waymap` lane (taken = already
/// visited) then the `maparp` lane (taken = blocked), whose
/// all-not-taken outcome infers the `waymap[index1].fillnum` store
/// unless `store_inference` is off. Figure 7's synthesized design
/// loads one worklist element and "two index1s / four loads" per RF
/// cycle, and converts a group only once it has issued. Snoop PCs come
/// from `program`'s symbols. The slipstream variant gets the restricted
/// form; astar-alt runs its own design instead. `spec_from_profile`
/// derives the default spec from the kernel alone.
pub fn template_spec(program: &Program, params: &AstarParams) -> TemplateSpec {
    let mut lanes = Vec::with_capacity(2 * NEIGHBORS);
    for (k, offset) in neighbor_offsets(params.grid_w).into_iter().enumerate() {
        let lane = |table_base, elem_scale, size, branch: String, predicate| LaneSpec {
            offset,
            table_base,
            elem_scale,
            size,
            branch: Some(BranchSpec {
                pc: program.require_symbol(&branch),
                predicate,
                predict: true,
            }),
            group: k as u32,
        };
        let (way, map) = (sym::waymap_branch(k), sym::maparp_branch(k));
        lanes.push(lane(WAYMAP_BASE, 8, 4, way, Predicate::EqualsTag));
        lanes.push(lane(MAPARP_BASE, 1, 1, map, Predicate::NonZero));
    }
    let spec = TemplateSpec {
        tag_pc: Some(program.require_symbol(sym::FILLNUM)),
        wl_base_pc: program.require_symbol(sym::WL_BASE),
        wl_len_pc: program.require_symbol(sym::WL_LEN),
        induction_pc: program.require_symbol(sym::INDUCTION),
        wl_elem_size: 4,
        wl_loads_per_cycle: 1,
        stages: vec![StageSpec {
            source: Source::Each,
            lanes,
            groups_per_cycle: 2,
        }],
        scope: params.scope,
        infer: params.store_inference.then_some(Infer::AllNotTaken),
        emit_after_issue: true,
    };
    match params.variant {
        AstarVariant::Slipstream => slipstream_template(spec),
        AstarVariant::Custom | AstarVariant::Alt => spec,
    }
}

/// Software reference of the kernel, for functional validation: runs
/// `fills` wavefront expansions and returns the final `waymap.fillnum`
/// image.
pub fn astar_reference(params: &AstarParams) -> Vec<u32> {
    let (w, h) = (params.grid_w, params.grid_h);
    let ncells = w * h;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut maparp = vec![0u8; ncells];
    for y in 0..h {
        for x in 0..w {
            let idx = y * w + x;
            let border = x == 0 || y == 0 || x == w - 1 || y == h - 1;
            if border || rng.gen_range(0u32..100) < params.block_pct {
                maparp[idx] = 1;
            }
        }
    }
    let mut seeds = Vec::new();
    while seeds.len() < params.num_seeds {
        let x = rng.gen_range(1..w - 1);
        let y = rng.gen_range(1..h - 1);
        let idx = (y * w + x) as u64;
        if maparp[idx as usize] == 0 && !seeds.contains(&idx) {
            seeds.push(idx);
        }
    }
    let offsets = neighbor_offsets(w);
    let mut waymap = vec![0u32; ncells];
    for fill in 1..=params.fills {
        let fillnum = fill as u32;
        let mut wl: Vec<u64> = seeds.clone();
        for &s in &wl {
            waymap[s as usize] = fillnum;
        }
        while !wl.is_empty() {
            let mut next = Vec::new();
            for &index in &wl {
                for &off in &offsets {
                    let idx1 = (index as i64 + off) as usize;
                    if waymap[idx1] != fillnum && maparp[idx1] == 0 {
                        next.push(idx1 as u64);
                        waymap[idx1] = fillnum;
                    }
                }
            }
            wl = next;
        }
    }
    waymap
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfm_fabric::ObserveKind;

    fn small() -> AstarParams {
        AstarParams {
            grid_w: 24,
            grid_h: 24,
            fills: 2,
            ..AstarParams::default()
        }
    }

    #[test]
    fn kernel_matches_reference_implementation() {
        let p = small();
        let uc = astar(&p);
        let mut m = uc.machine();
        m.run(100_000_000).unwrap();
        assert!(m.halted(), "kernel must run to completion");
        let reference = astar_reference(&p);
        for (idx, &expect) in reference.iter().enumerate() {
            let got = m.mem().read_committed(WAYMAP_BASE + 8 * idx as u64, 4) as u32;
            assert_eq!(got, expect, "waymap mismatch at cell {idx}");
        }
    }

    #[test]
    fn wavefront_reaches_most_unblocked_cells() {
        let p = small();
        let reference = astar_reference(&p);
        let visited = reference.iter().filter(|&&f| f == p.fills as u32).count();
        assert!(visited > 100, "wave should expand, visited only {visited}");
    }

    #[test]
    fn snoop_tables_are_wired() {
        let uc = astar(&small());
        assert_eq!(uc.fst.len(), 16, "8 waymap + 8 maparp branches");
        assert!(uc.rst.values().any(|e| e.begin_roi));
        assert!(
            uc.rst
                .values()
                .filter(|e| e.observe == Some(ObserveKind::DestValue))
                .count()
                >= 5
        );
        assert_eq!(uc.component().name(), "templated-runahead");
    }

    #[test]
    fn slipstream_variant_prunes_fst() {
        let mut p = small();
        p.variant = AstarVariant::Slipstream;
        let uc = astar(&p);
        assert_eq!(uc.fst.len(), 8, "only the waymap branches are pre-executed");
        assert_eq!(uc.component().name(), "templated-runahead");
    }

    #[test]
    fn alt_variant_observes_stores() {
        let mut p = small();
        p.variant = AstarVariant::Alt;
        let uc = astar(&p);
        assert!(
            uc.rst
                .values()
                .filter(|e| e.observe == Some(ObserveKind::StoreValue))
                .count()
                >= 9
        );
        assert_eq!(uc.component().name(), "astar-alt");
    }

    #[test]
    fn deterministic_build() {
        let a1 = astar(&small());
        let a2 = astar(&small());
        assert_eq!(a1.program.len(), a2.program.len());
        assert_eq!(
            a1.memory.read_committed(MAPARP_BASE, 8),
            a2.memory.read_committed(MAPARP_BASE, 8)
        );
    }
}
