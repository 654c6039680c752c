//! The *bfs* workload: GAP-style top-down breadth-first search (§4.2)
//! over synthetic road-network or power-law graphs, with the
//! hard-to-predict neighbor-loop (trip count) and visited branches and
//! the load-dependent loads that defeat conventional prefetchers.

use crate::graphs::Csr;
use crate::usecase::UseCase;
use pfm_components::slipstream::slipstream_template;
use pfm_components::{
    BranchSpec, Infer, LaneSpec, Predicate, Source, StageSpec, TemplateComponent, TemplateSpec,
};
use pfm_fabric::RstEntry;
use pfm_isa::{Asm, Program, SparseMem, SpecMemory};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// CSR offsets array base (8 bytes per entry).
pub const OFFSETS_BASE: u64 = 0x1000_0000;
/// CSR neighbors array base (4 bytes per entry).
pub const NEIGHBORS_BASE: u64 = 0x4000_0000;
/// Parent/properties array base (8 bytes per node; negative =
/// unvisited).
pub const PROPS_BASE: u64 = 0x8000_0000;
/// Frontier buffer 0.
pub const FR0_BASE: u64 = 0xB000_0000;
/// Frontier buffer 1.
pub const FR1_BASE: u64 = 0xD000_0000;

/// Component variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BfsVariant {
    /// The paper's four-engine component (Figure 11), run by the
    /// template engine.
    Custom,
    /// Slipstream-style: visited branch pre-executed without inference,
    /// no trip-count stream.
    Slipstream,
}

impl BfsVariant {
    /// Canonical label (used in use-case content keys).
    pub fn label(&self) -> &'static str {
        match self {
            BfsVariant::Custom => "custom",
            BfsVariant::Slipstream => "slipstream",
        }
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct BfsParams {
    /// Source node.
    pub source: u32,
    /// Fast-forward: start the measured search at this BFS depth, with
    /// all shallower nodes pre-visited in the memory image (the paper
    /// skips the setup phase and measures the search in steady state).
    pub start_level: usize,
    /// Frontier/neighbor window entries in the component.
    pub window: usize,
    /// Component variant.
    pub variant: BfsVariant,
}

impl Default for BfsParams {
    fn default() -> BfsParams {
        BfsParams {
            source: 0,
            start_level: 0,
            window: 64,
            variant: BfsVariant::Custom,
        }
    }
}

impl BfsParams {
    /// Canonical content key covering every field, scoped under a
    /// graph identity tag (the params alone don't pin the input graph;
    /// the caller supplies a tag that does).
    pub fn key(&self, graph_tag: &str) -> String {
        format!(
            "bfs[{}_src{}_lvl{}_win{}_{}]",
            graph_tag,
            self.source,
            self.start_level,
            self.window,
            self.variant.label()
        )
    }
}

mod sym {
    pub const ROI: &str = "roi_begin_pc";
    pub const FR_BASE: &str = "frontier_base_pc";
    pub const FR_LEN: &str = "frontier_len_pc";
    pub const INDUCTION: &str = "induction_pc";
    pub const LOOP_BRANCH: &str = "loop_branch_pc";
    pub const VISITED_BRANCH: &str = "visited_branch_pc";
}

/// Builds the bfs use-case over `graph`, named `bfs-<input>`.
pub fn bfs(graph: &Csr, input: &str, params: &BfsParams) -> UseCase {
    let n = graph.num_nodes();
    assert!((params.source as usize) < n, "source out of range");

    // ---- data memory ----
    // Only the levels up to the start level are read.
    let levels = graph.bfs_levels_to(params.source as usize, params.start_level);
    let start_level = params.start_level.min(levels.len() - 1);
    let mut mem = SpecMemory::new();
    {
        let m = mem.committed_mut();
        write_array(
            m,
            OFFSETS_BASE,
            graph.offsets.iter().map(|o| o.to_le_bytes()),
        );
        write_array(
            m,
            NEIGHBORS_BASE,
            graph.neighbors.iter().map(|v| v.to_le_bytes()),
        );
        write_array(m, PROPS_BASE, std::iter::repeat_n((-1i64).to_le_bytes(), n));
        // Fast-forward: mark every node shallower than the start level
        // as visited (parent = itself is fine for timing purposes; the
        // kernel only tests the sign) and materialize the start
        // frontier.
        for lvl in levels.iter().take(start_level) {
            for &v in lvl {
                m.write(PROPS_BASE + 8 * v as u64, 8, v as u64);
            }
        }
        for (i, &v) in levels[start_level].iter().enumerate() {
            m.write(FR0_BASE + 4 * i as u64, 4, v as u64);
            if start_level == 0 {
                m.write(PROPS_BASE + 8 * v as u64, 8, v as u64);
            }
        }
        if start_level > 0 {
            for &v in &levels[start_level] {
                m.write(PROPS_BASE + 8 * v as u64, 8, v as u64);
            }
        }
    }
    let init_len = levels[start_level].len() as i64;

    // ---- kernel ----
    use pfm_isa::reg::names::*;
    let mut a = Asm::new(0x1000);
    let level_loop = a.label();
    let _level_done = a.label();
    let outer_top = a.label();
    let outer_done = a.label();
    let inner_top = a.label();
    let inner_done = a.label();
    let skip_visit = a.label();
    let bfs_done = a.label();

    a.li(S1, OFFSETS_BASE as i64);
    a.li(S2, NEIGHBORS_BASE as i64);
    a.li(S3, PROPS_BASE as i64);
    a.li(A6, FR0_BASE as i64);
    a.li(A7, FR1_BASE as i64);
    // The start frontier and visited state live in the memory image.
    a.export(sym::ROI);
    a.li(S5, init_len); // frontier_len (also marks the ROI begin)

    a.place(level_loop);
    a.beq(S5, X0, bfs_done);
    a.export(sym::FR_BASE);
    a.mv(A0, A6); // snooped: frontier base
    a.export(sym::FR_LEN);
    a.mv(A1, S5); // snooped: frontier length
    a.li(S6, 0); // next_len = 0
    a.li(T0, 0); // i = 0

    a.place(outer_top);
    a.bge(T0, A1, outer_done);
    a.slli(T3, T0, 2);
    a.add(T3, A0, T3);
    a.lwu(T4, T3, 0); // u = frontier[i]
    a.slli(T5, T4, 3);
    a.add(T5, S1, T5);
    a.ld(T6, T5, 0); // a = offsets[u]
    a.ld(A2, T5, 8); // b = offsets[u+1]
    a.mv(A3, T6); // j = a

    a.place(inner_top);
    a.export(sym::LOOP_BRANCH);
    a.bgeu(A3, A2, inner_done); // taken => exit neighbor loop
    a.slli(T5, A3, 2);
    a.add(T5, S2, T5);
    a.lwu(A4, T5, 0); // v = neighbors[j]
    a.slli(T5, A4, 3);
    a.add(T5, S3, T5);
    a.ld(A5, T5, 0); // p = props[v]
    a.export(sym::VISITED_BRANCH);
    a.bge(A5, X0, skip_visit); // taken => already visited
    a.sd(T4, T5, 0); // props[v] = u  (the loop-carried store)
    a.slli(T3, S6, 2);
    a.add(T3, A7, T3);
    a.sw(A4, T3, 0); // next_frontier[next_len] = v
    a.addi(S6, S6, 1);
    a.place(skip_visit);
    a.addi(A3, A3, 1); // j++
    a.j(inner_top);
    a.place(inner_done);
    a.export(sym::INDUCTION);
    a.addi(T0, T0, 1); // i++ (snooped: frees the component's window)
    a.j(outer_top);

    a.place(outer_done);
    // Swap frontiers.
    a.mv(T3, A6);
    a.mv(A6, A7);
    a.mv(A7, T3);
    a.mv(S5, S6);
    a.j(level_loop);

    a.place(bfs_done);
    a.halt();

    let program = crate::assembled("bfs", a.finish());
    wire(program, mem, input, params)
}

/// The bfs use case for `params` over the program and memory image of
/// `base`, a bfs use case built over the same graph, source and start
/// level: the window and the variant set only the snoop tables, the
/// template spec and the name. The image is `base`'s clone, so the two
/// share every page until a run writes one.
pub fn bfs_variant(base: &UseCase, input: &str, params: &BfsParams) -> UseCase {
    wire(base.program.clone(), base.memory.clone(), input, params)
}

/// Snoop tables, component and name of the bfs use case for `params`
/// over its assembled kernel and image.
fn wire(program: Program, mem: SpecMemory, input: &str, params: &BfsParams) -> UseCase {
    // ---- snoop tables + component ----
    let roi_pc = program.require_symbol(sym::ROI);
    let frontier_base_pc = program.require_symbol(sym::FR_BASE);
    let frontier_len_pc = program.require_symbol(sym::FR_LEN);
    let induction_pc = program.require_symbol(sym::INDUCTION);
    let loop_branch_pc = program.require_symbol(sym::LOOP_BRANCH);
    let visited_branch_pc = program.require_symbol(sym::VISITED_BRANCH);

    let mut fst = BTreeSet::new();
    fst.insert(visited_branch_pc);
    if params.variant == BfsVariant::Custom {
        fst.insert(loop_branch_pc);
    }

    let mut rst = BTreeMap::new();
    rst.insert(roi_pc, RstEntry::dest().begin());
    // The per-level frontier-base snoop doubles as an ROI re-arm
    // point: a no-op while the Agents are already armed (`begin_roi`
    // only acts when the ROI is closed), but it lets a component that
    // was swapped in mid-search re-arm at the next level boundary —
    // exactly where `reset_level` makes a cold component's state
    // meaningful again.
    rst.insert(frontier_base_pc, RstEntry::dest().begin());
    rst.insert(frontier_len_pc, RstEntry::dest());
    rst.insert(induction_pc, RstEntry::dest());
    // Branch outcomes of both hard branches: observed for fine-grained
    // commit tracking (and the Table 3 snoop rates).
    rst.insert(loop_branch_pc, RstEntry::branch());
    rst.insert(visited_branch_pc, RstEntry::branch());

    // Figure 11 as a template: the frontier, then the offsets pair,
    // the neighbor range with its trip-count loop branch, and the
    // property stage predicting the visited branch. Every engine runs
    // as fast as the width allows, a visited prediction waits only for
    // the values it reads, and every visited outcome enters its
    // neighbor (the paper's neighbor-window search).
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
        pc: visited_branch_pc,
        predicate: Predicate::NonNegative,
        predict: true,
    };
    let spec = TemplateSpec {
        tag_pc: None,
        wl_base_pc: frontier_base_pc,
        wl_len_pc: frontier_len_pc,
        induction_pc,
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
                    loop_pc: loop_branch_pc,
                    predict: true,
                },
                vec![lane(0, NEIGHBORS_BASE, 4, 4, None)],
            ),
            stage(Source::Each, vec![lane(0, PROPS_BASE, 8, 8, Some(visited))]),
        ],
        scope: params.window,
        infer: Some(Infer::EveryOutcome),
        emit_after_issue: false,
    };
    let spec = match params.variant {
        BfsVariant::Custom => spec,
        BfsVariant::Slipstream => slipstream_template(spec),
    };

    let name = match params.variant {
        BfsVariant::Custom => format!("bfs-{input}"),
        BfsVariant::Slipstream => format!("bfs-{input}-slipstream"),
    };
    let factory: crate::usecase::ComponentFactory =
        Arc::new(move || Box::new(TemplateComponent::new(spec.clone())));
    UseCase::new(name, program, mem, fst, rst, factory)
}

/// Writes an array of `W`-byte little-endian elements contiguously from
/// the page-aligned `base`, one page-sized `write_bytes` run at a time:
/// the same bytes and write generation as one `write` per element.
fn write_array<const W: usize>(m: &mut SparseMem, base: u64, elems: impl Iterator<Item = [u8; W]>) {
    debug_assert_eq!(SparseMem::PAGE_BYTES % W, 0, "elements must tile a page");
    let mut run = [0u8; SparseMem::PAGE_BYTES];
    let mut len = 0;
    let mut addr = base;
    for e in elems {
        run[len..len + W].copy_from_slice(&e);
        len += W;
        if len == run.len() {
            m.write_bytes(addr, &run);
            addr += len as u64;
            len = 0;
        }
    }
    m.write_bytes(addr, &run[..len]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::{powerlaw_graph, road_graph};

    #[test]
    fn kernel_computes_correct_parents() {
        let g = road_graph(16, 16, 4, 9);
        let uc = bfs(&g, "test", &BfsParams::default());
        let mut m = uc.machine();
        m.run(50_000_000).unwrap();
        assert!(m.halted());
        let reference = g.bfs_parents(0);
        for (v, &p) in reference.iter().enumerate() {
            let got = m.mem().read_committed(PROPS_BASE + 8 * v as u64, 8) as i64;
            if p < 0 {
                assert!(got < 0, "node {v} should stay unvisited");
            } else {
                // Any valid BFS parent is acceptable in general, but
                // our kernel and reference process in identical order.
                assert_eq!(got, p, "parent mismatch at node {v}");
            }
        }
    }

    #[test]
    fn powerlaw_kernel_terminates() {
        let g = powerlaw_graph(500, 3, 2);
        let uc = bfs(&g, "yt", &BfsParams::default());
        let mut m = uc.machine();
        m.run(50_000_000).unwrap();
        assert!(m.halted());
        // Power-law graphs are connected by construction: all visited.
        for v in 0..g.num_nodes() {
            let got = m.mem().read_committed(PROPS_BASE + 8 * v as u64, 8) as i64;
            assert!(got >= 0, "node {v} unreached");
        }
    }

    #[test]
    fn snoop_tables_cover_both_branches() {
        let g = road_graph(8, 8, 0, 0);
        let uc = bfs(&g, "t", &BfsParams::default());
        assert_eq!(uc.fst.len(), 2);
        assert!(uc.rst.values().any(|e| e.begin_roi));
        assert_eq!(uc.component().name(), "templated-runahead");
    }

    #[test]
    fn variants_of_a_built_use_case_equal_fresh_builds() {
        let g = road_graph(16, 16, 4, 9);
        let base_params = BfsParams {
            source: 3,
            start_level: 2,
            ..BfsParams::default()
        };
        let base = bfs(&g, "t", &base_params);
        for params in [
            BfsParams {
                window: 8,
                ..base_params.clone()
            },
            BfsParams {
                variant: BfsVariant::Slipstream,
                ..base_params.clone()
            },
        ] {
            let fresh = bfs(&g, "t", &params);
            let derived = bfs_variant(&base, "t", &params);
            assert_eq!(derived.name, fresh.name);
            assert_eq!(
                format!("{:?}", derived.program),
                format!("{:?}", fresh.program)
            );
            assert_eq!(derived.fst, fresh.fst);
            assert_eq!(derived.rst, fresh.rst);
            let image = |uc: &UseCase| {
                let mut e = pfm_isa::Enc::new();
                uc.memory.committed().snapshot_encode(&mut e);
                e.finish()
            };
            assert!(image(&derived) == image(&fresh));
        }
    }

    #[test]
    fn slipstream_variant_prunes_loop_branch() {
        let g = road_graph(8, 8, 0, 0);
        let p = BfsParams {
            variant: BfsVariant::Slipstream,
            ..BfsParams::default()
        };
        let uc = bfs(&g, "t", &p);
        assert_eq!(uc.fst.len(), 1, "only the visited branch is pre-executed");
        assert!(uc.name.contains("slipstream"));
    }
}
