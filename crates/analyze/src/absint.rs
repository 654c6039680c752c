//! Flow-sensitive whole-program abstract interpretation: constant
//! propagation over the flat 64-register space, and a unique-reaching-
//! definition analysis that names *the* instruction producing a
//! register's value where that instruction is unambiguous.
//!
//! Both analyses are instances of one forward solver over per-register
//! states (`solve_forward`), walking the same CFG the rest of the
//! crate uses and following the same conventions as
//! [`crate::dataflow`]: round-robin fixpoints over reachable blocks,
//! with `Unknown` edges contributing nothing (they have no
//! destination, so nothing can be propagated along them — the
//! conservative join already happens at whatever real edges exist).
//!
//! Constant propagation is what resolves computed `jalr` targets
//! ([`resolved_jalr_targets`]): when the base register is a proven
//! constant at the jump, the target is static and the CFG can be
//! rebuilt with a `Direct`/`Call` edge in place of `Unknown` (see
//! [`crate::cfg::Cfg::build_with`] and the bounded resolve loop in
//! [`crate::analyze`]). The per-loop affine analysis lives in
//! [`crate::scev`] and consumes both results: header-entry constants
//! feed multiplication folding, unique reaching definitions give the
//! def PCs behind derived watch entries.

use crate::cfg::{BlockId, Cfg};
use pfm_isa::inst::INST_BYTES;
use pfm_isa::{Inst, Program, RegRef};
use std::collections::BTreeMap;

/// Size of the combined integer + FP register space (matches
/// [`RegRef::index`]).
pub const NREGS: usize = 64;

/// One register's constant-propagation lattice value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CVal {
    /// Statically unknown (lattice bottom for precision, top for the
    /// join: anything joined with `Top` is `Top`).
    Top,
    /// Proven to hold exactly this value on every path.
    Const(u64),
}

impl CVal {
    /// Lattice join: equal constants survive, anything else is `Top`.
    pub fn join(self, other: CVal) -> CVal {
        match (self, other) {
            (CVal::Const(a), CVal::Const(b)) if a == b => self,
            _ => CVal::Top,
        }
    }
}

/// Per-block register state: one [`CVal`] per [`RegRef::index`] slot.
pub type CState = [CVal; NREGS];

/// The machine zero-fills its register file, so every register holds
/// the constant 0 at program entry (x0 stays 0 forever by decode).
fn entry_cstate() -> CState {
    [CVal::Const(0); NREGS]
}

/// Constant-propagation solution: the register state at entry to every
/// reachable block (`None` for blocks no known edge reaches).
#[derive(Clone, Debug)]
pub struct ConstProp {
    /// Block-entry states, aligned with `Cfg::blocks`.
    pub inb: Vec<Option<CState>>,
}

/// Reads a register slot, folding x0's architectural zero.
fn get_reg(st: &CState, r: RegRef) -> CVal {
    if r.is_zero() {
        CVal::Const(0)
    } else {
        st[r.index()]
    }
}

/// Writes an integer register slot (x0 writes are discarded).
fn set_int(st: &mut CState, rd: pfm_isa::reg::Reg, v: CVal) {
    if !rd.is_zero() {
        st[RegRef::from(rd).index()] = v;
    }
}

/// Applies one instruction to a constant state.
fn transfer(inst: &Inst, pc: u64, st: &mut CState) {
    let binop = |op: pfm_isa::inst::AluOp, a: CVal, b: CVal| match (a, b) {
        (CVal::Const(x), CVal::Const(y)) => CVal::Const(op.eval(x, y)),
        _ => CVal::Top,
    };
    match *inst {
        Inst::Alu { op, rd, rs1, rs2 } => {
            let v = binop(op, get_reg(st, rs1.into()), get_reg(st, rs2.into()));
            set_int(st, rd, v);
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            let v = binop(op, get_reg(st, rs1.into()), CVal::Const(imm as u64));
            set_int(st, rd, v);
        }
        Inst::Li { rd, imm } => set_int(st, rd, CVal::Const(imm as u64)),
        Inst::Load { rd, .. } => set_int(st, rd, CVal::Top),
        Inst::Jal { rd, .. } | Inst::Jalr { rd, .. } => {
            set_int(st, rd, CVal::Const(pc + INST_BYTES));
        }
        Inst::FLoad { fd, .. } => st[RegRef::from(fd).index()] = CVal::Top,
        Inst::FAlu { fd, .. } => st[RegRef::from(fd).index()] = CVal::Top,
        Inst::FMvToF { fd, rs1 } => st[RegRef::from(fd).index()] = get_reg(st, rs1.into()),
        Inst::FMvToX { rd, fs1 } => {
            let v = get_reg(st, fs1.into());
            set_int(st, rd, v);
        }
        Inst::Store { .. } | Inst::FStore { .. } | Inst::Branch { .. } | Inst::Nop | Inst::Halt => {
        }
    }
}

/// The forward fixpoint both analyses below solve: round-robin over
/// the blocks until nothing changes, block 0 entering at `entry` and
/// every other block at the `join`, slot by slot, of its solved
/// predecessors' exit states; `step` applies one instruction. Returns
/// the block-entry states (`None` for blocks no known edge reaches).
fn solve_forward<V: Copy + PartialEq>(
    prog: &Program,
    cfg: &Cfg,
    entry: [V; NREGS],
    join: impl Fn(V, V) -> V,
    step: impl Fn(&Inst, u64, &mut [V; NREGS]),
) -> Vec<Option<[V; NREGS]>> {
    let n = cfg.blocks.len();
    let mut inb: Vec<Option<[V; NREGS]>> = vec![None; n];
    let mut outb: Vec<Option<[V; NREGS]>> = vec![None; n];
    loop {
        let mut changed = false;
        for b in 0..n {
            let joined = if b == 0 {
                Some(entry)
            } else {
                cfg.preds[b]
                    .iter()
                    .filter_map(|&p| outb[p])
                    .reduce(|mut acc, pout| {
                        for (slot, pv) in acc.iter_mut().zip(pout) {
                            *slot = join(*slot, pv);
                        }
                        acc
                    })
            };
            let Some(input) = joined else { continue };
            if inb[b] != Some(input) {
                inb[b] = Some(input);
                changed = true;
            }
            let mut st = input;
            for pc in cfg.blocks[b].pcs() {
                if let Ok(inst) = prog.fetch(pc) {
                    step(&inst, pc, &mut st);
                }
            }
            if outb[b] != Some(st) {
                outb[b] = Some(st);
                changed = true;
            }
        }
        if !changed {
            return inb;
        }
    }
}

impl ConstProp {
    /// Solves the forward fixpoint over the CFG's reachable blocks.
    pub fn solve(prog: &Program, cfg: &Cfg) -> ConstProp {
        ConstProp {
            inb: solve_forward(prog, cfg, entry_cstate(), CVal::join, transfer),
        }
    }

    /// The constant state just before `pc` executes, replayed from its
    /// block's entry state (`None` if the block is unreached).
    pub fn state_at(&self, prog: &Program, cfg: &Cfg, pc: u64) -> Option<CState> {
        let b = cfg.block_of(pc)?;
        let mut st = self.inb[b]?;
        for p in cfg.blocks[b].pcs() {
            if p == pc {
                return Some(st);
            }
            if let Ok(inst) = prog.fetch(p) {
                transfer(&inst, p, &mut st);
            }
        }
        None
    }
}

/// Computed `jalr`s whose target constant propagation proves: PC of
/// the `jalr` → the target address `(base + offset) & !1`. The `ret`
/// idiom participates too: when `ra` is a proven constant the return
/// goes to exactly that site, which replaces the conservative
/// return-to-every-call-site `Return` edges with one `Direct` edge
/// (and stops those edges from polluting the joins at return sites).
pub fn resolved_jalr_targets(prog: &Program, cfg: &Cfg, cp: &ConstProp) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        let Some(start) = cp.inb[b] else { continue };
        let mut st = start;
        for pc in block.pcs() {
            let Ok(inst) = prog.fetch(pc) else { continue };
            if let Inst::Jalr { base, offset, .. } = inst {
                if let CVal::Const(v) = get_reg(&st, base.into()) {
                    out.insert(pc, v.wrapping_add(offset as u64) & !1);
                }
            }
            transfer(&inst, pc, &mut st);
        }
    }
    out
}

/// Sentinel: no definition reaches (the register still holds its
/// zero-filled entry value).
pub const RD_NONE: u64 = u64::MAX;
/// Sentinel: more than one definition (or a mix of a definition and
/// the entry value) reaches.
pub const RD_MANY: u64 = u64::MAX - 1;

/// Unique-reaching-definition solution: for each block and register,
/// the PC of the single instruction whose write reaches the block
/// entry, or one of the sentinels above. This is what turns "the
/// stream's base register" into "the `mv a0, s3` the component should
/// snoop".
#[derive(Clone, Debug)]
pub struct ReachingDefs {
    /// Block-entry def maps, aligned with `Cfg::blocks` (`None` for
    /// unreached blocks).
    pub inb: Vec<Option<[u64; NREGS]>>,
}

fn rd_join(a: u64, b: u64) -> u64 {
    if a == b {
        a
    } else {
        RD_MANY
    }
}

impl ReachingDefs {
    /// Solves the forward fixpoint over the CFG's reachable blocks.
    pub fn solve(prog: &Program, cfg: &Cfg) -> ReachingDefs {
        let step = |inst: &Inst, pc: u64, st: &mut [u64; NREGS]| {
            if let Some(dst) = inst.info().dst {
                st[dst.index()] = pc;
            }
        };
        ReachingDefs {
            inb: solve_forward(prog, cfg, [RD_NONE; NREGS], rd_join, step),
        }
    }

    /// The unique definition PC of register slot `reg` at entry to
    /// `block`, if there is exactly one.
    pub fn def_of(&self, block: BlockId, reg: usize) -> Option<u64> {
        match self.inb.get(block)?.as_ref()?[reg] {
            RD_NONE | RD_MANY => None,
            pc => Some(pc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfm_isa::reg::names::*;
    use pfm_isa::Asm;

    #[test]
    fn straightline_constants_fold() {
        let mut a = Asm::new(0x1000);
        a.li(A0, 40);
        a.addi(A0, A0, 2);
        a.slli(A1, A0, 1);
        a.halt();
        let prog = a.finish().expect("assembles");
        let cfg = Cfg::build(&prog);
        let cp = ConstProp::solve(&prog, &cfg);
        let st = cp.state_at(&prog, &cfg, 0x100c).expect("halt reached");
        assert_eq!(get_reg(&st, A0.into()), CVal::Const(42));
        assert_eq!(get_reg(&st, A1.into()), CVal::Const(84));
    }

    #[test]
    fn join_over_diverging_paths_loses_disagreeing_constants() {
        // if (a2) a0 = 1; else a0 = 2;  a1 = 7 on both paths.
        let mut a = Asm::new(0);
        let other = a.label();
        let join = a.label();
        a.beq(A2, X0, other);
        a.li(A0, 1);
        a.li(A1, 7);
        a.j(join);
        a.place(other);
        a.li(A0, 2);
        a.li(A1, 7);
        a.place(join);
        a.halt();
        let prog = a.finish().expect("assembles");
        let cfg = Cfg::build(&prog);
        let cp = ConstProp::solve(&prog, &cfg);
        let halt_pc = prog.end() - INST_BYTES;
        let st = cp.state_at(&prog, &cfg, halt_pc).expect("reached");
        assert_eq!(get_reg(&st, A0.into()), CVal::Top);
        assert_eq!(get_reg(&st, A1.into()), CVal::Const(7));
    }

    #[test]
    fn loop_carried_updates_are_top_but_invariants_stay_const() {
        let mut a = Asm::new(0);
        let top = a.label();
        a.li(A0, 0);
        a.li(A1, 10);
        a.place(top);
        a.addi(A0, A0, 1);
        a.bne(A0, A1, top);
        a.halt();
        let prog = a.finish().expect("assembles");
        let cfg = Cfg::build(&prog);
        let cp = ConstProp::solve(&prog, &cfg);
        let st = cp.state_at(&prog, &cfg, 0x8).expect("loop body reached");
        assert_eq!(get_reg(&st, A0.into()), CVal::Top, "loop-carried");
        assert_eq!(get_reg(&st, A1.into()), CVal::Const(10), "invariant");
    }

    #[test]
    fn jalr_with_const_base_is_resolved() {
        let mut a = Asm::new(0);
        a.li(A0, 0x10);
        a.jalr(RA, A0, 4); // target (0x10 + 4) & !1 = 0x14
        a.halt();
        a.li(A1, 1); // 0xc: padding
        a.li(A1, 2); // 0x10
        a.ret(); // 0x14: unreachable here, so it stays unresolved
        let prog = a.finish().expect("assembles");
        let cfg = Cfg::build(&prog);
        let cp = ConstProp::solve(&prog, &cfg);
        let resolved = resolved_jalr_targets(&prog, &cfg, &cp);
        assert_eq!(resolved.get(&0x4), Some(&0x14));
        assert_eq!(resolved.len(), 1, "no state reaches the dead ret");
    }

    #[test]
    fn ret_with_proven_ra_resolves_to_its_one_return_site() {
        let mut a = Asm::new(0);
        let f = a.label();
        a.call(f); // 0x0: ra = 0x4
        a.halt(); // 0x4
        a.place(f);
        a.ret(); // 0x8
        let prog = a.finish().expect("assembles");
        let cfg = Cfg::build(&prog);
        let cp = ConstProp::solve(&prog, &cfg);
        let resolved = resolved_jalr_targets(&prog, &cfg, &cp);
        assert_eq!(resolved.get(&0x8), Some(&0x4), "ra is a proven constant");
        assert_eq!(resolved.len(), 1);
    }

    #[test]
    fn unique_reaching_defs_name_the_def_pc() {
        let mut a = Asm::new(0);
        let other = a.label();
        let join = a.label();
        a.li(A1, 5); // 0x0: unique def of a1
        a.beq(A2, X0, other);
        a.li(A0, 1); // 0x8
        a.j(join);
        a.place(other);
        a.li(A0, 2); // 0x10
        a.place(join);
        a.halt();
        let prog = a.finish().expect("assembles");
        let cfg = Cfg::build(&prog);
        let rd = ReachingDefs::solve(&prog, &cfg);
        let join_block = cfg.block_of(prog.end() - INST_BYTES).expect("join");
        assert_eq!(rd.def_of(join_block, RegRef::from(A1).index()), Some(0x0));
        assert_eq!(
            rd.def_of(join_block, RegRef::from(A0).index()),
            None,
            "two defs reach"
        );
        assert_eq!(
            rd.def_of(join_block, RegRef::from(A3).index()),
            None,
            "never defined"
        );
    }
}
